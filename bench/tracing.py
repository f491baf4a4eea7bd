"""Spans recorded from outside the program, around calls into its public functions.

A module often holds another module's function under its own name
(``han.train`` binds ``forward``, ``predict``, ``augment`` and
``uniform_sample``), so a wrapper must replace every binding of the
function object, not only the one in the defining module. `rebind` does
that by identity over every loaded ``han`` module.

Each span is a tuple ``(name, parent, op, start, end, count, tag)``:
``parent`` is the index of the enclosing span (-1 at the top), ``op`` the
operation id, ``count`` the work the call carried (sequences for forward,
parse, sample and augment; tape records for backward) and ``tag`` marks a
training-mode forward. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> (defining module, attribute); the spans at each layer boundary
FUNCTIONS = {
    "synth.generate_dataset": ("han.synth", "generate_dataset"),
    "data.load_manifest": ("han.data", "load_manifest"),
    "data.parse_sequence": ("han.data", "parse_sequence"),
    "data.uniform_sample": ("han.data", "uniform_sample"),
    "data.augment": ("han.data", "augment"),
    "model.forward": ("han.model", "forward"),
    "model.predict": ("han.model", "predict"),
    "model.save_checkpoint": ("han.model", "save_checkpoint"),
    "model.load_checkpoint": ("han.model", "load_checkpoint"),
    "attention.attend_batch": ("han.attention", "attend_batch"),
    "autodiff.backward": ("han.autodiff", "backward"),
    "train.cross_entropy": ("han.train", "cross_entropy"),
    "train.adam_step": ("han.train", "adam_step"),
    "train.evaluate": ("han.train", "evaluate"),
    "train.train_loop": ("han.train", "train_loop"),
}
# span name -> (module, class, method)
METHODS = {
    "rng.uniform": ("han.rng", "Rng", "uniform"),
}


def bindings(obj):
    """Every (namespace, attribute) of a loaded han module that holds `obj`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "han" or name.startswith("han.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is obj:
                found.append((module, attr))
    return found


def rebind(module_name: str, attr: str, make_wrapper):
    """Replace every binding of ``module_name.attr`` with ``make_wrapper(original)``.

    Returns (install, uninstall) callables; nothing changes until install runs.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    sites = bindings(original)

    def install():
        for namespace, name in sites:
            setattr(namespace, name, wrapper)

    def uninstall():
        for namespace, name in sites:
            setattr(namespace, name, original)

    return install, uninstall


def sequence_count(arg) -> int:
    """Sequences carried by a forward/predict input: one (T, J, 3), or a leading batch axis."""
    frames = getattr(arg, "frames", arg)
    if isinstance(frames, (list, tuple)):
        return len(frames)
    ndim = getattr(frames, "ndim", 3)
    return 1 if ndim <= 3 else int(frames.shape[0])


def site_by_tokens(config) -> dict[int, str]:
    """Map the token count of an attention call to its site in the hierarchy.

    With the default geometry the counts are distinct: part sizes (J),
    six parts (F), the frame count (T) and seven streams (Fusion).
    Folding a batch into the leading axis does not change them.
    """
    sites: dict[int, str] = {}
    for n, site in ([(len(p), "J") for p in config.partition.parts]
                    + [(6, "F"), (config.frames, "T"), (7, "Fusion")]):
        if sites.get(n, site) != site:
            raise ValueError(f"token count {n} is shared by sites {sites[n]} and {site}")
        sites[n] = site
    return sites


class Tracer:
    """Records spans around the layer functions while an operation runs."""

    def __init__(self, config):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._sites = site_by_tokens(config)
        self._patches = []
        for name, (module, attr) in FUNCTIONS.items():
            self._patches.append(rebind(module, attr, lambda fn, n=name: self._wrap(n, fn)))
        for name, (module, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = getattr(cls, method)
            wrapper = self._wrap(name, original)
            self._patches.append((
                lambda c=cls, m=method, w=wrapper: setattr(c, m, w),
                lambda c=cls, m=method, o=original: setattr(c, m, o),
            ))

    def _describe(self, name, args, kwargs):
        if name == "model.forward":
            training = kwargs.get("training", args[2] if len(args) > 2 else False)
            return name, sequence_count(args[0]), "train" if training else ""
        if name == "model.predict":
            return name, sequence_count(args[0]), ""
        if name == "attention.attend_batch":
            x = args[0]
            return "attention." + self._sites.get(x.shape[1], "other"), int(x.shape[0]), ""
        if name == "autodiff.backward":
            tape = kwargs.get("tape", args[1] if len(args) > 1 else None)
            return name, len(tape) if tape is not None else 0, ""
        if name in ("data.parse_sequence", "data.uniform_sample", "data.augment"):
            return name, 1, ""
        return name, 0, ""

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        describe = self._describe

        def traced(*args, **kwargs):
            label, count, tag = describe(name, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, parent, self._op, start, end, count, tag)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, op: int):
        """Install the wrappers and record a root span `name` for operation `op`."""
        self._op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        for install, _ in self._patches:
            install()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            for _, uninstall in reversed(self._patches):
                uninstall()
            self._stack.pop()
            self.spans[index] = (name, -1, op, start, end, 0, "")
            self._op = -1

    def write(self, path: str) -> None:
        """One JSON array per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, op, start, end, count, tag in self.spans:
                fh.write(json.dumps([name, parent, op, round(start, 9), round(end, 9), count, tag]))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for (_, _, _, start, end, _, _) in spans]
    for name, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
