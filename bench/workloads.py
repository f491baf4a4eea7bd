"""The three benchmark workloads: set-up, one timed operation, and its output checks.

All three are closed loops with one client and use the default model
geometry (d_model 128, 8 heads of 32, 8 frames, 22 joints in the shrec22
partition, 14 classes, shared block weights). Inputs come from
``han.synth`` with the workload seed; the program sees only the generated
files and the arrays parsed from them.

A workload object has ``setup(work_dir)`` (timed as set-up), ``prepare()``
(untimed), ``run()`` (the timed operation, returning the number of
sequences it completed and its output) and ``check(output)`` (untimed,
returning a list of problems; any problem fails the operation).
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import tempfile

import numpy as np

synth = importlib.import_module("han.synth")
data = importlib.import_module("han.data")
model_mod = importlib.import_module("han.model")
train_mod = importlib.import_module("han.train")

from tracing import rebind  # noqa: E402

CLASSES = 14
JOINTS = 22
# two paths over the same float32 model may sum in another order, which
# moves logits by about float32 rounding (1e-7 relative); 1e-5 absolute on
# probabilities near 1/14 leaves room for that and is far below the effect
# of a real defect
PROB_ATOL = 1e-5
ROW_SUM_ATOL = 1e-6


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64).reshape(-1, CLASSES)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def probability_problems(probs: np.ndarray, reference: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(probs)):
        return ["non-finite probability"]
    problems = []
    worst_sum = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst_sum > ROW_SUM_ATOL:
        problems.append(f"probability row sums off by {worst_sum:.3g}")
    if probs.shape != reference.shape:
        problems.append(f"probabilities have shape {probs.shape}, reference {reference.shape}")
    else:
        worst = float(np.max(np.abs(probs - reference)))
        if worst > PROB_ATOL:
            problems.append(f"probabilities differ from the reference by {worst:.3g}")
    return problems


class Workload:
    """Shared set-up: generate data, load the manifest, init, save and reload the model."""

    name = ""
    min_ops = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.model = None

    def synth_config(self):
        raise NotImplementedError

    def common_setup(self, work_dir: str):
        out = tempfile.mkdtemp(prefix="setup-", dir=work_dir)
        manifest = synth.generate_dataset(self.synth_config(), out)
        dataset = data.load_manifest(manifest)
        model = model_mod.HANModel(model_mod.HANConfig(), seed=self.seed)
        path = os.path.join(out, "model.ckpt")
        model_mod.save_checkpoint(model, path)
        self.model = model_mod.load_checkpoint(path)
        return dataset

    def verify_setup(self) -> None:
        """Untimed, after the first set-up: reference outputs for the checks.

        Later set-ups with the same seed must reproduce them, so the checks
        also catch a set-up that is not deterministic.
        """

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass


class TrainWorkload(Workload):
    """`train_loop` over in-memory 20-40 frame sequences, augmentation and dropout on."""

    name = "train"

    def __init__(self, seed: int, sequences: int = 32, epochs: int = 2, batch_size: int = 32):
        super().__init__(seed)
        self.sequences, self.epochs, self.batch_size = sequences, epochs, batch_size
        self.reference_digest = None

    def synth_config(self):
        per_class = math.ceil(self.sequences / CLASSES)
        return synth.SynthConfig(classes=CLASSES, per_class=per_class, joints=JOINTS,
                                 test_fraction=0.0, seed=self.seed)

    def setup(self, work_dir: str) -> None:
        dataset = self.common_setup(work_dir)
        self.seqs = dataset.load_split("train")[: self.sequences]
        self.initial = [t.data.copy() for _, t in self.model.parameters()]
        self.config = train_mod.TrainConfig(batch_size=self.batch_size, max_epochs=self.epochs,
                                            seed=self.seed)

    def prepare(self) -> None:
        for (_, t), start in zip(self.model.parameters(), self.initial):
            t.data = start.copy()
            t.grad = None

    def run(self):
        result = train_mod.train_loop(self.seqs, [], self.model, self.config)
        return len(self.seqs) * len(result.epochs), result

    def check(self, result) -> list[str]:
        problems = []
        losses = [e.train_loss for e in result.epochs]
        if len(losses) != self.epochs:
            problems.append(f"ran {len(losses)} epochs, asked for {self.epochs}")
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"non-finite training loss {losses}")
        digest = hashlib.sha256()
        for _, t in self.model.parameters():
            digest.update(np.ascontiguousarray(t.data).tobytes())
        if self.reference_digest is None:
            self.reference_digest = digest.hexdigest()
        elif digest.hexdigest() != self.reference_digest:
            problems.append("final parameters differ from the first run with the same seed")
        return problems


class EvalWorkload(Workload):
    """Parse 64 sequence files of 60-180 frames, classify them with one `evaluate` call."""

    name = "eval-b64"

    def __init__(self, seed: int, batch: int = 64):
        super().__init__(seed)
        self.batch = batch
        # logits of every forward call, to check what the eval path computed;
        # bound to every name that holds `forward`, so it sees batched calls too
        self.logits: list[np.ndarray] = []

        def make(fn):
            def capturing(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.logits.append(out.data)
                return out
            return capturing

        install, self._uninstall = rebind("han.model", "forward", make)
        install()

    def synth_config(self):
        return synth.SynthConfig(classes=CLASSES, per_class=math.ceil(self.batch / CLASSES),
                                 joints=JOINTS, test_fraction=0.0, min_frames=60,
                                 max_frames=180, seed=self.seed)

    def setup(self, work_dir: str) -> None:
        dataset = self.common_setup(work_dir)
        self.entries = dataset.entries[: self.batch]

    def verify_setup(self) -> None:
        reference = []
        for entry in self.entries:
            seq = data.parse_sequence(entry.path, JOINTS, label=entry.label)
            _, probs = model_mod.predict(data.uniform_sample(seq, self.model.config.frames), self.model)
            reference.append(probs)
        self.reference = np.stack(reference)

    def prepare(self) -> None:
        self.logits.clear()

    def run(self):
        seqs = [data.parse_sequence(e.path, JOINTS, label=e.label) for e in self.entries]
        report = train_mod.evaluate(self.model, seqs)
        return len(seqs), report

    def check(self, report) -> list[str]:
        problems = []
        total = int(report.confusion.sum())
        if total != len(self.entries):
            problems.append(f"confusion matrix counts {total} sequences, expected {len(self.entries)}")
        if not self.logits:
            return problems + ["evaluate ran no forward pass"]
        logits = np.concatenate([np.asarray(x, dtype=np.float64).reshape(-1, CLASSES) for x in self.logits])
        if not np.all(np.isfinite(logits)):
            return problems + ["non-finite logit"]
        return problems + probability_problems(softmax_rows(logits), self.reference)

    def close(self) -> None:
        self._uninstall()


class PredictWorkload(Workload):
    """`predict` on one already-sampled in-memory sequence per call."""

    name = "predict-b1"
    min_ops = 1000

    def __init__(self, seed: int, pool: int = 28):
        super().__init__(seed)
        self.pool = pool
        self.calls = 0

    def synth_config(self):
        return synth.SynthConfig(classes=CLASSES, per_class=math.ceil(self.pool / CLASSES),
                                 joints=JOINTS, test_fraction=0.0, seed=self.seed)

    def setup(self, work_dir: str) -> None:
        dataset = self.common_setup(work_dir)
        frames = self.model.config.frames
        self.sampled = [data.uniform_sample(s, frames) for s in dataset.load_split("train")[: self.pool]]

    def verify_setup(self) -> None:
        self.reference = [model_mod.predict(s, self.model)[1] for s in self.sampled]

    def prepare(self) -> None:
        self.current = self.calls % len(self.sampled)
        self.calls += 1

    def run(self):
        _, probs = model_mod.predict(self.sampled[self.current], self.model)
        return 1, probs

    def check(self, probs) -> list[str]:
        probs = np.asarray(probs, dtype=np.float64).reshape(1, -1)
        return probability_problems(probs, self.reference[self.current].reshape(1, -1))


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, PredictWorkload)}
