"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a row-major numpy array. While a
:class:`GradientTape` is active, every differentiable operation appends a
record holding its input/output tensors and a closure that maps the output
gradient to input gradients. Records are appended in execution order, so
replaying the tape back to front visits operations in exact reverse
topological order of the forward pass.

The ops here are the general-purpose ones the model wires its sites with.
A block with its own closed-form backward, such as the attention block,
registers itself as one record through `record_op`.

Training runs in float32; float64 exists for gradient checking, where
central finite differences need the extra headroom.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import HanError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32

DTYPES = (np.float32, np.float64)  # what a tensor may hold


class Tensor:
    """n-dimensional real array, optionally carrying a gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in DTYPES:
            raise UsageError(f"a tensor holds float32 or float64 values, got {arr.dtype}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def constant(data, dtype=None) -> Tensor:
    """Tensor that never receives a gradient."""
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True, dtype=dtype)


class _Record:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPE_STACKS = threading.local()


def _active_tapes() -> list["GradientTape"]:
    stack = getattr(_TAPE_STACKS, "tapes", None)
    if stack is None:
        stack = _TAPE_STACKS.tapes = []
    return stack


class GradientTape:
    """Ordered record of executed operations, consumed once by backward().

    One tape is single-threaded; independent tapes on different threads
    record independently.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "GradientTape":
        _active_tapes().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _active_tapes().remove(self)

    def __len__(self) -> int:
        return len(self._records)

    def reset(self) -> None:
        """Drop all records and clear gradients on every tensor touched."""
        for rec in self._records:
            rec.output.grad = None
            for t in rec.inputs:
                t.grad = None
        self._records.clear()


def record_op(op: str, inputs: tuple[Tensor, ...], output: Tensor, backward_fn) -> Tensor:
    """Register a custom differentiable operation on the active tape.

    `backward_fn(grad_out)` must return one gradient array (or None) per
    input, in input order.
    """
    output.requires_grad = any(t.requires_grad for t in inputs)
    if output.requires_grad:
        stack = _active_tapes()
        if stack:
            stack[-1]._records.append(_Record(op, inputs, output, backward_fn))
    return output


def backward(loss: Tensor, tape: GradientTape) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every tensor on the tape.

    The loss must be a scalar; its seed gradient is 1. Tensors not on any
    path to the loss keep grad=None, and so does every record's output once
    its record has run: only the tape's leaves keep a gradient.

    A first gradient is kept as given and later ones are added out of place,
    because one array may reach several tensors (`reshape` and `stack` hand
    out views, and a custom op may return one array for two inputs) or stay
    held by a backward closure; backward never writes into a gradient array.
    """
    if loss.size != 1:
        raise UsageError(f"backward() needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape._records):
        g_out = rec.output.grad
        if g_out is None:
            continue
        grads_in = rec.backward_fn(g_out)
        rec.output.grad = None
        for t, g in zip(rec.inputs, grads_in):
            if g is None or not t.requires_grad:
                continue
            if g.shape != t.data.shape:  # a broken op, not a caller's mistake: the CLI exits 4
                raise HanError(f"{rec.op} backward produced gradient {g.shape} for input {t.data.shape}")
            if t.grad is None:
                t.grad = g.astype(t.data.dtype, copy=False)
            else:
                t.grad = t.grad + g


def _check_same_dtype(op: str, *tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise UsageError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: y[..., o] = sum_i x[..., i] * w[o, i] (+ b[o])."""
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be 2-d, got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input width {x.shape} does not match weight {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    _check_same_dtype("linear", *([x, w] + ([b] if b is not None else [])))
    # one 2-D GEMM over all rows: a stacked product on a 3-D operand is several times slower
    y = (x.data.reshape(-1, w.shape[1]) @ w.data.T).reshape(x.shape[:-1] + (w.shape[0],))
    if b is not None:
        y = y + b.data
    out = Tensor(y)
    inputs = (x, w) if b is None else (x, w, b)

    def bwd(g):
        g2 = g.reshape(-1, w.shape[0])
        x2 = x.data.reshape(-1, w.shape[1])
        gx = (g2 @ w.data).reshape(x.data.shape) if x.requires_grad else None
        gw = g2.T @ x2 if w.requires_grad else None
        if b is None:
            return gx, gw
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return record_op("linear", inputs, out, bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(x.data.shape),)

    return record_op("reshape", (x,), out, bwd)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack equally shaped tensors along a new axis."""
    if not tensors:
        raise UsageError("stack needs at least one tensor")
    _check_same_dtype("stack", *tensors)
    shapes = {t.shape for t in tensors}
    if len(shapes) > 1:
        raise ShapeError(f"stack needs equal shapes, got {sorted(shapes)}")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))

    def bwd(g):
        pieces = np.moveaxis(g, axis, 0)
        return tuple(pieces[i] for i in range(len(tensors)))

    return record_op("stack", tuple(tensors), out, bwd)


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Join tensors of one rank along an existing axis; every other axis must match."""
    if not tensors:
        raise UsageError("concatenate needs at least one tensor")
    _check_same_dtype("concatenate", *tensors)
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError as exc:  # numpy names the axis or the mismatch
        raise ShapeError(f"concatenate of {[t.shape for t in tensors]}: {exc}") from exc
    bounds = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def bwd(g):
        return tuple(np.split(g, bounds, axis=axis))

    return record_op("concatenate", tuple(tensors), out, bwd)


def transpose(x: Tensor, axes: tuple[int, ...], shape: tuple[int, ...] | None = None) -> Tensor:
    """The axes of x permuted as `np.transpose(x, axes)`, copied to row-major order, then viewed as `shape`."""
    try:
        moved = np.ascontiguousarray(np.transpose(x.data, axes))
        out = Tensor(moved if shape is None else moved.reshape(shape))
    except ValueError as exc:
        raise ShapeError(f"transpose of {x.shape} by {axes} to {shape}: {exc}") from exc
    inverse = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g.reshape(moved.shape), inverse),)

    return record_op("transpose", (x,), out, bwd)


def select(x: Tensor, index: int, axis: int = 0) -> Tensor:
    """The slice of x at `index` along `axis`, that axis dropped."""
    try:
        out = Tensor(np.take(x.data, index, axis=axis))
    except IndexError as exc:
        raise ShapeError(f"select of {index} on axis {axis} of {x.shape}: {exc}") from exc

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.moveaxis(gx, axis, 0)[index] = g
        return (gx,)

    return record_op("select", (x,), out, bwd)
