"""Minimal reverse-mode automatic differentiation over numpy arrays.

The primitive set covers exactly what the scoring architectures need:
matmul, 1-D convolution over rows, tanh, elementwise add/multiply with
broadcasting, axis sum, axis max-pooling, exp, guarded log, the matrix
dot product ``<A, B> = A @ B.T``, an embedding-row gather, a bank of RBF
kernels and the products of gathered rows with constant rows.  All data
is float64; forward evaluation is deterministic.

Each op's gradient closure, which holds the op's inputs, is its tape
entry.  ``backward()`` on a scalar output walks the nodes latest-created
first (an output is always created after its inputs) and accumulates
``.grad`` on every tensor created with ``requires_grad=True``.
``ComputeGraph`` wraps a reusable forward function plus its trainable
leaves and provides a central-difference gradient check.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
import zlib
from typing import Callable, Iterable, Sequence

import numpy as np

LOG_FLOOR = 1e-10

_created = itertools.count()

class ShapeError(ValueError):
    """Input shapes violate a primitive's shape rule."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")


class Tensor:
    """A float64 array with an optional gradient tape entry.

    Treat tensors as immutable values once built; only the optimizer
    mutates parameter ``.data`` between passes.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_seq", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._seq = next(_created)
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def backward(self, seed: float = 1.0) -> None:
        """Accumulate gradients of a scalar output into the tape's leaves."""
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        # max-heap on creation number: every consumer of a node was created
        # after it, so is popped first and the node's gradient is complete
        grads = {self._seq: np.full(self.data.shape, float(seed))}
        pending = [(-self._seq, self)]
        while pending:
            _, node = heapq.heappop(pending)
            g = grads.pop(node._seq)
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if not parent.requires_grad and parent._backward is None:
                        continue
                    key = parent._seq
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
                        heapq.heappush(pending, (-key, parent))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Create an op output with tape entry ``backward`` (output gradient ->
    ``(input, gradient)`` pairs), dropped when no input needs a gradient."""
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise primitives (numpy broadcasting rules apply)
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError("add", f"shapes {a.data.shape} and {b.data.shape} do not broadcast")
    return _node(data, (a, b), lambda g: (
        (a, _unbroadcast(g, a.data.shape)),
        (b, _unbroadcast(g, b.data.shape)),
    ))


def mul(a, b) -> Tensor:
    """Hadamard product; broadcasting gives the broadcast-then-Hadamard form."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError("mul", f"shapes {a.data.shape} and {b.data.shape} do not broadcast")
    return _node(data, (a, b), lambda g: (
        (a, _unbroadcast(g * b.data, a.data.shape)),
        (b, _unbroadcast(g * a.data, b.data.shape)),
    ))


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    return _node(y, (x,), lambda g: ((x, g * (1.0 - y * y)),))


def exp(x) -> Tensor:
    x = as_tensor(x)
    y = np.exp(x.data)
    return _node(y, (x,), lambda g: ((x, g * y),))


def log(x) -> Tensor:
    """Natural log with a floor: ``log(max(x, 1e-10))``.

    Below the floor the output is constant, so the gradient there is zero.
    """
    x = as_tensor(x)
    clipped = np.maximum(x.data, LOG_FLOOR)
    y = np.log(clipped)
    mask = x.data > LOG_FLOOR
    return _node(y, (x,), lambda g: ((x, g * mask / clipped),))


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)
    if math.prod(shape) != x.data.size:
        raise ShapeError("reshape", f"cannot reshape {x.data.shape} to {shape}")
    old = x.data.shape
    return _node(x.data.reshape(shape), (x,), lambda g: ((x, g.reshape(old)),))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def asum(x, axis: int | None = None) -> Tensor:
    """Sum along one axis (``axis=1`` is the row-sum contraction), or all."""
    x = as_tensor(x)
    if axis is not None and not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError("sum", f"axis {axis} out of range for shape {x.data.shape}")
    y = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return ((x, np.full(x.data.shape, float(g))),)
        return ((x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy()),)

    return _node(np.asarray(y), (x,), backward)


def max_pool(x, axis: int) -> Tensor:
    """Max along one axis; gradient flows to the first maximal entry."""
    x = as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError("max_pool", f"axis {axis} out of range for shape {x.data.shape}")
    idx = np.argmax(x.data, axis=axis)
    y = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return ((x, gx),)

    return _node(np.asarray(y), (x,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul", f"shapes {a.data.shape} and {b.data.shape} do not chain")
    data = a.data @ b.data
    return _node(data, (a, b), lambda g: (
        (a, g @ b.data.T),
        (b, a.data.T @ g),
    ))


def dot(a, b) -> Tensor:
    """``<A, B> = A @ B.T``: (m, k) x (n, k) -> (m, n); two k-vectors -> scalar."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 1 and b.data.ndim == 1:
        if a.data.shape != b.data.shape:
            raise ShapeError("dot", f"vector lengths differ: {a.data.shape} vs {b.data.shape}")
        data = np.asarray(a.data @ b.data)
        return _node(data, (a, b), lambda g: (
            (a, g * b.data),
            (b, g * a.data),
        ))
    if a.data.ndim == 2 and b.data.ndim == 2 and a.data.shape[1] == b.data.shape[1]:
        data = a.data @ b.data.T
        return _node(data, (a, b), lambda g: (
            (a, g @ b.data),
            (b, g.T @ a.data),
        ))
    raise ShapeError("dot", f"shapes {a.data.shape} and {b.data.shape} do not pair on the last axis")


def conv1d(x, w, width: int) -> Tensor:
    """Valid 1-D convolution over positions.

    ``x`` is (positions, features), one position per row; each window of
    ``width`` consecutive rows is flattened feature-major (entry
    f * width + j holds feature f of the window's row j) and mapped by
    ``w`` of shape (channels, features * width) to one output column:
    (channels, positions - width + 1).  No bias.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError("conv1d", f"need matrices, got {x.data.shape} and {w.data.shape}")
    n, k = x.data.shape
    if w.data.shape[1] != k * width:
        raise ShapeError(
            "conv1d",
            f"weight columns {w.data.shape[1]} != features {k} * width {width}",
        )
    if n < width:
        raise ShapeError("conv1d", f"{n} positions shorter than window width {width}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, width, axis=0)
    col = np.ascontiguousarray(windows.transpose(1, 2, 0)).reshape(k * width, n - width + 1)
    data = w.data @ col

    def backward(g):
        gw = g @ col.T
        gcol = (w.data.T @ g).reshape(k, width, n - width + 1)
        gx = np.zeros_like(x.data)
        for j in range(width):
            gx[j : j + n - width + 1] += gcol[:, j, :].T
        return ((x, gx), (w, gw))

    return _node(data, (x, w), backward)


def gather_rows(table, ids: np.ndarray) -> Tensor:
    """Select rows of a (V, k) table by id; id -1 yields a zero row.

    ``ids`` of any shape give an output of shape ``ids.shape + (k,)``.
    Gradients scatter-add back into the selected rows.
    """
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError("gather_rows", f"need a matrix table, got shape {table.data.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    known = ids >= 0
    out = np.zeros(ids.shape + (table.data.shape[1],))
    out[known] = table.data[ids[known]]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids[known], g[known])
        return ((table, gt),)

    return _node(out, (table,), backward)


def kernel_bank(x, means: np.ndarray, widths: np.ndarray) -> Tensor:
    """RBF kernels of every entry of ``x``: output (K,) + x.shape with
    ``out[k] = exp(-(x - means[k])^2 / (2 widths[k]^2))``.

    The tape entry keeps only the output; backward recomputes x - means.
    """
    x = as_tensor(x)
    shape = (-1,) + (1,) * x.data.ndim
    mu = np.asarray(means, dtype=np.float64).reshape(shape)
    scale = (-1.0 / (2.0 * np.asarray(widths, dtype=np.float64) ** 2)).reshape(shape)
    out = x.data - mu
    out *= out
    out *= scale
    np.exp(out, out=out)

    def backward(g):
        # d out_k / dx = out_k * 2 scale_k (x - mu_k), one kernel at a time
        # so no temporary is as large as the output
        gx = np.zeros_like(x.data)
        for k in range(out.shape[0]):
            gx += g[k] * out[k] * (x.data - mu[k]) * (2.0 * scale[k])
        return ((x, gx),)

    return _node(out, (x,), backward)


def gather_dot(x, index: np.ndarray, w: np.ndarray) -> Tensor:
    """Products of gathered rows with constant rows: for a (K, n, m) ``x``,
    nondecreasing row ids ``index`` (R,) into its middle axis and a
    constant (R, m) array ``w``, the (R, K) output holds
    ``out[r, k] = x[k, index[r]] . w[r]``.

    Rows with the same id share one matmul in each direction.
    """
    x = as_tensor(x)
    w = np.asarray(w, dtype=np.float64)
    if x.data.ndim != 3 or w.shape != (len(index), x.data.shape[2]):
        raise ShapeError("gather_dot",
                         f"shapes {x.data.shape}, ({len(index)},) and {w.shape} do not pair")
    runs: list[list[int]] = []  # [id, first row, end row] per run of equal ids
    for r, a in enumerate(index):
        if runs and runs[-1][0] == a:
            runs[-1][2] = r + 1
        elif runs and runs[-1][0] > a:
            raise ShapeError("gather_dot", "row ids must be nondecreasing")
        else:
            runs.append([a, r, r + 1])
    out = np.empty((len(index), x.data.shape[0]))
    for a, lo, hi in runs:
        out[lo:hi] = w[lo:hi] @ x.data[:, a, :].T

    def backward(g):
        gx = np.zeros_like(x.data)
        for a, lo, hi in runs:
            gx[:, a, :] = g[lo:hi].T @ w[lo:hi]
        return ((x, gx),)

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# Graph wrapper and gradient checking
# ---------------------------------------------------------------------------


class ComputeGraph:
    """A reusable forward function together with its trainable leaves.

    ``fn`` takes no arguments, closes over inputs and parameters, and
    returns a scalar Tensor; calling it again replays the graph against
    the parameters' current values.
    """

    def __init__(self, fn: Callable[[], Tensor], parameters: Iterable[Tensor]):
        self.fn = fn
        self.parameters = list(parameters)
        self.output: Tensor | None = None

    def forward(self) -> float:
        self.output = self.fn()
        return self.output.data.item()

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def backward(self) -> list[np.ndarray]:
        """Forward (if needed) then backpropagate; returns gradients
        aligned with ``parameters``.  Gradient shapes match parameter shapes.
        """
        if self.output is None:
            self.forward()
        self.output.backward()
        return self.gradients()

    def gradients(self) -> list[np.ndarray]:
        return [
            p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in self.parameters
        ]


def finite_difference_check(graph: ComputeGraph, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is ``|analytic - cd| / max(|analytic|,
    |cd|, 1e-6)``; the maximum over every coordinate of every parameter
    is returned.  The denominator floor keeps near-zero coordinates from
    amplifying central-difference roundoff (about |f|*1e-11 at this eps)
    into spurious relative error.
    """
    graph.zero_grad()
    graph.forward()
    analytic = graph.backward()
    worst = 0.0
    for param, grad in zip(graph.parameters, analytic):
        flat = param.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = graph.forward()
            flat[i] = orig - eps
            f_minus = graph.forward()
            flat[i] = orig
            cd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - cd) / max(abs(gflat[i]), abs(cd), 1e-6)
            worst = max(worst, err)
    graph.forward()
    return worst


# ---------------------------------------------------------------------------
# Checkpoint container: named float64 tensors plus a descriptor string
# ---------------------------------------------------------------------------

_MAGIC = b"PRNK"
_VERSION = 2  # version 1 files, which have no checksum, still load


def save_checkpoint(path, descriptor: str, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors with an architecture descriptor.

    Binary layout: magic, format version, descriptor, then per tensor its
    name, shape and raw little-endian float64 values, then the CRC32 of
    every preceding byte.
    """
    desc = descriptor.encode("utf-8")
    parts = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<I", len(desc)), desc,
             struct.pack("<I", len(tensors))]
    for name, array in tensors.items():
        arr = np.asarray(array, dtype="<f8")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    blob = b"".join(parts)
    with open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a checkpoint back; returns (descriptor, name -> array).

    A file cut short, with bytes after its last tensor or, from version 2
    on, whose checksum does not match raises ``ValueError``.
    """
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def read(n: int) -> bytes:
        # checked before slicing, so a corrupt length never allocates
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: checkpoint is truncated")
        pos += n
        return blob[pos - n:pos]

    def u32() -> int:
        return struct.unpack("<I", read(4))[0]

    if read(4) != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version = u32()
    if version not in (1, _VERSION):
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if version == 2:
        if zlib.crc32(blob[:-4]) != struct.unpack("<I", blob[-4:])[0]:
            raise ValueError(f"{path}: checkpoint checksum mismatch")
        blob = blob[:-4]
    descriptor = read(u32()).decode("utf-8")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(u32()):
        name = read(u32()).decode("utf-8")
        ndim = u32()
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
        data = np.frombuffer(read(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
        tensors[name] = data.astype(np.float64)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} bytes after the last tensor")
    return descriptor, tensors
