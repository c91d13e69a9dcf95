"""Minimal reverse-mode automatic differentiation over numpy arrays.

The primitive set covers exactly what the scoring architectures need:
matmul, transpose, 1-D convolution, tanh, elementwise add/multiply with
broadcasting, axis sum, axis max-pooling, exp, guarded log, the matrix
dot product ``<A, B> = A @ B.T`` and an embedding-row gather.  All data is
float64; forward evaluation is deterministic.

Gradients are recorded as closures on the output tensor (a tape); calling
``backward()`` on a scalar output walks the tape in reverse topological
order and accumulates ``.grad`` on every tensor created with
``requires_grad=True``.  ``ComputeGraph`` wraps a reusable forward
function plus its trainable leaves and provides a central-difference
gradient check.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Iterable, Sequence

import numpy as np

LOG_FLOOR = 1e-10

class ShapeError(ValueError):
    """Input shapes violate a primitive's shape rule."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class Tensor:
    """A float64 array with an optional gradient tape entry.

    Treat tensors as immutable values once built; only the optimizer
    mutates parameter ``.data`` between passes.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def backward(self, seed: float = 1.0) -> None:
        """Accumulate gradients of a scalar output into the tape's leaves."""
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.full(self.data.shape, float(seed))}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if not parent.requires_grad and parent._backward is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    """Reverse topological order of the tape reachable from ``root``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Create an op output; the tape entry is dropped when no parent needs it."""
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
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
    if int(np.prod(shape)) != x.data.size:
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


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("transpose", f"need a matrix, got shape {x.data.shape}")
    return _node(x.data.T.copy(), (x,), lambda g: ((x, g.T),))


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

    ``x`` is (features, positions); each window of ``width`` consecutive
    columns is flattened row-major and mapped by ``w`` of shape
    (channels, features * width) to one output column: (channels,
    positions - width + 1).  No bias.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError("conv1d", f"need matrices, got {x.data.shape} and {w.data.shape}")
    k, n = x.data.shape
    if w.data.shape[1] != k * width:
        raise ShapeError(
            "conv1d",
            f"weight columns {w.data.shape[1]} != features {k} * width {width}",
        )
    if n < width:
        raise ShapeError("conv1d", f"{n} positions shorter than window width {width}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, width, axis=1)
    col = np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(k * width, n - width + 1)
    data = w.data @ col

    def backward(g):
        gw = g @ col.T
        gcol = (w.data.T @ g).reshape(k, width, n - width + 1)
        gx = np.zeros_like(x.data)
        for j in range(width):
            gx[:, j : j + n - width + 1] += gcol[:, j, :]
        return ((x, gx), (w, gw))

    return _node(data, (x, w), backward)


def gather_rows(table, ids: np.ndarray) -> Tensor:
    """Select rows of a (V, k) table by id; id -1 yields a zero row.

    Gradients scatter-add back into the selected rows.
    """
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError("gather_rows", f"need a matrix table, got shape {table.data.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    known = ids >= 0
    out = np.zeros((ids.shape[0], table.data.shape[1]))
    out[known] = table.data[ids[known]]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids[known], g[known])
        return ((table, gt),)

    return _node(out, (table,), backward)


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
_VERSION = 1


def save_checkpoint(path, descriptor: str, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors with an architecture descriptor.

    Binary layout: magic, format version, descriptor, then per tensor its
    name, shape and raw little-endian float64 values.
    """
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        desc = descriptor.encode("utf-8")
        f.write(struct.pack("<I", len(desc)))
        f.write(desc)
        f.write(struct.pack("<I", len(tensors)))
        for name, array in tensors.items():
            arr = np.asarray(array, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a checkpoint back; returns (descriptor, name -> array).

    A file cut short, or with bytes after its last tensor, raises ``ValueError``.
    """
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            # checked before reading, so a corrupt length never allocates
            if f.tell() + n > end:
                raise ValueError(f"{path}: checkpoint is truncated")
            return f.read(n)

        def u32() -> int:
            return struct.unpack("<I", read(4))[0]

        if f.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version = u32()
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        descriptor = read(u32()).decode("utf-8")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(u32()):
            name = read(u32()).decode("utf-8")
            ndim = u32()
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            data = np.frombuffer(read(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
            tensors[name] = data.astype(np.float64)
        if f.tell() != end:
            raise ValueError(f"{path}: {end - f.tell()} bytes after the last tensor")
        return descriptor, tensors
