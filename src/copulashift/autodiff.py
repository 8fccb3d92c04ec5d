"""Reverse-mode automatic differentiation on dense 2-D float64 arrays.

The graph is built eagerly: every operation allocates a :class:`Node`
holding its value, its parents, and a closure mapping the output gradient
to parent gradients. ``backward`` sweeps the reachable graph in decreasing
creation order, which is a valid reverse topological order because parents
always exist before their children, and accumulates in that fixed order so
repeated runs are bit-identical.

Subgradient conventions at kinks: relu'(0) = 0, sqrt'(0) = 0,
and clamp passes gradient only strictly inside the interval.

Every op coerces a plain operand with ``constant``, so it always returns a
Node; a caller that wants a plain number reads it back with ``item``.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import ContractViolation, DomainError, ShapeError

_counter = itertools.count()


def tensor(values) -> np.ndarray:
    """Validate and normalize ``values`` into a read-only 2-D float64 array.

    Scalars become (1, 1), 1-D arrays become column vectors, 2-D arrays are
    kept as-is. Rank > 2 or non-finite entries are rejected.
    """
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ContractViolation(f"tensor: rank must be <= 2, got shape {arr.shape}")
    if arr.size == 0:
        raise ContractViolation("tensor: empty arrays are not admitted")
    if not np.isfinite(arr).all():
        raise DomainError("tensor: NaN/Inf entries are not admitted")
    arr.setflags(write=False)
    return arr


def _seal(arr: np.ndarray) -> np.ndarray:
    # internal results are freshly allocated; just freeze them
    arr.setflags(write=False)
    return arr


class Node:
    """A value in the computation graph plus its gradient accumulator."""

    __slots__ = ("value", "op", "parents", "index", "_backward", "_grad")

    # make `ndarray <op> Node` defer to our reflected operators instead of
    # broadcasting into an object array
    __array_ufunc__ = None

    def __init__(self, value: np.ndarray, op: str, parents: tuple = (),
                 backward: Callable | None = None):
        self.value = value
        self.op = op
        self.parents = parents
        self.index = next(_counter)
        self._backward = backward
        self._grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        """Gradient accumulated by the last ``backward`` call (zeros before)."""
        if self._grad is None:
            return np.zeros_like(self.value)
        return self._grad

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ContractViolation(f"item: node has shape {self.value.shape}, not (1, 1)")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, index={self.index})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def leaf(values) -> Node:
    """Create an input node (a differentiation target)."""
    return Node(tensor(values), "leaf")


def constant(values) -> Node:
    """Create a data node. Gradients still flow into it but it marks intent."""
    if isinstance(values, Node):
        return values
    return Node(tensor(values), "constant")


def _pair(op: str, a, b) -> tuple[Node, Node]:
    a, b = constant(a), constant(b)
    if a.shape != b.shape and a.shape != (1, 1) and b.shape != (1, 1):
        raise ShapeError(op, a.shape, b.shape)
    return a, b


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # only scalar (1,1) broadcasting exists in this engine
    if g.shape == shape:
        return g
    return g.sum().reshape(1, 1)


# -- arithmetic --------------------------------------------------------------

def add(a, b) -> Node:
    a, b = _pair("add", a, b)
    out = _seal(a.value + b.value)
    return Node(out, "add", (a, b),
                lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Node:
    a, b = _pair("sub", a, b)
    out = _seal(a.value - b.value)
    return Node(out, "sub", (a, b),
                lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Node:
    # plain-number factors become a single-parent scale, skipping the wasted
    # gradient computation into a throwaway constant
    if isinstance(a, Node) and isinstance(b, (int, float, np.integer, np.floating)):
        try:
            s = float(b)
        except OverflowError:  # an integer too large for a float, such as 10**400
            s = np.inf
        if not np.isfinite(s):
            raise DomainError("mul: non-finite scalar factor")
        return Node(_seal(a.value * s), "scale", (a,), lambda g: (g * s,))
    if isinstance(b, Node) and isinstance(a, (int, float, np.integer, np.floating)):
        return mul(b, a)
    a, b = _pair("mul", a, b)
    out = _seal(a.value * b.value)
    return Node(out, "mul", (a, b),
                lambda g: (_unbroadcast(g * b.value, a.shape),
                           _unbroadcast(g * a.value, b.shape)))


def matmul(a, b) -> Node:
    a, b = constant(a), constant(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = _seal(a.value @ b.value)
    return Node(out, "matmul", (a, b),
                lambda g: (g @ b.value.T, a.value.T @ g))


def add_bias(x, b) -> Node:
    """Add a (1, m) bias row to every row of an (n, m) matrix."""
    x, b = constant(x), constant(b)
    if b.shape != (1, x.shape[1]):
        raise ShapeError("add_bias", x.shape, b.shape)
    out = _seal(x.value + b.value)
    return Node(out, "add_bias", (x, b), lambda g: (g, _column_sums(g)))


def dense(x, w, b, activation=None) -> Node:
    """One layer ``act(x @ w + b)`` as a single node; ``activation`` is None, "relu" or "tanh".

    It replays ``matmul``, ``add_bias`` and the activation op for op, so its
    value and gradients have the bits of those three nodes.
    """
    x, w, b = constant(x), constant(w), constant(b)
    if x.shape[1] != w.shape[0]:
        raise ShapeError("dense", x.shape, w.shape)
    if b.shape != (1, w.shape[1]):
        raise ShapeError("dense", (x.shape[0], w.shape[1]), b.shape)
    if activation not in (None, "relu", "tanh"):
        raise ContractViolation(f"dense: unknown activation {activation!r}")
    z = x.value @ w.value
    z += b.value
    out = z
    if activation == "relu":
        out = np.maximum(z, 0.0)
    elif activation == "tanh":
        out = np.tanh(z)

    def back(g):
        if activation == "relu":
            g = g * (z > 0.0)
        elif activation == "tanh":
            g = g * (1.0 - out * out)
        return (g @ w.value.T, x.value.T @ g, _column_sums(g))

    return Node(_seal(out), "dense", (x, w, b), back)


def _column_sums(g: np.ndarray) -> np.ndarray:
    """``g.sum(axis=0, keepdims=True)``, bit for bit, in under half the time.

    Down the strided columns of a C-ordered matrix numpy adds the rows one
    at a time starting from zero, as ``einsum`` does, but by a slower path.
    Down a contiguous column (a single column, or Fortran order) numpy sums
    pairwise instead, so that case keeps ``sum``.
    """
    if g.shape[1] > 1 and g.flags.c_contiguous:
        return np.einsum("ij->j", g).reshape(1, -1)
    return g.sum(axis=0, keepdims=True)


# -- elementwise nonlinearities ----------------------------------------------

def exp(a) -> Node:
    a = constant(a)
    out = _seal(np.exp(a.value))
    if not np.all(np.isfinite(out)):
        raise DomainError("exp: overflow to non-finite value")
    return Node(out, "exp", (a,), lambda g: (g * out,))


def sqrt(a) -> Node:
    a = constant(a)
    if np.any(a.value < 0.0):
        raise DomainError("sqrt: operand must be nonnegative")
    out = _seal(np.sqrt(a.value))

    def back(g):
        # subgradient 0 at the origin
        d = np.zeros_like(out)
        np.divide(0.5, out, out=d, where=out > 0.0)
        return (g * d,)

    return Node(out, "sqrt", (a,), back)


def tanh(a) -> Node:
    a = constant(a)
    out = _seal(np.tanh(a.value))
    return Node(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def relu(a) -> Node:
    a = constant(a)
    out = _seal(np.maximum(a.value, 0.0))
    return Node(out, "relu", (a,), lambda g: (g * (a.value > 0.0),))


def clamp(a, lo=None, hi=None) -> Node:
    if lo is None and hi is None:
        raise ContractViolation("clamp: at least one bound is required")
    if lo is not None and hi is not None and lo > hi:
        raise ContractViolation(f"clamp: lo={lo} exceeds hi={hi}")
    a = constant(a)
    out = _seal(np.clip(a.value, lo, hi))
    inside = np.ones_like(a.value, dtype=bool)
    if lo is not None:
        inside &= a.value > lo
    if hi is not None:
        inside &= a.value < hi
    return Node(out, "clamp", (a,), lambda g: (g * inside,))


# -- reductions and structure --------------------------------------------------

def total(a) -> Node:
    """Sum of all entries, as a (1, 1) node."""
    a = constant(a)
    out = _seal(np.array([[a.value.sum()]]))
    shape = a.shape
    return Node(out, "total", (a,),
                lambda g: (np.full(shape, g[0, 0]),))


def mean(a) -> Node:
    """Mean of all entries, as a (1, 1) node."""
    a = constant(a)
    out = _seal(np.array([[a.value.mean()]]))
    shape, size = a.shape, a.value.size
    return Node(out, "mean", (a,),
                lambda g: (np.full(shape, g[0, 0] / size),))


def pairwise_diff(x, y) -> Node:
    """All pairwise differences of two column vectors: (n,1),(m,1) -> (n,m)."""
    x, y = constant(x), constant(y)
    if x.shape[1] != 1 or y.shape[1] != 1:
        raise ShapeError("pairwise_diff", x.shape, y.shape)
    out = _seal(x.value - y.value.T)
    return Node(out, "pairwise_diff", (x, y),
                lambda g: (g.sum(axis=1, keepdims=True),
                           -g.sum(axis=0).reshape(-1, 1)))


def _gather_index(op: str, indices, bound: int, axis: str) -> np.ndarray:
    idx = np.asarray(indices)
    if idx.size == 0:
        raise ContractViolation(f"{op}: empty index list")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractViolation(
            f"{op}: indices must have an integer dtype, got {idx.dtype}")
    idx = idx.astype(np.intp, copy=False).ravel()
    if idx.min() < 0 or idx.max() >= bound:
        raise ContractViolation(f"{op}: index out of range for {bound} {axis}")
    return idx


def _scatter_add(shape, rows, cols, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with ``g[k, l]`` added at ``(rows[k, l], cols[k, l])``.

    ``rows`` and ``cols`` broadcast to ``g.shape``. ``bincount`` adds the
    weights in order of occurrence starting from zero, as ``np.add.at``
    does, so duplicate indices accumulate bit-identically to it. ``g`` is
    walked in its own memory order, which saves a copy when it is
    Fortran-ordered (as gathered columns are); in either order the
    duplicates of one gathered row or column arrive in increasing index
    order, so the sums do not change.
    """
    order = "F" if g.flags.f_contiguous and not g.flags.c_contiguous else "C"
    flat = np.empty(g.shape, dtype=np.intp, order=order)
    np.add(rows * shape[1], cols, out=flat)
    return np.bincount(flat.ravel(order), weights=g.ravel(order),
                       minlength=shape[0] * shape[1]).reshape(shape)


def take_rows(a, indices) -> Node:
    """Gather rows by integer index; duplicates scatter-add in the backward pass."""
    a = constant(a)
    idx = _gather_index("take_rows", indices, a.shape[0], "rows")
    out = _seal(a.value[idx, :])
    shape = a.shape
    return Node(out, "take_rows", (a,),
                lambda g: (_scatter_add(shape, idx[:, None], np.arange(shape[1]), g),))


def take_cols(a, indices) -> Node:
    """Gather columns by integer index; duplicates scatter-add in the backward pass."""
    a = constant(a)
    idx = _gather_index("take_cols", indices, a.shape[1], "columns")
    out = _seal(a.value[:, idx])
    shape = a.shape
    return Node(out, "take_cols", (a,),
                lambda g: (_scatter_add(shape, np.arange(shape[0])[:, None], idx, g),))


# numpy adds the items of a row shorter than 8 one by one starting from +0.0
# (its pairwise sum unrolls only from 8 on), and a reduction along such a
# short row costs several times a ufunc call on one column. So narrow rows
# are reduced one column at a time, which gives the same bits.
_NARROW_ROW = 8


def _row_max(x: np.ndarray) -> np.ndarray:
    if x.shape[1] >= _NARROW_ROW:
        return x.max(axis=1, keepdims=True)
    m = x[:, :1]
    for c in range(1, x.shape[1]):
        m = np.maximum(m, x[:, c:c + 1])
    return m


def _row_sums(x: np.ndarray) -> np.ndarray:
    if x.shape[1] >= _NARROW_ROW:
        return x.sum(axis=1, keepdims=True)
    s = x[:, :1] + 0.0  # starts from +0.0 as numpy does: a -0.0 total reads +0.0
    for c in range(1, x.shape[1]):
        s += x[:, c:c + 1]
    return s


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array with the usual max-shift stabilization."""
    e = np.exp(z - _row_max(z))
    return e / _row_sums(e)


# -- backward ------------------------------------------------------------------

def _reachable(out: Node) -> list[Node]:
    seen = {out}
    stack = [out]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(seen, key=lambda n: n.index, reverse=True)


def backward(out: Node) -> None:
    """Populate ``grad`` on every node reachable from the scalar ``out``.

    Gradients are reset first, so calling this twice on the same node gives
    bit-identical results. Accumulation never mutates an array in place, so
    gradient buffers may be shared between nodes and are safe to read.
    """
    if out.shape != (1, 1):
        raise ContractViolation(
            f"backward: output must be scalar (1, 1), got shape {out.shape}")
    order = _reachable(out)
    for node in order:
        node._grad = None
    out._grad = np.ones((1, 1))
    for node in order:
        if node._backward is None or node._grad is None:
            continue
        for parent, g in zip(node.parents, node._backward(node._grad)):
            parent._grad = g if parent._grad is None else parent._grad + g
