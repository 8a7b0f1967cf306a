"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each operation closes over its inputs and appends itself to
an implicit graph through parent links; ``backward`` on a scalar root does a
topological sweep and accumulates chain-rule contributions (summing over
multiple uses). Double precision throughout unless a float32 array is passed
in explicitly.
"""

import contextlib

import numpy as np

from . import kernels
from .errors import DomainError, NumericsError, RankError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data):
    arr = np.asarray(data)
    if arr.dtype == np.float32:
        return arr
    return arr.astype(np.float64)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def detach(self):
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward -------------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise RankError(f"backward root must be scalar, got shape {self.data.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in topo:
            if node.requires_grad:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def _accum(self, grad):
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad += _unbroadcast(grad, self.data.shape)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        a, b = self, other
        try:
            data = a.data + b.data
        except ValueError as exc:
            raise ShapeError(str(exc)) from exc

        def backward(g):
            a._accum(g)
            b._accum(g)

        return Tensor._make(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._make(-a.data, (a,), lambda g: a._accum(-g))

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other
        try:
            data = a.data * b.data
        except ValueError as exc:
            raise ShapeError(str(exc)) from exc

        def backward(g):
            a._accum(g * b.data)
            b._accum(g * a.data)

        return Tensor._make(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division not in the op set; use * reciprocal")
        return self * (1.0 / other)

    def __matmul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"matmul needs (m,k)@(k,n), got {a.data.shape} @ {b.data.shape}")
        data = a.data @ b.data

        def backward(g):
            a._accum(g @ b.data.T)
            b._accum(a.data.T @ g)

        return Tensor._make(data, (a, b), backward)

    # -- shape ops ------------------------------------------------------------

    def __getitem__(self, key):
        a = self
        data = a.data[key]

        def backward(g):
            if a.requires_grad:
                buf = np.zeros_like(a.data)
                np.add.at(buf, key, g)
                a._accum(buf)

        return Tensor._make(data, (a,), backward)

    def reshape(self, *shape):
        a = self
        data = a.data.reshape(*shape)
        return Tensor._make(data, (a,), lambda g: a._accum(g.reshape(a.data.shape)))

    def sum(self, axis=None):
        a = self
        data = a.data.sum(axis=axis)

        def backward(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
            else:
                a._accum(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

        return Tensor._make(data, (a,), backward)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self):
        a = self
        data = np.exp(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * data))

    def log(self):
        a = self
        if np.any(a.data <= 0.0):
            raise DomainError("log requires strictly positive input")
        data = np.log(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g / a.data))

    def tanh(self):
        a = self
        data = np.tanh(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * (1.0 - data * data)))

    def sigmoid(self):
        a = self
        data = kernels.sigmoid(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * data * (1.0 - data)))

    def log_sigmoid(self):
        """log(sigmoid(x)) computed as -softplus(-x); safe for large |x|."""
        a = self
        data = np.where(a.data >= 0, -np.log1p(np.exp(-a.data)), a.data - np.log1p(np.exp(a.data)))
        sig = kernels.sigmoid(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * (1.0 - sig)))

    def softmax(self):
        """Softmax over the last axis (max-subtracted)."""
        a = self
        data = kernels.softmax_rows(np.ascontiguousarray(a.data))

        def backward(g):
            dot = (g * data).sum(axis=-1, keepdims=True)
            a._accum(data * (g - dot))

        return Tensor._make(data, (a,), backward)

    def log_softmax(self):
        a = self
        data = kernels.log_softmax_rows(np.ascontiguousarray(a.data))

        def backward(g):
            soft = np.exp(data)
            a._accum(g - soft * g.sum(axis=-1, keepdims=True))

        return Tensor._make(data, (a,), backward)


# -- free-function ops ---------------------------------------------------------

def concat(tensors, axis=0):
    tensors = [Tensor._lift(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(str(exc)) from exc
    extents = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, extent in zip(tensors, extents):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + extent)
            t._accum(g[tuple(idx)])
            offset += extent

    return Tensor._make(data, tuple(tensors), backward)


def gather_rows(table, ids):
    """Row lookup table[ids]; gradient scatter-adds into the table."""
    table = Tensor._lift(table)
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids, g)
            table._accum(buf)

    return Tensor._make(table.data[ids], (table,), backward)


def pick(x, ids):
    """x[arange(B), ids] for a 2-D tensor; returns shape (B,)."""
    x = Tensor._lift(x)
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.data.shape[0],):
        raise ShapeError(f"pick needs (B,K) tensor and (B,) ids, got {x.data.shape}, {ids.shape}")
    rows = np.arange(x.data.shape[0])

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[rows, ids] = g
            x._accum(buf)

    return Tensor._make(x.data[rows, ids], (x,), backward)


def lstm_cell(pre, c_prev):
    """Fused LSTM cell; returns hc = concat(h_new, c_new) along axis 1.

    pre is the (B, 4H) gate preactivation [i|f|o|g], c_prev is (B, H).
    """
    pre = Tensor._lift(pre)
    c_prev = Tensor._lift(c_prev)
    if pre.data.ndim != 2 or c_prev.data.ndim != 2 or pre.data.shape != (
        c_prev.data.shape[0],
        4 * c_prev.data.shape[1],
    ):
        raise ShapeError(f"lstm_cell needs (B,4H) and (B,H), got {pre.data.shape}, {c_prev.data.shape}")
    data, saved = kernels.lstm_cell_forward(
        np.ascontiguousarray(pre.data), np.ascontiguousarray(c_prev.data)
    )
    i, f, o, g_gate, tc = saved

    def backward(g):
        d_pre, d_c = kernels.lstm_cell_backward(
            np.ascontiguousarray(g), np.ascontiguousarray(c_prev.data), i, f, o, g_gate, tc
        )
        pre._accum(d_pre)
        c_prev._accum(d_c)

    return Tensor._make(data, (pre, c_prev), backward)


def straight_through_hard(y):
    """One-hot argmax of the last axis in the value; identity in the gradient."""
    y = Tensor._lift(y)
    flat = y.data.reshape(-1, y.data.shape[-1])
    hard = np.zeros_like(flat)
    hard[np.arange(flat.shape[0]), flat.argmax(axis=1)] = 1.0
    return Tensor._make(hard.reshape(y.data.shape), (y,), lambda g: y._accum(g))


def grad_check(f, x, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    f maps a Tensor to a scalar Tensor. The relative error per coordinate is
    |analytic - numeric| / max(1, |analytic| + |numeric|).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    out.backward()
    analytic = probe.grad.copy()

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    with no_grad():
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = f(Tensor(flat.reshape(x.data.shape))).item()
            flat[k] = orig - eps
            lo = f(Tensor(flat.reshape(x.data.shape))).item()
            flat[k] = orig
            numeric[k] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        raise NumericsError("non-finite values in gradient check")
    denom = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
