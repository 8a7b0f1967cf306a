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
_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


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
    """Float arrays are wrapped as they are (no copy); anything else becomes float64."""
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
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
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accum(self, grad):
        if self.requires_grad:
            grad = _unbroadcast(grad, self.data.shape)
            if self.grad is None:
                self.grad = np.array(grad, dtype=self.data.dtype)
            else:
                self.grad += grad

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
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        return Tensor._make(data, (a, b), backward)

    # -- shape ops ------------------------------------------------------------

    def __getitem__(self, key):
        a = self
        data = a.data[key]
        basic = all(isinstance(k, _BASIC_INDEX) for k in (key if isinstance(key, tuple) else (key,)))

        def backward(g):
            if a.requires_grad:
                buf = np.zeros_like(a.data)
                if basic:  # a view: no index repeats
                    buf[key] += g
                else:
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

        def backward(g):  # _accum copies the broadcast view
            a._accum(np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.data.shape))

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


class _LstmTape:
    """An LSTM run from the zero state, kept for its reverse loop.

    h[t] and c[t] are the states entering step t; the caller supplies each
    step's input projection x_t @ wx.
    """

    def __init__(self, wh, b, tlen, bsz):
        self.wh, self.b = wh, b
        self.h = np.zeros((tlen + 1, bsz, wh.shape[0]))
        self.c = np.zeros_like(self.h)
        self.saved = []

    def step(self, t, xw):
        hc, saved = kernels.lstm_cell_forward(xw + self.h[t] @ self.wh + self.b, self.c[t])
        hdim = self.wh.shape[0]
        self.h[t + 1], self.c[t + 1] = hc[:, :hdim], hc[:, hdim:]
        self.saved.append(saved)
        return self.h[t + 1]

    def backward_step(self, t, dh, dc):
        """(d_pre, dL/dc[t]) of step t from dL/dh[t + 1] and dL/dc[t + 1]."""
        return kernels.lstm_cell_backward(np.concatenate([dh, dc], axis=1), self.c[t], *self.saved[t])

    def accum_weights(self, x, d_pre, wx, wh, b):
        """Weight gradients from the (T*B, 4H) d_pre rows, one GEMM per matrix."""
        for w, inp in ((wx, x), (wh, self.h[:-1])):
            if w.requires_grad:
                w._accum(inp.reshape(len(d_pre), inp.shape[-1]).T @ d_pre)
        b._accum(d_pre.sum(axis=0))


def _check_lstm_weights(wx, wh, b, d_in):
    hdim = wh.data.shape[0]
    shapes = (wx.data.shape, wh.data.shape, b.data.shape)
    if shapes != ((d_in, 4 * hdim), (hdim, 4 * hdim), (4 * hdim,)):
        raise ShapeError(f"LSTM weights need ({d_in},4H), (H,4H), (4H,), got {shapes}")


def lstm_sequence(x, wx, wh, b):
    """Teacher-forced LSTM over a (T, B, D) sequence from the zero state, as one node.

    Returns the (T, B, H) hidden states. The input projection of all steps
    is one GEMM, and so is each weight gradient.
    """
    x, wx, wh, b = (Tensor._lift(t) for t in (x, wx, wh, b))
    if x.data.ndim != 3:
        raise ShapeError(f"lstm_sequence needs a (T,B,D) input, got {x.data.shape}")
    tlen, bsz, d_in = x.data.shape
    _check_lstm_weights(wx, wh, b, d_in)
    xw = (x.data.reshape(tlen * bsz, d_in) @ wx.data).reshape(tlen, bsz, wx.data.shape[1])
    tape = _LstmTape(wh.data, b.data, tlen, bsz)
    for t in range(tlen):
        tape.step(t, xw[t])

    def backward(g):
        d_pre = np.empty_like(xw)
        dh_next, dc = 0.0, np.zeros_like(tape.h[0])
        for t in reversed(range(tlen)):
            d_pre[t], dc = tape.backward_step(t, g[t] + dh_next, dc)
            dh_next = d_pre[t] @ wh.data.T
        d_pre = d_pre.reshape(tlen * bsz, xw.shape[2])
        if x.requires_grad:
            x._accum((d_pre @ wx.data.T).reshape(x.data.shape))
        tape.accum_weights(x.data, d_pre, wx, wh, b)

    return Tensor._make(tape.h[1:], (x, wx, wh, b), backward)


def gumbel_lstm_sequence(y0, emb, wx, wh, b, proj_w, proj_b, gumbel, tau):
    """Free-running Gumbel-softmax LSTM generator, as one node.

    From the (B, V) first row y0, step t embeds row t - 1 by the (V, D)
    table, runs the LSTM and the projection, and emits
    softmax((logits + gumbel[t - 1]) / tau). Returns the
    (len(gumbel) + 1, B, V) rows.
    """
    y0, emb, wx, wh, b, proj_w, proj_b = (Tensor._lift(t) for t in (y0, emb, wx, wh, b, proj_w, proj_b))
    steps, bsz, vocab = gumbel.shape
    _check_lstm_weights(wx, wh, b, emb.data.shape[1])
    rows = np.empty((steps + 1, bsz, vocab))
    rows[0] = y0.data
    x = np.empty((steps, bsz, emb.data.shape[1]))
    tape = _LstmTape(wh.data, b.data, steps, bsz)
    for t in range(steps):
        x[t] = rows[t] @ emb.data
        h = tape.step(t, x[t] @ wx.data)
        rows[t + 1] = kernels.softmax_rows((h @ proj_w.data + proj_b.data + gumbel[t]) * (1.0 / tau))

    def backward(g):
        d_logits, d_x = np.empty_like(rows[1:]), np.empty_like(x)
        d_pre = np.empty((steps, bsz, 4 * tape.h.shape[2]))
        dy, dh_next, dc = g[steps], 0.0, np.zeros_like(tape.h[0])
        for t in reversed(range(steps)):
            y = rows[t + 1]
            d_logits[t] = (y * (dy - (dy * y).sum(axis=-1, keepdims=True))) * (1.0 / tau)
            d_pre[t], dc = tape.backward_step(t, d_logits[t] @ proj_w.data.T + dh_next, dc)
            dh_next = d_pre[t] @ wh.data.T
            d_x[t] = d_pre[t] @ wx.data.T
            dy = g[t] + d_x[t] @ emb.data.T
        y0._accum(dy)
        rows_in = steps * bsz
        tape.accum_weights(x, d_pre.reshape(rows_in, d_pre.shape[2]), wx, wh, b)
        d_logits = d_logits.reshape(rows_in, vocab)
        if emb.requires_grad:
            emb._accum(rows[:-1].reshape(rows_in, vocab).T @ d_x.reshape(rows_in, x.shape[2]))
        if proj_w.requires_grad:
            proj_w._accum(tape.h[1:].reshape(rows_in, tape.h.shape[2]).T @ d_logits)
        proj_b._accum(d_logits.sum(axis=0))

    return Tensor._make(rows, (y0, emb, wx, wh, b, proj_w, proj_b), backward)


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
