"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each operation closes over its inputs and appends itself to
an implicit graph through parent links; ``backward`` on a scalar root does a
topological sweep and accumulates chain-rule contributions (summing over
multiple uses). An op computes in the dtype of its array operands, so a
graph built from float32 parameters stays float32: a Python or 0-d scalar
operand takes the dtype of the tensor it meets.
"""

import contextlib

import numpy as np

from . import kernels
from .errors import DomainError, NumericsError, RankError, ShapeError

_grad_enabled = True
_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


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
    """Float arrays are wrapped as they are (no copy); anything else becomes float64.

    A scalar meeting a tensor in an op is cast by Tensor._lift instead, since
    a float64 0-d array would promote a float32 operand.
    """
    arr = np.asarray(data)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(np.float64)


def _matmul_t(x, w):
    """x @ w.T as a C-contiguous (w @ x.T).T: BLAS reads a C-ordered table w as it is stored."""
    return np.ascontiguousarray((w @ x.T).T)


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
    def _lift(x, like=None):
        """x as a Tensor; a Python or 0-d scalar takes the dtype of the tensor like."""
        if isinstance(x, Tensor):
            return x
        # isinstance first: np.ndim of a Python number costs about 2 us
        if like is not None and (isinstance(x, (int, float)) or np.ndim(x) == 0):
            return Tensor(np.asarray(x, like.data.dtype))
        return Tensor(x)

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor.__new__(Tensor)  # a float ndarray is stored as it is
        out.data = data if type(data) is np.ndarray and data.dtype in _FLOAT_DTYPES else _as_array(data)
        out.grad, out.requires_grad, out._backward, out._prev = None, False, None, ()
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad, out._prev, out._backward = True, tuple(parents), backward
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
            if node in visited:  # a Tensor hashes by identity
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._prev:
                if parent not in visited:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accum(self, grad, owned=False):
        """Add one chain-rule contribution to self.grad.

        owned=True says the backward closure has just made grad and holds
        it nowhere else, so a first contribution is stored without a copy.
        Anything that is or may be shared (an upstream g, a view, a slice)
        is copied, since a later contribution adds into self.grad in place.
        """
        if self.requires_grad:
            if grad.shape != self.data.shape:
                grad = _unbroadcast(grad, self.data.shape)
            if self.grad is None:
                self.grad = np.asarray(grad, self.data.dtype) if owned else np.array(grad, self.data.dtype)
            else:
                self.grad += grad

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other, self)
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
        return Tensor._make(-a.data, (a,), lambda g: a._accum(-g, owned=True))

    def __sub__(self, other):
        """a - b as one node; equal bit for bit to a + (-b)."""
        a, b = self, Tensor._lift(other, self)
        try:
            data = a.data - b.data
        except ValueError as exc:
            raise ShapeError(str(exc)) from exc

        def backward(g):
            a._accum(g)
            if b.requires_grad:
                b._accum(-g, owned=True)

        return Tensor._make(data, (a, b), backward)

    def __rsub__(self, other):
        return Tensor._lift(other, self) - self

    def __mul__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other
        try:
            data = a.data * b.data
        except ValueError as exc:
            raise ShapeError(str(exc)) from exc

        def backward(g):
            a._accum(g * b.data, owned=True)
            b._accum(g * a.data, owned=True)

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
                a._accum(_matmul_t(g, b.data), owned=True)
            if b.requires_grad:
                b._accum(a.data.T @ g, owned=True)

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
                a._accum(buf, owned=True)

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
        return Tensor._make(data, (a,), lambda g: a._accum(g * data, owned=True))

    def log(self):
        a = self
        if np.any(a.data <= 0.0):
            raise DomainError("log requires strictly positive input")
        data = np.log(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g / a.data, owned=True))

    def tanh(self):
        a = self
        data = np.tanh(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * (1.0 - data * data), owned=True))

    def sigmoid(self):
        a = self
        data = kernels.sigmoid(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * data * (1.0 - data), owned=True))

    def log_sigmoid(self):
        """log(sigmoid(x)) as min(x, 0) - log1p(exp(-|x|)): exp never overflows, in any dtype."""
        a = self
        data = np.minimum(a.data, 0.0) - np.log1p(np.exp(-np.abs(a.data)))
        sig = kernels.sigmoid(a.data)
        return Tensor._make(data, (a,), lambda g: a._accum(g * (1.0 - sig), owned=True))

    def softmax(self):
        """Softmax over the last axis (max-subtracted)."""
        a = self
        data = kernels.softmax_rows(np.ascontiguousarray(a.data))

        def backward(g):
            dot = (g * data).sum(axis=-1, keepdims=True)
            a._accum(data * (g - dot), owned=True)

        return Tensor._make(data, (a,), backward)

    def log_softmax(self):
        a = self
        data = kernels.log_softmax_rows(np.ascontiguousarray(a.data))

        def backward(g):
            soft = np.exp(data)
            a._accum(g - soft * g.sum(axis=-1, keepdims=True), owned=True)

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
            buf = np.zeros(table.data.shape, table.data.dtype)  # calloc: no second zero-fill pass
            np.add.at(buf, ids, g)
            table._accum(buf, owned=True)

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
            x._accum(buf, owned=True)

    return Tensor._make(x.data[rows, ids], (x,), backward)


def lstm_cell(pre, c_prev):
    """One forward LSTM step on arrays; returns (h, c).

    pre is the (B, 4H) preactivation [i|f|o|g], c_prev is (B, H). No graph
    node: generate_batch steps through this name rather than the kernel
    because perfbench's tracer counts calls to networks.lstm_cell.
    """
    if pre.ndim != 2 or c_prev.ndim != 2 or pre.shape != (c_prev.shape[0], 4 * c_prev.shape[1]):
        raise ShapeError(f"lstm_cell needs (B,4H) and (B,H), got {pre.shape}, {c_prev.shape}")
    h, c, _ = kernels.lstm_cell_forward(pre, c_prev)
    return h, c


class _LstmTape:
    """An LSTM run from the zero state, kept for its reverse loop.

    h[t] and c[t] are the states entering step t; the caller supplies each
    step's input projection x_t @ wx. The backward methods take the batch
    rows they cover, so one run can serve several independent batches.
    """

    def __init__(self, wh, b, tlen, bsz):
        self.wh, self.b = wh, b
        self.h = np.zeros((tlen + 1, bsz, wh.shape[0]), wh.dtype)
        self.c = np.zeros_like(self.h)
        self.saved = []

    def step(self, t, xw):
        self.h[t + 1], self.c[t + 1], saved = kernels.lstm_cell_forward(
            xw + self.h[t] @ self.wh + self.b, self.c[t])
        self.saved.append(saved)
        return self.h[t + 1]

    def backward_step(self, t, dh, dc, d_pre, rows=slice(None)):
        """dL/dc[t] of step t from dL/dh[t + 1] and dL/dc[t + 1]; the step's d_pre goes into d_pre."""
        ifo, g, tc = self.saved[t]
        return kernels.lstm_cell_backward(dh, dc, self.c[t, rows], ifo[:, rows], g[rows], tc[rows], d_pre)[1]

    def accum_weights(self, x, d_pre, wx, wh, b, rows=slice(None)):
        """Weight gradients from the (T*B, 4H) d_pre rows, one GEMM per matrix."""
        for w, inp in ((wx, x), (wh, self.h[:-1, rows])):
            if w.requires_grad:
                w._accum(inp.reshape(len(d_pre), inp.shape[-1]).T @ d_pre, owned=True)
        b._accum(d_pre.sum(axis=0), owned=True)


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
        d_pre = xw  # the input projections are spent once the tape has run; d_pre reuses their buffer
        dh_next, dc = 0.0, np.zeros_like(tape.h[0])
        for t in reversed(range(tlen)):
            dc = tape.backward_step(t, g[t] + dh_next, dc, d_pre[t])
            dh_next = _matmul_t(d_pre[t], wh.data)
        d_pre = d_pre.reshape(tlen * bsz, xw.shape[2])
        if x.requires_grad:
            x._accum((d_pre @ wx.data.T).reshape(x.data.shape), owned=True)
        tape.accum_weights(x.data, d_pre, wx, wh, b)

    return Tensor._make(tape.h[1:], (x, wx, wh, b), backward)


def gumbel_lstm_sequence(y0s, emb, wx, wh, b, proj_w, proj_b, gumbel, tau):
    """Free-running Gumbel-softmax LSTM generator over one or more batches, run as one batch.

    From the (B_i, V) first rows y0s, step t embeds row t - 1 by the (V, D)
    table, runs the LSTM and the projection, and emits
    softmax((logits + gumbel[t - 1]) / tau); gumbel is (steps, sum of B_i,
    V), its columns in the order of y0s. Returns one (steps + 1, B_i, V)
    node per first row, in the dtype of emb; the gumbel array is cast to it.
    Each node's backward covers only its own rows, so its gradients are
    those of a run over its batch alone.
    """
    y0s = [Tensor._lift(y) for y in y0s]
    emb, wx, wh, b, proj_w, proj_b = (Tensor._lift(t) for t in (emb, wx, wh, b, proj_w, proj_b))
    dtype = emb.data.dtype
    gumbel = np.asarray(gumbel, dtype)
    steps, bsz, vocab = gumbel.shape
    slices, stop = [], 0
    for y0 in y0s:
        slices.append(slice(stop, stop + len(y0.data)))
        stop = slices[-1].stop
    if stop != bsz:
        raise ShapeError(f"first rows {[y.shape for y in y0s]} need {stop} noise columns, got {bsz}")
    _check_lstm_weights(wx, wh, b, emb.data.shape[1])
    rows = np.empty((steps + 1, bsz, vocab), dtype)
    for y0, sl in zip(y0s, slices):
        rows[0, sl] = y0.data
    x = np.empty((steps, bsz, emb.data.shape[1]), dtype)
    tape = _LstmTape(wh.data, b.data, steps, bsz)
    for t in range(steps):
        x[t] = rows[t] @ emb.data
        h = tape.step(t, x[t] @ wx.data)
        rows[t + 1] = kernels.softmax_rows((h @ proj_w.data + proj_b.data + gumbel[t]) * (1.0 / tau))

    def node(y0, sl):
        def backward(g):
            n, hdim = g.shape[1], tape.h.shape[2]
            d_logits, d_x = np.empty((steps, n, vocab), dtype), np.empty((steps, n, x.shape[2]), dtype)
            d_pre = np.empty((steps, n, 4 * hdim), dtype)
            dy, dh_next, dc = g[steps], 0.0, np.zeros((n, hdim), dtype)
            for t in reversed(range(steps)):
                y = rows[t + 1, sl]
                d_logits[t] = (y * (dy - (dy * y).sum(axis=-1, keepdims=True))) * (1.0 / tau)
                dc = tape.backward_step(t, _matmul_t(d_logits[t], proj_w.data) + dh_next, dc, d_pre[t], sl)
                dh_next = _matmul_t(d_pre[t], wh.data)
                d_x[t] = _matmul_t(d_pre[t], wx.data)
                dy = g[t] + _matmul_t(d_x[t], emb.data)
            y0._accum(dy)
            rows_in = steps * n
            tape.accum_weights(x[:, sl], d_pre.reshape(rows_in, 4 * hdim), wx, wh, b, sl)
            d_logits = d_logits.reshape(rows_in, vocab)
            if emb.requires_grad:
                emb._accum(rows[:-1, sl].reshape(rows_in, vocab).T @ d_x.reshape(rows_in, x.shape[2]),
                           owned=True)
            if proj_w.requires_grad:
                proj_w._accum(tape.h[1:, sl].reshape(rows_in, hdim).T @ d_logits, owned=True)
            proj_b._accum(d_logits.sum(axis=0), owned=True)

        return Tensor._make(rows[:, sl], (y0, emb, wx, wh, b, proj_w, proj_b), backward)

    return [node(y0, sl) for y0, sl in zip(y0s, slices)]


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
