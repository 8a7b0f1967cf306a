"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each operation closes over its inputs and appends itself to
an implicit graph through parent links; ``backward`` on a scalar root does a
topological sweep and accumulates chain-rule contributions (summing over
multiple uses). A graph takes one backward: the sweep releases each interior
node (an op's output) once its chain-rule step has run, so leaves keep their
gradients and interior nodes do not. A backward rule hands each input its
contribution and makes no further use of it: a first one is stored as that
array and a later one is added into it in place, so no second table-sized
array is made. An op computes in the dtype of its array operands, so a graph
built from float32 parameters stays float32: a Python or 0-d scalar operand
takes the dtype of the tensor it meets.
"""

import contextlib
import math

import numpy as np

from . import kernels
from .errors import DomainError, GraphReleasedError, NumericsError, RankError, ShapeError

_grad_enabled = True
_ADD_BLOCK = 1 << 18  # elements of each block of a product added into an existing gradient
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


def _accum_product(t, x, y):
    """Add the weight gradient x.T @ y into t.grad.

    A later float32 contribution is added in near-equal blocks of about
    _ADD_BLOCK elements along the product's longer axis, so no second array
    of the gradient's size is made; float32 GEMMs round every element alike
    in any block. float64 GEMMs may round a block's edge rows differently
    (OpenBLAS dgemm does), so a float64 one, like any first contribution,
    is added as the whole product.
    """
    if not t.requires_grad:
        return
    grad = t.grad
    if grad is None or grad.dtype != np.float32:
        t._accum(x.T @ y)
        return
    extent, count = max(grad.shape), -(-grad.size // _ADD_BLOCK)
    for i in range(count):
        part = slice(extent * i // count, extent * (i + 1) // count)
        if extent == grad.shape[0]:
            grad[part] += x[:, part].T @ y
        else:
            grad[:, part] += x.T @ y[:, part]


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _shaped(op, *operands):
    """op(*operands), its ValueError (operands that do not broadcast or join) raised as ShapeError."""
    try:
        return op(*operands)
    except ValueError as exc:
        raise ShapeError(str(exc)) from exc


def _released(g=None):
    """Stands in for the backward of a swept interior node; reaching it raises."""
    raise GraphReleasedError("backward reached a node an earlier backward released")


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

    def item(self):
        if self.data.size != 1:
            raise RankError(f"item needs a one-element tensor, got shape {self.data.shape}")
        return self.data.item()  # a Python float: the data is a float array

    def detach(self):
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward -------------------------------------------------------------

    def backward(self):
        """Set the gradient of this scalar root in every leaf it reaches, replacing old ones.

        Each interior node is released after its chain-rule step (its grad, its
        closure with the activations it holds, its parent links; its value
        stays), so a graph takes one backward: one that reaches a released node
        raises GraphReleasedError before any gradient changes.
        """
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
            if node._backward is _released:
                _released()
            visited.add(node)
            stack.append((node, True))
            for parent in node._prev:
                if parent not in visited:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        del visited  # it holds every node too
        while topo:  # popped, so a swept node is freed once nothing outside the graph holds it
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    # the closure gets the only reference to its g and may free it before it returns
                    node._backward(node._take_grad())
                node._backward, node._prev = _released, ()

    def _take_grad(self):
        """Return self.grad and set it to None, leaving no reference in the caller's frame.

        Inlined as ``g, node.grad = node.grad, None; node._backward(g)``, the
        local g would keep the array alive until the closure returns.
        """
        grad, self.grad = self.grad, None
        return grad

    def _accum(self, grad):
        """Add one chain-rule contribution to self.grad; the caller hands grad over.

        The caller makes no further use of grad, and no other gradient shares
        its memory, so a first contribution is stored as that array (cast
        only where its dtype differs) and a later one is added into it in place.
        """
        if self.requires_grad:
            if grad.shape != self.data.shape:
                grad = _unbroadcast(grad, self.data.shape)
            if self.grad is None:
                self.grad = np.asarray(grad, self.data.dtype)
            else:
                self.grad += grad

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor._lift(other, self)
        data = _shaped(np.add, a.data, b.data)

        def backward(g):  # x @ W + bias copies nothing: the bias keeps a sum of g, x gets g
            b._accum(g)
            a._accum(g.copy() if b.grad is g and a.requires_grad else g)

        return Tensor._make(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._make(-a.data, (a,), lambda g: a._accum(-g))

    def __sub__(self, other):
        """a - b as one node; equal bit for bit to a + (-b)."""
        a, b = self, Tensor._lift(other, self)
        data = _shaped(np.subtract, a.data, b.data)

        def backward(g):
            a._accum(g)
            if b.requires_grad:
                b._accum(-g)

        return Tensor._make(data, (a, b), backward)

    def __rsub__(self, other):
        return Tensor._lift(other, self) - self

    def __mul__(self, other):
        a, b = self, Tensor._lift(other, self)
        data = _shaped(np.multiply, a.data, b.data)

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
        a, b = self, Tensor._lift(other)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"matmul needs (m,k)@(k,n), got {a.data.shape} @ {b.data.shape}")
        data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                a._accum(_matmul_t(g, b.data))
            _accum_product(b, a.data, g)

        return Tensor._make(data, (a, b), backward)

    # -- shape ops ------------------------------------------------------------

    def __getitem__(self, key):
        a = self
        data = a.data[key]

        def backward(g):
            buf = np.zeros(a.data.shape, a.data.dtype)
            np.add.at(buf, key, g)  # an array key may repeat an index, whose gradients add
            a._accum(buf)

        return Tensor._make(data, (a,), backward)

    def reshape(self, *shape):
        a = self
        data = a.data.reshape(*shape)
        return Tensor._make(data, (a,), lambda g: a._accum(g.reshape(a.data.shape)))

    def sum(self, axis=None):
        a = self
        data = a.data.sum(axis=axis)

        def backward(g):  # materialised: a broadcast view is read-only
            out = np.empty(a.data.shape, g.dtype)
            out[...] = g if axis is None else np.expand_dims(g, axis)
            a._accum(out)

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
        """log(sigmoid(x)) as min(x, 0) - log1p(exp(-|x|)): exp never overflows, in any dtype."""
        a = self
        data = np.minimum(a.data, 0.0) - np.log1p(np.exp(-np.abs(a.data)))
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
    data = _shaped(np.concatenate, [t.data for t in tensors], axis)
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
    """Row lookup table[ids]; gradient scatter-adds into the table.

    Each touched row of the gradient adds the sum of its rows of g, made in
    index order by one flat add.at over slot * width + column; a first
    gradient starts as a zero table, and an untouched -0.0 stays -0.0.
    """
    table = Tensor._lift(table)
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros(table.data.shape, table.data.dtype)  # calloc: untouched rows fault no pages
        # the touched rows in order, and each id's slot among them, without np.unique's sort
        touched = np.zeros(len(table.data), bool)
        touched[ids] = True
        rows = np.flatnonzero(touched)
        slot = np.empty(len(touched), np.int64)
        slot[rows] = np.arange(len(rows))
        width = math.prod(table.data.shape[1:])
        sums = np.zeros(len(rows) * width, table.data.dtype)
        np.add.at(sums, (slot[ids].reshape(-1, 1) * width + np.arange(width)).reshape(-1), g.reshape(-1))
        table.grad[rows] += sums.reshape(len(rows), *table.data.shape[1:])

    return Tensor._make(table.data[ids], (table,), backward)


def pick(x, ids):
    """x[arange(B), ids] for a 2-D tensor; returns shape (B,)."""
    x = Tensor._lift(x)
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.data.shape[0],):
        raise ShapeError(f"pick needs (B,K) tensor and (B,) ids, got {x.data.shape}, {ids.shape}")
    return x[np.arange(x.data.shape[0]), ids]


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
        self.c = np.zeros(self.h.shape, wh.dtype)
        self.saved = []

    def step(self, t, xw):
        self.h[t + 1], self.c[t + 1], saved = kernels.lstm_cell_forward(
            xw + self.h[t] @ self.wh + self.b, self.c[t])
        self.saved.append(saved)
        return self.h[t + 1]

    def backward_step(self, t, dh, dc, d_pre, rows=slice(None)):
        """(dL/dc[t], dL/dh[t]) from dL/dh[t + 1] and dL/dc[t + 1]; step t's d_pre goes into d_pre."""
        ifo, g, tc = self.saved[t]
        dc = kernels.lstm_cell_backward(dh, dc, self.c[t, rows], ifo[:, rows], g[rows], tc[rows], d_pre)[1]
        return dc, _matmul_t(d_pre, self.wh) if t else None  # h[0], the zero state, takes no gradient

    def accum_weights(self, x, d_pre, wx, wh, b, rows=slice(None)):
        """Weight gradients from the (T*B, 4H) d_pre rows, one GEMM per matrix."""
        for w, inp in ((wx, x), (wh, self.h[:-1, rows])):
            _accum_product(w, inp.reshape(len(d_pre), inp.shape[-1]), d_pre)
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
        d_pre = xw  # the input projections are spent once the tape has run; d_pre reuses their buffer
        dh_next = dc = 0.0  # the gradients entering the last step; the first backward_step makes arrays
        for t in reversed(range(tlen)):
            dc, dh_next = tape.backward_step(t, g[t] + dh_next, dc, d_pre[t])
        d_pre = d_pre.reshape(tlen * bsz, xw.shape[2])
        if x.requires_grad:
            x._accum((d_pre @ wx.data.T).reshape(x.data.shape))
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
    # one C-contiguous array per batch, so a node's backward reads its rows as
    # they are and a batch's rows are freed with its node; step_rows holds
    # the current step's rows of all batches for the shared GEMMs
    rows = [np.empty((steps + 1, sl.stop - sl.start, vocab), dtype) for sl in slices]
    step_rows = np.empty((bsz, vocab), dtype)
    for y0, r, sl in zip(y0s, rows, slices):
        r[0] = step_rows[sl] = y0.data
    x = np.empty((steps, bsz, emb.data.shape[1]), dtype)
    tape = _LstmTape(wh.data, b.data, steps, bsz)
    for t in range(steps):
        x[t] = step_rows @ emb.data
        h = tape.step(t, x[t] @ wx.data)
        kernels.softmax_rows((h @ proj_w.data + proj_b.data + gumbel[t]) * (1.0 / tau), out=step_rows)
        for r, sl in zip(rows, slices):
            r[t + 1] = step_rows[sl]

    def node(y0, rows, sl):
        def backward(g):
            n, hdim = g.shape[1], tape.h.shape[2]
            d_logits, d_x = np.empty((steps, n, vocab), dtype), np.empty((steps, n, x.shape[2]), dtype)
            d_pre = np.empty((steps, n, 4 * hdim), dtype)
            dy, dh_next, dc = g[steps], 0.0, 0.0
            for t in reversed(range(steps)):
                y = rows[t + 1]
                d_logits[t] = (y * (dy - (dy * y).sum(axis=-1, keepdims=True))) * (1.0 / tau)
                dh = _matmul_t(d_logits[t], proj_w.data) + dh_next
                dc, dh_next = tape.backward_step(t, dh, dc, d_pre[t], sl)
                d_x[t] = _matmul_t(d_pre[t], wx.data)
                dy = g[t] + _matmul_t(d_x[t], emb.data)
            del g  # Tensor.backward handed over its only reference
            y0._accum(dy)
            rows_in = steps * n
            tape.accum_weights(x[:, sl], d_pre.reshape(rows_in, 4 * hdim), wx, wh, b, sl)
            d_logits = d_logits.reshape(rows_in, vocab)
            _accum_product(proj_w, tape.h[1:, sl].reshape(rows_in, hdim), d_logits)
            proj_b._accum(d_logits.sum(axis=0))
            del d_logits  # spent before the emb product
            _accum_product(emb, rows[:-1].reshape(rows_in, vocab), d_x.reshape(rows_in, x.shape[2]))

        return Tensor._make(rows, (y0, emb, wx, wh, b, proj_w, proj_b), backward)

    return [node(*args) for args in zip(y0s, rows, slices)]


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
    f(probe).backward()
    analytic = probe.grad

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
