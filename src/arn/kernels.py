"""Hot numeric kernels: fused LSTM cell, row softmax, Adam, stable sigmoid.

One vectorized NumPy implementation of each.
"""

import numpy as np

# perfbench/run.py records this in its environment block; there is no numba path.
USING_NUMBA = False


def sigmoid(x):
    """Logistic function without overflow: exp only ever sees non-positive input.

    Equal bit for bit to 1/(1+e) for x >= 0 and e/(1+e) below, e = exp(-|x|),
    without the masks. The tanh form 0.5*(1+tanh(x/2)) is not used: its
    relative error grows to about 2e-4 at x = -30.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def lstm_cell_forward(pre, c_prev):
    """Fused LSTM cell: gate math given preactivations.

    pre: (B, 4H) preactivations laid out [i | f | o | g]; c_prev: (B, H).
    Returns (h_new, c_new, saved), where saved = (ifo, g, tanh_c_new) is
    kept for the backward pass, with ifo the (3, B, H) gate-major block of
    the i, f and o sigmoids.
    """
    bsz, hdim = c_prev.shape
    # one sigmoid over the [i|f|o] block, laid out gate-major so that each
    # gate is a contiguous (B, H) array for the elementwise backward
    i, f, o = ifo = sigmoid(np.ascontiguousarray(pre[:, :3 * hdim].reshape(bsz, 3, hdim).transpose(1, 0, 2)))
    g = np.tanh(pre[:, 3 * hdim:])
    c_new = f * c_prev + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (ifo, g, tc)


def lstm_cell_backward(dh, dc, c_prev, ifo, g, tc, d_pre=None):
    """Backward of the fused cell, given lstm_cell_forward's saved (ifo, g, tc).

    dh, dc: (B, H) gradients w.r.t. h_new and c_new; ifo may be the rows
    ifo[:, rows] of the saved block, with g[rows] and tc[rows]. Returns
    (d_pre, d_c_prev), d_pre written into a given C-contiguous (B, 4H) array.
    """
    bsz, hdim = c_prev.shape
    i, f, o = ifo
    dc = dc + dh * o * (1.0 - tc * tc)
    # the three sigmoid gates' terms d * s * (1 - s) as one (3, B, H) block
    d_ifo = np.empty(ifo.shape, dh.dtype)
    np.multiply(dc, g, out=d_ifo[0])
    np.multiply(dc, c_prev, out=d_ifo[1])
    np.multiply(dh, tc, out=d_ifo[2])
    d_ifo *= ifo
    d_ifo *= 1.0 - ifo
    d_pre = np.empty((bsz, 4 * hdim), dh.dtype) if d_pre is None else d_pre
    d_pre.reshape(bsz, 4, hdim)[:, :3] = d_ifo.transpose(1, 0, 2)
    d_pre[:, 3 * hdim:] = dc * i * (1.0 - g * g)
    return d_pre, dc * f


def softmax_rows(x, out=None):
    """Row-wise softmax with max subtraction (overflow guard), written into out when given.

    out may be x itself; the result is the same either way.
    """
    ex = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


def log_softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_BLOCK = 1 << 15  # 256 KB per float64 array, 128 KB per float32: a block's six arrays stay in cache


def adam_update(param, grad, m, v, t, lr):
    """In-place bias-corrected Adam step on flat arrays of one float dtype, with the ADAM_* constants.

    The step is bound by memory bandwidth at paper size (22.9M parameters),
    so it walks the arrays in blocks of ADAM_BLOCK elements with two scratch
    arrays of at most one block: each block stays in cache across its
    ufuncs, and no temporary of parameter size is made. Each block runs the
    ufuncs of the whole-array rule in the same order,
    m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    param -= (lr*(m/c1)) / (sqrt(v/c2) + eps),
    so the result equals that rule's bit for bit.
    """
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    x = np.empty(min(param.size, ADAM_BLOCK), param.dtype)
    y = np.empty_like(x)
    # a parameter of at most one block runs on its whole arrays, without slicing
    blocks = [(param, grad, m, v)] if param.size <= ADAM_BLOCK else (
        [a[lo:lo + ADAM_BLOCK] for a in (param, grad, m, v)] for lo in range(0, param.size, ADAM_BLOCK))
    for p, g, mb, vb in blocks:
        xb, yb = (x, y) if p.size == x.size else (x[:p.size], y[:p.size])
        mb *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=xb)
        mb += xb
        vb *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=xb)
        xb *= g
        vb += xb
        np.divide(mb, c1, out=xb)
        np.divide(vb, c2, out=yb)
        np.sqrt(yb, out=yb)
        yb += ADAM_EPS
        np.multiply(lr, xb, out=xb)
        xb /= yb
        p -= xb
