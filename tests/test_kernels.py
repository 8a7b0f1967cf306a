"""NumPy kernels against naive reference formulas."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from arn import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def naive_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def naive_lstm(pre, c_prev):
    """Textbook gate math, one scalar at a time: returns (h, c)."""
    bsz, hdim = c_prev.shape
    h, c = np.empty_like(c_prev), np.empty_like(c_prev)
    for b in range(bsz):
        for k in range(hdim):
            i = naive_sigmoid(pre[b, k])
            f = naive_sigmoid(pre[b, hdim + k])
            o = naive_sigmoid(pre[b, 2 * hdim + k])
            g = math.tanh(pre[b, 3 * hdim + k])
            c[b, k] = f * c_prev[b, k] + i * g
            h[b, k] = o * math.tanh(c[b, k])
    return h, c


def test_lstm_forward_matches_textbook_gates(rng):
    pre = rng.standard_normal((5, 16)) * 3
    c = rng.standard_normal((5, 4))
    h, c_new, (ifo, g, tc) = kernels.lstm_cell_forward(pre, c)
    h_ref, c_ref = naive_lstm(pre, c)
    np.testing.assert_allclose(h, h_ref, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(c_new, c_ref, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(tc, np.tanh(c_ref), rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(g, np.tanh(pre[:, 12:]), rtol=1e-14, atol=1e-15)
    # the i, f, o sigmoids, gate-major and contiguous
    assert ifo.shape == (3, 5, 4) and ifo.flags.c_contiguous
    np.testing.assert_array_equal(ifo, kernels.sigmoid(pre[:, :12].reshape(5, 3, 4).transpose(1, 0, 2)))


def gate_by_gate_backward(dh, dc, c_prev, i, f, o, g, tc):
    """The backward written one gate at a time: the fused kernel's bit-for-bit reference."""
    hdim = c_prev.shape[1]
    dc = dc + dh * o * (1.0 - tc * tc)
    d_pre = np.empty((c_prev.shape[0], 4 * hdim), dh.dtype)
    d_pre[:, :hdim] = dc * g * i * (1.0 - i)
    d_pre[:, hdim:2 * hdim] = dc * c_prev * f * (1.0 - f)
    d_pre[:, 2 * hdim:3 * hdim] = dh * tc * o * (1.0 - o)
    d_pre[:, 3 * hdim:] = dc * i * (1.0 - g * g)
    return d_pre, dc * f


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_backward_equals_the_gate_by_gate_form_bit_for_bit(rng, dtype):
    pre = (rng.standard_normal((9, 24)) * 3).astype(dtype)
    c, dh, dc = rng.standard_normal((3, 9, 6)).astype(dtype)
    _, _, (ifo, g, tc) = kernels.lstm_cell_forward(pre, c)
    got = kernels.lstm_cell_backward(dh, dc, c, ifo, g, tc)
    want = gate_by_gate_backward(dh, dc, c, *ifo, g, tc)
    for a, b in zip(got, want):
        assert a.dtype == dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", [slice(1, 4), slice(0, 1), slice(2, 6)])
def test_lstm_backward_on_a_row_subset_equals_those_rows_of_the_full_batch(rng, rows):
    pre = rng.standard_normal((6, 20)) * 2
    c = rng.standard_normal((6, 5))
    dh, dc = rng.standard_normal((2, 6, 5))
    _, _, (ifo, g, tc) = kernels.lstm_cell_forward(pre, c)
    d_pre, d_c = kernels.lstm_cell_backward(dh, dc, c, ifo, g, tc)
    sub_pre, sub_c = kernels.lstm_cell_backward(dh[rows], dc[rows], c[rows], ifo[:, rows], g[rows], tc[rows])
    np.testing.assert_array_equal(sub_pre, d_pre[rows])
    np.testing.assert_array_equal(sub_c, d_c[rows])


def test_lstm_backward_matches_central_differences(rng):
    pre = rng.standard_normal((3, 8))
    c = rng.standard_normal((3, 2))
    w_h, w_c = rng.standard_normal((2, 3, 2))  # loss = sum(w_h * h) + sum(w_c * c_new)

    def loss(p, cp):
        h, cn = naive_lstm(p, cp)
        return float(np.sum(w_h * h) + np.sum(w_c * cn))

    *_, saved = kernels.lstm_cell_forward(pre, c)
    d_pre, d_c = kernels.lstm_cell_backward(w_h, w_c, c, *saved)
    eps = 1e-6
    for arr, grad in ((pre, d_pre), (c, d_c)):
        numeric = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = loss(pre, c)
            arr[idx] = orig - eps
            lo = loss(pre, c)
            arr[idx] = orig
            numeric[idx] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("scale", [1.0, 50.0, 800.0])
def test_softmax_rows_match_scipy(rng, scale):
    x = rng.standard_normal((7, 9)) * scale
    np.testing.assert_allclose(kernels.softmax_rows(x), special.softmax(x, axis=-1),
                               rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(kernels.log_softmax_rows(x), special.log_softmax(x, axis=-1),
                               rtol=1e-13, atol=1e-13)


def test_adam_update_matches_written_out_rule(rng):
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    param = rng.standard_normal(64)
    m, v = np.zeros(64), np.zeros(64)
    ref_p, ref_m, ref_v = param.copy(), np.zeros(64), np.zeros(64)
    for t in range(1, 5):
        grad = rng.standard_normal(64)
        kernels.adam_update(param, grad, m, v, t, lr)
        ref_m = beta1 * ref_m + (1 - beta1) * grad
        ref_v = beta2 * ref_v + (1 - beta2) * grad ** 2
        m_hat = ref_m / (1 - beta1 ** t)
        v_hat = ref_v / (1 - beta2 ** t)
        ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(m, ref_m, rtol=1e-15)
        np.testing.assert_allclose(v, ref_v, rtol=1e-15)
        np.testing.assert_allclose(param, ref_p, rtol=1e-15)


def whole_array_adam(param, grad, m, v, t, lr, beta1, beta2, eps):
    """The unblocked update, one temporary per ufunc: the blocked kernel's reference."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


BLOCK = kernels.ADAM_BLOCK


ADAM_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]


def assert_blocked_adam_is_whole_array_adam(rng, size, dtype):
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    param = rng.standard_normal(size).astype(dtype)
    m, v = np.zeros(size, dtype), np.zeros(size, dtype)
    ref_p, ref_m, ref_v = param.copy(), m.copy(), v.copy()
    for t in range(1, 5):
        grad = (rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3, size)).astype(dtype)
        kernels.adam_update(param, grad, m, v, t, lr)
        whole_array_adam(ref_p, grad, ref_m, ref_v, t, lr, beta1, beta2, eps)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(v, ref_v)
        np.testing.assert_array_equal(param, ref_p)
    assert param.dtype == m.dtype == v.dtype == dtype


@pytest.mark.parametrize("size", ADAM_SIZES)
def test_blocked_adam_equals_whole_array_update_bit_for_bit(rng, size):
    assert_blocked_adam_is_whole_array_adam(rng, size, np.float64)


@pytest.mark.parametrize("size", ADAM_SIZES)
def test_blocked_float32_adam_equals_whole_array_update_bit_for_bit(rng, size):
    assert_blocked_adam_is_whole_array_adam(rng, size, np.float32)


def test_adam_update_makes_no_parameter_size_temporary(rng):
    size = 1 << 20  # 8 MB per float64 array
    param, grad = rng.standard_normal(size), rng.standard_normal(size)
    m, v = np.zeros(size), np.zeros(size)
    tracemalloc.start()
    try:
        kernels.adam_update(param, grad, m, v, 1, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sigmoid_extremes_and_symmetry(rng):
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001), rng.standard_normal(1000) * 40, [0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            s = kernels.sigmoid(x)
            s_neg = kernels.sigmoid(-x)
    assert kernels.sigmoid(np.array(800.0)) == 1.0
    assert kernels.sigmoid(np.array(-800.0)) == 0.0
    assert kernels.sigmoid(np.array(-0.0)) == 0.5
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.max(np.abs(s + s_neg - 1.0)) <= 1e-15
    moderate = np.abs(x) < 30
    reference = np.array([naive_sigmoid(t) for t in x[moderate]])
    np.testing.assert_allclose(s[moderate], reference, rtol=1e-14)

