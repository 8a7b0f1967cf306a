import numpy as np
import pytest

from arn import kernels, networks, training
from arn.errors import DomainError, RankError, ShapeError
from arn.networks import ArnConfig, ArnModel
from arn.tensor import (
    Tensor, concat, gather_rows, grad_check, gumbel_lstm_sequence, lstm_cell, lstm_sequence, no_grad,
    pick,
)


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForward:
    def test_softmax_symmetry(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3))

    def test_matmul_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 5))
        out = Tensor(np.eye(3)) @ Tensor(a)
        np.testing.assert_array_equal(out.data, a)

    def test_sigmoid_reference(self):
        out = Tensor([0.5]).sigmoid()
        assert abs(out.data[0] - 1.0 / (1.0 + np.exp(-0.5))) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            Tensor([1.0, -1.0]).log()

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(1).standard_normal((4, 6))
        np.testing.assert_allclose(
            Tensor(x).log_softmax().data, np.log(Tensor(x).softmax().data), atol=1e-12
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_sigmoid_extremes(self, dtype):
        # exp(|x|) overflows past 88 in float32 and past 709 in float64
        x = np.array([-800.0, -100.0, -3.0, 0.0, 3.0, 100.0, 800.0], dtype)
        out = Tensor(x).log_sigmoid().data
        assert out.dtype == dtype
        np.testing.assert_allclose(out, -np.logaddexp(0.0, -x.astype(np.float64)), rtol=1e-6, atol=1e-40)

    def test_scalar_operands_keep_float32(self):
        x = Tensor(np.ones(3, np.float32))
        for out in (x * 0.5, x + 1, 2 - x, x - np.float64(1.0), x * np.asarray(2.0), x / 4, x.mean()):
            assert out.data.dtype == np.float32


class TestBackward:
    def test_identity_root(self):
        x = t([3.0])
        x.backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0])
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_log_softmax_closed_form(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal(5)
        k = 3
        x = t(logits)
        x.log_softmax()[k].backward()
        soft = np.exp(logits - logits.max())
        soft /= soft.sum()
        expected = -soft
        expected[k] += 1.0
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_multiple_uses_sum(self):
        x = t([2.0])
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_nonscalar_root(self):
        with pytest.raises(RankError):
            t([1.0, 2.0]).backward()

    def test_chain_rule_linearity(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(6)
        a, b = 2.7, -1.3

        def f(x):
            return (x * x).sum()

        def g(x):
            return x.exp().sum()

        x1 = t(data)
        (a * f(x1) + b * g(x1)).backward()
        x2, x3 = t(data), t(data)
        f(x2).backward()
        g(x3).backward()
        np.testing.assert_allclose(x1.grad, a * x2.grad + b * x3.grad, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 4))

        def run():
            x = t(data)
            y = ((x @ x.reshape(4, 3)).tanh().softmax() * 2.0).sum()
            y.backward()
            return y.data.copy(), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


OPS = {
    "add": lambda x: (x + x.exp()).sum(),
    "sub": lambda x: (x - x.tanh()).sum(),
    "mul": lambda x: (x * x.sigmoid()).sum(),
    "matmul": lambda x: (x.reshape(3, 4) @ x.reshape(4, 3)).sum(),
    "concat": lambda x: concat([x.reshape(3, 4), x.reshape(3, 4) * 2.0], axis=1).tanh().sum(),
    "slice": lambda x: x.reshape(3, 4)[1:, :2].sum(),
    "sum_axis": lambda x: (x.reshape(3, 4).sum(axis=0)[:3] * x.reshape(3, 4).sum(axis=1)).sum(),
    "mean": lambda x: x.reshape(3, 4).mean(axis=1).sum(),
    "exp": lambda x: x.exp().sum(),
    "log": lambda x: (x.exp() + 1.0).log().sum(),
    "tanh": lambda x: x.tanh().sum(),
    "sigmoid": lambda x: x.sigmoid().sum(),
    "log_sigmoid": lambda x: x.log_sigmoid().sum(),
    "softmax": lambda x: (x.reshape(3, 4).softmax() * x.reshape(3, 4)).sum(),
    "log_softmax": lambda x: (x.reshape(3, 4).log_softmax() * x.reshape(3, 4)).sum(),
    "gather": lambda x: gather_rows(x.reshape(4, 3), np.array([0, 2, 2, 1])).sum(),
    "pick": lambda x: pick(x.reshape(3, 4), np.array([1, 0, 3])).sum(),
    "bias_broadcast": lambda x: (x.reshape(3, 4) + x.reshape(3, 4).sum(axis=0)).tanh().sum(),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_grad_check_closed_op_set(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = Tensor(rng.standard_normal(12) * 0.7)
    assert grad_check(OPS[name], x) <= 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_is_the_forward_kernel_on_arrays(dtype):
    rng = np.random.default_rng(9)
    pre, c_prev = rng.standard_normal((5, 12)).astype(dtype), rng.standard_normal((5, 3)).astype(dtype)
    h, c = lstm_cell(pre, c_prev)
    want_h, want_c, _ = kernels.lstm_cell_forward(pre, c_prev)
    for got, want in ((h, want_h), (c, want_c)):
        assert type(got) is np.ndarray and got.dtype == dtype
        assert got.tobytes() == want.tobytes()
    bad = [(pre[:, :8], c_prev), (pre, c_prev[:4]), (pre[0], c_prev[0]), (pre[..., None], c_prev)]
    for bad_pre, bad_c in bad:
        with pytest.raises(ShapeError):
            lstm_cell(bad_pre, bad_c)


def _primitive_lstm_cell(pre, c):
    """(h, c) of an LSTM cell from Tensor slices, sigmoid, tanh, * and +; pre is the (B, 4H) [i|f|o|g]."""
    hdim = c.shape[1]
    i, f, o = (pre[:, k * hdim:(k + 1) * hdim].sigmoid() for k in range(3))
    c = f * c + i * pre[:, 3 * hdim:].tanh()
    return o * c.tanh(), c


def _per_step_lstm(x, wx, wh, b):
    """Reference: one primitive cell (and its matmuls) per timestep."""
    hdim = wh.shape[0]
    h, c, hs = Tensor(np.zeros((x.shape[1], hdim))), Tensor(np.zeros((x.shape[1], hdim))), []
    for t in range(x.shape[0]):
        h, c = _primitive_lstm_cell(x[t] @ wx + h @ wh + b, c)
        hs.append(h.reshape(1, *h.shape))
    return concat(hs, axis=0)


def _per_step_gumbel_lstm(y0, emb, wx, wh, b, proj_w, proj_b, gumbel, tau):
    """Reference: soft-embed, LSTM step, projection and Gumbel-softmax as separate nodes."""
    hdim = wh.shape[0]
    h, c = Tensor(np.zeros((y0.shape[0], hdim))), Tensor(np.zeros((y0.shape[0], hdim)))
    row, rows = y0, [y0.reshape(1, *y0.shape)]
    for g in gumbel:
        h, c = _primitive_lstm_cell((row @ emb) @ wx + h @ wh + b, c)
        row = ((h @ proj_w + proj_b + Tensor(g)) * (1.0 / tau)).softmax()
        rows.append(row.reshape(1, *row.shape))
    return concat(rows, axis=0)


# Whole-sequence ops at T=3, B=2, D=2, H=2, V=3, weighted per output so every
# step counts: name -> (input shapes, op, per-step reference, trailing constants, weights).
_GUMBEL = -np.log(-np.log(np.random.default_rng(20).random((2, 2, 3))))
_OUT_WEIGHTS = np.random.default_rng(21).standard_normal((3, 2, 3))
SEQUENCE_OPS = {
    "lstm_sequence": (
        {"x": (3, 2, 2), "wx": (2, 8), "wh": (2, 8), "b": (8,)},
        lstm_sequence, _per_step_lstm, (), _OUT_WEIGHTS[:, :, :2],
    ),
    "gumbel_lstm_sequence": (
        {"y0": (2, 3), "emb": (3, 2), "wx": (2, 8), "wh": (2, 8), "b": (8,), "proj_w": (2, 3),
         "proj_b": (3,)},
        lambda y0, *rest: gumbel_lstm_sequence([y0], *rest)[0], _per_step_gumbel_lstm, (_GUMBEL, 0.7),
        _OUT_WEIGHTS,
    ),
}


def _sequence_op_inputs(name):
    rng = np.random.default_rng(len(name))
    return [Tensor(rng.standard_normal(shape) * 0.7, requires_grad=True)
            for shape in SEQUENCE_OPS[name][0].values()]


@pytest.mark.parametrize("name,arg", [(n, a) for n, spec in SEQUENCE_OPS.items() for a in spec[0]])
def test_grad_check_sequence_ops(name, arg):
    shapes, op, _, tail, weights = SEQUENCE_OPS[name]
    args = _sequence_op_inputs(name)
    k = list(shapes).index(arg)
    loss = lambda x: (op(*args[:k], x, *args[k + 1:], *tail) * weights).sum()  # noqa: E731
    assert grad_check(loss, args[k]) <= 1e-6


@pytest.mark.parametrize("name", sorted(SEQUENCE_OPS))
def test_sequence_op_matches_per_step_composition(name):
    _, op, reference, tail, weights = SEQUENCE_OPS[name]
    results = []
    for fn in (op, reference):
        args = _sequence_op_inputs(name)
        out = fn(*args, *tail)
        (out * weights).sum().backward()
        results.append([out.data] + [a.grad for a in args])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_backward_replaces_gradient_of_shared_parameter():
    w = t([1.0, -2.0])
    (w * w).sum().backward()
    (w * 3.0).sum().backward()
    np.testing.assert_array_equal(w.grad, [3.0, 3.0])


def test_grad_check_constant_gradient():
    x = Tensor(np.random.default_rng(5).standard_normal(7))
    assert grad_check(lambda v: v.sum(), x) < 1e-10


def test_no_grad_blocks_recording():
    x = t([1.0, 2.0])
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad and y._backward is None


class TestFirstGradientOwnership:
    """The first gradient of a tensor may be stored without a copy; shared arrays may not."""

    def test_table_gathered_twice_and_multiplied(self):
        rng = np.random.default_rng(41)
        table, w = t(rng.standard_normal((5, 3))), t(rng.standard_normal((3, 4)))
        x, c = rng.standard_normal((2, 5)), rng.standard_normal((2, 4))
        ids_a, ids_b = np.array([0, 3, 3]), np.array([1, 3])
        wa, wb = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
        loss = ((gather_rows(table, ids_a) * wa).sum() + (gather_rows(table, ids_b) * wb).sum()
                + ((Tensor(x) @ table @ w) * c).sum())
        loss.backward()
        want = np.zeros((5, 3))
        np.add.at(want, ids_a, wa)
        np.add.at(want, ids_b, wb)
        want += x.T @ (c @ w.data.T)
        np.testing.assert_allclose(table.grad, want, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(w.grad, (x @ table.data).T @ c, rtol=1e-14, atol=1e-14)

    def test_weight_feeds_two_matmuls(self):
        rng = np.random.default_rng(42)
        w = t(rng.standard_normal((3, 2)))
        x1, x2 = t(rng.standard_normal((4, 3))), t(rng.standard_normal((5, 3)))
        c1, c2 = rng.standard_normal((4, 2)), rng.standard_normal((5, 2))
        (((x1 @ w) * c1).sum() + ((x2 @ w) * c2).sum()).backward()
        np.testing.assert_allclose(w.grad, x1.data.T @ c1 + x2.data.T @ c2, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(x1.grad, c1 @ w.data.T, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(x2.grad, c2 @ w.data.T, rtol=1e-14, atol=1e-14)

    def test_tensor_added_to_itself(self):
        rng = np.random.default_rng(43)
        a, w = t(rng.standard_normal((3, 2))), t(rng.standard_normal((2, 2)))
        h = a @ w
        c = rng.standard_normal((3, 2))
        s = h + h  # __add__ hands s.grad to h twice: h must not keep it as its own
        (s * c).sum().backward()
        np.testing.assert_array_equal(s.grad, c)
        np.testing.assert_array_equal(h.grad, 2 * c)
        np.testing.assert_allclose(a.grad, 2 * c @ w.data.T, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(w.grad, a.data.T @ (2 * c), rtol=1e-14, atol=1e-14)

    def test_desk_generator_loss_grads_share_no_memory(self):
        cfg = ArnConfig.preset("desk")
        m = ArnModel.initialized(cfg, np.random.default_rng(44))
        rng = np.random.default_rng(45)
        bsz = 4
        batch = rng.integers(0, cfg.vocab_size, size=(bsz, cfg.seq_len))
        noise = rng.standard_normal((bsz, cfg.d_latent))
        z = rng.standard_normal((bsz, cfg.d_latent))
        (fake,) = networks.generate_relaxed_batch(m, 0.8, (z, rng.random((cfg.seq_len, bsz, cfg.vocab_size))))
        loss, _ = training.generator_loss(m, batch, noise, fake, 1.0)
        loss.backward()
        grads = [(name, p.grad) for name, p in m.params.items() if p.grad is not None]
        assert {name for name, _ in grads} == set(m.generator_params())
        for i, (name_a, ga) in enumerate(grads):
            assert not np.shares_memory(ga, m.params[name_a].data), name_a
            for name_b, gb in grads[i + 1:]:
                assert not np.shares_memory(ga, gb), (name_a, name_b)


class TestSubtraction:
    """a - b is one node, equal bit for bit to a + (-b) in value and gradients."""

    @staticmethod
    def run(make, build):
        """(value, gradients) of sum(build(*tensors) * c) for fresh leaves from make()."""
        leaves = make()
        out = build(*leaves)
        c = np.random.default_rng(7).standard_normal(out.shape)
        (out * Tensor(c)).sum().backward()
        return out.data, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((3, 4), (4,)), ((4,), (3, 4)), ((2, 1), (1, 5)),
                                        ((3, 4), ())])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tensor_minus_tensor(self, shapes, dtype):
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]

        def make():
            return [Tensor(a.copy(), requires_grad=True) for a in arrays]

        got = self.run(make, lambda a, b: a - b)
        want = self.run(make, lambda a, b: a + (-b))
        assert got[0].dtype == dtype and got[0].tobytes() == want[0].tobytes()
        for g, w in zip(got[1], want[1]):
            assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("scalar", [0.75, np.float64(-2.5), np.array(3.0)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scalar_operands(self, scalar, dtype):
        x = np.random.default_rng(9).standard_normal((3, 5)).astype(dtype)

        def make():
            return [Tensor(x.copy(), requires_grad=True)]

        for got_fn, want_fn in ((lambda a: a - scalar, lambda a: a + (-Tensor._lift(scalar, a))),
                                (lambda a: scalar - a, lambda a: Tensor._lift(scalar, a) + (-a))):
            got, want = self.run(make, got_fn), self.run(make, want_fn)
            assert got[0].dtype == dtype and got[0].tobytes() == want[0].tobytes()
            assert got[1][0].tobytes() == want[1][0].tobytes()

    def test_tensor_minus_itself(self):
        a = t([[1.5, -2.0], [0.25, 4.0]])
        (a - a).sum().backward()
        np.testing.assert_array_equal(a.grad, np.zeros((2, 2)))

    def test_operand_without_gradient(self):
        a, b = t([1.0, 2.0]), t([3.0, 5.0], grad=False)
        (b - a).sum().backward()
        assert b.grad is None
        np.testing.assert_array_equal(a.grad, [-1.0, -1.0])

    def test_shape_mismatch_raises_shape_error(self):
        with pytest.raises(ShapeError):
            t(np.zeros((2, 3))) - t(np.zeros((4,)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_full_sum_is_a_0d_array_of_the_dtype(dtype):
    s = Tensor(np.arange(6, dtype=dtype).reshape(2, 3), requires_grad=True).sum()
    assert type(s.data) is np.ndarray and s.data.shape == () and s.data.dtype == dtype
    s.backward()
