import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arn import kernels, networks, tensor, training
from arn.errors import ArnError, DomainError, GraphReleasedError, RankError, ShapeError
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

    def test_item_needs_one_element(self):
        assert Tensor([[2.5]]).item() == 2.5
        for shape in [(2,), (0,), (1, 3)]:
            with pytest.raises(RankError):
                Tensor(np.ones(shape)).item()

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


def test_lstm_reverse_loop_makes_no_initial_state_gradient(monkeypatch):
    """The recurrent product dL/dh[t] runs for t = T-1..1; h[0] is the zero state and takes none."""
    calls, matmul_t = [], tensor._matmul_t

    def counting(x, w):
        calls.append(x.shape)
        return matmul_t(x, w)

    monkeypatch.setattr(tensor, "_matmul_t", counting)
    _, op, _, _, weights = SEQUENCE_OPS["lstm_sequence"]
    out = op(*_sequence_op_inputs("lstm_sequence"))
    (out * weights).sum().backward()
    assert len(calls) == out.shape[0] - 1


def test_backward_replaces_gradient_of_shared_parameter():
    w = t([1.0, -2.0])
    (w * w).sum().backward()
    (w * 3.0).sum().backward()
    np.testing.assert_array_equal(w.grad, [3.0, 3.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_sum_backward_gives_a_writable_contiguous_broadcast(axis, dtype):
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 3, 4)).astype(dtype), requires_grad=True)
    s = x.sum(axis=axis)
    w = rng.standard_normal(s.shape).astype(dtype)
    (s * w).sum().backward()
    want = np.broadcast_to(w if axis is None else np.expand_dims(w, axis), x.shape)
    assert x.grad.dtype == dtype and x.grad.flags.writeable and x.grad.flags.c_contiguous
    assert x.grad.tobytes() == np.ascontiguousarray(want).tobytes()


def test_grad_check_constant_gradient():
    x = Tensor(np.random.default_rng(5).standard_normal(7))
    assert grad_check(lambda v: v.sum(), x) < 1e-10


def test_division_by_a_scalar_is_multiplication_by_its_reciprocal():
    x = t(np.random.default_rng(8).standard_normal(5))
    out = x / 4.0
    assert out.data.tobytes() == (x.data * 0.25).tobytes()
    out.sum().backward()
    assert x.grad.tobytes() == np.full(5, 0.25).tobytes()


def test_grad_check_reports_a_wrong_backward():
    # the node computes 3x but passes back 3.03 g: a = 3.03 and n = 3 in every coordinate
    def scaled(v):
        return Tensor._make(v.data * 3.0, (v,), lambda g: v._accum(g * 3.03)).sum()

    x = Tensor(np.random.default_rng(9).standard_normal(4))
    assert abs(grad_check(scaled, x) - 0.03 / max(1.0, 3.03 + 3.0)) < 1e-9


def test_grad_check_finds_a_broken_lstm_gate(monkeypatch):
    """A backward that drops the forget gate's gradient fails the desk audit's threshold."""
    backward = kernels.lstm_cell_backward

    def no_forget_gate(dh, dc, c_prev, ifo, g, tc, d_pre):
        d_pre, d_c_prev = backward(dh, dc, c_prev, ifo, g, tc, d_pre)
        hdim = c_prev.shape[1]
        d_pre[:, hdim:2 * hdim] = 0.0
        return d_pre, d_c_prev

    cfg = ArnConfig.preset("desk")
    rng = np.random.default_rng(10)
    model = ArnModel.initialized(cfg, rng)
    ids = rng.integers(0, cfg.vocab_size, size=(2, cfg.seq_len))
    noise = rng.standard_normal((2, cfg.d_latent))

    def loss(b):
        return training.generator_loss(ArnModel(cfg, {**model.params, "gen.b": b}), ids, noise, None, 1.0)[0]

    assert grad_check(loss, model.params["gen.b"]) <= 1e-6
    monkeypatch.setattr(kernels, "lstm_cell_backward", no_forget_gate)
    assert grad_check(loss, model.params["gen.b"]) > 1e-4


def test_no_grad_blocks_recording():
    x = t([1.0, 2.0])
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad and y._backward is None


class TestGraphRelease:
    """backward releases each interior node after its chain-rule step; leaves keep their gradients."""

    def test_closure_activations_are_freed(self, monkeypatch):
        cells = []
        init = tensor._LstmTape.__init__

        def spy(self, *args):
            init(self, *args)
            cells.append(weakref.ref(self.c))  # held by the tape alone, and the tape by the closure

        monkeypatch.setattr(tensor._LstmTape, "__init__", spy)
        _, op, reference, tail, weights = SEQUENCE_OPS["lstm_sequence"]
        args = _sequence_op_inputs("lstm_sequence")
        hidden = op(*args)
        loss = (hidden * weights).sum()
        (cell,) = cells
        assert cell() is not None
        loss.backward()
        assert cell() is None
        assert loss.grad is None and hidden.grad is None and hidden.data.shape == (3, 2, 2)
        want = _sequence_op_inputs("lstm_sequence")
        (reference(*want) * weights).sum().backward()
        for got, leaf in zip(args, want):
            np.testing.assert_allclose(got.grad, leaf.grad, rtol=0, atol=1e-12)

    def test_closure_holds_the_only_reference_to_its_gradient(self):
        x, freed = t([1.0, 2.0]), []

        def backward(g):
            x._accum(g * 3.0)
            ref = weakref.ref(g)
            del g
            freed.append(ref() is None)

        (Tensor._make(x.data * 3.0, (x,), backward) * 2.0).sum().backward()
        assert freed == [True]
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_each_relaxed_batch_has_its_own_rows(self):
        rng = np.random.default_rng(46)
        args = _sequence_op_inputs("gumbel_lstm_sequence")
        y0s = [args[0], Tensor(rng.random((3, 3)), requires_grad=True)]
        fakes = gumbel_lstm_sequence(y0s, *args[1:], rng.gumbel(size=(2, 5, 3)), 0.7)
        assert [f.shape for f in fakes] == [(3, 2, 3), (3, 3, 3)]
        assert all(f.data.flags.c_contiguous for f in fakes)
        assert not np.shares_memory(fakes[0].data, fakes[1].data)

    def test_second_backward_raises(self):
        x = t([1.0, 2.0])
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert issubclass(GraphReleasedError, ArnError)

    def test_new_graph_on_a_spent_node_raises(self):
        x, w = t([1.0, 2.0]), t([5.0, 7.0])
        y = x * 3.0
        y.sum().backward()
        np.testing.assert_array_equal(y.data, [3.0, 6.0])
        with pytest.raises(GraphReleasedError):
            (y * w).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        assert w.grad is None


def _graph_nodes(root):
    """Every tensor the graph under root reaches, root included."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._prev)
    return list(nodes.values())


def _check_no_shared_gradients(mp, nodes):
    """Patch Tensor._accum to assert after every contribution that no two gradients held by nodes share memory."""
    accum = Tensor._accum

    def spy(self, grad):
        accum(self, grad)
        held = [n.grad for n in nodes if n.grad is not None]
        for i, x in enumerate(held):
            for y in held[i + 1:]:
                assert not np.shares_memory(x, y)

    mp.setattr(Tensor, "_accum", spy)


class TestFirstGradientOwnership:
    """Each contribution is handed over and a first one is stored as it is, so no two gradients share an array."""

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

    def test_tensor_added_to_itself(self, monkeypatch):
        rng = np.random.default_rng(43)
        a, w = t(rng.standard_normal((3, 2))), t(rng.standard_normal((2, 2)))
        h = a @ w
        c = rng.standard_normal((3, 2))
        s = h + h  # __add__ hands s's gradient to h, then a copy of it (g += g in place would be right too)
        k = t(rng.standard_normal((3, 2)))
        loss = (s * c).sum() + (k * c).sum()  # two inputs handed one array would share it
        stored = {id(s): [], id(h): []}  # the gradient of s and of h after each contribution, read then
        _check_no_shared_gradients(monkeypatch, _graph_nodes(loss))
        checked = Tensor._accum

        def spy(self, grad):
            checked(self, grad)
            if id(self) in stored:
                stored[id(self)].append(self.grad.copy())

        monkeypatch.setattr(Tensor, "_accum", spy)
        loss.backward()
        np.testing.assert_array_equal(stored[id(s)], [c])
        np.testing.assert_array_equal(stored[id(h)], [c, 2 * c])
        np.testing.assert_allclose(a.grad, 2 * c @ w.data.T, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(w.grad, a.data.T @ (2 * c), rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(k.grad, c)

    def test_constant_left_input_gets_no_copy(self, monkeypatch):
        a = t(np.random.default_rng(50).standard_normal((1000, 100)))
        const, b = Tensor(np.zeros((1000, 100))), a.tanh()
        handed, accum = {}, Tensor._accum

        def spy(self, grad):
            handed.setdefault(id(self), []).append(grad)
            accum(self, grad)

        monkeypatch.setattr(Tensor, "_accum", spy)
        (const + b).sum().backward()
        (to_const,), (to_b,) = handed[id(const)], handed[id(b)]
        assert to_const is to_b  # not an 800 KB copy the constant drops
        assert const.grad is None
        np.testing.assert_allclose(a.grad, 1.0 - np.tanh(a.data) ** 2, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("preset, batch_size", [("desk", 32), ("paper", 8)])
    def test_adversarial_step_makes_at_most_nine_copies(self, monkeypatch, preset, batch_size):
        """Each first contribution is stored as the array handed in.

        The copies left are __add__'s, where its right input kept g, and a
        NumPy scalar (a 0-d product) stored as a 0-d array.
        """
        cfg = ArnConfig.preset(preset)
        model = ArnModel.initialized(cfg, np.random.default_rng(47))
        ids = np.random.default_rng(48).integers(0, cfg.vocab_size, (64, cfg.seq_len))
        take, accum = Tensor._take_grad, Tensor._accum
        running, copies = [None, None], []  # the closure now running and its g

        def take_spy(self):
            running[:] = self._backward.__qualname__, self.grad
            return take(self)

        def accum_spy(self, grad):
            first = self.requires_grad and self.grad is None
            accum(self, grad)
            if first and not isinstance(grad, np.ndarray):
                copies.append(grad)
            elif first and grad.shape == self.data.shape:
                assert self.grad is grad, running[0]
            if running[0] == "Tensor.__add__.<locals>.backward" and grad is not running[1]:
                copies.append(grad)

        monkeypatch.setattr(Tensor, "_take_grad", take_spy)
        monkeypatch.setattr(Tensor, "_accum", accum_spy)
        training.train(model, ids, training.TrainConfig(batch_size=batch_size, steps=1, seed=49))
        assert len(copies) <= 9

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


GRAPH_LEAVES = {"x": (2, 3), "y": (2, 3), "w": (3, 3), "bias": (3,)}
GRAPH_OPS = {  # each maps two (2, 3) tensors p, q of the pool and the leaves to a new (2, 3) tensor
    "add": lambda p, q, leaf: p + q,
    "sub": lambda p, q, leaf: p - q,
    "mul": lambda p, q, leaf: p * q,
    "matmul": lambda p, q, leaf: p @ leaf["w"],
    "bias": lambda p, q, leaf: p + leaf["bias"],
    "reshape": lambda p, q, leaf: p.reshape(3, 2)[::-1].reshape(2, 3),
    "concat_rows": lambda p, q, leaf: concat([p, q])[1:3],
    "concat_cols": lambda p, q, leaf: concat([p, q], axis=1)[:, 2:5],
    "sum": lambda p, q, leaf: q + p.sum(axis=0),
    "mean": lambda p, q, leaf: p.mean(axis=1).reshape(2, 1) * q,
}
GRAPH_PROGRAMS = st.lists(st.tuples(st.sampled_from(sorted(GRAPH_OPS)), st.integers(0, 9), st.integers(0, 9)),
                          min_size=1, max_size=6)


def _run_program(program, arrays):
    """(loss, leaves) of a program over fresh leaves: each step appends an op of two pool tensors to the pool."""
    leaf = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    pool = [leaf["x"], leaf["y"]]
    for op, i, j in program:
        pool.append(GRAPH_OPS[op](pool[i % len(pool)], pool[j % len(pool)], leaf))
    weights = np.random.default_rng(64).standard_normal((2, 2, 3))
    return (pool[-1] * weights[0]).sum() + (pool[-2] * weights[1]).sum(), leaf


@settings(max_examples=150, deadline=None, database=None)
@given(program=GRAPH_PROGRAMS, seed=st.integers(0, 2**32 - 1))
@example(program=[("add", 0, 0)], seed=0)  # x + x
@example(program=[("sub", 1, 1)], seed=0)  # y - y
@example(program=[("concat_rows", 0, 0)], seed=0)  # concat([x, x])
@example(program=[("add", 0, 1), ("mul", 0, 2)], seed=0)  # p + q, with p used again
def test_random_graph_gradients_match_differences_and_share_no_memory(program, seed):
    rng = np.random.default_rng(seed)
    arrays = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in GRAPH_LEAVES.items()}
    loss, leaf = _run_program(program, arrays)
    with pytest.MonkeyPatch.context() as mp:
        _check_no_shared_gradients(mp, _graph_nodes(loss))
        loss.backward()
    eps = 1e-6
    for name, a in arrays.items():
        numeric = np.zeros_like(a)
        with no_grad():
            for k in np.ndindex(a.shape):
                probes = []
                for step in (eps, -eps):
                    moved = {**arrays, name: a.copy()}
                    moved[name][k] += step
                    probes.append(float(_run_program(program, moved)[0].data))
                numeric[k] = (probes[0] - probes[1]) / (2 * eps)
        analytic = np.zeros_like(a) if leaf[name].grad is None else leaf[name].grad
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
        assert rel.max() <= 1e-6, name


class TestInPlaceAccumulation:
    """A contribution that meets an existing gradient is added into it, with no second table-sized array.

    In loss = (A + B) + C the sweep runs A's nodes, then B's, then C's, so
    a leaf that A reaches holds a gradient when B and C reach it.
    """

    @staticmethod
    def dense_scatter(shape, dtype, ids, g):
        buf = np.zeros(shape, dtype)
        np.add.at(buf, ids, g)
        return buf

    @pytest.mark.parametrize("first", ["product", "gather"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_into_existing_gradient_equals_dense_reference(self, dtype, first):
        rng = np.random.default_rng(61)
        table = Tensor(rng.standard_normal((40, 6)).astype(dtype), requires_grad=True)
        c = rng.standard_normal((40, 6)).astype(dtype)
        ids_a = rng.integers(0, 40, size=50)  # repeats and untouched rows
        ids_b = np.array([[3, 3, 7], [7, 39, 3]])
        wa, wb = rng.standard_normal((50, 6)).astype(dtype), rng.standard_normal((2, 3, 6)).astype(dtype)
        if first == "product":
            head, want = (table * c).sum(), c
        else:
            head, want = (gather_rows(table, ids_a) * wa).sum(), self.dense_scatter(table.shape, dtype, ids_a, wa)
        ((head + (gather_rows(table, ids_a) * wa).sum()) + (gather_rows(table, ids_b) * wb).sum()).backward()
        want = (want + self.dense_scatter(table.shape, dtype, ids_a, wa)
                + self.dense_scatter(table.shape, dtype, ids_b, wb))
        assert table.grad.dtype == dtype and table.grad.tobytes() == want.tobytes()

    @staticmethod
    def transient_peak(loss, leaves):
        """Traced bytes that loss.backward() holds at its peak beyond the leaf gradients it leaves."""
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(leaf.grad.nbytes for leaf in leaves if leaf.grad is not None)

    def test_gather_adds_no_table_sized_temporary(self):
        rng = np.random.default_rng(62)
        table = Tensor(rng.standard_normal((8192, 256)).astype(np.float32), requires_grad=True)
        ids_a, ids_b = rng.integers(0, 8192, size=300), rng.integers(0, 500, size=(20, 10))
        loss = ((gather_rows(table, ids_a) * 0.5).sum() + (gather_rows(table, ids_b) * 2.0).sum())
        assert self.transient_peak(loss, [table]) < table.data.nbytes / 4

    def test_relaxed_node_adds_no_table_sized_temporary(self):
        rng = np.random.default_rng(63)
        vocab, dim, steps, n = 8192, 256, 3, 2
        shapes = {"emb": (vocab, dim), "wx": (dim, 4 * dim), "wh": (dim, 4 * dim), "b": (4 * dim,),
                  "proj_w": (dim, vocab), "proj_b": (vocab,)}
        p = {k: Tensor((rng.standard_normal(s) * 0.05).astype(np.float32), requires_grad=True)
             for k, s in shapes.items()}
        y0 = Tensor(kernels.softmax_rows(rng.standard_normal((n, vocab)).astype(np.float32)))
        (fake,) = gumbel_lstm_sequence([y0], *p.values(), rng.gumbel(size=(steps, n, vocab)), 0.5)
        loss = ((gather_rows(p["emb"], rng.integers(0, vocab, size=16)) * 0.5).sum()
                + (Tensor(rng.standard_normal((4, dim)).astype(np.float32)) @ p["proj_w"]).sum()
                + (fake * 3.0).sum())
        assert self.transient_peak(loss, list(p.values())) < p["emb"].data.nbytes / 4

    @pytest.mark.parametrize("shape", [(1500, 400), (400, 1500)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_gradient_added_in_blocks(self, shape, dtype):
        """A float32 product is added in blocks, which round each element alike; a float64 one whole."""
        assert shape[0] * shape[1] > 2 * tensor._ADD_BLOCK
        rng = np.random.default_rng(64)
        w = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        x1, x2 = (rng.standard_normal((k, shape[0])).astype(dtype) for k in (30, 45))
        c1, c2 = (rng.standard_normal((k, shape[1])).astype(dtype) for k in (30, 45))
        (((Tensor(x1) @ w) * c1).sum() + ((Tensor(x2) @ w) * c2).sum()).backward()
        want = x1.T @ c1 + x2.T @ c2
        assert w.grad.tobytes() == want.tobytes()


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


def _reduce_to(g, shape):
    """g summed down to shape over the axes that broadcasting spread it along."""
    lead = g.ndim - len(shape)
    spread = [lead + i for i, extent in enumerate(shape) if extent == 1 and g.shape[lead + i] != 1]
    axes = (*range(lead), *spread)
    return g.sum(axis=axes, keepdims=True).reshape(shape) if axes else g


# op: (NumPy's value of the pair, the Tensor op, the (broadcast) gradients of sum(op(a, b) * c))
SHAPE_RULE_OPS = {
    "+": (lambda a, b, axis: np.add(a, b), lambda a, b, axis: a + b, lambda c, a, b, axis: (c, c)),
    "-": (lambda a, b, axis: np.subtract(a, b), lambda a, b, axis: a - b, lambda c, a, b, axis: (c, -c)),
    "*": (lambda a, b, axis: np.multiply(a, b), lambda a, b, axis: a * b,
          lambda c, a, b, axis: (c * b, c * a)),
    "concat": (lambda a, b, axis: np.concatenate([a, b], axis), lambda a, b, axis: concat([a, b], axis),
               lambda c, a, b, axis: np.split(c, [a.shape[axis]], axis)),
}


@settings(max_examples=400, deadline=None)
@given(op=st.sampled_from(sorted(SHAPE_RULE_OPS)), dtype=st.sampled_from([np.float32, np.float64]),
       shapes=st.tuples(*[st.lists(st.integers(0, 3), max_size=3).map(tuple)] * 2),
       axis=st.integers(-3, 2), seed=st.integers(0, 2**32 - 1))
def test_shape_rule_ops_follow_numpy(op, dtype, shapes, axis, seed):
    """+, -, * and concat: NumPy's value and gradients byte for byte, or ShapeError with NumPy's message."""
    numpy_op, tensor_op, grads = SHAPE_RULE_OPS[op]
    rng = np.random.default_rng(seed)
    # integer values: every gradient sum is exact, so its order of summation cannot change a bit
    arrays = [rng.integers(-4, 5, shape).astype(dtype) for shape in shapes]
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    try:
        want = numpy_op(*arrays, axis)
    except ValueError as exc:
        with pytest.raises(ShapeError) as err:
            tensor_op(*leaves, axis)
        assert str(err.value) == str(exc)
        return
    out = tensor_op(*leaves, axis)
    assert out.data.dtype == dtype and out.data.shape == want.shape and out.data.tobytes() == want.tobytes()
    c = rng.integers(-4, 5, want.shape).astype(dtype)
    (out * Tensor(c)).sum().backward()
    for leaf, a, g in zip(leaves, arrays, grads(c, *arrays, axis)):
        want_grad = _reduce_to(g, a.shape)
        assert leaf.grad.dtype == dtype and leaf.grad.shape == a.shape
        assert leaf.grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_full_sum_is_a_0d_array_of_the_dtype(dtype):
    s = Tensor(np.arange(6, dtype=dtype).reshape(2, 3), requires_grad=True).sum()
    assert type(s.data) is np.ndarray and s.data.shape == () and s.data.dtype == dtype
    s.backward()
