"""float32 models: every array follows the model's dtype, and training tracks float64."""

import dataclasses

import numpy as np
import pytest

from arn import kernels, networks, training
from arn.distributions import gumbel_softmax, reparam_sample, sample_rows
from arn.networks import ArnConfig, ArnModel
from arn.tensor import Tensor, no_grad
from arn.training import TrainConfig

F32 = ArnConfig(vocab_size=50, dtype="float32")


def f32_model(seed=0):
    return ArnModel.initialized(F32, training.rng_streams(seed)["init"])


@pytest.fixture
def float64_arrays(monkeypatch):
    """Graph nodes made, and kernels called on arrays, in float64 while the test runs."""
    made = []
    make = Tensor._make

    def checked_make(data, parents, backward):
        out = make(data, parents, backward)
        if out.data.dtype != np.float32:
            made.append(("node", out.data.shape))
        return out

    def checked_kernel(name, kernel):
        def checked(*args, **kwargs):
            made.extend((name, a.shape) for a in (*args, *kwargs.values())
                        if getattr(a, "dtype", None) == np.float64)
            return kernel(*args, **kwargs)
        return checked

    monkeypatch.setattr(Tensor, "_make", staticmethod(checked_make))
    for name in ("sigmoid", "lstm_cell_forward", "lstm_cell_backward", "softmax_rows",
                 "log_softmax_rows", "adam_update"):
        monkeypatch.setattr(kernels, name, checked_kernel(name, getattr(kernels, name)))
    return made


@pytest.fixture
def adam_states(monkeypatch):
    """Every AdamState that training makes while the test runs."""
    states = []
    make = training.AdamState

    def recorded():
        states.append(make())
        return states[-1]

    monkeypatch.setattr(training, "AdamState", recorded)
    return states


def test_presets_set_the_dtype():
    assert ArnConfig.preset("desk").dtype == "float64"
    assert ArnConfig.preset("paper").dtype == "float32"


def test_initialization_casts_the_float64_draws():
    f64 = ArnModel.initialized(dataclasses.replace(F32, dtype="float64"), training.rng_streams(0)["init"])
    for name, p in f32_model(0).params.items():
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, f64.params[name].data.astype(np.float32))


def test_blockwise_initialization_equals_one_whole_draw():
    cfg = ArnConfig(vocab_size=5000, d_emb=40, d_hidden=4, d_latent=2)
    assert 5000 * 40 > 3 * networks._INIT_BLOCK and 5000 * 40 % networks._INIT_BLOCK
    for dtype in ("float32", "float64"):
        model = ArnModel.initialized(dataclasses.replace(cfg, dtype=dtype), np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for name, shape in model.param_shapes().items():
            want = rng.uniform(-networks.INIT_SCALE, networks.INIT_SCALE, size=shape).astype(dtype)
            got = model.params[name].data
            assert got.dtype == want.dtype and got.shape == shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("lambda_adv", [0.0, 1.0])
def test_training_stays_float32(float64_arrays, adam_states, monkeypatch, lambda_adv):
    model = f32_model(1)
    grad_dtypes = {name: [] for name in model.params}
    updated = []  # (dtype, size) of each adam_update call's gradient
    optimizer_step, adam_update = training.optimizer_step, kernels.adam_update

    def step_spy(params, *args):
        for name, p in params.items():
            if p.grad is not None:
                grad_dtypes[name].append(p.grad.dtype)
        return optimizer_step(params, *args)

    def adam_spy(param, grad, *args):
        updated.append((grad.dtype, grad.size))
        return adam_update(param, grad, *args)

    monkeypatch.setattr(training, "optimizer_step", step_spy)
    monkeypatch.setattr(kernels, "adam_update", adam_spy)
    ids = np.random.default_rng(2).integers(0, F32.vocab_size, size=(40, F32.seq_len))
    _, trace = training.train(model, ids, TrainConfig(batch_size=4, steps=3, lambda_adv=lambda_adv))
    assert len(trace) == 3
    assert float64_arrays == []
    for p in model.params.values():
        assert p.data.dtype == np.float32
        assert p.grad is None
    for name in model.generator_params():
        assert grad_dtypes[name] == [np.float32] * 3, name
    # Adam ran over every element of every gradient taken, each once, in float32
    assert {dtype for dtype, _ in updated} == {np.dtype(np.float32)}
    assert sum(size for _, size in updated) == 3 * sum(
        p.data.size for name, p in model.params.items() if grad_dtypes[name])
    assert len(adam_states) == 2
    arrays = [a for s in adam_states for a in (*s.m.values(), *s.v.values())]
    assert len(arrays) == 2 * len(model.params if lambda_adv else model.generator_params())
    assert all(a.dtype == np.float32 for a in arrays)


@pytest.mark.parametrize("mode", ["noise", "decoded-x1"])
def test_sampling_stays_float32(float64_arrays, mode):
    model = f32_model(3)
    rng = np.random.default_rng(4)
    z = networks.draw_latents(model, rng, 6, np.arange(6) if mode == "decoded-x1" else None)
    if mode == "decoded-x1":  # the posterior draw is training's reparam_sample, in float32
        eps = np.random.default_rng(4).standard_normal((6, F32.d_latent))
        with no_grad():
            draw = reparam_sample(networks.encode_first_token(model, np.arange(6)), eps).data
        assert z.dtype == np.float32
        assert np.array_equal(z, draw)
    ids = networks.generate_batch(model, z, rng)
    assert ids.shape == (6, F32.seq_len)
    assert float64_arrays == []


def test_float32_rows_are_sampled_by_a_float64_running_sum():
    logits = np.random.default_rng(7).standard_normal((1, 10000)) * 5
    probs = Tensor(logits.astype(np.float32)).softmax().data
    cum, cum32 = np.cumsum(probs[0], dtype=np.float64), probs[0].cumsum()
    k = int(np.argmax(np.abs(cum32 - cum)))  # where the float32 running sum drifts most
    u = (cum[k] + float(cum32[k])) / 2

    class Fixed:
        def random(self, n):
            return np.full(n, u)

    assert sample_rows(probs, Fixed())[0] == int((u > cum).sum())


def test_gumbel_noise_near_one_stays_finite_in_float32():
    # 1 - 1e-13 is clamped to 1 - 1e-12, which float32 would round to 1
    u = np.random.default_rng(5).random((F32.seq_len, 3, F32.vocab_size))
    u[:, :, 7] = 1.0 - 1e-13
    (rows,) = networks.generate_relaxed_batch(f32_model(6), 0.2, (np.zeros((3, F32.d_latent)), u))
    assert rows.data.dtype == np.float32
    assert np.all(np.isfinite(rows.data))
    y = gumbel_softmax(Tensor(np.zeros((2, 4), np.float32)), 0.5, np.full((2, 4), 1.0 - 1e-13))
    assert y.data.dtype == np.float32
    assert np.allclose(y.data, 0.25)


def test_same_seed_float32_run_tracks_float64():
    mid = ArnConfig(seq_len=10, vocab_size=1000, d_emb=128, d_hidden=128, d_latent=32)
    ids = np.random.default_rng(1).integers(0, mid.vocab_size, size=(200, mid.seq_len))
    for lambda_adv in (0.0, 1.0):
        traces = []
        for cfg in (mid, dataclasses.replace(mid, dtype="float32")):
            model = ArnModel.initialized(cfg, training.rng_streams(5)["init"])
            cfg_train = TrainConfig(batch_size=16, steps=8, lambda_adv=lambda_adv, seed=5)
            traces.append(training.train(model, ids, cfg_train)[1])
        f64, f32 = traces
        assert len(f64) == len(f32) == 8
        for a, b in zip(f64, f32):
            for key, value in a.items():
                assert abs(b[key] - value) <= 1e-4 * abs(value), (lambda_adv, a["step"], key)

