import itertools

import numpy as np
import pytest

from arn.distributions import gumbel_softmax, kl_gauss_std
from arn.errors import ShapeError, VocabError
from arn.networks import (
    ArnConfig,
    ArnModel,
    decode_first_token,
    discriminator_score_batch,
    draw_latents,
    encode_first_token,
    generate_batch,
    generate_relaxed_batch,
    one_hot_rows,
    sequence_log_likelihood_batch,
)
from arn.tensor import Tensor, gather_rows, grad_check, gumbel_lstm_sequence, pick

TINY = ArnConfig(seq_len=3, vocab_size=4, d_emb=5, d_hidden=6, d_latent=2)


@pytest.fixture
def model():
    return ArnModel.initialized(TINY, np.random.default_rng(0))


@pytest.fixture
def zero_model():
    return ArnModel.zeros(TINY)


def log_likelihood(model, ids, z):
    """log p(x1|z) + sum_{i>=2} log p(x_i | h_{i-1}) per row of a (B, T) batch."""
    lp1, ar = sequence_log_likelihood_batch(model, ids, z)
    return (lp1 + ar).data


def sample_noise_mode(model, rng, count=1):
    return generate_batch(model, draw_latents(model, rng, count), rng)


def zeros(bsz):
    return Tensor(np.zeros((bsz, TINY.d_hidden)))


def primitive_lstm_cell(pre, c):
    """(h, c) of an LSTM cell from Tensor slices, sigmoid, tanh, * and +; pre is the (B, 4H) [i|f|o|g]."""
    hdim = c.shape[1]
    i, f, o = (pre[:, k * hdim:(k + 1) * hdim].sigmoid() for k in range(3))
    c = f * c + i * pre[:, 3 * hdim:].tanh()
    return o * c.tanh(), c


def generator_step(model, inp, h, c):
    """One generator step as autodiff nodes: (logits over V, h, c) from the (B, d_emb) input tensor."""
    p = model.params
    h, c = primitive_lstm_cell(inp @ p["gen.wx"] + h @ p["gen.wh"] + p["gen.b"], c)
    return h @ p["gen.proj_w"] + p["gen.proj_b"], h, c


class TestEncoderDecoder:
    def test_zero_encoder_gives_prior(self, zero_model):
        q = encode_first_token(zero_model, np.arange(TINY.vocab_size))
        assert np.all(q.mu.data == 0) and np.all(q.log_var.data == 0)

    def test_distinct_tokens_distinct_posteriors(self, model):
        posteriors = [row.tobytes() for row in encode_first_token(model, np.arange(4)).mu.data]
        assert len(set(posteriors)) == 4

    def test_out_of_range_token(self, model):
        with pytest.raises(VocabError):
            encode_first_token(model, np.array([7]))

    def test_zero_decoder_uniform(self, zero_model):
        logits = decode_first_token(zero_model, np.zeros((1, 2)))
        probs = logits.softmax().data
        np.testing.assert_allclose(probs, 0.25)
        np.testing.assert_allclose(logits.log_softmax().data, -np.log(4))

    @pytest.mark.parametrize("shape", [(2,), (1, 3), (1, 1, 2)])
    def test_decoder_takes_batched_latents_only(self, model, shape):
        with pytest.raises(ShapeError):
            decode_first_token(model, np.zeros(shape))

    def test_encoder_grad(self, model):
        def f(w):
            trial = ArnModel(model.config, dict(model.params))
            trial.params["enc.w"] = w
            return kl_gauss_std(encode_first_token(trial, np.array([1, 3]))).sum()

        assert grad_check(f, model.params["enc.w"]) <= 1e-4


class TestLstmStep:
    def test_all_zero(self, zero_model):
        logits, h, c = generator_step(zero_model, Tensor(np.zeros((1, 5))), zeros(1), zeros(1))
        assert np.all(h.data == 0) and np.all(c.data == 0)
        np.testing.assert_allclose(logits.softmax().data, 0.25)

    def test_zero_weights_nonzero_cell(self, zero_model):
        c0 = np.linspace(-1, 1, 6).reshape(1, 6)
        _, h, c = generator_step(zero_model, Tensor(np.zeros((1, 5))), zeros(1), Tensor(c0))
        np.testing.assert_allclose(c.data, 0.5 * c0, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_grad_through_chained_steps(self, model):
        inp = Tensor(np.random.default_rng(1).standard_normal((1, 5)))

        def f(w):
            trial = ArnModel(model.config, dict(model.params))
            trial.params["gen.wh"] = w
            h = c = zeros(1)
            for _ in range(3):
                logits, h, c = generator_step(trial, inp, h, c)
            return (logits.log_softmax() * 0.1).sum()

        assert grad_check(f, model.params["gen.wh"]) <= 1e-4


class TestSequenceLikelihood:
    def test_uniform_factors(self):
        cfg = ArnConfig(seq_len=3, vocab_size=4, d_emb=5, d_hidden=6, d_latent=2)
        m = ArnModel.zeros(cfg)
        ll = log_likelihood(m, [[1, 2, 3]], np.zeros((1, 2)))
        assert abs(ll.item() - (-3 * np.log(4))) < 1e-12

    def test_always_nonpositive(self, model):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ids = rng.integers(0, 4, size=(1, 3))
            assert log_likelihood(model, ids, rng.standard_normal((1, 2))).item() <= 0

    def test_exhaustive_normalization(self):
        cfg = ArnConfig(seq_len=2, vocab_size=2, d_emb=3, d_hidden=4, d_latent=2)
        m = ArnModel.initialized(cfg, np.random.default_rng(3))
        z = np.random.default_rng(4).standard_normal((1, 2))
        total = sum(
            np.exp(log_likelihood(m, [ids], z).item())
            for ids in itertools.product(range(2), repeat=2)
        )
        assert abs(total - 1.0) < 1e-9

    def test_step_distributions_normalized(self, model):
        logits = decode_first_token(model, Tensor(np.zeros((1, 2))))
        assert abs(np.exp(logits.log_softmax().data).sum() - 1.0) < 1e-9


class TestGenerate:
    def test_output_shape_and_range(self, model):
        rng = np.random.default_rng(6)
        for seed_tokens in (None, [2]):
            ids = generate_batch(model, draw_latents(model, rng, 1, seed_tokens), rng)
            assert ids.shape == (1, TINY.seq_len)
            assert np.all((ids >= 0) & (ids < TINY.vocab_size))

    def test_mode_equivalence_at_degenerate_encoder(self, model):
        # zero encoder => q(z|x1) = p(z), so the two modes share one law
        m = ArnModel(model.config, dict(model.params))
        m.params["enc.w"] = Tensor(np.zeros_like(m.params["enc.w"].data), requires_grad=True)
        m.params["enc.b"] = Tensor(np.zeros_like(m.params["enc.b"].data), requires_grad=True)
        rng = np.random.default_rng(8)
        n = 20_000
        a = generate_batch(m, rng.standard_normal((n, 2)), rng)
        q = encode_first_token(m, np.zeros(n, dtype=int))
        z_post = q.mu.data + np.exp(0.5 * q.log_var.data) * rng.standard_normal((n, 2))
        b = generate_batch(m, z_post, rng)
        for grams_a, grams_b in [(a[:, :2], b[:, :2])]:
            va = np.bincount(grams_a[:, 0] * 4 + grams_a[:, 1], minlength=16) / n
            vb = np.bincount(grams_b[:, 0] * 4 + grams_b[:, 1], minlength=16) / n
            se = np.sqrt(va * (1 - va) / n + vb * (1 - vb) / n) + 1e-9
            assert np.all(np.abs(va - vb) <= 4 * se)


class TestRelaxedAndDiscriminator:
    def test_relaxed_rows_sum_to_one(self, model):
        uniforms = np.random.default_rng(9).random((TINY.seq_len, 1, 4))
        (rows,) = generate_relaxed_batch(model, 0.7, (np.zeros((1, 2)), uniforms))
        assert rows.shape[0] == TINY.seq_len
        for row in rows:
            assert abs(row.data.sum() - 1.0) < 1e-9

    def test_low_temperature_near_one_hot(self, model):
        uniforms = np.random.default_rng(10).random((TINY.seq_len, 1, 4))
        (rows,) = generate_relaxed_batch(model, 0.01, (np.zeros((1, 2)), uniforms))
        assert all(row.data.max() > 0.99 for row in rows)

    @pytest.mark.parametrize("shape", [(2, 1, 4), (4, 1, 4), (3, 2, 4), (3, 1, 5)])
    def test_uniforms_must_match_sequence_shape(self, model, shape):
        with pytest.raises(ShapeError):
            generate_relaxed_batch(model, 0.7, (np.zeros((1, 2)), np.full(shape, 0.5)))

    def test_zero_discriminator_outputs_half(self, zero_model, model):
        ids = sample_noise_mode(model, np.random.default_rng(11))
        assert discriminator_score_batch(zero_model, ids).sigmoid().item() == 0.5

    def test_output_in_open_interval(self, model):
        rng = np.random.default_rng(12)
        for _ in range(5):
            ids = sample_noise_mode(model, rng)
            val = discriminator_score_batch(model, ids).sigmoid().item()
            assert 0.0 < val < 1.0

    def test_one_hot_equivalence_bitwise(self, model):
        ids = np.array([[2, 0, 3]])
        hard = discriminator_score_batch(model, ids).sigmoid()
        soft = discriminator_score_batch(model, one_hot_rows(ids, 4)).sigmoid()
        assert hard.data.tobytes() == soft.data.tobytes()

    def test_discriminator_grad(self, model):
        ids = np.array([[1, 2, 0]])

        def f(w):
            trial = ArnModel(model.config, dict(model.params))
            trial.params["disc.wh"] = w
            return -discriminator_score_batch(trial, ids).sigmoid().log().sum()

        assert grad_check(f, model.params["disc.wh"]) <= 1e-4

    def test_relaxed_path_grad_to_generator(self, model):
        noise = np.random.default_rng(13).random((TINY.seq_len, 1, 4))

        def f(w):
            trial = ArnModel(model.config, dict(model.params))
            trial.params["gen.wx"] = w
            (rows,) = generate_relaxed_batch(trial, 0.8, (np.array([[0.2, -0.1]]), noise))
            return discriminator_score_batch(trial, rows).sigmoid().mean()

        assert grad_check(f, model.params["gen.wx"]) <= 1e-4


@pytest.mark.parametrize("cfg,bsz", [
    (ArnConfig.preset("desk"), 32),
    (ArnConfig(seq_len=6, vocab_size=50, d_emb=12, d_hidden=16, d_latent=4, dtype="float32"), 8),
])
def test_shared_pass_equals_single_batch_calls_bit_for_bit(cfg, bsz):
    """Two (z, uniforms) pairs run as one batch: same rows and generator gradients as one call each."""
    rng = np.random.default_rng(17)
    model = ArnModel.initialized(cfg, rng)
    shape = (cfg.seq_len, bsz, cfg.vocab_size)
    draws = [(rng.standard_normal((bsz, cfg.d_latent)), rng.random(shape)) for _ in range(2)]
    weights = Tensor(rng.standard_normal(shape).astype(cfg.dtype))
    shared = generate_relaxed_batch(model, 0.7, *draws)
    assert len(shared) == 2
    for rows, draw in zip(shared, draws):
        (alone,) = generate_relaxed_batch(model, 0.7, draw)
        assert rows.data.dtype == np.dtype(cfg.dtype) and rows.data.tobytes() == alone.data.tobytes()
        grads = []
        for out in (rows, alone):
            (out * weights).sum().backward()
            grads.append({n: p.grad.copy() for n, p in model.params.items() if p.grad is not None})
        assert set(grads[0]) == set(grads[1]) == {"dec.w", "dec.b", "emb", "gen.wx", "gen.wh", "gen.b",
                                                  "gen.proj_w", "gen.proj_b"}
        for name, grad in grads[0].items():
            assert grad.tobytes() == grads[1][name].tobytes(), name


def test_shared_pass_needs_one_noise_column_per_first_row():
    rng = np.random.default_rng(18)
    y0s = [Tensor(np.full((2, 4), 0.25)), Tensor(np.full((1, 4), 0.25))]
    weights = [rng.standard_normal(s) for s in ((4, 5), (5, 24), (6, 24), (24,), (6, 4), (4,))]
    with pytest.raises(ShapeError):
        gumbel_lstm_sequence(y0s, *weights, np.zeros((2, 4, 4)), 0.5)


class TestPerStepReference:
    """The batched sequence paths against one autodiff node chain per timestep."""

    def test_log_likelihood(self, model):
        rng = np.random.default_rng(14)
        ids, z = rng.integers(0, 4, size=(5, 3)), rng.standard_normal((5, 2))
        _, ar = sequence_log_likelihood_batch(model, ids, z)
        h = c = zeros(5)
        ref = Tensor(np.zeros(5))
        for i in range(1, 3):
            logits, h, c = generator_step(model, gather_rows(model.params["emb"], ids[:, i - 1]), h, c)
            ref = ref + pick(logits.log_softmax(), ids[:, i])
        np.testing.assert_allclose(ar.data, ref.data, rtol=0, atol=1e-12)

    def test_relaxed_rows_and_scores(self, model):
        z, tau = np.random.default_rng(15).standard_normal((4, 2)), 0.6
        (rows,) = generate_relaxed_batch(model, tau, (z, np.random.default_rng(16).random((3, 4, 4))))
        rng = np.random.default_rng(16)
        row = gumbel_softmax(decode_first_token(model, Tensor(z)), tau, rng.random((4, 4)))
        ref, h, c = [row], zeros(4), zeros(4)
        for _ in range(1, 3):
            logits, h, c = generator_step(model, row @ model.params["emb"], h, c)
            row = gumbel_softmax(logits, tau, rng.random((4, 4)))
            ref.append(row)
        np.testing.assert_allclose(rows.data, np.stack([r.data for r in ref]), rtol=0, atol=1e-12)

        ids = np.random.default_rng(17).integers(0, 4, size=(3, 3))
        scores = discriminator_score_batch(model, ids, rows)
        p = model.params
        embedded = [one_hot_rows(ids, 4).data, rows.data]
        inputs = np.concatenate(embedded, axis=1) @ p["disc.emb"].data
        h, c = zeros(7), zeros(7)
        for x in inputs:
            h, c = primitive_lstm_cell(Tensor(x) @ p["disc.wx"] + h @ p["disc.wh"] + p["disc.b"], c)
        ref_scores = (h.data @ p["disc.head_w"].data + p["disc.head_b"].data).reshape(-1)
        np.testing.assert_allclose(scores.data, ref_scores, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_generate_batch_matches_a_numpy_per_step_loop(dtype):
    """Sampling on the same z and rng as a loop of textbook gate math: the same tokens."""
    cfg = ArnConfig(seq_len=6, vocab_size=30, d_emb=5, d_hidden=6, d_latent=2, dtype=dtype)
    model = ArnModel.initialized(cfg, np.random.default_rng(19))
    z = np.random.default_rng(20).standard_normal((50, cfg.d_latent))
    ids = generate_batch(model, z, np.random.default_rng(21))

    p, hdim, rng = {n: t.data for n, t in model.params.items()}, cfg.d_hidden, np.random.default_rng(21)

    def sample(logits):
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        cum = np.cumsum(ex / ex.sum(axis=1, keepdims=True), axis=1, dtype=np.float64)
        cum[:, -1] = 1.0
        return (rng.random(len(logits))[:, None] > cum).sum(axis=1)

    ref = np.empty_like(ids)
    ref[:, 0] = sample(z.astype(dtype) @ p["dec.w"] + p["dec.b"])
    h = c = np.zeros((len(z), hdim), dtype)
    for t in range(1, cfg.seq_len):
        pre = p["emb"][ref[:, t - 1]] @ p["gen.wx"] + h @ p["gen.wh"] + p["gen.b"]
        i, f, o = (1.0 / (1.0 + np.exp(-pre[:, k * hdim:(k + 1) * hdim])) for k in range(3))
        c = f * c + i * np.tanh(pre[:, 3 * hdim:])
        h = o * np.tanh(c)
        assert h.dtype == np.dtype(dtype)
        ref[:, t] = sample(h @ p["gen.proj_w"] + p["gen.proj_b"])
    assert ids.dtype == np.int64 and ids.shape == (50, cfg.seq_len)
    np.testing.assert_array_equal(ids, ref)
