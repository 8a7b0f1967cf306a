import dataclasses
import io
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arn import cli, networks, training
from arn.errors import ConfigError, NumericsError, TrainingAborted
from arn.networks import ArnConfig, ArnModel
from arn.tensor import Tensor, grad_check, no_grad
from arn.training import AdamState, TrainConfig, optimizer_step

TINY = ArnConfig(seq_len=3, vocab_size=4, d_emb=5, d_hidden=6, d_latent=2)


def meta_entries(cfg):
    """The model sizes a checkpoint starts with, as (name, f64 scalar) pairs."""
    return [(f"meta.{f}", np.array(float(getattr(cfg, f))))
            for f in ("seq_len", "vocab_size", "d_emb", "d_hidden", "d_latent")]


def checkpoint_bytes(entries, version=2):
    """A checkpoint file of (name, array) entries, written by hand from the documented format.

    Version 2 pads the manifest with zero bytes to a multiple of 64; version 1 does not.
    """
    out = b"ARN1" + struct.pack("<H", version) + struct.pack("<I", len(entries))
    for name, arr in entries:
        out += struct.pack("<H", len(name)) + name.encode("utf-8")
        out += struct.pack("<B", arr.ndim) + b"".join(struct.pack("<Q", e) for e in arr.shape)
        out += struct.pack("<B", {np.float32: 0, np.float64: 1}[arr.dtype.type])
    if version == 2:
        out += bytes(-len(out) % 64)
    return out + b"".join(arr.astype(arr.dtype.newbyteorder("<")).tobytes() for _, arr in entries)


def tiny_model(seed=0):
    return ArnModel.initialized(TINY, np.random.default_rng(seed))


def tiny_corpus(seed=1, n=40):
    return np.random.default_rng(seed).integers(0, TINY.vocab_size, size=(n, TINY.seq_len))


def uniforms(rngs, bsz):
    return rngs["gumbel"].random((TINY.seq_len, bsz, TINY.vocab_size))


def g_phase_draws(m, rngs, bsz, tau):
    """The draws of train's G phase: ELBO noise, then z, then the Gumbel uniforms of the fake."""
    noise = rngs["noise"].standard_normal((bsz, TINY.d_latent))
    z = rngs["noise"].standard_normal((bsz, TINY.d_latent))
    (fake,) = networks.generate_relaxed_batch(m, tau, (z, uniforms(rngs, bsz)))
    return noise, fake


def nan_at_second_d_loss(monkeypatch):
    """Make the second discriminator loss of a run NaN, which rejects that step."""
    scored, calls = training.discriminator_loss, []

    def nan_at_second_call(model, real_ids, fake):
        calls.append(None)
        loss = scored(model, real_ids, fake)
        return loss + Tensor(np.nan) if len(calls) == 2 else loss

    monkeypatch.setattr(training, "discriminator_loss", nan_at_second_call)


def nan_from_second_d_loss(monkeypatch):
    """Make every discriminator loss after the first NaN; returns the parameters seen at the second."""
    scored, calls, seen = training.discriminator_loss, [], {}

    def nan_from_second_call(model, real_ids, fake):
        calls.append(None)
        loss = scored(model, real_ids, fake)
        if len(calls) == 2:
            seen.update((name, p.data.copy()) for name, p in model.params.items())
        return loss if len(calls) == 1 else loss + Tensor(np.nan)

    monkeypatch.setattr(training, "discriminator_loss", nan_from_second_call)
    return seen


def assert_params_equal(model, arrays):
    assert model.params.keys() == arrays.keys()
    for name, data in arrays.items():
        got = model.params[name].data
        assert got.dtype == data.dtype and got.shape == data.shape and got.tobytes() == data.tobytes(), name


class TestElbo:
    def test_zero_model_uniform(self):
        cfg = ArnConfig(seq_len=3, vocab_size=4, d_emb=5, d_hidden=6, d_latent=2)
        m = ArnModel.zeros(cfg)
        total, _, kl, _ = training.elbo_batch(m, np.array([[0, 1, 2]]), np.zeros((1, 2)))
        assert abs(kl.item()) < 1e-15
        assert abs(total.item() - (-3 * np.log(4))) < 1e-12

    def test_tight_when_decoder_ignores_latent(self):
        # zero encoder => KL = 0; zero decoder weight => p(x1|z) constant in z
        m = tiny_model(2)
        for name in ("enc.w", "enc.b", "dec.w"):
            m.params[name] = Tensor(np.zeros_like(m.params[name].data), requires_grad=True)
        ids = np.array([[2, 1, 3]])
        noise = np.random.default_rng(3).standard_normal((1, 2))
        total, _, _, _ = training.elbo_batch(m, ids, noise)
        lp1, ar = networks.sequence_log_likelihood_batch(m, ids, np.zeros((1, 2)))
        assert abs(total.item() - (lp1 + ar).item()) < 1e-12

    def test_bound_direction_against_quadrature(self):
        # 1-d latent: enumerate log p(x1) on a grid; the AR part is exact and
        # z-independent, so the bound check reduces to the first-token term.
        cfg = ArnConfig(seq_len=3, vocab_size=3, d_emb=4, d_hidden=5, d_latent=1)
        rng = np.random.default_rng(4)
        m = ArnModel.initialized(cfg, rng)
        ids = np.array([[1, 0, 2]])
        zs = np.arange(-8.0, 8.0, 1e-3)
        logit_rows = zs[:, None] * m.params["dec.w"].data + m.params["dec.b"].data
        probs = np.exp(logit_rows - logit_rows.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        weights = np.exp(-0.5 * zs**2) / np.sqrt(2 * np.pi)
        log_p_x1 = np.log(np.trapezoid(weights * probs[:, ids[0, 0]], zs))
        draws = 10_000
        noise = rng.standard_normal((draws, 1))
        samples = np.empty(draws)
        ar_val = None
        for start in range(0, draws, 500):
            chunk = noise[start:start + 500]
            total, recon, kl, ar = training.elbo_batch(
                m, np.repeat(ids, chunk.shape[0], axis=0), chunk
            )
            first = recon.data - kl.data
            samples[start:start + 500] = first
            ar_val = ar.data[0]
        se = samples.std() / np.sqrt(draws)
        assert samples.mean() <= log_p_x1 + 3 * se
        exact_total = log_p_x1 + ar_val
        assert samples.mean() + ar_val <= exact_total + 3 * se


class TestDiscriminatorLoss:
    def test_half_discriminator(self):
        m = ArnModel.zeros(TINY)
        real = tiny_corpus(5, n=4)
        fake = networks.one_hot_rows(tiny_corpus(6, n=4), TINY.vocab_size)
        loss = training.discriminator_loss(m, real, fake)
        assert abs(loss.item() - 2 * math.log(2)) < 1e-12

    def test_perfect_discriminator_limit(self, monkeypatch):
        # D(real) -> 1-eps and D(fake) -> eps should drive the loss to 0+
        m = ArnModel.zeros(TINY)
        real = tiny_corpus(5, n=4)
        fake = networks.one_hot_rows(tiny_corpus(6, n=4), TINY.vocab_size)
        monkeypatch.setattr(
            networks,
            "discriminator_score_batch",
            lambda model, real, fake: Tensor(np.r_[np.full(len(real), 30.0),
                                                   np.full(fake.shape[1], -30.0)]),
        )
        loss = training.discriminator_loss(m, real, fake)
        assert 0.0 <= loss.item() < 1e-8

    def test_empty_batch(self):
        m = tiny_model()
        with pytest.raises(ConfigError):
            training.discriminator_loss(m, np.empty((0, 3), dtype=int), [])

    def test_detachment_of_fake_batch(self):
        m = tiny_model(7)
        rngs = training.rng_streams(7)
        with no_grad():
            z = rngs["noise"].standard_normal((4, TINY.d_latent))
            (fake,) = networks.generate_relaxed_batch(m, 0.8, (z, uniforms(rngs, 4)))
        loss = training.discriminator_loss(m, tiny_corpus(8, n=4), fake)
        loss.backward()
        for name, p in m.generator_params().items():
            assert p.grad is None or not np.any(p.grad), name


class TestGeneratorLoss:
    def test_lambda_zero_is_negative_elbo(self):
        m = tiny_model(9)
        rngs = training.rng_streams(9)
        batch = tiny_corpus(10, n=4)
        noise = rngs["noise"].standard_normal((4, TINY.d_latent))
        loss, fields = training.generator_loss(m, batch, noise, None, 0.0)
        manual = -(fields["ar_loglik"] - fields["kl"] + fields["recon"])
        assert abs(loss.item() - manual) < 1e-12
        assert fields["adv"] == 0.0

    def test_zero_discriminator_adversarial_term(self):
        m = tiny_model(11)
        for name in m.discriminator_params():
            m.params[name] = Tensor(np.zeros_like(m.params[name].data), requires_grad=True)
        noise, fake = g_phase_draws(m, training.rng_streams(11), 4, 0.8)
        _, fields = training.generator_loss(m, tiny_corpus(12, n=4), noise, fake, 1.0)
        assert abs(fields["adv"] - math.log(0.5)) < 1e-12

    def test_backward_leaves_discriminator_grads_untouched(self):
        m = tiny_model(31)
        marks = {}
        for name, p in m.discriminator_params().items():
            p.grad = marks[name] = np.full(p.data.shape, 7.0)
        noise, fake = g_phase_draws(m, training.rng_streams(31), 4, 0.8)
        loss, _ = training.generator_loss(m, tiny_corpus(32, n=4), noise, fake, 1.0)
        loss.backward()
        for name, p in m.discriminator_params().items():
            assert p.grad is marks[name] and np.all(p.grad == 7.0), name
        assert all(np.any(p.grad) for p in m.generator_params().values())

    def test_breakdown_consistency(self):
        m = tiny_model(13)
        noise, fake = g_phase_draws(m, training.rng_streams(13), 3, 0.9)
        loss, f = training.generator_loss(m, tiny_corpus(14, n=3), noise, fake, 0.7)
        manual = -(f["ar_loglik"] - f["kl"] + f["recon"]) + 0.7 * f["adv"]
        assert abs(f["g_loss"] - manual) < 1e-12
        assert f["kl"] >= 0


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        optimizer_step({"p": p}, AdamState(), 1e-3)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_signed_lr(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal(6)
        p = Tensor(np.zeros(6), requires_grad=True)
        p.grad = g.copy()
        lr = 1e-3
        optimizer_step({"p": p}, AdamState(), lr)
        np.testing.assert_allclose(p.data, -lr * np.sign(g), rtol=1e-5)
        assert np.all(np.abs(p.data) <= lr * (1 + 1e-6))

    def test_descent_on_quadratic(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        state = AdamState()
        for _ in range(2):
            p.grad = 2.0 * p.data
            optimizer_step({"p": p}, state, 0.1)
        assert abs(p.data[0]) < 2.0

    def test_nonfinite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        before = p.data.copy()
        with pytest.raises(NumericsError):
            optimizer_step({"p": p}, AdamState(), 1e-3)
        np.testing.assert_array_equal(p.data, before)


class TestTrainLoop:
    def test_zero_steps(self):
        m = tiny_model(16)
        before = {k: v.data.copy() for k, v in m.params.items()}
        _, trace = training.train(m, tiny_corpus(17), TrainConfig(batch_size=4, steps=0, seed=16))
        assert trace == []
        for k, v in m.params.items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_seed_determinism(self, tmp_path):
        corpus_ids = tiny_corpus(18)
        paths = []
        for run in range(2):
            m = ArnModel.initialized(TINY, training.rng_streams(5)["init"])
            cfg = TrainConfig(batch_size=4, steps=15, seed=5)
            path = tmp_path / f"ckpt{run}.arn"
            training.train(m, corpus_ids, cfg, checkpoint_path=str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_alternating_updates_are_isolated(self):
        m = tiny_model(19)
        corpus_ids = tiny_corpus(20)
        disc_before = {k: v.data.copy() for k, v in m.discriminator_params().items()}
        gen_before = {k: v.data.copy() for k, v in m.generator_params().items()}
        rngs = training.rng_streams(19)
        cfg = TrainConfig(batch_size=4, steps=1, seed=19)
        with no_grad():
            z = rngs["noise"].standard_normal((4, TINY.d_latent))
            (fake,) = networks.generate_relaxed_batch(m, 1.0, (z, uniforms(rngs, 4)))
        fake = Tensor(fake.data.copy())
        d_loss = training.discriminator_loss(m, corpus_ids[:4], fake)
        d_loss.backward()
        optimizer_step(m.discriminator_params(), AdamState(), cfg.lr)
        for k, v in m.generator_params().items():
            assert v.data.tobytes() == gen_before[k].tobytes()

        noise, fake = g_phase_draws(m, rngs, 4, 1.0)
        g_loss, _ = training.generator_loss(m, corpus_ids[:4], noise, fake, cfg.lambda_adv)
        g_loss.backward()
        disc_mid = {k: v.data.copy() for k, v in m.discriminator_params().items()}
        optimizer_step(m.generator_params(), AdamState(), cfg.lr)
        for k, v in m.discriminator_params().items():
            assert v.data.tobytes() == disc_mid[k].tobytes()

    def test_discriminator_gradients_are_released_after_its_update(self):
        m = tiny_model(42)
        training.train(m, tiny_corpus(43), TrainConfig(batch_size=4, steps=2, seed=42))
        assert all(p.grad is None for p in m.discriminator_params().values())
        assert all(p.grad is not None for p in m.generator_params().values())

    def test_nonfinite_discriminator_loss_rejects_the_step(self, tmp_path, monkeypatch):
        nan_at_second_d_loss(monkeypatch)
        path = tmp_path / "trace.jsonl"
        _, trace = training.train(tiny_model(38), tiny_corpus(39),
                                  TrainConfig(batch_size=4, steps=4, seed=38), trace_path=str(path))
        assert [r["step"] for r in trace] == [0, 2, 3]

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        lines = path.read_text().splitlines()
        assert [json.loads(line, parse_constant=reject)["step"] for line in lines] == [0, 2, 3]

    def test_second_rejection_aborts_and_saves_the_last_kept_step(self, tmp_path, monkeypatch):
        seen = nan_from_second_d_loss(monkeypatch)
        ckpt, trace = tmp_path / "m.arn", tmp_path / "trace.jsonl"
        with pytest.raises(TrainingAborted):
            training.train(tiny_model(44), tiny_corpus(45), TrainConfig(batch_size=4, steps=4, seed=44),
                           checkpoint_path=str(ckpt), trace_path=str(trace))
        assert [json.loads(line)["step"] for line in trace.read_text().splitlines()] == [0]
        assert_params_equal(training.load_checkpoint(str(ckpt)), seen)

    def test_second_rejection_exits_3_and_writes_out(self, tmp_path, monkeypatch, capsys):
        seen = nan_from_second_d_loss(monkeypatch)
        corpus_file, out = tmp_path / "corpus.txt", tmp_path / "m.arn"
        corpus_file.write_text("\n".join(" ".join(map(str, row)) for row in tiny_corpus(46)) + "\n")
        code = cli.main(["train", "--corpus", str(corpus_file), "--steps", "4", "--batch-size", "4",
                         "--seed", "46", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric abort:")
        assert_params_equal(training.load_checkpoint(str(out)), seen)

    def test_rejected_d_phase_has_drawn_the_g_phase_noise(self, monkeypatch):
        # one generator pass per step draws z_D, the ELBO noise and z_G, then u_D and u_G,
        # before D scores anything: a rejected D phase leaves these streams where a kept one does
        made = []
        monkeypatch.setattr(training, "rng_streams", lambda seed, make=training.rng_streams: (
            made.append(make(seed)) or made[-1]))
        cfg = TrainConfig(batch_size=4, steps=4, seed=40)
        _, kept = training.train(tiny_model(40), tiny_corpus(41), cfg)
        nan_at_second_d_loss(monkeypatch)
        _, rejected = training.train(tiny_model(40), tiny_corpus(41), cfg)
        assert len(kept) == 4 and [r["step"] for r in rejected] == [0, 2, 3]
        for name in ("noise", "gumbel"):
            assert made[0][name].bit_generator.state == made[1][name].bit_generator.state, name
        assert made[0]["data"].bit_generator.state != made[1]["data"].bit_generator.state

    def test_mle_only_elbo_trend(self):
        # deterministic cyclic source: ELBO should improve under lambda_adv=0
        from arn import corpus as corpus_mod

        perm = np.roll(np.eye(4), 1, axis=1)
        src = corpus_mod.MarkovSource(pi=[0.25] * 4, transition=perm)
        ids = corpus_mod.sample_markov(src, TINY.seq_len, 100, np.random.default_rng(21))
        m = tiny_model(22)
        cfg = TrainConfig(batch_size=8, steps=300, lambda_adv=0.0, seed=22)
        _, trace = training.train(m, ids, cfg)
        losses = np.array([r["g_loss"] for r in trace])
        assert losses[-50:].mean() < losses[:50].mean()

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            training.train(tiny_model(), np.empty((0, 3)), TrainConfig(steps=1))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
        ("lambda_adv", -0.5), ("lambda_adv", math.nan), ("lambda_adv", math.inf),
        ("steps", -3),
    ])
    def test_rejects_out_of_range_setting(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_zero_steps_and_zero_lambda_are_valid(self):
        cfg = TrainConfig(steps=0, lambda_adv=0.0)
        assert (cfg.steps, cfg.lambda_adv) == (0, 0.0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = tiny_model(23)
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        loaded = training.load_checkpoint(str(path))
        assert loaded.config == m.config
        assert set(loaded.params) == set(m.params)
        for k, v in m.params.items():
            assert loaded.params[k].data.tobytes() == v.data.tobytes()

    def test_float32_roundtrip(self, tmp_path):
        m = ArnModel.initialized(dataclasses.replace(TINY, dtype="float32"), np.random.default_rng(23))
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        loaded = training.load_checkpoint(str(path))
        assert loaded.config == m.config and loaded.config.dtype == "float32"
        for k, v in m.params.items():
            assert loaded.params[k].data.dtype == np.float32
            assert loaded.params[k].data.tobytes() == v.data.tobytes()

    def test_mixed_dtypes_are_a_config_error(self, tmp_path):
        m = tiny_model(23)
        m.params["gen.b"] = Tensor(m.params["gen.b"].data.astype(np.float32))
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        with pytest.raises(ConfigError, match="mix dtypes"):
            training.load_checkpoint(str(path))

    def test_magic_and_layout(self, tmp_path):
        m = tiny_model(24)
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        raw = path.read_bytes()
        assert raw[:4] == b"ARN1"
        assert int.from_bytes(raw[4:6], "little") == 2
        # zero padding puts the payloads, which end the file, at a multiple of 64
        payload = 40 + sum(p.data.nbytes for p in m.params.values())
        assert (len(raw) - payload) % 64 == 0 and raw[-payload - 1] == 0

    def test_layout_matches_documented_format(self, tmp_path):
        m = tiny_model(35)
        m.params["gen.b"] = Tensor(m.params["gen.b"].data.astype(np.float32))
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        # meta.* sizes as f64 scalars, then the parameters in name order
        entries = meta_entries(TINY) + [(name, m.params[name].data) for name in sorted(m.params)]
        assert path.read_bytes() == checkpoint_bytes(entries)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_loaded_params_are_separate_aligned_arrays(self, tmp_path, dtype):
        cfg = dataclasses.replace(ArnConfig.preset("desk"), dtype=dtype)
        m = ArnModel.initialized(cfg, training.rng_streams(39)["init"])
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        loaded = training.load_checkpoint(str(path))
        arrays = [p.data for p in loaded.params.values()]
        for a in arrays:
            assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
            assert a.dtype == np.dtype(dtype)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        # the loaded copy trains exactly as the model it was saved from
        corpus_ids = np.random.default_rng(40).integers(0, cfg.vocab_size, size=(40, cfg.seq_len))
        for model in (m, loaded):
            training.train(model, corpus_ids, TrainConfig(batch_size=4, steps=2, seed=41))
        for name, p in m.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_mixed_dtypes_behind_a_misaligned_payload_exit_2(self, tmp_path, capsys):
        # an odd-length float32 payload first puts every float64 payload after it off 8-byte alignment
        cfg = dataclasses.replace(TINY, vocab_size=7)
        m = ArnModel.initialized(cfg, np.random.default_rng(42))
        names = ["dec.b"] + sorted(set(m.params) - {"dec.b"})
        entries = meta_entries(cfg) + [(name, m.params[name].data.astype(np.float32 if name == "dec.b"
                                                                          else np.float64))
                                       for name in names]
        path = tmp_path / "model.arn"
        path.write_bytes(checkpoint_bytes(entries))
        assert cli.main(["generate", "--checkpoint", str(path), "--count", "1"]) == 2
        assert "parameters mix dtypes ['float32', 'float64']" in capsys.readouterr().err

    def test_loaded_params_are_updated_in_place(self, tmp_path):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(36))
        loaded = training.load_checkpoint(str(path))
        arrays = {name: p.data for name, p in loaded.params.items()}
        before = {name: a.copy() for name, a in arrays.items()}
        for a in arrays.values():
            assert a.flags.writeable and a.flags.c_contiguous and a.flags.aligned
        for p in loaded.params.values():
            p.grad = np.ones_like(p.data)
        optimizer_step(loaded.params, AdamState(), TrainConfig().lr)
        for name, p in loaded.params.items():
            assert p.data is arrays[name]
            assert not np.array_equal(p.data, before[name])

    def test_codec_memory_is_one_copy_of_the_payload(self, tmp_path):
        m = ArnModel.initialized(ArnConfig(vocab_size=2000, d_emb=64, d_hidden=64, d_latent=64),
                                 np.random.default_rng(37))
        payload = sum(p.data.nbytes for p in m.params.values())
        path = tmp_path / "model.arn"
        tracemalloc.start()
        try:
            training.save_checkpoint(str(path), m)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            loaded = training.load_checkpoint(str(path))
            load_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert save_peak <= 0.1 * payload
        assert load_peak <= 1.1 * payload
        assert loaded.config == m.config

    def test_version_1_file_loads_to_the_same_parameters(self, tmp_path, capsys):
        m = tiny_model(43)
        params = [(name, m.params[name].data) for name in sorted(m.params)]
        entries = meta_entries(TINY) + params
        # five f32 sizes (20 bytes) put every f64 payload of a version 2 file off its alignment
        f32_sizes = [(name, a.astype(np.float32)) for name, a in meta_entries(TINY)] + params
        files = {"v1": checkpoint_bytes(entries, 1), "v2": checkpoint_bytes(entries),
                 "v2, f32 sizes": checkpoint_bytes(f32_sizes)}
        outputs = {}
        for version, raw in files.items():
            path = tmp_path / f"model{len(outputs)}.arn"
            path.write_bytes(raw)
            loaded = training.load_checkpoint(str(path))
            assert loaded.config == m.config
            for name, p in m.params.items():
                a = loaded.params[name].data
                assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
                assert a.dtype == p.data.dtype and a.tobytes() == p.data.tobytes()
            del loaded
            argv = ["generate", "--checkpoint", str(path), "--count", "20", "--seed", "3"]
            assert cli.main(argv + ["--mode", "decoded-x1"]) == 0
            outputs[version] = capsys.readouterr().out
        assert len(set(outputs.values())) == 1 and len(outputs["v1"].splitlines()) == 20

    def test_version_2_load_maps_the_payload(self, tmp_path):
        m = ArnModel.initialized(ArnConfig(vocab_size=2000, d_emb=64, d_hidden=64, d_latent=64),
                                 np.random.default_rng(44))
        payload = sum(p.data.nbytes for p in m.params.values())
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        tracemalloc.start()
        try:
            loaded = training.load_checkpoint(str(path))
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak <= 0.01 * payload
        for name, p in m.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_writes_to_loaded_params_never_reach_the_file(self, tmp_path):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(45))
        before = path.read_bytes()
        loaded = training.load_checkpoint(str(path))
        for p in loaded.params.values():
            p.data += 1.0
        assert path.read_bytes() == before
        reloaded = training.load_checkpoint(str(path))
        for name, p in tiny_model(45).params.items():
            assert reloaded.params[name].data.tobytes() == p.data.tobytes()
            assert not np.array_equal(loaded.params[name].data, p.data)

    def test_bad_padding_is_a_config_error_and_exit_2(self, tmp_path, capsys):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(46))
        raw = path.read_bytes()
        payload = 40 + sum(p.data.nbytes for p in tiny_model(46).params.values())
        pad_end = len(raw) - payload
        assert pad_end % 64 == 0 and raw[pad_end - 1] == 0
        bad = tmp_path / "bad.arn"
        for corrupt, message in [(raw[:pad_end - 1] + b"\x01" + raw[pad_end:], "nonzero padding"),
                                 (raw[:pad_end - 1], "truncated")]:
            bad.write_bytes(corrupt)
            with pytest.raises(ConfigError, match=message):
                training.load_checkpoint(str(bad))
            assert cli.main(["generate", "--checkpoint", str(bad), "--count", "1"]) == 2
            assert message in capsys.readouterr().err

    def test_file_cut_after_the_size_check_is_a_config_error(self, tmp_path, monkeypatch):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(47))
        full = os.stat(path)
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(training.os, "fstat", lambda fd: full)
        with pytest.raises(ConfigError, match="truncated"):
            training.load_checkpoint(str(path))

    def test_empty_tensor_with_impossible_extent(self, tmp_path):
        m = tiny_model(38)
        m.params["gen.extra"] = Tensor(np.zeros((0, 3)))
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        raw = path.read_bytes()
        # after the name: u8 rank, the u64 extent 0, then the second extent
        at = raw.index(b"gen.extra") + len(b"gen.extra") + 1 + 8
        path.write_bytes(raw[:at] + struct.pack("<Q", 2**63) + raw[at + 8:])
        with pytest.raises(ConfigError, match="gen.extra"):
            training.load_checkpoint(str(path))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(28))
        before = path.read_bytes()

        class HalfWriter(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(training, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            training.save_checkpoint(str(path), tiny_model(29))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.arn"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.arn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            training.load_checkpoint(str(path))

    def test_every_truncation_is_a_config_error(self, tmp_path):
        src = tmp_path / "model.arn"
        training.save_checkpoint(str(src), tiny_model(25))
        raw = src.read_bytes()
        path = tmp_path / "cut.arn"
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(ConfigError):
                training.load_checkpoint(str(path))

    def test_unknown_dtype_tag(self, tmp_path):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(26))
        raw = bytearray(path.read_bytes())
        # first entry: 10-byte preamble, u16 name length, name, u8 rank 0, then the tag
        name_len = int.from_bytes(raw[10:12], "little")
        tag_at = 12 + name_len + 1
        assert raw[tag_at] == 1
        raw[tag_at] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="dtype tag 7"):
            training.load_checkpoint(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(33))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConfigError, match="trailing"):
            training.load_checkpoint(str(path))

    def test_missing_model_size(self, tmp_path):
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), tiny_model(27))
        path.write_bytes(path.read_bytes().replace(b"meta.seq_len", b"meta.seq_lem"))
        with pytest.raises(ConfigError, match="seq_len"):
            training.load_checkpoint(str(path))

    @pytest.mark.parametrize("edit", ["drop", "extra", "reshape"])
    def test_tensors_must_match_model_sizes(self, tmp_path, edit):
        m = tiny_model(30)
        if edit == "drop":
            del m.params["gen.wh"]
        elif edit == "extra":
            m.params["gen.extra"] = Tensor(np.zeros(3))
        else:
            m.params["gen.wh"] = Tensor(np.zeros((TINY.d_hidden, 3)))
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), m)
        with pytest.raises(ConfigError, match="gen"):
            training.load_checkpoint(str(path))

    @pytest.mark.parametrize("field, value", [
        ("seq_len", math.nan), ("vocab_size", math.inf), ("d_emb", 2.5),
        ("d_hidden", 0), ("d_latent", -1), ("seq_len", np.array([3.0, 3.0])),
    ])
    def test_model_sizes_must_be_positive_integers(self, tmp_path, field, value):
        m = tiny_model(31)
        path = tmp_path / "model.arn"
        training.save_checkpoint(str(path), ArnModel(dataclasses.replace(TINY, **{field: value}), m.params))
        with pytest.raises(ConfigError, match=field):
            training.load_checkpoint(str(path))


def _desk_checkpoint_bytes(path):
    model = ArnModel.initialized(ArnConfig.preset("desk"), np.random.default_rng(32))
    training.save_checkpoint(str(path), model)
    raw = path.read_bytes()
    # the manifest and the five meta.* payloads precede the parameter payloads
    payload = sum(p.data.nbytes for p in model.params.values())
    return raw, len(raw) - payload


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_checkpoint_is_rejected_or_consistent(tmp_path, data):
    """Every truncated or byte-flipped checkpoint raises ConfigError or loads a consistent model."""
    path = tmp_path / "model.arn"
    raw, head = _desk_checkpoint_bytes(path)
    corrupt = bytearray(raw)
    position = st.one_of(st.integers(0, head - 1), st.integers(0, len(raw) - 1))
    for at, mask in data.draw(st.lists(st.tuples(position, st.integers(1, 255)), max_size=4)):
        corrupt[at] ^= mask
    path.write_bytes(bytes(corrupt[:data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))]))
    try:
        model = training.load_checkpoint(str(path))
    except ConfigError:
        return
    assert {name: p.shape for name, p in model.params.items()} == model.param_shapes()


class TestLossGradients:
    def test_generator_loss_grad_sample(self):
        m = tiny_model(25)
        batch = tiny_corpus(26, n=2)
        noise = np.random.default_rng(27).standard_normal((2, TINY.d_latent))

        def f(w):
            trial = ArnModel(m.config, dict(m.params))
            trial.params["emb"] = w
            total, _, _, _ = training.elbo_batch(trial, batch, noise)
            return -total.mean()

        assert grad_check(f, m.params["emb"]) <= 1e-4
