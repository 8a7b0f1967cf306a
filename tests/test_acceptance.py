"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy import stats

from arn import cli, corpus, metrics, training
from arn.cli import gradcheck_report
from arn.distributions import GaussianPosterior, gumbel_softmax, kl_gauss_std
from arn.divlab import (
    grid_search_discriminator,
    optimal_discriminator,
    random_simplex,
    solve_nash,
    verify_identity,
)
from arn.networks import ArnConfig, ArnModel, generate_batch
from arn.tensor import Tensor
from arn.training import TrainConfig


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_01_gradient_suite():
    t0 = time.time()
    report = gradcheck_report("desk", seed=0)
    elapsed = time.time() - t0
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
    for name, err in report.items():
        assert err <= 1e-4, f"{name}: {err}"
    _report("1 gradient suite", f"max err {max(report.values()):.2e}, {elapsed:.0f}s")


def test_02_gaussian_kl_correctness():
    rng = np.random.default_rng(1)
    n = 100_000
    for _ in range(50):
        dim = int(rng.integers(1, 6))
        mu = rng.standard_normal(dim)
        lv = rng.standard_normal(dim) * 0.7
        closed = kl_gauss_std(GaussianPosterior(Tensor(mu), Tensor(lv))).item()
        z = mu + np.exp(0.5 * lv) * rng.standard_normal((n, dim))
        log_q = -0.5 * (((z - mu) ** 2) / np.exp(lv) + np.log(2 * np.pi) + lv).sum(axis=1)
        log_p = -0.5 * ((z ** 2) + np.log(2 * np.pi)).sum(axis=1)
        est = log_q - log_p
        se = est.std() / math.sqrt(n)
        assert abs(est.mean() - closed) <= 3 * se
    quoted = [
        (np.zeros(1), np.zeros(1), 0.0),
        (np.ones(1), np.zeros(1), 0.5),
        (np.zeros(1), np.ones(1), (math.e - 2) / 2),
    ]
    for mu, lv, expected in quoted:
        got = kl_gauss_std(GaussianPosterior(Tensor(mu), Tensor(lv))).item()
        assert abs(got - expected) <= 1e-9
    _report("2 KL correctness", "50 posteriors within 3 SE; quoted values to 1e-9")


def test_03_gumbel_max_law():
    rng = np.random.default_rng(2)
    n = 100_000
    for k in (2, 4, 8):
        logits = rng.standard_normal(k)
        target = np.exp(logits - logits.max())
        target /= target.sum()
        y = gumbel_softmax(Tensor(np.tile(logits, (n, 1))), 0.5, rng.random((n, k)))
        counts = np.bincount(y.data.argmax(axis=1), minlength=k)
        freqs = counts / n
        assert np.all(np.abs(freqs - target) <= 0.01), (k, freqs, target)
        pvalue = stats.chisquare(counts, f_exp=target * n).pvalue
        assert pvalue >= 0.001, (k, pvalue)
    _report("3 Gumbel-max law", "K in {2,4,8}: freqs within 0.01, chi-square p >= 0.001")


def test_04_optimal_discriminator():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        pd, pg = random_simplex(rng, k), random_simplex(rng, k)
        err = float(np.max(np.abs(optimal_discriminator(pd, pg) - grid_search_discriminator(pd, pg))))
        worst = max(worst, err)
    assert worst <= 1e-4
    _report("4 optimal discriminator", f"100 games, max |D* - grid| = {worst:.2e}")


def test_05_divergence_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        worst = max(worst, verify_identity(random_simplex(rng, k), random_simplex(rng, k))[2])
    assert worst <= 1e-10
    _report("5 appendix identity", f"1000 pairs, max gap = {worst:.2e}")


def test_06_nash_recovery():
    rng = np.random.default_rng(5)
    t0 = time.time()
    for k in (2, 4, 8):
        pd = random_simplex(rng, k)
        for _ in range(20):
            q = solve_nash(pd, random_simplex(rng, k))
            assert 0.5 * float(np.abs(q.probs - pd.probs).sum()) <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 60
    _report("6 Nash recovery", f"K in {{2,4,8}} x 20 inits, TV <= 1e-3, {elapsed:.1f}s")


# ----- criterion 7: brute-force metric oracles ---------------------------------

def _oracle_ngrams(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def _oracle_diversity(gen, n):
    grams = [g for s in gen for g in _oracle_ngrams(s, n)]
    return 100.0 * len(set(grams)) / len(grams)


def _oracle_fc(gen, test, n):
    grams = [g for s in gen for g in _oracle_ngrams(s, n)]
    test_grams = set(g for s in test for g in _oracle_ngrams(s, n))
    return 100.0 * sum(1 for g in set(grams) if g in test_grams) / len(grams)


def _oracle_bleu(cand, refs, n):
    logs = []
    for k in range(1, n + 1):
        cnt = Counter(_oracle_ngrams(cand, k))
        if not cnt:
            return 0.0
        clipped = 0
        for gram, c in cnt.items():
            best = max((Counter(_oracle_ngrams(r, k))[gram] for r in refs), default=0)
            clipped += min(c, best)
        if clipped == 0:
            return 0.0
        logs.append(math.log(clipped / sum(cnt.values())))
    c_len = len(cand)
    r_len = min((len(r) for r in refs), key=lambda r: (abs(r - c_len), r))
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return 100.0 * bp * math.exp(sum(logs) / n)


def test_07_metric_oracles():
    rng = np.random.default_rng(6)
    for trial in range(200):
        v = int(rng.integers(2, 6))
        tlen = int(rng.integers(2, 7))
        gen = [list(rng.integers(0, v, size=tlen)) for _ in range(int(rng.integers(1, 6)))]
        test = [list(rng.integers(0, v, size=tlen)) for _ in range(int(rng.integers(1, 6)))]
        n = int(rng.integers(1, tlen + 1))
        assert metrics.diversity_n(gen, n) == _oracle_diversity([list(map(int, s)) for s in gen], n)
        assert metrics.fc_n(gen, test, n) == _oracle_fc(
            [list(map(int, s)) for s in gen], [list(map(int, s)) for s in test], n
        )
        got = metrics.corpus_bleu_n(gen, test, n)
        want = sum(_oracle_bleu(list(map(int, s)), [list(map(int, t)) for t in test], n) for s in gen) / len(gen)
        assert got == want, (trial, got, want)
    # worked examples reproduce exactly
    assert metrics.diversity_n([[0, 1, 0], [0, 1, 2]], 2) == 75.0
    assert metrics.fc_n([[0, 1, 0], [0, 1, 2]], [[0, 1, 3]], 2) == 25.0
    assert round(metrics.bleu_n([0, 1, 2, 3], [[0, 1, 4], [2, 3, 5]], 2), 2) == 81.65
    assert round(metrics.bleu_n([0, 0, 0], [[0, 1]], 1), 2) == 33.33
    _report("7 metric oracles", "200 micro-corpora exact; worked examples reproduce")


def _desk_training_smoke(dtype):
    """Train the desk preset in dtype on a known Markov source, then check its samples."""
    t0 = time.time()
    src_rng = np.random.default_rng(7)
    src = corpus.MarkovSource(
        pi=src_rng.dirichlet(np.ones(8)),
        transition=src_rng.dirichlet(np.ones(8) * 0.6, size=8),
    )
    ids = corpus.sample_markov(src, 8, 2000, np.random.default_rng(8))
    cfg = ArnConfig.preset("desk")
    cfg.dtype = dtype
    rngs = training.rng_streams(3)
    model = ArnModel.initialized(cfg, rngs["init"])
    model, trace = training.train(model, ids, TrainConfig(batch_size=32, steps=5000, seed=3))
    assert len(trace) == 5000  # no NaN abort
    assert all(p.data.dtype == np.dtype(dtype) for p in model.params.values())
    gen_rng = np.random.default_rng(99)
    gen = generate_batch(model, gen_rng.standard_normal((3000, cfg.d_latent)), gen_rng)
    tv = corpus.tv_distance(
        corpus.empirical_ngram_distribution(gen, 2), corpus.source_ngram_distribution(src, 2, 8)
    )
    assert tv <= 0.2, tv
    div_gen = metrics.diversity_n(list(gen), 2)
    div_src = metrics.diversity_n(list(ids), 2)
    assert abs(div_gen - div_src) <= 15.0
    elapsed = time.time() - t0
    assert elapsed < 900
    return f"bigram TV {tv:.3f} <= 0.2, Diversity-2 gap {abs(div_gen - div_src):.2f} <= 15, {elapsed:.0f}s"


def test_08_desk_scale_training_smoke():
    _report("8 training smoke", _desk_training_smoke("float64"))


def test_08_float32_twin():
    """ACCEPTANCE 8 with a float32 desk model, at the same bounds."""
    _report("8 training smoke, float32", _desk_training_smoke("float32"))


def test_09_lambda_zero_matches_elbo_only_reference():
    tiny = ArnConfig(seq_len=4, vocab_size=5, d_emb=6, d_hidden=8, d_latent=3)
    corpus_ids = np.random.default_rng(10).integers(0, 5, size=(60, 4))
    seed, steps = 11, 40
    cfg = TrainConfig(batch_size=6, steps=steps, lambda_adv=0.0, seed=seed)

    model = ArnModel.initialized(tiny, training.rng_streams(seed)["init"])
    trained, trace = training.train(model, corpus_ids, cfg)

    # independent ELBO-only path sharing the RNG stream discipline
    ref = ArnModel.initialized(tiny, training.rng_streams(seed)["init"])
    rngs = training.rng_streams(seed)
    state = training.AdamState()
    ref_losses = []
    for _ in range(steps):
        batch = training.sample_batch(corpus_ids, cfg.batch_size, rngs["data"])
        noise = rngs["noise"].standard_normal((cfg.batch_size, tiny.d_latent))
        total, _, _, _ = training.elbo_batch(ref, batch, noise)
        loss = -total.mean()
        loss.backward()
        training.optimizer_step(ref.generator_params(), state, cfg.lr)
        ref_losses.append(loss.item())
    for got, want in zip((r["g_loss"] for r in trace), ref_losses):
        assert abs(got - want) <= 1e-12
    for name, p in ref.generator_params().items():
        assert trained.params[name].data.tobytes() == p.data.tobytes()
    _report("9 ablation linkage", f"{steps} steps match ELBO-only reference to 1e-12")


def test_10_train_determinism(tmp_path):
    rng = np.random.default_rng(12)
    src = corpus.MarkovSource(
        pi=rng.dirichlet(np.ones(8)), transition=rng.dirichlet(np.ones(8), size=8)
    )
    ids = corpus.sample_markov(src, 8, 100, rng)
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("\n".join(" ".join(str(t) for t in row) for row in ids) + "\n")
    blobs = []
    for name in ("a.arn", "b.arn"):
        out = tmp_path / name
        code = cli.main(
            ["train", "--corpus", str(corpus_path), "--steps", "30", "--seed", "4",
             "--out", str(out)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    _report("10 determinism", "two cmd_train runs produce bit-identical checkpoints")
