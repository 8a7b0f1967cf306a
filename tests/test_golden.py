"""Outputs pinned byte for byte: the Markov sampler, `arn divlab`, `arn generate`, `arn evaluate`, training.

The pins were recorded before the samplers and the divergence lab's solver
settings were folded into shared helpers and constants, so a change that
moves any of them changes what a seed means and fails here. The two-chunk
generate pins were recorded before generate_batch wrote every step into
arrays reused across steps, so a row that leaks from one step or chunk into
the next fails here too. The evaluate pins were recorded before the n-gram
counts moved from tuple dicts to integer id arrays. The training pins were
recorded before the LSTM kernels, the autodiff ops and Adam were trimmed of
temporaries and wrappers, so any change to the arithmetic of a training
step, in float64 or float32, fails here. The word seed-corpus generate pins
were recorded before checkpoints were mapped instead of read and before the
seed corpus was encoded to its first tokens alone. The divlab
reports are exact float reprs, recorded with NumPy 2.4 on x86-64; a NumPy
build whose log or exp rounds differently may differ in the last digit.
Their nash_tv figures were recorded again when the Nash solve moved from
gradient steps on the logits to mirror-descent steps, which stop at another
iterate within NASH_TOL; the identity and D* figures are the older pins.
The wide training pins (V = 3000, d = 256 in float32; V = 2999, d = 250 in
float64) were recorded before a gradient contribution that meets an
existing gradient was added into it in place; their (V, d) products span
several blocks, where the desk pins fit in one. Blocked float64 sums move
the last bits of the float64 pin, which is why float64 products are added
whole. They train with one BLAS thread, since how OpenBLAS splits a product
of that size over threads moves its last bits.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from arn import cli, corpus, training
from arn.networks import ArnConfig, ArnModel

MARKOV_DIGEST = "a0c5a8c5186b53b33a244533985d7ab87d6d74db4413c52e37692dfbc20a516c"

DIVLAB_STDOUT = {
    ("10", "8", "0"): '{"identity_max_gap": 8.881784197001252e-16, "dstar_max_err": 4.907120958463906e-06, '
                      '"nash_tv": 0.0008885983460245042, "trials": 10}\n',
    ("15", "3", "7"): '{"identity_max_gap": 8.881784197001252e-16, "dstar_max_err": 4.972131531832957e-06, '
                      '"nash_tv": 0.0004641073009646543, "trials": 15}\n',
    ("10", "16", "3"): '{"identity_max_gap": 4.440892098500626e-16, "dstar_max_err": 4.913479133894505e-06, '
                       '"nash_tv": 0.0007084577481696005, "trials": 10}\n',
    ("20", "2", "1"): '{"identity_max_gap": 8.881784197001252e-16, "dstar_max_err": 4.99151162575151e-06, '
                      '"nash_tv": 0.000327154175330413, "trials": 20}\n',
}

GENERATE_DIGESTS = {
    ("float64", "noise", False): "45909d65f85240a598182b9384f32210e5e7875a79e2f46b3fec195b72f802b5",
    ("float64", "decoded-x1", False): "3a89921e74eb6cb2da7f47827a09c97fe0c017879f89ccc0fb5cd7ab6fd529de",
    ("float64", "decoded-x1", True): "5c5a41e0aa398557232e3d6e0433eb4d13af5bc34631ae75366a3b3f1b68d67b",
    ("float32", "noise", False): "45909d65f85240a598182b9384f32210e5e7875a79e2f46b3fec195b72f802b5",
    ("float32", "decoded-x1", False): "3a89921e74eb6cb2da7f47827a09c97fe0c017879f89ccc0fb5cd7ab6fd529de",
    ("float32", "decoded-x1", True): "5c5a41e0aa398557232e3d6e0433eb4d13af5bc34631ae75366a3b3f1b68d67b",
}

# a float32 model with V = 1000; --count 300 samples a full GENERATE_CHUNK of 256 rows, then 44
GENERATE_TWO_CHUNK_DIGESTS = {
    "noise": "51337374ab38b01569f9c3f39617ff6dcd968ed03646e2010b29c006b783a757",
    "decoded-x1": "25dd825ab17fc0bf82bfcc60e133054751a675492dbc63033e17ba3e37df321c",
}

# sha256 of `arn evaluate` stdout on the corpora of evaluate_corpora(kind), per --orders
EVALUATE_DIGESTS = {
    ("words", "2,3"): "953713d01c0fd12746e9e6310645a579d45e8b3d7b6604c5ae5008855d7a1135",
    ("words", "1,2,3,4"): "bea46b58388c21f46dc35d27acb5d9ef9c0158996ba505533489cdb6c67359a7",
    ("ints", "2,3"): "9bf7a78232d2d50f19645886e645863f4381e3bb70c5edd15b8add2ffe85339d",
    ("ints", "1,2,3,4"): "ab8e54808583271946b94b593c1d4cbfed15cd47e44ca5b27cad04162919837b",
    ("wide", "2,3"): "601957b0c7e197ff9b762dfedcb194280e98c39b23fadf45c49cd67630f03c3c",
    ("wide", "1,2,3,4"): "ed9ab4721e8432fa08e4b7cc030121a9688110f237bb0e387d9af93f8ae51d4d",
}


def markov_digest():
    """sha256 of sample_markov over 60 random sources; every third has a state of probability 0."""
    h = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for i in range(60):
        k = int(rng.integers(2, 10))
        pi = rng.dirichlet(np.ones(k))
        transition = rng.dirichlet(np.ones(k), size=k)
        if i % 3 == 0:
            dead = int(rng.integers(k))
            pi[dead] = 0.0
            pi /= pi.sum()
            transition[:, dead] = 0.0
            transition /= transition.sum(axis=1, keepdims=True)
        ids = corpus.sample_markov(corpus.MarkovSource(pi, transition), int(rng.integers(1, 10)),
                                   int(rng.integers(1, 50)), np.random.default_rng(i))
        h.update(ids.tobytes())
    return h.hexdigest()


def test_sample_markov_digest():
    assert markov_digest() == MARKOV_DIGEST


@pytest.mark.parametrize("trials, outcomes, seed", sorted(DIVLAB_STDOUT))
def test_divlab_stdout(capsys, trials, outcomes, seed):
    assert cli.main(["divlab", "--trials", trials, "--outcomes", outcomes, "--seed", seed]) == 0
    assert capsys.readouterr().out == DIVLAB_STDOUT[trials, outcomes, seed]


def generate_stdout(tmp_path, capsys, dtype, mode, seed_corpus, vocab_size=30):
    # weights 25x the initialization scale make every step's law peaked, so
    # each latent and seed token shows in the samples
    model = ArnModel.initialized(ArnConfig(vocab_size=vocab_size, dtype=dtype),
                                 training.rng_streams(4)["init"])
    for p in model.params.values():
        p.data *= 25
    checkpoint = tmp_path / "model.arn"
    training.save_checkpoint(str(checkpoint), model)
    argv = ["generate", "--checkpoint", str(checkpoint), "--mode", mode, "--count", "300", "--seed", "7"]
    if seed_corpus:
        path = tmp_path / "seed.txt"
        path.write_text("3 4 5 6 7 8 9 10\n3 1 2 3 4 5 6 7\n9 9 9 9 9 9 9 9\n")
        argv += ["--seed-corpus", str(path)]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dtype, mode, seed_corpus", sorted(GENERATE_DIGESTS))
def test_generate_stdout(tmp_path, capsys, dtype, mode, seed_corpus):
    out = generate_stdout(tmp_path, capsys, dtype, mode, seed_corpus)
    assert len(out.splitlines()) == 300
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_DIGESTS[dtype, mode, seed_corpus]


@pytest.mark.parametrize("mode", sorted(GENERATE_TWO_CHUNK_DIGESTS))
def test_generate_two_chunks_stdout(tmp_path, capsys, mode):
    assert cli.GENERATE_CHUNK < 300 < 2 * cli.GENERATE_CHUNK
    out = generate_stdout(tmp_path, capsys, "float32", mode, False, vocab_size=1000)
    assert len(out.splitlines()) == 300
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_TWO_CHUNK_DIGESTS[mode]


# sha256 of `arn generate --vocab V --mode decoded-x1 --seed-corpus words.txt` stdout, per dtype
GENERATE_WORD_SEED_DIGESTS = {
    "float32": "7ee6934ab25e3f5c58c8a9dcd4614ccafd99f5c7ad42de48b6365c25acfe51ff",
    "float64": "7ee6934ab25e3f5c58c8a9dcd4614ccafd99f5c7ad42de48b6365c25acfe51ff",
}

SEED_WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "and", "with", "big", "red"]

# blank lines, an out-of-vocabulary first word (read as <UNK>), an upper-case first word,
# a one-word line and a line longer than seq_len
SEED_WORD_LINES = "the cat sat on the mat\n\nzebra dog ran\nThe dog sat on a mat\ndog\n\n" \
    "a big red dog and a cat sat on the mat with the dog and ran\n  \ncat ran\nred dog\n"


def word_seed_generate_stdout(tmp_path, capsys, dtype):
    """Stdout of a word seed-corpus `arn generate` through a vocabulary file."""
    vocab = corpus.Vocabulary([corpus.PAD_TOKEN, corpus.UNK_TOKEN, *SEED_WORDS])
    model = ArnModel.initialized(ArnConfig(vocab_size=len(vocab), dtype=dtype),
                                 training.rng_streams(5)["init"])
    for p in model.params.values():
        p.data *= 25
    checkpoint, vocab_path = tmp_path / "model.arn", tmp_path / "vocab.txt"
    words = tmp_path / "words.txt"
    training.save_checkpoint(str(checkpoint), model)
    vocab.save(str(vocab_path))
    words.write_text(SEED_WORD_LINES, encoding="utf-8")
    assert cli.main(["generate", "--checkpoint", str(checkpoint), "--vocab", str(vocab_path),
                     "--mode", "decoded-x1", "--seed-corpus", str(words),
                     "--count", "300", "--seed", "7"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dtype", sorted(GENERATE_WORD_SEED_DIGESTS))
def test_generate_word_seed_corpus_stdout(tmp_path, capsys, dtype):
    out = word_seed_generate_stdout(tmp_path, capsys, dtype)
    assert len(out.splitlines()) == 300
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_WORD_SEED_DIGESTS[dtype]


def evaluate_corpora(kind):
    """Generated and test token lines of one kind, drawn from a fixed seed.

    "words": 8 words, so n-grams repeat within and across sentences, with
    ragged lengths 1..14, interior <PAD> tokens and padded tails. "ints":
    integer tokens 0..39 of ragged lengths 3..20. "wide": 600 words of a
    Zipf-like law over lengths 5..30, so most long grams are distinct.
    """
    rng = np.random.default_rng({"words": 11, "ints": 12, "wide": 13}[kind])

    def line():
        if kind == "words":
            words = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran"]
            toks = [words[i] for i in rng.integers(0, len(words), size=int(rng.integers(1, 15)))]
            toks = [corpus.PAD_TOKEN if rng.random() < 0.08 else t for t in toks]
            tail = int(rng.integers(1, 5)) if rng.random() < 0.25 else 0
            return toks + [corpus.PAD_TOKEN] * tail
        if kind == "ints":
            return [str(t) for t in rng.integers(0, 40, size=int(rng.integers(3, 21)))]
        ranks = np.minimum(rng.zipf(1.3, size=int(rng.integers(5, 31))), 600)
        return [f"w{r}" for r in ranks]

    return ([line() for _ in range(300)], [line() for _ in range(250)])


@pytest.mark.parametrize("kind, orders", sorted(EVALUATE_DIGESTS))
def test_evaluate_stdout(tmp_path, capsys, kind, orders):
    paths = []
    for name, lines in zip(("gen.txt", "test.txt"), evaluate_corpora(kind)):
        (tmp_path / name).write_text("".join(" ".join(toks) + "\n" for toks in lines), encoding="utf-8")
        paths.append(str(tmp_path / name))
    assert cli.main(["evaluate", "--generated", paths[0], "--test", paths[1], "--orders", orders]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EVALUATE_DIGESTS[kind, orders], out


# sha256 of (trace records, final parameter bytes) after TRAIN_STEPS desk steps, per (dtype, lambda_adv)
TRAIN_STEPS = 40
TRAIN_DIGESTS = {
    ("float32", 0.0): ("8bd081278b9ca40cbb2953122cee54a6aa0f000ca6e6fbf94c653d1f9ac87550",
                       "60c047321f6cf80143e19d8f236fcc2f67e113043cffb0beae0d3e4511f2f811"),
    ("float32", 1.0): ("ebad5cbf60b320a7adcc278c17a2c8c76edb8c82b1284e4217d33c82b87e2464",
                       "cd237010287df315c51252584425a97d9a6acf3509bfad49ee806433f8068445"),
    ("float64", 0.0): ("14b022eea16dd4152cc488f723fc9f4409470f017d4811fd63d525072dccd7d3",
                       "9d2054a3188fa899a2896982615baad5be63227fd446f045abf5a97475f5f1d0"),
    ("float64", 1.0): ("bab16d6ec517ae49e07760e2f3bfa1334d6afbdb4ce168158e6e0dc40bb0cb34",
                       "005e8598097b50a69b4f793c25105cfc814303ddffc2d877af92818234e42977"),
}


def training_digests(dtype, lambda_adv):
    """Digests of a seeded desk training: its JSON trace lines, then its parameters in name order."""
    cfg = dataclasses.replace(ArnConfig.preset("desk"), dtype=dtype)
    rng = np.random.default_rng(21)
    source = corpus.MarkovSource(rng.dirichlet(np.ones(cfg.vocab_size)),
                                 rng.dirichlet(np.full(cfg.vocab_size, 0.5), size=cfg.vocab_size))
    ids = corpus.sample_markov(source, cfg.seq_len, 500, rng)
    model = ArnModel.initialized(cfg, training.rng_streams(3)["init"])
    _, trace = training.train(model, ids, training.TrainConfig(
        batch_size=32, steps=TRAIN_STEPS, lambda_adv=lambda_adv, seed=3))
    assert len(trace) == TRAIN_STEPS
    params = hashlib.sha256()
    for name, p in sorted(model.params.items()):
        assert p.data.dtype == cfg.dtype
        params.update(name.encode() + p.data.tobytes())
    records = "".join(json.dumps(record) + "\n" for record in trace)
    return hashlib.sha256(records.encode()).hexdigest(), params.hexdigest()


@pytest.mark.parametrize("dtype, lambda_adv", sorted(TRAIN_DIGESTS))
def test_training_digests(dtype, lambda_adv):
    assert training_digests(dtype, lambda_adv) == TRAIN_DIGESTS[dtype, lambda_adv]


# (trace digest, parameter digest) of 3 steps at lambda_adv 1 with one BLAS thread, by (dtype, V, d)
WIDE_TRAIN_DIGESTS = {
    ("float32", 3000, 256): ("99d36779e16a0e06c840d821692983040accdec1371e3cc770b207c99d8785e8",
                             "ce6751bb1d5840bf3e155ad4a3dc7fbceaa01997ef16d6addee68d2d99e1ff46"),
    ("float64", 2999, 250): ("82e878819069171813cb6d777c1d5b02033e3cac9dfb65560c6982063139f8a5",
                             "f3b7d955e2863da1017a3ab1ce608b867af85ff579028f438dea8a78645f63ad"),
}


@pytest.mark.parametrize("dtype, vocab, dim", sorted(WIDE_TRAIN_DIGESTS))
def test_wide_training_digests(dtype, vocab, dim):
    script = textwrap.dedent(f"""
        import hashlib, json
        import numpy as np
        from arn import training
        from arn.networks import ArnConfig, ArnModel
        cfg = ArnConfig(seq_len=8, vocab_size={vocab}, d_emb={dim}, d_hidden={dim}, d_latent=16, dtype="{dtype}")
        rng = np.random.default_rng(24)
        ids = np.minimum(rng.zipf(1.3, size=(300, cfg.seq_len)), cfg.vocab_size) - 1
        model = ArnModel.initialized(cfg, training.rng_streams(5)["init"])
        _, trace = training.train(model, ids, training.TrainConfig(batch_size=8, steps=3, lambda_adv=1.0, seed=5))
        params = hashlib.sha256()
        for name, p in sorted(model.params.items()):
            params.update(name.encode() + p.data.tobytes())
        records = "".join(json.dumps(record) + "\\n" for record in trace)
        print(hashlib.sha256(records.encode()).hexdigest(), params.hexdigest())
    """)
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == WIDE_TRAIN_DIGESTS[dtype, vocab, dim]
