"""Outputs pinned byte for byte: the Markov sampler, `arn divlab` and `arn generate`.

The pins were recorded before the samplers and the divergence lab's solver
settings were folded into shared helpers and constants, so a change that
moves any of them changes what a seed means and fails here. The two-chunk
generate pins were recorded before generate_batch wrote every step into
arrays reused across steps, so a row that leaks from one step or chunk into
the next fails here too. The divlab
reports are exact float reprs, recorded with NumPy 2.4 on x86-64; a NumPy
build whose log or exp rounds differently may differ in the last digit.
"""

import hashlib

import numpy as np
import pytest

from arn import cli, corpus, training
from arn.networks import ArnConfig, ArnModel

MARKOV_DIGEST = "a0c5a8c5186b53b33a244533985d7ab87d6d74db4413c52e37692dfbc20a516c"

DIVLAB_STDOUT = {
    ("10", "8", "0"): '{"identity_max_gap": 8.881784197001252e-16, "dstar_max_err": 4.907120958463906e-06, '
                      '"nash_tv": 0.0009990048428705801, "trials": 10}\n',
    ("15", "3", "7"): '{"identity_max_gap": 8.881784197001252e-16, "dstar_max_err": 4.972131531832957e-06, '
                      '"nash_tv": 0.0009941895261997569, "trials": 15}\n',
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
