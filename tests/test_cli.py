import argparse
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arn import cli, corpus, divlab, networks, training
from arn.errors import ArnError, ConfigError, ConvergenceError, NumericsError, TrainingAborted
from arn.networks import ArnConfig, ArnModel
from arn.tensor import Tensor


@pytest.fixture
def markov_corpus_file(tmp_path):
    rng = np.random.default_rng(0)
    src = corpus.MarkovSource(
        pi=rng.dirichlet(np.ones(8)), transition=rng.dirichlet(np.ones(8), size=8)
    )
    ids = corpus.sample_markov(src, 8, 200, rng)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(" ".join(str(t) for t in row) for row in ids) + "\n")
    return str(path)


def run(argv):
    return cli.main(argv)


class TestTrain:
    def test_zero_steps_checkpoint_is_initialization(self, tmp_path, markov_corpus_file):
        out = tmp_path / "model.arn"
        code = run(["train", "--corpus", markov_corpus_file, "--steps", "0",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        loaded = training.load_checkpoint(str(out))
        fresh = ArnModel.initialized(ArnConfig.preset("desk"), training.rng_streams(3)["init"])
        for name, p in fresh.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda-adv", "nan", "lambda_adv"), ("--lambda-adv", "inf", "lambda_adv"),
        ("--lr", "-1", "lr"), ("--lr", "nan", "lr"), ("--steps", "-3", "steps"),
    ])
    def test_out_of_range_setting_is_a_usage_error(self, tmp_path, capsys, flag, value, field):
        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_text("0 1 2 3\n1 2 3 4\n2 3 4 5\n")
        out = tmp_path / "m.arn"
        code = run(["train", "--corpus", str(corpus_file), "--steps", "2", "--batch-size", "2",
                    flag, value, "--out", str(out)])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/m.arn", "."])
    def test_unwritable_out_exits_before_training(self, tmp_path, monkeypatch, capsys,
                                                  markov_corpus_file, out):
        def no_training(*args, **kwargs):
            raise AssertionError("training.train entered")

        monkeypatch.setattr(training, "train", no_training)
        out = str(tmp_path / out)
        assert run(["train", "--corpus", markov_corpus_file, "--steps", "1000", "--out", out]) == 2
        assert out in capsys.readouterr().err

    def test_missing_corpus(self, tmp_path):
        code = run(["train", "--corpus", str(tmp_path / "nope.txt"), "--steps", "1",
                    "--out", str(tmp_path / "m.arn")])
        assert code == 2

    def test_config_file_merging(self, tmp_path, markov_corpus_file):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"steps": 0, "seed": 9}))
        out = tmp_path / "m.arn"
        code = run(["train", "--corpus", markov_corpus_file, "--config", str(cfg),
                    "--out", str(out)])
        assert code == 0 and out.exists()

    def test_explicit_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 3, "outcomes": 4}))
        assert run(["divlab", "--trials", "7", "--seed", "1", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 7

    @pytest.mark.parametrize("argv, file_cfg", [
        (["train", "--corpus", "unused.txt", "--out", "unused.arn"], {"steps": 1.5}),
        (["train", "--corpus", "unused.txt", "--out", "unused.arn"], {"steps": None}),
        (["generate", "--checkpoint", "unused.arn"], {"count": 2.5}),
    ])
    def test_config_values_go_through_flag_types(self, tmp_path, argv, file_cfg):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(file_cfg))
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_bad_config_file(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        assert run(["divlab", "--trials", "2", "--config", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err

    def test_non_utf8_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"trials": 2, "note": "\xff"}')
        assert run(["divlab", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("content", [b"<PAD>\n<UNK>\n\xff\n", b"", b"a\nb\nc\n", b"<PAD>\n",
                                         b"<PAD>\n<UNK>\na\na\n", b"<PAD>\n<UNK>\nCat\nsat on\n"])
    def test_bad_vocabulary_file(self, tmp_path, markov_corpus_file, capsys, content):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(content)
        assert run(["train", "--corpus", markov_corpus_file, "--vocab", str(vocab),
                    "--steps", "1", "--out", str(tmp_path / "m.arn")]) == 2
        assert str(vocab) in capsys.readouterr().err

    def test_non_utf8_word_corpus_names_the_file(self, tmp_path, capsys):
        vocab, path = tmp_path / "vocab.txt", tmp_path / "corpus.txt"
        vocab.write_text("<PAD>\n<UNK>\ncafe\n")
        path.write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
        assert run(["train", "--corpus", str(path), "--vocab", str(vocab), "--steps", "1",
                    "--out", str(tmp_path / "m.arn")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0 1 2\n3 4\n", "0 1 a\n", "0 1 8\n", "0 -1 2\n",
                                      "99999999999999999999 1\n", "\n\n"])
    def test_bad_raw_id_corpus(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        assert run(["train", "--corpus", str(path), "--steps", "1",
                    "--out", str(tmp_path / "m.arn")]) == 2

    def test_unallocatable_batch_is_a_usage_error(self, tmp_path, capsys, markov_corpus_file):
        # 10^15 rows of int64 ids alone are 8 PB, beyond any address space: the allocation fails at once
        out = tmp_path / "m.arn"
        code = run(["train", "--corpus", markov_corpus_file, "--steps", "1",
                    "--batch-size", str(10**15), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestGenerate:
    @pytest.fixture
    def checkpoint(self, tmp_path, markov_corpus_file):
        out = tmp_path / "model.arn"
        run(["train", "--corpus", markov_corpus_file, "--steps", "5", "--out", str(out)])
        return str(out)

    def test_count_zero(self, checkpoint, tmp_path, capsys):
        assert run(["generate", "--checkpoint", checkpoint, "--count", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_unallocatable_count_is_a_usage_error(self, checkpoint, capsys):
        assert run(["generate", "--checkpoint", checkpoint, "--count", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_negative_count(self, checkpoint):
        assert run(["generate", "--checkpoint", checkpoint, "--count", "-1"]) == 2

    def test_truncated_checkpoint(self, checkpoint, tmp_path):
        path = tmp_path / "cut.arn"
        with open(checkpoint, "rb") as fh:
            path.write_bytes(fh.read()[:-3])
        assert run(["generate", "--checkpoint", str(path)]) == 2

    def test_checkpoint_missing_a_tensor(self, checkpoint, tmp_path):
        model = training.load_checkpoint(checkpoint)
        del model.params["gen.wh"]
        path = tmp_path / "partial.arn"
        training.save_checkpoint(str(path), model)
        assert run(["generate", "--checkpoint", str(path)]) == 2

    def test_mixed_dtype_checkpoint(self, checkpoint, tmp_path, capsys):
        model = training.load_checkpoint(checkpoint)
        model.params["gen.b"] = Tensor(model.params["gen.b"].data.astype(np.float32))
        path = tmp_path / "mixed.arn"
        training.save_checkpoint(str(path), model)
        assert run(["generate", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "mix dtypes" in err

    def test_float32_checkpoint(self, tmp_path, markov_corpus_file):
        model = ArnModel.initialized(dataclasses.replace(ArnConfig.preset("desk"), dtype="float32"),
                                     training.rng_streams(2)["init"])
        path = tmp_path / "f32.arn"
        training.save_checkpoint(str(path), model)
        out = tmp_path / "gen.txt"
        assert run(["generate", "--checkpoint", str(path), "--mode", "decoded-x1", "--count", "4",
                    "--seed-corpus", markov_corpus_file, "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().splitlines()]
        assert len(rows) == 4 and all(len(r) == 8 and all(0 <= int(t) < 8 for t in r) for r in rows)

    def test_fixed_seed_identical(self, checkpoint, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            run(["generate", "--checkpoint", checkpoint, "--count", "5",
                 "--seed", "7", "--out", str(path)])
            outs.append(path.read_text())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("count", [6, cli.GENERATE_CHUNK + 6])
    def test_batch_matches_generate_batch_on_same_draws(self, checkpoint, tmp_path, count):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            run(["generate", "--checkpoint", checkpoint, "--mode", "decoded-x1", "--count", str(count),
                 "--seed", "4", "--out", str(path)])
            outs.append(path.read_text())
        assert outs[0] == outs[1]
        # all seed tokens, then all latents, then the samples chunk by chunk
        model = training.load_checkpoint(checkpoint)
        rng = training.rng_streams(4)["noise"]
        vocab, dz = model.config.vocab_size, model.config.d_latent
        seeds = rng.choice(vocab, size=count, p=np.full(vocab, 1.0 / vocab))
        q = networks.encode_first_token(model, seeds)
        z = q.mu.data + np.exp(0.5 * q.log_var.data) * rng.standard_normal((count, dz))
        ids = np.concatenate([networks.generate_batch(model, z[k:k + cli.GENERATE_CHUNK], rng)
                              for k in range(0, count, cli.GENERATE_CHUNK)])
        assert outs[0] == "".join(" ".join(map(str, row)) + "\n" for row in ids)

    def test_tokens_within_vocabulary(self, checkpoint, tmp_path):
        path = tmp_path / "gen.txt"
        run(["generate", "--checkpoint", checkpoint, "--count", "8", "--out", str(path)])
        for line in path.read_text().splitlines():
            toks = line.split()
            assert len(toks) == 8
            assert all(0 <= int(t) < 8 for t in toks)

    def test_decoded_x1_mode(self, checkpoint, tmp_path, markov_corpus_file):
        path = tmp_path / "gen.txt"
        code = run(["generate", "--checkpoint", checkpoint, "--mode", "decoded-x1",
                    "--count", "3", "--seed-corpus", markov_corpus_file, "--out", str(path)])
        assert code == 0 and len(path.read_text().splitlines()) == 3

    @pytest.mark.parametrize("exists", [True, False])
    def test_seed_corpus_needs_decoded_x1_mode(self, checkpoint, tmp_path, capsys, markov_corpus_file,
                                               exists):
        seed_corpus = markov_corpus_file if exists else str(tmp_path / "nope.txt")
        assert run(["generate", "--checkpoint", checkpoint, "--seed-corpus", seed_corpus]) == 2
        assert "--seed-corpus needs --mode decoded-x1" in capsys.readouterr().err

    def test_vocabulary_must_match_checkpoint(self, checkpoint, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("<PAD>\n<UNK>\nx\n")
        assert run(["generate", "--checkpoint", checkpoint, "--vocab", str(vocab)]) == 2

    def test_non_utf8_vocabulary(self, checkpoint, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(b"<PAD>\n<UNK>\n\xff\n")
        assert run(["generate", "--checkpoint", checkpoint, "--vocab", str(vocab)]) == 2

    def test_unknown_mode(self, checkpoint):
        with pytest.raises(SystemExit):
            run(["generate", "--checkpoint", checkpoint, "--mode", "banana"])


class TestEvaluate:
    def test_identical_corpora(self, tmp_path, capsys):
        text = "a b c d\nb c d e\n"
        gen = tmp_path / "gen.txt"
        test = tmp_path / "test.txt"
        gen.write_text(text)
        test.write_text(text)
        assert run(["evaluate", "--generated", str(gen), "--test", str(test)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"]["2"] == 100.0
        assert report["fc"]["2"] == report["diversity"]["2"]

    def test_golden_micro_corpus(self, tmp_path, capsys):
        gen = tmp_path / "gen.txt"
        test = tmp_path / "test.txt"
        gen.write_text("a b a\na b c\n")
        test.write_text("a b d\n")
        assert run(["evaluate", "--generated", str(gen), "--test", str(test),
                    "--orders", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diversity"]["2"] == 75.0
        assert report["fc"]["2"] == 25.0

    def test_pad_ngrams_are_excluded(self, tmp_path, capsys):
        gen = tmp_path / "gen.txt"
        test = tmp_path / "test.txt"
        gen.write_text(f"a {corpus.PAD_TOKEN} {corpus.PAD_TOKEN}\nb a {corpus.PAD_TOKEN}\n")
        test.write_text("a b a\nb a b\n")
        assert run(["evaluate", "--generated", str(gen), "--test", str(test),
                    "--orders", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diversity"]["2"] == 100.0
        assert report["fc"]["2"] == 100.0
        assert report["bleu"]["2"] == 50.0

    def test_non_utf8_input(self, tmp_path):
        gen = tmp_path / "gen.txt"
        test = tmp_path / "test.txt"
        gen.write_bytes(b"a \xff b\n")
        test.write_text("a b\n")
        assert run(["evaluate", "--generated", str(gen), "--test", str(test)]) == 2

    def test_empty_generated(self, tmp_path):
        gen = tmp_path / "gen.txt"
        test = tmp_path / "test.txt"
        gen.write_text("")
        test.write_text("a b\n")
        assert run(["evaluate", "--generated", str(gen), "--test", str(test)]) == 2

    @pytest.mark.parametrize("orders, stdout", [
        ("2,3", '{"bleu": {"2": 64.56, "3": 43.33}, "fc": {"2": 47.37, "3": 38.46}, '
                '"diversity": {"2": 63.16, "3": 84.62}, "samples": 6}\n'),
        ("4,1,2,2", '{"bleu": {"1": 75.97, "2": 64.56, "4": 15.92}, "fc": {"1": 30.77, "2": 47.37, '
                    '"4": 37.5}, "diversity": {"1": 30.77, "2": 63.16, "4": 100.0}, "samples": 6}\n'),
    ])
    def test_golden_stdout(self, tmp_path, capsys, orders, stdout):
        gen = tmp_path / "gen.txt"
        test = tmp_path / "test.txt"
        gen.write_text("the cat sat on the mat\nthe cat <PAD> on a mat\na dog sat\ndog\n"
                       "the the the cat\non the mat the cat sat down\n")
        test.write_text("the cat sat on a mat\na cat sat on the mat\nthe dog sat down\nthe mat\n")
        assert run(["evaluate", "--generated", str(gen), "--test", str(test), "--orders", orders]) == 0
        assert capsys.readouterr().out == stdout

    def test_huge_order_exits_fast(self, tmp_path):
        gen = tmp_path / "gen.txt"
        gen.write_text("a b c\nb c a\n")
        proc = subprocess.run(
            [sys.executable, "-m", "arn.cli", "evaluate", "--generated", str(gen), "--test", str(gen),
             "--orders", "1000000"],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
        assert proc.returncode == 2
        assert "no 1000000-grams" in proc.stderr

    @pytest.mark.parametrize("orders", ["x", "2,,3", "0", "-1"])
    def test_bad_orders(self, tmp_path, orders):
        gen = tmp_path / "gen.txt"
        gen.write_text("a b c\n")
        assert run(["evaluate", "--generated", str(gen), "--test", str(gen), "--orders", orders]) == 2


class TestGradcheck:
    def test_paper_preset_audits_a_float64_model(self, monkeypatch):
        class Stop(Exception):
            pass

        dtypes = []

        def first_probe(f, x, eps=1e-5):
            dtypes.append(x.data.dtype)
            raise Stop  # the paper-size audit itself would take hours

        monkeypatch.setattr(cli, "grad_check", first_probe)
        with pytest.raises(Stop):
            run(["gradcheck", "--preset", "paper"])
        assert dtypes == [np.float64]

    def test_one_probe_over_the_threshold_exits_3(self, monkeypatch, capsys):
        errors = iter([2e-4])
        monkeypatch.setattr(cli, "grad_check", lambda f, x, eps=1e-5: next(errors, 0.0))
        assert run(["gradcheck"]) == 3
        assert json.loads(capsys.readouterr().out) == {"elbo": 2e-4, "discriminator": 0.0, "generator": 0.0}


class TestDivlab:
    def test_small_run_passes(self, capsys):
        assert run(["divlab", "--trials", "20", "--outcomes", "2", "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"identity_max_gap", "dstar_max_err", "nash_tv", "trials"}

    def test_fixed_seed_identical_report(self, capsys):
        run(["divlab", "--trials", "10", "--outcomes", "4", "--seed", "5"])
        first = capsys.readouterr().out
        run(["divlab", "--trials", "10", "--outcomes", "4", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_bad_outcomes(self, capsys):
        for argv, message in ((["--outcomes", "99"], "--outcomes must lie in 2..16, got 99"),
                              (["--outcomes", "1"], "--outcomes must lie in 2..16, got 1"),
                              (["--trials", "0"], "--trials must be >= 1, got 0")):
            assert run(["divlab", *argv]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            # a range error, as for --count, --orders and TrainConfig
            args = cli.build_parser().parse_args(["divlab", *argv])
            with pytest.raises(ConfigError, match=f"^{message}$"):
                cli.cmd_divlab(args)

    def test_unconverged_nash_solve_is_a_numeric_abort(self, monkeypatch, capsys):
        def no_convergence(p_d, init):
            raise ConvergenceError("no convergence to TV <= 0.001 in 1 iterations (last TV 1.000e-01)")

        monkeypatch.setattr(divlab, "solve_nash", no_convergence)
        assert run(["divlab", "--trials", "5", "--outcomes", "4"]) == 3
        assert "numeric abort: no convergence" in capsys.readouterr().err


def _options():
    """(subcommand, option action) for every option of build_parser() but --help."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(cmd, action) for cmd, p in sub.choices.items() for action in p._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def _valid_value(action):
    """A value the flag accepts that is not its default."""
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    return {int: "3", float: "0.5"}.get(action.type, "x.txt")


# each option under its dest and, where that holds a "_", its flag spelling
CONFIG_CASES = [pytest.param(cmd, action, key, id=f"{cmd}-{key}") for cmd, action in _options()
                for key in sorted({action.dest, action.dest.replace("_", "-")})]


@pytest.fixture
def zero_step_checkpoint(tmp_path, markov_corpus_file):
    out = tmp_path / "init.arn"
    assert run(["train", "--corpus", markov_corpus_file, "--steps", "0", "--out", str(out)]) == 0
    return str(out)


class TestConfigFlagParity:
    """A config key is read as the flag it names: the same name, type and choices checks."""

    @pytest.mark.parametrize("cmd, action, key", CONFIG_CASES)
    def test_config_key_parses_as_its_flag(self, tmp_path, monkeypatch, cmd, action, key):
        seen = []
        monkeypatch.setattr(cli, f"cmd_{cmd}", lambda args: seen.append(vars(args)) or 0)
        cfg = tmp_path / "run.json"
        # the required flags, given explicitly as main's first parse needs them; they win in both runs
        rest = [tok for cmd2, a in _options() if cmd2 == cmd and a.required
                for tok in (a.option_strings[-1], f"given-{a.dest}")]
        value = _valid_value(action)
        for argv, file_cfg in (([cmd, *rest], {key: value}),
                               ([cmd, action.option_strings[-1], value, *rest], {})):
            cfg.write_text(json.dumps(file_cfg))
            assert run(argv + ["--config", str(cfg)]) == 0
        via_config, via_flag = seen
        assert via_config == via_flag
        if action.dest != "config" and not action.required:
            assert via_config[action.dest] != action.default

    @pytest.mark.parametrize("argv, file_cfg, named", [
        (["generate", "--checkpoint", "{ckpt}"], {"mode": "bogus"}, "bogus"),
        (["divlab", "--trials", "2"], {"trails": 3}, "trails"),
        (["train", "--corpus", "{corpus}", "--steps", "0", "--out", "{out}"], {"lamda_adv": 0}, "lamda"),
        (["train", "--corpus", "{corpus}", "--steps", "0", "--out", "{out}"], {"seed": -1}, "seed"),
        (["generate", "--checkpoint", "{ckpt}"], {"seed": -1}, "seed"),
        (["gradcheck"], {"seed": -1}, "seed"),
        (["divlab", "--trials", "2"], {"seed": -1}, "seed"),
    ], ids=["bad-choice", "misspelled-key", "misspelled-dest", "train-seed", "generate-seed",
            "gradcheck-seed", "divlab-seed"])
    def test_bad_config_key_or_value_exits_2(self, tmp_path, capsys, markov_corpus_file,
                                             zero_step_checkpoint, argv, file_cfg, named):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(file_cfg))
        paths = {"ckpt": zero_step_checkpoint, "corpus": markov_corpus_file, "out": str(tmp_path / "m.arn")}
        capsys.readouterr()  # the fixture's training line
        try:
            code = run([a.format(**paths) for a in argv] + ["--config", str(cfg)])
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        assert code == 2
        err = capsys.readouterr()
        assert named in err.err and err.out == ""

    def test_flag_spelled_key_trains_maximum_likelihood(self, tmp_path, markov_corpus_file):
        cfg, trace = tmp_path / "run.json", tmp_path / "trace.jsonl"
        cfg.write_text(json.dumps({"lambda-adv": 0}))
        assert run(["train", "--corpus", markov_corpus_file, "--steps", "3", "--batch-size", "4",
                    "--out", str(tmp_path / "m.arn"), "--trace", str(trace), "--config", str(cfg)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == 3 and all(r["d_loss"] == 0.0 for r in records)


def test_usage_errors_exit_2_without_a_traceback(tmp_path, markov_corpus_file, zero_step_checkpoint):
    """What the console shows: exit 2 and a message, never a traceback."""
    bogus_mode, unknown_key = tmp_path / "mode.json", tmp_path / "key.json"
    bogus_mode.write_text(json.dumps({"mode": "bogus"}))
    unknown_key.write_text(json.dumps({"lamda_adv": 0}))
    train = ["train", "--corpus", markov_corpus_file, "--steps", "0", "--out", str(tmp_path / "m.arn")]
    generate = ["generate", "--checkpoint", zero_step_checkpoint]
    for argv, named in ((train + ["--seed", "-1"], "seed"),
                        (generate + ["--seed", "-1"], "seed"),
                        (["gradcheck", "--seed", "-1"], "seed"),
                        (["divlab", "--trials", "2", "--seed", "-1"], "seed"),
                        (generate + ["--config", str(bogus_mode)], "bogus"),
                        (train + ["--config", str(unknown_key)], "lamda-adv"),
                        # sizes past NumPy's byte limit, which NumPy itself rejects with ValueError
                        (train + ["--batch-size", str(10**20)], "--batch-size"),
                        (train + ["--batch-size", str(2**62)], "--batch-size"),
                        (generate + ["--count", str(10**20)], "--count"),
                        (generate + ["--count", str(2**62)], "--count"),
                        # a size within the limit that no memory holds
                        (generate + ["--count", str(2**56)], "Unable to allocate")):
        proc = subprocess.run(
            [sys.executable, "-m", "arn.cli", *argv], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr and named in proc.stderr, (argv, proc.stderr)
        assert not (tmp_path / "m.arn").exists()


SUBCOMMAND_ERRORS = [
    (OSError("disk full"), 2, "error: "),
    (MemoryError("Unable to allocate 8.00 EiB"), 2, "error: "),
    (ConfigError("--count must be >= 0, got -1"), 2, "error: "),
    (NumericsError("non-finite values in gradient check"), 3, "numeric abort: "),
    (ConvergenceError("no convergence to TV <= 0.001 in 1 iterations"), 3, "numeric abort: "),
    (TrainingAborted("non-finite loss at step 3"), 3, "numeric abort: "),
]


@pytest.mark.parametrize("exc, code, prefix", SUBCOMMAND_ERRORS,
                         ids=[type(exc).__name__ for exc, *_ in SUBCOMMAND_ERRORS])
def test_subcommand_error_exits_with_its_code(monkeypatch, capsys, exc, code, prefix):
    """A numeric abort exits 3 although its base class ArnError is a usage error."""
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_divlab", fail)
    assert run(["divlab"]) == code
    assert capsys.readouterr() == ("", f"{prefix}{exc}\n")


# byte pieces that make raw-id corpora of every kind: ids in and out of range,
# words, non-ASCII digits and whitespace, bad UTF-8 and ids past int64
RAW_ID_PIECES = [b"0", b"1", b"7", b"8", b"-1", b"x", b" ", b"\n", b"\r", b"\t", b"\xff",
                 "\u0663".encode(), "\u00a0".encode(), b"99999999999999999999"]


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(st.binary(max_size=64),
                     st.lists(st.sampled_from(RAW_ID_PIECES), max_size=30).map(b"".join)))
def test_raw_id_reader_loads_or_raises_arn_error(tmp_path, raw):
    """Arbitrary bytes are a valid raw-id corpus or raise an ArnError subclass."""
    path = tmp_path / "corpus.txt"
    path.write_bytes(raw)
    try:
        ids = cli._read_raw_ids(str(path), 8)
    except ArnError:
        return
    assert ids.dtype == np.int64 and ids.ndim == 2 and ids.size > 0
    assert ids.min() >= 0 and ids.max() < 8
