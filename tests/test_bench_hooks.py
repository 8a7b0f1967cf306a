"""The benchmark still runs against the program.

perfbench/tracer.py wraps functions of the arn modules by name for the
traced benchmark run (--trace 1), and perfbench/run.py reads names of the
program on every run. A rename in the program would break those runs only;
these tests make it fail here too.
"""

import gc
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import arn
import arn.cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
OWNERS = (arn.tensor, arn.tensor.Tensor, arn.kernels, arn.networks, arn.training, arn.corpus,
          arn.corpus.Vocabulary, arn.metrics, arn.divlab, arn.cli, arn.distributions)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_install_run_uninstall(tmp_path):
    corpus = tmp_path / "corpus.txt"
    ids = np.random.default_rng(0).integers(0, 8, size=(20, 8))
    corpus.write_text("".join(" ".join(map(str, row)) + "\n" for row in ids))
    before = [dict(vars(owner)) for owner in OWNERS]

    rec = load_tracer().SpanRecorder()
    rec.install(arn)
    try:
        assert arn.cli.main(["train", "--corpus", str(corpus), "--steps", "2", "--batch-size", "4",
                             "--out", str(tmp_path / "m.arn")]) == 0
        assert arn.cli.main(["generate", "--checkpoint", str(tmp_path / "m.arn"), "--count", "2",
                             "--out", str(tmp_path / "gen.txt")]) == 0
        assert arn.cli.main(["evaluate", "--generated", str(tmp_path / "gen.txt"), "--test", str(corpus),
                             "--orders", "2,3"]) == 0
        # evaluate scores every order in one n-gram pass, through none of the one-order metrics
        assert not [name for name in rec.self_times() if name.startswith("metrics.")]
        gen = [[0, 1, 2], [1, 2, 3]]
        arn.metrics.corpus_bleu_n(gen, gen, 2)
        arn.metrics.diversity_n(gen, 2)
        arn.metrics.fc_n(gen, gen, 2)
    finally:
        rec.uninstall()

    spans = rec.self_times()
    for name in ("cli.main", "training.discriminator_loss", "training.generator_loss",
                 "networks.discriminator_score_batch", "networks.generate_relaxed_batch",
                 "networks.sequence_log_likelihood_batch",
                 "networks.generate_batch", "kernels.lstm_cell_forward", "kernels.lstm_cell_backward",
                 "tensor.backward.d", "tensor.backward.g", "training.optimizer_step.d"):
        assert spans[name][1] > 0, name
    # one generator pass per adversarial step makes D's fakes and G's, with a graph
    assert spans["networks.generate_relaxed_batch"][1] == 2
    assert "networks.generate_relaxed_batch.nograd" not in spans
    for name in ("metrics.corpus_bleu_n", "metrics.diversity_n", "metrics.fc_n"):
        assert spans[name][1] == 1, name  # the tracer's patch points still fire
    assert rec.counts["tensor.matmul"] > 0 and rec.counts["tensor.lstm_cell"] > 0
    for owner, attrs in zip(OWNERS, before):
        after = vars(owner)
        assert all(after[k] is v for k, v in attrs.items()), owner
    assert rec._on_gc not in gc.callbacks


def test_benchmark_selftest_exits_0():
    # every workload once untraced and once traced, at smoke size
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
