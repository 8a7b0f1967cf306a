"""The benchmark's workloads, their generated inputs and correctness gates.

Every workload is a closed loop driven by one client: each call into the
program waits for the previous one. The amount of work is fixed by the run
length alone (never by how fast the machine is), so two commits measured
with the same ``--seconds`` do the same work. Inputs come from the
workload seed through the benchmark's own generators, never through the
program's samplers.

Each workload reports the same end-to-end shape: the median latency of a
primary operation (``op``) and of a secondary one (``op2``), and the median
set-up time. ``named`` gives these and related figures under their
workload-specific names (``adv_step_ms``, ...).
"""

import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from arn import cli, tensor, training
from arn.networks import ArnConfig, ArnModel
from tracer import HARNESS

GRAD_TOL = 1e-4  # the gradient audit's gate (cli.cmd_gradcheck)
DIVLAB_BOUNDS = {"identity_max_gap": 1e-10, "dstar_max_err": 1e-4, "nash_tv": 1e-3}

# Nominal costs on the reference machine (2 cores, Python 3.11, NumPy 2.4),
# used only to turn the run length into a fixed amount of work.
DESK_ADV_STEP_S = 0.023
DESK_MLE_STEP_S = 0.0035
PAPER_STEP_S = 4.0
PAPER_SEQ_S = 0.05
EVALUATE_CALL_S = 0.7
GRADCHECK_CALL_S = 0.9
DIVLAB_CALL_S = 0.1


class SpeedProbe:
    """Machine-speed reference: a fixed mix of interpreted Python and small NumPy calls.

    Small shared machines change speed by up to 1.5x within seconds, which
    would swamp any bound on an operation's time. The probe's fixed work is
    timed between operations (at most every INTERVAL_S; the best of three
    back-to-back runs, so a cold cache after a large operation does not
    count), and each operation is reported at reference speed: its wall time
    times REF_S over the median probe time within WINDOW_S of it. A slower
    program still reads slower; a slower machine does not.

    The probe tracks interpreter-bound work; a workload lists in raw_kinds
    the operations whose time it was measured not to track.
    """

    REF_S = 0.001  # probe time at the reference speed
    INTERVAL_S = 0.2
    WINDOW_S = 0.3

    def __init__(self):
        self.rec = None
        self.times = []  # probe midpoints
        self.durations = []
        self._matrix = np.random.default_rng(0).standard_normal((32, 32))

    def _work(self):
        total = 0
        for i in range(6000):
            total += i * i
        x = self._matrix
        for _ in range(60):
            x = np.tanh(x @ self._matrix * 0.01)

    def measure(self):
        span = self.rec.enter("bench.probe") if self.rec is not None else None
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            t1 = time.perf_counter()
            if t1 - t0 < best:
                best, mid = t1 - t0, (t0 + t1) / 2
        if span is not None:
            self.rec.exit(span)
        self.times.append(mid)
        self.durations.append(best)

    def maybe(self):
        if not self.times or time.perf_counter() - self.times[-1] > self.INTERVAL_S:
            self.measure()

    def scale(self, start, end):
        """REF_S over the median probe time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        if lo == hi:  # no probe close by: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return self.REF_S / statistics.median(self.durations[lo:hi])


class Meter:
    """Per-operation intervals by kind, the pass/fail tally, and the speed probe."""

    def __init__(self, probe, rec=None, raw_kinds=()):
        self.probe = probe
        self.rec = rec
        self.raw_kinds = raw_kinds  # kinds reported at wall time, not reference speed
        self.intervals = defaultdict(list)  # kind -> [(start, end)] per operation
        self.units = Counter()  # kind -> work units run (steps, sequences, evaluations)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def kind(self, kind):
        """Attribute traced tensor ops to an operation kind while inside."""
        if self.rec is None:
            yield
            return
        prev, self.rec.kind = self.rec.kind, kind
        try:
            yield
        finally:
            self.rec.kind = prev

    @contextlib.contextmanager
    def timed(self, kind, units=1, probe=True):
        if probe:
            self.probe.maybe()
        if self.rec is not None:
            self.rec.op_index += 1
        with self.kind(kind):
            t0 = time.perf_counter()
            yield
            self.intervals[kind].append((t0, time.perf_counter()))
        self.units[kind] += units

    def ms(self, kind, raw=False):
        """Per-operation times in ms, at reference speed unless raw."""
        raw = raw or kind in self.raw_kinds
        return [(b - a) * 1e3 * (1.0 if raw else self.probe.scale(a, b))
                for a, b in self.intervals[kind]]

    def median_ms(self, kind, raw=False):
        return float(np.median(self.ms(kind, raw)))

    def p95_ms(self, kind):
        return float(np.percentile(self.ms(kind), 95))


def run_cli(argv):
    """Call the CLI entry point in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def call_stamps(owner, attr, stamps):
    """Append (entry time, duration, args) for every call of owner.attr."""
    fn = getattr(owner, attr)

    def stamped(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stamps.append((t0, time.perf_counter() - t0, args))

    setattr(owner, attr, stamped)
    try:
        yield stamps
    finally:
        setattr(owner, attr, fn)


def file_digest(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# input generators (benchmark-owned, driven only by the workload seed)
# ---------------------------------------------------------------------------

def markov_corpus(rng, count, t_len=8, states=8):
    """(count, t_len) state sequences from a random order-1 chain."""
    pi = rng.dirichlet(np.ones(states))
    cum = np.cumsum(rng.dirichlet(np.ones(states), size=states), axis=1)
    out = np.empty((count, t_len), dtype=np.int64)
    out[:, 0] = np.minimum(np.searchsorted(np.cumsum(pi), rng.random(count), side="right"),
                           states - 1)
    for i in range(1, t_len):
        rows = cum[out[:, i - 1]]
        out[:, i] = np.minimum((rng.random(count)[:, None] > rows).sum(axis=1), states - 1)
    return out


class WordSource:
    """Zipf/bigram word source over a fixed vocabulary of V tokens.

    First words follow a Zipf law over a random word order; each next word
    is the previous word's shifted successor list indexed by a Zipf rank, so
    bigrams and trigrams recur across independent draws.
    """

    def __init__(self, rng, vocab_size=10000, zipf_s=1.1, successors=2000):
        self.words = vocab_size - 2  # ids 0, 1 are <PAD>, <UNK>
        ranks = np.arange(1, self.words + 1, dtype=np.float64)
        self.cum_first = np.cumsum(ranks ** -zipf_s / np.sum(ranks ** -zipf_s))
        succ = ranks[:successors] ** -(zipf_s + 0.3)
        self.cum_succ = np.cumsum(succ / succ.sum())
        self.order = rng.permutation(self.words)
        self.shift = rng.integers(0, self.words, size=self.words)

    def vocab_tokens(self):
        return ["<PAD>", "<UNK>"] + [f"w{i}" for i in range(self.words)]

    def draw(self, rng, count, min_len=12, max_len=20):
        """count sentences (lists of words) of uniform length in [min_len, max_len]."""
        ids = np.empty((count, max_len), dtype=np.int64)
        first = np.searchsorted(self.cum_first, rng.random(count), side="right")
        ids[:, 0] = self.order[np.minimum(first, self.words - 1)]
        for i in range(1, max_len):
            r = np.searchsorted(self.cum_succ, rng.random(count), side="right")
            ids[:, i] = (self.shift[ids[:, i - 1]] + r) % self.words
        lengths = rng.integers(min_len, max_len + 1, size=count)
        return [[f"w{w}" for w in row[:n]] for row, n in zip(ids, lengths)]


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(str(t) for t in row) + "\n" for row in rows))


def trace_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def records_finite(records):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for rec in records for v in rec.values())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def start_program():
    """Start the program as a user's CLI call would: a fresh interpreter importing arn.cli."""
    subprocess.run([sys.executable, "-c", "import arn.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))


class Workload:
    setup_repeats = 5
    raw_kinds = frozenset()  # operation kinds not scaled to reference speed (see SpeedProbe)
    ops_unit = "op"  # the operation kind per-layer tensor.ops is counted per

    def __init__(self, seed, seconds, workdir, smoke=False):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.smoke = smoke

    def path(self, name):
        return os.path.join(self.workdir, name)

    def rng(self, stream):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, stream])))

    @property
    def paper_vocab(self):
        """V of the paper-size workloads; the self-test's smoke runs use a small one."""
        return 200 if self.smoke else 10000

    def work(self, share, cost, floor):
        """Operations that fill share of the run at the nominal cost."""
        return floor if self.smoke else max(floor, round(share * self.seconds / cost))

    def train(self, meter, kind, argv, steps, calls_per_step, d_kind=None):
        """One `arn train` call, timed per step from its training.sample_batch calls.

        With d_kind, the discriminator phase of each adversarial step (up to
        the generator's sample_batch call) is also timed, as d_kind.
        Returns the (start, duration, args) of its training.save_checkpoint calls.
        """
        trace_path = self.path("trace.jsonl")
        if os.path.exists(trace_path):
            os.remove(trace_path)
        sample, calls, starts, ends, g_starts = training.sample_batch, [0], [], [], []

        def stamped_sample(*args, **kwargs):
            if calls[0] % calls_per_step == 0:  # a step begins
                ends.append(time.perf_counter())
                meter.probe.maybe()
                starts.append(time.perf_counter())
            else:
                g_starts.append(time.perf_counter())
            calls[0] += 1
            return sample(*args, **kwargs)

        training.sample_batch = stamped_sample
        try:
            with call_stamps(training, "save_checkpoint", []) as saves, meter.kind(kind):
                code, _, err = run_cli(["train", *argv, "--steps", steps, "--trace", trace_path])
        finally:
            training.sample_batch = sample
        meter.probe.measure()
        meter.check(code == 0, f"train exited {code}: {err.strip()}")
        if saves:
            step_ends = ends[1:] + [saves[-1][0]]
            meter.intervals[kind].extend(list(zip(starts, step_ends))[1:])  # step 0 warms up
            meter.units[kind] += steps
            if d_kind:
                meter.intervals[d_kind].extend(list(zip(starts, g_starts))[1:])
        records = trace_records(trace_path) if os.path.exists(trace_path) else []
        for step in range(steps):
            meter.check(step < len(records), f"step {step} rejected")
        meter.check(records_finite(records), "non-finite loss in trace")
        return saves


class DeskTrain(Workload):
    """`arn train` at the desk preset (B=32) on an 8-state Markov corpus.

    Two same-seed runs at lambda_adv=1 (primary: adversarial step) and two at
    lambda_adv=0 (secondary: MLE step, which skips every discriminator-side
    code path). Each pair must give identical loss traces and checkpoints.
    """

    def setup(self):
        ids = markov_corpus(self.rng(1), 2000)
        write_lines(self.path("corpus.txt"), ids)
        ArnModel.initialized(ArnConfig.preset("desk"), training.rng_streams(self.seed)["init"])

    def measure(self, meter):
        runs = (("op", 1.0, self.work(0.3, DESK_ADV_STEP_S, 4), 2),
                ("op2", 0.0, self.work(0.1, DESK_MLE_STEP_S, 4), 1))
        for kind, lam, steps, per_step in runs:
            digests = set()
            for _ in range(2):
                argv = ["--corpus", self.path("corpus.txt"), "--preset", "desk", "--batch-size", 32,
                        "--lambda-adv", lam, "--seed", self.seed, "--out", self.path("desk.arn")]
                self.train(meter, kind, argv, steps, per_step)
                digests.add((file_digest(self.path("trace.jsonl")),
                             file_digest(self.path("desk.arn"))))
            meter.check(len(digests) == 1, f"lambda_adv={lam}: same-seed runs differ")

    @staticmethod
    def named(meter):
        return {"adv_step_ms": (meter.median_ms("op"), "ms"),
                "adv_step_ms_p95": (meter.p95_ms("op"), "ms"),
                "mle_step_ms": (meter.median_ms("op2"), "ms")}


class PaperTrain(Workload):
    """`arn train --preset paper` (V=10000, d=500, T=20, B=8, lambda_adv=1)
    on a Zipf/bigram word corpus, ending with the 183 MB checkpoint write.

    Primary: the adversarial step. Secondary: its discriminator phase (D
    forward on real one-hot rows and detached fakes, D backward, D Adam).
    The checkpoint save is timed and checked but not a gated metric: over
    ten runs its median moved between 240 and 390 ms with the host's memory
    traffic, wider than any bound the benchmark may set.
    """

    setup_repeats = 3
    # Steps are memory bound; their times were measured not to follow the
    # probe (correlation 0.15 to 0.26 over 29 steps).
    raw_kinds = frozenset({"op", "op2", "save"})

    def setup(self):
        source = WordSource(self.rng(1), self.paper_vocab)
        with open(self.path("vocab.txt"), "w", encoding="utf-8") as fh:
            fh.write("".join(tok + "\n" for tok in source.vocab_tokens()))
        write_lines(self.path("corpus.txt"), source.draw(self.rng(2), 2000))

    def measure(self, meter):
        steps = 1 + self.work(1.0, PAPER_STEP_S, 1)
        argv = ["--corpus", self.path("corpus.txt"), "--vocab", self.path("vocab.txt"),
                "--preset", "paper", "--batch-size", 8, "--lambda-adv", 1, "--seed", self.seed,
                "--out", self.path("paper.arn")]
        saves = self.train(meter, "op", argv, steps, 2, d_kind="op2")
        if not saves:
            return
        start, duration, (path, model) = saves[-1]
        meter.intervals["save"].append((start, start + duration))
        digest = file_digest(path)
        for _ in range(2):
            with meter.timed("save"):
                training.save_checkpoint(path, model)
        meter.check(file_digest(path) == digest, "checkpoint rewrite differs")
        with open(path, "rb") as fh:
            meter.check(fh.read(4) == training.CHECKPOINT_MAGIC, "bad checkpoint magic")
        payload = sum(p.data.nbytes for p in model.params.values())
        meter.check(os.path.getsize(path) > payload, "checkpoint shorter than its payload")

    @staticmethod
    def named(meter):
        return {"adv_step_ms": (meter.median_ms("op"), "ms"),
                "d_phase_ms": (meter.median_ms("op2"), "ms"),
                "ckpt_save_ms": (meter.median_ms("save"), "ms")}


class SampleEval(Workload):
    """The read side at paper size.

    Primary: `arn generate --mode decoded-x1` from a paper-size checkpoint
    written during set-up (checkpoint load, corpus load and one-at-a-time
    sampling). Secondary: `arn evaluate` of a fresh draw from the word
    source against a held-out draw, so BLEU clipping does real n-gram work.
    """

    setup_repeats = 3
    eval_sentences = 1000
    # A paper-size generate call streams the 183 MB checkpoint and a 40 MB
    # projection per token. Over ten runs in a fast-CPU phase its wall time
    # spread 0.076 while the probe-scaled time spread 0.27, so it is
    # reported raw. evaluate is pure Python and stays scaled.
    raw_kinds = frozenset({"op", "load"})

    def setup(self):
        source = WordSource(self.rng(1), self.paper_vocab)
        with open(self.path("vocab.txt"), "w", encoding="utf-8") as fh:
            fh.write("".join(tok + "\n" for tok in source.vocab_tokens()))
        write_lines(self.path("seed.txt"), source.draw(self.rng(2), 2000))
        write_lines(self.path("heldout.txt"), source.draw(self.rng(3), self.eval_sentences))
        draws = self.rng(4)
        for i in range(self.evaluate_calls()):
            write_lines(self.path(f"draw{i}.txt"), source.draw(draws, self.eval_sentences))
        cfg = ArnConfig.preset("paper")
        cfg.vocab_size = self.paper_vocab
        model = ArnModel.initialized(cfg, training.rng_streams(self.seed)["init"])
        training.save_checkpoint(self.path("paper.arn"), model)

    def evaluate_calls(self):
        return self.work(0.3, EVALUATE_CALL_S, 2)

    def sequences(self):
        return 2 if self.smoke else 16

    def measure(self, meter):
        count = self.sequences()
        calls = self.work(0.5, 0.3 + count * PAPER_SEQ_S, 2)
        with open(self.path("vocab.txt"), encoding="utf-8") as fh:
            vocab = set(fh.read().split())
        outputs = []
        with call_stamps(training, "load_checkpoint", []) as loads:
            for i in range(calls):
                seed = self.seed * 1000 + (0 if i == calls - 1 else i)  # last call repeats the first
                out = self.path("generated.txt")
                with meter.timed("op", units=count):
                    code, _, err = run_cli(
                        ["generate", "--checkpoint", self.path("paper.arn"), "--mode", "decoded-x1",
                         "--seed-corpus", self.path("seed.txt"), "--vocab", self.path("vocab.txt"),
                         "--count", count, "--seed", seed, "--out", out])
                meter.check(code == 0, f"generate exited {code}: {err.strip()}")
                lines = []
                if code == 0:
                    with open(out, encoding="utf-8") as fh:
                        lines = fh.read().splitlines()
                outputs.append(lines)
                meter.check(len(lines) == count and all(
                    len(toks) == 20 and set(toks) <= vocab for toks in map(str.split, lines)),
                    "generate output malformed")
        meter.intervals["load"] = [(start, start + duration) for start, duration, _ in loads]
        meter.check(outputs[0] == outputs[-1], "same-seed generate calls differ")
        for i in range(self.evaluate_calls()):
            with meter.timed("op2", units=self.eval_sentences):
                code, out, err = run_cli(["evaluate", "--generated", self.path(f"draw{i}.txt"),
                                          "--test", self.path("heldout.txt"), "--orders", "2,3"])
            meter.check(code == 0 and self.report_ok(out), f"evaluate failed ({code}): {err.strip()}")
        meter.probe.measure()

    def report_ok(self, out):
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return False
        scores = [report[k][n] for k in ("bleu", "fc", "diversity") for n in ("2", "3")]
        return report.get("samples") == self.eval_sentences and all(0 <= s <= 100 for s in scores)

    def named(self, meter):
        return {"generate_seqs_per_s": (self.sequences() * 1e3 / meter.median_ms("op"), "1/s"),
                "evaluate_sents_per_s": (self.eval_sentences * 1e3 / meter.median_ms("op2"), "1/s"),
                "ckpt_load_ms": (meter.median_ms("load"), "ms")}


class SubsetGradCheck:
    """Stand-in for cli.grad_check that audits a fixed subset of coordinates.

    It still calls tensor.grad_check on the closures cli.gradcheck_report
    builds, but over a (1, k) slice y of the parameter: the probe sees
    x = base + y @ S, where S selects k coordinates and base holds every
    other coordinate. The analytic and central-difference partials it
    compares are exactly those of the full audit at the chosen coordinates.
    Each central-difference evaluation is timed as an "fd" operation.
    """

    def __init__(self, grad_check, rng, coords, meter):
        self.grad_check = grad_check
        self.rng = rng
        self.coords = coords
        self.meter = meter
        self.errors = []

    def __call__(self, f, x, eps=1e-5):
        meter, shape = self.meter, x.data.shape
        flat = x.data.reshape(-1)
        sel = np.sort(self.rng.choice(flat.size, size=min(self.coords, flat.size), replace=False))
        with meter.kind(HARNESS):
            select = np.zeros((sel.size, flat.size))
            select[np.arange(sel.size), sel] = 1.0
            select = tensor.Tensor(select)
            base = flat.copy()
            base[sel] = 0.0
            base = tensor.Tensor(base.reshape(shape))

        def probe(y):
            with meter.kind(HARNESS):
                x_full = (y @ select).reshape(*shape) + base
            if tensor._grad_enabled:  # the analytic pass
                return f(x_full)
            with meter.timed("fd", probe=False):
                return f(x_full)

        err = self.grad_check(probe, tensor.Tensor(flat[sel].reshape(1, -1)), eps)
        self.errors.append(err)
        meter.check(err <= GRAD_TOL, f"grad-check error {err:.3e} > {GRAD_TOL}")
        return err


class Verify(Workload):
    """The trust path.

    Primary: one `arn gradcheck --preset desk` call: all three desk losses
    (ELBO, discriminator, generator) over a fixed subset of coordinates of
    every parameter of both networks, checked at 1e-4. Secondary: one
    `arn divlab` call of five trials (five optimal-discriminator and identity
    checks and one Nash solve), checked against the CLI's bounds. A Nash
    solve's cost depends on its random game, so there are many short divlab
    calls and the median is robust to the slow games.
    """

    ops_unit = "fd"
    divlab_trials = 5

    def setup(self):
        ArnModel.initialized(ArnConfig.preset("desk"), training.rng_streams(self.seed)["init"])

    def measure(self, meter):
        coords = 2 if self.smoke else 6
        original = cli.grad_check  # tensor.grad_check, or the tracer's wrapper of it
        subset = SubsetGradCheck(original, self.rng(1), coords, meter)
        cli.grad_check = subset
        try:
            for i in range(self.work(0.6, GRADCHECK_CALL_S, 1)):
                with meter.timed("op"):
                    code, out, err = run_cli(["gradcheck", "--preset", "desk",
                                              "--seed", self.seed * 1000 + i])
                meter.check(code == 0, f"gradcheck exited {code}: {out.strip()} {err.strip()}")
        finally:
            cli.grad_check = original
        for i in range(self.work(0.3, DIVLAB_CALL_S, 3)):
            with meter.timed("op2", units=self.divlab_trials):
                code, out, err = run_cli(["divlab", "--trials", self.divlab_trials,
                                          "--outcomes", 8, "--seed", self.seed * 1000 + i])
            meter.check(code == 0 and self.bounds_ok(out), f"divlab failed ({code}): {out.strip()}")
        meter.probe.measure()

    @staticmethod
    def bounds_ok(out):
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return False
        return all(report[key] <= bound for key, bound in DIVLAB_BOUNDS.items())

    def named(self, meter):
        fd_ms = meter.ms("fd")
        return {"gradcheck_call_ms": (meter.median_ms("op"), "ms"),
                "fd_evals_per_s": (len(fd_ms) * 1e3 / sum(fd_ms), "1/s"),
                "divlab_trials_per_s": (self.divlab_trials * 1e3 / meter.median_ms("op2"), "1/s")}


WORKLOADS = {
    "desk-train": DeskTrain,
    "paper-train": PaperTrain,
    "sample-eval": SampleEval,
    "verify": Verify,
}
