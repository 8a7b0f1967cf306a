"""Span recorder and call counters for the traced benchmark run.

The recorder wraps public functions of the ``arn`` modules at the places
where they are looked up, so the program's source stays untouched:

* functions that do a layer's work get a span (name, start, end, parent,
  and the index of the benchmark operation it belongs to); the recorder
  derives each span's self time as its duration minus the time its child
  spans cover;
* autodiff ops on ``Tensor`` are far too frequent to time from Python
  (a 25 ms desk step makes thousands of them), so they are only counted.

``install`` patches and ``uninstall`` restores every attribute it touched.
"""

import gc
import time
from collections import Counter, defaultdict

# Tensor methods that are public autodiff ops. ``__radd__``/``__rmul__`` are
# the same function objects as ``__add__``/``__mul__`` but separate class
# attributes, so each is patched on its own.
TENSOR_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__matmul__", "__getitem__", "reshape", "sum", "mean", "exp", "log",
    "tanh", "sigmoid", "log_sigmoid", "softmax", "log_softmax", "detach",
)
_OP_NAMES = {"__radd__": "__add__", "__rmul__": "__mul__"}
HARNESS = "harness"  # operation kind of the benchmark's own tensor arithmetic, not counted
KERNELS = ("lstm_cell_forward", "lstm_cell_backward", "softmax_rows", "log_softmax_rows",
           "adam_update")


class SpanRecorder:
    """In-memory spans and counts; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op index]
        self._stack = []
        self.counts = Counter()
        self.op_index = 0
        self.phase = "g"  # "d" or "g": which loss the next backward belongs to
        self.kind = None  # which benchmark operation kind is running
        self.ops_by_kind = Counter()
        self.gc_ms = 0.0
        self._gc_start = None
        self._patches = []

    # -- spans -----------------------------------------------------------------

    def enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_index])
        self._stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def self_times(self):
        """{name: (self seconds, calls)} over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name][0] += (end - start) - covered
            out[name][1] += 1
        return {name: tuple(v) for name, v in out.items()}

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, wrapper, static=False):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def span(self, owner, attr, name, static=False):
        """Patch owner.attr with a wrapper that records one span per call.

        name is a string or a callable of the call's arguments.
        """
        fn = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            idx = rec.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(idx)

        self._patch(owner, attr, wrapper, static)

    def count(self, owner, attr, name, extra=None):
        """Patch owner.attr with a wrapper that only counts calls.

        extra(args) may return {counter: amount} for computed figures.
        """
        fn = getattr(owner, attr)
        counts, ops_by_kind, rec = self.counts, self.ops_by_kind, self

        def wrapper(*args, **kwargs):
            if rec.kind != HARNESS:
                counts[name] += 1
                ops_by_kind[rec.kind] += 1
                if extra is not None:
                    for key, amount in extra(args).items():
                        counts[key] += amount
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_ms += (self.clock() - self._gc_start) * 1e3
            self._gc_start = None

    def install(self, arn):
        """Patch the layers of the arn package (a namespace of its modules)."""
        tensor, kernels, networks, training = arn.tensor, arn.kernels, arn.networks, arn.training
        corpus, metrics, divlab, cli = arn.corpus, arn.metrics, arn.divlab, arn.cli
        rec = self

        for op in TENSOR_OPS:
            extra = _matmul_flops if op == "__matmul__" else None
            self.count(tensor.Tensor, op, "tensor." + _OP_NAMES.get(op, op).strip("_"), extra)
        self.count(networks, "gather_rows", "tensor.gather_rows")
        self.count(networks, "lstm_cell", "tensor.lstm_cell")
        self.count(tensor, "pick", "tensor.pick")  # imported inside a networks function
        self.count(tensor, "concat", "tensor.concat")
        self.count(arn.distributions, "straight_through_hard", "tensor.straight_through_hard")

        self.span(tensor.Tensor, "backward", lambda *a: "tensor.backward." + rec.phase)
        self.span(cli, "grad_check", "tensor.grad_check")
        for name in KERNELS:
            self.span(kernels, name, "kernels." + name)
        self._kernel_bytes(kernels)

        def set_phase(phase, name):
            def namer(*args, **kwargs):
                rec.phase = phase
                return name
            return namer

        self.span(training, "discriminator_loss", set_phase("d", "training.discriminator_loss"))
        self.span(training, "generator_loss", set_phase("g", "training.generator_loss"))
        self.span(training, "elbo_batch", set_phase("g", "training.elbo_batch"))
        self.span(training, "optimizer_step", lambda params, *a, **k: "training.optimizer_step."
                  + ("d" if all(n.startswith("disc.") for n in params) else "g"))
        self.span(training, "save_checkpoint", "training.save_checkpoint")
        self.span(training, "load_checkpoint", "training.load_checkpoint")
        self.span(training, "reparam_sample", "distributions.reparam_sample")
        self.span(training, "kl_gauss_std", "distributions.kl_gauss_std")

        self.span(networks, "gumbel_softmax", "distributions.gumbel_softmax")
        self.span(networks, "one_hot_rows", "networks.one_hot_rows")
        self.span(networks, "discriminator_score_batch", "networks.discriminator_score_batch")
        self.span(networks, "sequence_log_likelihood_batch",
                  "networks.sequence_log_likelihood_batch")
        self.span(networks, "generate_relaxed_batch", lambda *a, **k: (
            "networks.generate_relaxed_batch" if tensor._grad_enabled
            else "networks.generate_relaxed_batch.nograd"))
        self.span(networks, "generate_batch", "networks.generate_batch")

        self.span(corpus, "load_corpus", "corpus.load_corpus")
        self.span(corpus.Vocabulary, "load", "corpus.Vocabulary.load", static=True)
        self.span(corpus.Vocabulary, "decode", "corpus.Vocabulary.decode")
        for name in ("corpus_bleu_n", "diversity_n", "fc_n"):
            self.span(metrics, name, "metrics." + name)
        for name in ("grid_search_discriminator", "solve_nash", "verify_identity"):
            self.span(divlab, name, "divlab." + name)
        self.span(cli, "main", "cli.main")
        gc.callbacks.append(self._on_gc)

    def _kernel_bytes(self, kernels):
        """Count the bytes adam_update reads and writes, computed from shapes."""
        fn = kernels.adam_update
        counts = self.counts

        def wrapper(param, grad, m, v, *rest):
            # reads param, grad, m, v; writes param, m, v
            counts["kernels.adam_update.bytes"] += 4 * param.nbytes + 3 * param.nbytes
            return fn(param, grad, m, v, *rest)

        self._patch(kernels, "adam_update", wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _matmul_flops(args):
    a, b = args[0].data, getattr(args[1], "data", args[1])
    if a.ndim == 2 and getattr(b, "ndim", 0) == 2:
        return {"tensor.matmul.flops": 2 * a.shape[0] * a.shape[1] * b.shape[1]}
    return {}
