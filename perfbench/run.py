"""Run one workload of the arn benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``. With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the workload runs untraced and then traced, and
the object carries the per-layer metrics of the traced pass plus the
tracing overhead. End-to-end times are at reference machine speed (see
``workloads.SpeedProbe``); per-layer times are raw. A human-readable table
with the workload-specific metric names and an environment record precede
the object. Results (and, for traced runs, the spans) are also written
under ``.perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

# One BLAS thread: the machines this runs on are small and shared, and a
# multi-threaded GEMM makes run-to-run spread far wider than the bounds.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads():
    """Pin BLAS threads (never above the CPUs available); call before NumPy loads."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, kernels, seed, threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "using_numba": kernels.USING_NUMBA,
        "seed": seed,
        "git_commit": git_commit(),
    }


def end_to_end(meter, setup_s, units):
    values = {
        "setup_s": setup_s,
        "op_ms": meter.median_ms("op"),
        "op2_ms": meter.median_ms("op2"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer(rec, meter, unit_kind, overhead, units):
    spans = rec.self_times()

    def value(name):
        if name == "trace.overhead_frac":
            return overhead
        if name == "py.gc.ms":
            return rec.gc_ms
        if name == "tensor.ops":  # op calls per unit of primary work
            return rec.ops_by_kind[unit_kind] / max(1, meter.units[unit_kind])
        layer, _, field = name.rpartition(".")
        if field == "ms":
            return spans.get(layer, (0.0, 0))[0] * 1e3
        if field == "calls":
            return spans[layer][1] if layer in spans else rec.counts[layer]
        return rec.counts[name]

    return {name: {"value": value(name), "unit": unit} for name, unit in units.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, spec):
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import arn.cli  # noqa: F401  (loads every arn module the tracer patches)
    import workloads
    from tracer import SpanRecorder

    workdir = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = STATE / "results"
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, str(workdir), args.smoke)
        probe = workloads.SpeedProbe()
        setup_times = []
        for _ in range(wl.setup_repeats):
            probe.measure()
            t0 = time.perf_counter()
            workloads.start_program()
            wl.setup()
            t1 = time.perf_counter()
            probe.measure()
            setup_times.append((t1 - t0) * probe.scale(t0, t1))

        def measured(rec=None):
            """One pass of the workload."""
            probe.rec = rec
            meter = workloads.Meter(probe, rec, wl.raw_kinds)
            wl.measure(meter)
            probe.measure()
            return meter

        meter = measured()
        meters = [meter]
        if args.trace:
            rec = SpanRecorder()
            rec.install(arn)
            try:
                traced = measured(rec)
            finally:
                rec.uninstall()
            meters.append(traced)
            # median primary operation, traced over untraced: robust to the warm-up
            overhead = traced.median_ms("op") / meter.median_ms("op") - 1.0
            metrics = per_layer(rec, traced, wl.ops_unit, overhead,
                                {m["name"]: m["unit"] for m in spec["per_layer"]})
        else:
            metrics = end_to_end(meter, statistics.median(setup_times),
                                 {m["name"]: m["unit"] for m in spec["end_to_end"]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    failures = [f for m in meters for f in m.failures]
    env = environment(np, arn.kernels, args.seed, threads)
    named = dict(wl.named(meter), setup_s=(statistics.median(setup_times), "s"),
                 peak_rss_mb=(peak_rss_mb(), "MB"), failed_frac=(failed / attempted, "1"),
                 machine_speed=(probe.REF_S / statistics.median(probe.durations), "1"))
    raw = {f"{kind}_ms_raw": meter.median_ms(kind, raw=True) for kind in meter.intervals}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in rec.spans)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "env": env, "named": named,
                   "raw_median_ms": raw, "failures": failures,
                   "operations": {k: len(v) for k, v in meter.intervals.items()}, **result},
                  fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal work per workload (the benchmark's self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arn" / "__init__.py").is_file():
        print(f"error: no arn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
