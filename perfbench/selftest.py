"""The benchmark's own fast self-test.

From the repository root:

    python3 perfbench/selftest.py

Checks the span recorder's self-time arithmetic on a synthetic nested call
(with a fake clock), the speed probe's scaling, a tiny smoke run of every
workload untraced and traced, and that the benchmark refuses to run without
the program's source. Exits 0 when everything passes.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_self_time():
    from tracer import SpanRecorder

    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))

    def inner():
        return "inner"

    def outer():
        layer.inner()
        layer.inner()
        return "outer"

    layer = types.SimpleNamespace(inner=inner, outer=outer, op=lambda: None)
    rec.span(layer, "inner", "layer.inner")
    rec.span(layer, "outer", "layer.outer")
    rec.count(layer, "op", "layer.op")
    assert layer.outer() == "outer"
    layer.op()
    layer.op()
    # outer spans 0..10 and covers inner 2..5 and 6..7
    assert rec.self_times() == {"layer.outer": (6.0, 1), "layer.inner": (4.0, 2)}, rec.self_times()
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert rec.counts["layer.op"] == 2
    rec.uninstall()
    assert layer.inner is inner and layer.outer is outer
    print("ok  span recorder self time on a nested call")


def check_probe_scale():
    import workloads

    probe = workloads.SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 10.0]
    probe.durations = [0.002, 0.004, 0.003, 0.001]
    # window [1.0 - 0.3, 2.0 + 0.3] holds the probes at 1.0 and 2.0
    assert abs(probe.scale(1.0, 2.0) - probe.REF_S / 0.0035) < 1e-12
    # no probe within the window: the nearest one after it
    assert abs(probe.scale(5.0, 6.0) - probe.REF_S / 0.001) < 1e-12
    print("ok  speed probe scaling")


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_smoke_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert set(result["metrics"]) == {m["name"] for m in spec[section]}, result
            print(f"ok  smoke run {workload} trace {trace}")


def check_refuses_without_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "desk-train", "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's source")


def main():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    check_self_time()
    check_probe_scale()
    check_refuses_without_program()
    check_smoke_runs()
    print("self-test passed")


if __name__ == "__main__":
    main()
