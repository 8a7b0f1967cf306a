"""Run workloads over several seeds, each run in a fresh process, and summarise.

From the repository root:

    python3 perfbench/sweep.py --seeds 1-10 [--workload desk-train ...] [--trace] [--out FILE]

For every workload and end-to-end metric it prints the median, the quartiles
and the spread (interquartile distance over the median) of the runs, next to
the metric's bound from BENCHMARK.json. With --trace it adds one traced run
per workload (the first seed) and its per-layer table. --out writes all of
it, with the environment record, as JSON: the committed baseline is made so.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), env


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        entry = {
            "env": env,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                                      unit=runs[0]["metrics"][name]["unit"], bound=bounds[name])
                           for name in bounds},
        }
        print(f"{workload}: {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} spread  bound")
        for name, s in entry["end_to_end"].items():
            print(f"{workload}: {name:<12} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:6.3f} {s['bound']:6.3f}")
        if args.trace:
            traced, _ = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            for name, value in entry["per_layer"].items():
                if value:
                    print(f"{workload}:   {name:<46} {value:.6g}")
        report["workloads"][workload] = entry
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")


if __name__ == "__main__":
    main()
