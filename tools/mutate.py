"""Mutation audit: run tests against every one-site mutant of one module.

    python3 tools/mutate.py src/arn/kernels.py tests/test_kernels.py tests/test_tensor.py tests/test_training.py

`--sites A-B` runs only the sites numbered A to B (both included, as the
per-site lines number them), so a long audit can run in parts.

A mutant changes one site: an operator swap (+ and -, * and /, ** to *,
<< to >>, < and <=, > and >=, == and !=) or a numeric constant nudged (a
nonzero float times 1 + 1e-6, a zero float to 1e-6, an int plus 1, or
toward zero under a unary minus, so -1 becomes -0, since NumPy reads -2 as
it reads -1 in `reshape`). It is written into a copy of the checkout
(without .git and caches) in a temporary directory, never into the checkout
itself, and runs `pytest -x -q` on the named test files. A mutant they do
not kill runs the whole suite. Stdlib only; prints one line per mutant, then
the totals.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.Pow: ast.Mult,
        ast.LShift: ast.RShift, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def sites(tree):
    """(node, slot) of every site in ast.walk order: slot "op", an index into Compare.ops, "value",
    or "negated" for a constant under a unary minus."""
    found, negated = [], set()
    for node in ast.walk(tree):  # a node comes before its children
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            negated.add(id(node.operand))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            found.append((node, "op"))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAP]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, "negated" if id(node) in negated else "value"))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset))  # stable: walk order in a tie


def mutate(node, slot):
    """Apply the site's one change in place and describe it as the node's source before and after."""
    before = ast.unparse(node)
    if slot in ("value", "negated"):
        old = node.value
        if type(old) is int:
            node.value = old - 1 if slot == "negated" else old + 1
        else:
            node.value = old * (1 + 1e-6) if old else 1e-6
    elif slot == "op":
        node.op = SWAP[type(node.op)]()
    else:
        node.ops[slot] = SWAP[type(node.ops[slot])]()
    return f"{before}  ->  {ast.unparse(node)}"


def passes(work, args, timeout):
    """True when pytest passes in the copy; a run past the timeout counts as failing."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # a stale .pyc could hide a mutant
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def site_range(text):
    """The inclusive site range "A-B" as range(A, B + 1)."""
    first, sep, last = text.partition("-")
    if not (sep and first.isdecimal() and last.isdecimal() and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, got {text!r}")
    return range(int(first), int(last) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="module path relative to the repository root")
    ap.add_argument("tests", nargs="+", help="test files that should kill each mutant")
    ap.add_argument("--sites", type=site_range, metavar="A-B", help="run only sites A to B, both included")
    args = ap.parse_args()
    source = (ROOT / args.module).read_text(encoding="utf-8")
    count = len(sites(ast.parse(source)))
    chosen = args.sites or range(count)
    if chosen.stop > count:
        ap.error(f"--sites: {args.module} has sites 0-{count - 1}")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".perfbench", ".hypothesis", ".pytest_cache", ".benchmarks"))
        target = work / args.module
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")  # the baseline, as mutants are written
        start = time.perf_counter()
        if not passes(work, args.tests, None):
            sys.exit("the unmutated module fails the tests")
        timeout = 10 * (time.perf_counter() - start) + 30
        survived = []
        for i in chosen:
            tree = ast.parse(source)
            node, slot = sites(tree)[i]
            change = mutate(node, slot)
            target.write_text(ast.unparse(tree), encoding="utf-8")
            verdict = "killed"
            if passes(work, args.tests, timeout):
                whole = passes(work, ["--continue-on-collection-errors"], 100 * timeout)
                verdict = "survived" if whole else "killed by the suite"
            if verdict == "survived":
                survived.append(i)
            print(f"{i:3d}  line {node.lineno:4d}  {verdict:19s} {change}", flush=True)
    part = f" {chosen.start}-{chosen.stop - 1} of {count}" if args.sites else ""
    print(f"{args.module}: {len(chosen)} sites{part}, {len(chosen) - len(survived)} killed, "
          f"{len(survived)} survived {survived}")


if __name__ == "__main__":
    main()
