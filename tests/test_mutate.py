import argparse
import ast
import contextlib
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
_SPEC = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


@pytest.mark.parametrize("text, sites", [("0-0", [0]), ("3-5", [3, 4, 5]), ("95-188", list(range(95, 189)))])
def test_site_range_includes_both_ends(text, sites):
    assert list(mutate.site_range(text)) == sites


@pytest.mark.parametrize("text", ["5-3", "7", "-1-2", "a-b", "1-", "1-2-3"])
def test_site_range_rejects_anything_else(text):
    with pytest.raises(argparse.ArgumentTypeError):
        mutate.site_range(text)


@pytest.mark.parametrize("source, after, line", [
    ("x.reshape(-1)", "x.reshape(-0)", "-1  ->  -0"),
    ("x[:, -1]", "x[:, -0]", "-1  ->  -0"),
    ("x.reshape(1)", "x.reshape(2)", "1  ->  2"),
    ("x - 1", "x - 2", "1  ->  2"),
    ("-0.5", "-0.5000005", "-0.5  ->  -0.5000005"),
])
def test_an_int_under_a_unary_minus_is_nudged_toward_zero(source, after, line):
    tree = ast.parse(source)
    ((node, slot),) = [site for site in mutate.sites(tree) if site[1] in ("value", "negated")]
    assert mutate.mutate(node, slot) == line  # a negated site's line prints its minus
    assert ast.unparse(tree) == after


def test_sigterm_kills_the_pytest_child_and_removes_the_copy(tmp_path):
    # a checkout whose one test records its pid, then sleeps past any wait here
    root, tmp = tmp_path / "checkout", tmp_path / "tmp"
    (root / "tools").mkdir(parents=True)
    tmp.mkdir()
    shutil.copy(_PATH, root / "tools" / "mutate.py")
    (root / "mod.py").write_text("X = 1\n")
    pid_file = tmp_path / "pid"
    (root / "test_slow.py").write_text(
        "import os, time\n\n\ndef test_slow():\n"
        f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n    time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, str(root / "tools" / "mutate.py"), "mod.py", "test_slow.py"],
                            env=dict(os.environ, TMPDIR=str(tmp)), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.05)
        child = int(pid_file.read_text())  # the baseline run is under way
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        assert list(tmp.iterdir()) == []
    finally:
        proc.kill()
        proc.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
