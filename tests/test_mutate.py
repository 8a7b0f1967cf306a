import argparse
import ast
import importlib.util
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


@pytest.mark.parametrize("source, after", [
    ("x.reshape(-1)", "x.reshape(-0)"),
    ("x[:, -1]", "x[:, -0]"),
    ("x.reshape(1)", "x.reshape(2)"),
    ("x - 1", "x - 2"),
    ("-0.5", "-0.5000005"),
])
def test_an_int_under_a_unary_minus_is_nudged_toward_zero(source, after):
    tree = ast.parse(source)
    ((node, slot),) = [site for site in mutate.sites(tree) if site[1] in ("value", "negated")]
    mutate.mutate(node, slot)
    assert ast.unparse(tree) == after
