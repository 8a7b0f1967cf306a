import ast
from pathlib import Path

import pytest

import arn

MODULES = sorted(p for p in Path(arn.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by top-level imports that no Name node of the module reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}  # also the base of a.b
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom .x import a, b as c\nsys.exit(c)\n") == ["os", "a"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_data_layer_imports_no_scorer():
    tree = ast.parse((Path(arn.__file__).parent / "corpus.py").read_text(encoding="utf-8"))
    assert "metrics" not in {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
