"""The demos are long-running scripts; check their qdoe imports without running them."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _qdoe_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "qdoe":
            for alias in node.names:
                yield node.module, alias.name


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_qdoe_imports_resolve(path):
    imports = list(_qdoe_imports(path))
    assert imports, f"{path.name} imports nothing from qdoe"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
