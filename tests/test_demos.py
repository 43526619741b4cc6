"""The demos' qdoe imports resolve; the two fast demos also run end to end,
so a builder call with a stale signature fails here too. The other demos are
long-running, so only their imports are checked."""

import ast
import importlib
import runpy
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


@pytest.mark.parametrize("name", ["01_designs_tour.py", "04_hsic_screening.py"])
def test_fast_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS[0].parent / name), run_name="__main__")
    assert capsys.readouterr().out
