"""Package surface: each module's ``__all__`` names what it defines, and
every source file uses what it imports."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("cli", "haar", "hilbert", "integrate", "measures", "noise",
           "quadvar", "scenarios", "spde")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mvmlab.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, f"mvmlab.{name}.__all__ names undefined {missing}"


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/mvmlab/*.py")) + sorted(
    ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # An imported name must appear as a name somewhere outside its import.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports unused {imported - used}"
