"""Package surface: each module's ``__all__`` names what it defines."""

import importlib

import pytest

MODULES = ("cli", "haar", "hilbert", "integrate", "measures", "noise",
           "quadvar", "scenarios", "spde")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mvmlab.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, f"mvmlab.{name}.__all__ names undefined {missing}"
