"""Package surface: each module's ``__all__`` names what it defines and
what the package itself uses, every source file uses what it imports, one
function computes standard errors, one takes the grid's running sums, one
takes eigen-decompositions, one builds identity reports and one hands hooks
their past."""

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


def found(match, allowed_in):
    """(file, line, allowed) of every AST node in src/mvmlab that `match`
    accepts, where allowed means inside a function named in `allowed_in` as
    (file, name)."""
    nodes = []
    for path in sorted(ROOT.glob("src/mvmlab/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) in allowed_in
                   for node in ast.walk(fn)}
        nodes += [(path.name, node.lineno, id(node) in allowed)
                  for node in ast.walk(tree) if match(node)]
    return nodes


def method_calls(attr, allowed_in):
    """:func:`found` for every ``.<attr>(`` call."""
    return found(lambda node: isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == attr, allowed_in)


def test_standard_errors_come_only_from_mean_se():
    # Every Monte Carlo gate judges one estimator: `.std(` is called only
    # inside noise.mean_se.
    calls = method_calls("std", {("noise.py", "mean_se")})
    stray = [(name, line) for name, line, ok in calls if not ok]
    assert not stray, f".std( outside noise.mean_se at {stray}"
    assert any(ok for _, _, ok in calls), "noise.mean_se calls no .std("


def test_running_sums_come_only_from_running_sum():
    # One time scan: a cumulative sum is taken only by measures._running_sum
    # and by integrate_simple (the independent radonification route).
    calls = method_calls("cumsum", {("measures.py", "_running_sum"),
                                    ("integrate.py", "integrate_simple")})
    stray = [(name, line) for name, line, ok in calls if not ok]
    assert not stray, f"cumsum outside the two allowed functions at {stray}"
    assert len(calls) == 2, calls


def test_eigen_decompositions_come_only_from_clipped_eigh():
    # One eigen-route for every PSD field: `eigh` is called only inside
    # hilbert._clipped_eigh, and `eigvalsh` only in the rank-one check of
    # the hvalued_levy_qm scenario.
    for attr, owner in (("eigh", ("hilbert.py", "_clipped_eigh")),
                        ("eigvalsh", ("scenarios.py", "_scn_hvalued"))):
        calls = method_calls(attr, {owner})
        stray = [(name, line) for name, line, ok in calls if not ok]
        assert not stray, f".{attr}( outside {owner} at {stray}"
        assert len(calls) == 1, calls


def test_identity_reports_and_read_only_pasts_have_one_maker_each():
    # One reducer builds every IdentityReport (integrate._identity_report),
    # and one helper hands a hook its read-only past (integrate._hook_answer,
    # the only place that sets ``flags.writeable = False``).
    reports = found(lambda node: isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "IdentityReport",
                    {("integrate.py", "_identity_report")})
    frozen = found(lambda node: isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Attribute) and target.attr == "writeable"
        for target in node.targets), {("integrate.py", "_hook_answer")})
    for what, nodes in (("IdentityReport(", reports),
                        ("flags.writeable =", frozen)):
        stray = [(name, line) for name, line, ok in nodes if not ok]
        assert not stray, f"{what} outside its one maker at {stray}"
        assert len(nodes) == 1, nodes


# Public names that package code need not reference, each with its reason.
UNREFERENCED_OK = {
    # The console script named in pyproject.toml.
    "cli.entry",
}


def test_every_public_name_is_used_by_the_package():
    # A name in some __all__ must be read somewhere in src/mvmlab, as a
    # bare name or an attribute; public surface that only tests reach goes.
    used = set()
    for path in ROOT.glob("src/mvmlab/*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{name}.{item}" for name in MODULES
              for item in importlib.import_module(f"mvmlab.{name}").__all__
              if item not in used and f"{name}.{item}" not in UNREFERENCED_OK]
    assert not unused, f"public names no package code uses: {unused}"
