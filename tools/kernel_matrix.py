"""Run Tier-1 and the artifact digests under each OpenBLAS kernel.

Usage::

    python3 tools/kernel_matrix.py --label NAME [--out FILE]

numpy's bundled OpenBLAS picks its kernel at load time, and the environment
variable ``OPENBLAS_CORETYPE`` overrides that choice.  For each kernel in
KERNELS (``default`` leaves the variable unset) this script runs, in
subprocesses whose environment alone carries the variable, the Tier-1 suite
(``python -m pytest`` with ``src`` on ``PYTHONPATH``) and
``tools/artifact_digests.py`` at every scenario's defaults.  It records each
kernel's test verdicts (the failed test ids), whether every scenario passed,
and the CSV artifacts and check values that differ from the default
kernel's, with both values.  An ``exact_identity`` check reads 0 by
construction on every kernel and must not move; a ``rounding_identity``
check compares two routes that round differently, and it, a Monte Carlo or
a quadrature value may move in its last bits.

The result is stored under ``--label`` in ``--out`` (default
``BENCH_kernels.json`` at the root of this checkout), with the run's
environment as ``tools/artifact_digests.py`` records it, less the kernel:
Python, numpy, the BLAS, the core count, the commit and whether the tree had
uncommitted changes (``dirty``).  Entries of other labels are kept, so one
file can hold the matrices of two trees.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("default", "Sandybridge", "Prescott")
VERDICT = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


def kernel_env(kernel: str) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_tests(env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True).stdout
    verdicts = VERDICT.findall(out)
    return {"passed": sum(v == "PASSED" for v, _ in verdicts),
            "failed": sorted(t for v, t in verdicts if v != "PASSED")}


def run_digests(env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def moved(base: dict, other: dict) -> tuple[dict, dict]:
    """Check values and artifact names of `other` that differ from `base`."""
    checks, artifacts = {}, {}
    for name, run in other["scenarios"].items():
        ref = base["scenarios"][name]
        diff = {c: [ref["checks"].get(c), v] for c, v in run["checks"].items()
                if ref["checks"].get(c) != v}
        files = sorted(f for f, h in run["artifacts"].items()
                       if ref["artifacts"].get(f) != h)
        if diff:
            checks[name] = diff
        if files:
            artifacts[name] = files
    return checks, artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="key of this matrix in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    digests, result = {}, {}
    for kernel in KERNELS:
        env = kernel_env(kernel)
        tests = run_tests(env)
        digests[kernel] = run_digests(env)
        scenarios = digests[kernel]["scenarios"]
        checks, artifacts = moved(digests["default"], digests[kernel])
        result[kernel] = {
            "blas_kernel": digests[kernel]["environment"]["blas_kernel"],
            "tests": tests,
            "all_scenarios_passed": all(s["all_passed"]
                                        for s in scenarios.values()),
            "moved_checks": checks, "moved_artifacts": artifacts}
        print(f"{kernel} ({result[kernel]['blas_kernel']}): {tests['passed']} "
              f"passed, failed {tests['failed']}; "
              f"{sum(map(len, checks.values()))} check values and "
              f"{sum(map(len, artifacts.values()))} artifacts moved",
              flush=True)
    stored = json.loads(args.out.read_text(encoding="utf-8")) \
        if args.out.is_file() else {}
    stored.setdefault("matrices", {})[args.label] = {
        "env": {k: v for k, v in digests["default"]["environment"].items()
                if k != "blas_kernel"},
        "seconds": round(time.perf_counter() - start, 1),
        "kernels": result}
    args.out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
