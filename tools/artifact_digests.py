"""Print digests of every scenario's artifacts and check values as JSON.

Usage::

    python3 tools/artifact_digests.py [SCENARIO ...] [--seed S] [--paths P]
    python3 tools/artifact_digests.py --config CONFIG.json [--seed S] [--paths P]

Runs each named scenario (all of them by default) through
``mvmlab.scenarios.run_scenario``, at its default seed and path count unless
overridden, and prints, per scenario, the parameters it ran with, the
SHA-256 of each CSV artifact's text and ``repr`` of each check's measured
value.  ``--config`` runs the one scenario of a JSON config instead, read as
``mvmlab run`` reads it (``scenario``, ``seed``, ``paths``, ``params``; an
``out`` directory is ignored, as nothing is written), with the flags
overriding its seed and path count.  Two trees behave the same on a
run when their ``scenarios`` entries are equal, so comparing the output of
this script on a parent and a change shows byte-identical artifacts and
bit-identical checks.  The output also records the Python and numpy
versions, the BLAS numpy was built against and the OpenBLAS kernel it runs
on (``OPENBLAS_CORETYPE`` can pick another one at load time): the last bits
of a contraction depend on both, so only outputs with equal entries for
these are comparable.  It records the usable core count too, which sets how
many threads take path blocks; the digests must not depend on it (compare a
run under ``taskset -c 0``).  Last, it records the checkout's commit and
whether its tree had uncommitted changes (``dirty``), so a run of a change
made before committing is not filed under its parent's hash.  The package
is imported from the ``src`` directory next to this script.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mvmlab.cli import _load_config, _UsageError  # noqa: E402
from mvmlab.scenarios import (SCENARIOS, ScenarioInputError,  # noqa: E402
                              run_scenario)


def blas_kernel() -> str:
    """Name of the kernel numpy's bundled OpenBLAS runs on, or "unknown"
    where numpy carries no such library."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = _git("rev-parse", "--short", "HEAD")
        dirty = bool(_git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_kernel": blas_kernel(),
            "cores": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "commit": commit, "dirty": dirty}


def digests(name: str, seed: int | None, paths: int | None,
            params: dict | None = None) -> dict:
    report = run_scenario(name, seed=seed, paths=paths, params=params)
    return {
        "seed": report.seed,
        "paths": report.paths,
        "params": report.params,
        "all_passed": report.all_passed,
        "artifacts": {
            file: hashlib.sha256(text.encode()).hexdigest()
            for file, text in sorted(report.artifacts.items())
            if file.endswith(".csv")},
        "checks": {c.name: repr(c.measured) for c in report.checks},
    }


def scenario_digests(parser: argparse.ArgumentParser, args) -> dict:
    """Digests of the scenarios `args` names, by scenario name."""
    if args.config is None:
        unknown = sorted(set(args.scenarios) - set(SCENARIOS))
        if unknown:
            parser.error(f"unknown scenarios: {', '.join(unknown)}")
        return {name: digests(name, args.seed, args.paths)
                for name in args.scenarios or list(SCENARIOS)}
    if args.scenarios:
        parser.error("give SCENARIO names or --config, not both")
    try:
        config = _load_config(args.config)
    except _UsageError as exc:
        parser.error(str(exc))
    seed = config.get("seed") if args.seed is None else args.seed
    paths = config.get("paths") if args.paths is None else args.paths
    name = config["scenario"]
    return {name: digests(name, seed, paths, config.get("params", {}))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="scenarios to run (default: all)")
    parser.add_argument("--seed", type=int, help="seed for every scenario")
    parser.add_argument("--paths", type=int, help="path count for every scenario")
    parser.add_argument("--config", metavar="CONFIG",
                        help="JSON scenario config, as for 'mvmlab run'")
    args = parser.parse_args(argv)
    try:
        runs = scenario_digests(parser, args)
    except ScenarioInputError as exc:
        parser.error(str(exc))
    out = {"environment": environment(), "scenarios": runs}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
