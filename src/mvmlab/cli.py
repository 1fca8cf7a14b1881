"""Command-line runner for the verification scenarios.

``mvmlab run config.json`` executes one scenario described by a JSON config
and prints one PASS/FAIL line per check; ``mvmlab list`` shows the available
scenarios with their defaults.  Exit codes: 0 all checks passed, 2 at least
one check failed, 1 usage or configuration error.

Config schema (all keys except "scenario" optional)::

    {
      "scenario": "white_noise_qv",   // one of the registered names
      "seed": 7,                      // the one seed, 0 .. 2^63 - 1
      "paths": 10000,                 // Monte Carlo path count, >= 1
      "out": "results/",              // directory for report + artifacts
      "params": {"steps": 20}         // scenario-specific overrides
    }

Each "params" value must have the JSON type of its default: an integer for
an integer default, any number for a float default (stored as a float), an
array for a list default; booleans are never numbers.  "seed" and "paths"
must be integers.  An unknown scenario, an unknown parameter, a wrong type
or a value out of range exits 1 before the scenario runs.

Command-line flags override config values, which override the scenario
defaults.  For a fixed config and seed the CSV artifacts are byte-identical
across runs, and enlarging "paths" leaves the existing paths unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenarios import (RunReport, ScenarioInputError, list_scenarios,
                        run_scenario)

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exceptions."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvmlab",
                     description="run martingale-noise verification scenarios")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="execute a scenario from a JSON config")
    run.add_argument("config", help="path to the JSON configuration file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the master seed")
    run.add_argument("--paths", type=int, default=None,
                     help="override the Monte Carlo path count")
    run.add_argument("--out", default=None,
                     help="directory to write the report and CSV artifacts")
    sub.add_parser("list", help="list scenarios and their defaults")
    return parser


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise _UsageError("config must be a JSON object")
    allowed = {"scenario", "seed", "paths", "out", "params"}
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise _UsageError(f"unknown config keys {unknown}; allowed keys are "
                          f"{sorted(allowed)}")
    if "scenario" not in config:
        raise _UsageError('config is missing the required "scenario" key')
    if not isinstance(config.get("params", {}), dict):
        raise _UsageError('"params" must be a JSON object')
    return config


def _write_outputs(report: RunReport, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{report.scenario}_report.json").write_text(report.to_json() + "\n",
                                                        encoding="utf-8")
    for name, text in sorted(report.artifacts.items()):
        (out / name).write_text(text, encoding="utf-8")


def _run(args) -> int:
    config = _load_config(args.config)
    seed = config.get("seed") if args.seed is None else args.seed
    paths = config.get("paths") if args.paths is None else args.paths
    out_dir = args.out if args.out is not None else config.get("out")
    try:
        report = run_scenario(config["scenario"], seed=seed, paths=paths,
                              params=config.get("params", {}))
    except ScenarioInputError as exc:
        raise _UsageError(str(exc)) from exc
    for check in report.checks:
        print(check.line())
    print(f"{report.scenario}: {'PASS' if report.all_passed else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} "
          f"checks, {report.wall_clock_seconds:.2f}s)")
    if out_dir is not None:
        _write_outputs(report, out_dir)
        print(f"report and {len(report.artifacts)} artifact file(s) "
              f"written to {out_dir}")
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _run(args)
        if args.command == "list":
            print(list_scenarios(), end="")
            return EXIT_PASS
        raise _UsageError("expected a command: run or list")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
