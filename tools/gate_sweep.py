"""Measure how often each Monte Carlo gate trips on fault-free runs.

Usage::

    python3 tools/gate_sweep.py --label NAME [--out FILE]

Runs every scenario through ``mvmlab.scenarios.run_scenario`` at seeds
``default + 1000 + s`` for s = 0 .. runs - 1: 40 runs of ``heat_spde``, 25
of ``ito_isometry`` and 200 of each of the other eight, always all of them.
Every check of provenance ``monte_carlo_3se`` reports the largest of its m
z-scores, with m in its detail; the sweep counts, per gate, the runs whose
largest z exceeds ``noise.max_z_level(m)``, the Sidak level z*(m) at
``noise.GATE_ALPHA``.  A fault-free gate at z*(m) trips in about alpha of
its runs.  Failed checks of any other provenance are counted too, with the
seeds they failed at: the false alarms of the analytic bounds, such as
``picard_contraction``'s a-posteriori bound on its Picard limit, which draws
on the seeded paths, and of fixed budgets, such as ``discrete_levy_qv``'s 2%
budgets on its sphere supremum, whose shortfall depends on the seed's
instance.

The result is stored under ``--label`` in ``--out`` (default
``BENCH_gates.json`` at the root of this checkout), with the run's
environment as ``tools/artifact_digests.py`` records it: Python, numpy, the
BLAS and the OpenBLAS kernel, which sets the last bits of every z-value, the
core count, the commit and whether the tree had uncommitted changes
(``dirty``).  A sweep replaces the entry of its own label and keeps the
others, so one file can hold the sweeps of two trees.  The package is
imported from the ``src`` directory next to this script.
"""

import argparse
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import artifact_digests  # noqa: E402  (this script's own directory)
from mvmlab.noise import GATE_ALPHA, max_z_level  # noqa: E402
from mvmlab.scenarios import SCENARIOS, run_scenario  # noqa: E402

RUNS = {"white_noise_qv": 200, "hvalued_levy_qm": 200,
        "haar_counterexample": 200, "picard_contraction": 200,
        "heat_spde": 40, "ito_isometry": 25, "sup_measures_oracle": 200,
        "discrete_levy_qv": 200, "fubini": 200, "stopped_integral": 200}
SEED_OFFSET = 1000
MONTE_CARLO = "monte_carlo_3se"
COUNT = re.compile(r"largest of (\d+) z-scores$")


def sweep(name: str, runs: int) -> dict:
    default = SCENARIOS[name].seed
    gates: dict[str, dict] = {}
    others: dict[str, list[int]] = {}
    for s in range(runs):
        seed = default + SEED_OFFSET + s
        for c in run_scenario(name, seed=seed).checks:
            if c.provenance != MONTE_CARLO:
                if not c.passed:
                    others.setdefault(c.name, []).append(seed)
                continue
            m = int(COUNT.search(c.detail).group(1))
            g = gates.setdefault(c.name, {
                "m": m, "calibrated_level": round(max_z_level(m), 6),
                "runs": 0, "trips_calibrated": 0,
                "worst_z": 0.0, "worst_seed": None, "seeds_tripped": []})
            if g["m"] != m:
                raise ValueError(f"{name} {c.name}: m changed from {g['m']} "
                                 f"to {m}")
            z = c.measured
            g["runs"] += 1
            if not z <= max_z_level(m):
                g["trips_calibrated"] += 1
                g["seeds_tripped"].append(seed)
            if not z <= g["worst_z"]:
                g["worst_z"], g["worst_seed"] = z, seed
    return {"runs": runs, "seeds": [default + SEED_OFFSET,
                                    default + SEED_OFFSET + runs - 1],
            "gates": gates, "other_failed_checks": others}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="key of this sweep in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_gates.json")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = {}
    for name, runs in RUNS.items():
        result[name] = sweep(name, runs)
        for gate, g in result[name]["gates"].items():
            print(f"{name} {gate}: m {g['m']}, trips {g['trips_calibrated']} "
                  f"at {g['calibrated_level']:.4f} in {g['runs']} runs, worst "
                  f"z {g['worst_z']:.4f}", flush=True)
        for check, seeds in result[name]["other_failed_checks"].items():
            print(f"{name} {check}: failed at seeds {seeds}", flush=True)
    stored = json.loads(args.out.read_text(encoding="utf-8")) \
        if args.out.is_file() else {}
    stored.setdefault("alpha", GATE_ALPHA)
    stored.setdefault("seed_rule", f"default + {SEED_OFFSET} + s")
    stored.setdefault("sweeps", {})[args.label] = {
        "env": artifact_digests.environment(),
        "seconds": round(time.perf_counter() - start, 1),
        "scenarios": result}
    args.out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
