"""What each benchmark workload runs, with every input pinned.

A workload is a list of scenario runs made through ``mvmlab run`` (plus, for
``identities``, one direct API call).  Every scenario parameter and the path
count are written into the config explicitly rather than left to the
scenario defaults, so that the echo in each report can be compared with what
was asked for and no speed-up can come from a changed default.

``--seed n`` shifts every scenario seed by n; seed 0 reproduces the scenario
defaults, which are the reference figures in README.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScenarioRun:
    scenario: str
    default_seed: int
    paths: int
    params: dict
    artifacts: tuple[str, ...]

    def seed(self, offset: int) -> int:
        return self.default_seed + offset


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[ScenarioRun, ...]
    # Direct API operations run after the scenarios, by name (see child.py).
    direct: tuple[str, ...] = field(default=())


# The shared-integrand stopping identity raises on every call until one
# contraction layout serves shared and per-path integrands alike: integrate_grid
# contracts a shared field with "cagh,pcah->pcg" and the truncated, per-path copy
# with "pcagh,pcah->pcg", and the two round differently.  An error counts as
# this fault only while the gap it reports is a rounding gap (the identity's
# scale is at least 1, so an absolute gap bounds the relative one); a larger
# gap is a real failure.
KNOWN_FAULT_GAP = 1e-10
KNOWN_FAULT_ERROR = re.compile(
    r"RuntimeError: stopped-integral identity violated \(gap (\d\.\d+e[+-]\d+)\)")
KNOWN_FAULTS = {
    "integrate.stopped_integral[shared]":
        "integrate_grid contracts a shared integrand with 'cagh,pcah->pcg' and "
        "its per-path truncation with 'pcagh,pcah->pcg'; the two einsum paths "
        "round differently, so the exact stopping identity reports a gap > 0",
}


def is_known_fault(name: str, error: str | None) -> bool:
    match = KNOWN_FAULT_ERROR.fullmatch(error or "")
    return name in KNOWN_FAULTS and match is not None and \
        0.0 < float(match.group(1)) <= KNOWN_FAULT_GAP


ISOMETRY = ScenarioRun(
    "ito_isometry", 11, 20_000, {"pair_seed": 23},
    ("ito_isometry_report.json", "ito_isometry_pairs.csv",
     "ito_isometry_profile.csv"))

STOPPED = ScenarioRun(
    "stopped_integral", 17, 20_000,
    {"tol": 1e-10, "thresholds": [1.0, 2.0, 4.0, 8.0]},
    ("stopped_integral_report.json",))

HEAT = ScenarioRun(
    "heat_spde", 9, 10_000,
    {"modes": 16, "steps": 64, "channels": 4, "instance_seed": 2,
     "residual_paths": 400, "slope_band": 0.3},
    ("heat_spde_report.json", "heat_convolution.csv", "heat_solution.csv",
     "heat_weak_residual.csv"))

PICARD = ScenarioRun(
    "picard_contraction", 19, 500,
    {"modes": 16, "steps": 32, "channels": 4, "instance_seed": 2,
     "drift_gain": 1.0, "tol": 1e-6, "max_iter": 12},
    ("picard_contraction_report.json", "picard_trace.csv"))

DISCRETE_LEVY = ScenarioRun(
    "discrete_levy_qv", 27, 1,
    {"dim": 4, "t_max": 1.0, "steps": 4096, "sphere": 512, "sphere_seed": 11,
     "qv_rtol": 0.02, "qm_atol": 0.02},
    ("discrete_levy_qv_report.json", "discrete_levy_qv.csv",
     "discrete_levy_qm.csv"))

WORKLOADS = {w.name: w for w in (
    Workload("isometry",
             "ito_isometry at 20k paths: noise.simulate dominates, so it shows "
             "sampler changes",
             (ISOMETRY,)),
    Workload("identities",
             "stopped_integral at 20k paths on per-path (5-d) integrands plus "
             "the shared-integrand stopping call: the contraction kernel",
             (STOPPED,), ("integrate.stopped_integral[shared]",)),
    Workload("heat",
             "heat_spde then picard_contraction: stochastic convolution and "
             "Picard time scans, and their peak memory",
             (HEAT, PICARD)),
    Workload("qv_fine_grid",
             "discrete_levy_qv at 4096 steps draws no paths: per-cell eigh "
             "and CSV output, unchanged by sampler work",
             (DISCRETE_LEVY,)),
)}
