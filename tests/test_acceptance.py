"""Acceptance gate: every verification criterion at its stated tolerance.

Each test runs one criterion end to end through the scenario registry at the
pinned defaults, prints a single PASS/FAIL line (visible with ``pytest -s``),
and then asserts — on the checks, on the stated tolerances, and on the
runtime budget.  Nothing here loosens a tolerance: the numbers asserted
against the reports are the published ones.  Every check of provenance
``exact_identity`` must read exactly 0.
"""

import math
import re
import time

from mvmlab.noise import max_z_level
from mvmlab.scenarios import run_scenario

SEPARATOR = "-" * 72


def named(report, name):
    return next(c for c in report.checks if c.name == name)


def z_count(check):
    """The number m of z-scores a Monte Carlo gate took the largest of."""
    return int(re.search(r"largest of (\d+) z-scores$", check.detail).group(1))


def execute(label, budget_seconds, *runs):
    """Run the criterion's scenarios, print its pass/fail line, assert."""
    reports = []
    start = time.perf_counter()
    for scenario, overrides in runs:
        reports.append(run_scenario(scenario, **overrides))
    elapsed = time.perf_counter() - start
    ok = all(r.all_passed for r in reports) and elapsed < budget_seconds
    print(f"{'PASS' if ok else 'FAIL'} {label} "
          f"[{elapsed:.1f}s / budget {budget_seconds:.0f}s]", flush=True)
    for report in reports:
        for check in report.checks:
            if not check.passed:
                print("    " + check.line(), flush=True)
    assert elapsed < budget_seconds, f"{label}: over budget at {elapsed:.1f}s"
    for report in reports:
        for check in report.checks:
            if check.provenance == "monte_carlo_3se":
                assert re.search(r"largest of [1-9]\d* z-scores$",
                                 check.detail), check.as_dict()
            if check.provenance == "exact_identity":
                assert check.measured == 0.0, check.as_dict()
    for report in reports:
        failing = [c.line() for c in report.checks if not c.passed]
        assert report.all_passed, \
            f"{label}: {report.scenario} failed:\n" + "\n".join(failing)
    return reports


def test_supremum_equals_partition_enumeration():
    (report,) = execute(
        "supremum of measures == brute-force partition enumeration "
        "(120 random families, exact)", 5.0,
        ("sup_measures_oracle", {}))
    assert report.params["trials"] >= 100
    assert named(report, "partition_oracle_mismatches").measured == 0.0


def test_white_noise_intensities_and_exact_variation():
    (report,) = execute(
        "white-noise intensities within the calibrated z level and exact "
        "cell variation", 10.0,
        ("white_noise_qv", {}))
    assert report.params["rates"] == [["a", 0.5], ["b", 1.0], ["c", 2.0]]
    assert report.paths == 10_000 and report.params["steps"] == 20
    exact = named(report, "qv_exactness_gap")
    assert exact.tolerance == 1e-12 and exact.measured <= 1e-12
    moment = named(report, "second_moment_max_z")
    assert z_count(moment) == 80
    assert moment.measured <= max_z_level(80)


def test_finite_mark_driver_variation_and_density():
    (report,) = execute(
        "finite-mark driver: sphere supremum within 2% of top eigenvalues, "
        "density matrices within 2% entrywise", 30.0,
        ("discrete_levy_qv", {}))
    assert report.params["dim"] == 4 and report.params["sphere"] == 512
    shortfall = named(report, "qv_rel_shortfall")
    assert shortfall.tolerance == 0.02, "published tolerance is 2%"
    print(f"    measured sphere-sampling shortfall: "
          f"{shortfall.measured:.4%}", flush=True)
    assert named(report, "qm_entrywise_gap").tolerance == 0.02
    assert named(report, "polarization_reconstruction_gap").measured <= 1e-12


def test_vector_valued_driver_rank_one_densities():
    (report,) = execute(
        "vector-valued driver: jump densities match rank-1 projections, "
        "diffusive density matches Q/||Q|| (2% entrywise)", 30.0,
        ("hvalued_levy_qm", {}))
    assert named(report, "qm_entrywise_gap").tolerance == 0.02
    assert named(report, "jump_density_rank1_defect").measured <= 1e-9


def test_divergent_variation_counterexample():
    (report,) = execute(
        "orthonormal-increment driver: partition sums are exactly 2^k and "
        "the supremum trace never saturates", 20.0,
        ("haar_counterexample", {}))
    assert report.params["k_max"] == 8
    assert named(report, "partition_sum_quadrature_gap").measured == 0.0
    assert named(report, "partition_sum_excess_over_2^k").passed
    assert named(report, "trace_ratio_over_2^(k-1)").passed


def test_integration_isometry_five_pairs():
    reports = execute(
        "integration isometry and zero mean, five integrand/driver pairs "
        "(paired differences, calibrated z level)", 60.0,
        ("ito_isometry", {}))
    report = reports[0]
    assert report.paths == 20_000
    z_checks = [c for c in report.checks if c.name.startswith("isometry_z[")]
    mean_checks = [c for c in report.checks
                   if c.name.startswith("zero_mean_z[")]
    assert len(z_checks) == 5 and len(mean_checks) == 5
    for check in z_checks + mean_checks:
        assert check.provenance == "monte_carlo_3se"
        assert check.tolerance == max_z_level(z_count(check))
    assert all(z_count(c) == 1 for c in z_checks)


def test_pathwise_identities_at_float_tolerance():
    stopped, fubini = execute(
        "pathwise identities: stopping, restriction, pushforward, "
        "five-member mixing, localization (exact identities at 0, rounding "
        "identities at 1e-10 x scale)", 30.0,
        ("stopped_integral", {}), ("fubini", {}))
    for name in ("stopped_gap_over_scale", "localization_gap_over_scale"):
        assert named(stopped, name).tolerance == 0.0
    for name in ("restriction_gap_over_scale", "pushforward_gap_over_scale"):
        assert named(stopped, name).tolerance == 1e-10
    assert stopped.params["thresholds"] == [1.0, 2.0, 4.0, 8.0]
    assert named(fubini, "fubini_gap_over_scale").tolerance == 1e-10
    assert fubini.params["family_size"] == 5


def test_heat_equation_full_stack():
    heat, picard = execute(
        "heat equation: exact decay, convolution moments within the "
        "calibrated z level, "
        "Picard contraction at factor 1/8, first-order weak residual", 180.0,
        ("heat_spde", {}), ("picard_contraction", {}))
    zero = named(heat, "zero_noise_gap")
    assert zero.tolerance == 1e-12 and zero.measured <= 1e-12
    additive = named(heat, "additive_solution_gap")
    assert additive.tolerance == 1e-12 and additive.measured <= 1e-12
    assert additive.provenance == "rounding_identity"
    assert heat.paths == 10_000
    assert heat.params["modes"] == 16 and heat.params["steps"] == 64
    slope = named(heat, "weak_residual_order")
    assert 0.7 <= slope.measured <= 1.3
    assert named(picard, "picard_iterations").measured <= 10
    # Both contraction factors are at most 1/8 at the default weight.
    ratio = named(picard, "picard_ratio_vs_bound")
    assert abs(ratio.target - (math.sqrt(0.125) + 0.05)) <= 1e-12
    assert ratio.measured <= ratio.target
    assert named(picard, "picard_final_update").measured <= 1e-6
