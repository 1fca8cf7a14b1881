"""The Monte Carlo gate rule of :meth:`ScenarioResult.add_max_z`, and
scenario checks that must fail on a broken run."""

import math
import re

import numpy as np
import pytest

from mvmlab import integrate, noise, spde
from mvmlab.noise import GATE_ALPHA, MAX_SEED, max_z_level
from mvmlab.scenarios import (SCENARIOS, ScenarioInputError, ScenarioResult,
                              _heat_instance, run_scenario)


@pytest.mark.parametrize("m, level", [(1, 3.2905), (64, 4.3196),
                                      (1024, 4.8962)])
def test_max_z_level_is_the_sidak_level(m, level):
    assert GATE_ALPHA == 1e-3
    assert round(max_z_level(m), 4) == level
    # A fault-free run of m independent z-scores trips with probability alpha.
    per_score = math.erfc(max_z_level(m) / math.sqrt(2.0))
    assert math.isclose(1.0 - (1.0 - per_score) ** m, GATE_ALPHA, rel_tol=1e-9)
    with pytest.raises(ValueError, match="at least one z-score"):
        max_z_level(0)


def test_add_max_z_judges_the_largest_z_score():
    res = ScenarioResult()
    one, two = max_z_level(1), max_z_level(2)
    # z-scores 1, just below z*(3) and (se = 0, mean = target) 0: a pass.
    below = max_z_level(3) * (1.0 - 1e-12)
    z = res.add_max_z("below", [1.0, 1.0 + below, 2.0], [1.0, 1.0, 0.0],
                      [0.0, 1.0, 2.0], "three entries")
    assert z == below
    # z-scores 0.5 and just above z*(2): a fail, over a 2 x 1 array.
    above = two * (1.0 + 1e-12)
    assert res.add_max_z("above", np.array([[0.5], [-above]]), 1.0,
                         0.0) == above
    # se = 0 with the mean off its target scores inf.
    assert res.add_max_z("zero_se_gap", [1.0, 2.0], [1.0, 0.0], 0.0) \
        == math.inf
    # A NaN estimate never passes.
    assert math.isnan(res.add_max_z("nan_se", [1.0], [np.nan], 1.0))
    passed, failed, gap, nan = res.checks
    assert passed.passed and not (failed.passed or gap.passed or nan.passed)
    assert passed.target == passed.tolerance == max_z_level(3)
    assert failed.target == failed.tolerance == two
    assert nan.tolerance == one
    level = f"{max_z_level(3):.4f}"
    assert passed.detail == \
        f"three entries; alpha 0.001, level {level}; largest of 3 z-scores"
    assert failed.detail == f"alpha 0.001, level {two:.4f}; largest of 2 z-scores"
    assert gap.detail.endswith("largest of 2 z-scores")
    assert {c.provenance for c in res.checks} == {"monte_carlo_3se"}


def test_picard_run_without_a_ratio_fails():
    # At drift gain 10, exp(-beta t) underflows at late grid times and the
    # iteration stops after one update: no contraction ratio was measured.
    report = run_scenario("picard_contraction", params={"drift_gain": 10.0})
    assert not report.all_passed
    ratio = next(c for c in report.checks if c.name == "picard_ratio_vs_bound")
    assert ratio.measured == math.inf and not ratio.passed


def test_picard_passes_without_drift():
    # At drift gain 0 the noise is additive and both contraction factors
    # vanish: the second Picard iterate is the fixed point.
    report = run_scenario("picard_contraction", params={"drift_gain": 0.0})
    assert report.all_passed, [c.line() for c in report.checks if not c.passed]
    assert {c.name for c in report.checks} >= {
        "picard_iterations", "picard_final_update", "picard_ratio_vs_bound",
        "fixed_point_uniqueness_gap", "drift_closed_form_gap"}


def test_heat_additive_gap_catches_a_solver_that_drops_x0(monkeypatch):
    # The mild solution must be S(t) x0 plus the convolution; a solver that
    # starts every path from 0 instead of x0 misses the first term.
    small = {"modes": 4, "steps": 8, "residual_paths": 50}

    def gap():
        report = run_scenario("heat_spde", paths=200, params=small)
        return next(c for c in report.checks
                    if c.name == "additive_solution_gap")

    assert gap().passed
    solve = spde.mild_solution
    monkeypatch.setattr(spde, "mild_solution", lambda sg, coeffs, ens, x0:
                        solve(sg, coeffs, ens, np.zeros_like(x0)))
    dropped = gap()
    assert not dropped.passed and dropped.measured > 0.1


def test_heat_instance_bookkeeping():
    # The operator sends channel i to alpha_i sigma_i, so its squared
    # Hilbert-Schmidt norm is sum_i alpha_i^2 ||sigma_i||^2; the driver is
    # one mark with identity Wiener covariance and a rate-2 jump along e_0.
    modes, channels = 5, 3
    spec, f = _heat_instance(17, modes, channels)
    sigma = np.random.default_rng(17).standard_normal((channels, modes)) \
        / np.arange(1, modes + 1)
    alphas = 1.0 / np.arange(1, channels + 1)
    assert f.shape == (modes, channels)
    assert np.array_equal(f, (alphas[:, None] * sigma).T)
    target = float((alphas ** 2 * (sigma ** 2).sum(axis=1)).sum())
    assert abs(float((f ** 2).sum()) - target) <= 1e-12 * target
    (atom,) = spec.atoms
    assert atom.label == "U"
    e0 = np.eye(channels)[0]
    np.testing.assert_allclose(atom.effective_cov(),
                               np.eye(channels) + 2.0 * np.outer(e0, e0))
    # Additive noise: the map ignores the state and returns the one field,
    # as one row that every path shares.
    coeffs = spde.additive_coefficients(f[None])
    for x in (np.ones((2, modes)), np.zeros((4, 3, modes))):
        assert np.array_equal(coeffs.noise(0.0, x), f[None, None])


def test_simple_route_gap_catches_a_grid_that_drops_each_first_cell(
        monkeypatch):
    # integrate_simple sums each term from its first cell on; a simple_to_grid
    # that starts every term one cell late still passes the isometry gates,
    # but no longer agrees with the radonification route.
    def gaps():
        report = run_scenario("ito_isometry", paths=200)
        return [c for c in report.checks
                if c.name.startswith("simple_route_gap_over_scale[")]

    assert len(gaps()) == 2 and all(c.passed for c in gaps())
    materialize = integrate.simple_to_grid
    monkeypatch.setattr(integrate, "simple_to_grid", lambda phi: materialize(
        integrate.SimpleIntegrand(phi.grid, phi.paths, tuple(
            (s + 1, t, *rest) for s, t, *rest in phi.terms))))
    late = gaps()
    assert len(late) == 2
    assert all(not c.passed and c.measured > 0.1 for c in late)


@pytest.mark.parametrize("overrides, rule", [
    ({"seed": 1.7}, "'seed' of scenario 'fubini' must be an integer, got 1.7"),
    ({"seed": True}, "'seed' of scenario 'fubini' must be an integer, got True"),
    ({"paths": 50.9},
     "'paths' of scenario 'fubini' must be an integer, got 50.9"),
    ({"seed": MAX_SEED + 1}, f"must be in 0..{MAX_SEED}, got {MAX_SEED + 1}"),
])
def test_run_scenario_refuses_a_seed_or_path_count_before_running(
        overrides, rule):
    with pytest.raises(ScenarioInputError, match=re.escape(rule)):
        run_scenario("fubini", **overrides)


# Every scenario at a small size: (paths, params).  A scenario missing here
# fails the two tests below.
SMALL = {
    "sup_measures_oracle": (1, {"trials": 2}),
    "white_noise_qv": (100, {"steps": 2}),
    "discrete_levy_qv": (1, {"dim": 2, "steps": 2, "sphere": 8}),
    "hvalued_levy_qm": (100, {"dim": 2, "jumps": 1, "steps": 2,
                              "sphere": 8}),
    "haar_counterexample": (100, {"k_max": 2, "k_sim": 1}),
    "ito_isometry": (2, {}),
    "fubini": (2, {"family_size": 2}),
    "stopped_integral": (2, {}),
    "heat_spde": (4, {"modes": 2, "steps": 4, "residual_paths": 2}),
    "picard_contraction": (4, {"modes": 2, "steps": 4}),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_accepts_the_largest_seed(name):
    paths, params = SMALL[name]
    report = run_scenario(name, seed=MAX_SEED, paths=paths, params=params)
    assert report.seed == MAX_SEED


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_simulation_draws_from_the_run_seed(name, monkeypatch):
    # Runs at neighbouring seeds share no ensemble only if no scenario
    # offsets its seed.
    seeds = []
    draw = noise.simulate

    def spy(spec, grid, paths, seed):
        seeds.append(seed)
        return draw(spec, grid, paths, seed)

    monkeypatch.setattr(noise, "simulate", spy)
    paths, params = SMALL[name]
    run_scenario(name, seed=4242, paths=paths, params=params)
    assert set(seeds) == (set() if name in {"sup_measures_oracle",
                                            "discrete_levy_qv"} else {4242})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_instance_draws_from_the_run_or_instance_seed(name, monkeypatch):
    # A random instance (menu, integrand, test vectors) comes from a
    # generator seeded with the run's seed or a declared instance seed,
    # never with an offset of either.
    seeds = []
    make = np.random.default_rng

    def spy(seed=None):
        seeds.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    paths, params = SMALL[name]
    report = run_scenario(name, seed=4242, paths=paths, params=params)
    declared = {4242} | {report.params[key] for key in
                         ("pair_seed", "instance_seed") if key in report.params}
    assert set(seeds) <= declared, (seeds, declared)


def test_exact_identities_read_zero_and_rounding_identities_are_labelled():
    # An exact identity holds by construction, so at the defaults it reads
    # exactly 0 and is judged at tolerance 0; two routes that round
    # differently are a rounding identity, judged against its tolerance
    # (heat_spde's additive_solution_gap too).
    provenance = {}
    for name in ("stopped_integral", "fubini"):
        for check in run_scenario(name).checks:
            provenance[check.name] = check.provenance
            if check.provenance == "exact_identity":
                assert check.measured == 0.0, check.as_dict()
                assert check.tolerance == 0.0, check.as_dict()
    assert {n for n, p in provenance.items() if p == "exact_identity"} == {
        "stopped_gap_over_scale", "stopping_index_gap",
        "localization_gap_over_scale"}
    assert {n for n, p in provenance.items() if p == "rounding_identity"} == {
        "restriction_gap_over_scale", "pushforward_gap_over_scale",
        "fubini_gap_over_scale"}


def test_fubini_summary_has_no_empty_column():
    text = run_scenario("fubini", paths=200).artifacts["fubini_mixed.csv"]
    lines = text.strip().split("\n")
    assert lines[0] == "t,mean_norm2,se" and len(lines) == 18
    assert "nan" not in text
