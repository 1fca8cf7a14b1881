"""Semigroups, stochastic convolution, the forward pass, Picard iteration,
weak residuals."""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mvmlab import measures
from mvmlab.hilbert import sphere_sequence
from mvmlab.integrate import (GridIntegrand, SimpleIntegrand, SimpleTerm,
                              simple_to_grid)
from mvmlab.measures import DiscreteMeasure, GridMismatchError
from mvmlab.noise import (DiscreteLevy, DiscreteLevyAtom, default_grid,
                          intensity_family, max_z_level, mean_se, simulate)
from mvmlab.quadvar import bilinear_field, qm_density, qv_supremum
from mvmlab.spde import (CoefficientSpec, DiagonalSemigroup,
                         additive_coefficients, contraction_factors, convolution_second_moment,
                         default_beta, heat_semigroup,
                         linear_drift_coefficients, mild_solution,
                         picard_solve, stochastic_convolution, v_beta_distance,
                         weak_residual)
from mvmlab.scenarios import _heat_instance


def heat_parts(sigma, alphas):
    """The heat equation on sigma.shape[1] modes with additive noise: the
    operator sends channel i to alpha_i sigma_i, and the driver is one mark
    with identity Wiener covariance on the channels."""
    f = (alphas[:, None] * sigma).T
    atom = DiscreteLevyAtom("U", brownian_cov=np.eye(len(alphas)))
    spec = DiscreteLevy((atom,))
    return SimpleNamespace(semigroup=heat_semigroup(sigma.shape[1]),
                           coefficients=additive_coefficients(f[None]),
                           noise_spec=spec, f_matrix=f)


@pytest.fixture(scope="module")
def heat():
    rng = np.random.default_rng(400)
    sigma = rng.standard_normal((2, 4)) / np.arange(1, 5)
    return heat_parts(sigma, np.array([1.0, 0.5]))


def qm_qv_for(spec, grid, dim):
    family = intensity_family(spec, grid)
    est = qv_supremum(family, sphere_sequence(dim, max(2, 128 * dim)))
    return qm_density(bilinear_field(family), est), est


# ---------------------------------------------------------------------------
# semigroup


def test_heat_semigroup_rates_and_actions():
    sg = heat_semigroup(5)
    np.testing.assert_allclose(sg.rates,
                               (np.arange(1, 6) * np.pi) ** 2, rtol=1e-15)
    v = np.arange(5.0)
    # One cell of the scan applies S(0.3) to its contribution; a path-less
    # recursion is one row.
    np.testing.assert_allclose(
        sg.scan(np.array([0.0, 0.3]), lambda rows, m, x: v,
                np.zeros((1, 5)))[0, 1],
        v * np.exp(-sg.rates * 0.3))
    with pytest.raises(ValueError, match="nonempty"):
        DiagonalSemigroup(np.empty(0))
    with pytest.raises(ValueError, match="negative decay"):
        DiagonalSemigroup(np.array([1.0, -2.0]))


def decayed_sum_oracle(rates, times, contrib):
    # [DERIVED] oracle: X_m = sum_{i<m} exp(-l_k (t_m - t_i)) c_i, summed
    # term by term with one exp per (m, i) pair.
    out = np.zeros(contrib.shape[:-2] + (len(times), len(rates)))
    for m in range(len(times)):
        for i in range(m):
            out[..., m, :] += np.exp(-rates * (times[m] - times[i])) \
                * contrib[..., i, :]
    return out


def test_scan_matches_loop_oracle(heat):
    rng = np.random.default_rng(51)
    sg = DiagonalSemigroup(np.array([0.5, 3.0, 40.0]))
    times = np.array([0.0, 0.2, 0.5, 0.6, 1.0, 1.05])
    per_path = rng.standard_normal((4, 5, 3))

    def step(rows, m, x):
        assert x.shape == (len(per_path[rows]), 3)
        return per_path[rows, m]

    got = sg.scan(times, step, np.zeros((4, 3)))
    assert got.shape == (4, 6, 3)
    assert np.all(got[:, 0] == 0.0)
    np.testing.assert_allclose(
        got, decayed_sum_oracle(sg.rates, times, per_path), rtol=1e-13)
    # Started from x0, shared or one per path, the scan adds S(t_m) x0.
    for x0 in (np.broadcast_to(rng.standard_normal(3), (4, 3)),
               rng.standard_normal((4, 3))):
        got = sg.scan(times, step, x0)
        assert np.array_equal(got[:, 0], x0)
        expect = np.exp(-np.outer(times, sg.rates)) * x0[:, None, :] \
            + decayed_sum_oracle(sg.rates, times, per_path)
        np.testing.assert_allclose(got, expect, rtol=1e-13)
    # A step that reads the states: on 2,500 paths (three blocks, the last
    # one short) every block is asked about its own rows at every step, and
    # each path follows its own loop X_{m+1} = S(dt_m) (X_m + X_m / 2 + c_m).
    paths = 2_500
    contrib = rng.standard_normal((paths, 5, 3))
    x0 = rng.standard_normal((paths, 3))
    asked = []

    def reads_state(rows, m, x):
        asked.append((rows.start, rows.stop, m))
        return 0.5 * x + contrib[rows, m]

    got = sg.scan(times, reads_state, x0)
    assert sorted(asked) == [(lo, min(lo + 1024, paths), m)
                             for lo in (0, 1024, 2048) for m in range(5)]
    expect = np.empty_like(got)
    for p in (0, 1023, 1024, 2047, 2048, paths - 1):
        x = expect[p, 0] = x0[p]
        for m in range(5):
            decay = np.exp(-sg.rates * (times[m + 1] - times[m]))
            x = expect[p, m + 1] = decay * (x + (0.5 * x + contrib[p, m]))
        assert np.array_equal(got[p], expect[p])
    # The doubled-rate scan behind the closed-form convolution moment.
    grid = default_grid(heat.noise_spec, 1.0, 8)
    qm, qv = qm_qv_for(heat.noise_spec, grid, 2)
    phi = GridIntegrand.constant(grid, heat.f_matrix)
    weighted = qv.cell_mass[:, :, None, None] * qm.matrices
    per_mode = np.einsum("iagh,iahl,iagl->ig", phi.values[0], weighted,
                         phi.values[0])
    times = np.asarray(grid.time_points)
    expect = decayed_sum_oracle(2 * heat.semigroup.rates, times,
                                per_mode).sum(axis=1)
    np.testing.assert_allclose(
        convolution_second_moment(heat.semigroup, phi, qm, qv), expect,
        rtol=1e-13)


# ---------------------------------------------------------------------------
# stochastic convolution


def test_convolution_matches_loop_oracle(heat):
    grid = default_grid(heat.noise_spec, 1.0, 6)
    ens = simulate(heat.noise_spec, grid, 8, 41)
    phi = GridIntegrand.constant(grid, heat.f_matrix)
    conv = stochastic_convolution(heat.semigroup, phi, ens)
    # [DERIVED] oracle: direct triple loop over paths, output times, cells.
    times = np.asarray(grid.time_points)
    for p in range(8):
        for m in range(len(times)):
            acc = np.zeros(heat.semigroup.dim)
            for i in range(grid.n_cells):
                if times[i] >= times[m]:
                    break
                inc = ens.increments[p, i, 0]
                acc += np.exp(-heat.semigroup.rates * (times[m] - times[i])) \
                    * (heat.f_matrix @ inc)
            np.testing.assert_allclose(conv[p, m], acc, atol=1e-12)


def test_convolution_second_moment_empirical(heat):
    grid = default_grid(heat.noise_spec, 1.0, 16)
    qm, qv = qm_qv_for(heat.noise_spec, grid, 2)
    phi = GridIntegrand.constant(grid, heat.f_matrix)
    target = convolution_second_moment(heat.semigroup, phi, qm, qv)
    ens = simulate(heat.noise_spec, grid, 6000, 43)
    conv = stochastic_convolution(heat.semigroup, phi, ens)
    mean, se = mean_se((conv ** 2).sum(axis=2))
    z = np.abs(mean[1:] - target[1:]) / se[1:]
    assert z.max() <= max_z_level(z.size)
    assert target[0] == 0.0


def test_convolution_validation(heat):
    grid = default_grid(heat.noise_spec, 1.0, 4)
    ens = simulate(heat.noise_spec, grid, 4, 47)
    with pytest.raises(ValueError, match="semigroup acts on"):
        stochastic_convolution(DiagonalSemigroup(np.ones(3)),
                               GridIntegrand.constant(grid, heat.f_matrix),
                               ens)
    per_path = GridIntegrand(grid, np.ones((4, 4, 1, 4, 2)))
    qm, qv = qm_qv_for(heat.noise_spec, grid, 2)
    with pytest.raises(ValueError, match="deterministic"):
        convolution_second_moment(heat.semigroup, per_path, qm, qv)
    moved = DiscreteMeasure(default_grid(heat.noise_spec, 2.0, 4), qv.cell_mass)
    with pytest.raises(GridMismatchError, match="quadratic variation"):
        convolution_second_moment(heat.semigroup,
                                  GridIntegrand.constant(grid, heat.f_matrix),
                                  qm, moved)
    spec = DiscreteLevy((DiscreteLevyAtom("a", brownian_cov=np.eye(4)),))
    grid = default_grid(spec, 1.0, 5)
    ens = simulate(spec, grid, 1, 0)
    sg = DiagonalSemigroup(np.ones(3))
    # 2 paths x 5 cells x 1 atom x dim 2 is as many increments as the
    # ensemble holds, so only the fit checks catch the mismatch.
    wrong_dim = GridIntegrand(grid, np.ones((2, 5, 1, 3, 2)))
    with pytest.raises(ValueError, match="integrand expects dim 2, driver has 4"):
        stochastic_convolution(sg, wrong_dim, ens)
    wrong_paths = GridIntegrand(grid, np.ones((2, 5, 1, 3, 4)))
    with pytest.raises(ValueError, match="does not match the path count"):
        stochastic_convolution(sg, wrong_paths, ens)
    fits = GridIntegrand(grid, np.ones((1, 5, 1, 3, 4)))
    assert stochastic_convolution(sg, fits, ens).shape == (1, 6, 3)


def test_convolution_holds_no_actions_of_the_whole_ensemble(monkeypatch):
    # The heat_spde instance on 64 steps and 8,192 paths: each step of a
    # path block contracts one cell of the block's rows, so on one thread
    # the traced peak stays near the output, not near the output plus a
    # (paths, cells, G) array of actions.
    monkeypatch.setattr(measures, "_WORKERS", 1)
    spec, f = _heat_instance(2, 16, 4)
    ens = simulate(spec, default_grid(spec, 1.0, 64), 8_192, 9)
    phi = GridIntegrand.constant(ens.grid, f)
    tracemalloc.start()
    try:
        out = stochastic_convolution(heat_semigroup(16), phi, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (8_192, 65, 16)
    assert peak <= 1.25 * out.nbytes


def test_residual_and_picard_hold_no_second_ensemble_temporaries(monkeypatch):
    # The heat instance on 16 modes, 64 steps and 4,096 paths, with drift
    # gain 1: on one thread the weak residual's traced peak stays near its
    # result plus one difference of the solution, not near a stack of cell
    # terms and their running sums, and the Picard solve's near its two
    # iterates, not near their whole-ensemble difference and its square.
    monkeypatch.setattr(measures, "_WORKERS", 1)
    spec, f = _heat_instance(2, 16, 4)
    ens = simulate(spec, default_grid(spec, 1.0, 64), 4_096, 9)
    sg = heat_semigroup(16)
    coeffs = linear_drift_coefficients(1.0, f[None])
    x0 = 1.0 / np.arange(1, 17)
    x = mild_solution(sg, coeffs, ens, x0)

    def traced(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    residuals, peak = traced(lambda: weak_residual(x, sg, coeffs, ens))
    assert residuals.shape == (4_096, 65, 16)
    assert peak <= 2.25 * residuals.nbytes
    sol, peak = traced(lambda: picard_solve(sg, coeffs, ens, x0))
    assert sol.values.shape == (4_096, 65, 16)
    assert peak <= 2.75 * sol.values.nbytes


def test_scans_do_not_depend_on_the_thread_count(heat, monkeypatch):
    # 2,500 paths are three blocks, the last one short: scanned by the
    # default threads, by one and by three, the convolutions of a shared, a
    # per-path and a table field, the forward pass under a per-path
    # state-dependent noise map, the Picard solve, the weak residual under
    # that map and a weighted distance are the same bytes, and the table
    # field's convolution is the bytes of its dense copy's.
    grid = default_grid(heat.noise_spec, 1.0, 8)
    ens = simulate(heat.noise_spec, grid, 2_500, 73)
    rng = np.random.default_rng(74)
    sg, f = heat.semigroup, heat.f_matrix
    shared = GridIntegrand(grid, rng.standard_normal((1, 8, 1) + f.shape))
    per_path = GridIntegrand.from_history(ens, lambda past, i: f * (
        1.0 + 0.5 * np.tanh(past.sum(axis=(1, 2, 3))))[:, None, None, None])

    def up(past):
        return past[:, :, 0, 0].sum(axis=1) > 0

    table = simple_to_grid(SimpleIntegrand.build(ens, [
        SimpleTerm(0, 2, (0,), rng.standard_normal(f.shape)),
        SimpleTerm(2, 3, (0,), rng.standard_normal(f.shape),
                   event=lambda past: past[:, :, 0, 1].sum(axis=1) > 0),
        SimpleTerm(3, 8, (0,), rng.standard_normal(f.shape), event=up),
        SimpleTerm(3, 8, (0,), rng.standard_normal(f.shape),
                   event=lambda past: ~up(past))]))
    assert len(table.values) == 4 and table.index is not None
    dense = GridIntegrand(grid, table.values[table.index])
    coeffs = CoefficientSpec(
        drift=lambda t, x: np.sin(x) - 0.5 * x, drift_bound=1.5,
        noise=lambda t, x: f[None] * (1.0 + 0.5 * np.tanh(x))[..., None, :,
                                                              None],
        noise_bound=1.0)
    x0 = np.linspace(1.0, -0.5, sg.dim)

    def results():
        sol = picard_solve(sg, coeffs, ens, x0)
        forward = mild_solution(sg, coeffs, ens, x0)
        return [*(stochastic_convolution(sg, phi, ens)
                  for phi in (shared, per_path, table, dense)),
                forward, sol.values, np.array(sol.picard_trace),
                weak_residual(forward, sg, coeffs, ens),
                np.array(v_beta_distance(forward, sol.values, ens.times,
                                         sol.beta))]

    default = [a.tobytes() for a in results()]
    assert default[2] == default[3]
    for workers in (1, 3):
        monkeypatch.setattr(measures, "_WORKERS", workers)
        assert [a.tobytes() for a in results()] == default


# ---------------------------------------------------------------------------
# contraction bookkeeping


def test_v_beta_distance_matches_loop_oracle():
    rng = np.random.default_rng(16)
    times = np.linspace(0.0, 1.0, 9)
    a = rng.standard_normal((5, 9, 3))
    b = rng.standard_normal((5, 9, 3))
    beta = 2.5
    total = 0.0
    for p in range(5):
        for i in range(8):
            gap = ((a[p, i] - b[p, i]) ** 2).sum()
            total += np.exp(-beta * times[i]) * gap * (times[i + 1] - times[i])
    expect = np.sqrt(total / 5)
    assert v_beta_distance(a, b, times, beta) == pytest.approx(expect,
                                                               rel=1e-12)


def test_v_beta_distance_refuses_paths_it_would_broadcast():
    # One path against five, or a grid of the wrong length, would broadcast
    # or misalign silently: both are refused by their shapes.
    rng = np.random.default_rng(17)
    times = np.linspace(0.0, 1.0, 9)
    a = rng.standard_normal((5, 9, 3))
    with pytest.raises(ValueError, match=re.escape("(1, 9, 3) and (5, 9, 3)")):
        v_beta_distance(a[:1], a, times, 1.0)
    with pytest.raises(ValueError, match=re.escape("(5, 9, 3) and (5, 9, 2)")):
        v_beta_distance(a, a[..., :2], times, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            "(5, 9, 3) and (5, 9, 3) on 8 times")):
        v_beta_distance(a, a, times[:-1], 1.0)
    assert v_beta_distance(a, a, times, 1.0) == 0.0


def test_default_beta_pins_factors_at_an_eighth():
    coeffs = linear_drift_coefficients(1.7)
    beta = default_beta(coeffs, 1.0)
    fb, ff = contraction_factors(coeffs, 1.0, beta)
    assert fb == pytest.approx(0.125, abs=1e-15)
    assert ff == 0.0
    # No constants at all: the weight defaults to one.
    assert default_beta(CoefficientSpec(), 1.0) == 1.0


def test_coefficient_spec_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CoefficientSpec(drift_bound=-1.0)
    with pytest.raises(ValueError, match="atoms, G, H"):
        additive_coefficients(np.ones((2, 2)))
    with pytest.raises(ValueError, match="atoms, G, H"):
        linear_drift_coefficients(1.0, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# the forward pass and Picard iteration


def test_additive_fixed_point_is_semigroup_plus_convolution(heat):
    grid = default_grid(heat.noise_spec, 1.0, 12)
    ens = simulate(heat.noise_spec, grid, 64, 53)
    x0 = np.linspace(1.0, 0.25, heat.semigroup.dim)
    sol = picard_solve(heat.semigroup, heat.coefficients, ens, x0)
    assert sol.picard_trace[-1] <= 1e-8 and sol.iterations <= 2
    times = np.asarray(grid.time_points)
    sem = np.exp(-np.outer(times, heat.semigroup.rates)) * x0
    phi = GridIntegrand(grid, np.broadcast_to(
        heat.f_matrix, (1, grid.n_cells, 1) + heat.f_matrix.shape).copy())
    conv = stochastic_convolution(heat.semigroup, phi, ens)
    np.testing.assert_allclose(sol.values, sem[None] + conv, atol=1e-12)
    # Additive contributions ignore the state: the first Picard update and
    # the forward pass make the same scan.
    assert np.array_equal(
        mild_solution(heat.semigroup, heat.coefficients, ens, x0), sol.values)


def test_zero_noise_linear_drift_solves_discrete_mild_equation():
    # [DERIVED] oracle: with no noise the mild equation on the grid is a
    # strict lower-triangular linear system per mode; solve it directly.
    sg = DiagonalSemigroup(np.array([1.0, 4.0, 9.0]))
    gain = 1.0
    coeffs = linear_drift_coefficients(gain)
    silent = DiscreteLevy((DiscreteLevyAtom("z",
                                            brownian_cov=np.zeros((3, 3))),))
    grid = default_grid(silent, 1.0, 16)
    ens = simulate(silent, grid, 2, 59)
    assert np.all(ens.increments == 0.0)
    x0 = np.array([2.0, -1.0, 0.5])
    sol = picard_solve(sg, coeffs, ens, x0, tol=1e-12, max_iter=60)
    assert sol.picard_trace[-1] <= 1e-12
    forward = mild_solution(sg, coeffs, ens, x0)
    times = np.asarray(grid.time_points)
    dt = np.diff(times)
    gaps = times[:, None] - times[None, :-1]
    for k in range(3):
        decay = np.where(gaps > 0, np.exp(-sg.rates[k] * gaps), 0.0)
        a = np.eye(len(times))
        a[:, :-1] -= gain * decay * dt[None, :]
        rhs = np.exp(-sg.rates[k] * times) * x0[k]
        expect = np.linalg.solve(a, rhs)
        np.testing.assert_allclose(sol.values[0, :, k], expect, atol=1e-9)
        np.testing.assert_allclose(forward[0, :, k], expect, atol=1e-12)
    np.testing.assert_allclose(sol.values[0], sol.values[1], atol=1e-15)
    assert np.array_equal(forward[0], forward[1])


def test_picard_contraction_diagnostics(heat):
    grid = default_grid(heat.noise_spec, 1.0, 16)
    ens = simulate(heat.noise_spec, grid, 200, 61)
    coeffs = linear_drift_coefficients(1.0, heat.f_matrix[None])
    x0 = np.full(heat.semigroup.dim, 0.5)
    sol = picard_solve(heat.semigroup, coeffs, ens, x0, tol=1e-9)
    assert sol.iterations <= 12
    fb, ff = contraction_factors(coeffs, 1.0, sol.beta)
    limit = np.sqrt(2 * (fb + ff))
    assert all(r <= limit + 0.05 for r in sol.ratios())
    assert sol.picard_trace[-1] <= 1e-9
    # The limit lies within the a-posteriori estimate update q / (1 - q) of
    # the fixed point, which is the forward pass.
    q = np.sqrt(max(fb, ff))
    forward = mild_solution(heat.semigroup, coeffs, ens, x0)
    assert v_beta_distance(sol.values, forward, ens.times, sol.beta) \
        <= sol.picard_trace[-1] * q / (1 - q)


def test_picard_iterate_k_is_the_forward_pass_up_to_time_k(heat):
    # The mild map is strictly causal, so Picard iterate k agrees with the
    # forward pass, bit for bit, on the grid times 0..k; a map that reads a
    # state at or after its own cell breaks this at time 1.
    grid = default_grid(heat.noise_spec, 1.0, 8)
    ens = simulate(heat.noise_spec, grid, 50, 62)
    base = heat.f_matrix[None]
    coeffs = CoefficientSpec(
        drift=lambda t, x: np.sin(x) - 0.5 * x, drift_bound=1.5,
        noise=lambda t, x: base * (1.0 + 0.5 * np.tanh(x))[..., None, :, None],
        noise_bound=1.0)
    x0 = np.linspace(1.0, -0.5, heat.semigroup.dim)
    forward = mild_solution(heat.semigroup, coeffs, ens, x0)
    for k in (1, 2, 3):
        sol = picard_solve(heat.semigroup, coeffs, ens, x0, tol=0.0,
                           max_iter=k)
        assert sol.iterations == k
        assert np.array_equal(sol.values[:, :k + 1], forward[:, :k + 1])
        assert not np.array_equal(sol.values[:, k + 1], forward[:, k + 1])


def test_state_dependent_noise_fixed_point_matches_loop_oracle(heat):
    grid = default_grid(heat.noise_spec, 1.0, 16)
    ens = simulate(heat.noise_spec, grid, 300, 63)
    # Mode k of every operator row is modulated by 1 + 0.5 tanh(x_k): bounded
    # and 0.5-Lipschitz.
    base = heat.f_matrix[None]
    coeffs = CoefficientSpec(
        noise=lambda t, x: base * (1.0 + 0.5 * np.tanh(x))[..., None, :, None],
        noise_bound=1.0)
    x0 = np.full(heat.semigroup.dim, 0.5)
    sol = picard_solve(heat.semigroup, coeffs, ens, x0, tol=1e-12)
    assert sol.picard_trace[-1] <= 1e-12
    # [DERIVED] oracle: one application of the mild map, written as a dense
    # loop over paths, output times and earlier cells; the fixed point is
    # left unchanged by it.
    times = np.asarray(grid.time_points)
    dt = np.diff(times)
    x = sol.values
    mapped = np.empty_like(x)
    for p in range(ens.paths):
        for m in range(len(times)):
            acc = np.exp(-heat.semigroup.rates * times[m]) * x0
            for i in range(m):
                field = coeffs.noise(times[i], x[p, i])
                acc = acc + np.exp(-heat.semigroup.rates * (times[m] - times[i])) \
                    * (field[0] @ ens.increments[p, i, 0])
            mapped[p, m] = acc
    np.testing.assert_allclose(x, mapped, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        mild_solution(heat.semigroup, coeffs, ens, x0), mapped, rtol=0,
        atol=1e-12)
    # [DERIVED] oracle: the weak-form defect along mode k, accumulated cell
    # by cell with the noise evaluated at left endpoints.
    k, lam = 1, heat.semigroup.rates[1]
    expect = np.zeros((ens.paths, len(times)))
    for i in range(grid.n_cells):
        row_k = coeffs.noise(times[i], x[:, i])[:, 0, k]
        noise_k = np.einsum("ph,ph->p", row_k, ens.increments[:, i, 0])
        expect[:, i + 1] = expect[:, i] + lam * x[:, i, k] * dt[i] - noise_k
    expect += x[:, :, k] - x[:, :1, k]
    residuals = weak_residual(x, heat.semigroup, coeffs, ens)
    np.testing.assert_allclose(residuals[:, :, k], expect, rtol=0, atol=1e-12)


def test_constant_noise_map_gives_the_additive_solution_bitwise():
    # A state-free map returning one (atoms, G, H) field as one row is a
    # shared integrand, its per-path broadcast a per-path one: both reach the one
    # cell contraction, so the Picard iterates, solutions and weak residuals
    # must come out bitwise equal.
    rng = np.random.default_rng(64)
    ex = heat_parts(rng.standard_normal((2, 8)) / np.arange(1, 9),
                    np.array([1.0, 0.5]))
    grid = default_grid(ex.noise_spec, 1.0, 16)
    ens = simulate(ex.noise_spec, grid, 300, 65)
    mats = ex.f_matrix[None]
    shared = linear_drift_coefficients(0.5, mats)
    assert shared.noise(0.0, np.ones((3, ex.semigroup.dim))).shape \
        == (1,) + mats.shape
    per_path = CoefficientSpec(
        drift=shared.drift, drift_bound=shared.drift_bound,
        noise=lambda t, x: np.broadcast_to(mats, x.shape[:-1] + mats.shape))
    x0 = np.full(ex.semigroup.dim, 0.5)
    sols = [picard_solve(ex.semigroup, c, ens, x0)
            for c in (shared, per_path)]
    assert sols[0].picard_trace[-1] <= 1e-8
    assert sols[0].picard_trace == sols[1].picard_trace
    assert np.array_equal(sols[0].values, sols[1].values)
    assert np.array_equal(mild_solution(ex.semigroup, shared, ens, x0),
                          mild_solution(ex.semigroup, per_path, ens, x0))
    assert np.array_equal(
        weak_residual(sols[0].values, ex.semigroup, shared, ens),
        weak_residual(sols[0].values, ex.semigroup, per_path, ens))


def test_noise_map_of_the_wrong_dimension_is_rejected(heat):
    grid = default_grid(heat.noise_spec, 1.0, 8)
    ens = simulate(heat.noise_spec, grid, 8, 66)
    wide = np.ones((1, heat.semigroup.dim, ens.dim + 1))
    coeffs = CoefficientSpec(
        noise=lambda t, x: np.broadcast_to(wide, x.shape[:-1] + wide.shape),
        noise_bound=1.0)
    x0 = np.zeros(heat.semigroup.dim)
    for solve in (picard_solve, mild_solution):
        with pytest.raises(ValueError,
                           match="integrand expects dim 3, driver has 2"):
            solve(heat.semigroup, coeffs, ens, x0)
    # A noise map must return a rows axis: one field of (atoms, G, H) is
    # refused, not read as one row per atom.
    bare = CoefficientSpec(noise=lambda t, x: heat.f_matrix[None])
    with pytest.raises(ValueError, match="does not match the path count"):
        mild_solution(heat.semigroup, bare, ens, x0)
    # Maps into a state space of the wrong dimension G: a noise map, a
    # state-free noise field and a drift, each one mode short.
    short = heat.f_matrix[None, :-1]
    short_noise = CoefficientSpec(
        noise=lambda t, x: np.broadcast_to(short, x.shape[:-1] + short.shape),
        noise_bound=1.0)
    drift = CoefficientSpec(drift=lambda t, x: x[..., :-1], drift_bound=1.0)
    for wrong in (short_noise, additive_coefficients(short), drift):
        for solve in (picard_solve, mild_solution):
            with pytest.raises(ValueError, match="semigroup acts on dim 4, "
                               "contributions have dim 3"):
                solve(heat.semigroup, wrong, ens, x0)
    # Next to the heat noise a drift into 1 mode would broadcast against
    # the 4 noise modes, and one into 3 modes would not broadcast at all:
    # the Picard map, the forward pass and the weak residual must name the
    # mismatch.
    x = mild_solution(heat.semigroup, heat.coefficients, ens, x0)
    for g in (1, 3):
        wrong = CoefficientSpec(drift=lambda t, x, g=g: x[..., :g],
                                drift_bound=1.0,
                                noise=heat.coefficients.noise)
        message = f"semigroup acts on dim 4, contributions have dim {g}"
        for solve in (picard_solve, mild_solution):
            with pytest.raises(ValueError, match=message):
                solve(heat.semigroup, wrong, ens, x0)
        with pytest.raises(ValueError, match=message):
            weak_residual(x, heat.semigroup, wrong, ens)


def test_picard_rejects_an_initial_state_of_the_wrong_dimension(heat):
    grid = default_grid(heat.noise_spec, 1.0, 8)
    ens = simulate(heat.noise_spec, grid, 8, 67)
    coeffs = linear_drift_coefficients(2.0)
    for solve in (picard_solve, mild_solution):
        with pytest.raises(ValueError, match="mode count"):
            solve(heat.semigroup, coeffs, ens, np.zeros(3))


def test_an_initial_state_is_one_state_or_one_per_path(heat):
    # Neither one state nor one per path, an initial state is refused by its
    # shape; one per path starts each path from its own state, as a shared
    # state does.
    grid = default_grid(heat.noise_spec, 1.0, 8)
    ens = simulate(heat.noise_spec, grid, 5, 68)
    sg = heat.semigroup
    for x0 in (np.zeros((3, sg.dim)), np.zeros((1, sg.dim)),
               np.zeros((5, 1, sg.dim))):
        for solve in (picard_solve, mild_solution):
            with pytest.raises(ValueError, match=r"initial state of shape "
                               + re.escape(str(x0.shape))):
                solve(sg, heat.coefficients, ens, x0)
    starts = np.random.default_rng(69).standard_normal((5, sg.dim))
    each = mild_solution(sg, heat.coefficients, ens, starts)
    for p in range(5):
        assert np.array_equal(
            each[p], mild_solution(sg, heat.coefficients, ens, starts[p])[p])


# ---------------------------------------------------------------------------
# weak residual


def test_weak_residual_refuses_a_solution_of_another_shape(heat):
    # A solution with one path or with five, on a 10-path ensemble, or one
    # mode short, is refused by its shape, not broadcast or failed inside
    # numpy.
    grid = default_grid(heat.noise_spec, 1.0, 16)
    ens = simulate(heat.noise_spec, grid, 10, 72)
    sg = heat.semigroup
    x = mild_solution(sg, heat.coefficients, ens, np.ones(sg.dim))
    for wrong in (x[:1], x[:5], x[..., :-1]):
        with pytest.raises(ValueError, match=re.escape(
                f"solution of shape {wrong.shape}") + ".*"
                + re.escape("(10, 17, 4)")):
            weak_residual(wrong, sg, heat.coefficients, ens)
    assert weak_residual(x, sg, heat.coefficients, ens).shape == x.shape


def test_weak_residual_zero_noise_closed_form():
    # [DERIVED] closed form for the pure-decay case: the residual is exactly
    # the left-endpoint quadrature error of the decay integral,
    # x0 (e^{-l t_m} - 1 + l dt (1 - e^{-l t_m}) / (1 - e^{-l dt})).
    sg = DiagonalSemigroup(np.array([2.0, 5.0]))
    silent = DiscreteLevy((DiscreteLevyAtom("z",
                                            brownian_cov=np.zeros((2, 2))),))
    x0 = np.array([1.0, -2.0])

    def max_residual(steps):
        grid = default_grid(silent, 1.0, steps)
        ens = simulate(silent, grid, 2, 71)
        x = mild_solution(sg, CoefficientSpec(), ens, x0)
        residuals = weak_residual(x, sg, CoefficientSpec(), ens)[:, :, 0]
        times = np.asarray(grid.time_points)
        lam, dt = sg.rates[0], 1.0 / steps
        decay = np.exp(-lam * times)
        expect = x0[0] * (decay - 1.0
                          + lam * dt * (1.0 - decay) / (1.0 - np.exp(-lam * dt)))
        np.testing.assert_allclose(residuals[0], expect, atol=1e-12)
        return float(np.abs(residuals).max())

    coarse, fine = max_residual(16), max_residual(32)
    assert 1.8 <= coarse / fine <= 2.2  # first order in the step size
