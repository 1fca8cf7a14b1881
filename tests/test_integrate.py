"""Stochastic integrals: routes, identities, norms, stopping, localization."""

import threading
import tracemalloc

import numpy as np
import pytest

from mvmlab import measures
from mvmlab.measures import (DiscreteMeasure, GridMismatchError, _csv_text,
                             make_grid)
from mvmlab.noise import (DiscreteLevy, DiscreteLevyAtom, default_grid,
                          intensity_family, mean_se, simulate, white_noise)
from mvmlab.quadvar import bilinear_field, qm_density, qv_supremum
from mvmlab.hilbert import sphere_sequence
from mvmlab.integrate import (AdaptednessError, GridIntegrand,
                              NormalFormError, SimpleIntegrand, SimpleTerm,
                              cell_costs, fubini_check, grid_stopping_time,
                              integrate_grid, integrate_simple,
                              lambda2_profile, localize,
                              pushforward_commute, restricted_integral,
                              simple_to_grid, stopped_integral, _contract)
from mvmlab.spde import DiagonalSemigroup, stochastic_convolution


def wishart(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a.T @ a


@pytest.fixture(scope="module")
def driver():
    rng = np.random.default_rng(300)
    return DiscreteLevy((
        DiscreteLevyAtom("g", brownian_cov=wishart(rng, 2)),
        DiscreteLevyAtom("j", brownian_cov=0.3 * wishart(rng, 2),
                         jumps=((rng.standard_normal(2), 1.0),)),
    ))


@pytest.fixture(scope="module")
def ens(driver):
    return simulate(driver, default_grid(driver, 1.0, 8), 256, 31)


@pytest.fixture(scope="module")
def qm_and_qv(driver, ens):
    family = intensity_family(driver, ens.grid)
    est = qv_supremum(family, sphere_sequence(2, 128))
    return qm_density(bilinear_field(family), est), est


# ---------------------------------------------------------------------------
# two integration routes


def test_simple_and_grid_routes_agree(ens):
    terms = [
        SimpleTerm(0, 3, (0,), np.array([[1.0, -0.5], [0.0, 2.0]])),
        SimpleTerm(3, 6, (0, 1), np.array([[0.5, 0.5], [1.0, 0.0]])),
        SimpleTerm(6, 8, (1,), np.array([[2.0, 0.0], [0.0, -1.0]])),
    ]
    phi = SimpleIntegrand.build(ens, terms)
    via_simple = integrate_simple(phi, ens)
    via_grid = integrate_grid(simple_to_grid(phi), ens)
    np.testing.assert_allclose(via_simple, via_grid, atol=1e-12)
    assert not simple_to_grid(phi).per_path


def test_routes_agree_with_event_hooks(ens):
    def on(past):
        return past[:, :, 0, 0].sum(axis=1) > 0.0

    def off(past):
        return past[:, :, 0, 0].sum(axis=1) <= 0.0

    s_mat = np.array([[1.0, 1.0]])
    terms = [SimpleTerm(4, 7, (0,), s_mat, event=on),
             SimpleTerm(4, 7, (0,), -s_mat, event=off)]
    phi = SimpleIntegrand.build(ens, terms)
    via_simple = integrate_simple(phi, ens)
    grid_phi = simple_to_grid(phi)
    assert grid_phi.per_path
    via_grid = integrate_grid(grid_phi, ens)
    np.testing.assert_allclose(via_simple, via_grid, atol=1e-12)
    # The events partition the paths, so each path is driven by +/- s_mat.
    assert np.all(np.any(via_simple != 0.0, axis=(1, 2)))


def _per_path_accumulation(phi):
    """simple_to_grid's field built path by path: each path adds the
    matrices of the terms its events select, in term order, to zeros."""
    values = np.zeros((phi.paths, phi.grid.n_cells, phi.grid.n_atoms)
                      + phi.terms[0][3].shape)
    for p in range(phi.paths):
        for s, t, atoms, matrix, ev in phi.terms:
            if ev[p]:
                for j in atoms:
                    values[p, s:t, j] += matrix
    return values


def test_simple_to_grid_matches_per_path_accumulation(ens):
    # A sure term, then two events on atom 0 that split the paths and one
    # on atom 1: four event patterns, one table row each, and each path
    # reads its pattern's row.
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((4, 3, 2))

    def up(past):
        return past[:, :, 0, 0].sum(axis=1) > 0

    terms = [SimpleTerm(0, 4, (0, 1), mats[0]),
             SimpleTerm(4, 8, (0,), mats[1], event=up),
             SimpleTerm(4, 8, (0,), mats[2], event=lambda past: ~up(past)),
             SimpleTerm(4, 8, (1,), mats[3],
                        event=lambda past: past[:, :, 1, 1].sum(axis=1) > 0)]
    phi = SimpleIntegrand.build(ens, terms)
    grid_phi = simple_to_grid(phi)
    assert grid_phi.per_path and len(grid_phi.values) == 4
    assert np.array_equal(grid_phi.values[grid_phi.index],
                          _per_path_accumulation(phi))
    # Paths that all fall into one event pattern share one field, one row:
    # events sure on every path, or a hook that answers alike on every path.
    for event in (True, lambda past: np.zeros(len(past), dtype=bool)):
        one = SimpleIntegrand.build(ens, [
            SimpleTerm(0, 4, (0, 1), mats[0]),
            SimpleTerm(4, 8, (1,), mats[1], event=event)])
        shared = simple_to_grid(one)
        assert not shared.per_path and shared.index is None
        assert np.array_equal(shared.values, _per_path_accumulation(one)[:1])


def test_constant_integrand_reproduces_coordinate_sums(ens):
    # [DERIVED] oracle: coordinates of the cumulative martingale, assembled
    # independently through the pairing route.
    s = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    phi = GridIntegrand.constant(ens.grid, s)
    integral = integrate_grid(phi, ens)
    coords = np.stack([ens.cumulative(np.eye(2)[d]) for d in range(2)],
                      axis=2)
    np.testing.assert_allclose(integral, coords @ s.T, atol=1e-12)
    assert integral.shape == (ens.paths, len(ens.times), 3)
    np.testing.assert_array_equal(integral[:, 0], 0.0)


def test_integration_is_linear(ens):
    rng = np.random.default_rng(9)
    a = GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 3, 2)))
    b = GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 3, 2)))
    lhs = integrate_grid(
        GridIntegrand(ens.grid, 2.0 * a.values - 0.5 * b.values), ens)
    rhs = 2.0 * integrate_grid(a, ens) - 0.5 * integrate_grid(b, ens)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# normal form and adaptedness guards


def test_normal_form_rejections(ens):
    s = np.ones((1, 2))
    with pytest.raises(NormalFormError, match="overlap"):
        SimpleIntegrand.build(ens, [SimpleTerm(0, 3, (0,), s),
                                    SimpleTerm(1, 4, (0,), s)])
    with pytest.raises(NormalFormError):
        SimpleIntegrand.build(ens, [SimpleTerm(0, 3, (0,), s),
                                    SimpleTerm(0, 3, (0,), s)])
    # Same interval is fine with disjoint marks or disjoint events.
    SimpleIntegrand.build(ens, [SimpleTerm(0, 3, (0,), s),
                                SimpleTerm(0, 3, (1,), s)])
    def up(past):
        return past[:, 0, 0, 0] > 0

    SimpleIntegrand.build(ens, [SimpleTerm(1, 3, (0,), s, event=up),
                                SimpleTerm(1, 3, (0,), s,
                                           event=lambda past: ~up(past))])


def test_simple_term_validation(ens):
    s = np.ones((1, 2))
    with pytest.raises(ValueError, match="interval"):
        SimpleIntegrand.build(ens, [SimpleTerm(3, 3, (0,), s)])
    with pytest.raises(ValueError, match="mark set"):
        SimpleIntegrand.build(ens, [SimpleTerm(0, 2, (5,), s)])
    with pytest.raises(ValueError, match="does not accept"):
        SimpleIntegrand.build(ens, [SimpleTerm(0, 2, (0,), np.ones((1, 3)))])
    with pytest.raises(ValueError, match="disagree on the target"):
        SimpleIntegrand.build(ens, [SimpleTerm(0, 2, (0,), s),
                                    SimpleTerm(4, 6, (0,), np.ones((2, 2)))])
    # An event is True or a hook on the past: a precomputed array could
    # read the future.
    for event in (np.ones(ens.paths, dtype=bool), False):
        with pytest.raises(ValueError, match="True or a hook"):
            SimpleIntegrand.build(ens, [SimpleTerm(0, 2, (0,), s,
                                                   event=event)])
    with pytest.raises(ValueError, match="one boolean per path"):
        SimpleIntegrand.build(ens, [SimpleTerm(
            0, 2, (0,), s, event=lambda past: np.ones(3, dtype=bool))])
    # With no term there is no target dimension, and the two routes would
    # disagree: (paths, n_times, 0) paths against a refused grid field.
    with pytest.raises(ValueError, match="at least one term"):
        SimpleIntegrand.build(ens, [])


def test_adaptedness_guards(ens):
    with pytest.raises(AdaptednessError, match="history hook"):
        GridIntegrand.from_history(ens, lambda past, i: past[:, i])

    def peeking_event(past):
        return past[:, 2, 0, 0] > 0.0  # needs cell 2: illegal for s_index 1

    with pytest.raises(AdaptednessError, match="event hook"):
        SimpleIntegrand.build(ens, [SimpleTerm(1, 3, (0,), np.ones((1, 2)),
                                               event=peeking_event)])
    with pytest.raises(AdaptednessError, match="stopping rule"):
        grid_stopping_time(ens, lambda past, i: past[:, i, 0, 0] > 0.0)


def test_hooks_cannot_write_the_increments(driver):
    # A hook receives a read-only view of the past: writing through it
    # raises and leaves the ensemble as it was.
    ens = simulate(driver, default_grid(driver, 1.0, 8), 16, 7)
    before = ens.increments.copy()

    def overwrite(past):
        past[:] = 99.0
        return np.zeros(past.shape[0], dtype=bool)

    with pytest.raises(ValueError, match="read-only"):
        GridIntegrand.from_history(
            ens, lambda past, i: overwrite(past) * np.ones((1, 1, 1, 2)))
    with pytest.raises(ValueError, match="read-only"):
        grid_stopping_time(ens, lambda past, i: overwrite(past))
    with pytest.raises(ValueError, match="read-only"):
        SimpleIntegrand.build(ens, [SimpleTerm(2, 4, (0,), np.ones((1, 2)),
                                               event=overwrite)])
    assert np.array_equal(ens.increments, before)


def test_history_integrand_only_sees_the_past(ens):
    # A hook of the allowed form runs, and editing future increments does
    # not change earlier operators.
    def hook(past, i):
        level = past[:, :, :, 0].sum(axis=(1, 2)) if i else np.zeros(ens.paths)
        return np.tanh(level)[:, None, None, None] * np.ones((1, 1, 1, 2))

    phi = GridIntegrand.from_history(ens, hook)
    assert phi.per_path and phi.values.shape == (ens.paths, 8, 2, 1, 2)
    np.testing.assert_array_equal(phi.values[:, 0], 0.0)


# ---------------------------------------------------------------------------
# the integration norm


def test_lambda2_white_noise_closed_form():
    # [DERIVED] closed form: Lambda^2 = T ||S||_F^2 sum of rates, since each
    # rate-lambda component contributes dt lambda per cell with unit density.
    spec = white_noise((("a", 0.5), ("b", 2.0)))
    grid = default_grid(spec, 1.0, 10)
    family = intensity_family(spec, grid)
    qv = qv_supremum(family, sphere_sequence(1, 2))
    qm = qm_density(bilinear_field(family), qv)
    s = np.array([[1.0], [-2.0], [0.5]])
    phi = GridIntegrand.constant(grid, s)
    target = float((s ** 2).sum() * (0.5 + 2.0))
    profile = lambda2_profile(phi, qm, qv)
    assert np.sqrt(profile[-1]) == pytest.approx(np.sqrt(target), rel=1e-12)
    np.testing.assert_allclose(profile,
                               np.asarray(grid.time_points) * target,
                               rtol=1e-12)


def test_isometry_and_doob_empirically(driver, qm_and_qv):
    qm, qv = qm_and_qv
    grid = qm.grid
    big = simulate(driver, grid, 6000, 37)
    rng = np.random.default_rng(10)
    phi = GridIntegrand.constant(grid, rng.standard_normal((2, 2)))
    integral = integrate_grid(phi, big)
    mean, se = mean_se((integral ** 2).sum(axis=2))
    profile = lambda2_profile(phi, qm, qv)
    # The sampled supremum may undershoot the true variation slightly, so
    # compare with one-sided slack plus Monte
    # Carlo error: mean <= profile (up) and mean >= 0.9 profile - 3 se.
    assert np.all(mean <= profile * 1.0 + 3.5 * se)
    assert np.all(mean >= 0.90 * profile - 3.5 * se)
    # Doob: expected running maximum of ||I||^2 at most 4x the terminal
    # second moment, with sampling slack.
    run_max = (integral ** 2).sum(axis=2).max(axis=1)
    max_se = run_max.std(ddof=1) / np.sqrt(big.paths)
    assert run_max.mean() <= 4.0 * mean[-1] + 3.5 * max_se


def test_cell_costs_shapes_and_grid_guard(ens, qm_and_qv):
    qm, qv = qm_and_qv
    # A shared field is costed as one row of (paths, cells, atoms) costs.
    phi = GridIntegrand(ens.grid, np.random.default_rng(12)
                        .standard_normal((1, 8, 2, 3, 2)))
    costs = cell_costs(phi, qm, qv)
    assert costs.shape == (1, 8, 2)
    assert np.all(costs >= 0.0)
    # Its per-path copy costs that row on every path, bit for bit.
    per_path = GridIntegrand(ens.grid, np.broadcast_to(
        phi.values, (ens.paths,) + phi.values.shape[1:]))
    copied = cell_costs(per_path, qm, qv)
    assert copied.shape == (ens.paths, 8, 2)
    assert copied.tobytes() == np.broadcast_to(costs, copied.shape).tobytes()
    other = make_grid(1.0, 8, ["z"])
    with pytest.raises(GridMismatchError):
        cell_costs(GridIntegrand.constant(other, np.ones((1, 2))), qm, qv)
    # A variation of another grid of the same shape is refused too: one on
    # [0, 2] would double every cost.
    longer = DiscreteMeasure(make_grid(2.0, 8, ens.grid.mark_atoms),
                             qv.cell_mass)
    for cost in (cell_costs, lambda2_profile,
                 lambda phi, qm, qv: localize(phi, ens, qm, qv, [1.0])):
        with pytest.raises(GridMismatchError, match="quadratic variation"):
            cost(phi, qm, longer)


def _thread_count_results(ens, phi, qm, qv, stop):
    stopped = stopped_integral(phi, ens, stop)
    restricted = restricted_integral(
        phi, ens, 2, 6, ens.increments[:, :2, 0, 0].sum(axis=1) > 0)
    local = localize(phi, ens, qm, qv, [0.5, 1.0, 2.0, 4.0])
    pushed = pushforward_commute(np.random.default_rng(5)
                                 .standard_normal((2, 3)), phi, ens)
    return [integrate_grid(phi, ens), cell_costs(phi, qm, qv),
            stopped.lhs, stopped.rhs, restricted.lhs, restricted.rhs,
            *local.stop_indices.values(),
            np.array([*local.truncated_norms.values(),
                      local.max_consistency_gap, local.max_cell_cost]),
            pushed.lhs, pushed.rhs]


def _table_field(ens, rng):
    """simple_to_grid's table of a simple integrand whose events split the
    paths into three patterns: a table field with an index."""
    def up(past):
        return past[:, :, 0, 0].sum(axis=1) > 0

    return simple_to_grid(SimpleIntegrand.build(ens, [
        SimpleTerm(0, 3, (0, 1), rng.standard_normal((3, 2))),
        SimpleTerm(3, 8, (0,), rng.standard_normal((3, 2)), event=up),
        SimpleTerm(3, 8, (0,), rng.standard_normal((3, 2)),
                   event=lambda past: ~up(past)),
        SimpleTerm(3, 8, (1,), rng.standard_normal((3, 2)),
                   event=lambda past: up(past) & (past[:, :, 1, 1].sum(
                       axis=1) > 0))]))


@pytest.mark.parametrize("per_path", [False, True, "table"])
def test_integrals_do_not_depend_on_the_thread_count(driver, qm_and_qv,
                                                     per_path, monkeypatch):
    # 2,500 paths are three blocks, the last one short: contracted and
    # costed by the default threads, by one and by three, every result is
    # the same bytes, for a shared field, a history-built one and a table
    # with an index.  That holds for the integral, the cell costs and both
    # sides of the stopping, restriction and pushforward identities, and
    # for localization's stop indices, truncated norms, tower gap and
    # largest cell cost, all made one path block at a time.
    qm, qv = qm_and_qv
    ens = simulate(driver, default_grid(driver, 1.0, 8), 2_500, 37)
    if per_path == "table":
        phi = _table_field(ens, np.random.default_rng(3))
        assert len(phi.values) == 3
    elif per_path:
        phi = GridIntegrand.from_history(ens, lambda past, i: np.tanh(
            past.sum(axis=(1, 2)))[:, None, None, :] * np.ones((1, 2, 3, 1)))
    else:
        phi = GridIntegrand(ens.grid, np.random.default_rng(3)
                            .standard_normal((1, 8, 2, 3, 2)))
    stop = grid_stopping_time(ens, lambda past, i: np.abs(
        past[:, :, :, 0].sum(axis=(1, 2))) > 1.0)
    default = _thread_count_results(ens, phi, qm, qv, stop)
    assert len(default[1]) == (ens.paths if per_path else 1)
    for workers in (1, 3):
        monkeypatch.setattr(measures, "_WORKERS", workers)
        got = _thread_count_results(ens, phi, qm, qv, stop)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in default]


def test_identities_hold_no_whole_ensemble_temporaries(driver, monkeypatch):
    # A history-built field on 16 cells and 8,192 paths (eight blocks): on
    # one thread each identity contracts one block's rows of the field at a
    # time, so its traced peak stays near its two sides, not near the whole
    # actions, their masked copies and running sums, or a composed field;
    # localization's stays near its cell costs, not near one truncated
    # integral of the whole ensemble per threshold.
    monkeypatch.setattr(measures, "_WORKERS", 1)
    ens = simulate(driver, default_grid(driver, 1.0, 16), 8_192, 43)
    family = intensity_family(driver, ens.grid)
    qv = qv_supremum(family, sphere_sequence(2, 128))
    qm = qm_density(bilinear_field(family), qv)
    phi = GridIntegrand.from_history(ens, lambda past, i: np.tanh(
        past.sum(axis=(1, 2)))[:, None, None, :] * np.ones((1, 2, 3, 1)))
    stop = grid_stopping_time(ens, lambda past, i: np.abs(
        past[:, :, :, 0].sum(axis=(1, 2))) > 1.0)
    event = ens.increments[:, :2, 0, 0].sum(axis=1) > 0
    op = np.random.default_rng(5).standard_normal((2, 3))

    def traced(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for call, bound in ((lambda: stopped_integral(phi, ens, stop), 1.4),
                        (lambda: restricted_integral(phi, ens, 2, 14, event),
                         1.4),
                        (lambda: pushforward_commute(op, phi, ens), 1.6)):
        report, peak = traced(call)
        assert peak <= bound * (report.lhs.nbytes + report.rhs.nbytes)
    local, peak = traced(lambda: localize(phi, ens, qm, qv,
                                          [0.5, 1.0, 2.0, 4.0]))
    assert len(set(local.stop_indices[1.0].tolist())) > 8
    assert peak <= 2.25 * cell_costs(phi, qm, qv).nbytes


def test_a_table_field_gives_the_bytes_of_its_dense_copy(driver, qm_and_qv):
    # [DERIVED] oracle: the rows each path reads, gathered into a dense
    # per-path field.  On 2,500 paths (three blocks) every result of the
    # table field must be the bytes of the dense copy's.
    qm, qv = qm_and_qv
    ens = simulate(driver, default_grid(driver, 1.0, 8), 2_500, 41)
    rng = np.random.default_rng(29)
    table = _table_field(ens, rng)
    dense = GridIntegrand(ens.grid, table.values[table.index])
    assert dense.index is None and len(dense.values) == ens.paths
    stop = rng.integers(0, 9, size=ens.paths)
    event = rng.random(ens.paths) < 0.5
    op = rng.standard_normal((4, 3))
    assert table.compose(op).index is table.index

    def results(phi):
        stopped = stopped_integral(phi, ens, stop)
        restricted = restricted_integral(phi, ens, 2, 6, event)
        local = localize(phi, ens, qm, qv, [0.5, 2.0])
        pushed = pushforward_commute(op, phi, ens)
        return [integrate_grid(phi, ens), cell_costs(phi, qm, qv),
                stopped.lhs, stopped.rhs, restricted.lhs, restricted.rhs,
                *local.stop_indices.values(),
                np.array([*local.truncated_norms.values(),
                          local.max_consistency_gap, local.max_cell_cost]),
                pushed.lhs, pushed.rhs]

    got, want = results(table), results(dense)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_row_index_names_one_table_row_per_path(ens):
    # A table field's index is one integer per path, each naming a row of
    # the table: the field refuses a 2-d index or a row off the table, and
    # the contraction refuses those and an index that misses paths.
    table = np.random.default_rng(31).standard_normal((2, 8, 2, 3, 2))
    index = np.arange(ens.paths) % 2
    for bad in (index[:, None], index + 1, index - 1, index.astype(float),
                index.astype(bool)):
        with pytest.raises(ValueError, match="one row of 0..1 per path"):
            GridIntegrand(ens.grid, table, bad)
        with pytest.raises(ValueError, match="one row of 0..1 per path"):
            _contract(ens.increments, table, bad)
    short = GridIntegrand(ens.grid, table, index[:-1])
    with pytest.raises(ValueError, match="path count"):
        integrate_grid(short, ens)
    with pytest.raises(ValueError, match="path count"):
        _contract(ens.increments, table, index[:-1])
    # One cell's actions, as a step of the convolution's scan contracts
    # them: path p reads row index[p], as from the dense copy of the rows.
    assert _contract(ens.increments[:, 3], table[:, 3], index).tobytes() \
        == _contract(ens.increments[:, 3], table[index, 3]).tobytes()


def test_a_block_error_reaches_the_caller(driver, qm_and_qv, monkeypatch):
    # A per-path field on dim-3 states cannot act on the dim-2 driver: the
    # contraction refuses it, and its cost fails inside every path block.
    qm, qv = qm_and_qv
    ens = simulate(driver, default_grid(driver, 1.0, 8), 2_500, 37)
    wrong = GridIntegrand(ens.grid, np.ones((ens.paths, 8, 2, 1, 3)))
    for workers in (1, 3):
        monkeypatch.setattr(measures, "_WORKERS", workers)
        with pytest.raises(ValueError, match="integrand expects dim 3"):
            integrate_grid(wrong, ens)
        with pytest.raises(ValueError, match="matmul"):
            cell_costs(wrong, qm, qv)


def _hook_results(ens):
    """A history field, a stopping time and two simple-integrand events, each
    from a pure hook of the past."""
    def history(past, i):
        return np.tanh(past.sum(axis=(1, 2)))[:, None, None, :] \
            * np.ones((1, 2, 3, 1))

    def rule(past, i):
        return np.abs(past[:, :, :, 0].sum(axis=(1, 2))) > 1.0

    def up(past):
        return past[:, :, 1, 0].sum(axis=1) > 0

    simple = SimpleIntegrand.build(ens, [
        SimpleTerm(0, 3, (0,), np.eye(2)),
        SimpleTerm(3, 8, (0, 1), np.eye(2), event=up),
        SimpleTerm(3, 8, (0, 1), -np.eye(2), event=lambda past: ~up(past))])
    return (history, rule, up), [
        GridIntegrand.from_history(ens, history).values,
        grid_stopping_time(ens, rule),
        *(ev for *_, ev in simple.terms[1:])]


def test_hooks_do_not_depend_on_the_thread_count(driver, monkeypatch):
    # 2,500 paths are three blocks, the last one short: asked block by block
    # on the default threads, on one and on three, the hooks give the same
    # bytes, and the bytes the hooks give when asked about all paths at once.
    ens = simulate(driver, default_grid(driver, 1.0, 8), 2_500, 37)
    n = ens.grid.n_cells
    (history, rule, up), default = _hook_results(ens)
    fired = np.stack([rule(ens.increments[:, :i], i) for i in range(n + 1)],
                     axis=1)
    whole = [np.stack([history(ens.increments[:, :i], i) for i in range(n)],
                      axis=1),
             np.where(fired.any(axis=1), fired.argmax(axis=1), n),
             up(ens.increments[:, :3]), ~up(ens.increments[:, :3])]
    assert [a.tobytes() for a in default] == [a.tobytes() for a in whole]
    assert 1 < len(np.unique(default[1])) and 0 < default[2].sum() < ens.paths
    for workers in (1, 3):
        monkeypatch.setattr(measures, "_WORKERS", workers)
        _, got = _hook_results(ens)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in default]


def _pooled_only(misbehave, answer):
    """A hook that calls `misbehave(past)` on a pooled thread and returns
    `answer(past)` on the calling thread; there, the first time its past is
    not empty, it waits (at most 10 s) until a pooled thread has misbehaved,
    so the error is raised in a pooled block."""
    pooled, waited = threading.Event(), threading.Event()

    def hook(past, i=None):
        if threading.current_thread() is not threading.main_thread():
            pooled.set()
            return misbehave(past)
        if past.shape[1] and not waited.is_set():
            pooled.wait(10.0)
            waited.set()
        return answer(past)

    return hook


def _overwrite(past):
    past[...] = 0.0


@pytest.mark.parametrize("misbehave, error, match", [
    (lambda past: past[:, past.shape[1]], AdaptednessError, "outside the past"),
    (_overwrite, ValueError, "read-only")])
def test_a_hook_error_in_a_pooled_block_reaches_the_caller(
        driver, monkeypatch, misbehave, error, match):
    ens = simulate(driver, default_grid(driver, 1.0, 8), 2_500, 37)
    before = ens.increments.copy()
    monkeypatch.setattr(measures, "_WORKERS", 3)

    def never(past):
        return np.zeros(past.shape[0], dtype=bool)

    builds = [
        lambda: GridIntegrand.from_history(ens, _pooled_only(
            misbehave, lambda past: np.ones((1, 1, 1, 2)))),
        lambda: grid_stopping_time(ens, _pooled_only(misbehave, never)),
        lambda: SimpleIntegrand.build(ens, [SimpleTerm(
            2, 4, (0,), np.ones((1, 2)), event=_pooled_only(misbehave, never))])]
    for build in builds:
        with pytest.raises(error, match=match):
            build()
    assert np.array_equal(ens.increments, before)


def test_each_hook_is_asked_once_per_block_and_cell(driver, monkeypatch):
    # Three blocks of 8 cells: a history hook is asked 3 x 8 times, an event
    # hook 3 times, and a rule that fires on all of block 0 at index 1 is
    # not asked about block 0 again.
    ens = simulate(driver, default_grid(driver, 1.0, 8), 2_500, 37)
    n = ens.grid.n_cells
    asked = []

    def block_of(past):
        offset = past.ctypes.data - ens.increments.ctypes.data
        return offset // ens.increments.strides[0] // measures._BLOCK

    def history(past, i):
        asked.append((block_of(past), i))
        return np.ones((1, 1, 1, 2))

    def rule(past, i):
        asked.append((block_of(past), i))
        return np.full(past.shape[0], block_of(past) == 0 and i >= 1)

    def event(past):
        asked.append((block_of(past), past.shape[1]))
        return np.ones(past.shape[0], dtype=bool)

    for workers in (measures._WORKERS, 3):
        monkeypatch.setattr(measures, "_WORKERS", workers)
        GridIntegrand.from_history(ens, history)
        assert sorted(asked) == [(b, i) for b in range(3) for i in range(n)]
        asked.clear()
        stop = grid_stopping_time(ens, rule)
        assert sorted(asked) == [(0, 0), (0, 1)] + [
            (b, i) for b in (1, 2) for i in range(n + 1)]
        assert np.array_equal(stop, np.where(
            np.arange(ens.paths) < measures._BLOCK, 1, n))
        asked.clear()
        SimpleIntegrand.build(ens, [SimpleTerm(3, 8, (0,), np.eye(2),
                                               event=event)])
        assert sorted(asked) == [(b, 3) for b in range(3)]
        asked.clear()


# ---------------------------------------------------------------------------
# stopping, restriction, localization


def test_grid_stopping_time_matches_loop_oracle(ens):
    def rule(past, i):
        if i == 0:
            return np.zeros(ens.paths, dtype=bool)
        return np.abs(past[:, :, :, 0].sum(axis=(1, 2))) > 0.4

    stop = grid_stopping_time(ens, rule)
    # [DERIVED] oracle: per-path scan over prefix sums.
    walk = ens.increments[:, :, :, 0].sum(axis=2).cumsum(axis=1)
    for p in range(ens.paths):
        hits = np.nonzero(np.abs(walk[p]) > 0.4)[0]
        expected = hits[0] + 1 if hits.size else ens.grid.n_cells
        assert stop[p] == min(expected, ens.grid.n_cells)
    assert stop.min() >= 1


def test_a_stopping_rule_answers_one_boolean_or_one_per_path(driver):
    # A rule answers for the block it is asked about: one boolean for all of
    # its paths or one per path.  A column, or an answer for the whole
    # ensemble when the block is part of it, is refused by name.
    ens = simulate(driver, default_grid(driver, 1.0, 8), 1_500, 3)
    assert np.array_equal(grid_stopping_time(ens, lambda past, i: i >= 3),
                          np.full(ens.paths, 3))
    for rule in (lambda past, i: np.ones((len(past), 1), dtype=bool),
                 lambda past, i: np.ones(ens.paths, dtype=bool)):
        with pytest.raises(ValueError, match="stopping rule at index 0 "
                                             "must resolve to one boolean "
                                             "per path"):
            grid_stopping_time(ens, rule)
    # On 10 paths the one block is the ensemble, so its answer fits.
    small = simulate(driver, default_grid(driver, 1.0, 8), 10, 3)
    assert np.array_equal(grid_stopping_time(
        small, lambda past, i: np.full(small.paths, i >= 2)),
        np.full(small.paths, 2))


def test_stopped_integral_identity_is_exact(ens):
    rng = np.random.default_rng(11)
    phi = GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 2, 2)))
    stop = rng.integers(0, 9, size=ens.paths)
    report = stopped_integral(phi, ens, stop)
    assert report.max_abs_gap == 0.0
    assert report.scale >= 1.0
    # Clamped paths are constant from the stopping time onward.
    for p in (0, 1, 2):
        tail = report.rhs[p, stop[p]:]
        assert np.all(tail == tail[0])
    with pytest.raises(ValueError, match="one stopping index"):
        stopped_integral(phi, ens, stop[:5])
    # A stopping index is a grid index, 0..n_cells: -1 would wrap to the
    # horizon on one side of the identity only.
    for bad in (-1, 9):
        off = stop.copy()
        off[2] = bad
        with pytest.raises(ValueError, match=r"must lie in 0\.\.8"):
            stopped_integral(phi, ens, off)


def test_stopped_integral_refuses_a_non_integer_stopping_index(ens):
    # A stopping index is an integer: 2.7 is no grid index, and truncating
    # it to 2 would stop that path a cell early without a word; booleans
    # are not indices either.  Integers of any width, or a list of them,
    # give the sides of the int64 indices.
    rng = np.random.default_rng(11)
    phi = GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 2, 2)))
    stop = rng.integers(0, 9, size=ens.paths)
    for bad in (stop + 0.7, stop.astype(float), stop % 2 == 1):
        with pytest.raises(ValueError, match="stopping indices must be "
                                             "integers"):
            stopped_integral(phi, ens, bad)
    want = stopped_integral(phi, ens, stop)
    for same in (stop.astype(np.uint8), stop.astype(np.int32), list(stop)):
        got = stopped_integral(phi, ens, same)
        assert got.lhs.tobytes() == want.lhs.tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_stopped_integral_does_not_depend_on_the_integrand_layout(dim):
    # A shared field, its per-path copy and a Fortran-ordered per-path copy
    # are one integrand: the integral, both sides of the stopping and the
    # restriction identities and the stochastic convolution must come out
    # bitwise equal across the three, each stopping gap zero.
    rng = np.random.default_rng(13)
    driver = DiscreteLevy((
        DiscreteLevyAtom("g", brownian_cov=wishart(rng, dim)),
        DiscreteLevyAtom("j", brownian_cov=0.3 * wishart(rng, dim),
                         jumps=((rng.standard_normal(dim), 1.0),)),
    ))
    ens = simulate(driver, default_grid(driver, 1.0, 8), 256, 31)
    shared = rng.standard_normal((1, 8, 2, 3, dim))
    per_path = np.broadcast_to(shared, (ens.paths,) + shared.shape[1:]).copy()
    stop = rng.integers(0, 9, size=ens.paths)
    event = rng.random(ens.paths) < 0.5
    sg = DiagonalSemigroup(np.array([0.5, 3.0, 40.0]))

    def results(values):
        phi = GridIntegrand(ens.grid, values)
        stopped = stopped_integral(phi, ens, stop)
        assert stopped.max_abs_gap == 0.0
        restricted = restricted_integral(phi, ens, 2, 6, event)
        return (integrate_grid(phi, ens), stopped.lhs, stopped.rhs,
                restricted.lhs, restricted.rhs,
                stochastic_convolution(sg, phi, ens))

    reference = results(shared)
    for values in (per_path, np.asfortranarray(per_path)):
        for got, want in zip(results(values), reference):
            assert np.array_equal(got, want)


def _contraction_ordered(values):
    """A copy of `values` whose ``swapaxes(-1, -2)`` is C-contiguous."""
    return np.ascontiguousarray(values.swapaxes(-1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_per_path_results_do_not_depend_on_the_integrand_layout(dim):
    # One per-path field given C-ordered, Fortran-ordered and in contraction
    # order is one integrand: every result must be bitwise equal across them.
    rng = np.random.default_rng(17)
    driver = DiscreteLevy((
        DiscreteLevyAtom("g", brownian_cov=wishart(rng, dim)),
        DiscreteLevyAtom("j", brownian_cov=0.3 * wishart(rng, dim),
                         jumps=((rng.standard_normal(dim), 1.0),)),
    ))
    ens = simulate(driver, default_grid(driver, 1.0, 8), 128, 5)
    family = intensity_family(driver, ens.grid)
    qv = qv_supremum(family, sphere_sequence(dim, 64))
    qm = qm_density(bilinear_field(family), qv)
    field = rng.standard_normal((ens.paths, 8, 2, 3, dim))
    op = rng.standard_normal((2, 3))
    stop = rng.integers(0, 9, size=ens.paths)
    event = rng.random(ens.paths) < 0.5

    def results(values):
        phi = GridIntegrand(ens.grid, values)
        return (integrate_grid(phi, ens),
                cell_costs(phi, qm, qv),
                phi.compose(op).values,
                stopped_integral(phi, ens, stop).lhs,
                restricted_integral(phi, ens, 2, 6, event).lhs)

    reference = results(np.ascontiguousarray(field))
    for values in (np.asfortranarray(field), _contraction_ordered(field)):
        for got, want in zip(results(values), reference):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_masked_actions_match_integrating_a_masked_field(dim):
    # [DERIVED] oracle: the field masked by hand, materialized and integrated.
    # Stopping and restriction mask the cellwise actions of one contraction
    # instead; on a per-path field the two routes must agree bitwise.
    rng = np.random.default_rng(23)
    driver = DiscreteLevy((
        DiscreteLevyAtom("g", brownian_cov=wishart(rng, dim)),
        DiscreteLevyAtom("j", brownian_cov=0.3 * wishart(rng, dim),
                         jumps=((rng.standard_normal(dim), 1.0),)),
    ))
    ens = simulate(driver, default_grid(driver, 1.0, 8), 128, 7)
    field = rng.standard_normal((ens.paths, 8, 2, 3, dim))
    shared = rng.standard_normal((1, 8, 2, 3, dim))
    stop = rng.integers(0, 9, size=ens.paths)
    event = rng.random(ens.paths) < 0.5
    cells = np.arange(8)
    window = (cells >= 2) & (cells < 6)

    def masked(values, mask):
        return integrate_grid(GridIntegrand(ens.grid, np.where(
            mask[..., None, None, None], values, 0.0)), ens)

    phi = GridIntegrand(ens.grid, field)
    assert np.array_equal(stopped_integral(phi, ens, stop).lhs,
                          masked(field, cells[None, :] < stop[:, None]))
    assert np.array_equal(restricted_integral(phi, ens, 2, 6).lhs,
                          masked(field, window))
    assert np.array_equal(
        restricted_integral(phi, ens, 2, 6, event).lhs,
        masked(field, event[:, None] & window))
    assert np.array_equal(
        restricted_integral(GridIntegrand(ens.grid, shared), ens, 2, 6,
                            event).lhs,
        masked(shared, event[:, None] & window))


def test_integrands_are_stored_in_contraction_order(ens):
    rng = np.random.default_rng(19)

    def in_contraction_order(phi):
        return phi.values.swapaxes(-1, -2).flags.c_contiguous

    field = _contraction_ordered(rng.standard_normal((ens.paths, 8, 2, 3, 2)))
    phi = GridIntegrand(ens.grid, field)
    assert np.shares_memory(phi.values, field)
    assert in_contraction_order(GridIntegrand(ens.grid, field.copy(order="C")))
    shared = rng.standard_normal((1, 8, 2, 3, 2))
    assert in_contraction_order(GridIntegrand(ens.grid, shared))
    matrix = rng.standard_normal((3, 2))
    constant = GridIntegrand.constant(ens.grid, matrix)
    profile = rng.standard_normal((8, 3, 2))
    time_profile = GridIntegrand.from_time_profile(ens.grid, profile)
    for result, want in ((constant, matrix), (time_profile, profile[:, None])):
        assert not result.per_path and in_contraction_order(result)
        assert np.array_equal(result.values, np.broadcast_to(
            want, result.values.shape))

    outputs = []

    def hook(past, i):
        level = past[:, :, 0, 0].sum(axis=1) if i else np.zeros(ens.paths)
        out = np.cos(level + i)[:, None, None, None] \
            * rng.standard_normal((2, 3, 2))
        outputs.append(out)
        return out

    history = GridIntegrand.from_history(ens, hook)
    assert np.array_equal(history.values, np.stack(outputs, axis=1))
    simple = simple_to_grid(SimpleIntegrand.build(ens, [
        SimpleTerm(1, 5, (0, 1), rng.standard_normal((3, 2)),
                   event=lambda past: past[:, 0, 0, 0] > 0)]))
    for result in (history, simple, phi.compose(rng.standard_normal((4, 3)))):
        assert result.per_path and in_contraction_order(result)


def test_restriction_matches_increment_of_the_integral(ens):
    rng = np.random.default_rng(12)
    phi = GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 2, 2)))
    event = rng.random(ens.paths) < 0.5
    s_idx, t_idx = 2, 6
    report = restricted_integral(phi, ens, s_idx, t_idx, event)
    full = integrate_grid(phi, ens)
    clock = np.clip(np.arange(9), s_idx, t_idx)
    moved = np.take_along_axis(full,
                               np.broadcast_to(clock[None, :, None],
                                               full.shape).copy(),
                               axis=1)
    expected = (moved - full[:, s_idx][:, None]) * event[:, None, None]
    np.testing.assert_allclose(report.lhs, expected, atol=1e-12)
    np.testing.assert_array_equal(report.rhs, expected)
    assert report.max_abs_gap <= 1e-12 * report.scale
    with pytest.raises(ValueError, match="restriction window"):
        restricted_integral(phi, ens, 5, 2)


def test_restriction_event_is_one_boolean_per_path(ens):
    # F is one boolean for all paths or one per path, nothing else: a
    # length-1 array is not broadcast to every path, and a longer one is
    # refused before any arithmetic.
    phi = GridIntegrand.constant(ens.grid, np.eye(2))
    for sure in (True, np.True_, np.ones(ens.paths, dtype=bool)):
        assert np.array_equal(restricted_integral(phi, ens, 2, 6, sure).lhs,
                              restricted_integral(phi, ens, 2, 6).lhs)
    for bad in (np.ones(1, dtype=bool), np.ones(ens.paths + 1, dtype=bool),
                np.ones((ens.paths, 1), dtype=bool)):
        with pytest.raises(ValueError, match="one boolean per path"):
            restricted_integral(phi, ens, 2, 6, bad)


def test_localization_tower(ens, qm_and_qv):
    qm, qv = qm_and_qv
    rng = np.random.default_rng(13)
    phi = GridIntegrand.from_history(
        ens, lambda past, i: rng.standard_normal((2, 2)) * (1 + i))
    report = localize(phi, ens, qm, qv, [0.5, 2.0, 8.0])
    assert report.max_consistency_gap == 0.0
    idx = report.stop_indices
    assert np.all(idx[0.5] <= idx[2.0]) and np.all(idx[2.0] <= idx[8.0])
    norms = report.truncated_norms
    assert norms[0.5] <= norms[2.0] <= norms[8.0]
    # Stopping just before the threshold keeps the cost below
    # threshold + one cell worth of cost.
    for n in (0.5, 2.0, 8.0):
        assert norms[n] ** 2 <= n + report.max_cell_cost


def test_localization_does_not_hide_a_nan_truncation(ens, qm_and_qv):
    # One entry of a per-path field is NaN: the truncations of that path
    # disagree by NaN, and the tower gap must say so, not read 0 and pass
    # the exact check.
    qm, qv = qm_and_qv
    values = np.random.default_rng(19).standard_normal((ens.paths, 8, 2, 2, 2))
    values[5, 6, 0] = np.nan
    report = localize(GridIntegrand(ens.grid, values), ens, qm, qv,
                      [0.5, 2.0, 1e9])
    assert np.isnan(report.max_consistency_gap)


# ---------------------------------------------------------------------------
# parameterized families and pushforward


def test_fubini_identity_and_validation(ens):
    rng = np.random.default_rng(14)
    members = [GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 2, 2)))
               for _ in range(4)]
    weights = [0.1, 0.4, 0.2, 0.3]
    report = fubini_check(members, weights, ens)
    assert report.max_abs_gap <= 1e-10 * report.scale
    # Two simple fields whose events split the paths differently: each path
    # mixes the rows it reads, so the check gives the bytes of mixing the
    # dense copies, not a mix of the two tables row by row.
    tables = [simple_to_grid(SimpleIntegrand.build(ens, [
        SimpleTerm(0, 2, (0, 1), rng.standard_normal((2, 2))),
        SimpleTerm(2, 8, (c,), rng.standard_normal((2, 2)),
                   event=lambda past, c=c: past[:, :, c, c].sum(axis=1) > 0)]))
        for c in (0, 1)]
    assert not np.array_equal(*(t.index for t in tables))
    dense = [GridIntegrand(ens.grid, t.values[t.index]) for t in tables]
    mixed, want = (fubini_check(m, [0.3, 0.7], ens) for m in (tables, dense))
    assert mixed.lhs.tobytes() == want.lhs.tobytes()
    assert mixed.rhs.tobytes() == want.rhs.tobytes()
    assert mixed.max_abs_gap <= 1e-10 * mixed.scale
    with pytest.raises(ValueError, match="matching"):
        fubini_check(members, weights[:2], ens)
    with pytest.raises(ValueError, match="matching"):
        fubini_check([], [], ens)


def test_pushforward_commutes(ens):
    rng = np.random.default_rng(15)
    phi = GridIntegrand(ens.grid, rng.standard_normal((1, 8, 2, 3, 2)))
    op = rng.standard_normal((4, 3))
    report = pushforward_commute(op, phi, ens)
    assert report.max_abs_gap <= 1e-10 * report.scale
    with pytest.raises(ValueError, match="compose"):
        phi.compose(rng.standard_normal((4, 5)))


# ---------------------------------------------------------------------------
# shape validation and summaries


def test_integrand_validation(ens):
    # Every field has a rows axis: a 4-d shared field is refused.
    for rank in ((8, 2, 2), (8, 2, 2, 2)):
        with pytest.raises(ValueError, match=r"\(rows, cells, atoms, G, H\)"):
            GridIntegrand(ens.grid, np.ones(rank))
    with pytest.raises(ValueError, match="does not match grid"):
        GridIntegrand(ens.grid, np.ones((1, 7, 2, 2, 2)))
    with pytest.raises(ValueError, match="single"):
        GridIntegrand.constant(ens.grid, np.ones(3))
    with pytest.raises(ValueError, match="per time cell"):
        GridIntegrand.from_time_profile(ens.grid, np.ones((3, 2, 2)))
    with pytest.raises(ValueError, match="operators of one shape"):
        GridIntegrand.from_history(ens, lambda past, i: 1.0)
    with pytest.raises(ValueError, match="operators of one shape"):
        GridIntegrand.from_history(ens, lambda past, i: np.ones((1 + i, 2)))
    with pytest.raises(ValueError, match="expects dim"):
        integrate_grid(GridIntegrand.constant(ens.grid, np.ones((2, 5))), ens)
    with pytest.raises(ValueError, match="path count"):
        integrate_grid(GridIntegrand(
            ens.grid, np.ones((3, 8, 2, 2, 2))), ens)


def test_summary_csv(ens):
    # The profile summary the isometry scenario writes of an integral's paths.
    integral = integrate_grid(GridIntegrand.constant(ens.grid, np.eye(2)), ens)
    mean, se = mean_se((integral ** 2).sum(axis=2))
    text = _csv_text("t,mean_norm2,se,isometry_target",
                     [ens.times, mean, se, np.linspace(0, 1, 9)])
    lines = text.strip().split("\n")
    assert lines[0] == "t,mean_norm2,se,isometry_target"
    assert len(lines) == 10
    row = lines[-1].split(",")
    assert float(row[3]) == 1.0
    bare = _csv_text("t,mean_norm2,se", [ens.times, mean, se])
    first = bare.strip().split("\n")[1].split(",")
    assert first == ["0.0", "0.0", "0.0"]
