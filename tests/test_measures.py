"""Measure algebra on the grid: supremum vs partition oracle, serialization."""

import io
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from mvmlab import measures
from mvmlab.measures import (_BLOCK, MAX_BRUTE_FORCE_CELLS, DiscreteMeasure,
                             GridMismatchError, GridSpec, _by_path_blocks,
                             _csv_text, _running_sum, _squared_norms,
                             brute_force_sup, iter_partitions, make_grid,
                             monotone_sup, sup_measures)
from mvmlab.noise import (IntensityFamily, default_grid, mean_se, simulate,
                          white_noise)
from mvmlab.quadvar import qm_to_csv


def random_family(rng, grid, max_measures=5):
    """Measures with dyadic-rational masses so float sums are exact."""
    count = int(rng.integers(1, max_measures + 1))
    return [DiscreteMeasure(grid, rng.integers(0, 41, size=(
        grid.n_cells, grid.n_atoms)) / 8.0) for _ in range(count)]


# ---------------------------------------------------------------------------
# grid construction


def test_grid_rejects_bad_time_axes():
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 1.0), ("a",))
    with pytest.raises(ValueError):
        GridSpec((0.5, 1.0), ("a",))
    with pytest.raises(ValueError):
        GridSpec((0.0,), ("a",))


def test_grid_rejects_bad_atoms():
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), ())
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), ("a", "a"))


def test_default_rings_are_empty_singletons_full():
    grid = make_grid(1.0, 2, ["a", "b", "c"])
    assert frozenset() in grid.rings
    for j in range(3):
        assert frozenset({j}) in grid.rings
    assert frozenset({0, 1, 2}) in grid.rings


def test_uniform_grid_geometry():
    grid = make_grid(2.0, 4, ["a"])
    assert grid.n_cells == 4
    assert grid.t_max == 2.0
    np.testing.assert_allclose(grid.dt, 0.5)
    assert grid.cells() == [(0, 0), (1, 0), (2, 0), (3, 0)]


@pytest.mark.parametrize("shape, axis", [((7,), 0), ((5, 7), 1),
                                         ((5, 7, 3), 1)])
def test_running_sum_is_zero_then_cumulative_sums(shape, axis):
    per_cell = np.random.default_rng(len(shape)).standard_normal(shape)
    expect_shape = list(shape)
    expect_shape[axis] += 1
    expect = np.zeros(expect_shape)
    later = [slice(None)] * len(shape)
    later[axis] = slice(1, None)
    expect[tuple(later)] = np.cumsum(per_cell, axis=axis)
    got = _running_sum(per_cell, axis=axis)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# path blocks


@pytest.mark.parametrize("workers", [1, 3])
def test_squared_norms_are_the_whole_ensemble_reduction(workers, monkeypatch):
    # Over three blocks, the last one short, the blocked per-path squared
    # distances from another path result, from a state path all paths share
    # and from zero are the bytes of the whole-ensemble reduction.
    monkeypatch.setattr(measures, "_WORKERS", workers)
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2 * _BLOCK + 5, 4, 3))
    b = rng.standard_normal(a.shape)
    shared = rng.standard_normal(a.shape[1:])
    for other in (b, shared):
        got = _squared_norms(a, other)
        assert got.shape == a.shape[:2]
        assert got.tobytes() == ((a - other) ** 2).sum(axis=2).tobytes()
    assert _squared_norms(a).tobytes() == (a ** 2).sum(axis=2).tobytes()


def test_path_blocks_are_each_taken_once_under_contention(monkeypatch):
    # Eight threads on 41 blocks, with a thread switch forced every
    # microsecond: every block is still taken exactly once, and the rows of
    # the blocks tile the paths.
    paths = 40 * _BLOCK + 7
    monkeypatch.setattr(measures, "_WORKERS", 8)
    monkeypatch.setattr(measures, "_pool", None)
    taken, threads = [], set()

    def work(rows):
        taken.append((rows.start, rows.stop))
        threads.add(threading.get_ident())
        np.sin(np.arange(2_000.0)).sum()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _by_path_blocks(paths, work)
    finally:
        sys.setswitchinterval(interval)
        measures._pool[1].shutdown(wait=True)
    assert sorted(taken) == [(lo, min(lo + _BLOCK, paths))
                             for lo in range(0, paths, _BLOCK)]
    assert len(threads) <= 8


@pytest.mark.parametrize("workers", [1, 3])
def test_a_path_block_error_reaches_the_caller(workers, monkeypatch):
    # An error in any block, whichever thread takes it, is raised to the
    # caller, and the next call runs every block again.
    monkeypatch.setattr(measures, "_WORKERS", workers)
    for bad in range(3):
        def work(rows):
            if rows.start == bad * _BLOCK:
                raise ValueError(f"block {bad}")

        with pytest.raises(ValueError, match=f"block {bad}"):
            _by_path_blocks(3 * _BLOCK, work)
    done = []
    _by_path_blocks(3 * _BLOCK, lambda rows: done.append(rows.start))
    assert sorted(done) == [0, _BLOCK, 2 * _BLOCK]


def _draw_in_child(conn):
    spec = white_noise((("a", 1.0),))
    ens = simulate(spec, default_grid(spec, 1.0, 4), 3 * _BLOCK, 2)
    conn.send(ens.increments.tobytes())
    conn.close()


def test_a_forked_child_starts_its_own_path_threads(monkeypatch):
    # The pool's threads do not survive a fork: a child that draws blocks
    # after its parent did must not wait for them.
    monkeypatch.setattr(measures, "_WORKERS", 3)
    spec = white_noise((("a", 1.0),))
    want = simulate(spec, default_grid(spec, 1.0, 4), 3 * _BLOCK, 2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_draw_in_child, args=(send,))
    child.start()
    send.close()
    try:
        got = recv.recv() if recv.poll(30) else None
        child.join(30)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert got == want.increments.tobytes()


def test_measure_shape_and_sign_validation():
    grid = make_grid(1.0, 2, ["a", "b"])
    with pytest.raises(ValueError):
        DiscreteMeasure(grid, np.ones((3, 2)))
    with pytest.raises(ValueError, match="negative mass at cell"):
        DiscreteMeasure(grid, [[1.0, -0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(grid, [[np.inf, 0.0], [0.0, 0.0]])
    # -0.0 is not negative: it is kept, bit for bit.
    zero = DiscreteMeasure(grid, [[-0.0, 0.0], [0.0, 0.25]])
    assert np.signbit(zero.cell_mass[0, 0])


# ---------------------------------------------------------------------------
# partition enumeration oracle


def test_partition_counts_are_bell_numbers():
    # [DERIVED] Bell numbers B_1..B_5 by independent recurrence.
    bell = [1, 1]
    for n in range(1, 6):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    for n in range(1, 6):
        parts = list(iter_partitions(range(n)))
        assert len(parts) == bell[n]
        for part in parts:
            merged = sorted(x for block in part for x in block)
            assert merged == list(range(n))


def test_sup_equals_partition_enumeration_on_random_families():
    # [DERIVED] oracle: enumerate every partition of the queried cells.
    rng = np.random.default_rng(42)
    for _ in range(120):
        grid = make_grid(1.0, int(rng.integers(1, 4)),
                         [f"a{j}" for j in range(rng.integers(1, 3))])
        family = random_family(rng, grid)
        cells = grid.cells()
        size = int(rng.integers(1, min(len(cells), 6) + 1))
        pick = [cells[i] for i in rng.choice(len(cells), size, replace=False)]
        assert sup_measures(family).mass(pick) == brute_force_sup(family, pick)


def test_sup_on_full_cell_set_matches_oracle():
    rng = np.random.default_rng(7)
    grid = make_grid(1.0, 3, ["a", "b"])
    for _ in range(25):
        family = random_family(rng, grid)
        assert sup_measures(family).mass() == \
            brute_force_sup(family, grid.cells())


def test_brute_force_guard_rails():
    grid = make_grid(1.0, 5, ["a", "b"])
    family = [DiscreteMeasure(grid, np.ones((5, 2)))]
    with pytest.raises(ValueError, match="limited to"):
        brute_force_sup(family, grid.cells()[:MAX_BRUTE_FORCE_CELLS + 1])
    with pytest.raises(ValueError, match="duplicate"):
        brute_force_sup(family, [(0, 0), (0, 0)])


def test_sup_dominates_members_and_is_below_sum():
    rng = np.random.default_rng(3)
    grid = make_grid(1.0, 4, ["a", "b", "c"])
    for _ in range(50):
        family = random_family(rng, grid)
        sup = sup_measures(family)
        total = np.sum([mu.cell_mass for mu in family], axis=0)
        for mu in family:
            assert np.all(mu.cell_mass <= sup.cell_mass)
        assert np.all(sup.cell_mass <= total)


def test_sup_is_idempotent_and_order_free():
    rng = np.random.default_rng(9)
    grid = make_grid(1.0, 3, ["a", "b"])
    family = random_family(rng, grid, max_measures=4)
    sup = sup_measures(family)
    again = sup_measures(family + [sup])
    np.testing.assert_array_equal(sup.cell_mass, again.cell_mass)
    shuffled = [family[i] for i in rng.permutation(len(family))]
    np.testing.assert_array_equal(sup.cell_mass,
                                  sup_measures(shuffled).cell_mass)


def test_mass_is_additive_over_disjoint_cell_sets():
    rng = np.random.default_rng(11)
    grid = make_grid(1.0, 4, ["a", "b"])
    mu = random_family(rng, grid, max_measures=1)[0]
    cells = grid.cells()
    half = len(cells) // 2
    assert mu.mass(cells[:half]) + mu.mass(cells[half:]) == mu.mass()
    assert mu.cell_mass[1:3, [0, 1]].sum() == mu.mass(
        [(i, j) for i in (1, 2) for j in (0, 1)])


def test_family_must_share_one_grid():
    a = DiscreteMeasure(make_grid(1.0, 2, ["a"]), [[1.0], [2.0]])
    b = DiscreteMeasure(make_grid(1.0, 3, ["a"]), [[1.0], [2.0], [3.0]])
    with pytest.raises(GridMismatchError):
        sup_measures([a, b])
    with pytest.raises(ValueError):
        sup_measures([])


# ---------------------------------------------------------------------------
# monotone limits and unbounded families


def test_monotone_sup_accepts_nested_restrictions():
    grid = make_grid(1.0, 3, ["a", "b", "c"])
    full = DiscreteMeasure(grid, np.arange(9, dtype=float).reshape(3, 3))
    nested = [full.restrict_atoms(range(j + 1)) for j in range(3)]
    limit = monotone_sup(nested)
    np.testing.assert_array_equal(limit.cell_mass, full.cell_mass)


def test_monotone_sup_names_first_violation():
    grid = make_grid(1.0, 1, ["a"])
    seq = [DiscreteMeasure(grid, [[m]]) for m in (1.0, 2.0, 1.5)]
    with pytest.raises(ValueError, match="index 2"):
        monotone_sup(seq)


def test_scaled_counting_family_grows_without_bound():
    base = DiscreteMeasure(make_grid(1.0, 2, ["a"]), [[1.0], [0.5]])
    for n in (3, 10, 100):
        family = [base.scaled(k) for k in range(1, n + 1)]
        assert sup_measures(family).mass() == n * base.mass()
    with pytest.raises(ValueError):
        base.scaled(-1.0)


# ---------------------------------------------------------------------------
# serialization


def test_csv_layout_and_repr_precision():
    grid = make_grid(1.0, 2, ["a"])
    mu = DiscreteMeasure(grid, [[1 / 3], [0.1]])
    lines = mu.to_csv().strip().split("\n")
    assert lines[0] == "t_lo,t_hi,atom_id,mass"
    assert len(lines) == 3
    # repr round-trips doubles exactly.
    assert float(lines[1].split(",")[-1]) == 1 / 3


# ---------------------------------------------------------------------------
# CSV writers against the row-at-a-time loops they replaced

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1 / 3,
           0.1, -2.5, 1e-300, 123456789.0]
FINITE = [x for x in SPECIAL if math.isfinite(x)]
CSV_GRID = GridSpec((0.0, 5e-324, 0.1, 1 / 3, 1.0, 1e16), ("a", "b2", "jump"))


def mixed(values, shape, seed):
    """The given values, each at least once, then random draws, shuffled."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    pool = np.concatenate([values, rng.standard_normal(size)])[:size]
    return rng.permutation(pool).reshape(shape)


def loop_to_csv(mu):
    buf = io.StringIO()
    buf.write("t_lo,t_hi,atom_id,mass\n")
    tp = mu.grid.time_points
    for i in range(mu.grid.n_cells):
        for j, atom in enumerate(mu.grid.mark_atoms):
            buf.write(f"{tp[i]!r},{tp[i + 1]!r},{atom},"
                      f"{float(mu.cell_mass[i, j])!r}\n")
    return buf.getvalue()


def loop_qm_to_csv(qm):
    grid = qm.grid
    lines = ["t_lo,t_hi,atom_id,row,col,value"]
    for i in range(grid.n_cells):
        lo, hi = grid.time_points[i], grid.time_points[i + 1]
        for j, label in enumerate(grid.mark_atoms):
            for r in range(qm.dim):
                for c in range(qm.dim):
                    lines.append(f"{lo!r},{hi!r},{label},{r},{c},"
                                 f"{float(qm.matrices[i, j, r, c])!r}")
    return "\n".join(lines) + "\n"


def loop_integral_summary(times, mean, se, isometry_target=None):
    buf = io.StringIO()
    if isometry_target is None:
        buf.write("t,mean_norm2,se\n")
        for t, m, s in zip(times, mean, se):
            buf.write(f"{float(t)!r},{float(m)!r},{float(s)!r}\n")
        return buf.getvalue()
    buf.write("t,mean_norm2,se,isometry_target\n")
    for t, m, s, g in zip(times, mean, se, isometry_target):
        buf.write(f"{float(t)!r},{float(m)!r},{float(s)!r},{float(g)!r}\n")
    return buf.getvalue()


def test_measure_csv_matches_row_loop():
    shape = (CSV_GRID.n_cells, CSV_GRID.n_atoms)
    mass = np.abs(mixed(FINITE, shape, 1))
    mass[0, 1] = -0.0  # not negative, yet written as "-0.0"
    mu = DiscreteMeasure(CSV_GRID, mass)
    assert mu.to_csv() == loop_to_csv(mu)


@pytest.mark.parametrize("dim", [1, 3])
def test_qm_csv_matches_row_loop(dim):
    shape = (CSV_GRID.n_cells, CSV_GRID.n_atoms, dim, dim)
    qm = IntensityFamily(CSV_GRID, mixed(SPECIAL, shape, dim))
    assert qm_to_csv(qm) == loop_qm_to_csv(qm)


def test_summary_csvs_match_row_loops():
    # The summaries the scenarios write of path arrays (paths, n_times, G).
    times = np.array(SPECIAL)
    values = mixed(SPECIAL, (3, len(times), 2), 4)
    target = mixed(SPECIAL, (len(times),), 5)
    unset = np.full(len(times), np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        mean, se = mean_se((values ** 2).sum(axis=2))
        assert (_csv_text("t,mean_norm2,se", [times, mean, se])
                == loop_integral_summary(times, mean, se))
        for column in (target, unset):
            assert (_csv_text("t,mean_norm2,se,isometry_target",
                              [times, mean, se, column])
                    == loop_integral_summary(times, mean, se, column))


# A quiet NaN whose payload differs from ``math.nan``'s: a second bit pattern
# that is also written "nan".
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
REPEATED = [*SPECIAL, NAN_PAYLOAD]


def cycled(values, shape, shift=0):
    """`values` rotated by `shift`, repeated in turn until `shape` is full."""
    return np.resize(np.roll(np.array(values), shift), shape)


def per_entry_csv(header, columns):
    """The writer with one ``repr`` per float entry, which the text-per-
    distinct-double writer must match byte for byte."""
    text = [col if isinstance(col, list) else
            list(map(repr, np.asarray(col, dtype=np.float64).ravel().tolist()))
            for col in columns]
    return "\n".join([header, *map(",".join, zip(*text))]) + "\n"


def test_csv_writers_match_row_loops_on_repeated_values():
    # Every value recurs in every column, so each text is reused many times;
    # -0.0 beside 0.0 and the two NaN payloads must keep their own texts.
    cell = cycled(REPEATED, (CSV_GRID.n_atoms, 3, 3))
    matrices = np.broadcast_to(cell, (CSV_GRID.n_cells, *cell.shape))
    qm = IntensityFamily(CSV_GRID, matrices.copy())
    bits = set(qm.matrices.view(np.uint64).ravel().tolist())
    assert {0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001, 1} <= bits
    assert qm_to_csv(qm) == loop_qm_to_csv(qm)

    grid = make_grid(1.0, 16, ["a", "b2", "jump"])
    shape = (grid.n_cells, grid.n_atoms)
    nonneg = [-0.0, 0.0, 5e-324, 1e16, 1 / 3, 0.1, 1e-300, 123456789.0]
    mu = DiscreteMeasure(grid, cycled(nonneg, shape))
    assert mu.to_csv() == loop_to_csv(mu)

    n = 4 * len(REPEATED)
    times, mean, se, target = (cycled(REPEATED, (n,), k) for k in range(4))
    assert (_csv_text("t,mean_norm2,se", [times, mean, se])
            == loop_integral_summary(times, mean, se))
    assert (_csv_text("t,mean_norm2,se,isometry_target",
                      [times, mean, se, target])
            == loop_integral_summary(times, mean, se, target))


@pytest.mark.parametrize("columns", [
    # zero-length columns: the header alone
    [np.empty(0), np.empty((0, 3)), []],
    # a strided view and a Fortran-ordered array, written in C order
    [cycled(REPEATED, (6, 8))[:, ::2],
     np.asfortranarray(cycled(REPEATED, (4, 6), 5)),
     [str(i) for i in range(24)]],
    # integers and single precision, written as the reprs of doubles
    [np.arange(-12, 12) % 5, cycled([0.1, -0.0, 1 / 3, 1e-40], (24,))
     .astype(np.float32), cycled(REPEATED, (2, 3, 4), 2)],
], ids=["empty", "strided-fortran", "int-float32"])
def test_csv_text_matches_per_entry_repr(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    assert _csv_text(header, columns) == per_entry_csv(header, columns)
