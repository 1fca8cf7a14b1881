"""Stochastic integration against martingale-valued noise on the grid.

Integrands are operator-valued fields over (time cell, mark atom): either
simple (finitely many interval x event x mark-set terms, integrated through
the radonification formula term by term) or grid integrands (one operator
per cell, in one shared row, one row per path or a table of rows).  Both
routes give the integral paths t -> I_t as one plain ``(paths, n_times,
G)`` array, the form of every path result of the lab, and both sides of
each pathwise identity come in that form too.  The routes must agree, and
the ``ito_isometry`` scenario checks that they do on its simple integrands;
keeping them separate is the point, since the isometry
``E ||I_T||^2 = E sum_cells ||Phi o Q_M^{1/2}||_HS^2 qv(cell)``
is checked between independently computed sides.  The density Q_M is the
:class:`~mvmlab.noise.IntensityFamily` of :func:`mvmlab.quadvar.qm_density`,
and its cellwise roots come from one stacked :func:`mvmlab.hilbert.psd_sqrt`.

On the grid the integral is the running sum of the cellwise actions
``sum_atoms Phi dM`` (:func:`mvmlab.measures._running_sum`, the one time
scan of the grid's cumulative sums), and the integral of ``1_A Phi`` is
that of the actions masked by A.  So stopping, window/event restriction and
localization contract the field once and mask its actions; no masked copy
of the field is made.

Per-path work runs block by block: the hooks below, the cell contraction and
the cell costs (of the field's rows, one per event pattern for a simple
integrand) each take the paths or rows in blocks of 1024, on one thread per
usable core (:func:`mvmlab.measures._by_path_blocks`).  Every block writes
only its own rows with the arithmetic a single path gets, so results do not
depend on the thread count.

Adaptedness is structural: every predictable input (simple-integrand
events, history-dependent operator fields and stopping rules) is a hook,
never a precomputed array, and a hook receives only a read-only view of
the increments of cells strictly before the current time, so referencing
the future or editing the ensemble is impossible by construction and any
out-of-range access is surfaced as an error.  Predictability and stopping
are defined path by path, so a hook is asked about one block of paths at a
time: it gets the past of those paths (their count is ``past.shape[0]``),
answers for them only, and is called once per block and cell.  It must be
a pure function of its arguments, since it may run on a pooled thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .measures import (_BLOCK, DiscreteMeasure, GridMismatchError, GridSpec,
                       _by_path_blocks, _running_sum)
from .hilbert import psd_sqrt
from .noise import IntensityFamily, MVMPathEnsemble

__all__ = [
    "AdaptednessError",
    "NormalFormError",
    "GridIntegrand",
    "SimpleTerm",
    "SimpleIntegrand",
    "integrate_grid",
    "integrate_simple",
    "simple_to_grid",
    "cell_costs",
    "lambda2_profile",
    "grid_stopping_time",
    "IdentityReport",
    "stopped_integral",
    "restricted_integral",
    "localize",
    "LocalizationReport",
    "fubini_check",
    "pushforward_commute",
]


class AdaptednessError(ValueError):
    """A hook tried to look at increments at or after its own cell."""


class NormalFormError(ValueError):
    """Simple-integrand terms overlap in a way the normal form forbids."""


def _check_grid(grid: GridSpec, ens: MVMPathEnsemble) -> None:
    if ens.grid != grid:
        raise GridMismatchError("integrand and ensemble live on different grids")


def _past(ens: MVMPathEnsemble, rows: slice, i: int) -> np.ndarray:
    """Read-only view of the increments of cells ``< i`` on the paths `rows`,
    handed to hooks."""
    past = ens.increments[rows, :i]
    past.flags.writeable = False
    return past


def _ask(what: str, hook: Callable, *args):
    """``hook(*args)``; an IndexError, a hook reaching outside the past it
    was given, is raised as an AdaptednessError naming `what`."""
    try:
        return hook(*args)
    except IndexError as exc:
        raise AdaptednessError(
            f"{what} reached outside the past ({exc})") from exc


def _contraction_order(v: np.ndarray) -> np.ndarray:
    """`v` with the same shape and values, stored so that ``swapaxes(-1, -2)``
    is C-contiguous; no copy when it already is."""
    return np.ascontiguousarray(v.swapaxes(-1, -2)).swapaxes(-1, -2)


def _zeros_contraction_order(shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of `shape` in contraction order (see :class:`GridIntegrand`)."""
    return np.zeros(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)


def _row_index(index: np.ndarray | None, rows: int) -> np.ndarray | None:
    """`index`, checked to be None or to name one of `rows` rows per path."""
    if index is not None and (index.ndim != 1 or index.dtype.kind not in "iu"
                              or not np.all((0 <= index) & (index < rows))):
        raise ValueError(f"a row index needs one row of 0..{rows - 1} per path")
    return index


@dataclass(frozen=True, eq=False)
class GridIntegrand:
    """Operator-valued field: one (G x H) matrix per (time cell, mark atom).

    `values` has shape ``(rows, n_cells, n_atoms, dim_g, dim_h)``: one row
    that every path shares, one per path (a :meth:`from_history` field on
    one path has one row, so it counts as shared), or a table of rows, path
    p reading row ``index[p]``, which only :func:`simple_to_grid` makes.
    Only the left endpoint of a cell ever sees the field, which is how
    predictability is encoded on the grid.

    Every field is stored in contraction order: ``values.swapaxes(-1, -2)``
    is C-contiguous, i.e. the memory holds ``(rows, cells, atoms, dim_h,
    dim_g)`` in C order.  That is the stack
    of ``(atoms * dim_h, dim_g)`` matrices the cell contraction multiplies,
    so integrating reads the field in place, and every field reaches the
    kernel in one layout, whatever layout the caller passed.  The
    constructor copies an array only when it is not already in that order.
    """

    grid: GridSpec
    values: np.ndarray
    index: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 5:
            raise ValueError(f"need (rows, cells, atoms, G, H), got {v.ndim}-d")
        if v.shape[1:3] != (self.grid.n_cells, self.grid.n_atoms):
            raise ValueError(f"integrand shape {v.shape} does not match grid")
        object.__setattr__(self, "values", _contraction_order(v))
        _row_index(self.index, len(v))

    @property
    def per_path(self) -> bool:
        return len(self.values) > 1

    @property
    def dim_g(self) -> int:
        return self.values.shape[-2]

    @classmethod
    def constant(cls, grid: GridSpec, matrix: np.ndarray) -> "GridIntegrand":
        """The same operator on every cell and atom, one row."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected a single (G x H) matrix")
        return cls(grid, np.broadcast_to(
            matrix, (1, grid.n_cells, grid.n_atoms) + matrix.shape))

    @classmethod
    def from_time_profile(cls, grid: GridSpec, matrices: np.ndarray
                          ) -> "GridIntegrand":
        """Deterministic time-varying field, shared by all atoms, one row."""
        matrices = np.asarray(matrices, dtype=np.float64)
        if matrices.shape[0] != grid.n_cells or matrices.ndim != 3:
            raise ValueError("expected one (G x H) matrix per time cell")
        return cls(grid, np.repeat(matrices[None, :, None], grid.n_atoms,
                                   axis=2))

    @classmethod
    def from_history(cls, ens: MVMPathEnsemble,
                     hook: Callable[[np.ndarray, int], np.ndarray]
                     ) -> "GridIntegrand":
        """Build a per-path field from a history hook.

        ``hook(past, i)`` receives only the increments of cells ``< i`` of
        one block of paths (shape ``(block, i, n_atoms, dim)``) and returns
        the operators of those paths for cell i, broadcastable to
        ``(block, n_atoms, dim_g, dim_h)``.  It is called once per block and
        cell; the first block's answer for cell 0, asked on the calling
        thread, fixes ``(dim_g, dim_h)``.
        """
        grid = ens.grid

        def ask(rows: slice, i: int) -> np.ndarray:
            return np.asarray(_ask(f"history hook for cell {i}", hook,
                                   _past(ens, rows, i), i), dtype=np.float64)

        def misshapen(i: int, vals: np.ndarray) -> ValueError:
            return ValueError(f"history hook for cell {i} returned shape "
                              f"{vals.shape}: every cell needs (G x H) "
                              f"operators of one shape")

        first = ask(slice(0, _BLOCK), 0)
        if first.ndim < 2:
            raise misshapen(0, first)
        op_shape = first.shape[-2:]
        values = _zeros_contraction_order(
            (ens.paths, grid.n_cells, grid.n_atoms) + op_shape)

        def block(rows: slice) -> None:
            for i in range(grid.n_cells):
                vals = first if (rows.start, i) == (0, 0) else ask(rows, i)
                if vals.shape[-2:] != op_shape:
                    raise misshapen(i, vals)
                values[rows, i] = np.broadcast_to(vals, (
                    rows.stop - rows.start, grid.n_atoms) + op_shape)

        _by_path_blocks(ens.paths, block)
        return cls(grid, values)

    def compose(self, op: np.ndarray) -> "GridIntegrand":
        """Push the field forward by a fixed operator: cellwise op @ value,
        one GEMM whose product is already in contraction order, same index."""
        op = np.asarray(op, dtype=np.float64)
        if op.ndim != 2 or op.shape[1] != self.dim_g:
            raise ValueError(f"cannot compose {op.shape} with dim_g={self.dim_g}")
        stack = self.values.swapaxes(-1, -2)
        return replace(self, values=(stack.reshape(-1, self.dim_g) @ op.T)
                       .reshape(stack.shape[:-1] + (-1,)).swapaxes(-1, -2))


def _check_fit(increments: np.ndarray, values: np.ndarray,
               index: np.ndarray | None = None) -> None:
    """Refuse a field `values` ``(rows, [cells,] atoms, G, H)`` that cannot
    act on `increments` ``(paths, [cells,] atoms, H)``: it needs the
    driver's H and one row, one per path, or an index naming one row per
    path."""
    if values.shape[-1] != increments.shape[-1]:
        raise ValueError(f"integrand expects dim {values.shape[-1]}, "
                         f"driver has {increments.shape[-1]}")
    fits = len(values) in (1, len(increments)) if index is None \
        else len(_row_index(index, len(values))) == len(increments)
    if values.ndim != increments.ndim + 1 or not fits:
        raise ValueError(f"integrand of shape {values.shape} does not match "
                         f"the path count: it needs 1 row or one per path")


def _contract_rows(increments: np.ndarray, values: np.ndarray,
                   index: np.ndarray | None, rows: slice,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The actions ``(block, [cells,] 1, G)`` of a field that fits (see
    :func:`_check_fit`) on the `increments` ``(block, [cells,] atoms, H)``
    of the paths `rows`, each path reading its row through the one
    accessor: row 0 of a one-row field, else row p or ``index[p]``.

    One ``np.matmul`` of the ``(..., 1, atoms * H)`` increments with the
    stack ``values.swapaxes(-1, -2).reshape(rows, ..., atoms * H, G)``, a
    view for a field in contraction order (see :class:`GridIntegrand`).  So
    every (path, cell) product is the same vector-matrix call on the same
    C-ordered matrix, for all cells at once or one at a time, whatever the
    block.  It runs in the block that asks, on `out` when given."""
    *lead, a, h = increments.shape
    stack = values.swapaxes(-1, -2).reshape(values.shape[:-3] + (a * h, -1))
    return np.matmul(increments.reshape(*lead, 1, a * h),
                     stack if len(stack) == 1 else stack[
                         rows if index is None else index[rows]], out=out)


def _contract(increments: np.ndarray, values: np.ndarray,
              index: np.ndarray | None = None) -> np.ndarray:
    """The one cell contraction: actions ``sum_atoms Phi dM`` (paths,
    [cells,] G) of `values` ``(rows, [cells,] atoms, G, H)`` (path p reading
    row 0, p or ``index[p]``) on `increments` ``(paths, [cells,] atoms, H)``,
    checked on the calling thread (:func:`_check_fit`), then made one path
    block at a time by :func:`_contract_rows`."""
    _check_fit(increments, values, index)
    out = np.empty(increments.shape[:-2] + (1, values.shape[-2]))

    def block(rows: slice) -> None:
        _contract_rows(increments[rows], values, index, rows, out[rows])

    _by_path_blocks(len(increments), block)
    return out[..., 0, :]


def _cell_actions(phi: GridIntegrand, ens: MVMPathEnsemble) -> np.ndarray:
    """The cellwise actions ``sum_atoms Phi dM`` of `phi` on `ens` (paths,
    cells, G), after checking that the two fit together (see
    :func:`_contract`)."""
    _check_grid(phi.grid, ens)
    return _contract(ens.increments, phi.values, phi.index)


def integrate_grid(phi: GridIntegrand, ens: MVMPathEnsemble) -> np.ndarray:
    """Integrate a grid integrand: the paths (paths, n_times, G) of the
    cumulative sums of cellwise actions, the zero-rate case of
    :meth:`mvmlab.spde.DiagonalSemigroup.scan`."""
    return _running_sum(_cell_actions(phi, ens))


@dataclass(frozen=True)
class SimpleTerm:
    """One block ``1_{(t_s, t_t]} 1_F 1_{atoms} S`` of a simple integrand.

    `event` is True (the sure event) or a hook called with the increments
    of cells ``< s_index`` only, so F is known at t_s: like every hook (see
    :mod:`mvmlab.integrate`), it is asked once per block of paths, gets the
    past of that block and returns one boolean per path of it.
    """

    s_index: int
    t_index: int
    atoms: tuple[int, ...]
    matrix: np.ndarray
    event: object = True


@dataclass(frozen=True, eq=False)
class SimpleIntegrand:
    """Simple integrand in overlap normal form, bound to an ensemble.

    Construction evaluates the event hooks against path history (structural
    adaptedness) and enforces the normal form: any two terms must have
    disjoint time intervals, or identical intervals with pathwise disjoint
    events or disjoint mark sets.
    """

    grid: GridSpec
    paths: int
    terms: tuple[tuple[int, int, tuple[int, ...], np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, ens: MVMPathEnsemble, terms: Sequence[SimpleTerm]
              ) -> "SimpleIntegrand":
        grid = ens.grid
        shaped = []
        dims = set()
        asked = []  # (event array to fill, s_index, hook)
        for term in terms:
            s, t = int(term.s_index), int(term.t_index)
            if not 0 <= s < t <= grid.n_cells:
                raise ValueError(f"bad interval indices ({s}, {t}]")
            atoms = tuple(sorted(set(int(j) for j in term.atoms)))
            if atoms and (atoms[0] < 0 or atoms[-1] >= grid.n_atoms):
                raise ValueError("term mark set outside the grid menu")
            matrix = np.asarray(term.matrix, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[1] != ens.dim:
                raise ValueError(f"term matrix shape {matrix.shape} does not "
                                 f"accept dim-{ens.dim} increments")
            dims.add(matrix.shape[0])
            if term.event is True:
                ev = np.ones(ens.paths, dtype=bool)
            elif callable(term.event):
                ev = np.empty(ens.paths, dtype=bool)
                asked.append((ev, s, term.event))
            else:
                raise ValueError("event must be True or a hook on the past")
            shaped.append((s, t, atoms, matrix, ev))
        if not shaped:
            raise ValueError("a simple integrand needs at least one term")
        if len(dims) > 1:
            raise ValueError("terms disagree on the target dimension")

        def block(rows: slice) -> None:
            for ev, s, hook in asked:
                got = np.asarray(_ask(
                    f"event hook for interval starting at cell {s}", hook,
                    _past(ens, rows, s)), dtype=bool)
                if got.shape != ev[rows].shape:
                    raise ValueError(
                        "event must resolve to one boolean per path")
                ev[rows] = got

        _by_path_blocks(ens.paths, block)
        cls._check_normal_form(shaped)
        return cls(grid=grid, paths=ens.paths, terms=tuple(shaped))

    @staticmethod
    def _check_normal_form(shaped) -> None:
        for a in range(len(shaped)):
            s1, t1, atoms1, _, ev1 = shaped[a]
            for b in range(a + 1, len(shaped)):
                s2, t2, atoms2, _, ev2 = shaped[b]
                if t1 <= s2 or t2 <= s1:
                    continue  # disjoint intervals
                if (s1, t1) == (s2, t2):
                    if not set(atoms1) & set(atoms2):
                        continue  # same interval, disjoint mark sets
                    if not np.any(ev1 & ev2):
                        continue  # same interval, pathwise disjoint events
                raise NormalFormError(
                    f"terms {a} and {b} overlap: split intervals or make "
                    f"events/mark sets disjoint")

    @property
    def dim_g(self) -> int:
        return self.terms[0][3].shape[0]


def integrate_simple(phi: SimpleIntegrand, ens: MVMPathEnsemble
                     ) -> np.ndarray:
    """Integrate a simple integrand by the radonification formula, into paths
    (paths, n_times, G).

    Each term contributes ``1_F S(M(t_s .. t, atoms))`` with the increment
    accumulated before S is applied; this is deliberately a different
    summation route than :func:`integrate_grid`.
    """
    _check_grid(phi.grid, ens)
    if phi.paths != ens.paths:
        raise ValueError("integrand was built against a different ensemble size")
    n_times = len(ens.times)
    out = np.zeros((ens.paths, n_times, phi.dim_g))
    for s, t, atoms, matrix, ev in phi.terms:
        if not atoms:
            continue
        seg = ens.increments[:, s:t, atoms].sum(axis=2) @ matrix.T
        cum = np.cumsum(seg, axis=1)
        gated = np.where(ev[:, None, None], cum, 0.0)
        out[:, s + 1:t + 1] += gated
        out[:, t + 1:] += gated[:, -1][:, None]
    return out


def simple_to_grid(phi: SimpleIntegrand) -> GridIntegrand:
    """Materialize a simple integrand as a grid integrand: a table of fields.

    Paths whose events agree on every term share one row: each distinct
    event pattern sums the terms it selects, in term order, and the index
    names each path's pattern, unless there is only one (a shared field)."""
    shape = (phi.grid.n_cells, phi.grid.n_atoms) + phi.terms[0][3].shape
    events = np.stack([ev for *_, ev in phi.terms], axis=1)
    patterns, pattern_of = np.unique(events, axis=0, return_inverse=True)
    # Stored in (H x G) order: the contraction order of GridIntegrand.
    table = _zeros_contraction_order((len(patterns),) + shape)
    for (s, t, atoms, matrix, _), selects in zip(phi.terms, patterns.T):
        for j in atoms:
            table.swapaxes(-1, -2)[selects, s:t, j] += matrix.T
    return GridIntegrand(phi.grid, table, pattern_of if len(table) > 1 else None)


def _density_roots(phi: GridIntegrand, qm: IntensityFamily,
                   qv: DiscreteMeasure) -> np.ndarray:
    """The cellwise square roots ``Q_M^{1/2}`` that `phi` is weighted by, in
    one stacked :func:`~mvmlab.hilbert.psd_sqrt` call (a zero cell gets the
    zero root), once the density and the variation are known to live on the
    grid of `phi`."""
    if qm.grid != phi.grid:
        raise GridMismatchError("density field on a different grid")
    if qv.grid != phi.grid:
        raise GridMismatchError("quadratic variation on a different grid")
    return psd_sqrt(qm.matrices)


def _hs_squares(values: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Entrywise squares of ``Phi o Q_M^{1/2}`` per cell ``(rows, cells,
    atoms, G, H)`` for the field `values` and the `roots` of
    :func:`_density_roots`: summed over (G, H), the squared Hilbert-Schmidt
    norm."""
    weighted = np.matmul(values, roots)
    return np.square(weighted, out=weighted)


def cell_costs(phi: GridIntegrand, qm: IntensityFamily,
               qv: DiscreteMeasure) -> np.ndarray:
    """Cost ``||Phi o Q_M^{1/2}||_HS^2 qv`` per path and cell, (paths,
    n_cells, n_atoms), one block of rows at a time; a shared field is costed
    as one row, and a table's rows are costed, then gathered by its index."""
    roots = _density_roots(phi, qm, qv)
    out = np.empty(phi.values.shape[:3])

    def block(rows: slice) -> None:
        np.multiply(_hs_squares(phi.values[rows], roots).sum(axis=(-2, -1)),
                    qv.cell_mass, out=out[rows])

    _by_path_blocks(out.shape[0], block)
    return out if phi.index is None else out[phi.index]


def lambda2_profile(phi: GridIntegrand, qm: IntensityFamily,
                    qv: DiscreteMeasure) -> np.ndarray:
    """Cumulative squared integration norm at every grid time, averaged over
    the paths of a per-path field."""
    costs = cell_costs(phi, qm, qv).mean(axis=0)
    return _running_sum(costs.sum(axis=1), axis=0)


def grid_stopping_time(ens: MVMPathEnsemble,
                       hook: Callable[[np.ndarray, int], np.ndarray]
                       ) -> np.ndarray:
    """First grid index at which an adapted rule fires, per path.

    ``hook(past, i)`` sees the increments of cells ``< i`` of one block of
    paths and returns one boolean for all of them or one per path of that
    block; the result is the smallest such i (or n_cells when the rule
    never fires, i.e. the stopping time is the horizon).  Each block asks
    the rule for i = 0, 1, ... until all of its paths have fired.
    """
    n = ens.grid.n_cells
    stop = np.full(ens.paths, n, dtype=np.int64)

    def block(rows: slice) -> None:
        stop_rows = stop[rows]
        open_mask = np.ones(stop_rows.shape, dtype=bool)
        for i in range(n + 1):
            fired = np.asarray(_ask(f"stopping rule at index {i}", hook,
                                    _past(ens, rows, i), i), dtype=bool)
            if fired.shape not in ((), stop_rows.shape):
                raise ValueError(f"stopping rule at index {i} must resolve to "
                                 f"one boolean per path, got {fired.shape}")
            stop_rows[open_mask & fired] = i
            open_mask &= ~fired
            if not open_mask.any():
                return

    _by_path_blocks(ens.paths, block)
    return stop


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Both sides of a pathwise identity, their largest entrywise gap, and
    the scale ``max(1, max |rhs|)`` that gap is judged against."""

    lhs: np.ndarray  # (paths, n_times, G)
    rhs: np.ndarray
    max_abs_gap: float
    scale: float


def _identity_report(lhs: np.ndarray, rhs: np.ndarray) -> IdentityReport:
    gap = float(np.abs(lhs - rhs).max(initial=0.0))
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return IdentityReport(lhs, rhs, gap, scale)


def _stopped(actions: np.ndarray, stop_index: np.ndarray) -> np.ndarray:
    """The integral of the cell actions (paths, n_cells, G) before each
    path's stopping index: later cells add exact zeros."""
    before = np.arange(actions.shape[1])[None, :] < stop_index[:, None]
    return _running_sum(np.where(before[:, :, None], actions, 0.0))


def stopped_integral(phi: GridIntegrand, ens: MVMPathEnsemble,
                     stop_index: np.ndarray, check: bool = True
                     ) -> IdentityReport:
    """Both sides of the stopping identity ``I(1_{[0,sigma]} Phi) = I_{. ^ sigma}``.

    The field is contracted once.  The left side integrates the actions of
    the cells before the stopping time (later cells add exact zeros); the
    right side clamps the integral of all the actions at the stopping time,
    so the two sides agree exactly.  A stopping index is a grid index, from
    0 to n_cells.  `check` turns a nonzero gap into an error (regression
    guard).
    """
    stop_index = np.asarray(stop_index, dtype=np.int64)
    if stop_index.shape != (ens.paths,):
        raise ValueError("need one stopping index per path")
    if np.any((stop_index < 0) | (stop_index > phi.grid.n_cells)):
        raise ValueError(f"stopping indices must lie in 0..{phi.grid.n_cells}")
    actions = _cell_actions(phi, ens)
    lhs = _stopped(actions, stop_index)
    idx = np.minimum(np.arange(len(ens.times))[None, :], stop_index[:, None])
    rhs = np.take_along_axis(_running_sum(actions), idx[:, :, None], axis=1)
    report = _identity_report(lhs, rhs)
    if check and report.max_abs_gap > 0.0:
        raise RuntimeError(f"stopped-integral identity violated "
                           f"(gap {report.max_abs_gap:.3e})")
    return report


def restricted_integral(phi: GridIntegrand, ens: MVMPathEnsemble,
                        s_index: int, t_index: int,
                        event: np.ndarray | bool = True) -> IdentityReport:
    """Both sides of the restriction identity: the integral of
    ``1_{(t_s, t_t]} 1_F Phi`` against ``1_F (I_{. ^ t_t} - I_{. ^ t_s})``.

    The field is contracted once; the left side integrates the actions of
    the cells in the window on the paths in F, the right side takes the
    increment of the full integral over the window.  The two sums round
    differently, so the gap is of rounding size, not zero.
    """
    if not 0 <= s_index <= t_index <= phi.grid.n_cells:
        raise ValueError(f"bad restriction window ({s_index}, {t_index}]")
    on_event = np.asarray(event, dtype=bool)[..., None]
    if on_event.shape not in ((1,), (ens.paths, 1)):
        raise ValueError("event must resolve to one boolean per path")
    actions = _cell_actions(phi, ens)
    window = np.zeros(phi.grid.n_cells, dtype=bool)
    window[s_index:t_index] = True
    lhs = _running_sum(np.where((on_event & window)[..., None], actions, 0.0))
    full = _running_sum(actions)
    clock = np.clip(np.arange(len(ens.times)), s_index, t_index)
    rhs = (full[:, clock] - full[:, [s_index]]) * on_event[..., None]
    return _identity_report(lhs, rhs)


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """Truncations of an integrand along cumulative-cost stopping times."""

    thresholds: tuple[float, ...]
    stop_indices: dict
    truncated_norms: dict
    max_consistency_gap: float
    max_cell_cost: float


def localize(phi: GridIntegrand, ens: MVMPathEnsemble,
             qm: IntensityFamily, qv: DiscreteMeasure,
             thresholds: Sequence[float]) -> LocalizationReport:
    """Stop when the running integration cost first reaches each threshold.

    For threshold n, ``tau_n`` is the first grid time at which the pathwise
    cumulative cost reaches n (horizon if never).  The field is contracted
    once and each truncation integrates the actions of the cells before its
    stopping time.  Returns the truncations' norms and verifies the tower
    consistency: two truncations agree exactly up to the smaller stopping
    time on every path.
    """
    actions = _cell_actions(phi, ens)
    per_cell = np.broadcast_to(cell_costs(phi, qm, qv).sum(axis=2),
                               (ens.paths, phi.grid.n_cells))
    cum = _running_sum(per_cell)
    stop_indices: dict = {}
    integrals: dict = {}
    norms: dict = {}
    for n in thresholds:
        reached = cum >= float(n)
        idx = np.where(reached.any(axis=1), reached.argmax(axis=1),
                       phi.grid.n_cells)
        stop_indices[n] = idx
        integrals[n] = _stopped(actions, idx)
        before = np.arange(phi.grid.n_cells)[None, :] < idx[:, None]
        norms[n] = float(np.sqrt((per_cell * before).sum(axis=1).mean()))
    gap = 0.0
    ordered = sorted(thresholds)
    for lo, hi in zip(ordered, ordered[1:]):
        both = np.minimum(stop_indices[lo], stop_indices[hi])
        keep = np.arange(len(ens.times))[None, :] <= both[:, None]
        diff = (integrals[lo] - integrals[hi]) * keep[:, :, None]
        gap = max(gap, float(np.abs(diff).max(initial=0.0)))
    return LocalizationReport(
        thresholds=tuple(float(n) for n in thresholds),
        stop_indices=stop_indices,
        truncated_norms=norms,
        max_consistency_gap=gap,
        max_cell_cost=float(per_cell.max(initial=0.0)),
    )


def fubini_check(integrands: Sequence[GridIntegrand], weights: Sequence[float],
                 ens: MVMPathEnsemble) -> IdentityReport:
    """Integrate-the-average against average-the-integrals.

    The finite parameter space E carries one integrand and one weight per
    element; the identity compares integrating ``sum_e w_e Phi_e`` with
    ``sum_e w_e I(Phi_e)`` pathwise.
    """
    if len(integrands) != len(weights) or not integrands:
        raise ValueError("need matching, nonempty integrand and weight lists")
    mixed_values = sum(w * phi.values[... if phi.index is None else phi.index]
                       for w, phi in zip(weights, integrands))
    combined = integrate_grid(GridIntegrand(integrands[0].grid, mixed_values), ens)
    summed = sum(w * integrate_grid(phi, ens)
                 for w, phi in zip(weights, integrands))
    return _identity_report(combined, summed)


def pushforward_commute(op: np.ndarray, phi: GridIntegrand,
                        ens: MVMPathEnsemble) -> IdentityReport:
    """Compare integrating ``R o Phi`` with applying R to the integral."""
    lhs = integrate_grid(phi.compose(op), ens)
    integral = integrate_grid(phi, ens)
    rhs = integral.reshape(-1, phi.dim_g) @ np.asarray(op, dtype=np.float64).T
    return _identity_report(lhs, rhs.reshape(integral.shape[:-1] + (-1,)))
