"""Finite measure algebra on a time x mark grid.

Everything here is exact bookkeeping on atomic measures: a measure is a
nonnegative mass per grid cell, where a cell is one half-open time interval
``(t_i, t_{i+1}]`` paired with one mark atom.  The only nontrivial operation
is the supremum of a family of measures, defined through finite partitions;
on an atomic grid the finest partition always wins, and ``brute_force_sup``
keeps the partition-enumeration definition alive as an independent oracle.
Three private helpers serve the grid's path results in the other modules:
the running sum over time cells; ``_by_path_blocks``, which spreads per-path
work over blocks of 1024 paths and one thread per usable core; and
``_squared_norms``, the per-path squared distances of two path results,
reduced one block at a time.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Cell",
    "GridMismatchError",
    "GridSpec",
    "DiscreteMeasure",
    "make_grid",
    "sup_measures",
    "brute_force_sup",
    "monotone_sup",
    "iter_partitions",
]

#: A grid cell: (time-cell index, mark-atom index).
Cell = tuple[int, int]

MAX_BRUTE_FORCE_CELLS = 8


class GridMismatchError(ValueError):
    """Two measures (or a measure and an operand) live on different grids."""


@dataclass(frozen=True)
class GridSpec:
    """Time grid on [0, T] together with a finite menu of mark atoms.

    Parameters
    ----------
    time_points : tuple of float
        Strictly increasing, starting at 0.  Cell ``i`` is ``(t_i, t_{i+1}]``.
    mark_atoms : tuple of str
        Distinct atom labels.
    """

    time_points: tuple[float, ...]
    mark_atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        tp = tuple(float(t) for t in self.time_points)
        object.__setattr__(self, "time_points", tp)
        object.__setattr__(self, "mark_atoms", tuple(str(a) for a in self.mark_atoms))
        if len(tp) < 2:
            raise ValueError("need at least two time points")
        if tp[0] != 0.0:
            raise ValueError(f"time grid must start at 0, got {tp[0]}")
        if any(b <= a for a, b in zip(tp, tp[1:])):
            raise ValueError("time points must be strictly increasing")
        if not self.mark_atoms:
            raise ValueError("need at least one mark atom")
        if len(set(self.mark_atoms)) != len(self.mark_atoms):
            raise ValueError("mark atoms must be distinct")

    @property
    def rings(self) -> tuple[frozenset[int], ...]:
        """The mark sets scenarios may query: the empty set, every singleton
        and the full atom menu."""
        n = self.n_atoms
        rings = [frozenset()]
        rings += [frozenset({j}) for j in range(n)]
        if n > 1:
            rings.append(frozenset(range(n)))
        return tuple(rings)

    @property
    def n_cells(self) -> int:
        return len(self.time_points) - 1

    @property
    def n_atoms(self) -> int:
        return len(self.mark_atoms)

    @property
    def t_max(self) -> float:
        return self.time_points[-1]

    @property
    def dt(self) -> np.ndarray:
        return np.diff(np.asarray(self.time_points))

    def cells(self) -> list[Cell]:
        return [(i, j) for i in range(self.n_cells) for j in range(self.n_atoms)]


def make_grid(t_max: float, steps: int, mark_atoms: Sequence[str]) -> GridSpec:
    """Uniform grid with `steps` cells on [0, t_max]."""
    if steps < 1 or t_max <= 0:
        raise ValueError("need steps >= 1 and t_max > 0")
    tp = tuple(np.linspace(0.0, float(t_max), steps + 1))
    return GridSpec(time_points=tp, mark_atoms=tuple(mark_atoms))


def _running_sum(per_cell: np.ndarray, axis: int = 1) -> np.ndarray:
    """Running sums over the grid: 0 at t_0, then the cumulative sums of
    `per_cell` along its cell axis `axis`, written in place after the zero."""
    shape = list(per_cell.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    later = [slice(None)] * per_cell.ndim
    later[axis] = slice(1, None)
    np.cumsum(per_cell, axis=axis, out=out[tuple(later)])
    return out


# Paths per block: per-path work is split into blocks of this many paths, and
# each block of a sampled ensemble draws from a random stream of its own.
_BLOCK = 1024
# Threads that take path blocks: the calling one and one per other usable core.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
# The pooled threads, with the id of the process that started them: a child
# forked later has none of them and starts its own.
_pool = None
_pool_lock = threading.Lock()


def _block_threads(paths: int) -> int:
    """The number of threads that take the blocks of `paths` in
    :func:`_by_path_blocks`."""
    return min(_WORKERS, -(-paths // _BLOCK))


def _by_path_blocks(paths: int, work: Callable[[slice], None]) -> None:
    """Call ``work(rows)`` once for every block ``rows`` of `_BLOCK` paths
    (the last one truncated) out of `paths`.

    The calling thread takes blocks, and so does one pooled thread per other
    usable core; the pool is built on the first call with more than one
    block.  Each call of `work` must write only its own rows of arrays its
    caller allocated, touch only numpy and private helpers (public functions
    run in the caller, before the blocks) and not call this function again,
    not even through a helper: a nested call that submits to the pool can
    wait on pooled threads that wait on it.  So a helper that a block calls
    is a per-block kernel with its checks split off, as
    ``integrate._contract_rows`` and ``integrate._check_fit`` are for
    ``integrate._contract``.  Then the result does not depend on the thread
    count.  Caller code may run in a block too: the hooks of
    :mod:`mvmlab.integrate` and the drift and noise maps that the time scan
    of :mod:`mvmlab.spde` steps through, which must be pure functions of the
    past or the states of the block's paths and answer for those paths only.
    After an error no further block starts, and the error of the calling
    thread, or else the first one of a pooled thread, reaches the caller
    once every started block has ended.
    """
    global _pool
    starts = iter(range(0, paths, _BLOCK))
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            try:
                work(slice(lo, min(lo + _BLOCK, paths)))
            except BaseException:
                with lock:
                    for _ in starts:
                        pass
                raise

    helpers = _block_threads(paths) - 1
    if helpers <= 0:
        take()
        return
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), ThreadPoolExecutor(
                _WORKERS - 1, thread_name_prefix="mvmlab-paths"))
    futures = [_pool[1].submit(take) for _ in range(helpers)]
    try:
        take()
    finally:
        errors = [f.exception() for f in futures]
    for error in errors:
        if error is not None:
            raise error


def _squared_norms(a: np.ndarray, b: np.ndarray | float = 0.0) -> np.ndarray:
    """Per-path squared distances ``((a - b) ** 2).sum(axis=2)`` (paths,
    n_times) of the path results `a` (paths, n_times, G) from `b`, which
    broadcasts to the shape of `a` (a state path all paths share, or 0.0
    for the norms of `a`).  Taken one path block at a time, so no temporary
    of the whole ensemble is made; each row is reduced as in one
    whole-ensemble sum."""
    b = np.broadcast_to(b, a.shape)
    out = np.empty(a.shape[:2])

    def block(rows: slice) -> None:
        out[rows] = ((a[rows] - b[rows]) ** 2).sum(axis=2)

    _by_path_blocks(len(a), block)
    return out


def _reprs(values) -> list[str]:
    """``repr`` of each C-ordered entry of `values` as a Python float,
    rendering each distinct double once.  Doubles are told apart by their
    bit patterns, so ``-0.0`` and ``0.0`` (equal as floats) keep their own
    texts."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(x) for x in distinct.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def _csv_text(header: str, columns: Sequence) -> str:
    """CSV text of equal-length columns: lists of strings, written as they
    are, or float arrays, whose C-ordered entries are written as the ``repr``
    of Python floats (the shortest text that reads back to the same double).
    Each distinct double of a column, keyed by its bit pattern, is rendered
    once and its text reused, which gives the same bytes as a ``repr`` per
    entry."""
    text = [col if isinstance(col, list) else _reprs(col) for col in columns]
    return "\n".join([header, *map(",".join, zip(*text))]) + "\n"


def _cell_csv(grid: GridSpec, names: Sequence[str], values: np.ndarray) -> str:
    """Rows ``t_lo,t_hi,atom_id,<names>`` of `values`, shaped ``(n_cells,
    n_atoms, *rest)``, in C order; `names` holds one index name per trailing
    axis, then the value's name."""
    rest = values.shape[2:]
    per_atom = math.prod(rest)
    per_cell = grid.n_atoms * per_atom
    times = _reprs(grid.time_points)
    index = [list(map(str, axis.ravel().tolist())) * (grid.n_cells * grid.n_atoms)
             for axis in np.indices(rest)]
    columns = [[t for t in times[:-1] for _ in range(per_cell)],
               [t for t in times[1:] for _ in range(per_cell)],
               [a for a in grid.mark_atoms for _ in range(per_atom)] * grid.n_cells,
               *index, values]
    return _csv_text(",".join(["t_lo", "t_hi", "atom_id", *names]), columns)


def _as_mass(grid: GridSpec, cell_mass) -> np.ndarray:
    m = np.asarray(cell_mass, dtype=np.float64)
    if m.shape != (grid.n_cells, grid.n_atoms):
        raise ValueError(
            f"cell_mass shape {m.shape} does not match grid "
            f"({grid.n_cells} time cells x {grid.n_atoms} atoms)")
    if not np.all(np.isfinite(m)):
        raise ValueError("cell masses must be finite")
    if np.any(m < 0):
        bad = np.argwhere(m < 0)[0]
        raise ValueError(f"negative mass at cell {tuple(bad)}")
    return m


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative set function on the grid cells (finite, atomic)."""

    grid: GridSpec
    cell_mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "cell_mass",
                           _as_mass(self.grid, self.cell_mass))

    def mass(self, cells: Iterable[Cell] | None = None) -> float:
        """Mass of a set of cells (all of them when `cells` is None)."""
        if cells is None:
            return float(self.cell_mass.sum())
        return float(sum(self.cell_mass[i, j] for i, j in cells))

    def to_csv(self) -> str:
        return _cell_csv(self.grid, ("mass",), self.cell_mass)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        if factor < 0:
            raise ValueError("a measure scales by nonnegative factors only")
        return DiscreteMeasure(self.grid, factor * self.cell_mass)

    def restrict_atoms(self, atoms: Iterable[int]) -> "DiscreteMeasure":
        keep = sorted(set(atoms))
        mass = np.zeros_like(self.cell_mass)
        mass[:, keep] = self.cell_mass[:, keep]
        return DiscreteMeasure(self.grid, mass)


def _check_family(family: Sequence[DiscreteMeasure]) -> GridSpec:
    if not family:
        raise ValueError("empty family of measures")
    grid = family[0].grid
    for k, mu in enumerate(family[1:], start=1):
        if mu.grid != grid:
            raise GridMismatchError(f"measure {k} lives on a different grid")
    return grid


def sup_measures(family: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """Smallest measure dominating every member of the family.

    Defined through suprema over finite partitions; on an atomic grid the
    finest partition is optimal, so this is the cellwise maximum.  The
    partition definition survives in :func:`brute_force_sup`, which this
    function must agree with exactly.
    """
    grid = _check_family(family)
    stack = np.stack([mu.cell_mass for mu in family])
    return DiscreteMeasure(grid, stack.max(axis=0))


def iter_partitions(items: Sequence):
    """Yield every partition of `items` as a list of blocks (lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in iter_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_force_sup(family: Sequence[DiscreteMeasure],
                    cells: Sequence[Cell]) -> float:
    """Partition-enumeration value of the supremum measure on a cell set.

    Enumerates every partition of `cells` and returns
    ``max over partitions of sum over blocks of max over the family``.
    Exponential in the number of cells, hence the hard cap of
    ``MAX_BRUTE_FORCE_CELLS``; intended purely as an oracle for
    :func:`sup_measures`.
    """
    _check_family(family)
    cells = list(cells)
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate cells in the query set")
    if len(cells) > MAX_BRUTE_FORCE_CELLS:
        raise ValueError(
            f"brute-force supremum limited to {MAX_BRUTE_FORCE_CELLS} cells, "
            f"got {len(cells)}")
    best = 0.0
    for part in iter_partitions(cells):
        value = sum(max(mu.mass(block) for mu in family) for block in part)
        best = max(best, value)
    return best


def monotone_sup(sequence: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """Limit (= last element) of a cellwise nondecreasing sequence.

    Raises if the sequence is not monotone, naming the first offending index.
    """
    _check_family(sequence)
    for k in range(len(sequence) - 1):
        if np.any(sequence[k + 1].cell_mass < sequence[k].cell_mass):
            raise ValueError(f"sequence not monotone at index {k + 1}")
    last = sequence[-1]
    return DiscreteMeasure(last.grid, last.cell_mass.copy())
