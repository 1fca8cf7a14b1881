"""Martingale-valued noise on a time x mark grid.

A driver produces, per path, one H-valued increment for every grid cell
(time cell x mark atom); cumulative sums over cells give a driftless,
orthogonal family of square-integrable martingales indexed by mark sets.
Two driver classes are provided; the first has three constructors:

* ``DiscreteLevy`` -- a finite menu of marks, given atom by atom, each
  carrying an independent H-valued increment with covariance ``dt * Q_k``
  split into a Brownian part and compensated Poisson jumps;
* ``white_noise`` -- a ``DiscreteLevy`` of scalar Gaussian white noise: one
  Brownian atom with intensity ``dt x rate`` per mark;
* ``h_valued_levy`` -- a ``DiscreteLevy`` whose mark space is the state
  space itself: a Wiener part sitting on the origin atom plus one atom per
  jump vector;
* ``IntegralType`` -- a time-changed scalar Brownian driver on a single
  mark, with one stacked array of loading vectors, the same number in
  every cell (this is the variant with deterministic but non-homogeneous
  intensities).

Every driver has deterministic intensities nu_x(cell) = <x, R_cell x>; an
:class:`IntensityFamily` holds the field R, of shape (n_cells, n_atoms, dim,
dim), for every driver alike.

Randomness is counter based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): the paths of a run with seed s come in blocks of
1024, and block b draws from the Philox stream keyed by (s, b), starting at
counter 0 -- first the standard normals of all its paths, then their Poisson
counts, each in two vectorized calls.  Every block is drawn whole, the last
one truncated, so path p depends only on (s, p // 1024): enlarging the path
count leaves the existing paths unchanged (prefix stability).  Each driver
turns a block's raw draws into increments by vectorized arithmetic, element
for element the formulas a single path would use, written in place into the
block's rows of the ensemble.  Blocks are drawn concurrently, one thread per
usable core (:func:`mvmlab.measures._by_path_blocks`); since a block's
stream and rows are its own, the ensemble does not depend on the thread
count.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable, Sequence

import numpy as np

from .hilbert import psd_part, psd_sqrt
from .measures import (_BLOCK, DiscreteMeasure, GridSpec, _block_threads,
                       _by_path_blocks, _running_sum, make_grid)

__all__ = [
    "DiscreteLevyAtom",
    "DiscreteLevy",
    "white_noise",
    "h_valued_levy",
    "IntegralType",
    "MVMPathEnsemble",
    "simulate",
    "MAX_SEED",
    "default_grid",
    "IntensityFamily",
    "intensity_family",
    "mean_se",
    "GATE_ALPHA",
    "max_z_level",
    "empirical_intensity",
    "orthogonality_check",
]


def _as_vector(u, dim: int | None = None) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or (dim is not None and u.shape[0] != dim):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {u.shape}")
    return u


class _DrawPlan:
    """Column layout of one path's raw draws.

    Standard normals and Poisson counts fill two separate rows per path;
    ``normal`` and ``poisson`` return the columns of its row that a draw
    fills, for the driver's ``assemble`` to read back, and ``means`` collects
    the Poisson mean of every count column.
    """

    def __init__(self) -> None:
        self.normals = 0
        self.means = np.empty(0)

    def normal(self, count: int) -> slice:
        self.normals += count
        return slice(self.normals - count, self.normals)

    def poisson(self, mean: np.ndarray) -> slice:
        self.means = np.concatenate([self.means, mean])
        return slice(self.means.size - mean.size, self.means.size)


class NoiseSpecBase(abc.ABC):
    """Shared driver interface: labels, dimension, sampling, intensities."""

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Dimension of the state space H carrying the increments."""

    @property
    @abc.abstractmethod
    def atom_labels(self) -> tuple[str, ...]:
        """Canonical mark-atom labels, in grid order."""

    @abc.abstractmethod
    def _sampler(self, grid: GridSpec
                 ) -> tuple["_DrawPlan", Callable[..., None]]:
        """Return the draw plan of one path and a vectorized ``assemble``.

        ``assemble(z, n, out, scratch)`` maps a block's raw draws --
        standard normals ``z`` of shape (block, plan.normals) and Poisson
        counts ``n`` of shape (block, plan.means.size), one row per path --
        to increments, written into the zeroed ``out`` of shape (block,
        n_cells, n_atoms, dim); ``scratch``, of shape (2, block, n_cells),
        holds the jump terms of a driver with Poisson counts."""

    @abc.abstractmethod
    def _intensity_family(self, grid: GridSpec) -> "IntensityFamily":
        """Closed-form intensities."""

    def validate_grid(self, grid: GridSpec) -> None:
        if grid.n_atoms != len(self.atom_labels):
            raise ValueError(
                f"grid has {grid.n_atoms} mark atoms but the "
                f"{type(self).__name__} driver defines {len(self.atom_labels)}")


@dataclass(frozen=True)
class DiscreteLevyAtom:
    """One mark of a finite-menu driver.

    The increment on every time cell is an independent H-valued variable
    with covariance ``dt * effective_cov``: a centred Gaussian with
    covariance ``dt * brownian_cov`` plus, per jump entry ``(u, rate)``, a
    compensated Poisson term ``(N - rate dt) u``.
    """

    label: str
    brownian_cov: np.ndarray | None = None
    jumps: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self) -> None:
        cov = self.brownian_cov
        if cov is not None:
            cov = psd_part(cov)
        jumps = []
        for u, rate in self.jumps:
            if rate < 0:
                raise ValueError(f"negative jump rate on atom {self.label!r}")
            jumps.append((_as_vector(u), float(rate)))
        dim = cov.shape[0] if cov is not None else None
        for u, _ in jumps:
            if dim is None:
                dim = u.shape[0]
            elif u.shape[0] != dim:
                raise ValueError(f"jump dimension mismatch on atom {self.label!r}")
        if dim is None:
            raise ValueError(f"atom {self.label!r} has neither a Brownian part "
                             "nor jumps")
        object.__setattr__(self, "brownian_cov", cov)
        object.__setattr__(self, "jumps", tuple(jumps))
        object.__setattr__(self, "_dim", dim)

    @property
    def dim(self) -> int:
        return self._dim

    def effective_cov(self) -> np.ndarray:
        """Total increment covariance per unit time."""
        cov = np.zeros((self.dim, self.dim))
        if self.brownian_cov is not None:
            cov += self.brownian_cov
        for u, rate in self.jumps:
            cov += rate * np.outer(u, u)
        return cov


@dataclass(frozen=True)
class DiscreteLevy(NoiseSpecBase):
    """Driver with a finite menu of marks and independent per-mark increments."""

    atoms: tuple[DiscreteLevyAtom, ...]

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("need at least one mark atom")
        if len({a.label for a in atoms}) != len(atoms):
            raise ValueError("duplicate atom labels")
        if len({a.dim for a in atoms}) != 1:
            raise ValueError("atoms disagree on the state dimension")
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    @property
    def atom_labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.atoms)

    def _sampler(self, grid: GridSpec):
        dt = grid.dt
        sqrt_dt = np.sqrt(dt)[:, None]
        plan = _DrawPlan()
        parts = []
        for atom in self.atoms:
            brownian = None
            if atom.brownian_cov is not None:
                cols = plan.normal(grid.n_cells * self.dim)
                root = psd_sqrt(atom.brownian_cov)
                # A zero covariance adds +0.0, as 0 + z @ 0 does; the scalar
                # product below would give -0.0 for a negative normal.
                if root.any():
                    brownian = (cols, root.T)
            jumps = []
            for u, rate in atom.jumps:
                mean = rate * dt
                jumps.append((plan.poisson(mean), mean, u))
            parts.append((brownian, jumps))

        def assemble(z: np.ndarray, n: np.ndarray, out: np.ndarray,
                     scratch: np.ndarray) -> None:
            centred, term = scratch
            for k, (brownian, jumps) in enumerate(parts):
                dst = out[:, :, k]
                if brownian is not None:
                    cols, root_t = brownian
                    zk = z[:, cols].reshape(-1, grid.n_cells, self.dim)
                    if self.dim == 1:  # one rounding, as in a 1 x 1 matmul
                        np.multiply(zk, root_t[0, 0], out=dst)
                    else:
                        np.matmul(zk, root_t, out=dst)
                    dst *= sqrt_dt
                for cols, mean, u in jumps:
                    np.subtract(n[:, cols], mean, out=centred)
                    for d in range(self.dim):
                        dst[..., d] += np.multiply(centred, u[d], out=term)

        return plan, assemble

    def _intensity_family(self, grid: GridSpec) -> "IntensityFamily":
        covs = np.stack([a.effective_cov() for a in self.atoms])
        return IntensityFamily(grid, grid.dt[:, None, None, None] * covs[None])


def white_noise(rates: Iterable[tuple[str, float]]) -> DiscreteLevy:
    """Scalar Gaussian white noise: one Brownian atom per ``(label, rate)``,
    with intensity nu(cell, atom) = dt rate."""
    atoms = []
    for label, rate in rates:
        if rate < 0:
            raise ValueError("negative intensity rate")
        atoms.append(DiscreteLevyAtom(str(label),
                                      brownian_cov=np.array([[float(rate)]])))
    return DiscreteLevy(tuple(atoms))


def h_valued_levy(wiener_cov: np.ndarray,
                  jump_atoms: Sequence[tuple[np.ndarray, float]] = ()
                  ) -> DiscreteLevy:
    """Driver whose marks live in the state space itself.

    Atom ``"0"`` is the origin and carries the Wiener part with covariance
    Q; atom ``"jump<j>"`` is the j-th jump vector u with Poisson rate
    lam({u}), carrying the compensated jump increments.  Intensities:
    nu_h(cell, origin) = dt <h, Q h> and nu_h(cell, u) = dt rate <u, h>^2.
    """
    origin = DiscreteLevyAtom("0", brownian_cov=wiener_cov)
    atoms = [origin]
    for j, (u, rate) in enumerate(jump_atoms, start=1):
        u = _as_vector(u, origin.dim)
        if not np.any(u):
            raise ValueError("jump atoms must be nonzero vectors")
        atoms.append(DiscreteLevyAtom(f"jump{j}", jumps=((u, rate),)))
    return DiscreteLevy(tuple(atoms))


@dataclass(frozen=True)
class IntegralType(NoiseSpecBase):
    """Time-inhomogeneous driver built from scalar Brownian components.

    Cell i receives the increment ``sum_s eta_{i,s} Z_{i,s}`` at the one mark
    "U", with independent ``Z_{i,s} ~ N(0, w_{i,s})``; the loadings eta, of
    shape (n_cells, components, dim), and the variance weights w, of shape
    (n_cells, components) and already absorbing the cell length, are
    deterministic, so the intensities are the deterministic measures
    nu_x(cell) = sum_s w_{i,s} <x, eta_{i,s}>^2, i.e. the field
    R[i, 0] = sum_s w_{i,s} eta_{i,s} eta_{i,s}^T.  For the Haar driver of
    level k that dense field has 2^k 4^(k+1) entries (2,048 at k = 3), never
    more than a level-k ensemble of at least 2^(k+1) paths.
    """

    loadings: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        loadings = np.ascontiguousarray(self.loadings, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if loadings.ndim != 3 or weights.shape != loadings.shape[:2]:
            raise ValueError("need (cells, components, dim) loadings and "
                             "(cells, components) weights")
        if np.any(weights < 0):
            raise ValueError("negative variance weight")
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.loadings.shape[2]

    @property
    def atom_labels(self) -> tuple[str, ...]:
        return ("U",)

    def validate_grid(self, grid: GridSpec) -> None:
        super().validate_grid(grid)
        if grid.n_cells != len(self.loadings):
            raise ValueError(
                f"driver is laid out for {len(self.loadings)} time cells, "
                f"grid has {grid.n_cells}")

    def _sampler(self, grid: GridSpec):
        plan = _DrawPlan()
        cols = plan.normal(self.weights.size)
        std = np.sqrt(self.weights)[:, None, :]

        def assemble(z: np.ndarray, n: np.ndarray, out: np.ndarray,
                     scratch: np.ndarray) -> None:
            # A (block, cells, 1, components) stack keeps the vector-matrix
            # product of a single path and cell, so the rounding matches it
            # bit for bit.
            amplitudes = z[:, cols].reshape((-1,) + std.shape) * std
            np.matmul(amplitudes, self.loadings, out=out)

        return plan, assemble

    def _intensity_family(self, grid: GridSpec) -> "IntensityFamily":
        mats = (self.loadings.swapaxes(1, 2) * self.weights[:, None]) \
            @ self.loadings
        return IntensityFamily(grid, mats[:, None])

    @classmethod
    def from_haar(cls, k: int) -> "IntegralType":
        """Wiener-integral driver against the Haar system of level k.

        State dimension 2^(k+1); one mark atom; time cells are the 2^k
        dyadic intervals, each split into its two half-cells so that every
        basis function is constant on each loading window.
        """
        from .haar import haar_values

        values = haar_values(k)
        return cls(loadings=values.T.reshape(2 ** k, 2, -1),
                   weights=np.full((2 ** k, 2), 2.0 ** (-(k + 1))))


# The largest seed: a Philox key word holds a nonnegative 63-bit integer.
MAX_SEED = 2 ** 63 - 1


def default_grid(spec: NoiseSpecBase, t_max: float, steps: int) -> GridSpec:
    """Uniform grid whose mark atoms match the driver's canonical labels."""
    return make_grid(t_max, steps, spec.atom_labels)


@dataclass(frozen=True, eq=False)
class MVMPathEnsemble:
    """Monte Carlo ensemble of per-cell increments.

    ``increments[p, i, j]`` is the H-valued mass path p places on time cell
    i at mark atom j; cumulative sums over cells realize the martingales
    ``t -> M(t, A)(x)``.
    """

    grid: GridSpec
    increments: np.ndarray  # (paths, n_cells, n_atoms, dim)

    def __post_init__(self) -> None:
        m = np.asarray(self.increments, dtype=np.float64)
        if m.ndim != 4 or m.shape[1] != self.grid.n_cells \
                or m.shape[2] != self.grid.n_atoms:
            raise ValueError(f"increment array shape {m.shape} does not match grid")
        object.__setattr__(self, "increments", m)

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[3]

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.grid.time_points)

    def _atom_list(self, atoms: Iterable[int] | None) -> list[int]:
        if atoms is None:
            return list(range(self.grid.n_atoms))
        atoms = sorted(set(int(j) for j in atoms))
        if atoms and (atoms[0] < 0 or atoms[-1] >= self.grid.n_atoms):
            raise ValueError("atom index outside the grid menu")
        return atoms

    def paired(self, x: np.ndarray) -> np.ndarray:
        """Increments tested against x: array (paths, n_cells, n_atoms)."""
        x = _as_vector(x, self.dim)
        return self.increments @ x

    def cumulative(self, x: np.ndarray, atoms: Iterable[int] | None = None
                   ) -> np.ndarray:
        """Martingale paths t -> M(t, A)(x), shape (paths, n_times)."""
        idx = self._atom_list(atoms)
        return _running_sum(self.paired(x)[:, :, idx].sum(axis=2))


def simulate(spec: NoiseSpecBase, grid: GridSpec, paths: int,
             seed: int) -> MVMPathEnsemble:
    """Draw a path ensemble for a driver.

    Paths come in blocks of ``_BLOCK``: block b draws from the Philox stream
    keyed by (seed, b), starting at counter 0, first the standard normals of
    all its paths, then their Poisson counts, each path-major and each row in
    the driver's column order.  Every block is drawn whole and the last one
    truncated, so path p depends only on (seed, p // _BLOCK) and enlarging
    `paths` leaves the existing paths unchanged.  Blocks are drawn
    concurrently, each into its own rows of the ensemble, so the result is
    the same bits whatever the number of threads.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    if not 0 <= int(seed) <= MAX_SEED:
        raise ValueError("seed must be a nonnegative 63-bit integer")
    spec.validate_grid(grid)
    plan, assemble = spec._sampler(grid)
    out = np.zeros((paths, grid.n_cells, grid.n_atoms, spec.dim))
    # Buffers for one block per thread taking blocks, allocated here: memory
    # a pooled thread allocates stays cached by that thread's allocator.
    jump_cells = grid.n_cells if plan.means.size else 0
    spare = [(np.empty((_BLOCK, plan.normals)),
              np.empty((2, _BLOCK, jump_cells)))
             for _ in range(_block_threads(paths))]

    def draw(rows: slice) -> None:
        rng = np.random.Generator(
            np.random.Philox(key=[int(seed), rows.start // _BLOCK]))
        buffers = z, scratch = spare.pop()
        rng.standard_normal(out=z)
        n = rng.poisson(plan.means, size=(_BLOCK, plan.means.size))
        size = rows.stop - rows.start
        assemble(z[:size], n[:size], out[rows], scratch[:, :size])
        spare.append(buffers)

    _by_path_blocks(paths, draw)
    return MVMPathEnsemble(grid, out)


class IntensityFamily:
    """Deterministic intensities nu_x of a driver, one measure per vector x.

    Every driver has quadratic-form intensities ``nu_x(cell) = <x, R_cell x>``
    with PSD matrices R_cell, held as one field `matrices` of shape
    (n_cells, n_atoms, dim, dim); this makes the scaling rule
    nu_{c x} = c^2 nu_x structural.  The polarized field alpha of
    :func:`mvmlab.quadvar.bilinear_field` and the operator density Q_M of
    :func:`mvmlab.quadvar.qm_density` are such fields as well.
    """

    def __init__(self, grid: GridSpec, matrices: np.ndarray):
        matrices = np.asarray(matrices, dtype=np.float64)
        dim = matrices.shape[-1]
        expected = (grid.n_cells, grid.n_atoms, dim, dim)
        if matrices.shape != expected:
            raise ValueError(f"matrix field shape {matrices.shape}, "
                             f"expected {expected}")
        self.grid = grid
        self.dim = dim
        self.matrices = matrices

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Masses for a batch of vectors: (n_vectors, n_cells, n_atoms)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        return np.einsum("xd,cade,xe->xca", xs, self.matrices, xs,
                         optimize=True)

    def masses(self, x: np.ndarray) -> np.ndarray:
        return self.batch(np.asarray(x, dtype=np.float64)[None])[0]

    def measure(self, x: np.ndarray) -> DiscreteMeasure:
        return DiscreteMeasure(self.grid, self.masses(x))


def intensity_family(spec: NoiseSpecBase, grid: GridSpec) -> IntensityFamily:
    """Closed-form intensity family of a driver on a grid."""
    spec.validate_grid(grid)
    return spec._intensity_family(grid)


def mean_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean over paths (axis 0) and its standard error
    ``std(ddof=1) / sqrt(paths)``: the one estimator every gate judges."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return samples.mean(axis=0), se


# False-alarm rate of one Monte Carlo gate on a fault-free run.
GATE_ALPHA = 1e-3


def max_z_level(m: int) -> float:
    """Sidak level of the largest of `m` independent |z|-scores: the value a
    fault-free run exceeds with probability ``GATE_ALPHA``,
    ``Phi^-1(1 - (1 - (1 - alpha)^(1/m)) / 2)``."""
    if m < 1:
        raise ValueError(f"need at least one z-score, got {m}")
    per_score = -math.expm1(math.log1p(-GATE_ALPHA) / m)
    return -NormalDist().inv_cdf(per_score / 2.0)


def empirical_intensity(ens: MVMPathEnsemble, x: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Estimate nu_x(cell) by averaging squared tested increments, from at
    least 100 paths: the :func:`mean_se` pair, each of shape (n_cells,
    n_atoms)."""
    if ens.paths < 100:
        raise ValueError(f"need at least 100 paths, have {ens.paths}")
    return mean_se(ens.paired(x) ** 2)


def orthogonality_check(ens: MVMPathEnsemble, x: np.ndarray,
                        atoms_a: Iterable[int], atoms_b: Iterable[int]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Empirical orthogonality of the martingales over two disjoint mark sets.

    For each grid time the product of the two martingales is averaged over
    paths: the :func:`mean_se` pair, each of shape (n_times,).  Orthogonality
    makes every mean zero, and the caller judges the z-scores ``|mean| / se``.
    """
    a = set(ens._atom_list(atoms_a))
    b = set(ens._atom_list(atoms_b))
    if a & b:
        raise ValueError(f"mark sets are not disjoint: share {sorted(a & b)}")
    return mean_se(ens.cumulative(x, a) * ens.cumulative(x, b))
