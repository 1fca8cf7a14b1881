"""Mild solutions of spectral evolution equations driven by grid noise.

The state space is spanned by eigenmodes of a diagonal, negative generator,
so the semigroup acts by modewise exponential decay.  Solutions of

    dX = [A X + B(t, X)] dt + integral over marks of F(t, u, X) M(dt, du)

are computed in mild form on path ensembles by one forward
exponential-Euler pass, with the coefficients evaluated at left endpoints:
the mild map on the grid is strictly causal, so that pass is its fixed
point.  Picard iteration reaches the same point, in an exponentially
weighted path norm (weight ``exp(-beta t)``) whose strength is chosen from
the two contraction factors of the drift and noise parts.  The noise
coefficient is always one map F(t, u, X); additive noise is the map that
ignores X.  The weak (tested) form of the equation is available as a
pathwise residual against every eigenmode, which vanishes at first order in
the step.  The pass, the convolution, each Picard iterate and the weak
residual (the scan of the zero-rate semigroup) are one time scan,
:meth:`DiagonalSemigroup.scan`, which runs one block of paths at a time on
the path-block threads of :mod:`mvmlab.measures`: the drift and noise maps
are asked about one block's states per step, and the noise term of a step
contracts one cell of the block's rows, so the scan holds no array of the
whole ensemble but its result.  The weighted path distances are reduced
block by block too.  Solutions, stochastic convolutions and residuals are
plain ``(paths, n_times, G)`` arrays, the form of the integrals of
:mod:`mvmlab.integrate`.  The module holds no equation instance: one is a
semigroup (:func:`heat_semigroup`), coefficients and a driver of
:mod:`mvmlab.noise`, put together where it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .integrate import (GridIntegrand, _check_fit, _check_grid,
                        _contract_rows, _density_roots, _hs_squares)
from .measures import DiscreteMeasure, _by_path_blocks, _squared_norms
from .noise import IntensityFamily, MVMPathEnsemble

__all__ = [
    "DiagonalSemigroup",
    "heat_semigroup",
    "CoefficientSpec",
    "additive_coefficients",
    "linear_drift_coefficients",
    "stochastic_convolution",
    "convolution_second_moment",
    "v_beta_distance",
    "contraction_factors",
    "default_beta",
    "mild_solution",
    "MildSolutionPath",
    "picard_solve",
    "weak_residual",
]


@dataclass(frozen=True, eq=False)
class DiagonalSemigroup:
    """Semigroup ``S(t) = diag(exp(-lambda_k t))`` with nonnegative rates, so
    ``||S(t)|| <= 1``."""

    rates: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64)
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("need a nonempty vector of decay rates")
        if np.any(rates < 0):
            raise ValueError("negative decay rate")
        object.__setattr__(self, "rates", rates)

    @property
    def dim(self) -> int:
        return self.rates.shape[0]

    def scan(self, times: np.ndarray,
             step: Callable[[slice, int, np.ndarray], np.ndarray],
             x0: np.ndarray) -> np.ndarray:
        """Exponential-Euler recursion ``X_0 = x0``, ``X_{m+1} = exp(-l dt_m)
        (X_m + c_m)``: the states (paths, n_times, dim) from `x0` (paths,
        dim), one path block at a time
        (:func:`~mvmlab.measures._by_path_blocks`).  Block `rows` takes
        ``c_m = step(rows, m, x)`` at its states `x` (block, dim) at t_m, so
        the step answers for those paths only: a precomputed array c of
        contributions is the step ``lambda rows, m, x: c[rows, m]`` from a
        zero `x0` (a broadcast zero allocates nothing), and a path-less
        recursion is one row."""
        x0 = np.asarray(x0, dtype=np.float64)
        decay = np.exp(-np.outer(np.diff(times), self.rates))
        out = np.empty((len(x0), len(times), self.dim))

        def block(rows: slice) -> None:
            x = out[rows, 0] = x0[rows]
            for m in range(len(times) - 1):
                x = out[rows, m + 1] = decay[m] * (x + step(rows, m, x))

        _by_path_blocks(len(x0), block)
        return out

    def _fits(self, dim: int) -> None:
        """Refuse contributions of `dim` modes unless it is the mode
        count."""
        if dim != self.dim:
            raise ValueError(f"semigroup acts on dim {self.dim}, "
                             f"contributions have dim {dim}")


def heat_semigroup(n_modes: int) -> DiagonalSemigroup:
    """Dirichlet heat semigroup on the unit interval: rates (k pi)^2."""
    k = np.arange(1, n_modes + 1)
    return DiagonalSemigroup((k * np.pi) ** 2)


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Drift and noise coefficients with their growth/Lipschitz constants.

    `drift(t, x)` maps states (shape ``(paths, G)``) to states; `noise(t,
    x)` maps states to operator fields ``(rows, n_atoms, G, H)``, with one
    row per path, or one row for a field that all paths share, as additive
    noise returns.  Either may be None (no drift, no noise).  The time scan
    asks each map once per path block and step, possibly on a pooled thread
    (:meth:`DiagonalSemigroup.scan`), with the states of that block's paths
    only, so a map must be a pure function of ``(t, x)`` and answer for
    those states only.  The constants enter the contraction bookkeeping only (they pick the
    weight of :func:`default_beta`); nothing derives or checks them.
    """

    drift: Callable[[float, np.ndarray], np.ndarray] | None = None
    drift_bound: float = 0.0
    noise: Callable[[float, np.ndarray], np.ndarray] | None = None
    noise_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.drift_bound < 0 or self.noise_bound < 0:
            raise ValueError("growth constants must be nonnegative")


def _state_free(noise_matrices: np.ndarray
                ) -> Callable[[float, np.ndarray], np.ndarray]:
    """The noise map returning the constant field ``(atoms, G, H)`` as one
    row."""
    mats = np.asarray(noise_matrices, dtype=np.float64)
    if mats.ndim != 3:
        raise ValueError("constant noise field must be (atoms, G, H)")
    return lambda t, x: mats[None]


def additive_coefficients(noise_matrices: np.ndarray) -> CoefficientSpec:
    """State-independent noise, no drift."""
    return CoefficientSpec(noise=_state_free(noise_matrices))


def linear_drift_coefficients(gain: float,
                              noise_matrices: np.ndarray | None = None
                              ) -> CoefficientSpec:
    """Drift ``B(t, x) = gain * x`` (Lipschitz and growth constant |gain|)."""
    return CoefficientSpec(drift=lambda t, x: gain * x,
                           drift_bound=abs(gain),
                           noise=None if noise_matrices is None
                           else _state_free(noise_matrices))


def _contribution(sg: DiagonalSemigroup, coeffs: CoefficientSpec,
                  ens: MVMPathEnsemble, rows: slice, i: int, x: np.ndarray
                  ) -> np.ndarray | float:
    """Contribution ``B(t_i, x) dt_i + F(t_i, x) dM_i`` of cell i on the
    paths `rows` at their states `x` (block, G) at its left endpoint; 0.0
    with neither drift nor noise.  The noise field ``(rows, atoms, G, H)``
    of the block goes through the one cell contraction
    :func:`~mvmlab.integrate._contract_rows`, in the block that asks.
    Each term must land in the semigroup's G modes."""
    t = ens.times[i]
    out = 0.0
    if coeffs.noise is not None:
        field = np.asarray(coeffs.noise(t, x), dtype=np.float64)
        increments = ens.increments[rows, i]
        _check_fit(increments, field)
        out = _contract_rows(increments, field, None, slice(None))[:, 0]
        sg._fits(out.shape[-1])
    if coeffs.drift is not None:
        drift = np.asarray(coeffs.drift(t, x), dtype=np.float64)
        sg._fits(drift.shape[-1])
        out = out + (ens.times[i + 1] - t) * drift
    return out


def stochastic_convolution(sg: DiagonalSemigroup, phi: GridIntegrand,
                           ens: MVMPathEnsemble) -> np.ndarray:
    """Convolution paths ``t -> sum_{cells before t} S(t - s_cell) Phi(cell)
    dM`` (paths, n_times, G), by the recursion ``X_{m+1} = S(dt_m) (X_m +
    Phi_m dM_m)``, ``X_0 = 0`` (:meth:`DiagonalSemigroup.scan`; the plain
    integral is the S = 1 case).  The field is checked against the ensemble
    and the semigroup first; then each step of a path block contracts cell
    m of the block's rows (:func:`~mvmlab.integrate._contract_rows`), so no
    actions of the whole ensemble are held.
    """
    _check_grid(phi.grid, ens)
    _check_fit(ens.increments, phi.values, phi.index)
    sg._fits(phi.dim_g)
    return sg.scan(ens.times, lambda rows, m, x: _contract_rows(
        ens.increments[rows, m], phi.values[:, m], phi.index, rows)[:, 0],
        np.broadcast_to(0.0, (ens.paths, sg.dim)))


def convolution_second_moment(sg: DiagonalSemigroup, phi: GridIntegrand,
                              qm: IntensityFamily,
                              qv: DiscreteMeasure) -> np.ndarray:
    """Modewise closed form for ``E ||conv_t||^2`` (deterministic Phi).

    Per cell and mode the convolution picks up variance
    ``exp(-2 l_k (t - s_i)) qv ||row_k (Phi o Q_M^{1/2})||^2``, the row sums
    of the squares whose total is the cell cost of
    :func:`~mvmlab.integrate.cell_costs`; summing over earlier cells and
    modes gives the target curve on the grid.
    """
    if phi.per_path:
        raise ValueError("closed form requires a deterministic integrand")
    squares = _hs_squares(phi.values[0], _density_roots(phi, qm, qv))
    per_mode = (squares.sum(axis=-1) * qv.cell_mass[:, :, None]).sum(axis=1)
    sg._fits(per_mode.shape[-1])
    doubled = DiagonalSemigroup(2 * sg.rates)
    return doubled.scan(phi.grid.time_points, lambda rows, m, x: per_mode[m],
                        np.zeros((1, sg.dim)))[0].sum(axis=1)


def v_beta_distance(a: np.ndarray, b: np.ndarray, times: np.ndarray,
                    beta: float) -> float:
    """Exponentially weighted path distance, left-endpoint quadrature.

    ``sqrt(mean over paths of sum_i exp(-beta t_i) ||a_i - b_i||^2 dt_i)``
    for path results `a` and `b` of one shape (paths, n_times, G) on the
    grid `times`.  The per-path distances are reduced one path block at a
    time (:func:`~mvmlab.measures._squared_norms`).
    """
    times = np.asarray(times, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 3 or times.shape != a.shape[1:2]:
        raise ValueError(f"path results of shapes {a.shape} and {b.shape} "
                         f"on {len(times)} times: need one shape (paths, "
                         f"n_times, G) on n_times times")
    w = np.exp(-beta * times[:-1]) * np.diff(times)
    diff = _squared_norms(a[:, :-1], b[:, :-1])
    return float(np.sqrt((diff * w).sum(axis=1).mean()))


def contraction_factors(coeffs: CoefficientSpec, t_max: float,
                        beta: float) -> tuple[float, float]:
    """The two fixed-point contraction factors (drift, noise) at weight beta,
    for a semigroup with ``||S(t)|| <= 1``."""
    return (coeffs.drift_bound ** 2 * t_max / beta, coeffs.noise_bound / beta)


def default_beta(coeffs: CoefficientSpec, t_max: float) -> float:
    """Weight making both contraction factors at most 1/8."""
    base = max(coeffs.drift_bound ** 2 * t_max, coeffs.noise_bound)
    return 8.0 * base if base > 0 else 1.0


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        p, i = np.argwhere(~np.isfinite(x).all(axis=2))[0]
        raise RuntimeError(f"{what} diverged at path {p}, time index {i}")


def mild_solution(sg: DiagonalSemigroup, coeffs: CoefficientSpec,
                  ens: MVMPathEnsemble, x0: np.ndarray) -> np.ndarray:
    """The grid mild solution (paths, n_times, G) from `x0`, one state or one
    per path: the scan whose contributions ``B(t_m, X_m) dt_m + F(t_m, X_m)
    dM_m`` read the states it reaches.  The mild map's value at t_m reads
    only X_i, i < m, so this is its fixed point, and Picard iterate m
    matches it up to t_m."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape not in ((sg.dim,), (ens.paths, sg.dim)):
        raise ValueError(f"initial state of shape {x0.shape} does not match "
                         f"the mode count and path count: it needs "
                         f"({sg.dim},) or ({ens.paths}, {sg.dim})")
    x = sg.scan(ens.times, partial(_contribution, sg, coeffs, ens),
                np.broadcast_to(x0, (ens.paths, sg.dim)))
    _check_finite(x, "forward pass")
    return x


@dataclass(frozen=True, eq=False)
class MildSolutionPath:
    """Picard fixed point on the grid, with the iteration's diagnostics."""

    values: np.ndarray  # (paths, n_times, G)
    picard_trace: tuple[float, ...]
    beta: float

    @property
    def iterations(self) -> int:
        return len(self.picard_trace)

    def ratios(self) -> tuple[float, ...]:
        return tuple(b / a for a, b in zip(self.picard_trace,
                                           self.picard_trace[1:]) if a > 0)


def picard_solve(sg: DiagonalSemigroup, coeffs: CoefficientSpec,
                 ens: MVMPathEnsemble, x0: np.ndarray, tol: float = 1e-8,
                 max_iter: int = 40) -> MildSolutionPath:
    """Iterate the mild-form map from ``S(t) x0`` to its fixed point.

    The map sends X to the scan from `x0` of the cell contributions
    ``B(t_i, X_i) dt_i + F(t_i, X_i) dM_i`` (left endpoints), which is
    ``S(t) x0 + conv(B(., X)) dt + conv(F(., X) dM)`` on the grid.  It stops
    when the update, in the ``exp(-beta t)`` weighted norm at
    :func:`default_beta`, falls below `tol`, or after `max_iter` updates.
    """
    times = ens.times
    x = mild_solution(sg, CoefficientSpec(), ens, x0)
    beta = default_beta(coeffs, float(times[-1]))
    trace: list[float] = []
    for it in range(1, max_iter + 1):
        x_next = sg.scan(times, lambda rows, m, xm, x=x: _contribution(
            sg, coeffs, ens, rows, m, x[rows, m]), x[:, 0])
        _check_finite(x_next, f"Picard iterate {it}")
        trace.append(v_beta_distance(x_next, x, times, beta))
        x = x_next
        if trace[-1] <= tol:
            break
    return MildSolutionPath(values=x, picard_trace=tuple(trace), beta=beta)


def weak_residual(x: np.ndarray, sg: DiagonalSemigroup,
                  coeffs: CoefficientSpec, ens: MVMPathEnsemble
                  ) -> np.ndarray:
    """Residual of the weak form of the solution `x` (paths, n_times, G)
    along every eigenmode: (paths, n_times, modes).

    Along mode k the defect is
    ``X^k_t - X^k_0 + l_k int X^k_s ds - int B^k ds - noise term``
    with left-endpoint quadrature; for mild solutions on the grid it
    vanishes at first order in the step size.  The sums over cells are the
    scan of the zero-rate semigroup (:meth:`DiagonalSemigroup.scan`) whose
    step is ``l X_m dt_m`` less the contribution of cell m at X_m, so the
    drift and noise maps are asked once per path block and step.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ens.paths, len(ens.times), sg.dim):
        raise ValueError(f"solution of shape {x.shape} does not match the "
                         f"ensemble and the mode count: it needs "
                         f"({ens.paths}, {len(ens.times)}, {sg.dim})")
    dt = np.diff(ens.times)
    residuals = DiagonalSemigroup(np.zeros(sg.dim)).scan(
        ens.times, lambda rows, m, r: sg.rates * x[rows, m] * dt[m]
        - _contribution(sg, coeffs, ens, rows, m, x[rows, m]),
        np.broadcast_to(0.0, (ens.paths, sg.dim)))
    residuals += x - x[:, [0]]
    return residuals
