"""Mild solutions of spectral evolution equations driven by grid noise.

The state space is spanned by eigenmodes of a diagonal, negative generator,
so the semigroup acts by modewise exponential decay.  Solutions of

    dX = [A X + B(t, X)] dt + integral over marks of F(t, u, X) M(dt, du)

are produced in mild form by Picard iteration on path ensembles: each
iterate is one exponential-Euler scan from the initial state, with the
coefficients evaluated at left endpoints.  The noise coefficient is always
one map F(t, u, X); additive noise is the map that ignores X.  The
iteration is run in an exponentially weighted path norm (weight
``exp(-beta t)``) whose strength is chosen from the two contraction factors
of the drift and noise parts; the weak (tested) form of the equation is
available as a pathwise residual against every eigenmode, which vanishes at
first order in the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrate import GridIntegrand, IntegralPathEnsemble, _cell_actions
from .noise import DiscreteLevy, DiscreteLevyAtom, MVMPathEnsemble
from .quadvar import QMField, QVEstimate

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
    "MildSolutionPath",
    "picard_solve",
    "weak_residual",
    "HeatExample",
    "heat_example_setup",
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

    def scan(self, times: np.ndarray, contrib: np.ndarray,
             x0: np.ndarray | float = 0.0) -> np.ndarray:
        """Exponential-Euler recursion ``X_0 = x0``, ``X_{m+1} = exp(-l dt_m)
        (X_m + c_m)`` along the cell axis of `contrib` ``(..., n_cells,
        dim)``, so ``X_m = S(t_m - t_0) x0 + sum_{i<m} S(t_m - t_i) c_i``;
        `x0` is one state or one per leading index."""
        self._fits(contrib)
        x0 = np.asarray(x0, dtype=np.float64)
        decay = np.exp(-np.outer(np.diff(times), self.rates))
        lead = np.broadcast_shapes(contrib.shape[:-2], x0.shape[:-1])
        out = np.empty(lead + (len(times), self.dim))
        out[..., 0, :] = x0
        for m in range(len(times) - 1):
            out[..., m + 1, :] = decay[m] * (out[..., m, :] + contrib[..., m, :])
        return out

    def _fits(self, contrib: np.ndarray) -> np.ndarray:
        """`contrib`, once its last axis is known to match the mode count."""
        if contrib.shape[-1] != self.dim:
            raise ValueError(f"semigroup acts on dim {self.dim}, "
                             f"contributions have dim {contrib.shape[-1]}")
        return contrib


def heat_semigroup(n_modes: int) -> DiagonalSemigroup:
    """Dirichlet heat semigroup on the unit interval: rates (k pi)^2."""
    k = np.arange(1, n_modes + 1)
    return DiagonalSemigroup((k * np.pi) ** 2)


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Drift and noise coefficients with their growth/Lipschitz constants.

    `drift(t, x)` maps states (shape ``(..., G)``) to states; `noise(t, x)`
    maps states to operator fields ``(..., n_atoms, G, H)``.  Either may be
    None (no drift, no noise).  A map may ignore the state and return one
    field for all paths, as additive noise does: ``(n_atoms, G, H)``.
    The constants enter the contraction bookkeeping only (they pick the
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
    """The noise map returning the constant field ``(atoms, G, H)``."""
    mats = np.asarray(noise_matrices, dtype=np.float64)
    if mats.ndim != 3:
        raise ValueError("constant noise field must be (atoms, G, H)")
    return lambda t, x: mats


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


def _at_left_endpoints(fn: Callable, times: np.ndarray, states: np.ndarray,
                       axis: int) -> np.ndarray:
    """Stack ``fn(t_i, X_{t_i})`` over the cells i along `axis`, counted from
    the end, so a value that ignores the state keeps no path axis."""
    return np.stack([np.asarray(fn(times[i], states[:, i]), dtype=np.float64)
                     for i in range(len(times) - 1)], axis=axis)


def _contributions(sg: DiagonalSemigroup, coeffs: CoefficientSpec,
                   ens: MVMPathEnsemble, states: np.ndarray
                   ) -> np.ndarray | float:
    """Cell contributions ``B(t_i, X_i) dt_i + F(t_i, X_i) dM_i`` at the left
    endpoints of `states`, (paths, n_cells, G); 0.0 with neither drift nor
    noise.

    The noise field is an integrand for
    :func:`~mvmlab.integrate._cell_actions`: shared (4-d) when the map
    ignores the state, per path (5-d) otherwise, with the same bits for the
    same field.  Each term must land in the semigroup's G modes."""
    out = 0.0
    if coeffs.noise is not None:
        field = _at_left_endpoints(coeffs.noise, ens.times, states, -4)
        out = sg._fits(_cell_actions(GridIntegrand(ens.grid, field), ens))
    if coeffs.drift is not None:
        drift = _at_left_endpoints(coeffs.drift, ens.times, states, -2)
        out = out + np.diff(ens.times)[:, None] * sg._fits(drift)
    return out


def stochastic_convolution(sg: DiagonalSemigroup, phi: GridIntegrand,
                           ens: MVMPathEnsemble) -> IntegralPathEnsemble:
    """Convolution ``t -> sum_{cells before t} S(t - s_cell) Phi(cell) dM``,
    by the recursion ``X_{m+1} = S(dt_m) (X_m + Phi_m dM_m)``, ``X_0 = 0``
    (:meth:`DiagonalSemigroup.scan`; the plain integral is the S = 1 case).
    """
    return IntegralPathEnsemble(ens.times,
                                sg.scan(ens.times, _cell_actions(phi, ens)))


def convolution_second_moment(sg: DiagonalSemigroup, phi: GridIntegrand,
                              qm: QMField, qv: QVEstimate) -> np.ndarray:
    """Modewise closed form for ``E ||conv_t||^2`` (deterministic Phi).

    Per cell and mode the convolution picks up variance
    ``exp(-2 l_k (t - s_i)) <row_k Phi, (qv Q_M) row_k Phi>``; summing over
    earlier cells and modes gives the target curve on the grid.
    """
    if phi.per_path:
        raise ValueError("closed form requires a deterministic integrand")
    weighted = qv.measure.cell_mass[:, :, None, None] * qm.matrices
    per_mode = np.einsum("iagh,iahl,iagl->ig", phi.values, weighted,
                         phi.values, optimize=True)
    doubled = DiagonalSemigroup(2 * sg.rates)
    return doubled.scan(phi.grid.time_points, per_mode).sum(axis=1)


def v_beta_distance(a: np.ndarray, b: np.ndarray, times: np.ndarray,
                    beta: float) -> float:
    """Exponentially weighted path distance, left-endpoint quadrature.

    ``sqrt(mean over paths of sum_i exp(-beta t_i) ||a_i - b_i||^2 dt_i)``.
    """
    times = np.asarray(times, dtype=np.float64)
    dt = np.diff(times)
    w = np.exp(-beta * times[:-1]) * dt
    diff = ((a - b)[:, :-1] ** 2).sum(axis=2)
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


@dataclass(frozen=True, eq=False)
class MildSolutionPath:
    """Picard fixed point on the grid, with the iteration's diagnostics."""

    times: np.ndarray
    values: np.ndarray  # (paths, n_times, G)
    picard_trace: tuple[float, ...]
    converged: bool
    beta: float

    @property
    def paths(self) -> int:
        return self.values.shape[0]

    @property
    def iterations(self) -> int:
        return len(self.picard_trace)

    def ratios(self) -> tuple[float, ...]:
        return tuple(b / a for a, b in zip(self.picard_trace,
                                           self.picard_trace[1:]) if a > 0)


def _check_finite(x: np.ndarray, iteration: int) -> None:
    if not np.all(np.isfinite(x)):
        p, i = np.argwhere(~np.isfinite(x).all(axis=2))[0]
        raise RuntimeError(f"Picard iterate {iteration} diverged at path {p}, "
                           f"time index {i}")


def picard_solve(sg: DiagonalSemigroup, coeffs: CoefficientSpec,
                 ens: MVMPathEnsemble, x0: np.ndarray, tol: float = 1e-8,
                 max_iter: int = 40, initial: str = "semigroup"
                 ) -> MildSolutionPath:
    """Iterate the mild-form map to its fixed point on the path ensemble.

    The map sends X to the scan from `x0` of the cell contributions
    ``B(t_i, X_i) dt_i + F(t_i, X_i) dM_i`` (left endpoints), which is
    ``S(t) x0 + conv(B(., X)) dt + conv(F(., X) dM)`` on the grid.
    Iteration starts from ``S(t) x0`` (or 0) and stops when the update,
    measured in the ``exp(-beta t)`` weighted norm at :func:`default_beta`,
    falls below `tol`; `converged` records whether that happened within
    `max_iter`.
    """
    times = ens.times
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape[-1] != sg.dim:
        raise ValueError("initial state does not match the mode count")
    zero = np.zeros((ens.paths, len(times) - 1, sg.dim))
    if initial == "semigroup":
        x = sg.scan(times, zero, x0)
    elif initial == "zero":
        x = np.zeros((ens.paths, len(times), sg.dim))
    else:
        raise ValueError(f"unknown initial guess {initial!r}")

    def apply_map(x: np.ndarray) -> np.ndarray:
        contrib = _contributions(sg, coeffs, ens, x)
        # With neither drift nor noise the map is constant: S(t) x0.
        return sg.scan(times, zero if np.ndim(contrib) == 0 else contrib, x0)

    beta = default_beta(coeffs, float(times[-1]))
    trace: list[float] = []
    converged = False
    for it in range(1, max_iter + 1):
        x_next = apply_map(x)
        _check_finite(x_next, it)
        dist = v_beta_distance(x_next, x, times, beta)
        trace.append(dist)
        x = x_next
        if dist <= tol:
            converged = True
            break
    return MildSolutionPath(times=times, values=x,
                            picard_trace=tuple(trace), converged=converged,
                            beta=beta)


def weak_residual(sol: MildSolutionPath, sg: DiagonalSemigroup,
                  coeffs: CoefficientSpec, ens: MVMPathEnsemble
                  ) -> np.ndarray:
    """Residual of the weak form along every eigenmode: (paths, n_times,
    modes).

    Along mode k the defect is
    ``X^k_t - X^k_0 + l_k int X^k_s ds - int B^k ds - noise term``
    with left-endpoint quadrature; for solutions produced by the mild
    iteration it vanishes at first order in the step size.
    """
    x = sol.values
    inner = sg.rates * x[:, :-1] * np.diff(ens.times)[None, :, None] \
        - _contributions(sg, coeffs, ens, x)
    residuals = np.zeros_like(x)
    residuals[:, 1:] = np.cumsum(inner, axis=1)
    residuals += x - x[:, [0]]
    return residuals


@dataclass(frozen=True, eq=False)
class HeatExample:
    """Heat equation on (0, 1) with multiplicative-structure additive noise.

    The noise pairs a driver on R^{n_sigma} with the operator sending the
    i-th coordinate to ``alpha_i sigma_i`` (sigma given by sine-mode
    coefficients); its squared Hilbert-Schmidt norm is
    ``sum_i alpha_i^2 ||sigma_i||^2`` by construction.
    """

    semigroup: DiagonalSemigroup
    coefficients: CoefficientSpec
    noise_spec: DiscreteLevy
    f_matrix: np.ndarray


def heat_example_setup(sigma_modes: np.ndarray, alphas: np.ndarray,
                       jumps: Sequence[tuple[np.ndarray, float]] = ()
                       ) -> HeatExample:
    """Assemble the heat scenario: semigroup, additive F, and its driver.

    `sigma_modes` holds one row of sine-mode coefficients per noise channel;
    `alphas` the channel gains.  The driver is a single-mark noise on
    R^{n_sigma} with identity Wiener covariance and the given compensated
    jumps.
    """
    sigma_modes = np.atleast_2d(np.asarray(sigma_modes, dtype=np.float64))
    alphas = np.asarray(alphas, dtype=np.float64)
    n_sigma, n_modes = sigma_modes.shape
    if alphas.shape != (n_sigma,):
        raise ValueError("one gain per noise channel required")
    f_matrix = (alphas[:, None] * sigma_modes).T  # (G, H)
    hs_sq = float((f_matrix ** 2).sum())
    target = float((alphas ** 2 * (sigma_modes ** 2).sum(axis=1)).sum())
    if abs(hs_sq - target) > 1e-12 * max(1.0, target):
        raise AssertionError("Hilbert-Schmidt bookkeeping mismatch")
    atom = DiscreteLevyAtom("U", brownian_cov=np.eye(n_sigma),
                            jumps=tuple((np.asarray(u, float), float(r))
                                        for u, r in jumps))
    spec = DiscreteLevy((atom,))
    coeffs = additive_coefficients(f_matrix[None])
    return HeatExample(semigroup=heat_semigroup(n_modes), coefficients=coeffs,
                       noise_spec=spec, f_matrix=f_matrix)
