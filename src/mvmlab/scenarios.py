"""Named verification scenarios behind the command-line runner.

Each scenario builds a concrete instance (driver, grid, integrands),
computes the quantities the theory pins down, and returns a list of checks
with target, measured value, tolerance and a provenance tag saying where
the target comes from: an independent enumeration, a closed form, a
pathwise identity that is exact by construction (``exact_identity``, which
reads 0) or holds between two routes that round differently
(``rounding_identity``), a Monte Carlo gate (:meth:`ScenarioResult.add_max_z`:
the largest of m z-scores of :func:`mvmlab.noise.mean_se` estimates, against
the Sidak level :func:`mvmlab.noise.max_z_level` of m at alpha = 1e-3), or an
analytic bound.  Artifacts are plain CSV/JSON strings keyed by
file name; outputs are byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import haar, integrate, noise, quadvar, spde
from .hilbert import operator_norm_psd, sphere_sequence
from .measures import (_BLOCK, DiscreteMeasure, _csv_text, _squared_norms,
                       brute_force_sup, make_grid, monotone_sup, sup_measures)

__all__ = ["Check", "ScenarioResult", "RunReport", "SCENARIOS",
           "ScenarioInputError", "run_scenario", "list_scenarios"]


class ScenarioInputError(ValueError):
    """An unknown scenario, an unknown parameter, a parameter value whose
    JSON type differs from its default's, or one out of its range (the seed
    and the path count included)."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    target: float
    tolerance: float
    provenance: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name, "passed": bool(self.passed),
            "measured": float(self.measured), "target": float(self.target),
            "tolerance": float(self.tolerance),
            "provenance": self.provenance, "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: measured={self.measured:.6g} "
                f"target={self.target:.6g} tol={self.tolerance:.3g} "
                f"[{self.provenance}]")


@dataclass
class ScenarioResult:
    checks: list[Check] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, measured: float, target: float, tolerance: float,
            provenance: str, detail: str = "") -> None:
        passed = bool(abs(measured - target) <= tolerance)
        self.checks.append(Check(name, passed, float(measured), float(target),
                                 float(tolerance), provenance, detail))

    def add_upper(self, name: str, measured: float, bound: float,
                  provenance: str, detail: str = "") -> None:
        """Check of the form measured <= bound."""
        self.checks.append(Check(name, bool(measured <= bound),
                                 float(measured), float(bound),
                                 float(bound), provenance, detail))

    def add_max_z(self, name: str, mean, se, target,
                  detail: str = "") -> float:
        """Monte Carlo gate: the largest z = |mean - target| / se over all m
        entries must not exceed the level :func:`mvmlab.noise.max_z_level`
        of m, which a fault-free run exceeds with probability
        ``noise.GATE_ALPHA``; where se is 0, z is 0 if the mean equals the
        target and inf if not.  Returns that largest z."""
        gap, se = np.broadcast_arrays(np.abs(np.asarray(mean) - target), se)
        z = np.divide(gap, se, out=np.where(gap == 0, 0.0, np.inf), where=se != 0)
        level = noise.max_z_level(z.size)
        count = (f"alpha {noise.GATE_ALPHA:g}, level {level:.4f}; "
                 f"largest of {z.size} z-scores")
        self.add_upper(name, float(z.max()), level, "monte_carlo_3se",
                       f"{detail}; {count}" if detail else count)
        return float(z.max())

    def add_lower(self, name: str, measured: float, bound: float,
                  provenance: str, detail: str = "") -> None:
        """Check of the form measured >= bound."""
        self.checks.append(Check(name, bool(measured >= bound),
                                 float(measured), float(bound),
                                 float(bound), provenance, detail))


@dataclass(frozen=True)
class RunReport:
    scenario: str
    seed: int
    paths: int
    params: dict
    wall_clock_seconds: float
    all_passed: bool
    checks: tuple[Check, ...]
    artifacts: dict[str, str]

    def to_json(self) -> str:
        return json.dumps({
            "scenario": self.scenario,
            "seed": self.seed,
            "paths": self.paths,
            "params": self.params,
            "wall_clock_seconds": round(self.wall_clock_seconds, 3),
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
            "artifact_files": sorted(self.artifacts),
        }, indent=2, sort_keys=True)


def _random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a.T @ a


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _gap_over_scale(report: integrate.IdentityReport) -> float:
    """The largest gap of a pathwise identity against its scale."""
    return report.max_abs_gap / report.scale


def _require(ok: bool, name: str, key: str, rule: str) -> None:
    """Reject parameter `key` of scenario `name` before it runs unless `ok`."""
    if not ok:
        raise ScenarioInputError(f"parameter {key!r} of scenario {name!r} {rule}")


# ---------------------------------------------------------------------------
# supremum-of-measures oracle


def _scn_sup_measures(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    rng = np.random.default_rng(seed)
    trials = params["trials"]
    mismatches = 0
    worst_gap = 0.0
    rows = []
    for trial in range(trials):
        grid = make_grid(1.0, int(rng.integers(1, 4)),
                         [f"a{j}" for j in range(rng.integers(1, 3))])
        n_meas = int(rng.integers(1, params["max_measures"] + 1))
        family = [DiscreteMeasure(grid, rng.integers(0, 41, size=(
            grid.n_cells, grid.n_atoms)) / 8.0) for _ in range(n_meas)]
        all_cells = grid.cells()
        size = int(rng.integers(1, min(len(all_cells),
                                       params["max_cells"]) + 1))
        pick = rng.choice(len(all_cells), size=size, replace=False)
        cells = [all_cells[i] for i in pick]
        cellwise = sup_measures(family).mass(cells)
        partition = brute_force_sup(family, cells)
        if cellwise != partition:
            mismatches += 1
            worst_gap = max(worst_gap, abs(cellwise - partition))
        rows.append((f"{trial},{n_meas},{size}", cellwise, partition))
    res.add("partition_oracle_mismatches", mismatches, 0.0, 0.0,
            "independent_enumeration",
            f"{trials} random families, dyadic masses; worst gap {worst_gap}")

    # Monotone limits: nested mark menus of a white-noise intensity family.
    spec = noise.white_noise((("a", 0.5), ("b", 1.0), ("c", 2.0)))
    grid = noise.default_grid(spec, 1.0, 8)
    full = noise.intensity_family(spec, grid).measure(np.array([1.0]))
    nested = [full.restrict_atoms(range(j + 1)) for j in range(grid.n_atoms)]
    limit = monotone_sup(nested)
    res.add("monotone_limit_gap",
            float(np.abs(limit.cell_mass - full.cell_mass).max()),
            0.0, 0.0, "closed_form",
            "nested restrictions recover the full intensity measure")

    # Unbounded families: scaled copies have supremum equal to the last term.
    base = DiscreteMeasure(make_grid(1.0, 2, ["a"]), [[1.0], [0.5]])
    scaled = [base.scaled(n) for n in range(1, 9)]
    res.add("counting_family_total", sup_measures(scaled).mass(),
            8 * base.mass(), 0.0, "closed_form",
            "sup over n * mu grows linearly in the largest n")
    counts, *masses = zip(*rows)
    res.artifacts["sup_measures_trials.csv"] = _csv_text(
        "trial,n_measures,n_cells,cellwise,partition", [list(counts), *masses])
    return res


# ---------------------------------------------------------------------------
# white-noise intensities and quadratic variation


def _scn_white_noise(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    rates = tuple((str(k), float(v)) for k, v in params["rates"])
    _require(len(rates) >= 2, "white_noise_qv", "rates",
             "needs two atoms for the orthogonality gate")
    _require(len({k for k, _ in rates}) == len(rates), "white_noise_qv",
             "rates", "repeats an atom label")
    _require(all(v >= 0 for _, v in rates), "white_noise_qv", "rates",
             "has a negative rate")
    _require(params["t_max"] > 0, "white_noise_qv", "t_max", "must be > 0")
    spec = noise.white_noise(rates)
    grid = noise.default_grid(spec, params["t_max"], params["steps"])
    ens = noise.simulate(spec, grid, paths, seed)
    lam = np.array([v for _, v in rates])
    one = np.array([1.0])

    # Second moments of M(t, A) against t * lam(A).
    sets = [(j,) for j in range(grid.n_atoms)] + [tuple(range(grid.n_atoms))]
    mean, se = noise.mean_se(np.hstack([ens.cumulative(one, atoms)[:, 1:] ** 2
                                        for atoms in sets]))
    target = np.concatenate([np.asarray(grid.time_points)[1:]
                             * lam[list(atoms)].sum() for atoms in sets])
    res.add_max_z("second_moment_max_z", mean, se, target,
                  "E M(t,A)^2 = t lam(A) over all grid times and mark sets")

    # Closed-form intensity against the empirical one, cellwise.
    family = noise.intensity_family(spec, grid)
    nu_mean, nu_se = noise.empirical_intensity(ens, one)
    res.add_max_z("intensity_max_z", nu_mean, nu_se,
                  family.measure(one).cell_mass)

    # Quadratic variation: the dim-1 sphere is exact.
    est = quadvar.qv_supremum(family, sphere_sequence(1, 2))
    target = np.outer(grid.dt, lam)
    res.add_upper("qv_exactness_gap",
                  float(np.abs(est.cell_mass - target).max()),
                  1e-12, "closed_form", "qv cell mass = dt * lam(atom)")

    res.add_max_z("orthogonality_3se",
                  *noise.orthogonality_check(ens, one, (0,), (1,)), 0.0,
                  "covariance of disjoint-mark martingales")
    res.artifacts["white_noise_qv.csv"] = est.to_csv()
    res.artifacts["white_noise_intensity.csv"] = \
        DiscreteMeasure(grid, nu_mean).to_csv()
    return res


# ---------------------------------------------------------------------------
# discrete-menu driver: quadratic variation and operator density


def _variation(spec: noise.NoiseSpecBase, grid, sphere: int = 0,
               sphere_seed: int = 11) -> tuple:
    """The stages from `spec` on `grid` to its variation and density, each
    computed once: (intensity family, polarized field alpha, supremum qv over
    `sphere` unit vectors (128 per dimension when 0), density Q_M)."""
    family = noise.intensity_family(spec, grid)
    alpha = quadvar.bilinear_field(family)
    qv = quadvar.qv_supremum(family, sphere_sequence(
        spec.dim, sphere or max(2, 128 * spec.dim), sphere_seed))
    return family, alpha, qv, quadvar.qm_density(alpha, qv)


def _menu_variation(res: ScenarioResult, name: str, spec: noise.DiscreteLevy,
                    params: dict) -> tuple:
    """Grid and :func:`_variation` of a finite-menu driver at the scenario's
    `t_max`, `steps`, `sphere` and `sphere_seed`, with the closed forms of
    every atom checked: for ``Q_k = atom.effective_cov()`` its cells carry
    ``dt ||Q_k||`` (relative shortfall within `qv_rtol`) and its density is
    ``Q_k / ||Q_k||`` (entrywise within `qm_atol`)."""
    _require(params["t_max"] > 0, name, "t_max", "must be > 0")
    _require(params["sphere"] >= spec.dim, name, "sphere",
             f"must be at least 'dim' = {spec.dim}")
    grid = noise.default_grid(spec, params["t_max"], params["steps"])
    stages = _variation(spec, grid, params["sphere"], params["sphere_seed"])
    _, _, qv, qm = stages
    covs = [atom.effective_cov() for atom in spec.atoms]
    norms = [operator_norm_psd(c) for c in covs]
    dt = grid.dt[0]
    rel = max((dt * n - mass) / (dt * n)
              for n, mass in zip(norms, qv.cell_mass[0]))
    res.add_upper("qv_rel_shortfall", float(rel), params["qv_rtol"],
                  "closed_form", f"dt ||Q_k|| per atom; atom norms "
                  f"{[round(n, 4) for n in norms]}, sphere {params['sphere']}")
    gap = max(float(np.abs(density - c / n).max())
              for density, c, n in zip(qm.matrices[0], covs, norms))
    res.add_upper("qm_entrywise_gap", gap, params["qm_atol"], "closed_form",
                  "density vs Q_k / ||Q_k|| per atom")
    return grid, stages


def _levy_menu(rng: np.random.Generator, dim: int) -> noise.DiscreteLevy:
    q0 = _random_psd(rng, dim)
    q1 = _random_psd(rng, dim)
    b2 = _random_psd(rng, dim)
    u = rng.standard_normal(dim)
    return noise.DiscreteLevy((
        noise.DiscreteLevyAtom("a1", brownian_cov=q0),
        noise.DiscreteLevyAtom("a2", brownian_cov=q1),
        noise.DiscreteLevyAtom("a3", brownian_cov=b2, jumps=((u, 1.5),)),
    ))


def _scn_discrete_levy(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    dim = params["dim"]
    rng = np.random.default_rng(seed)
    _, (family, alpha, est, qm) = _menu_variation(
        res, "discrete_levy_qv", _levy_menu(rng, dim), params)
    spread = float(np.abs(est.cell_mass - est.cell_mass[[0]]).max())
    res.add_upper("qv_time_homogeneity_gap", spread, 1e-12, "closed_form",
                  "uniform grid: every time cell carries the same mass")

    # Polarization rebuilds the quadratic-form matrices exactly.
    oracle = family.matrices
    scale = float(np.abs(oracle).max())
    res.add_upper("polarization_reconstruction_gap",
                  float(np.abs(alpha.matrices - oracle).max()) / scale,
                  1e-12, "closed_form")

    # Kunita-Watanabe-type bound: |alpha(x, y)| <= ||x|| ||y|| qv, cellwise.
    bound_ok = 0.0
    for _ in range(8):
        x, y = rng.standard_normal((2, dim))
        a = quadvar.alpha_polarization(family, x, y)
        bound = est.scaled(np.linalg.norm(x) * np.linalg.norm(y))
        # The sphere sup slightly undershoots; allow its relative shortfall.
        slack = params["qv_rtol"] * bound.cell_mass.max()
        excess = np.abs(a) - bound.cell_mass
        bound_ok = max(bound_ok, float(excess.max()) - slack)
    res.add_upper("alpha_bound_excess", bound_ok, 0.0, "analytic_bound",
                  "|alpha(x,y)| <= ||x|| ||y|| qv up to sampling slack")
    res.artifacts["discrete_levy_qv.csv"] = est.to_csv()
    res.artifacts["discrete_levy_qm.csv"] = quadvar.qm_to_csv(qm)
    return res


# ---------------------------------------------------------------------------
# state-space-valued driver: Wiener atom plus jump atoms


def _scn_hvalued(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    dim = params["dim"]
    rng = np.random.default_rng(seed)
    q = _random_psd(rng, dim)
    jumps = tuple((rng.standard_normal(dim) * (1.0 + j), 1.0 + 1.5 * j)
                  for j in range(params["jumps"]))
    spec = noise.h_valued_levy(q, jumps)
    # A jump atom's Q_k is rate u u^T: dt rate ||u||^2 and a rank-1 projection.
    grid, (family, _, est, qm) = _menu_variation(res, "hvalued_levy_qm",
                                                 spec, params)

    # Jump atoms: density is exactly rank one after clipping.
    eig = np.linalg.eigvalsh(qm.matrices[0, 1])
    res.add_upper("jump_density_rank1_defect", float(np.abs(eig[:-1]).max()),
                  1e-9, "closed_form")

    # Empirical intensity of a random direction; Wiener against jump atoms.
    ens = noise.simulate(spec, grid, paths, seed)
    x = _unit(rng, dim)
    res.add_max_z("intensity_max_z", *noise.empirical_intensity(ens, x),
                  family.measure(x).cell_mass)
    res.add_max_z("orthogonality_3se", *noise.orthogonality_check(
        ens, x, (0,), tuple(range(1, 1 + len(jumps)))), 0.0)
    res.artifacts["hvalued_qv.csv"] = est.to_csv()
    res.artifacts["hvalued_qm.csv"] = quadvar.qm_to_csv(qm)
    return res


# ---------------------------------------------------------------------------
# divergence construction: no quadratic variation exists


def _scn_haar(seed: int, paths: int, params: dict) -> ScenarioResult:
    for key in ("k_max", "k_sim"):
        _require(params[key] <= haar.MAX_LEVEL, "haar_counterexample", key,
                 f"must be at most {haar.MAX_LEVEL}, got {params[key]}")
    res = ScenarioResult()
    k_max = params["k_max"]
    rows = []
    worst_exact = 0.0
    worst_lower = np.inf
    worst_ratio = np.inf
    for k in range(1, k_max + 1):
        value = quadvar.counterexample_partition_sum(k)
        # The running supremum starts at the constant function's mass.
        ratio = value / float(haar.haar_cell_integrals(k)[0].sum())
        worst_exact = max(worst_exact, abs(value - float(2 ** k)))
        worst_lower = min(worst_lower, value - float(2 ** k))
        worst_ratio = min(worst_ratio, ratio / float(2 ** (k - 1)))
        rows.append((str(k), value, str(2 ** k), ratio))
    res.add_upper("partition_sum_quadrature_gap", worst_exact, 0.0,
                  "quadrature", "exact dyadic arithmetic, k = 1.." + str(k_max))
    res.add_lower("partition_sum_excess_over_2^k", worst_lower, 0.0,
                  "analytic_bound")
    res.add_lower("trace_ratio_over_2^(k-1)", worst_ratio, 1.0,
                  "analytic_bound", "running supremum keeps growing: no "
                  "quadratic variation exists")

    # Simulate the driver at a small level and match quadrature intensities.
    k_sim = params["k_sim"]
    spec = noise.IntegralType.from_haar(k_sim)
    grid = noise.default_grid(spec, 1.0, 2 ** k_sim)
    ens = noise.simulate(spec, grid, paths, seed)
    family = noise.intensity_family(spec, grid)
    table = haar.haar_cell_integrals(k_sim)
    dim = haar.haar_dimension(k_sim)
    # Cells off a wavelet's support carry exact zeros on both sides (z = 0).
    basis = (0, 1, dim - 1)
    # Stacked per basis vector: (mean or se, vector, cell) on the one atom.
    mean, se = np.stack([noise.empirical_intensity(ens, np.eye(dim)[n])
                         for n in basis], axis=1)[..., 0]
    res.add_max_z("intensity_max_z", mean, se, table[list(basis)],
                  "basis intensities are deterministic, from quadrature")

    # Boundedness probe: the uniform deviation obeys the quadrature bound
    # integral of |x_n^2 - x^2| over [0, t].
    rng = np.random.default_rng(seed)
    x = _unit(rng, dim)
    probe = np.roll(x, 1) + 0.5
    probe /= np.linalg.norm(probe)
    values = haar.haar_values(k_sim)
    w = 2.0 ** (-(k_sim + 1))
    excess = 0.0
    for n in range(1, 5):
        x_n = x + 2.0 ** (-n) * probe
        x_n /= np.linalg.norm(x_n)
        dev = quadvar._uniform_deviation(family, x_n, x)
        bound = float(np.abs((values.T @ x_n) ** 2
                             - (values.T @ x) ** 2).sum() * w)
        excess = max(excess, dev - bound)
    res.add_upper("modulus_bound_excess", excess, 1e-12, "quadrature",
                  "uniform deviation <= integral of |x_n^2 - x^2|")
    levels, sums, bounds, ratios = zip(*rows)
    res.artifacts["haar_partition_sums.csv"] = _csv_text(
        "k,partition_sum,lower_bound,trace_ratio",
        [list(levels), sums, list(bounds), ratios])
    return res


# ---------------------------------------------------------------------------
# integration isometry


def _isometry_pairs(seed: int):
    """Five (driver, integrand) combinations used by the isometry scenario;
    the two simple integrands come as built, for both integration routes."""
    rng = np.random.default_rng(seed)
    pairs = []

    wn = noise.white_noise((("a", 0.5), ("b", 1.0), ("c", 2.0)))
    wn_grid = noise.default_grid(wn, 1.0, 20)
    s1 = np.array([[1.0], [-0.5], [2.0]])
    pairs.append(("white_noise/constant", wn, wn_grid,
                  lambda ens: integrate.GridIntegrand.constant(wn_grid, s1)))

    dl = _levy_menu(rng, 4)
    dl_grid = noise.default_grid(dl, 1.0, 20)
    s2 = rng.standard_normal((3, 4))
    pairs.append(("discrete_levy/constant", dl, dl_grid,
                  lambda ens: integrate.GridIntegrand.constant(dl_grid, s2)))

    s3 = rng.standard_normal((3, 4))
    s4 = rng.standard_normal((3, 4))

    def build_simple_dl(ens):
        terms = [
            integrate.SimpleTerm(0, 7, (0,), s3),
            integrate.SimpleTerm(7, 14, (1, 2), s4,
                                 event=lambda past: past[:, 0, 0, 0] > 0),
            integrate.SimpleTerm(7, 14, (1, 2), -0.5 * s3,
                                 event=lambda past: past[:, 0, 0, 0] <= 0),
            integrate.SimpleTerm(14, 20, (0, 1), 0.25 * s4),
        ]
        return integrate.SimpleIntegrand.build(ens, terms)

    pairs.append(("discrete_levy/simple_multi_term", dl, dl_grid,
                  build_simple_dl))

    hv = noise.h_valued_levy(_random_psd(rng, 3),
                             ((rng.standard_normal(3), 2.0),
                              (rng.standard_normal(3), 0.7)))
    hv_grid = noise.default_grid(hv, 1.0, 20)
    s5 = rng.standard_normal((2, 3))
    profile = np.stack([(1.0 + t) * s5 for t in hv_grid.time_points[:-1]])
    pairs.append(("hvalued_levy/time_profile", hv, hv_grid,
                  lambda ens: integrate.GridIntegrand.from_time_profile(
                      hv_grid, profile)))

    def build_simple_hv(ens):
        terms = [
            integrate.SimpleTerm(0, 10, (0, 1), s5),
            integrate.SimpleTerm(10, 20, (0, 2), -2.0 * s5,
                                 event=lambda past: past[:, :, 1, 0].sum(axis=1) > 0),
        ]
        return integrate.SimpleIntegrand.build(ens, terms)

    pairs.append(("hvalued_levy/simple_event", hv, hv_grid, build_simple_hv))
    return pairs


def _scn_ito_isometry(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    rows, drawn = [], None
    for name, spec, grid, build in _isometry_pairs(params["pair_seed"]):
        if spec is not drawn:
            # One ensemble and one variation per driver, its pairs in a row.
            drawn, ens = spec, noise.simulate(spec, grid, paths, seed)
            _, _, qv, qm = _variation(spec, grid)
        simple = phi = build(ens)
        if isinstance(simple, integrate.SimpleIntegrand):
            phi = integrate.simple_to_grid(simple)
        integral = integrate.integrate_grid(phi, ens)
        costs = integrate.cell_costs(phi, qm, qv)
        per_path_cost = np.broadcast_to(costs.sum(axis=(1, 2)), (paths,))
        term = integral[:, -1]
        terminal_sq = (term ** 2).sum(axis=1)
        z_iso = res.add_max_z(
            f"isometry_z[{name}]", *noise.mean_se(terminal_sq - per_path_cost),
            0.0, "paired difference of ||I_T||^2 and the cell cost")
        z_mean = res.add_max_z(f"zero_mean_z[{name}]", *noise.mean_se(term),
                               0.0)
        if simple is not phi:
            # The radonification route, term by term, against the grid route.
            res.add_upper(f"simple_route_gap_over_scale[{name}]",
                          _gap_over_scale(integrate._identity_report(
                              integrate.integrate_simple(simple, ens),
                              integral)), 1e-10,
                          "rounding_identity", "integrate_simple against "
                          "integrate_grid of simple_to_grid")
        if not rows:  # the first pair, on white noise: its profile in time
            mean, se = noise.mean_se(_squared_norms(integral))
            res.artifacts["ito_isometry_profile.csv"] = _csv_text(
                "t,mean_norm2,se,isometry_target", [
                    ens.times, mean, se,
                    integrate.lambda2_profile(phi, qm, qv)])
        rows.append((name, float(terminal_sq.mean()),
                     float(per_path_cost.mean()), z_iso, z_mean))
    names, *values = zip(*rows)
    res.artifacts["ito_isometry_pairs.csv"] = _csv_text(
        "pair,mc_second_moment,lambda2_sq,z_isometry,max_z_mean",
        [list(names), *values])
    return res


# ---------------------------------------------------------------------------
# pathwise identities: averaged parameters


def _scn_fubini(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    rng = np.random.default_rng(seed)
    hv = noise.h_valued_levy(_random_psd(rng, 3),
                             ((rng.standard_normal(3), 1.5),))
    grid = noise.default_grid(hv, 1.0, 16)
    ens = noise.simulate(hv, grid, paths, seed)
    n_members = params["family_size"]
    members = []
    for _ in range(n_members):
        profile = np.stack([np.cos(3 * t) * rng.standard_normal((2, 3))
                            for t in grid.time_points[:-1]])
        members.append(integrate.GridIntegrand.from_time_profile(grid, profile))
    weights = rng.random(n_members)
    report = integrate.fubini_check(members, weights, ens)
    res.add_upper("fubini_gap_over_scale", _gap_over_scale(report),
                  params["tol"], "rounding_identity",
                  f"family of {n_members} integrands, weighted mix")
    res.artifacts["fubini_mixed.csv"] = _csv_text("t,mean_norm2,se", [
        ens.times, *noise.mean_se(_squared_norms(report.lhs))])
    return res


# ---------------------------------------------------------------------------
# pathwise identities: stopping, restriction, pushforward, localization


def _scn_stopped(seed: int, paths: int, params: dict) -> ScenarioResult:
    _require(len(params["thresholds"]) > 0, "stopped_integral", "thresholds",
             "must not be empty")
    res = ScenarioResult()
    tol = params["tol"]
    rng = np.random.default_rng(seed)
    spec = _levy_menu(rng, 4)
    grid = noise.default_grid(spec, 1.0, 20)
    ens = noise.simulate(spec, grid, paths, seed)
    # Sized so the localization thresholds fire at scattered grid times.
    base = 0.2 * rng.standard_normal((3, 4))

    def hook(past, i):
        if i == 0:
            return base
        drive = np.tanh(past[:, :, 0, 0].sum(axis=1))
        return base[None, None] * (1.0 + 0.5 * drive)[:, None, None, None]

    phi = integrate.GridIntegrand.from_history(ens, hook)
    x = _unit(rng, 4)

    def stop_rule(past, i):
        if i == 0:
            return np.zeros(past.shape[0], dtype=bool)
        walk = np.abs((past @ x).sum(axis=(1, 2)))
        return walk > 0.8

    # Each identity's gap is read where its report is made, so no report's
    # two sides outlive the check.
    sigma = integrate.grid_stopping_time(ens, stop_rule)
    res.add_upper("stopped_gap_over_scale", _gap_over_scale(
        integrate.stopped_integral(phi, ens, sigma, check=False)),
        0.0, "exact_identity",
        f"stop indices span {int(sigma.min())}..{int(sigma.max())}")
    # The first firing, found without the early exit or the open-path
    # bookkeeping: the rule at every index of the first path block.
    rows = slice(0, _BLOCK)
    fired = np.stack([stop_rule(integrate._past(ens, rows, i), i)
                      for i in range(grid.n_cells + 1)], axis=1)
    first = np.where(fired.any(axis=1), fired.argmax(axis=1), grid.n_cells)
    res.add_upper("stopping_index_gap",
                  float(np.abs(first - sigma[rows]).max()), 0.0,
                  "exact_identity", f"largest |first firing - "
                  f"grid_stopping_time| in cells, first {len(first)} paths")

    # Window-and-event restriction identity.
    event = ens.increments[:, :5, 0, 0].sum(axis=1) > 0
    res.add_upper("restriction_gap_over_scale", _gap_over_scale(
        integrate.restricted_integral(phi, ens, 5, 15, event)),
        tol, "rounding_identity")

    res.add_upper("pushforward_gap_over_scale", _gap_over_scale(
        integrate.pushforward_commute(rng.standard_normal((2, 3)), phi, ens)),
        tol, "rounding_identity")

    _, _, qv, qm = _variation(spec, grid)
    loc = integrate.localize(phi, ens, qm, qv,
                             thresholds=tuple(params["thresholds"]))
    res.add_upper("localization_gap_over_scale", loc.max_consistency_gap
                  / max(1.0, loc.max_cell_cost), 0.0, "exact_identity",
                  "truncations agree up to the smaller stopping time")
    bound_excess = max(loc.truncated_norms[n] ** 2
                       - (n + loc.max_cell_cost)
                       for n in loc.thresholds)
    res.add_upper("localization_norm_bound_excess", bound_excess, 0.0,
                  "analytic_bound",
                  "norm^2 <= threshold + one-cell overshoot")
    return res


# ---------------------------------------------------------------------------
# heat equation scenarios


def _heat_instance(seed: int, modes: int, channels: int):
    """The heat equation's driver and its additive noise operator.

    The driver is one mark "U" on R^channels, with identity Wiener
    covariance and one compensated jump along the first channel.  The
    operator (modes x channels) sends channel i to ``alpha_i sigma_i``, with
    sigma_i given by sine-mode coefficients.
    """
    rng = np.random.default_rng(seed)
    sigmas = rng.standard_normal((channels, modes)) \
        / (np.arange(1, modes + 1) ** 1.0)
    alphas = 1.0 / (1.0 + np.arange(channels))
    jump = np.zeros(channels)
    jump[0] = 1.0
    atom = noise.DiscreteLevyAtom("U", brownian_cov=np.eye(channels),
                                  jumps=((jump, 2.0),))
    return noise.DiscreteLevy((atom,)), (alphas[:, None] * sigmas).T


def _scn_heat(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    modes = params["modes"]
    steps = params["steps"]
    spec, f = _heat_instance(params["instance_seed"], modes,
                             params["channels"])
    sg = spde.heat_semigroup(modes)
    coeffs = spde.additive_coefficients(f[None])
    x0 = 1.0 / np.arange(1, modes + 1)

    grid = noise.default_grid(spec, 1.0, steps)
    # S(t) x0 in closed form, on every grid of `steps` cells.
    sem = np.exp(-np.outer(grid.time_points, sg.rates)) * x0

    ens = noise.simulate(spec, grid, paths, seed)
    # (a) zero-noise solve on (at most) 8 paths: modewise exponential decay.
    few = noise.MVMPathEnsemble(grid, ens.increments[:8])
    sol0 = spde.mild_solution(sg, spde.CoefficientSpec(), few, x0)
    res.add_upper("zero_noise_gap", float(np.abs(sol0 - sem[None]).max()), 1e-12,
                  "closed_form", "pure semigroup decay, modewise")

    # (b) stochastic convolution second moment against the modewise sum.
    phi = integrate.GridIntegrand.constant(grid, f)
    conv = spde.stochastic_convolution(sg, phi, ens)
    _, _, qv, qm = _variation(spec, grid)
    target = spde.convolution_second_moment(sg, phi, qm, qv)
    mean, se = noise.mean_se(_squared_norms(conv))
    res.add_max_z("convolution_moment_max_z", mean[1:], se[1:], target[1:],
                  "modewise closed sum at every grid time")
    res.artifacts["heat_convolution.csv"] = _csv_text(
        "t,mean_norm2,se,isometry_target", [ens.times, mean, se, target])
    # The additive mild solution is S(t) x0 plus the convolution: its norm
    # is the convolution's distance from -S(t) x0.
    mean, se = noise.mean_se(_squared_norms(conv, -sem))
    res.artifacts["heat_solution.csv"] = _csv_text("t,mean_norm2,se",
                                                   [ens.times, mean, se])

    # (c) weak residual decays at first order across grid refinements.
    res_paths = params["residual_paths"]
    sizes = [steps // 4, steps // 2, steps]
    metrics = []
    for n_steps in sizes:
        g = noise.default_grid(spec, 1.0, n_steps)
        e = noise.simulate(spec, g, res_paths, seed)
        s = spde.mild_solution(sg, coeffs, e, x0)
        peak = np.abs(spde.weak_residual(s, sg, coeffs, e)).max(axis=1)
        worst = max(peak[:, k].mean() for k in range(modes))
        metrics.append(worst)
    dts = 1.0 / np.asarray(sizes, dtype=float)
    slope = float(np.polyfit(np.log(dts), np.log(metrics), 1)[0])
    res.add("weak_residual_order", slope, 1.0, params["slope_band"],
            "quadrature", f"residuals {[f'{m:.4g}' for m in metrics]}")
    res.artifacts["heat_weak_residual.csv"] = _csv_text(
        "steps,dt,mean_max_residual",
        [list(map(str, sizes)), dts, np.array(metrics)])

    # (d) on the finest of those grids (the grid of (b)), the mild solution
    # of the additive equation is S(t) x0 plus the convolution.
    direct = sem + spde.stochastic_convolution(sg, phi, e)
    res.add_upper("additive_solution_gap", float(
        np.abs(s - direct).max() / np.abs(direct).max()), 1e-12,
        "rounding_identity", f"forward pass, {res_paths} paths, {steps} steps")
    return res


def _scn_picard(seed: int, paths: int, params: dict) -> ScenarioResult:
    res = ScenarioResult()
    modes = params["modes"]
    steps = params["steps"]
    spec, f = _heat_instance(params["instance_seed"], modes,
                             params["channels"])
    sg = spde.heat_semigroup(modes)
    gain = params["drift_gain"]
    coeffs = spde.linear_drift_coefficients(gain, f[None])
    grid = noise.default_grid(spec, 1.0, steps)
    ens = noise.simulate(spec, grid, paths, seed)
    x0 = 1.0 / np.arange(1, modes + 1)
    tol = params["tol"]
    sol = spde.picard_solve(sg, coeffs, ens, x0, tol=tol,
                            max_iter=params["max_iter"])
    res.add_upper("picard_iterations", float(sol.iterations), 10.0,
                  "analytic_bound")
    # The solve converged exactly when its last update is within tol.
    res.add_upper("picard_final_update", sol.picard_trace[-1], tol,
                  "analytic_bound", "weighted-norm distance of last iterates")
    # A run that stops before a second update measured no contraction.
    worst = max(sol.ratios(), default=np.inf)
    analytic = float(np.sqrt(max(spde.contraction_factors(
        coeffs, grid.t_max, sol.beta))))
    res.add_upper("picard_ratio_vs_bound", worst, analytic + 0.05,
                  "analytic_bound", f"successive update ratios; contraction "
                  f"bound {analytic:.4f} at beta = {sol.beta}")

    # The Picard limit lies within update * q / (1 - q) of the fixed point.
    forward = spde.mild_solution(sg, coeffs, ens, x0)
    res.add_upper("fixed_point_uniqueness_gap", spde.v_beta_distance(
        sol.values, forward, ens.times, sol.beta),
        sol.picard_trace[-1] * analytic / (1.0 - analytic), "analytic_bound",
        f"Picard limit against the forward pass, q = {analytic:.4f}")
    # Without noise, X_m = prod_{i<m} exp(-l dt_i) (1 + gain dt_i) x0.
    growth = np.cumprod(np.r_[1.0, 1.0 + gain * np.diff(ens.times)])
    closed = np.exp(-np.outer(ens.times, sg.rates)) * x0 * growth[:, None]
    drift_only = spde.mild_solution(
        sg, spde.linear_drift_coefficients(gain),
        noise.MVMPathEnsemble(grid, ens.increments[:4]), x0)
    res.add_upper("drift_closed_form_gap", float(
        (np.abs(drift_only - closed).max(axis=(0, 1))
         / np.abs(closed).max(axis=0)).max()), 1e-12, "closed_form",
        "zero-noise linear drift, largest gap over each mode's scale")
    res.artifacts["picard_trace.csv"] = _csv_text(
        "iteration,v_beta_update",
        [[str(i) for i in range(1, sol.iterations + 1)], sol.picard_trace])
    return res


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ScenarioDef:
    fn: Callable[[int, int, dict], ScenarioResult]
    description: str
    seed: int
    paths: int
    params: dict
    # The smallest value an integer parameter, or the path count (key
    # "paths"), may take, where it has one.
    least: dict = field(default_factory=dict)


SCENARIOS: dict[str, ScenarioDef] = {
    "sup_measures_oracle": ScenarioDef(
        _scn_sup_measures,
        "cellwise supremum of measures against partition enumeration",
        seed=2024, paths=1,
        params={"trials": 120, "max_measures": 5, "max_cells": 6},
        least={"trials": 1, "max_measures": 1, "max_cells": 1}),
    "white_noise_qv": ScenarioDef(
        _scn_white_noise,
        "white-noise intensities, second moments and exact quadratic variation",
        seed=7, paths=10_000,
        params={"rates": [["a", 0.5], ["b", 1.0], ["c", 2.0]],
                "t_max": 1.0, "steps": 20},
        # Empirical intensities need 100 paths.
        least={"steps": 1, "paths": 100}),
    "discrete_levy_qv": ScenarioDef(
        _scn_discrete_levy,
        "finite-mark driver: sphere supremum vs operator norms, density field",
        seed=27, paths=1,
        params={"dim": 4, "t_max": 1.0, "steps": 10, "sphere": 512,
                "sphere_seed": 11, "qv_rtol": 0.02, "qm_atol": 0.02},
        least={"dim": 1, "steps": 1, "sphere_seed": 0}),
    "hvalued_levy_qm": ScenarioDef(
        _scn_hvalued,
        "state-space-valued driver: Wiener and jump atoms, rank-1 densities",
        seed=5, paths=4_000,
        params={"dim": 3, "jumps": 2, "t_max": 1.0, "steps": 10,
                "sphere": 512, "sphere_seed": 11, "qv_rtol": 0.02,
                "qm_atol": 0.02},
        # A jump density's rank-1 defect is read off its other eigenvalues.
        least={"dim": 2, "jumps": 1, "steps": 1, "sphere_seed": 0,
               "paths": 100}),
    "haar_counterexample": ScenarioDef(
        _scn_haar,
        "dyadic partition sums grow like 2^k: the supremum diverges",
        seed=1, paths=2_000,
        params={"k_max": 8, "k_sim": 3},
        least={"k_max": 1, "k_sim": 0, "paths": 100}),
    "ito_isometry": ScenarioDef(
        _scn_ito_isometry,
        "integration isometry and zero mean over five integrand/driver pairs",
        seed=11, paths=20_000,
        params={"pair_seed": 23},
        # A standard error needs two paths.
        least={"pair_seed": 0, "paths": 2}),
    "fubini": ScenarioDef(
        _scn_fubini,
        "integrate-the-mix equals mix-the-integrals, pathwise",
        seed=13, paths=4_000,
        params={"family_size": 5, "tol": 1e-10},
        least={"family_size": 1, "paths": 2}),
    "stopped_integral": ScenarioDef(
        _scn_stopped,
        "stopping, restriction, pushforward and localization identities",
        seed=17, paths=2_000,
        params={"tol": 1e-10, "thresholds": [1.0, 2.0, 4.0, 8.0]}),
    "heat_spde": ScenarioDef(
        _scn_heat,
        "heat equation: decay exactness, convolution moments, weak residual",
        seed=9, paths=10_000,
        params={"modes": 16, "steps": 64, "channels": 4, "instance_seed": 2,
                "residual_paths": 400, "slope_band": 0.3},
        # The weak residual is fitted on grids of steps // 4, // 2 and // 1.
        least={"modes": 1, "steps": 4, "channels": 1, "instance_seed": 0,
               "residual_paths": 1, "paths": 2}),
    "picard_contraction": ScenarioDef(
        _scn_picard,
        "fixed-point iteration under the weighted norm: measured contraction",
        seed=19, paths=500,
        params={"modes": 16, "steps": 32, "channels": 4, "instance_seed": 2,
                "drift_gain": 1.0, "tol": 1e-6, "max_iter": 12},
        least={"modes": 1, "steps": 1, "channels": 1, "instance_seed": 0,
               "max_iter": 1}),
}


def list_scenarios() -> str:
    buf = io.StringIO()
    for name, item in SCENARIOS.items():
        buf.write(f"{name}\n    {item.description}\n")
        buf.write(f"    defaults: seed={item.seed} paths={item.paths} "
                  f"params={json.dumps(item.params, sort_keys=True)}\n")
    return buf.getvalue()


_PARAM_KINDS = {int: "an integer", float: "a number", str: "a string",
                list: "a list"}


def _checked(name: str, key: str, default, value):
    """`value` if it has the JSON type of `default`: an integer default takes
    an integer, a float default any number (stored as a float), a string
    default a string; a bool is none of these.  A list default takes a list
    whose every element fits the default's first element; where that element
    is itself a list (a ``rates`` pair), each element must be a list of its
    length, checked entry by entry."""
    kind = type(default)
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ScenarioInputError(
            f"parameter {key!r} of scenario {name!r} must be "
            f"{_PARAM_KINDS[kind]}, got {value!r}")
    if kind is float:
        return float(value)
    if kind is not list:
        return value
    first = default[0]
    if not isinstance(first, list):
        return [_checked(name, f"{key}[{i}]", first, v)
                for i, v in enumerate(value)]
    out = []
    for i, v in enumerate(value):
        where = f"{key}[{i}]"
        if not isinstance(v, list) or len(v) != len(first):
            raise ScenarioInputError(
                f"parameter {where!r} of scenario {name!r} must be a list "
                f"of {len(first)} entries, got {v!r}")
        out.append([_checked(name, f"{where}[{j}]", d, x)
                    for j, (d, x) in enumerate(zip(first, v))])
    return out


def run_scenario(name: str, seed: int | None = None, paths: int | None = None,
                 params: dict | None = None) -> RunReport:
    """Run a scenario with `params`, the seed and the path count overriding
    its defaults; every override is checked before anything runs (see
    :class:`ScenarioInputError`)."""
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ScenarioInputError(f"unknown scenario {name!r}; choices: "
                                 f"{', '.join(sorted(SCENARIOS))}")
    item = SCENARIOS[name]
    merged = dict(item.params)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ScenarioInputError(
                f"unknown parameter {key!r} for scenario {name!r}; "
                f"expected keys: {', '.join(sorted(merged))}")
        merged[key] = _checked(name, key, merged[key], value)
    seed = item.seed if seed is None else _checked(name, "seed", item.seed, seed)
    paths = (item.paths if paths is None
             else _checked(name, "paths", item.paths, paths))
    _require(0 <= seed <= noise.MAX_SEED, name, "seed",
             f"must be in 0..{noise.MAX_SEED}, got {seed}")
    for key, low in {"paths": 1, **item.least}.items():
        value = paths if key == "paths" else merged[key]
        _require(value >= low, name, key, f"must be at least {low}, got {value}")
    start = time.perf_counter()
    result = item.fn(seed, paths, merged)
    elapsed = time.perf_counter() - start
    return RunReport(
        scenario=name, seed=seed, paths=paths, params=merged,
        wall_clock_seconds=elapsed,
        all_passed=all(c.passed for c in result.checks),
        checks=tuple(result.checks), artifacts=dict(result.artifacts),
    )
