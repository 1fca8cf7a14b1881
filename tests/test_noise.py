"""Noise drivers: validation, closed-form vs empirical intensities, RNG."""

import numpy as np
import pytest

from mvmlab.haar import haar_cell_integrals, haar_dimension
from mvmlab.hilbert import operator_norm_psd, psd_sqrt
from mvmlab import measures
from mvmlab.measures import _BLOCK
from mvmlab.noise import (DiscreteLevy, DiscreteLevyAtom, IntegralType,
                          default_grid, empirical_intensity, h_valued_levy,
                          intensity_family, max_z_level, orthogonality_check,
                          simulate, white_noise)


def wishart(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a.T @ a


@pytest.fixture(scope="module")
def levy_spec():
    rng = np.random.default_rng(100)
    return DiscreteLevy((
        DiscreteLevyAtom("g", brownian_cov=wishart(rng, 3)),
        DiscreteLevyAtom("j", brownian_cov=wishart(rng, 3),
                         jumps=((rng.standard_normal(3), 2.0),)),
    ))


# ---------------------------------------------------------------------------
# specification validation


def test_white_noise_validation():
    with pytest.raises(ValueError, match="at least one mark atom"):
        white_noise(())
    with pytest.raises(ValueError, match="negative intensity rate"):
        white_noise((("a", -1.0),))
    # A rate just below zero would be clipped to zero by the PSD check.
    with pytest.raises(ValueError, match="negative intensity rate"):
        white_noise((("a", 1.0), ("b", -1e-12)))
    with pytest.raises(ValueError, match="duplicate"):
        white_noise((("a", 0.5), ("a", 2.0)))
    spec = white_noise((("a", 0.5), ("b", 2.0)))
    assert isinstance(spec, DiscreteLevy)
    assert spec.atom_labels == ("a", "b")
    assert spec.dim == 1


def test_levy_atom_validation():
    with pytest.raises(ValueError, match="neither"):
        DiscreteLevyAtom("empty")
    with pytest.raises(ValueError, match="negative jump rate"):
        DiscreteLevyAtom("bad", jumps=((np.ones(2), -1.0),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        DiscreteLevyAtom("bad", brownian_cov=np.eye(2),
                         jumps=((np.ones(3), 1.0),))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DiscreteLevyAtom("bad", brownian_cov=np.diag([1.0, -1.0]))
    atom = DiscreteLevyAtom("ok", jumps=((np.array([1.0, 0.0]), 0.5),
                                         (np.array([0.0, 2.0]), 0.25)))
    np.testing.assert_allclose(atom.effective_cov(), np.diag([0.5, 1.0]))


def test_levy_menu_validation():
    a = DiscreteLevyAtom("a", brownian_cov=np.eye(2))
    with pytest.raises(ValueError, match="duplicate"):
        DiscreteLevy((a, a))
    with pytest.raises(ValueError, match="disagree"):
        DiscreteLevy((a, DiscreteLevyAtom("b", brownian_cov=np.eye(3))))
    with pytest.raises(ValueError):
        DiscreteLevy(())


def test_hvalued_validation():
    with pytest.raises(ValueError, match="nonzero"):
        h_valued_levy(np.eye(2), ((np.zeros(2), 1.0),))
    with pytest.raises(ValueError, match="negative"):
        h_valued_levy(np.eye(2), ((np.ones(2), -0.5),))
    spec = h_valued_levy(np.eye(2), ((np.ones(2), 0.5),))
    assert spec.atom_labels == ("0", "jump1")


def test_integral_type_validation():
    ok = IntegralType(loadings=np.ones((3, 2, 4)), weights=np.ones((3, 2)))
    assert ok.dim == 4 and ok.atom_labels == ("U",)
    # Weights must match the loadings cell for cell and component for
    # component, and the loadings need a cell axis.
    for loadings, weights in ((np.ones((3, 2, 4)), np.ones((2, 2))),
                              (np.ones((3, 2, 4)), np.ones((3, 1))),
                              (np.ones((2, 4)), np.ones(2))):
        with pytest.raises(ValueError, match="components"):
            IntegralType(loadings=loadings, weights=weights)
    with pytest.raises(ValueError, match="negative variance"):
        IntegralType(loadings=np.ones((1, 1, 2)), weights=np.array([[-1.0]]))
    grid = default_grid(ok, 1.0, 4)  # driver laid out for 3 cells
    with pytest.raises(ValueError, match="3 time cells"):
        simulate(ok, grid, 1, 0)


def test_grid_driver_atom_mismatch_is_rejected():
    spec = white_noise((("a", 1.0), ("b", 1.0)))
    from mvmlab.measures import make_grid
    with pytest.raises(ValueError, match="mark atoms but the DiscreteLevy"):
        simulate(spec, make_grid(1.0, 4, ["a"]), 2, 0)


# ---------------------------------------------------------------------------
# closed-form intensities


def test_white_noise_intensity_is_dt_times_rate():
    rates = [0.5, 2.0, 0.1]
    spec = white_noise(zip("abc", rates))
    grid = default_grid(spec, 0.7, 7)
    family = intensity_family(spec, grid)
    mats = family.matrices
    assert mats.shape == (7, 3, 1, 1)
    # Bitwise dt x rate: the PSD check leaves a 1 x 1 covariance unchanged.
    assert np.array_equal(mats[..., 0, 0], np.outer(grid.dt, rates))
    nu = family.measure(np.array([1.0]))
    np.testing.assert_allclose(nu.cell_mass, np.outer(grid.dt, rates))
    # nu_x scales with x^2 (dim 1).
    nu3 = family.measure(np.array([3.0]))
    np.testing.assert_allclose(nu3.cell_mass, 9.0 * nu.cell_mass)


def test_intensity_scaling_is_quadratic(levy_spec):
    grid = default_grid(levy_spec, 1.0, 5)
    family = intensity_family(levy_spec, grid)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(3)
        c = float(rng.uniform(0.1, 3.0))
        np.testing.assert_allclose(family.masses(c * x),
                                   c ** 2 * family.masses(x), rtol=1e-12)


def test_intensity_matches_bilinear_matrices(levy_spec):
    grid = default_grid(levy_spec, 1.0, 5)
    family = intensity_family(levy_spec, grid)
    mats = family.matrices
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    direct = np.einsum("d,cade,e->ca", x, mats, x)
    np.testing.assert_allclose(family.masses(x), direct, rtol=1e-12)


def test_intensity_lipschitz_in_the_test_vector(levy_spec):
    # |nu_x - nu_y|(cell) <= ||R_cell|| (||x|| + ||y||) ||x - y||: the
    # intensities move continuously with the tested direction.
    grid = default_grid(levy_spec, 1.0, 5)
    family = intensity_family(levy_spec, grid)
    mats = family.matrices
    norms = np.linalg.norm(mats, ord=2, axis=(2, 3))
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.standard_normal((2, 3))
        lhs = np.abs(family.masses(x) - family.masses(y))
        bound = norms * (np.linalg.norm(x) + np.linalg.norm(y)) \
            * np.linalg.norm(x - y)
        assert np.all(lhs <= bound * (1 + 1e-12))


def test_haar_integral_type_intensities_match_exact_tables():
    # [DERIVED] oracle: the exact dyadic quadrature tables.
    k = 3
    spec = IntegralType.from_haar(k)
    grid = default_grid(spec, 1.0, 2 ** k)
    family = intensity_family(spec, grid)
    table = haar_cell_integrals(k)
    dim = haar_dimension(k)
    for n in (0, 1, 5, dim - 1):
        x = np.zeros(dim)
        x[n] = 1.0
        # The sampling route squares amplitudes like sqrt(2)^j in floats, so
        # it can sit one ulp off the exact squared-value table.  A basis
        # vector picks R_nn out exactly, and R_nn sums two nonnegative
        # squares of amplitudes within one rounding of sqrt(2)^j: four
        # roundings in all, within gamma_4 < 1e-15 on every BLAS kernel.
        np.testing.assert_allclose(family.masses(x)[:, 0], table[n],
                                   rtol=1e-15, atol=0)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff: a sum of
    products, each term through at most n roundings, computed in any order
    (so by any BLAS kernel), lies within gamma_n sum |terms| of the exact
    value (Higham 2002, Lemma 3.1 and section 3.1)."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1 - n * u)


def test_integral_type_intensity_field_is_closed_form():
    # [DERIVED] oracle: cell i carries sum_s w_s eta_s eta_s^T on the one
    # atom, so nu_x = sum_s w_s (x . eta_s)^2.  Both routes round, each in
    # its own order; they may differ by the sum of their forward error
    # bounds.
    spec, steps = _oracle_specs()["integral_type_several"]
    grid = default_grid(spec, 1.0, steps)
    family = intensity_family(spec, grid)
    mats = family.matrices
    dim = 4
    assert mats.shape == (3, 1, dim, dim)
    x = np.random.default_rng(32).standard_normal(dim)
    for i, (etas, w) in enumerate(zip(spec.loadings, spec.weights)):
        k = len(w)
        # Entry (d, e) sums k products w_s eta_sd eta_se of two roundings
        # each, on both routes.
        expect = sum(ws * np.outer(eta, eta) for ws, eta in zip(w, etas))
        terms = (np.abs(etas).T * w) @ np.abs(etas)
        assert np.all(np.abs(mats[i, 0] - expect)
                      <= 2 * _gamma(k + 1) * terms)
        # The monomials w_s x_d eta_sd eta_se x_e pass through at most
        # (k + 1) + 2 + (dim^2 - 1) roundings in <x, R x> and through
        # 2 dim + 1 + 1 + k in sum_s w_s (x . eta_s)^2.
        oracle = sum(ws * (x @ eta) ** 2 for ws, eta in zip(w, etas))
        total = float(w @ (np.abs(etas) @ np.abs(x)) ** 2)
        bound = (_gamma(k + dim * dim + 2) + _gamma(2 * dim + k + 2)) * total
        assert abs(family.masses(x)[i, 0] - oracle) <= bound


# ---------------------------------------------------------------------------
# Monte Carlo: empirical intensities, moments, orthogonality


def test_empirical_intensity_within_three_sigma(levy_spec):
    grid = default_grid(levy_spec, 1.0, 5)
    ens = simulate(levy_spec, grid, 4000, 7)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    mean, se = empirical_intensity(ens, x)
    assert mean.shape == se.shape == (grid.n_cells, grid.n_atoms)
    z = np.abs(mean - intensity_family(levy_spec, grid).masses(x)) / se
    assert z.max() <= max_z_level(z.size)
    with pytest.raises(ValueError, match="at least 100 paths, have 99"):
        empirical_intensity(simulate(levy_spec, grid, 99, 7), x)


def test_increment_means_are_compensated(levy_spec):
    # Both the Brownian and the compensated jump parts are centred.
    grid = default_grid(levy_spec, 1.0, 5)
    ens = simulate(levy_spec, grid, 4000, 11)
    mean = ens.increments.mean(axis=0)
    se = ens.increments.std(axis=0, ddof=1) / np.sqrt(ens.paths)
    assert np.all(np.abs(mean) <= max_z_level(mean.size) * se + 1e-12)


def test_zero_covariance_atom_yields_exact_zero_increments():
    spec = DiscreteLevy((
        DiscreteLevyAtom("null", brownian_cov=np.zeros((2, 2))),
        DiscreteLevyAtom("live", brownian_cov=np.eye(2)),
    ))
    grid = default_grid(spec, 1.0, 4)
    ens = simulate(spec, grid, 50, 0)
    np.testing.assert_array_equal(ens.increments[:, :, 0], 0.0)
    assert np.any(ens.increments[:, :, 1] != 0.0)
    nu = intensity_family(spec, grid).measure(np.ones(2))
    np.testing.assert_array_equal(nu.cell_mass[:, 0], 0.0)


def test_orthogonality_across_disjoint_mark_sets(levy_spec):
    grid = default_grid(levy_spec, 1.0, 5)
    ens = simulate(levy_spec, grid, 4000, 13)
    mean, se = orthogonality_check(ens, np.array([1.0, -0.5, 0.25]), (0,), (1,))
    assert mean.shape == se.shape == ens.times.shape
    assert np.all(np.abs(mean) <= max_z_level(mean.size) * se)
    with pytest.raises(ValueError, match="disjoint"):
        orthogonality_check(ens, np.ones(3), (0, 1), (1,))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_hvalued_jump_atom_covariance_is_rank_one(dim):
    # A jump atom's effective covariance is rate u u^T: its operator norm is
    # rate |u|^2 and its normalization the projection u u^T / |u|^2, the
    # closed forms of its sphere supremum and its density.
    rng = np.random.default_rng(60 + dim)
    jumps = [(rng.standard_normal(dim) * scale, rate)
             for scale, rate in ((1.0, 1.0), (3.0, 2.5), (0.2, 0.7))]
    spec = h_valued_levy(wishart(rng, dim), jumps)
    for atom, (u, rate) in zip(spec.atoms[1:], jumps):
        cov = atom.effective_cov()
        norm = operator_norm_psd(cov)
        np.testing.assert_allclose(norm, rate * (u @ u), rtol=1e-14, atol=0)
        np.testing.assert_allclose(cov / norm, np.outer(u, u) / (u @ u),
                                   rtol=1e-14, atol=0)


def test_hvalued_driver_martingale_second_moment():
    rng = np.random.default_rng(4)
    q = wishart(rng, 3)
    u = rng.standard_normal(3)
    spec = h_valued_levy(q, ((u, 1.5),))
    grid = default_grid(spec, 1.0, 8)
    ens = simulate(spec, grid, 6000, 17)
    x = rng.standard_normal(3)
    # E M(t, full)^2 = t (<x, Q x> + 1.5 <u, x>^2), per grid time.
    m = ens.cumulative(x)
    sq = m[:, 1:] ** 2
    rate = float(x @ q @ x + 1.5 * (u @ x) ** 2)
    target = np.asarray(grid.time_points)[1:] * rate
    se = sq.std(axis=0, ddof=1) / np.sqrt(ens.paths)
    assert np.abs(sq.mean(axis=0) - target).max() \
        <= max_z_level(target.size) * se.max()


# ---------------------------------------------------------------------------
# reproducibility and persistence


def _loop_oracle_path(spec, grid, rng):
    """One path by the single-path formulas, taking its raw draws from `rng`
    in the driver's order."""
    dt = grid.dt
    out = np.zeros((grid.n_cells, grid.n_atoms, spec.dim))
    if isinstance(spec, DiscreteLevy):
        for k, atom in enumerate(spec.atoms):
            if atom.brownian_cov is not None:
                z = rng.standard_normal((grid.n_cells, spec.dim))
                out[:, k] += np.sqrt(dt)[:, None] \
                    * (z @ psd_sqrt(atom.brownian_cov).T)
            for u, rate in atom.jumps:
                mean = rate * dt
                out[:, k] += (rng.poisson(mean) - mean)[:, None] * u
    else:
        for i, (eta, w) in enumerate(zip(spec.loadings, spec.weights)):
            z = rng.standard_normal(w.shape) * np.sqrt(w)
            out[i, 0] = z @ eta
    return out


class _RawRow:
    """Stands in for a generator in `_loop_oracle_path`: hands out one path's
    normals `z` and counts `n` in the order the path asks for them (zeros
    when none are given) and records how many normals and which Poisson
    means it asked for."""

    def __init__(self, z=None, n=None):
        self.z, self.n = z, n
        self.normals, self.means = 0, np.empty(0)

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        self.normals += size
        z = np.zeros(size) if self.z is None \
            else self.z[self.normals - size:self.normals]
        return z.reshape(shape)

    def poisson(self, mean):
        self.means = np.concatenate([self.means, mean])
        stop = self.means.size
        return np.zeros(mean.size, dtype=np.int64) if self.n is None \
            else self.n[stop - mean.size:stop]


def _block_oracle(spec, grid, paths, seed):
    """Paths drawn the documented way, one draw call per path: block b's
    stream Philox(seed, b) gives the normals of its _BLOCK paths row by row,
    then their counts row by row; each row then goes through the single-path
    formulas."""
    layout = _RawRow()
    _loop_oracle_path(spec, grid, layout)
    rows = []
    for b in range(-(-paths // _BLOCK)):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, b], dtype=np.uint64)))
        z = [rng.standard_normal(layout.normals) for _ in range(_BLOCK)]
        n = [rng.poisson(layout.means) for _ in range(_BLOCK)]
        rows += [_loop_oracle_path(spec, grid, _RawRow(zr, nr))
                 for zr, nr in zip(z, n)]
    return np.stack(rows[:paths])


def _oracle_specs():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((4, 3))
    levy = DiscreteLevy((
        DiscreteLevyAtom("zero", brownian_cov=np.zeros((3, 3))),
        DiscreteLevyAtom("jump", jumps=((u[0], 1.5),)),
        DiscreteLevyAtom("two_jumps", jumps=((u[1], 0.5), (u[2], 3.0))),
        DiscreteLevyAtom("mixed", brownian_cov=wishart(rng, 3),
                         jumps=((u[3], 2.0),)),
    ))
    # A zero weight switches a component off: one, three and two components
    # contribute in the three cells.
    several = IntegralType(
        loadings=rng.standard_normal((3, 3, 4)),
        weights=np.array([[0.1, 0.2, 0.05], [0.3, 0.0, 0.0],
                          [0.25, 0.0, 0.125]]))
    return {
        "white_noise": (white_noise((("a", 0.5), ("b", 2.0))), 5),
        "discrete_levy": (levy, 5),
        "hvalued_no_jumps": (h_valued_levy(wishart(rng, 3)), 4),
        "hvalued_two_jumps": (h_valued_levy(
            wishart(rng, 2), ((rng.standard_normal(2), 1.0),
                              (rng.standard_normal(2), 0.25))), 4),
        "haar": (IntegralType.from_haar(3), 8),
        "integral_type_several": (several, 3),
    }


@pytest.mark.parametrize("name", sorted(_oracle_specs()))
def test_simulate_matches_block_oracle_bitwise(name):
    spec, steps = _oracle_specs()[name]
    grid = default_grid(spec, 1.0, steps)
    counts = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
    oracle = _block_oracle(spec, grid, max(counts), 9)
    for paths in counts:
        ens = simulate(spec, grid, paths, 9)
        assert np.array_equal(ens.increments, oracle[:paths]), paths


def _thread_count_specs():
    rng = np.random.default_rng(43)
    return {
        "white_noise": (white_noise((("a", 0.5), ("b", 2.0))), 6),
        "discrete_levy_jump": (DiscreteLevy((
            DiscreteLevyAtom("g", brownian_cov=wishart(rng, 3)),
            DiscreteLevyAtom("j", brownian_cov=0.5 * wishart(rng, 3),
                             jumps=((rng.standard_normal(3), 1.5),)),
        )), 5),
        "h_valued_levy": (h_valued_levy(
            wishart(rng, 2), ((rng.standard_normal(2), 1.0),)), 4),
        "haar": (IntegralType.from_haar(3), 8),
    }


@pytest.mark.parametrize("name", sorted(_thread_count_specs()))
def test_simulate_does_not_depend_on_the_thread_count(name, monkeypatch):
    # 2,500 paths are three blocks, the last one short: drawn by the default
    # threads, by one and by three, the ensembles are the same bytes.
    spec, steps = _thread_count_specs()[name]
    grid = default_grid(spec, 1.0, steps)
    default = simulate(spec, grid, 2_500, 8).increments.tobytes()
    for workers in (1, 3):
        monkeypatch.setattr(measures, "_WORKERS", workers)
        assert simulate(spec, grid, 2_500, 8).increments.tobytes() == default


def test_zero_rate_atom_draws_positive_zeros():
    # A zero Brownian covariance adds exact +0.0, as 0 + sqrt(dt) (z @ 0)
    # does: the scalar fast path must not turn z * 0.0 into -0.0.
    spec = white_noise((("off", 0.0), ("on", 1.0)))
    ens = simulate(spec, default_grid(spec, 1.0, 4), 64, 3)
    off = np.ascontiguousarray(ens.increments[:, :, 0])
    assert off.tobytes() == np.zeros_like(off).tobytes()
    assert np.all(ens.increments[:, :, 1] != 0.0)


def test_enlarging_the_ensemble_preserves_existing_paths(levy_spec):
    grid = default_grid(levy_spec, 1.0, 5)
    small = simulate(levy_spec, grid, 16, 5)
    large = simulate(levy_spec, grid, 64, 5)
    np.testing.assert_array_equal(large.increments[:16], small.increments)
    other = simulate(levy_spec, grid, 16, 6)
    assert np.any(other.increments != small.increments)
    # The prefix survives a block boundary too.
    across = simulate(levy_spec, grid, _BLOCK + 5, 5)
    many = simulate(levy_spec, grid, 3 * _BLOCK, 5)
    np.testing.assert_array_equal(many.increments[:_BLOCK + 5],
                                  across.increments)
    # Each block has a stream of its own: block 1 does not repeat block 0.
    first, second = many.increments[:_BLOCK], many.increments[_BLOCK:2 * _BLOCK]
    assert not np.any(first == second)


def test_seed_validation():
    spec = white_noise((("a", 1.0),))
    grid = default_grid(spec, 1.0, 2)
    with pytest.raises(ValueError):
        simulate(spec, grid, 0, 0)
    with pytest.raises(ValueError):
        simulate(spec, grid, 1, -3)


def test_cumulative_handles_empty_atom_sets(levy_spec):
    grid = default_grid(levy_spec, 1.0, 3)
    ens = simulate(levy_spec, grid, 8, 29)
    m = ens.cumulative(np.ones(3), atoms=())
    np.testing.assert_array_equal(m, 0.0)
    full = ens.cumulative(np.ones(3))
    split = ens.cumulative(np.ones(3), (0,)) + ens.cumulative(np.ones(3), (1,))
    np.testing.assert_allclose(full, split, atol=1e-12)
