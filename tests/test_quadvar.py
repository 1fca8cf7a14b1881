"""Quadratic variation, polarization, operator densities, counterexample."""

import numpy as np
import pytest

from mvmlab.haar import haar_cell_integrals
from mvmlab.hilbert import operator_norm_psd, psd_sqrt, sphere_sequence
from mvmlab.integrate import GridIntegrand, cell_costs
from mvmlab.noise import (DiscreteLevy, DiscreteLevyAtom, IntegralType,
                          IntensityFamily, default_grid, intensity_family)
from mvmlab.measures import DiscreteMeasure, GridMismatchError, make_grid
from mvmlab.quadvar import (InconsistentDensityError, _uniform_deviation,
                            alpha_polarization, bilinear_field,
                            counterexample_partition_sum, qm_density,
                            qm_to_csv, qv_supremum)


def wishart(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a.T @ a


@pytest.fixture(scope="module")
def driver():
    rng = np.random.default_rng(200)
    return DiscreteLevy((
        DiscreteLevyAtom("g", brownian_cov=wishart(rng, 3)),
        DiscreteLevyAtom("j", brownian_cov=0.5 * wishart(rng, 3),
                         jumps=((rng.standard_normal(3), 1.5),)),
    ))


@pytest.fixture(scope="module")
def family(driver):
    return intensity_family(driver, default_grid(driver, 1.0, 6))


def exact_vectors(driver):
    """Top eigenvectors of every atom covariance, plus the axes.

    The supremum over these is the true cellwise quadratic variation, since
    each per-cell quadratic form is maximized at its own top eigenvector.
    """
    vecs = list(np.eye(3))
    for atom in driver.atoms:
        w, v = np.linalg.eigh(atom.effective_cov())
        vecs.append(v[:, np.argmax(w)])
    return np.array(vecs)


# ---------------------------------------------------------------------------
# supremum estimate


def test_qv_dominates_every_sampled_intensity(family):
    vectors = sphere_sequence(3, 64)
    est = qv_supremum(family, vectors)
    assert isinstance(est, DiscreteMeasure)
    for x in vectors:
        assert np.all(family.masses(x) <= est.cell_mass + 1e-15)
    assert est.grid == family.grid


def test_qv_matches_top_eigenvalues_with_exact_vectors(driver, family):
    est = qv_supremum(family, exact_vectors(driver))
    dt = np.asarray(family.grid.dt)
    tops = [operator_norm_psd(atom.effective_cov()) for atom in driver.atoms]
    np.testing.assert_allclose(est.cell_mass, np.outer(dt, tops), rtol=1e-12)


def test_prefix_suprema_do_not_decrease(family):
    vectors = sphere_sequence(3, 96)
    totals = [qv_supremum(family, vectors[:c]).mass()
              for c in (1, 2, 4, 8, 16, 32, 64, 96)]
    assert all(a <= b for a, b in zip(totals, totals[1:]))
    with pytest.raises(ValueError, match="at least one"):
        qv_supremum(family, np.empty((0, 3)))


@pytest.mark.parametrize("count", [1, 2, 3, 64, 100])
def test_qv_supremum_is_the_cellwise_maximum(family, count):
    # A maximum rounds nothing: the masses are those of the batch, bitwise.
    vectors = np.random.default_rng(count).standard_normal((count, 3))
    est = qv_supremum(family, vectors)
    assert est.cell_mass.tobytes() == \
        family.batch(vectors).max(axis=0).tobytes()


# ---------------------------------------------------------------------------
# polarization and the bilinear field


def test_polarization_recovers_cross_terms(driver, family):
    # [DERIVED] oracle: the quadratic-form matrices the driver was built
    # from, contracted directly as x R y.
    mats = family.matrices
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = rng.standard_normal((2, 3))
        alpha = alpha_polarization(family, x, y)
        direct = np.einsum("d,cade,e->ca", x, mats, y)
        np.testing.assert_allclose(alpha, direct, atol=1e-12)


def test_bilinear_field_equals_driver_matrices(family):
    field = bilinear_field(family)
    assert isinstance(field, IntensityFamily) and field.grid == family.grid
    np.testing.assert_allclose(field.matrices, family.matrices, atol=1e-13)
    assert field.dim == 3
    # Its diagonal nu_x(cell) = alpha(x, x) is the family it polarizes.
    x = np.random.default_rng(8).standard_normal(3)
    np.testing.assert_allclose(field.masses(x), family.masses(x), atol=1e-12)


def test_kunita_watanabe_bounds(driver, family):
    # |alpha(x, y)| <= sqrt(nu_x) sqrt(nu_y) cellwise, and
    # |alpha(x, y)| <= ||x|| ||y|| QV for the exact supremum.
    est = qv_supremum(family, exact_vectors(driver))
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, y = rng.standard_normal((2, 3))
        alpha = alpha_polarization(family, x, y)
        cauchy = np.sqrt(family.masses(x) * family.masses(y))
        assert np.all(np.abs(alpha) <= cauchy * (1 + 1e-12) + 1e-15)
        bound = (float(np.linalg.norm(x) * np.linalg.norm(y))
                 * est.cell_mass)
        assert np.all(np.abs(alpha) <= bound + 1e-12)


# ---------------------------------------------------------------------------
# operator density


def test_qm_density_properties(driver, family):
    est = qv_supremum(family, exact_vectors(driver))
    field = bilinear_field(family)
    qm = qm_density(field, est)
    assert isinstance(qm, IntensityFamily) and qm.grid == family.grid
    mats = qm.matrices
    np.testing.assert_allclose(mats, np.swapaxes(mats, 2, 3), atol=1e-12)
    for i in range(mats.shape[0]):
        for j in range(mats.shape[1]):
            w = np.linalg.eigvalsh(mats[i, j])
            assert w.min() >= -1e-12
            # Exact supremum: density norms are one on charged cells.
            assert w.max() == pytest.approx(1.0, abs=1e-9)
    assert (est.cell_mass > 0).all()
    # Reconstruction: density times variation returns the bilinear field.
    rebuilt = mats * est.cell_mass[:, :, None, None]
    np.testing.assert_allclose(rebuilt, field.matrices, atol=1e-10)
    # Square-root field squares back.
    roots = psd_sqrt(mats)
    np.testing.assert_allclose(np.einsum("cagh,cahk->cagk", roots, roots),
                               mats, atol=1e-10)


def test_qm_density_zero_cells_and_inconsistency():
    spec = DiscreteLevy((
        DiscreteLevyAtom("null", brownian_cov=np.zeros((2, 2))),
        DiscreteLevyAtom("live", brownian_cov=np.diag([2.0, 1.0])),
    ))
    family = intensity_family(spec, default_grid(spec, 1.0, 3))
    est = qv_supremum(family, np.eye(2))
    field = bilinear_field(family)
    qm = qm_density(field, est)
    np.testing.assert_array_equal(est.cell_mass[:, 0], 0.0)
    np.testing.assert_array_equal(qm.matrices[:, 0], 0.0)
    # A zero cell has the zero root, so it costs nothing.
    np.testing.assert_array_equal(psd_sqrt(qm.matrices)[:, 0], 0.0)
    phi = GridIntegrand.constant(family.grid, np.ones((3, 2)))
    costs = cell_costs(phi, qm, est)
    np.testing.assert_array_equal(costs[..., 0], 0.0)
    assert (costs[..., 1] > 0).all()
    # Forge bilinear mass on a zero-variation cell: must be refused.
    forged = field.matrices.copy()
    forged[0, 0] = np.eye(2)
    with pytest.raises(InconsistentDensityError, match="zero quadratic"):
        qm_density(IntensityFamily(family.grid, forged), est)


def test_qm_density_refuses_a_variation_of_another_grid(family):
    # A variation on [0, 2] has the cells and atoms of the field's grid on
    # [0, 1], but not its grid: refused like every other grid mismatch.
    est = qv_supremum(family, np.eye(3))
    grid = family.grid
    moved = DiscreteMeasure(make_grid(2.0, grid.n_cells, grid.mark_atoms),
                            est.cell_mass)
    with pytest.raises(GridMismatchError, match="different grids"):
        qm_density(bilinear_field(family), moved)


def test_qm_csv_round_trip(driver, family):
    est = qv_supremum(family, exact_vectors(driver))
    qm = qm_density(bilinear_field(family), est)
    lines = qm_to_csv(qm).strip().split("\n")
    assert lines[0] == "t_lo,t_hi,atom_id,row,col,value"
    grid = family.grid
    assert len(lines) == 1 + grid.n_cells * grid.n_atoms * 9
    first = lines[1].split(",")
    assert first[2] == grid.mark_atoms[0]
    assert float(first[5]) == qm.matrices[0, 0, 0, 0]


# ---------------------------------------------------------------------------
# uniform deviation modulus


def test_probe_modulus_obeys_lipschitz_bound(family):
    # [DERIVED] oracle: tail sums of |nu_a - nu_b| are bounded by the total
    # operator-norm budget times (||a|| + ||b||) ||a - b||, along the
    # approach sequence x_n -> x that the Haar scenario's modulus check uses.
    mats = family.matrices
    budget = np.linalg.norm(mats, ord=2, axis=(2, 3)).sum()
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    probe = np.roll(x, 1) + 0.5
    probe /= np.linalg.norm(probe)
    modulus = []
    for n in range(1, 7):
        x_n = x + 2.0 ** (-n) * probe
        x_n /= np.linalg.norm(x_n)
        dev = _uniform_deviation(family, x_n, x)
        gap = np.linalg.norm(x_n - x)
        assert dev <= budget * 2.0 * gap * (1 + 1e-12)
        modulus.append(dev)
    assert modulus[-1] < modulus[0]


# ---------------------------------------------------------------------------
# divergent counterexample


def test_counterexample_partition_sums_are_exact_powers_of_two():
    for k in range(1, 9):
        assert counterexample_partition_sum(k) == float(2 ** k)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_counterexample_grows_from_the_constant_function(k):
    # The running supremum over the Haar basis starts at the constant
    # function's mass 1 and ends at the partition sum 2^k.
    table = haar_cell_integrals(k)
    assert table[0].sum() == 1.0
    totals = np.maximum.accumulate(table, axis=0).sum(axis=1)
    assert np.all(np.diff(totals) >= 0)
    assert totals[-1] == counterexample_partition_sum(k)


def test_haar_family_qv_reproduces_counterexample_sum():
    # The integral-type driver wired to the Haar system must reproduce the
    # exact dyadic table route through the generic supremum machinery.
    k = 4
    spec = IntegralType.from_haar(k)
    family = intensity_family(spec, default_grid(spec, 1.0, 2 ** k))
    est = qv_supremum(family, np.eye(spec.dim))
    table = haar_cell_integrals(k)
    np.testing.assert_allclose(est.cell_mass[:, 0],
                               table.max(axis=0), rtol=1e-12)
    assert est.mass() == pytest.approx(2.0 ** k, rel=1e-12)
    first = qv_supremum(family, np.eye(spec.dim)[:1])
    assert est.mass() >= 2.0 ** (k - 1) * first.mass()
