"""PSD linear algebra, sphere sequences, and the exact dyadic wavelet tables."""

import numpy as np
import pytest

from mvmlab.haar import (MAX_LEVEL, haar_cell_integrals, haar_dimension,
                         haar_squared_values, haar_values)
from mvmlab.hilbert import (check_symmetric, operator_norm_psd, psd_part,
                            psd_sqrt, sphere_sequence)


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a.T @ a


# ---------------------------------------------------------------------------
# symmetric / PSD plumbing


def test_check_symmetric_tolerates_roundoff_but_rejects_skew():
    q = np.array([[2.0, 1.0 + 1e-15], [1.0, 3.0]])
    out = check_symmetric(q)
    np.testing.assert_array_equal(out, out.T)
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        check_symmetric(np.ones((2, 3)))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 8):
        q = random_psd(rng, dim)
        root = psd_sqrt(q)
        np.testing.assert_allclose(root @ root, q, atol=1e-10 * max(1, abs(q).max()))
        np.testing.assert_allclose(root, root.T, atol=1e-13)


def test_psd_guard_clips_tiny_negatives_and_rejects_real_ones():
    q = np.diag([1.0, -1e-14])
    w = np.linalg.eigvalsh(psd_part(q))
    assert w.min() >= 0.0
    with pytest.raises(ValueError, match="positive semidefinite"):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_operator_norm_matches_eigh():
    rng = np.random.default_rng(2)
    q = random_psd(rng, 6)
    assert operator_norm_psd(q) == pytest.approx(np.linalg.eigvalsh(q)[-1])


def test_psd_part_on_a_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(4)
    stack = np.stack([random_psd(rng, 4) for _ in range(6)])
    a = rng.standard_normal((4, 2))
    stack[2] = a @ a.T  # rank deficient
    stack[4] *= 1e6
    stack = stack.reshape(2, 3, 4, 4)
    got = psd_part(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], psd_part(stack[idx]))
    assert psd_part(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_stack_checks_each_matrix_at_its_own_scale():
    # Against the large matrix's scale both defects would be roundoff.
    large = 1e6 * np.eye(2)
    skew = np.array([[1.0, 1e-8], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(np.stack([large, skew]))
    with pytest.raises(ValueError, match="not symmetric"):
        psd_part(np.stack([large, skew]))
    negative = np.diag([1.0, -1e-7])
    with pytest.raises(ValueError, match="positive semidefinite"):
        psd_part(np.stack([large, negative]))


def test_psd_sqrt_on_a_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(5)
    stack = np.stack([random_psd(rng, 4) for _ in range(6)])
    a = rng.standard_normal((4, 2))
    stack[2] = a @ a.T  # rank deficient
    stack[3] = 0.0  # a null cell of a density field
    stack[4] *= 1e6
    stack = stack.reshape(2, 3, 4, 4)
    got = psd_sqrt(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], psd_sqrt(stack[idx]))
    assert np.array_equal(got[1, 0], np.zeros((4, 4)))
    assert psd_sqrt(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_single_matrix_helpers_reject_stacks():
    stack = np.stack([np.eye(3), 2 * np.eye(3)])
    with pytest.raises(ValueError, match="square matrix"):
        operator_norm_psd(stack)


# ---------------------------------------------------------------------------
# unit-sphere sequences


def test_sphere_sequence_contract():
    for dim, count in ((2, 16), (3, 64), (4, 512)):
        pts = sphere_sequence(dim, count, seed=11)
        assert pts.shape == (count, dim)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0,
                                   atol=1e-12)
        # The signed axes lead, so every coordinate direction is present.
        np.testing.assert_array_equal(pts[:2 * dim],
                                      np.concatenate([np.eye(dim),
                                                      -np.eye(dim)]))
        # Deterministic and cached.
        again = sphere_sequence(dim, count, seed=11)
        assert again is pts
        assert not pts.flags.writeable


def test_sphere_sequence_dim_one_is_two_points():
    pts = sphere_sequence(1, 50)
    np.testing.assert_array_equal(pts, [[1.0], [-1.0]])


def test_sphere_sequence_validation():
    with pytest.raises(ValueError):
        sphere_sequence(0, 4)
    with pytest.raises(ValueError):
        sphere_sequence(4, 3)


def test_sphere_supremum_accuracy_on_rank_one_forms():
    # Frozen coverage thresholds for the sampling shortfall of
    # sup <x, uu^T x> = 1 over the sequence; rank-one directions are the
    # worst case for a line covering.  In dimension 4 at 512 points the
    # worst direction can miss by ~5%, which is why scenarios that promise
    # 2% accuracy pin their instances; the shortfall shrinks with count.
    def worst_shortfall(dim, count, directions):
        pts = sphere_sequence(dim, count, seed=11)
        return max(1.0 - ((pts @ u) ** 2).max() for u in directions)

    rng = np.random.default_rng(12)
    us3 = rng.standard_normal((200, 3))
    us3 /= np.linalg.norm(us3, axis=1, keepdims=True)
    assert worst_shortfall(3, 512, us3) < 0.01

    us4 = rng.standard_normal((200, 4))
    us4 /= np.linalg.norm(us4, axis=1, keepdims=True)
    at_512 = worst_shortfall(4, 512, us4)
    at_2048 = worst_shortfall(4, 2048, us4)
    at_4096 = worst_shortfall(4, 4096, us4)
    assert at_512 < 0.07
    assert at_2048 < 0.025
    assert at_4096 < min(0.015, at_2048)


# ---------------------------------------------------------------------------
# dyadic wavelet tables


def test_haar_rows_are_orthonormal():
    for k in (0, 1, 3):
        vals = haar_values(k)
        n = haar_dimension(k)
        assert vals.shape == (n, n)
        gram = vals @ vals.T / n  # subinterval width 2^-(k+1) = 1/n
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)


def test_haar_squared_values_are_exact_powers_of_two():
    for k in (1, 2, 4):
        sq = haar_squared_values(k)
        # Squaring the float sqrt(2) amplitudes is off by 1 ulp at odd
        # generations; the table holds the exact powers of two instead.
        np.testing.assert_allclose(sq, haar_values(k) ** 2, rtol=1e-15)
        nz = sq[sq > 0]
        np.testing.assert_array_equal(np.log2(nz), np.round(np.log2(nz)))


def test_haar_cell_integrals_row_sums_are_exactly_one():
    for k in (0, 1, 2, 5, 8):
        table = haar_cell_integrals(k)
        assert table.shape == (haar_dimension(k), 2 ** k)
        np.testing.assert_array_equal(table.sum(axis=1), 1.0)


def test_haar_cell_integrals_match_quadrature_oracle():
    # [DERIVED] oracle: midpoint quadrature at a finer dyadic resolution.
    for k in (1, 2, 3):
        table = haar_cell_integrals(k)
        n_sub = 4 * haar_dimension(k)
        xs = (np.arange(n_sub) + 0.5) / n_sub
        vals = haar_values(k)
        idx = np.minimum((xs * haar_dimension(k)).astype(int),
                         haar_dimension(k) - 1)
        fine = vals[:, idx] ** 2
        per_cell = fine.reshape(fine.shape[0], 2 ** k, -1).mean(axis=2) * 2.0 ** -k
        np.testing.assert_allclose(table, per_cell, atol=1e-12)


def test_haar_level_cap_is_enforced():
    haar_dimension(MAX_LEVEL)
    with pytest.raises(ValueError, match="refused"):
        haar_values(MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        haar_dimension(-1)
