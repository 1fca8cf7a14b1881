"""Finite-dimensional Hilbert space helpers.

Vectors are plain float64 arrays; operators are dense matrices.  The module
owns the numerically delicate pieces used everywhere else: symmetric PSD
square roots with eigenvalue clipping, and the deterministic quasi-uniform
unit-sphere sequences over which suprema of quadratic forms are taken.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "SYM_TOL",
    "PSD_CLIP",
    "check_symmetric",
    "psd_part",
    "psd_sqrt",
    "operator_norm_psd",
    "sphere_sequence",
]

# Relative tolerance for accepting a matrix as symmetric, and the band of
# slightly negative eigenvalues that is clipped to zero rather than rejected.
SYM_TOL = 1e-12
PSD_CLIP = 1e-10


def _scale(q: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.abs(q).max(axis=(-2, -1), initial=0.0))


def check_symmetric(q: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix or a stack, each checked at its own scale."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim < 2 or q.shape[-2] != q.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    qt = np.swapaxes(q, -2, -1)
    gap = np.abs(q - qt).max(axis=(-2, -1), initial=0.0)
    bad = gap > SYM_TOL * _scale(q)
    if np.any(bad):
        raise ValueError(
            f"matrix is not symmetric (asymmetry {gap[bad].max():.3e})")
    return 0.5 * (q + qt)


def _clipped_eigh(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = check_symmetric(q)
    w, v = np.linalg.eigh(q)
    low = w.min(axis=-1, initial=0.0)
    bad = low < -PSD_CLIP * _scale(q)
    if np.any(bad):
        raise ValueError(f"matrix is not positive semidefinite "
                         f"(eigenvalue {low[bad].min():.3e})")
    return np.clip(w, 0.0, None), v


def psd_part(q: np.ndarray) -> np.ndarray:
    """Symmetrize and clip tiny negative eigenvalues to zero (stacks too)."""
    w, v = _clipped_eigh(q)
    return (v * w[..., None, :]) @ np.swapaxes(v, -2, -1)


def psd_sqrt(q: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, or of each matrix of a stack.

    Eigenvalues in ``[-PSD_CLIP * scale, 0)`` are treated as zero; anything
    more negative is rejected, as is a visibly non-symmetric input.  The
    zero matrix has the zero root.
    """
    w, v = _clipped_eigh(q)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1)


def operator_norm_psd(q: np.ndarray) -> float:
    """Operator norm (= largest eigenvalue) of a PSD matrix."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    w, _ = _clipped_eigh(q)
    return float(w.max(initial=0.0))


def _farthest_point_fill(axes: np.ndarray, extra: int, pool: np.ndarray) -> np.ndarray:
    """Greedy farthest-point selection under the antipodal (line) metric.

    Quadratic forms cannot distinguish x from -x, so distance is measured
    between lines: d(x, y) = 1 - (x . y)^2.  Starting from the coordinate
    axes keeps the selected set spread out from the mandatory prefix.
    """
    # Distance of every candidate to the axis lines: 1 - max_i x_i^2.
    dmin = 1.0 - (pool ** 2).max(axis=1)
    chosen = np.empty((extra, pool.shape[1]))
    for k in range(extra):
        pick = int(np.argmax(dmin))
        chosen[k] = pool[pick]
        dmin = np.minimum(dmin, 1.0 - (pool @ chosen[k]) ** 2)
    return chosen


@lru_cache(maxsize=32)
def _sphere_sequence_cached(dim: int, count: int, seed: int) -> np.ndarray:
    eye = np.eye(dim)
    axes = np.concatenate([eye, -eye], axis=0)
    if dim == 1:
        out = axes
    elif count <= 2 * dim:
        out = axes[:count]
    else:
        extra = count - 2 * dim
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        pool = rng.standard_normal((min(16 * extra, 1 << 16), dim))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        out = np.concatenate([axes, _farthest_point_fill(axes, extra, pool)])
    out = out.copy()
    out.setflags(write=False)
    return out


def sphere_sequence(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform sequence of unit vectors.

    The first ``2 * dim`` entries are the signed coordinate axes; the rest
    are chosen by greedy farthest-point thinning of a seeded candidate pool,
    so the sequence is reproducible and spreads evenly on the sphere.  In
    dimension one the sphere is exactly ``{+1, -1}`` and `count` is ignored.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if count < dim:
        raise ValueError(f"need count >= dim, got {count} < {dim}")
    return _sphere_sequence_cached(int(dim), int(count), int(seed))
