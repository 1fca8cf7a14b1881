"""Quadratic variation of martingale-valued noise, and its operator density.

The quadratic variation is the supremum of the intensity family over a dense
sequence of unit vectors; on the grid this is the cellwise maximum of the
intensities along the sequence, a :class:`DiscreteMeasure` whose masses keep
every bit, since a maximum rounds nothing.
Polarization of the intensities gives the signed cell masses of the
bilinear measure alpha(x, y), a plain array, since no measure on the grid is
signed.  Over coordinate pairs they make the bilinear field alpha, a field
of quadratic forms like the one the intensities come from and so held as an
:class:`IntensityFamily` too; the ratio alpha / quadratic-variation recovers
the cellwise PSD operator density Q_M, a third such field (its norm is taken
up in :func:`qm_density`).  The Haar construction shows the supremum can
genuinely diverge; its partition sums are computed by exact dyadic
quadrature.
"""

from __future__ import annotations

import numpy as np

from . import haar
from .hilbert import psd_part
from .measures import (DiscreteMeasure, GridMismatchError, _cell_csv,
                       _running_sum)
from .noise import IntensityFamily

__all__ = [
    "qv_supremum",
    "counterexample_partition_sum",
    "alpha_polarization",
    "bilinear_field",
    "qm_density",
    "qm_to_csv",
    "InconsistentDensityError",
]


def qv_supremum(family: IntensityFamily,
                vectors: np.ndarray) -> DiscreteMeasure:
    """Supremum of the intensity family along a sequence of unit vectors:
    the cellwise maximum of their intensities."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vectors.shape[0] < 1:
        raise ValueError("need at least one unit vector")
    return DiscreteMeasure(family.grid, family.batch(vectors).max(axis=0))


def _uniform_deviation(family: IntensityFamily, x_a: np.ndarray,
                       x_b: np.ndarray) -> float:
    """sup over grid times s and ring sets A of |nu_a - nu_b|((s, T] x A)."""
    diff = family.masses(x_a) - family.masses(x_b)
    # Tail sums over (s, T]: the running sums of the reversed cells, reversed.
    tails = _running_sum(diff[::-1], axis=0)[::-1]
    best = 0.0
    for ring in family.grid.rings:
        if not ring:
            continue
        vals = tails[:, sorted(ring)].sum(axis=1)
        best = max(best, float(np.abs(vals).max()))
    return best


def counterexample_partition_sum(k: int) -> float:
    """Partition sum showing divergence of the Haar-driven supremum.

    Over the generation-k dyadic time grid, sums the best intensity any
    basis function places on each cell:
    ``sum over cells of max_n integral over the cell of h_n^2``.
    All quantities are dyadic rationals and the value is exact; it equals
    ``2^k``, growing without bound in k.
    """
    table = haar.haar_cell_integrals(k)
    return float(table.max(axis=0).sum())


def alpha_polarization(family: IntensityFamily, x: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """The signed cell masses ``(nu_{x+y} - nu_{x-y}) / 4`` of the bilinear
    measure alpha(x, y), shaped (n_cells, n_atoms)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    masses = family.batch(np.stack([x + y, x - y]))
    return 0.25 * (masses[0] - masses[1])


def bilinear_field(family: IntensityFamily) -> IntensityFamily:
    """Assemble the bilinear field alpha by polarizing over coordinate pairs,
    as the family of quadratic forms <e_i, alpha(cell) e_j> it defines.

    This is the artifact route (polarization of scalar intensities); the
    quadratic-form matrices a driver was built from serve as its oracle.
    """
    d = family.dim
    out = np.empty((family.grid.n_cells, family.grid.n_atoms, d, d))
    eye = np.eye(d)
    for i in range(d):
        out[:, :, i, i] = family.masses(eye[i])
        for j in range(i + 1, d):
            a = alpha_polarization(family, eye[i], eye[j])
            out[:, :, i, j] = a
            out[:, :, j, i] = a
    return IntensityFamily(family.grid, out)


class InconsistentDensityError(ValueError):
    """A cell carries bilinear mass but no quadratic-variation mass."""


def qm_density(alpha: IntensityFamily,
               qv: DiscreteMeasure) -> IntensityFamily:
    """Divide the bilinear field by the quadratic variation on charged cells:
    the operator density Q_M, a field of PSD quadratic forms.

    On a charged cell the operator norm of Q_M is 1 / (1 - r), at least one,
    where r is the relative shortfall of the sphere supremum below the true
    variation (the density divides by the supremum, which undershoots it);
    with an exact supremum the norm is one.  Zero-variation cells must carry
    zero bilinear mass, up to 1e-9 times ``max(1, largest |entry|)``, and
    get the zero matrix; anything else is reported as an inconsistency.  The
    quotient matrices are symmetrized and their tiny negative eigenvalue
    bands clipped to zero in one stacked :func:`psd_part` call.
    """
    if alpha.grid != qv.grid:
        raise GridMismatchError(
            "bilinear field and variation live on different grids")
    mats = alpha.matrices
    qv_mass = qv.cell_mass
    scale = max(1.0, float(np.abs(mats).max(initial=0.0)))
    null = qv_mass <= 0.0
    bad = null & (np.abs(mats).max(axis=(2, 3)) > 1e-9 * scale)
    if np.any(bad):
        cell = tuple(np.argwhere(bad)[0])
        raise InconsistentDensityError(
            f"cell {cell} has zero quadratic variation but nonzero bilinear mass")
    out = np.zeros_like(mats)
    out[~null] = psd_part(mats[~null] / qv_mass[~null, None, None])
    return IntensityFamily(alpha.grid, out)


def qm_to_csv(qm: IntensityFamily) -> str:
    """Flatten the density field to rows (t_lo, t_hi, atom_id, row, col, value)."""
    return _cell_csv(qm.grid, ("row", "col", "value"), qm.matrices)
