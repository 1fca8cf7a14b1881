"""L2-normalized Haar system on [0, 1] at dyadic resolution.

Used by the divergence scenario in which no quadratic variation exists: the
driver sends each test function h to the Wiener integral of h, and the basis
functions concentrate on ever smaller dyadic intervals while keeping unit
intensity on their own support.

The basis collects the constant function together with all Haar wavelets of
generation ``j <= k`` (supports of width ``2^-j`` down to ``2^-k``), giving
``2^(k+1)`` functions, each piecewise constant on the ``2^(k+1)`` dyadic
subintervals of generation ``k + 1``.  Squared values are powers of two, so
all the quadrature in this module is exact in float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "haar_dimension",
    "haar_values",
    "haar_squared_values",
    "haar_cell_integrals",
]

MAX_LEVEL = 12


def _check_level(k: int) -> int:
    if k < 0:
        raise ValueError("level must be >= 0")
    if k > MAX_LEVEL:
        raise ValueError(f"level {k} refused: dimension 2^{k + 1} exceeds the "
                         f"supported cap (level <= {MAX_LEVEL})")
    return int(k)


def haar_dimension(k: int) -> int:
    return 2 ** (_check_level(k) + 1)


def haar_values(k: int) -> np.ndarray:
    """Step values of the basis on the generation-(k+1) dyadic subintervals.

    Returns an array of shape ``(2^(k+1), 2^(k+1))``; row 0 is the constant
    function, then the wavelets generation by generation, left to right.
    """
    k = _check_level(k)
    n_sub = 2 ** (k + 1)
    rows = [np.ones(n_sub)]
    for j in range(k + 1):
        amp = float(2.0 ** (j / 2.0))
        width = n_sub // 2 ** j
        for i in range(2 ** j):
            row = np.zeros(n_sub)
            lo = i * width
            row[lo:lo + width // 2] = amp
            row[lo + width // 2:lo + width] = -amp
            rows.append(row)
    return np.stack(rows)


def haar_squared_values(k: int) -> np.ndarray:
    """Exact squared step values: 2^j on the support of a generation-j
    wavelet, 1 for the constant function (powers of two; no float
    rounding)."""
    k = _check_level(k)
    generation = np.repeat(np.arange(k + 1), 2 ** np.arange(k + 1))
    return (haar_values(k) != 0) * 2.0 ** np.r_[0, generation][:, None]


def haar_cell_integrals(k: int) -> np.ndarray:
    """Exact integrals of each squared basis function over the 2^k time cells.

    Entry ``(n, i)`` is the integral of the squared n-th basis function over
    the generation-k dyadic interval ``(i 2^-k, (i+1) 2^-k]``.  Every entry is
    a dyadic rational, so the sums are exact in float64; each row sums to 1.
    """
    k = _check_level(k)
    sq = haar_squared_values(k)
    w = 2.0 ** (-(k + 1))
    # Pair up the two generation-(k+1) subintervals inside each time cell.
    return (sq[:, 0::2] + sq[:, 1::2]) * w
