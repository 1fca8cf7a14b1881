"""Martingale-valued measures on a time-mark grid: noise, variation, integration.

The package builds discrete-time, discrete-mark models of martingale-valued
noise and verifies their structure numerically:

- :mod:`mvmlab.measures` — nonnegative measures on a product grid, the
  cellwise supremum, and a brute-force partition oracle for it;
- :mod:`mvmlab.hilbert` — PSD linear algebra helpers and well-spread unit
  vector sequences;
- :mod:`mvmlab.haar` — exact dyadic tables for the divergence construction;
- :mod:`mvmlab.noise` — noise drivers (white, finite-mark, vector-valued,
  integral-type), path simulation, closed-form intensities as one quadratic
  form field per driver, and Monte Carlo estimates (empirical intensities,
  orthogonality covariances) as ``mean_se`` (mean, standard error) pairs;
- :mod:`mvmlab.quadvar` — quadratic variation as a supremum of intensities,
  polarization into signed cell masses and a bilinear field held as a
  quadratic form field too, and the cellwise operator density;
- :mod:`mvmlab.integrate` — grid and simple-form stochastic integrals, the
  integration norm, stopping/restriction/localization identities;
- :mod:`mvmlab.spde` — diagonal semigroups, stochastic convolution, and the
  Picard iteration for mild solutions with one drift map and one noise map;
- :mod:`mvmlab.scenarios` / :mod:`mvmlab.cli` — named end-to-end checks
  behind the ``mvmlab`` command-line runner.
"""

__version__ = "0.1.0"
