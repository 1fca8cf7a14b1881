"""Martingale-valued measures on a time-mark grid: noise, variation, integration.

The package builds discrete-time, discrete-mark models of martingale-valued
noise and verifies their structure numerically:

- :mod:`mvmlab.measures` — signed/positive measures on a product grid, the
  cellwise supremum, and a brute-force partition oracle for it;
- :mod:`mvmlab.hilbert` — PSD linear algebra helpers and well-spread unit
  vector sequences;
- :mod:`mvmlab.haar` — exact dyadic tables for the divergence construction;
- :mod:`mvmlab.noise` — noise drivers (white, finite-mark, vector-valued,
  integral-type), path simulation, and closed-form/empirical intensities;
- :mod:`mvmlab.quadvar` — quadratic variation as a supremum of intensities,
  polarization, and the cellwise operator density;
- :mod:`mvmlab.integrate` — grid and simple-form stochastic integrals, the
  integration norm, stopping/restriction/localization identities;
- :mod:`mvmlab.spde` — diagonal semigroups, stochastic convolution, and the
  Picard iteration for mild solutions;
- :mod:`mvmlab.scenarios` / :mod:`mvmlab.cli` — named end-to-end checks
  behind the ``mvmlab`` command-line runner.
"""

from .measures import (Cell, ComparisonReport, DiscreteMeasure, GridMismatchError,
                       GridSpec, SignedDiscreteMeasure, brute_force_sup,
                       compare_signed, make_grid, monotone_sup, sum_measures,
                       sup_measures)
from .hilbert import (hq_norm, hs_norm, operator_norm_psd, psd_part, psd_sqrt,
                      pseudo_inverse_sqrt, sphere_sequence)
from .haar import (haar_cell_integrals, haar_dimension, haar_squared_values,
                   haar_values)
from .noise import (DiscreteLevy, DiscreteLevyAtom, EmpiricalIntensity,
                    HValuedLevy, IntegralType, IntensityFamily,
                    MVMPathEnsemble, NoClosedFormError, OrthogonalityReport,
                    WhiteNoise, default_grid, empirical_intensity,
                    intensity_closed_form, intensity_family, load_ensemble,
                    orthogonality_check, save_ensemble, simulate)
from .quadvar import (BilinearMeasureField, BoundednessReport,
                      InconsistentDensityError, QMField, QVEstimate,
                      alpha_polarization, bilinear_field,
                      counterexample_partition_sum, counterexample_trace,
                      qm_density, qm_sqrt_field, qm_to_csv, qv_supremum,
                      sequential_boundedness_probe)
from .integrate import (AdaptednessError, FubiniReport, GridIntegrand,
                        IntegralPathEnsemble, LocalizationReport,
                        NormalFormError, PushforwardReport, SimpleIntegrand,
                        SimpleTerm, StoppedIntegralReport, cell_costs,
                        fubini_check, grid_stopping_time, integrate_grid,
                        integrate_simple, lambda2_norm, lambda2_profile,
                        localize, pushforward_commute, restrict_integrand,
                        simple_to_grid, stopped_integral, truncate_integrand)
from .spde import (CoefficientSpec, DiagonalSemigroup, HeatExample,
                   MildSolutionPath, WeakResidualReport, additive_coefficients,
                   coefficient_spot_check, contraction_factors,
                   convolution_second_moment, default_beta, heat_example_setup,
                   heat_semigroup, linear_drift_coefficients,
                   nemytskii_coefficients, picard_solve, stochastic_convolution,
                   v_beta_distance, weak_residual)
from .scenarios import SCENARIOS, RunReport, list_scenarios, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Cell", "ComparisonReport", "DiscreteMeasure", "GridMismatchError",
    "GridSpec", "SignedDiscreteMeasure", "brute_force_sup", "compare_signed",
    "make_grid", "monotone_sup", "sum_measures", "sup_measures",
    "hq_norm", "hs_norm", "operator_norm_psd", "psd_part", "psd_sqrt",
    "pseudo_inverse_sqrt", "sphere_sequence",
    "haar_cell_integrals", "haar_dimension", "haar_squared_values",
    "haar_values",
    "DiscreteLevy", "DiscreteLevyAtom", "EmpiricalIntensity", "HValuedLevy",
    "IntegralType", "IntensityFamily", "MVMPathEnsemble", "NoClosedFormError",
    "OrthogonalityReport", "WhiteNoise", "default_grid", "empirical_intensity",
    "intensity_closed_form", "intensity_family", "load_ensemble",
    "orthogonality_check", "save_ensemble", "simulate",
    "BilinearMeasureField", "BoundednessReport", "InconsistentDensityError",
    "QMField", "QVEstimate", "alpha_polarization", "bilinear_field",
    "counterexample_partition_sum", "counterexample_trace", "qm_density",
    "qm_sqrt_field", "qm_to_csv", "qv_supremum",
    "sequential_boundedness_probe",
    "AdaptednessError", "FubiniReport", "GridIntegrand",
    "IntegralPathEnsemble", "LocalizationReport", "NormalFormError",
    "PushforwardReport", "SimpleIntegrand", "SimpleTerm",
    "StoppedIntegralReport", "cell_costs", "fubini_check",
    "grid_stopping_time", "integrate_grid", "integrate_simple",
    "lambda2_norm", "lambda2_profile", "localize", "pushforward_commute",
    "restrict_integrand", "simple_to_grid", "stopped_integral",
    "truncate_integrand",
    "CoefficientSpec", "DiagonalSemigroup", "HeatExample", "MildSolutionPath",
    "WeakResidualReport", "additive_coefficients", "coefficient_spot_check",
    "contraction_factors", "convolution_second_moment", "default_beta",
    "heat_example_setup", "heat_semigroup", "linear_drift_coefficients",
    "nemytskii_coefficients", "picard_solve", "stochastic_convolution",
    "v_beta_distance", "weak_residual",
    "SCENARIOS", "RunReport", "list_scenarios", "run_scenario",
    "__version__",
]
