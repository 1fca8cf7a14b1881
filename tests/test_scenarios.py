"""The Monte Carlo gate rule of :meth:`ScenarioResult.add_max_z`."""

import math

import numpy as np

from mvmlab.scenarios import ScenarioResult


def test_add_max_z_judges_the_largest_z_score():
    res = ScenarioResult()
    # z-scores 1, 3 and (se = 0, mean = target) 0: a pass at exactly 3.
    z = res.add_max_z("at_bound", [1.0, 4.0, 2.0], [1.0, 1.0, 0.0],
                      [0.0, 1.0, 2.0], 3.0, "three entries")
    assert z == 3.0
    # z-scores 0.5 and 3.5: a fail above the bound, over a 2 x 1 array.
    assert res.add_max_z("above_bound", np.array([[0.5], [-3.5]]), 1.0,
                         0.0, 3.0) == 3.5
    # se = 0 with the mean off its target scores inf.
    assert res.add_max_z("zero_se_gap", [1.0, 2.0], [1.0, 0.0], 0.0,
                         3.0) == math.inf
    # A NaN estimate never passes.
    assert math.isnan(res.add_max_z("nan_se", [1.0], [np.nan], 1.0, 3.0))
    at, above, gap, nan = res.checks
    assert at.passed and not (above.passed or gap.passed or nan.passed)
    assert (at.measured, at.target, at.tolerance) == (3.0, 3.0, 3.0)
    assert at.detail == "three entries; largest of 3 z-scores"
    assert above.detail == "largest of 2 z-scores"
    assert gap.detail == "largest of 2 z-scores"
    assert {c.provenance for c in res.checks} == {"monte_carlo_3se"}
