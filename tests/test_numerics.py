"""The special functions trialbench computes itself, against scipy.special.

scipy is a test dependency only: the package computes the logistic
function, the normal quantile, the two-sided normal p-value and the
chi-square survival function without it.
"""

import warnings

import numpy as np
import pytest
from scipy import special

from trialbench import EstimateWithIF, sandwich_ci, wald_test
from trialbench.diagnostics import chi2_sf
from trialbench.glm import expit

from conftest import estimate_with_if_values


def unit_se_estimate(value: float) -> EstimateWithIF:
    # Influence values (1, -1): variance 2 with ddof 1, over n = 2, so se is exactly 1.
    return estimate_with_if_values(label="z", value=value, if_values=[1.0, -1.0], n_effective=2)


def relative_error(ours, reference):
    ours, reference = np.asarray(ours, dtype=float), np.asarray(reference, dtype=float)
    return np.abs(ours - reference) / np.abs(reference)


def test_expit_matches_scipy_without_warnings():
    extremes = [0.0, 1e-300, 36.0, 37.0, 709.0, 710.0, 745.0, 746.0, 800.0, 1e300, np.inf]
    x = np.concatenate([np.linspace(-60.0, 60.0, 240_001), extremes, np.negative(extremes)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = expit(x)
        nan = expit(np.array([np.nan]))
    reference = special.expit(x)
    # Below about -709 scipy's 1 / (1 + exp(-x)) is 0; ours is exp(x), subnormal or 0.
    normal = reference >= np.finfo(float).tiny
    assert np.all((ours[~normal] >= 0.0) & (ours[~normal] < np.finfo(float).tiny))
    assert relative_error(ours[normal], reference[normal]).max() <= 5e-16
    assert np.isnan(nan).all()
    assert expit(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("df", range(1, 31))
def test_chi2_sf_matches_scipy(df):
    x = np.concatenate([np.linspace(0.0, 300.0, 3001), np.logspace(-10.0, np.log10(300.0), 401)])
    ours = np.array([chi2_sf(df, float(v)) for v in x])
    reference = special.chdtrc(df, x)
    shown = reference > 1e-300
    assert shown.sum() > 3000
    assert relative_error(ours[shown], reference[shown]).max() <= 1e-12


def test_normal_quantile_matches_scipy():
    levels = np.linspace(0.5, 0.9999, 2001)[1:]
    z = np.array([sandwich_ci(unit_se_estimate(0.0), level=float(v)).upper for v in levels])
    assert relative_error(z, special.ndtri(0.5 + levels / 2.0)).max() <= 1e-14


def test_two_sided_p_value_matches_scipy():
    z = np.linspace(-37.0, 37.0, 2001)
    p = np.array([wald_test(unit_se_estimate(float(v))).p_value for v in z])
    assert relative_error(p, 2.0 * special.ndtr(-np.abs(z))).max() <= 1e-12
