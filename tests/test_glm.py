import numpy as np
import pytest
from scipy.special import expit

from trialbench import DegenerateFitError, SeparationError, SingularDesignError
from trialbench.glm import (
    LogisticModel,
    add_intercept,
    coefficient_covariance,
    fit_linear,
    fit_logistic,
)


def test_logistic_recovers_generating_coefficients():
    rng = np.random.default_rng(0)
    n = 50_000
    x = rng.standard_normal((n, 1))
    p = expit(0.5 - 1.0 * x[:, 0])
    y = (rng.random(n) < p).astype(float)
    model = fit_logistic(add_intercept(x), y)
    assert model.converged
    assert abs(model.coefficients[0] - 0.5) < 0.05
    assert abs(model.coefficients[1] + 1.0) < 0.05


def test_balanced_intercept_only_converges_immediately():
    y = np.array([0.0, 1.0] * 10)
    model = fit_logistic(np.ones((20, 1)), y)
    assert model.converged
    assert model.iterations == 0
    assert model.coefficients[0] == 0.0


def test_predict_known_probability():
    model = LogisticModel(
        coefficients=np.array([-1.2, 0.8]),
        converged=True,
        iterations=0,
        log_likelihood=0.0,
    )
    assert model.predict(np.array([[1.0]]))[0] == pytest.approx(0.401312339887548, abs=1e-12)
    probs = model.predict(np.array([[0.0], [1.0]]))
    assert probs[0] == pytest.approx(expit(-1.2), abs=1e-12)


def test_predictions_stay_inside_unit_interval():
    model = LogisticModel(
        coefficients=np.array([0.0, 1000.0]),
        converged=True,
        iterations=0,
        log_likelihood=0.0,
    )
    probs = model.predict(np.array([[1.0], [-1.0]]))
    assert 0.0 < probs[1] and probs[0] < 1.0


def test_loglik_trace_is_nondecreasing():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((500, 2))
    y = (rng.random(500) < expit(x[:, 0] - 0.5 * x[:, 1])).astype(float)
    model = fit_logistic(add_intercept(x), y)
    trace = np.asarray(model.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))


def test_complete_separation_raises_and_names_iteration():
    x = np.array([[0.0], [0.0], [1.0], [1.0]] * 5)
    y = x[:, 0].copy()
    with pytest.raises(SeparationError, match="iteration"):
        fit_logistic(add_intercept(x), y)


def test_ridge_makes_separated_fit_finite():
    x = np.array([[0.0], [0.0], [1.0], [1.0]] * 5)
    y = x[:, 0].copy()
    model = fit_logistic(add_intercept(x), y, ridge=1.0)
    assert model.converged
    assert np.all(np.isfinite(model.coefficients))


def test_duplicate_column_raises_singular_design():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]] * 3)
    y = np.array([0.0, 1.0, 1.0, 0.0] * 3)
    with pytest.raises(SingularDesignError, match="column 2"):
        fit_logistic(add_intercept(x), y)


def test_single_class_labels_is_degenerate():
    with pytest.raises(DegenerateFitError, match="single-class"):
        fit_logistic(np.ones((5, 1)), np.ones(5))


def test_nonbinary_labels_rejected():
    with pytest.raises(ValueError, match="labels"):
        fit_logistic(np.ones((4, 1)), np.array([0.0, 1.0, 2.0, 0.0]))


def test_more_coefficients_than_rows_rejected():
    with pytest.raises(ValueError, match="rows cannot identify"):
        fit_linear(np.ones((2, 3)), np.zeros(2))


def test_linear_fit_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1000, 3))
    y = 2.0 + x @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(1000)
    design = add_intercept(x)
    model = fit_linear(design, y)
    residuals = y - model.predict(x)
    assert np.max(np.abs(design.T @ residuals)) < 1e-8 * y.size


def test_linear_fit_of_a_near_collinear_design_matches_least_squares():
    # Full rank, but both slope columns sit far from zero with a small spread
    # and nearly repeat each other (condition number about 2e7). Power-of-two
    # column scaling does not help here; the normal equations would square
    # the condition number and lose about 1e-3 of the coefficients.
    rng = np.random.default_rng(11)
    n = 200
    t = rng.uniform(0.0, 1.0, n)
    design = add_intercept(np.column_stack([1e3 + t, 1e3 + t + 1e-4 * rng.standard_normal(n)]))
    w = rng.integers(1, 4, n).astype(float)
    y = 1.0 + 2.0 * t + 0.1 * rng.standard_normal(n)
    root = np.sqrt(w)
    expected = np.linalg.lstsq(design * root[:, None], y * root, rcond=None)[0]
    got = fit_linear(design, y, weights=w).coefficients
    assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_linear_fit_interpolation_has_zero_residual_variance():
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    model = fit_linear(design, np.array([1.0, 3.0]))
    assert model.residual_variance == 0.0
    assert model.coefficients == pytest.approx([1.0, 2.0])


def test_logistic_covariance_matches_closed_form_intercept_only():
    y = np.array([1.0] * 30 + [0.0] * 70)
    design = np.ones((100, 1))
    model = fit_logistic(design, y)
    cov = coefficient_covariance(model, design)
    # inverse information of a binomial proportion on the logit scale
    assert cov[0, 0] == pytest.approx(1.0 / (100 * 0.3 * 0.7), rel=1e-6)


def test_linear_covariance_scales_with_residual_variance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 1))
    y = 1.0 + x[:, 0] + rng.standard_normal(200)
    design = add_intercept(x)
    model = fit_linear(design, y)
    cov = coefficient_covariance(model, design)
    expected = model.residual_variance * np.linalg.inv(design.T @ design)
    assert np.allclose(cov, expected)
