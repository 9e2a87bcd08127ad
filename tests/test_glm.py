import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from trialbench import DegenerateFitError, SeparationError, SingularDesignError, glm
from trialbench.errors import record
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


@pytest.mark.parametrize("ridge", [float("nan"), -1.0, float("inf")])
def test_ridge_that_is_not_a_finite_number_at_least_0_is_refused(ridge):
    # A NaN ridge used to switch off both the penalty and the separation
    # check: these separated data then gave a "converged" fit.
    x = np.array([[0.0], [0.0], [1.0], [1.0]] * 5)
    y = x[:, 0].copy()
    with pytest.raises(ValueError, match="'ridge' must be a finite number >= 0"):
        fit_logistic(add_intercept(x), y, ridge=ridge)


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


def test_ridge_on_a_covariate_of_size_1e_minus_300_fits_without_overflow():
    # The penalty on the scaled slope, ridge * scale^2 = 2^1992, lies beyond
    # the float range and is held at the largest float. The slope is one
    # Newton step against it, x' (y - mu) scale^2 / max float with mu the
    # intercept-only fit: about 7e-9, where the penalized optimum is about
    # 1e-300, yet below float resolution in every linear predictor.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 1))
    y = (rng.random(50) < 0.5).astype(float)
    tiny = fit_logistic(add_intercept(x * 1e-300), y, ridge=1.0)
    alone = fit_logistic(np.ones((50, 1)), y)
    assert tiny.converged
    assert tiny.coefficients[0] == pytest.approx(alone.coefficients[0], rel=1e-12)
    scale = 2.0 ** (1 - np.frexp(np.abs(x * 1e-300).max())[1])
    assert scale == 2.0**996
    mu = 1.0 / (1.0 + np.exp(-alone.coefficients[0]))
    step = (x[:, 0] * 1e-300 * scale) @ (y - mu) / np.finfo(float).max * scale
    assert tiny.coefficients[1] == pytest.approx(step, rel=1e-9)
    assert abs(tiny.coefficients[1]) == pytest.approx(7.311e-9, rel=1e-3)
    assert abs(tiny.coefficients[1]) * np.abs(x * 1e-300).max() < 1e-300


def test_ridge_has_no_grip_on_a_covariate_of_size_1e150_or_more():
    # Six separable points under ridge 1. The penalty on the scaled slope is
    # ridge * scale^2: about 1e-300 for x * 1e150, and 0 for x * 1e300, where
    # scale^2 = 2^-1994 underflows. Both are negligible against the
    # likelihood, so both fits stop at the same linear predictors, where the
    # score falls below the tolerance: the underflow changes nothing. A ridge
    # penalty in original units has no grip on a covariate of that scale.
    x = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])[:, None]
    y = (x[:, 0] > 0).astype(float)
    fits = {f: fit_logistic(add_intercept(x * f), y, ridge=1.0) for f in (1.0, 1e150, 1e300)}
    eta = {f: model.linear_predictor(x * f) for f, model in fits.items()}
    assert np.array_equal(eta[1e150], eta[1e300])
    assert fits[1e150].converged and fits[1e300].converged
    assert fits[1e150].iterations == fits[1e300].iterations == 20
    assert eta[1e300][-1] == pytest.approx(56.88, abs=0.01)
    # In original units the penalty holds the slope near 1.10.
    assert fits[1.0].converged and fits[1.0].coefficients[1] == pytest.approx(1.1044, abs=1e-4)


def _svd_rank_oracle(design, occupied, errors, what):
    """glm._check_rank without its Gram certificate: the SVD rule alone."""
    m, p = design.shape
    if occupied.all():
        values = np.linalg.svd(design, compute_uv=False).tolist()
        if len(values) == p and values[-1] > values[0] * max(m, p) * glm._EPS:
            return
        deficient = np.ones(len(errors), dtype=bool)
    else:
        values = np.linalg.svd(design * occupied[:, :, None], compute_uv=False)
        tol = values[:, 0] * np.maximum(occupied.sum(axis=1), p) * glm._EPS
        deficient = (values > tol[:, None]).sum(axis=1) < p
    record(errors, deficient, lambda r: glm._singular(design[occupied[r]], what))


def _rank_verdicts(check, design, occupied):
    errors = [None] * len(occupied)
    check(design, occupied, errors, "fit")
    return [e and (type(e), str(e)) for e in errors]


@st.composite
def rank_cases(draw):
    """A design of m >= p rows with an intercept column: independent normal
    columns, or one column a combination of the others plus noise of
    relative size 10^-k, or one column a copy of another; then power-of-two
    column scales, and the cells the fits occupy."""
    p = draw(st.integers(2, 6))
    m = draw(st.integers(p, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = add_intercept(rng.standard_normal((m, p - 1)))
    j = draw(st.integers(1, p - 1))
    others = [c for c in range(p) if c != j]
    kind = draw(st.sampled_from(["independent", "near", "duplicate"]))
    if kind == "near":
        combination = design[:, others] @ rng.standard_normal(len(others))
        noise = rng.standard_normal(m)
        size = 10.0 ** -draw(st.integers(0, 16)) * np.linalg.norm(combination)
        design[:, j] = combination + size * noise / np.linalg.norm(noise)
    elif kind == "duplicate":
        design[:, j] = design[:, draw(st.sampled_from(others))]
    exponents = draw(st.lists(st.integers(-40, 40), min_size=p - 1, max_size=p - 1))
    design[:, 1:] *= np.ldexp(1.0, exponents)
    stack = draw(st.integers(1, 3))
    occupied = np.ones((stack, m), dtype=bool)
    if draw(st.booleans()):
        occupied = rng.random((stack, m)) < 0.7
    return design, occupied


@settings(max_examples=200, deadline=None, database=None)
@given(rank_cases())
def test_rank_verdicts_equal_the_svd_rule(case):
    design, occupied = case
    assert _rank_verdicts(glm._check_rank, design, occupied) == _rank_verdicts(
        _svd_rank_oracle, design, occupied
    )


@pytest.mark.parametrize("m", [2, 3, 50, 1000, 5000])
def test_rank_verdicts_near_the_m_eps_boundary_equal_the_svd_rule(m):
    # Columns 1 and 1 + r z with z orthogonal to 1 and |z| = sqrt(m): the
    # singular value ratio is about r / 2, so r = 2 m eps * f sweeps the
    # rule's threshold m eps, from f = 1/4 to f = 4.
    z = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    if m % 2:
        z = np.append(z[:-1] * np.sqrt(m / (m - 1)), 0.0)
    occupied = np.ones((1, m), dtype=bool)
    verdicts = set()
    for f in 2.0 ** (np.arange(-16, 17) / 8):
        design = np.column_stack([np.ones(m), 1.0 + 2 * m * glm._EPS * f * z])
        got = _rank_verdicts(glm._check_rank, design, occupied)
        assert got == _rank_verdicts(_svd_rank_oracle, design, occupied), f
        verdicts.add(got[0] is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "kind, bad, message",
    [
        ("logistic", "weights", "logistic fit: weights must be finite and non-negative"),
        ("linear", "weights", "linear fit: weights must be finite and non-negative"),
        ("logistic", "design", "logistic fit: design contains non-finite values"),
        ("linear", "design", "linear fit: design contains non-finite values"),
        ("linear", "response", "linear fit: response contains non-finite values"),
    ],
)
def test_a_bad_input_cell_fails_only_the_stack_rows_that_weight_it(kind, bad, message):
    rng = np.random.default_rng(5)
    design = add_intercept(rng.normal(size=(8, 1)))
    response = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float)
    if kind == "linear":
        response += rng.normal(size=8)
    weights = rng.integers(1, 5, size=(4, 8)).astype(float)
    if bad == "weights":
        weights[1, 2], weights[2, 5], weights[3, 0] = np.nan, -1.0, np.inf
        failing = [1, 2, 3]
    else:
        (design if bad == "design" else response)[2, ...] = np.nan
        weights[[0, 2], 2] = 0.0  # a cell of weight 0 takes no part in the fit
        failing = [1, 3]
    fit = glm.fit_logistic_stack if kind == "logistic" else glm.fit_linear_stack
    model, errors = fit(design, response, weights)
    assert [r for r, e in enumerate(errors) if e is not None] == failing
    for r in failing:
        assert isinstance(errors[r], ValueError) and str(errors[r]) == message
    for r in sorted(set(range(4)) - set(failing)):
        alone, (error,) = fit(design, response, weights[r : r + 1])
        assert error is None
        for name, value in vars(alone.row(0)).items():
            np.testing.assert_array_equal(getattr(model.row(r), name), value, strict=True)
