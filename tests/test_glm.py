import numpy as np
import pytest
from hypothesis import example, given, settings
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
    """A design of m rows, fewer than p too, with an intercept column:
    independent normal columns, or one column a combination of the others
    plus noise of relative size 10^-k, or one column a copy of another; then
    power-of-two column scales, and the cells the fits occupy: all of them,
    about 70% of them, or fewer than p per stack row, and perhaps a stack
    row with none."""
    p = draw(st.integers(2, 6))
    short = draw(st.integers(0, 3)) == 3
    m = draw(st.integers(1, p - 1) if short else st.integers(p, 5000))
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
    fill = draw(st.sampled_from(["all", "most", "few"]))
    if fill == "most":
        occupied = rng.random((stack, m)) < 0.7
    elif fill == "few":
        occupied[:] = False
        for row in occupied:
            row[rng.choice(m, min(m, rng.integers(p)), replace=False)] = True
    if fill != "all" and draw(st.booleans()):
        occupied[-1] = False
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


def _broadcast_gram(design, w):
    """glm._gram as it was: the weighted copy formed (B, m, p), broadcast
    over its last axis."""
    return np.matmul(design.T, w[:, :, None] * design)


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 6),
    m=st.integers(1, 3000),
    p=st.integers(1, 8),
    empty=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    counts=st.booleans(),
    scales=st.lists(st.sampled_from([1.0, 1e-3, 1e3]), min_size=8, max_size=8),
)
def test_gram_gives_the_bits_of_the_broadcast_weighted_copy(seed, b, m, p, empty, counts, scales):
    # Cells of weight 0, count weights (as the rank certificate's occupied
    # mask and the bootstrap's resamples give) or Newton working weights, and
    # columns scaled by 1e-3 or 1e3.
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((m, p)) * scales[:p]
    design[:, 0] = 1.0
    w = rng.integers(1, 5, (b, m)).astype(float) if counts else rng.gamma(0.5, size=(b, m))
    w[rng.random((b, m)) < empty] = 0.0
    assert glm._gram(design, w).tobytes() == _broadcast_gram(design, w).tobytes()


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


def _two_site_logistic_stack(design, labels, weights, ridge=0.0):
    """glm.fit_logistic_stack as it was when a block after the Newton loop
    decided again, for the rows that stagnated or ran out of iterations,
    whether they converged or separated: the oracle of the one-site loop.
    It reads glm._MAX_ITER when called."""
    glm.check_ridge(ridge)
    x, scales, y, w, occupied, total, errors = glm._prepare(
        design, labels, weights, "logistic fit", "labels"
    )
    one, zero = y == 1.0, y == 0.0
    nonbinary = ~(one | zero)
    if nonbinary.any():
        record(
            errors,
            np.any(nonbinary & occupied, axis=1),
            lambda r: ValueError("logistic fit: labels must be 0 or 1"),
        )
    both = (zero & occupied).any(axis=1) & (one & occupied).any(axis=1)
    record(
        errors,
        ~both,
        lambda r: DegenerateFitError(
            f"logistic fit: labels are single-class (all {int(y[r][occupied[r]][0])})"
        ),
    )

    count, p = w.shape[0], x.shape[1]
    penalty = np.zeros(p)
    if ridge > 0.0:
        with np.errstate(over="ignore"):
            penalty[1:] = ridge * (1.0 if scales is None else scales[1:] ** 2)
        np.minimum(penalty, np.finfo(float).max, out=penalty)
    wy, free = w * y, ~occupied
    floor = -2.0 * glm._SEPARATION_EPS * total if ridge == 0.0 else np.full(count, np.inf)
    beta = np.zeros((count, p))
    ll = -np.log(2.0) * total
    trace = np.full((count, glm._MAX_ITER + 1), np.nan)
    trace[:, 0] = ll
    converged = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)

    live = np.array([e is None for e in errors], dtype=bool)
    stagnated = np.zeros(count, dtype=bool)
    eta, e = np.zeros(w.shape), np.ones(w.shape)
    identity = np.eye(p)
    for it in range(1, glm._MAX_ITER + 1):
        mu = glm._expit(eta, e)
        residual = w * mu
        np.subtract(wy, residual, out=residual)
        score = glm._score(x, residual)
        score -= penalty * beta
        largest = np.abs(score).max(axis=1)
        stop = live & np.isnan(largest)
        record(errors, stop, lambda r: glm._separation("non-finite working weights", it))
        separated = glm._separated(one, mu, free, live & ~stop & (ll > floor))
        record(errors, separated, lambda r: glm._separation("complete separation detected", it))
        done = live & (largest < glm._TOL) & ~separated
        converged |= done
        live &= ~(stop | separated | done)
        if not live.any():
            break

        working = 1.0 - mu
        working *= mu
        working *= w
        hessian = glm._gram(x, working)
        hessian += np.diag(penalty)
        hessian[~live] = identity
        score[~live] = 0.0
        step, singular = glm._solve(hessian, score)
        record(errors, singular, lambda r: glm._separation("singular working Hessian", it))
        live &= ~singular

        start, least = beta, ll - 1e-12 * (1.0 + np.abs(ll))
        trying, fraction = live.copy(), 1.0
        for _ in range(glm._HALVINGS):
            if not trying.any():
                break
            candidate = start + fraction * step
            eta_new = glm._linear(x, candidate)
            ll_new, e_new = glm._penalized_loglik(eta_new, wy, w, candidate, penalty)
            up = trying & (ll_new >= least)
            kept = (~up).nonzero()[0]
            candidate[kept], eta_new[kept], e_new[kept] = beta[kept], eta[kept], e[kept]
            beta, eta, e = candidate, eta_new, e_new
            ll[up], trace[up, it], iterations[up] = ll_new[up], ll_new[up], it
            trying &= ~up
            fraction *= 0.5
        stagnated |= trying
        live &= ~trying

    stopped = stagnated | live
    if stopped.any():
        mu = glm.expit(glm._linear(x, beta))
        pinned = glm._separated(one, mu, free, stopped & (ll > floor))
        record(
            errors,
            pinned,
            lambda r: glm._separation("complete separation detected", iterations[r]),
        )
        score = glm._score(x, wy - w * mu) - penalty * beta
        converged[stopped] = (np.abs(score).max(axis=1) < glm._TOL)[stopped]

    coefficients, failed = glm._scale_back(beta, scales, errors, "logistic fit")
    converged[failed] = False
    model = LogisticModel(
        coefficients=coefficients,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        loglik_trace=trace,
    )
    return model, errors


# Three cells on which a fit stagnates: no halving of its first step raises
# the log-likelihood (tests/test_batched_bootstrap.py, MASKED_LOOP_ROWS).
STAGNATING_CELLS = ([[1.0, 0.0], [1.0 + 2**-30, 0.0], [1.0, 1.0]], [0.0, 1.0, 0.0], [3.0, 1.0, 1.0])


@st.composite
def logistic_stacks(draw):
    """A shared design of 3-12 random cells on two covariates, then the
    stagnating cells, and a stack of 1-6 weight rows over it. The random
    cells are untouched, rounded to few values (tied), or separable on X1,
    and then rescaled. Each row weights the random cells, all cells, only
    the random cells labelled 1 (single-class), or the stagnating cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = draw(st.integers(3, 12))
    x = rng.normal(size=(cells, 2))
    labels = (rng.random(cells) < 0.5).astype(float)
    kind = draw(st.sampled_from(["random", "tied", "separable"]))
    if kind == "tied":
        x = np.round(x)
    elif kind == "separable":
        x[:, 0] = labels * 2.0 - 1.0 + 0.1 * rng.random(cells)
    x *= draw(st.sampled_from([1.0, 1e-3, 1e3, 2.0**-40]))
    stagnating, stagnating_labels, stagnating_weights = map(np.array, STAGNATING_CELLS)
    design = add_intercept(np.vstack([x, stagnating]))
    labels = np.concatenate([labels, stagnating_labels])
    stack = draw(st.integers(1, 6))
    weights = np.zeros((stack, len(design)))
    for row in weights:
        group = draw(st.sampled_from(["random", "all", "single-class", "stagnating"]))
        if group == "stagnating":
            row[cells:] = stagnating_weights * draw(st.integers(1, 3))
        else:
            row[:] = rng.integers(0, 4, size=len(design))
            if group != "all":
                row[cells:] = 0.0
            if group == "single-class":
                row *= labels
    return design, labels, weights


def _separation_message(iteration):
    return str(glm._separation("complete separation detected", iteration))


# The MASKED_LOOP_ROWS "no halving" and "separated" fits side by side. Alone
# the first converges after 6 steps and the second separates at iteration 18,
# so a cap of 6 leaves the first converged at the check after its last step,
# and a cap of 17 leaves the second separated there.
LAST_CHECK_CASE = (
    add_intercept(
        np.array(
            [[0, 4], [8, -8], [-6, 5], [8, -4], [-3, 6], [-1, -4], [-2, 1], [-3, -1], [2, 2], [3, -2]],
            dtype=float,
        )
    ),
    np.array([1, 0, 1, 0, 0, 1, 0, 0, 1, 1], dtype=float),
    np.array([[25, 14, 23, 4, 9, 4, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 2, 2, 1]], dtype=float),
)


@settings(max_examples=300, deadline=None, database=None)
@example(case=LAST_CHECK_CASE, ridge=0.0, cap=6)
@example(case=LAST_CHECK_CASE, ridge=0.0, cap=17)
@given(
    case=logistic_stacks(),
    ridge=st.sampled_from([0.0, 1e-8, 1.0]),
    cap=st.one_of(st.integers(1, 8), st.just(glm._MAX_ITER)),
)
def test_one_site_newton_loop_equals_the_two_site_loop(case, ridge, cap):
    design, labels, weights = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glm, "_MAX_ITER", cap)
        model, errors = glm.fit_logistic_stack(design, labels, weights, ridge)
        oracle, oracle_errors = _two_site_logistic_stack(design, labels, weights, ridge)
    for name in ("coefficients", "log_likelihood", "loglik_trace"):
        assert getattr(model, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert model.converged.tolist() == oracle.converged.tolist()
    assert model.iterations.tolist() == oracle.iterations.tolist()
    assert [type(e) for e in errors] == [type(e) for e in oracle_errors]
    # A row that separates at the check after its last step names that
    # check, _MAX_ITER + 1, where the two-site loop named its last step.
    renamed = (_separation_message(cap), _separation_message(cap + 1))
    for r, (error, expected) in enumerate(zip(errors, oracle_errors)):
        if str(error) != str(expected):
            assert (str(expected), str(error)) == renamed and oracle.iterations[r] == cap
