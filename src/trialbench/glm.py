"""Generalized linear model fits used for every nuisance function.

Both fits take an explicit design matrix whose first column is the
intercept. The logistic fit is Newton / iteratively reweighted least
squares with step halving, so the (penalized) log-likelihood never
decreases across accepted iterations. Convergence is declared on the
score: every component of the gradient below ``tol`` in absolute value.

The optional ridge penalty applies to slopes only, never the intercept,
and exists as an explicit fallback for near-separated resamples; by
default separation is an error, not something to smooth over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, SeparationError, SingularDesignError

# Probabilities are kept strictly inside (0, 1) so weights stay finite.
_PROB_LO = 1e-300
_PROB_HI = float(np.nextafter(1.0, 0.0))


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    exp only ever sees -|x|, so it cannot overflow (not even at +-inf) and
    no floating-point error state has to be silenced. With e = exp(-|x|) in
    [0, 1], the result is 1 / (1 + e) for x >= 0 and e / (1 + e) below 0.
    """
    e = np.exp(np.copysign(x, -1.0))
    return np.maximum(e, x >= 0) / (1.0 + e)


def add_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend a column of ones to a (n, k) covariate matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _first_dependent_column(design: np.ndarray) -> int:
    """Index of the first column lying in the span of the columns before it."""
    ranks = [np.linalg.matrix_rank(design[:, : j + 1]) for j in range(design.shape[1])]
    prev = 0
    for j, r in enumerate(ranks):
        if r == prev:
            return j
        prev = r
    return design.shape[1] - 1


def _check_design(design: np.ndarray, n: float, what: str) -> np.ndarray:
    """Validate a design; ``n`` is its row count, or its total weight."""
    p = design.shape[1]
    if n < p:
        raise ValueError(f"{what}: {n:g} rows cannot identify {p} coefficients")
    if not np.all(np.isfinite(design)):
        raise ValueError(f"{what}: design contains non-finite values")
    if np.linalg.matrix_rank(design) < p:
        j = _first_dependent_column(design)
        raise SingularDesignError(
            f"{what}: design column {j} is linearly dependent on earlier columns"
        )
    return design


def _weighted_rows(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray | None, what: str, name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Checked (design, response, weights, total weight) over the rows of positive weight.

    Frequency weights: a row of weight w counts as w copies of itself, and a
    row of weight 0 takes no part in the fit or in any of its checks. Without
    weights every row has weight 1.
    """
    design = np.ascontiguousarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"{what}: design must be 2-d, got shape {design.shape}")
    y = np.asarray(response, dtype=float)
    n = design.shape[0]
    if y.shape != (n,):
        raise ValueError(f"{what}: {name} shape {y.shape} does not match {n} rows")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"{what}: weights shape {w.shape} does not match {n} rows")
        if not np.all(np.isfinite(w) & (w >= 0.0)):
            raise ValueError(f"{what}: weights must be finite and non-negative")
        occupied = w > 0.0
        if not np.all(occupied):
            design, y, w = design[occupied], y[occupied], w[occupied]
    total = float(n) if weights is None else float(np.sum(w))
    return _check_design(design, total, what), y, w, total


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic regression.

    ``coefficients[0]`` is the intercept; the remaining entries align with
    the covariate columns the model was fitted on (zeros where a column was
    deliberately omitted, see nuisance.fit_nuisances). ``loglik_trace``
    records the penalized log-likelihood at the start and after each
    accepted update; it is non-decreasing by construction.
    """

    coefficients: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    loglik_trace: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.coefficients.size - 1:
            raise ValueError(
                f"model has {self.coefficients.size - 1} covariates, input has {x.shape[1]}"
            )
        return self.coefficients[0] + x @ self.coefficients[1:]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Event probabilities for (m, k) covariates, strictly inside (0, 1)."""
        return np.clip(expit(self.linear_predictor(x)), _PROB_LO, _PROB_HI)


@dataclass(frozen=True)
class LinearModel:
    """Fitted linear regression with homoskedastic residual variance."""

    coefficients: np.ndarray
    residual_variance: float

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.coefficients.size - 1:
            raise ValueError(
                f"model has {self.coefficients.size - 1} covariates, input has {x.shape[1]}"
            )
        return self.coefficients[0] + x @ self.coefficients[1:]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.linear_predictor(x)


Model = LogisticModel | LinearModel


def _penalized_loglik(
    eta: np.ndarray, wy: np.ndarray, w: np.ndarray, beta: np.ndarray, ridge: float
) -> float:
    # log L = sum w*[y*eta - log(1 + exp(eta))], with the softplus
    # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)) computed stably.
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    ll = float(wy @ eta - w @ softplus)
    if ridge > 0.0:
        ll -= 0.5 * ridge * float(beta[1:] @ beta[1:])
    return ll


def _numerically_separated(y: np.ndarray, mu: np.ndarray, eps: float = 1e-7) -> bool:
    # Every fitted probability pinned to its label means the current
    # coefficient direction classifies perfectly, so the MLE is at infinity.
    return bool(np.all(np.where(y == 1.0, mu > 1.0 - eps, mu < eps)))


def fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-8,
    ridge: float = 0.0,
    weights: np.ndarray | None = None,
) -> LogisticModel:
    """Maximum-likelihood logistic fit by Newton steps with step halving.

    ``design`` is (n, p) with the intercept in column 0; ``labels`` in {0, 1}
    and must contain both classes. ``weights`` are optional frequency
    weights, one per row (see _weighted_rows). ``ridge`` > 0 penalizes
    slopes only and disables the separation check (the penalized optimum is
    always finite). Raises SeparationError naming the iteration when the
    likelihood has no finite maximizer, SingularDesignError for
    rank-deficient designs, and DegenerateFitError for single-class labels.
    """
    design, y, wt, _ = _weighted_rows(design, labels, weights, "logistic fit", "labels")
    p = design.shape[1]
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic fit: labels must be 0 or 1")
    if np.all(y == y[0]):
        raise DegenerateFitError(
            f"logistic fit: labels are single-class (all {int(y[0])})"
        )
    if ridge < 0.0:
        raise ValueError("logistic fit: ridge penalty must be non-negative")

    penalty = np.zeros(p)
    penalty[1:] = ridge  # intercept never penalized
    wy = wt * y

    beta = np.zeros(p)
    eta = design @ beta
    ll = _penalized_loglik(eta, wy, wt, beta, ridge)
    trace = [ll]
    converged = False
    iterations = 0

    for it in range(1, max_iter + 1):
        mu = expit(eta)
        w = wt * (mu * (1.0 - mu))
        if not np.all(np.isfinite(w)):
            raise SeparationError(
                f"logistic fit: non-finite working weights at iteration {it}"
            )
        if ridge == 0.0 and _numerically_separated(y, mu):
            raise SeparationError(
                f"logistic fit: complete separation detected at iteration {it}"
            )
        score = design.T @ (wy - wt * mu) - penalty * beta
        if np.max(np.abs(score)) < tol:
            converged = True
            iterations = it - 1
            break
        hessian = (design * w[:, None]).T @ design + np.diag(penalty)
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                f"logistic fit: singular working Hessian at iteration {it}"
            ) from None

        # Step halving keeps the penalized log-likelihood non-decreasing.
        slack = 1e-12 * (1.0 + abs(ll))
        scale = 1.0
        improved = False
        for _ in range(40):
            candidate = beta + scale * step
            eta_new = design @ candidate
            ll_new = _penalized_loglik(eta_new, wy, wt, candidate, ridge)
            if ll_new >= ll - slack:
                improved = True
                break
            scale *= 0.5
        if not improved:
            iterations = it - 1  # stagnated at float resolution
            break
        beta = candidate
        eta = eta_new
        ll = ll_new
        trace.append(ll)
        iterations = it
    else:
        iterations = max_iter

    if not converged:
        mu = expit(eta)
        if ridge == 0.0 and _numerically_separated(y, mu):
            raise SeparationError(
                f"logistic fit: complete separation detected at iteration {iterations}"
            )
        score = design.T @ (wy - wt * mu) - penalty * beta
        converged = bool(np.max(np.abs(score)) < tol)

    return LogisticModel(
        coefficients=beta,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        loglik_trace=tuple(trace),
    )


def fit_linear(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray | None = None
) -> LinearModel:
    """Least squares on an explicit design (intercept in column 0).

    ``weights`` are optional frequency weights, one per row (see
    _weighted_rows). Residual variance is the weighted RSS / (n - p), n the
    total weight; defined as 0 when the fit interpolates (n == p). Rank
    deficiency raises SingularDesignError naming the first dependent column.
    """
    design, y, w, n = _weighted_rows(design, response, weights, "linear fit", "response")
    if not np.all(np.isfinite(y)):
        raise ValueError("linear fit: response contains non-finite values")

    root = np.sqrt(w)
    beta, _, _, _ = np.linalg.lstsq(design * root[:, None], y * root, rcond=None)
    residuals = y - design @ beta
    df = n - design.shape[1]
    variance = float((w * residuals) @ residuals / df) if df > 0 else 0.0
    return LinearModel(coefficients=beta, residual_variance=variance)


def coefficient_covariance(
    model: Model, design: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Model-based covariance of the coefficients on the fitting design.

    ``weights`` are the fit's frequency weights, one per row (see
    _weighted_rows). Logistic: inverse observed information at the fit.
    Linear: residual variance times (X'WX)^{-1}.
    """
    design = np.asarray(design, dtype=float)
    w = np.ones(design.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    if isinstance(model, LogisticModel):
        mu = expit(design @ model.coefficients)
        w = w * np.clip(mu * (1.0 - mu), 1e-300, None)
        return np.linalg.inv((design * w[:, None]).T @ design)
    info = (design * w[:, None]).T @ design
    return model.residual_variance * np.linalg.inv(info)
