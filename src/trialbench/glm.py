"""Generalized linear model fits used for every nuisance function.

Both fits take an explicit design matrix whose first column is the
intercept, and frequency weights. They fit a stack of weight vectors at
once: ``fit_logistic_stack`` and ``fit_linear_stack`` take a (B, m) weight
matrix, one row per fit of the shared (m, p) design, and return one model
whose fields carry a leading axis of length B, together with the error each
row's fit raised (None where it succeeded). ``fit_logistic`` and
``fit_linear`` are the stack of one, and raise its error. Every reduction
runs row by row (a stacked matmul, np.vecdot, a batched solve or QR
factorization, or an elementwise product summed over the last axis) on
row-contiguous arrays, so a row's fit has the same bits whatever other rows
share its stack.

A row's error slot is the one record of its failure: a check fails only the
rows it concerns, ``errors.record`` keeps the first error a row meets, no row
is ever taken out of the stack, and a failed row's coefficients are 0.

Before the rank decision and the solve, each non-intercept column whose
largest magnitude lies outside [1/16, 16] is scaled by the power of two that
brings it into [1, 2), and the coefficients are scaled back afterwards.
Powers of two are exact, so a covariate multiplied by 1e200 or 1e-200 fits
as the original does, and a {0, 1} or standard normal column is not touched.
A row whose coefficients leave the float range when scaled back fails.

The logistic fit is Newton / iteratively reweighted least squares with step
halving, so the (penalized) log-likelihood never decreases across accepted
iterations. Convergence is declared on the score of the scaled problem:
every component of the gradient below ``_TOL`` in absolute value. The loop
runs on every row of the stack and keeps a ``live`` mask of the rows still
iterating: a row that converges, fails or stagnates leaves it, and from then
on its Hessian is the identity and its score 0, so its step is 0 and its fit
stays as it was. The linear fit is least squares on sqrt(w) X by a QR
factorization, whose accuracy follows the condition number of sqrt(w) X
rather than its square.

The optional ridge penalty applies to slopes only, never the intercept,
and exists as an explicit fallback for near-separated resamples; by
default separation is an error, not something to smooth over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFitError,
    FitError,
    SeparationError,
    SingularDesignError,
    record,
    require_positive,
)

# Probabilities are kept strictly inside (0, 1) so weights stay finite.
_PROB_LO = 1e-300
_PROB_HI = float(np.nextafter(1.0, 0.0))
# Fitted probabilities this close to their labels count as separated.
_SEPARATION_EPS = 1e-7
# Halvings of a Newton step before the fit counts as stagnated.
_HALVINGS = 40
# Newton iterations before a logistic fit stops unconverged, and the largest
# score component of a converged fit.
_MAX_ITER = 100
_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


def expit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), elementwise, into ``out`` when
    given (which may be x itself).

    exp only ever sees -|x|, so it cannot overflow (not even at +-inf) and
    no floating-point error state has to be silenced. With e = exp(-|x|) in
    [0, 1], the result is 1 / (1 + e) for x >= 0 and e / (1 + e) below 0.
    """
    e = np.copysign(x, -1.0)
    return _expit(x, np.exp(e, out=e), out)


def _expit(x: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """expit(x), given e = exp(-|x|)."""
    out = np.maximum(e, x >= 0, out=out)
    out /= 1.0 + e
    return out


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


# Columns whose largest magnitude lies in this band are fitted as they are:
# their scale already suits the rank decision and the solve, and leaving
# them alone spares a copy of the design.
_UNSCALED_BAND = (2.0**-4, 2.0**4)


def _column_scales(design: np.ndarray) -> np.ndarray | None:
    """Per column, 1 for the intercept, for a column of zeros and for one
    whose largest magnitude lies in _UNSCALED_BAND; otherwise the power of
    two that brings that magnitude into [1, 2). None when every column is
    left as it is. The design must be finite."""
    lo, hi = _UNSCALED_BAND
    # One column at a time: numpy reduces a (m, p) array down its columns
    # about ten times slower than it reduces each column, 0.64 ms against
    # 0.07 ms at 20000 cells and 4 columns.
    top = [float(np.abs(column).max(initial=0.0)) for column in design.T]
    kept = [j == 0 or v == 0.0 or lo <= v <= hi for j, v in enumerate(top)]
    if all(kept):
        return None
    scales = np.ldexp(1.0, np.clip(1 - np.frexp(top)[1], -1022, 1023))
    scales[kept] = 1.0
    return scales


def _linear(design: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(B, m) linear predictors of the (B, p) coefficient rows."""
    return np.matmul(design, beta[:, :, None])[:, :, 0]


def _score(design: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """(B, p) design' residual of each (B, m) residual row."""
    return np.matmul(residual[:, None, :], design)[:, 0, :]


def _gram(design: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, p, p) design' diag(w) design of each (B, m) weight row."""
    # The weighted copy is formed (B, p, m), row-major, and multiplied
    # through its transposed view. That gives the bits of
    # np.matmul(design.T, w[:, :, None] * design) (tests/test_glm.py holds
    # them equal) in about half the time at 20000 x 4: numpy broadcasts
    # poorly over a last axis of length p.
    weighted = np.multiply(design.T, w[:, None, :], order="C")
    return np.matmul(design.T, weighted.transpose(0, 2, 1))


def _solve(hessian: np.ndarray, score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hessian^-1 score per stack row, and which rows have a singular hessian
    (their step is 0). One singular row makes the batched solve raise, so the
    rows are then solved one at a time, which gives each the same bits."""
    singular = np.zeros(len(score), dtype=bool)
    try:
        return np.linalg.solve(hessian, score[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(score)
    for r in range(len(score)):
        try:
            step[r] = np.linalg.solve(hessian[r : r + 1], score[r : r + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[r] = True
    return step, singular


def _check_rank(design: np.ndarray, occupied: np.ndarray, errors: list, what: str) -> None:
    """Fail each row whose occupied design rows have rank below p, by the
    np.linalg.matrix_rank rule on those rows (singular values above
    max(singular value) * max(rows, p) * eps).

    A Gram certificate passes each clearly full-rank row without the SVD:
    the eigenvalues l_min <= l_max of the row's G = X'X on its m_r >= p
    occupied cells, as computed, pass it when l_min > mu * l_max with
    mu = 2 (m + 1) p eps, m the table's cell count. The rows it does not
    pass go to the SVD rule, which alone decides them, so the verdicts are
    the rule's.

    The margin. Let s >= t be the largest and smallest singular values of
    X, the row's occupied cells of the design as _prepare scaled it: an
    intercept column of ones and other columns of largest magnitude 0 or in
    [1/16, 16], so s^2 >= m_r and underflow is negligible. G is formed over
    all m cells, the unoccupied ones zeroed, which add exact zeros. Forming
    G rounds each entry by at most gamma_m |X|'|X| (unit roundoff eps / 2,
    so gamma_m <= m eps), and || |X| ||^2 <= ||X||_F^2 <= p s^2: the
    computed G is X'X plus an error of norm at most m p eps s^2. eigvalsh
    is backward stable, with an error c eps ||G|| for a small c that
    depends on p alone. By Weyl's theorem each computed eigenvalue is then
    within d = (m p + c) eps s^2 (to first order) of the true one, s^2 or
    t^2 at the ends. A certified row has
        t^2 >= l_min - d > mu (s^2 - d) - d,
    so t^2 / s^2 > ((m + 2) p - c) eps, again to first order. The SVD's own
    values are within c' eps s of the true ones (c' small, depending on p),
    so the rule, whose tolerance takes max(m_r, p) <= m, passes whenever
    t / s > (m + 2 c') eps, that is, whenever t^2 / s^2 > (m + 2 c')^2 eps^2.
    This follows from the bound above as long as c stays below
    (m + 2) p - 1, which is at least p^2 + 2p - 1: (m + 2 c')^2 eps is far
    below 1 for any m below 10^7. So a row the certificate passes is one
    the rule passes too. The certificate accepts only rows with condition
    number below about 1 / sqrt(mu) (1.7e5 at m = 20000, p = 4), which the
    fits' designs are far inside of.
    """
    m, p = design.shape
    cells = occupied.sum(axis=1)
    eigenvalues = np.linalg.eigvalsh(_gram(design, occupied.astype(float)))
    mu = 2.0 * (m + 1) * p * _EPS
    rest = ((cells < p) | ~(eigenvalues[:, 0] > mu * eigenvalues[:, -1])).nonzero()[0]
    if rest.size == 0:
        return
    # Cells of weight 0 are zeroed, which leaves the singular values of
    # the occupied rows; a design of no rows has none.
    values = np.linalg.svd(design * occupied[rest, :, None], compute_uv=False)
    tol = values.max(axis=1, initial=0.0) * np.maximum(cells[rest], p) * _EPS
    deficient = np.zeros(len(errors), dtype=bool)
    deficient[rest] = (values > tol[:, None]).sum(axis=1) < p
    record(errors, deficient, lambda r: _singular(design[occupied[r]], what))


def _singular(design: np.ndarray, what: str) -> SingularDesignError:
    j = _first_dependent_column(design)
    return SingularDesignError(
        f"{what}: design column {j} is linearly dependent on earlier columns"
    )


def _prepare(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray, what: str, name: str
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Checked stack: (scaled design, column scales or None, response and
    weights as (B, m), which cells have weight, total weight per row, error
    per row).

    Frequency weights: a row of weight w counts as w copies of itself, and a
    row of weight 0 takes no part in the fit or in any of its checks. Each
    check fails only the stack rows it concerns.
    """
    design = np.ascontiguousarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"{what}: design must be 2-d, got shape {design.shape}")
    m, p = design.shape
    # Row-contiguous stacks: a matrix product picks its kernel by memory
    # layout, and each row must meet the same kernel in any stack.
    w = np.ascontiguousarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != m:
        raise ValueError(f"{what}: weights shape {w.shape} does not match {m} rows")
    y = np.ascontiguousarray(response, dtype=float)
    if y.shape not in ((m,), w.shape):
        raise ValueError(f"{what}: {name} shape {y.shape} does not match {m} rows")
    if y.shape != w.shape:
        y = np.repeat(y[None], len(w), axis=0)

    errors: list = [None] * w.shape[0]
    total = w.sum(axis=1)
    # NaN fails w >= 0 and an infinite weight makes the total infinite.
    if not (w.min(initial=0.0) >= 0.0 and np.isfinite(total).all()):
        valid = np.all(w >= 0.0, axis=1) & np.isfinite(total)
        record(
            errors,
            ~valid,
            lambda r: ValueError(f"{what}: weights must be finite and non-negative"),
        )
        w = np.where(valid[:, None], w, 0.0)
        total = w.sum(axis=1)
    occupied = w > 0.0
    small = total < p
    record(
        errors,
        small,
        lambda r: ValueError(f"{what}: {total[r]:g} rows cannot identify {p} coefficients"),
    )
    if not np.isfinite(design).all():
        finite = np.all(np.isfinite(design), axis=1)
        record(
            errors,
            np.any(occupied & ~finite, axis=1),
            lambda r: ValueError(f"{what}: design contains non-finite values"),
        )
        design = np.where(finite[:, None], design, 0.0)
    scales = _column_scales(design)
    if scales is not None:
        design = design * scales
    _check_rank(design, occupied, errors, what)
    return design, scales, y, w, occupied, total, errors


def _scale_back(
    beta: np.ndarray, scales: np.ndarray | None, errors: list, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of the unscaled design, 0 on failed rows, and which
    rows failed. A row fails whose coefficients leave the float range, as the
    slope 1e320 of an outcome of size 1e120 on a covariate of size 1e-200 does."""
    with np.errstate(over="ignore"):
        coefficients = beta if scales is None else beta * scales
    overflow = ~np.isfinite(coefficients).all(axis=1)
    record(errors, overflow, lambda r: FitError(f"{what}: coefficients are not finite"))
    failed = np.array([e is not None for e in errors], dtype=bool)
    coefficients[failed] = 0.0
    return coefficients, failed


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic regression.

    ``coefficients[0]`` is the intercept; the remaining entries align with
    the covariate columns the model was fitted on (zeros where a column was
    deliberately omitted, see nuisance.fit_nuisances). ``loglik_trace``
    records the penalized log-likelihood at the start and after each
    accepted update; it is non-decreasing by construction. A stack of fits
    holds arrays with a leading axis, one entry per fit (the trace padded
    with NaN); ``row`` takes one fit out.
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

    def row(self, r: int) -> "LogisticModel":
        """Fit ``r`` of a stack of fits."""
        iterations = int(self.iterations[r])
        return LogisticModel(
            coefficients=self.coefficients[r],
            converged=bool(self.converged[r]),
            iterations=iterations,
            log_likelihood=float(self.log_likelihood[r]),
            loglik_trace=tuple(self.loglik_trace[r, : iterations + 1].tolist()),
        )

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return _predictor(self.coefficients, x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Event probabilities for (m, k) covariates, strictly inside (0, 1)."""
        return np.clip(expit(self.linear_predictor(x)), _PROB_LO, _PROB_HI)


@dataclass(frozen=True)
class LinearModel:
    """Fitted linear regression with homoskedastic residual variance.

    A stack of fits holds arrays with a leading axis, one entry per fit.
    """

    coefficients: np.ndarray
    residual_variance: float

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def row(self, r: int) -> "LinearModel":
        """Fit ``r`` of a stack of fits."""
        return LinearModel(self.coefficients[r], float(self.residual_variance[r]))

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return _predictor(self.coefficients, x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.linear_predictor(x)


Model = LogisticModel | LinearModel


def _predictor(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear predictor of (m, k) covariates: (m,) for one fit, (B, m) for a stack."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != coefficients.shape[-1] - 1:
        raise ValueError(
            f"model has {coefficients.shape[-1] - 1} covariates, input has {x.shape[1]}"
        )
    return np.matmul(x, coefficients[..., 1:, None])[..., 0] + coefficients[..., :1]


def only(model: Model, errors: list) -> Model:
    """The single fit of a stack of one; raises the error it met instead."""
    if errors[0] is not None:
        raise errors[0]
    return model.row(0)


def _stack_of_one(design: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        return np.ones((1, len(design)))
    return np.asarray(weights, dtype=float)[None]


def _penalized_loglik(
    eta: np.ndarray, wy: np.ndarray, w: np.ndarray, beta: np.ndarray, penalty: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the log-likelihood at ``eta`` less the ridge penalty; and
    exp(-|eta|), which expit of the same eta reuses."""
    # log L = sum w*[y*eta - log(1 + exp(eta))], with the softplus
    # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)) computed stably.
    e = np.exp(np.copysign(eta, -1.0))
    softplus = np.log1p(e)
    softplus += np.maximum(eta, 0.0)
    ll = np.vecdot(wy, eta) - np.vecdot(w, softplus)
    ll -= 0.5 * (penalty * beta * beta).sum(axis=-1)
    return ll, e


def _separated(one: np.ndarray, mu: np.ndarray, free: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which of the candidate ``rows`` have every fitted probability pinned
    to its label (``one`` marks label 1, ``free`` the cells of weight 0,
    which take no part): the current coefficient direction then classifies
    perfectly, so the MLE is at infinity."""
    if not rows.any():
        return rows
    pinned = np.where(one, mu > 1.0 - _SEPARATION_EPS, mu < _SEPARATION_EPS)
    pinned |= free
    return rows & pinned.all(axis=-1)


def _separation(what: str, iteration: int) -> SeparationError:
    return SeparationError(f"logistic fit: {what} at iteration {iteration}")


def fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    ridge: float = 0.0,
    weights: np.ndarray | None = None,
) -> LogisticModel:
    """Maximum-likelihood logistic fit by Newton steps with step halving.

    ``design`` is (n, p) with the intercept in column 0; ``labels`` in {0, 1}
    and must contain both classes. ``weights`` are optional frequency
    weights, one per row. ``ridge`` > 0 penalizes slopes only and disables
    the separation check (the penalized optimum is always finite). Raises
    SeparationError naming the iteration when the likelihood has no finite
    maximizer, SingularDesignError for rank-deficient designs, and
    DegenerateFitError for single-class labels. The stack of one of
    fit_logistic_stack.
    """
    return only(*fit_logistic_stack(design, labels, _stack_of_one(design, weights), ridge))


def fit_logistic_stack(
    design: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    ridge: float = 0.0,
) -> tuple[LogisticModel, list]:
    """One logistic fit per row of the (B, m) ``weights``, on the shared design.

    ``labels`` are (m,), or (B, m) with one label vector per row. Returns the
    stack of fits and, per row, the error its fit alone would raise (None
    where it succeeded; that row's coefficients are then 0). Each row keeps
    its own checks, step halving and convergence test.
    """
    require_positive(ridge, "ridge", or_zero=True)
    x, scales, y, w, occupied, total, errors = _prepare(
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
    # At ridge 0 the penalty is all zeros, whose terms leave every bit as it was.
    penalty = np.zeros(p)
    if ridge > 0.0:
        # Intercept never penalized; the slopes of scaled columns scale back.
        # A penalty beyond the float range (a covariate below about 1e-154)
        # is held at the largest float. The slope is then not the penalized
        # optimum but one Newton step against that penalty, score * scale^2 /
        # max float in original units (about 1e-8 for a covariate of 1e-300,
        # where the optimum is about 1e-300): far from 0, but its share of
        # every linear predictor lies below float resolution.
        with np.errstate(over="ignore"):
            penalty[1:] = ridge * (1.0 if scales is None else scales[1:] ** 2)
        np.minimum(penalty, np.finfo(float).max, out=penalty)
    wy, free = w * y, ~occupied
    # Only a row whose log-likelihood exceeds this can be separated: a cell
    # of weight v pinned to its label adds more than v log(1 - eps) > -1.01 v eps.
    # The separation check is off under a ridge penalty.
    floor = -2.0 * _SEPARATION_EPS * total if ridge == 0.0 else np.full(count, np.inf)
    beta = np.zeros((count, p))
    ll = -np.log(2.0) * total  # at eta = 0 every cell's softplus is log 2
    trace = np.full((count, _MAX_ITER + 1), np.nan)
    trace[:, 0] = ll
    converged = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)

    # The rows still iterating (see the module docstring); e is exp(-|eta|),
    # kept for expit. Iterate _MAX_ITER + 1 only checks the last step's fit.
    live = np.array([e is None for e in errors], dtype=bool)
    eta, e = np.zeros(w.shape), np.ones(w.shape)
    identity = np.eye(p)
    for it in range(1, _MAX_ITER + 2):
        mu = _expit(eta, e)
        residual = w * mu
        np.subtract(wy, residual, out=residual)
        score = _score(x, residual)
        score -= penalty * beta
        # A NaN score component shows a non-finite mu, and with it
        # non-finite working weights w mu (1 - mu).
        largest = np.abs(score).max(axis=1)
        stop = live & np.isnan(largest)
        record(errors, stop, lambda r: _separation("non-finite working weights", it))
        separated = _separated(one, mu, free, live & ~stop & (ll > floor))
        record(errors, separated, lambda r: _separation("complete separation detected", it))
        done = live & (largest < _TOL) & ~separated
        converged |= done
        live &= ~(stop | separated | done)
        if it > _MAX_ITER or not live.any():
            break

        working = 1.0 - mu
        working *= mu
        working *= w
        hessian = _gram(x, working)
        hessian += np.diag(penalty)
        hessian[~live] = identity
        score[~live] = 0.0
        step, singular = _solve(hessian, score)
        record(errors, singular, lambda r: _separation("singular working Hessian", it))
        live &= ~singular

        # Step halving keeps each row's penalized log-likelihood non-decreasing:
        # the rows still trying after h halvings all take start + 0.5^h step.
        start, least = beta, ll - 1e-12 * (1.0 + np.abs(ll))
        trying, fraction = live.copy(), 1.0
        for _ in range(_HALVINGS):
            if not trying.any():
                break
            candidate = start + fraction * step
            eta_new = _linear(x, candidate)
            ll_new, e_new = _penalized_loglik(eta_new, wy, w, candidate, penalty)
            up = trying & (ll_new >= least)
            kept = (~up).nonzero()[0]  # these rows keep their fit
            candidate[kept], eta_new[kept], e_new[kept] = beta[kept], eta[kept], e[kept]
            beta, eta, e = candidate, eta_new, e_new
            ll[up], trace[up, it], iterations[up] = ll_new[up], ll_new[up], it
            trying &= ~up
            fraction *= 0.5
        live &= ~trying  # stagnated: this iterate's checks saw its fit

    coefficients, failed = _scale_back(beta, scales, errors, "logistic fit")
    converged[failed] = False
    model = LogisticModel(
        coefficients=coefficients,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        loglik_trace=trace,
    )
    return model, errors


def fit_linear(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray | None = None
) -> LinearModel:
    """Least squares on an explicit design (intercept in column 0).

    ``weights`` are optional frequency weights, one per row. Residual
    variance is the weighted RSS / (n - p), n the total weight; defined as 0
    when the fit interpolates (n == p). Rank deficiency raises
    SingularDesignError naming the first dependent column. The stack of one
    of fit_linear_stack.
    """
    return only(*fit_linear_stack(design, response, _stack_of_one(design, weights)))


def fit_linear_stack(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray
) -> tuple[LinearModel, list]:
    """One weighted least-squares fit per row of the (B, m) ``weights``.

    ``response`` is (m,), or (B, m) with one response vector per row. Each
    row is solved by a QR factorization of [sqrt(w) X | sqrt(w) y], X the
    scaled design: the top rows of its R factor hold the triangular system
    of the coefficients, whose condition is that of sqrt(w) X (the normal
    equations would square it). Returns the stack of fits and, per row, the
    error its fit alone would raise (None where it succeeded; that row's
    coefficients are then 0).
    """
    x, scales, y, w, occupied, total, errors = _prepare(
        design, response, weights, "linear fit", "response"
    )
    if not np.isfinite(y).all():
        record(
            errors,
            np.any(occupied & ~np.isfinite(y), axis=1),
            lambda r: ValueError("linear fit: response contains non-finite values"),
        )
    # A cell of weight 0 takes no part, whatever its response.
    y = np.where(occupied, y, 0.0)
    m, p = x.shape
    # Every row with fewer than p occupied cells has failed the rank check.
    if m < p:
        return LinearModel(np.zeros((len(errors), p)), np.zeros(len(errors))), errors
    # Every row is solved, failed or not, and a failed row's fit is then
    # zeroed: no row's arithmetic depends on another's.
    augmented = np.empty((len(w), m, p + 1))
    augmented[:, :, :p] = x
    augmented[:, :, p] = y
    augmented *= np.sqrt(w)[:, :, None]
    # An overflow here leaves a non-finite residual variance, which the
    # callers that need it finite (nuisance.fit_cells) reject; a failed row
    # may hold NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.linalg.qr(augmented, mode="r")
        beta, singular = _solve(factor[:, :p, :p], factor[:, :p, p])
        residuals = y - _linear(x, beta)
        rss = np.vecdot(w * residuals, residuals)
    df = total - p
    variance = np.divide(rss, df, out=np.zeros(len(w)), where=df > 0)
    record(errors, singular, lambda r: _singular(x[occupied[r]], "linear fit"))
    coefficients, failed = _scale_back(beta, scales, errors, "linear fit")
    variance[failed] = 0.0
    return LinearModel(coefficients=coefficients, residual_variance=variance), errors


def coefficient_covariance(
    model: Model, design: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Model-based covariance of the coefficients on the fitting design.

    ``weights`` are the fit's frequency weights, one per row. Logistic:
    inverse observed information at the fit. Linear: residual variance times
    (X'WX)^{-1}. The inverse is taken on the design with its columns scaled
    as in the fits, then scaled back.
    """
    design = np.asarray(design, dtype=float)
    w = np.ones(design.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    factor = 1.0
    if isinstance(model, LogisticModel):
        mu = expit(design @ model.coefficients)
        w = w * np.clip(mu * (1.0 - mu), 1e-300, None)
    else:
        factor = model.residual_variance
    scales = _column_scales(design)
    scaled = design if scales is None else design * scales
    cov = factor * np.linalg.inv((scaled * w[:, None]).T @ scaled)
    if scales is None:
        return cov
    # An entry whose value lies beyond the float range, such as the variance
    # of the slope of a covariate of size 1e-200, comes out infinite.
    with np.errstate(over="ignore"):
        return cov * scales[:, None] * scales
