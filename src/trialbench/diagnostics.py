"""Observable-implication and overlap diagnostics.

The restriction test probes the one implication the identification
conditions leave in the observed data: within a treatment arm, study
membership should add nothing to the outcome mean once covariates are in
the model. Rejection says at least one of the conditions fails; it cannot
say which. Agreement is supportive but not proof, since violations can
cancel and covariate averaging can hide conditional differences.

The overlap summary reports where the fitted probabilities live and how
large the implied weights get for each estimator, which is where finite
positivity problems show up long before the hard floor trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, cell_table
from .errors import (
    DegenerateFitError,
    require_finite,
    require_member,
    require_positive,
    require_unit,
)
from .estimators import ESTIMATOR_NAMES, aipw_weighting, predictions
from .glm import LogisticModel, coefficient_covariance, only
from .inference import TestResult, linear_quantiles
from .nuisance import NAME_OF, NuisanceSet, fit_cells, model_cells

STATUS_CONSISTENT = "consistent"
STATUS_INCONSISTENT = "inconsistent"
STATUS_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RestrictionResult:
    """Wald test of the study terms in the S-augmented arm-a outcome model."""

    arm: int
    test: TestResult
    s_terms: dict[str, float]
    status: str
    threshold: float
    include_interactions: bool


def chi2_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square on an integer ``df`` >= 1 degrees of freedom.

    This is the regularized upper gamma Q(df/2, x/2) as its finite series,
    built up by Q(a + 1, l) = Q(a, l) + l^a e^-l / Gamma(a + 1) from
    Q(1/2, l) = erfc(sqrt(l)) when df is odd and Q(0, l) = 0 when it is
    even. Every term is positive, so nothing cancels.
    """
    lam = max(x, 0.0) / 2.0
    if df % 2:
        a, q = 0.5, math.erfc(math.sqrt(lam))
        term = 2.0 * math.sqrt(lam / math.pi) * math.exp(-lam)  # l^a e^-l / Gamma(a + 1)
    else:
        a, q, term = 0.0, 0.0, math.exp(-lam)
    while a < df / 2.0:
        q += term
        a += 1.0
        term *= lam / a
    return q


def restriction_test(
    d: Dataset,
    a: int,
    include_interactions: bool = False,
    *,
    outcome_kind: str,
    threshold: float = 0.05,
    ridge: float = 0.0,
) -> RestrictionResult:
    """Fit the pooled arm-``a`` outcome model augmented with study terms.

    The augmentation is an S main effect, plus S-by-covariate products when
    ``include_interactions`` is set, fitted on the dataset's cell table. The
    result's status is "inconsistent" when the Wald p-value falls below
    ``threshold``, "indeterminate" when the augmented fit did not converge
    or the statistic is not finite.
    The test is invariant to swapping the study labels: the S coefficients
    change sign, the p-value does not move.
    """
    require_member(a, "a", (0, 1))
    require_unit(threshold, "threshold")
    t = cell_table(d, outcome_kind)
    mask = model_cells(t, NAME_OF["pooled", "y", a])
    for s in (0, 1):
        if not np.any(mask & (t.s == s)):
            raise DegenerateFitError(
                f"restriction test: no rows with treatment {a} in study s={s}"
            )

    # The design [1, x, s, x * s] of the arm's cells, built in place.
    s = np.compress(mask, t.s).astype(float)
    n_base = 1 + t.k
    names = ["S"] + ([f"S:{c}" for c in t.covariate_names] if include_interactions else [])
    design = np.empty((s.size, n_base + len(names)))
    design[:, 0] = 1.0
    x = np.compress(mask, t.x, axis=0, out=design[:, 1:n_base])
    design[:, n_base] = s
    if include_interactions:
        np.multiply(x, s[:, None], out=design[:, n_base + 1 :])

    labels = None if outcome_kind == "continuous" else t.y_mean
    model = only(*fit_cells(t, mask, design, labels, f"restriction test arm {a}", ridge))
    converged = not isinstance(model, LogisticModel) or model.converged
    idx = np.arange(n_base, design.shape[1])
    b = model.coefficients[idx]
    try:
        sub = coefficient_covariance(model, design, np.compress(mask, t.count[0]))[np.ix_(idx, idx)]
        statistic = float(b @ np.linalg.solve(sub, b))
    except np.linalg.LinAlgError:  # a singular information matrix
        statistic = float("nan")
    df = idx.size
    p_value = chi2_sf(df, statistic) if np.isfinite(statistic) else float("nan")

    if not converged or not np.isfinite(p_value):
        status = STATUS_INDETERMINATE
    elif p_value < threshold:
        status = STATUS_INCONSISTENT
    else:
        status = STATUS_CONSISTENT

    test = TestResult(
        statistic=statistic,
        p_value=p_value,
        null=f"study adds no mean shift in arm {a} given covariates",
        df=df,
    )
    return RestrictionResult(
        arm=a,
        test=test,
        s_terms={name: float(v) for name, v in zip(names, b)},
        status=status,
        threshold=threshold,
        include_interactions=include_interactions,
    )


@dataclass(frozen=True)
class QuantileSummary:
    min: float
    p1: float
    p5: float
    median: float
    p95: float
    p99: float
    max: float


_QUANTILES = [0.0, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0]
_ROWS_SHOWN = 50


@dataclass(frozen=True)
class WeightDiagnostic:
    n_weighted: int
    count_above: int
    max_weight: float
    rows_above: tuple[int, ...]  # the first _ROWS_SHOWN row indices


@dataclass(frozen=True)
class OverlapReport:
    probabilities: dict[str, QuantileSummary]
    weights: dict[str, WeightDiagnostic]
    weight_threshold: float
    max_weight: float


def overlap_summary(
    d: Dataset, nu: NuisanceSet, weight_threshold: float = 10.0
) -> OverlapReport:
    """Distribution of fitted probabilities and of each estimator's weights
    over the dataset's rows, taken per cell of its cell table, with each cell
    counted by its rows, from the predictions the estimators read (on_cells) and weights.

    Weight families are keyed by estimator and arm: "phi(a)" uses
    1 / e_a on emulation arm-a rows, "chi(a)" the participation odds over
    the trial propensity on trial arm-a rows, "psi(a)" the pooled-propensity
    weights (1 - p) / e_a on all arm-a rows. ``rows_above`` holds the first
    rows above the threshold, in row order.
    """
    require_positive(weight_threshold, "weight_threshold")
    t = cell_table(d, nu.outcome_kind)
    count = t.count[0]
    pred = predictions(t, nu, ESTIMATOR_NAMES, ())  # the probability models alone
    probabilities = {}
    for model, prob in pred.items():
        counted = np.where(model_cells(t, model), count, 0.0)
        qs = linear_quantiles(prob, _QUANTILES, counted)
        require_finite(qs, f"overlap: a {model} probability quantile")
        probabilities[model] = QuantileSummary(*qs.tolist())

    weights: dict[str, WeightDiagnostic] = {}
    for arm in (0, 1):
        for name in ESTIMATOR_NAMES:
            weighted, _, _, w = aipw_weighting(t, pred, name, arm)
            rows = t.rows_of(weighted & (w > weight_threshold))
            largest = float(np.where(weighted, w, 0.0).max())  # weights are > 0
            require_finite(largest, f"overlap: {name}({arm}) maximum weight")
            weights[f"{name}({arm})"] = WeightDiagnostic(
                n_weighted=int(count @ weighted),
                count_above=int(rows.size),
                max_weight=largest,
                rows_above=tuple(int(i) for i in rows[:_ROWS_SHOWN]),
            )

    return OverlapReport(
        probabilities=probabilities,
        weights=weights,
        weight_threshold=weight_threshold,
        max_weight=max(w.max_weight for w in weights.values()),
    )
