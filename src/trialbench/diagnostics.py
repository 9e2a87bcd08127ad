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
from .errors import DegenerateFitError
from .estimators import ESTIMATOR_NAMES, aipw_weighting
from .glm import LogisticModel, add_intercept, coefficient_covariance, only
from .inference import TestResult, linear_quantiles
from .nuisance import NuisanceSet, fit_cells

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
    if a not in (0, 1):
        raise ValueError(f"treatment arm must be 0 or 1, got {a!r}")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be inside (0, 1), got {threshold!r}")
    t = cell_table(d, outcome_kind)
    mask = t.a == a
    for s in (0, 1):
        if not np.any(mask & (t.s == s)):
            raise DegenerateFitError(
                f"restriction test: no rows with treatment {a} in study s={s}"
            )

    x = t.x[mask]
    s_col = t.s[mask].astype(float)[:, None]
    blocks = [add_intercept(x), s_col]
    names = ["S"]
    if include_interactions:
        blocks.append(x * s_col)
        names += [f"S:{c}" for c in t.covariate_names]
    design = np.hstack(blocks)
    n_base = 1 + t.k

    labels = None if outcome_kind == "continuous" else t.y_mean
    model = only(*fit_cells(t.stacked(), mask, design, labels, f"restriction test arm {a}", ridge))
    converged = not isinstance(model, LogisticModel) or model.converged
    idx = np.arange(n_base, design.shape[1])
    b = model.coefficients[idx]
    try:
        sub = coefficient_covariance(model, design, t.count[mask])[np.ix_(idx, idx)]
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

    @classmethod
    def of(cls, values: np.ndarray) -> "QuantileSummary":
        qs = linear_quantiles(values, [0.0, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0])
        return cls(*[float(v) for v in qs])


_ROWS_SHOWN = 50


@dataclass(frozen=True)
class WeightDiagnostic:
    n_weighted: int
    count_above: int
    max_weight: float
    rows_above: tuple[int, ...]  # capped at _ROWS_SHOWN row indices


@dataclass(frozen=True)
class OverlapReport:
    probabilities: dict[str, QuantileSummary]
    weights: dict[str, WeightDiagnostic]
    weight_threshold: float
    max_weight: float


def _weight_diagnostic(
    weights: np.ndarray, rows: np.ndarray, threshold: float
) -> WeightDiagnostic:
    above = rows[weights > threshold]
    return WeightDiagnostic(
        n_weighted=int(rows.size),
        count_above=int(above.size),
        max_weight=float(np.max(weights)) if weights.size else 0.0,
        rows_above=tuple(int(i) for i in above[:_ROWS_SHOWN]),
    )


def overlap_summary(
    d: Dataset, nu: NuisanceSet, weight_threshold: float = 10.0
) -> OverlapReport:
    """Distribution of fitted probabilities and of each estimator's weights.

    Weight families are keyed by estimator and arm: "phi(a)" uses
    1 / e_a on emulation arm-a rows, "chi(a)" the participation odds over
    the trial propensity on trial arm-a rows, "psi(a)" the pooled-propensity
    weights (1 - p) / e_a on all arm-a rows.
    """
    if weight_threshold <= 0.0:
        raise ValueError("weight threshold must be positive")
    s0 = d.s == 0
    s1 = d.s == 1
    p = nu.participation_prob(d.x)

    probabilities = {
        "participation": QuantileSummary.of(p),
        "propensity_s0": QuantileSummary.of(nu.treatment_prob(d.x[s0], 1, "s0")),
        "propensity_s1": QuantileSummary.of(nu.treatment_prob(d.x[s1], 1, "s1")),
        "propensity_pooled": QuantileSummary.of(nu.treatment_prob(d.x, 1, "pooled")),
    }

    weights: dict[str, WeightDiagnostic] = {}
    for arm in (0, 1):
        for name in ESTIMATOR_NAMES:
            stratum, weighted, weight = aipw_weighting(name, arm, d.s, d.a)
            rows = np.flatnonzero(weighted)
            w = weight(nu.treatment_prob(d.x[rows], arm, stratum), p[rows])
            weights[f"{name}({arm})"] = _weight_diagnostic(w, rows, weight_threshold)

    return OverlapReport(
        probabilities=probabilities,
        weights=weights,
        weight_threshold=weight_threshold,
        max_weight=max(w.max_weight for w in weights.values()),
    )
