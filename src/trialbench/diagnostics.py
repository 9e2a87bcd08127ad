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

from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import Dataset
from .errors import DegenerateFitError
from .glm import (
    LogisticModel,
    add_intercept,
    coefficient_covariance,
    fit_linear,
    fit_logistic,
)
from .inference import TestResult
from .nuisance import NuisanceSet

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

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "test": self.test.to_dict(),
            "s_terms": dict(self.s_terms),
            "status": self.status,
            "threshold": self.threshold,
            "include_interactions": self.include_interactions,
        }


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
    ``include_interactions`` is set. The result's status is "inconsistent"
    when the Wald p-value falls below ``threshold``, "indeterminate" when
    the augmented fit did not converge or the statistic is not finite.
    The test is invariant to swapping the study labels: the S coefficients
    change sign, the p-value does not move.
    """
    if a not in (0, 1):
        raise ValueError(f"treatment arm must be 0 or 1, got {a!r}")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be inside (0, 1), got {threshold!r}")
    mask = d.a == a
    for s in (0, 1):
        if not np.any(mask & (d.s == s)):
            raise DegenerateFitError(
                f"restriction test: no rows with treatment {a} in study s={s}"
            )

    x = d.x[mask]
    s_col = d.s[mask].astype(float)[:, None]
    blocks = [add_intercept(x), s_col]
    names = ["S"]
    if include_interactions:
        blocks.append(x * s_col)
        names += [f"S:{c}" for c in d.covariate_names]
    design = np.hstack(blocks)
    n_base = 1 + d.k

    converged = True
    if outcome_kind == "continuous":
        model = fit_linear(design, d.y[mask])
    else:
        logit = fit_logistic(design, d.y[mask], ridge=ridge)
        converged = logit.converged
        model = logit

    cov = coefficient_covariance(model, design)
    idx = np.arange(n_base, design.shape[1])
    b = model.coefficients[idx]
    sub = cov[np.ix_(idx, idx)]
    try:
        statistic = float(b @ np.linalg.solve(sub, b))
    except np.linalg.LinAlgError:
        statistic = float("nan")
    df = idx.size
    p_value = float(special.chdtrc(df, statistic)) if np.isfinite(statistic) else float("nan")

    if not converged or not np.isfinite(p_value):
        status = STATUS_INDETERMINATE
    elif p_value < threshold:
        status = STATUS_INCONSISTENT
    else:
        status = STATUS_CONSISTENT

    test = TestResult(
        statistic=statistic,
        p_value=p_value,
        null_description=f"study adds no mean shift in arm {a} given covariates",
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
        qs = np.quantile(values, [0.0, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0])
        return cls(*[float(v) for v in qs])

    def to_dict(self) -> dict:
        return {
            "min": self.min,
            "p1": self.p1,
            "p5": self.p5,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


_ROWS_SHOWN = 50


@dataclass(frozen=True)
class WeightDiagnostic:
    n_weighted: int
    count_above: int
    max_weight: float
    rows_above: tuple[int, ...]  # capped at _ROWS_SHOWN row indices

    def to_dict(self) -> dict:
        return {
            "n_weighted": self.n_weighted,
            "count_above": self.count_above,
            "max_weight": self.max_weight,
            "rows_above": list(self.rows_above),
        }


@dataclass(frozen=True)
class OverlapReport:
    probabilities: dict[str, QuantileSummary]
    weights: dict[str, WeightDiagnostic]
    weight_threshold: float
    max_weight: float

    def to_dict(self) -> dict:
        return {
            "probabilities": {k: v.to_dict() for k, v in self.probabilities.items()},
            "weights": {k: v.to_dict() for k, v in self.weights.items()},
            "weight_threshold": self.weight_threshold,
            "max_weight": self.max_weight,
        }


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
        at_a = d.a == arm
        rows_phi = np.flatnonzero(s0 & at_a)
        w_phi = 1.0 / nu.treatment_prob(d.x[rows_phi], arm, "s0")
        weights[f"phi({arm})"] = _weight_diagnostic(w_phi, rows_phi, weight_threshold)

        rows_chi = np.flatnonzero(s1 & at_a)
        p_chi = p[rows_chi]
        w_chi = (1.0 - p_chi) / p_chi / nu.treatment_prob(d.x[rows_chi], arm, "s1")
        weights[f"chi({arm})"] = _weight_diagnostic(w_chi, rows_chi, weight_threshold)

        rows_psi = np.flatnonzero(at_a)
        w_psi = (1.0 - p[rows_psi]) / nu.treatment_prob(d.x[rows_psi], arm, "pooled")
        weights[f"psi({arm})"] = _weight_diagnostic(w_psi, rows_psi, weight_threshold)

    return OverlapReport(
        probabilities=probabilities,
        weights=weights,
        weight_threshold=weight_threshold,
        max_weight=max(w.max_weight for w in weights.values()),
    )
