"""Nuisance-model bundle: participation, propensities, outcome regressions.

One call fits everything the three benchmark estimators may need:

* participation: Pr[s = 1 | x] on the composite sample. With separately
  sampled studies this is a design quantity, only ever used through the
  odds (1 - p) / p, which is why no estimator here needs Pr[s = 1] itself.
* treatment propensity within each study and pooled: Pr[a = 1 | x, ...].
* outcome regressions per treatment arm, fitted on emulation rows, trial
  rows, and the pooled sample.

All models are main-effects GLMs on the dataset's covariates: logistic for
probabilities and for binary outcomes, linear for continuous outcomes.
``drop`` removes named covariates from named models before fitting, which
is how the simulation study breaks one nuisance at a time; the returned
coefficient vectors keep the full covariate arity with zeros in the
omitted slots so predictions stay uniform downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .data import CellTable, Dataset, cell_table
from .errors import ConfigError, DegenerateFitError, FitError, record, require_finite
from .glm import (
    LogisticModel,
    Model,
    add_intercept,
    fit_linear_stack,
    fit_logistic_stack,
)

STRATA = ("s0", "s1", "pooled")
MODEL_NAMES = (
    "participation",
    "propensity_s0",
    "propensity_s1",
    "propensity_pooled",
    "outcome_s0",
    "outcome_s1",
    "outcome_pooled",
)


@dataclass(frozen=True)
class NuisanceSet:
    """Every fitted nuisance model for one dataset.

    ``propensity`` maps stratum name to the Pr[a = 1 | ...] model;
    ``outcome`` maps (stratum, arm) to the arm-specific outcome regression.
    Coefficient vectors all have length k + 1 against the dataset's
    covariate order (dropped covariates appear as zero slopes). Fitted on a
    reweighted table, every model is a stack of fits, one per weight vector.
    ``errors`` holds, per weight vector, the first error its fits raised, or
    None; a single set of fits has the one entry None.
    """

    participation: LogisticModel
    propensity: Mapping[str, LogisticModel]
    outcome: Mapping[tuple[str, int], Model]
    outcome_kind: str
    covariate_names: tuple[str, ...]
    dropped: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    errors: tuple[Exception | None, ...] = (None,)

    def only(self) -> "NuisanceSet":
        """The single fits of a stack of one; raises the first error they met."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return replace(
            self,
            participation=self.participation.row(0),
            propensity={s: m.row(0) for s, m in self.propensity.items()},
            outcome={key: m.row(0) for key, m in self.outcome.items()},
        )

    def participation_prob(self, x: np.ndarray) -> np.ndarray:
        return self.participation.predict(x)

    def treatment_prob(self, x: np.ndarray, arm: int, stratum: str) -> np.ndarray:
        """Pr[a = arm | x] under the stratum's propensity model."""
        _check_arm(arm)
        p1 = self.propensity[_check_stratum(stratum)].predict(x)
        return p1 if arm == 1 else 1.0 - p1

    def outcome_mean(self, x: np.ndarray, arm: int, stratum: str) -> np.ndarray:
        _check_arm(arm)
        return self.outcome[(_check_stratum(stratum), arm)].predict(x)

    def summaries(self) -> dict:
        """JSON-ready per-model summaries for reporting."""
        out: dict = {}
        named: list[tuple[str, Model]] = [("participation", self.participation)]
        named += [(f"propensity_{s}", self.propensity[s]) for s in STRATA]
        named += [
            (f"outcome_{s}_arm{a}", self.outcome[(s, a)])
            for s in STRATA
            for a in (0, 1)
        ]
        for name, model in named:
            entry: dict = {
                "coefficients": {
                    "intercept": float(model.coefficients[0]),
                    **{
                        cov: float(c)
                        for cov, c in zip(self.covariate_names, model.coefficients[1:])
                    },
                }
            }
            require_finite(model.coefficients, f"nuisance {name}: a coefficient")
            if isinstance(model, LogisticModel):
                require_finite(model.log_likelihood, f"nuisance {name}: log-likelihood")
                entry.update(
                    converged=model.converged,
                    iterations=model.iterations,
                    log_likelihood=model.log_likelihood,
                )
            else:
                require_finite(model.residual_variance, f"nuisance {name}: residual variance")
                entry.update(residual_variance=model.residual_variance)
            family = name.rsplit("_arm", 1)[0] if name.startswith("outcome") else name
            if self.dropped.get(family):
                entry["dropped_covariates"] = list(self.dropped[family])
            out[name] = entry
        return out


def _check_arm(arm: int) -> int:
    if arm not in (0, 1):
        raise ValueError(f"treatment arm must be 0 or 1, got {arm!r}")
    return arm


def _check_stratum(stratum: str) -> str:
    if stratum not in STRATA:
        raise ValueError(f"stratum must be one of {STRATA}, got {stratum!r}")
    return stratum


def normalize_drop(
    drop: Mapping[str, Sequence[str]] | Sequence[str] | None,
    covariate_names: tuple[str, ...],
) -> dict[str, tuple[str, ...]]:
    """Accept {model: [covariates]} or a bare list of model names.

    A bare model name drops the first covariate, the common single-break
    misspecification in the simulation grids.
    """
    if drop is None:
        return {}
    if not isinstance(drop, Mapping):
        drop = {name: (covariate_names[0],) for name in drop}
    normalized: dict[str, tuple[str, ...]] = {}
    for name, cols in drop.items():
        if name not in MODEL_NAMES:
            raise ConfigError(
                f"unknown nuisance model {name!r}; expected one of {MODEL_NAMES}"
            )
        cols = tuple(cols)
        unknown = [c for c in cols if c not in covariate_names]
        if unknown:
            raise ConfigError(
                f"cannot drop unknown covariate(s) {unknown} from {name}"
            )
        normalized[name] = cols
    return normalized


def fit_cells(
    t: CellTable,
    mask: np.ndarray,
    design: np.ndarray,
    labels: np.ndarray | None,
    tag: str,
    ridge: float = 0.0,
) -> tuple[Model, list]:
    """Fit one model on the cells ``mask`` of the table ``t``, once per weight
    vector (resample), each cell weighted by its count.

    Given ``labels`` (0/1, one per cell of ``t``, or one row of them per
    weight vector) the fit is logistic; without them it is the linear fit of
    the cell means, whose RSS also takes in the spread of the rows about
    their cell mean. Either way it is the fit on the rows. Returns the stack
    of fits and, per weight vector, the error its fit raised, or None; an
    error carries ``tag``, the model's name, as a prefix.
    """
    # np.compress, not a boolean subscript: the same cells, 4-9 times faster
    # at 20000 cells, and a row-major stack, so every row sums alike.
    count = np.compress(mask, t.count, axis=1)
    if labels is not None:
        labels = np.compress(mask, labels, axis=-1)
        model, errors = fit_logistic_stack(design, labels, count, ridge=ridge)
    else:
        model, errors = fit_linear_stack(design, np.compress(mask, t.y_mean, axis=1), count)
    if any(errors):
        errors = [e and _tagged(e, tag) for e in errors]
    if labels is not None:
        return model, errors
    df = count.sum(axis=1) - design.shape[1]
    y_ss = np.compress(mask, t.y_ss, axis=1).sum(axis=1)
    spread = np.divide(y_ss, df, out=np.zeros(df.size), where=df > 0)
    variance = model.residual_variance + spread
    finite = np.isfinite(variance)
    record(errors, ~finite, lambda r: FitError(f"{tag}: residual variance is not finite"))
    return replace(model, residual_variance=variance), errors


def _tagged(exc: Exception, tag: str) -> FitError:
    """A fit error with the model's name prefixed; a ValueError of the fit's
    input checks becomes a DegenerateFitError."""
    if isinstance(exc, FitError):
        return type(exc)(f"{tag}: {exc}")
    return DegenerateFitError(f"{tag}: {exc}")


def fit_nuisances(
    d: Dataset | CellTable,
    outcome_kind: str,
    *,
    ridge: float = 0.0,
    drop: Mapping[str, Sequence[str]] | Sequence[str] | None = None,
) -> NuisanceSet:
    """Fit the full nuisance bundle on one dataset, or on a table of its cells.

    Every model is fitted on the dataset's cell table by fit_cells, which
    gives the fit on the rows themselves and prefixes any fit error with the
    model's name (and treatment arm, for outcome models), so callers can see
    exactly which nuisance failed. ``ridge`` > 0 enables the slope-only
    fallback penalty for every logistic fit. The fits run as a stack of one
    and the first error raised is raised here. On a reweighted table every
    model is a stack of fits, one per weight vector, and a weight vector
    whose fits fail does not raise: ``errors`` keeps the first error it met.
    """
    t = cell_table(d, outcome_kind)
    occupied = t.count > 0
    y = t.y_mean
    dropped = normalize_drop(drop, t.covariate_names)
    masks = {"s0": t.s == 0, "s1": t.s == 1, "pooled": np.ones(t.s.size, dtype=bool)}
    errors = [None] * len(t.count)
    # Each model copies its cells' rows of this design once, row-major, so
    # the fit takes the copy as it is.
    full = add_intercept(t.x)

    def fit(name: str, mask: np.ndarray, labels: np.ndarray | None, tag: str) -> Model:
        gone = dropped.get(name, ())
        columns = [0] + [j + 1 for j, c in enumerate(t.covariate_names) if c not in gone]
        design = np.compress(mask, full, axis=0)
        if gone:
            design = np.take(design, columns, axis=1)
        model, failed = fit_cells(t, mask, design, labels, tag, ridge)
        if any(failed):
            errors[:] = [e or f for e, f in zip(errors, failed)]
        if not gone:
            return model
        coef = np.zeros((len(errors), t.k + 1))
        coef[:, columns] = model.coefficients
        return replace(model, coefficients=coef)

    participation = fit("participation", masks["pooled"], t.s.astype(float), "participation")
    propensity = {
        stratum: fit(f"propensity_{stratum}", mask, t.a.astype(float), f"propensity_{stratum}")
        for stratum, mask in masks.items()
    }

    outcome: dict[tuple[str, int], Model] = {}
    labels = y if outcome_kind == "binary" else None
    for stratum, base in masks.items():
        for arm in (0, 1):
            mask = base & (t.a == arm)
            tag = f"outcome_{stratum} arm {arm}"
            empty = ~np.any(mask & occupied, axis=1)
            record(errors, empty, lambda r: DegenerateFitError(f"{tag}: no rows in this stratum"))
            outcome[(stratum, arm)] = fit(f"outcome_{stratum}", mask, labels, tag)

    nu = NuisanceSet(
        participation=participation,
        propensity=propensity,
        outcome=outcome,
        outcome_kind=outcome_kind,
        covariate_names=t.covariate_names,
        dropped=dropped,
        errors=tuple(errors),
    )
    return nu if t.reweighted else nu.only()
