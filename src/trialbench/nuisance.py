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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import CellTable, Dataset
from .errors import ConfigError, DegenerateFitError, DomainError, FitError
from .glm import LinearModel, LogisticModel, Model, add_intercept, fit_linear, fit_logistic

OUTCOME_KINDS = ("continuous", "binary")
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
    covariate order (dropped covariates appear as zero slopes).
    """

    participation: LogisticModel
    propensity: Mapping[str, LogisticModel]
    outcome: Mapping[tuple[str, int], Model]
    outcome_kind: str
    covariate_names: tuple[str, ...]
    dropped: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

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
            if isinstance(model, LogisticModel):
                entry.update(
                    converged=model.converged,
                    iterations=model.iterations,
                    log_likelihood=model.log_likelihood,
                )
            else:
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


def _design_for(
    x: np.ndarray, covariate_names: tuple[str, ...], dropped: tuple[str, ...]
) -> tuple[np.ndarray, list[int]]:
    keep = [j for j, name in enumerate(covariate_names) if name not in dropped]
    return add_intercept(x[:, keep]), keep


def _embed(model: Model, keep: list[int], k: int) -> Model:
    """Re-express a reduced-design fit with full covariate arity (zero slopes)."""
    if len(keep) == k:
        return model
    coef = np.zeros(k + 1)
    coef[0] = model.coefficients[0]
    for pos, j in enumerate(keep):
        coef[j + 1] = model.coefficients[pos + 1]
    if isinstance(model, LogisticModel):
        return LogisticModel(
            coefficients=coef,
            converged=model.converged,
            iterations=model.iterations,
            log_likelihood=model.log_likelihood,
            loglik_trace=model.loglik_trace,
        )
    return LinearModel(coefficients=coef, residual_variance=model.residual_variance)


def fit_nuisances(
    d: Dataset | CellTable,
    outcome_kind: str,
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
    ridge: float = 0.0,
    drop: Mapping[str, Sequence[str]] | Sequence[str] | None = None,
) -> NuisanceSet:
    """Fit the full nuisance bundle on one dataset, or on a table of its cells.

    Every model is fitted on the dataset's cell table (Dataset.cells), each
    cell weighted by its count, which gives the fit on the rows themselves.
    Raises the underlying fit error with the model's name (and treatment
    arm, for outcome models) prefixed, so callers can see exactly which
    nuisance failed. ``ridge`` > 0 enables the slope-only fallback penalty
    for every logistic fit.
    """
    if outcome_kind not in OUTCOME_KINDS:
        raise ConfigError(
            f"outcome_kind must be one of {OUTCOME_KINDS}, got {outcome_kind!r}"
        )
    t = d if isinstance(d, CellTable) else d.cells(outcome_kind == "binary")
    occupied = t.count > 0
    y = t.y_mean
    if outcome_kind == "binary" and not np.all((y[occupied] == 0.0) | (y[occupied] == 1.0)):
        raise DomainError("outcome_kind is 'binary' but the outcome has values outside {0,1}")

    dropped = normalize_drop(drop, t.covariate_names)
    everyone = np.ones(t.count.size, dtype=bool)
    s0 = t.s == 0
    s1 = t.s == 1

    def logistic(name: str, mask: np.ndarray, labels: np.ndarray, tag: str) -> LogisticModel:
        design, keep = _design_for(t.x[mask], t.covariate_names, dropped.get(name, ()))
        try:
            model = fit_logistic(
                design, labels[mask], max_iter=max_iter, tol=tol, ridge=ridge,
                weights=t.count[mask],
            )
        except FitError as exc:
            raise type(exc)(f"{tag}: {exc}") from exc
        except ValueError as exc:
            raise DegenerateFitError(f"{tag}: {exc}") from exc
        return _embed(model, keep, t.k)

    participation = logistic("participation", everyone, t.s.astype(float), "participation")
    treated = t.a.astype(float)
    propensity = {
        "s0": logistic("propensity_s0", s0, treated, "propensity_s0"),
        "s1": logistic("propensity_s1", s1, treated, "propensity_s1"),
        "pooled": logistic("propensity_pooled", everyone, treated, "propensity_pooled"),
    }

    outcome: dict[tuple[str, int], Model] = {}
    stratum_masks = {"s0": s0, "s1": s1, "pooled": everyone}
    for stratum, base in stratum_masks.items():
        name = f"outcome_{stratum}"
        for arm in (0, 1):
            mask = base & (t.a == arm)
            tag = f"{name} arm {arm}"
            if not np.any(mask & occupied):
                raise DegenerateFitError(f"{tag}: no rows in this stratum")
            design, keep = _design_for(t.x[mask], t.covariate_names, dropped.get(name, ()))
            count = t.count[mask]
            try:
                if outcome_kind == "continuous":
                    model: Model = fit_linear(design, y[mask], weights=count)
                    df = float(np.sum(count)) - design.shape[1]
                    if df > 0:
                        # The fit sees cell means; the spread of the rows
                        # about their cell mean belongs in the RSS too.
                        model = LinearModel(
                            coefficients=model.coefficients,
                            residual_variance=model.residual_variance
                            + float(np.sum(t.y_ss[mask])) / df,
                        )
                else:
                    model = fit_logistic(
                        design, y[mask], max_iter=max_iter, tol=tol, ridge=ridge,
                        weights=count,
                    )
            except FitError as exc:
                raise type(exc)(f"{tag}: {exc}") from exc
            except ValueError as exc:
                raise DegenerateFitError(f"{tag}: {exc}") from exc
            outcome[(stratum, arm)] = _embed(model, keep, t.k)

    return NuisanceSet(
        participation=participation,
        propensity=propensity,
        outcome=outcome,
        outcome_kind=outcome_kind,
        covariate_names=t.covariate_names,
        dropped=dropped,
    )
