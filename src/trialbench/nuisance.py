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
from .errors import (
    ConfigError,
    DegenerateFitError,
    FitError,
    record,
    require_finite,
)
from .glm import (
    LogisticModel,
    Model,
    add_intercept,
    fit_linear_stack,
    fit_logistic_stack,
)

STRATA = ("s0", "s1", "pooled")
# The ten nuisance models by their names in the report, in fit order: each
# one's ``drop`` family, the stratum it is fitted on, the column it predicts
# (s, a or y) and its treatment arm (None but for an outcome model).
MODELS = {
    "participation": ("participation", "pooled", "s", None),
    **{f"propensity_{s}": (f"propensity_{s}", s, "a", None) for s in STRATA},
    **{f"outcome_{s}_arm{a}": (f"outcome_{s}", s, "y", a) for s in STRATA for a in (0, 1)},
}
# Each model's name by what it predicts: (stratum, column, arm).
NAME_OF = {spec[1:]: name for name, spec in MODELS.items()}
MODEL_NAMES = tuple(dict.fromkeys(family for family, *_ in MODELS.values()))


def model_cells(t: CellTable, name: str) -> np.ndarray:
    """The mask of the cells of ``t`` that the model ``name`` of MODELS is
    fitted on: its stratum's, those of the emulation (s = 0), of the trial
    (s = 1) or, pooled, every cell; for an outcome model, only its arm's."""
    _, stratum, _, arm = MODELS[name]
    study = {"s0": 0, "s1": 1}.get(stratum)
    cells = np.ones(t.s.size, dtype=bool) if study is None else t.s == study
    return cells if arm is None else cells & (t.a == arm)


@dataclass(frozen=True)
class NuisanceSet:
    """Every fitted nuisance model for one dataset.

    ``models`` maps each name of MODELS to its fitted model, in MODELS'
    order. Coefficient vectors all have length k + 1 against the dataset's
    covariate order (dropped covariates appear as zero slopes). Fitted on a
    reweighted table, every model is a stack of fits, one per weight vector.
    ``errors`` holds, per weight vector, the first error its fits raised, or
    None; a single set of fits has the one entry None.
    """

    models: Mapping[str, Model]
    outcome_kind: str
    covariate_names: tuple[str, ...]
    dropped: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    errors: tuple[Exception | None, ...] = (None,)

    def only(self) -> "NuisanceSet":
        """The single fits of a stack of one; raises the first error they met."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return replace(self, models={name: m.row(0) for name, m in self.models.items()})

    def on_cells(self, t: CellTable, names: Sequence[str]) -> dict[str, np.ndarray]:
        """The models ``names`` predicted on the cells of ``t``, keyed by name.
        Each is predicted at most once per table: the set keeps its
        predictions, as Dataset.cells keeps the table."""
        cache = self.__dict__.setdefault("_on_cells", {})
        predicted = cache.setdefault(id(t), (t, {}))[1]  # holds t, so no table reuses its id
        for name in names:
            if name not in predicted:
                predicted[name] = self.models[name].predict(t.x)
        return {name: predicted[name] for name in names}

    def summaries(self) -> dict:
        """JSON-ready per-model summaries for reporting."""
        out: dict = {}
        for name, model in self.models.items():
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
            family = MODELS[name][0]
            if self.dropped.get(family):
                entry["dropped_covariates"] = list(self.dropped[family])
            out[name] = entry
        return out


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
    dropped = normalize_drop(drop, t.covariate_names)
    y = t.y_mean if outcome_kind == "binary" else None  # a linear fit takes no labels
    labels = {"s": t.s.astype(float), "a": t.a.astype(float), "y": y}
    errors = [None] * len(t.count)
    # Each model copies its cells' rows of this design once, row-major, so
    # the fit takes the copy as it is.
    full = add_intercept(t.x)
    models: dict[str, Model] = {}
    for name, (family, _, column, arm) in MODELS.items():
        mask, tag = model_cells(t, name), name
        if arm is not None:
            tag = f"{family} arm {arm}"
            empty = ~np.any(mask & occupied, axis=1)
            record(errors, empty, lambda r: DegenerateFitError(f"{tag}: no rows in this stratum"))
        gone = dropped.get(family, ())
        columns = [0] + [j + 1 for j, c in enumerate(t.covariate_names) if c not in gone]
        design = np.compress(mask, full, axis=0)
        if gone:
            design = np.take(design, columns, axis=1)
        model, failed = fit_cells(t, mask, design, labels[column], tag, ridge)
        if any(failed):
            errors = [e or f for e, f in zip(errors, failed)]
        if gone:
            coef = np.zeros((len(errors), t.k + 1))
            coef[:, columns] = model.coefficients
            model = replace(model, coefficients=coef)
        models[name] = model

    nu = NuisanceSet(
        models=models,
        outcome_kind=outcome_kind,
        covariate_names=t.covariate_names,
        dropped=dropped,
        errors=tuple(errors),
    )
    return nu if t.reweighted else nu.only()
