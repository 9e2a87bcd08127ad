"""Doubly robust estimators of potential-outcome means in the emulation.

All three estimands are means of the potential outcome under treatment
``a`` over the emulation population (rows with s = 0); they differ in
which data carry the outcome information:

* ``estimate_phi``: emulation data only. Outcome regression fitted on
  emulation rows plus an inverse-propensity residual correction. Consistent
  when either the emulation outcome model or the emulation propensity is
  correct, granted no unmeasured confounding in the emulation.
* ``estimate_chi``: trial outcomes transported to the emulation
  population. Trial outcome regression standardized over emulation
  covariates, corrected by trial residuals reweighted with participation
  odds. Consistent when either the trial outcome model or the
  participation model is correct, granted outcome means transport across
  studies given covariates.
* ``estimate_psi``: pooled analysis using both studies' outcomes, valid
  only when both of the above identification routes hold; in exchange its
  influence function has no larger variance than either single-source
  estimator.

Each estimator returns its value along with its influence values, whose
mean over all n rows is zero by construction; the plug-in variance of the
value is the sample variance of those values divided by n. They are held
per cell, as a linear function of the outcome, and expanded to rows only
on demand. Influence values treat fitted nuisances as fixed, the usual
first-order approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import OUTCOME_KINDS, CellTable, Dataset, cell_table
from .errors import IncompatibleEstimatesError, PositivityError, record
from .glm import check_ridge
from .nuisance import NuisanceSet, fit_nuisances

PROPENSITY_FLOOR = 1e-10
ESTIMATOR_NAMES = ("phi", "chi", "psi")


@dataclass(frozen=True)
class EstimateWithIF:
    """A point estimate bundled with its influence values, held per cell.

    Within cell j of ``table`` every row's influence value is
    ``alpha[j] * y + beta[j]``, y the row's outcome; ``if_values`` expands
    them to one per dataset row. ``n_effective`` is the emulation-sample
    count the functional standardizes over; contrasts carry the smaller of
    their parents'. Construction checks that the estimate is finite and
    that the influence values average to zero within ``tolerance``,
    1e-8 (1 + |value|); a contrast's is the sum of its parents', which
    ``contrast`` passes as the private ``_budget``.

    On a reweighted cell table (see CellTable.resample) the estimate is one per
    weight vector: every field but ``label`` and ``table`` has a leading
    axis, and ``errors`` holds per weight vector the first error its
    analysis met, or None. A failed check is then recorded there instead of
    raised. A single estimate has ``errors`` None and raises.
    """

    label: str
    value: float | np.ndarray
    table: CellTable
    alpha: np.ndarray
    beta: np.ndarray
    n_effective: int | np.ndarray
    _budget: float | np.ndarray = field(default=0.0, repr=False, compare=False)
    errors: list | None = field(default=None, repr=False, compare=False)
    tolerance: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        stacked = self.errors is not None
        if not stacked:
            object.__setattr__(self, "value", float(self.value))
            object.__setattr__(self, "n_effective", int(self.n_effective))
        # A parents' budget never falls below the estimate's own.
        tolerance = np.maximum(_tolerance(self.value), self._budget)
        object.__setattr__(self, "tolerance", tolerance if stacked else float(tolerance))
        errors = self.errors if stacked else [None]
        t = self.table
        # A failed row may hold non-finite values; its slot is already filled.
        with np.errstate(over="ignore", invalid="ignore"):
            center = np.atleast_1d(_center(self.alpha, self.beta, t.count, t.y_sum))
        record(errors, ~np.isfinite(np.atleast_1d(self.value)), lambda r: _not_finite(self.label))
        record(errors, center > self.tolerance, lambda r: _off_center(self.label, center[r]))
        if not stacked and errors[0] is not None:
            raise errors[0]

    @property
    def if_values(self) -> np.ndarray:
        """Influence value of each dataset row (0 where a row cannot contribute)."""
        inverse = self.table.inverse
        return self.alpha[inverse] * self.table.y_rows + self.beta[inverse]

    def only(self, table: CellTable) -> EstimateWithIF:
        """The single estimate of a stack of one, on ``table``, a dataset's
        own cell table; raises the error it met instead."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return EstimateWithIF(
            label=self.label,
            value=self.value[0],
            table=table,
            alpha=self.alpha[0],
            beta=self.beta[0],
            n_effective=self.n_effective[0],
            _budget=self.tolerance[0],
        )


def _center(
    alpha: np.ndarray, beta: np.ndarray, count: np.ndarray, y_sum: np.ndarray
) -> np.ndarray:
    """|mean influence value| of an estimate, or of each row of a stack."""
    return np.abs(np.vecdot(alpha, y_sum) + np.vecdot(beta, count)) / count.sum(axis=-1)


def _tolerance(value: np.ndarray) -> np.ndarray:
    """How far from zero the mean influence value of an estimate may lie."""
    return 1e-8 * (1.0 + np.abs(value))


def _not_finite(label: str) -> ValueError:
    return ValueError(f"{label}: estimate is not finite")


def _off_center(label: str, center: float) -> ValueError:
    return ValueError(f"{label}: influence values are off-center by {center:.3e}")


def _positivity_check(
    t: CellTable, prob: np.ndarray, mask: np.ndarray, what: str, errors: list
) -> None:
    bad_cells = mask & (prob < PROPENSITY_FLOOR)
    if not bad_cells.any():
        return

    def error(r: int) -> PositivityError:
        bad = t.rows_of(bad_cells[r], r)
        shown = ", ".join(str(int(i)) for i in bad[:20])
        suffix = "" if bad.size <= 20 else f" (and {bad.size - 20} more)"
        return PositivityError(
            f"{what} below {PROPENSITY_FLOOR:g} on {bad.size} weighted row(s): "
            f"rows [{shown}]{suffix}"
        )

    record(errors, np.any(bad_cells, axis=1), error)


# Per estimator: the stratum of its outcome and propensity models (its
# weighted cells are that stratum's cells at the arm), the propensity's name in
# error messages, and the weight from the propensity e and participation p.
_AIPW = {
    "phi": ("s0", "emulation propensity", lambda e, p: 1.0 / e),
    "chi": ("s1", "trial propensity", lambda e, p: (1.0 - p) / p / e),
    "psi": ("pooled", "pooled propensity", lambda e, p: (1.0 - p) / e),
}


def predictions(t: CellTable, nu: NuisanceSet, names: Sequence[str], arms: Sequence[int]) -> dict:
    """Each model the estimators ``names`` read, predicted once on the cells of
    ``t`` and keyed by its name: "propensity_<stratum>" (of a = 1), the
    "participation" unless phi alone is named, and by (stratum, arm) the
    outcome means at ``arms``."""
    strata = [_AIPW[name][0] for name in names]
    pred = {f"propensity_{s}": nu.treatment_prob(t.x, 1, s) for s in strata}
    pred |= {(s, a): nu.outcome_mean(t.x, a, s) for s in strata for a in arms}
    if set(names) != {"phi"}:
        pred["participation"] = nu.participation_prob(t.x)
    return pred


def aipw_weighting(
    t: CellTable, pred: dict, name: str, a: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Estimator ``name`` at arm ``a`` on the cells of ``t``, from their
    predictions ``pred``: the mask of its weighted cells, the propensity e
    of arm a and the participation p (None when not predicted), and its
    weight w(e, p) in every cell; phi's weight does not read p."""
    stratum, _, weight = _AIPW[name]
    in_stratum = {"s0": t.s == 0, "s1": t.s == 1, "pooled": True}[stratum]
    e1 = pred[f"propensity_{stratum}"]
    e = e1 if a == 1 else 1.0 - e1
    p = pred.get("participation")
    # The weight can overflow off the weighted cells, where it is not used.
    with np.errstate(over="ignore"):
        return in_stratum & (t.a == a), e, p, weight(e, p)


def _estimate(
    t: CellTable, pred: dict, errors: Sequence, name: str, a: int, hajek: bool
) -> EstimateWithIF:
    """One AIPW estimate per weight vector of the table ``t``, with its
    influence values, from the predictions ``pred`` on its cells.

    value = (sum over s=0 rows of g + sum over weighted rows of w (y - g)) / n0,
    each row counted with its weight, g and w per cell; w is 0 off the
    weighted rows. phi, chi and psi differ only in the entries of _AIPW. A
    row's influence value is (n/n0) [w (y - g) + (g - value) 1{s=0}].
    Every weight vector gets its own estimate, row by row; those whose
    nuisance fits failed (``errors``) are carried along as failed.
    """
    weighted, e, p, weight = aipw_weighting(t, pred, name, a)
    g = pred[_AIPW[name][0], a]
    s0 = t.s == 0
    count, y_sum = t.count, t.y_sum
    in_s0 = s0.astype(float)
    n0 = np.vecdot(count, in_s0)
    errors = list(errors)
    live = weighted & (count > 0)
    if name == "chi":
        _positivity_check(t, p, live, f"chi({a}): participation probability", errors)
    _positivity_check(t, e, live, f"{name}({a}): {_AIPW[name][1]} for arm {a}", errors)
    if any(errors):
        live &= np.array([err is None for err in errors])[:, None]
    w = np.where(live, weight, 0.0)
    if hajek:
        total = np.vecdot(count, w)
        record(
            errors,
            total <= 0.0,
            lambda r: PositivityError(
                "renormalization impossible: weighted rows have zero total weight"
            ),
        )
        w *= (n0 / np.where(total > 0.0, total, n0))[:, None]

    fitted = count * g
    value = (np.vecdot(fitted, in_s0) + np.vecdot(w, y_sum - fitted)) / n0
    scale = (count.sum(axis=1) / n0)[:, None]
    return EstimateWithIF(
        label=f"{name}({a})",
        value=value,
        table=t,
        alpha=scale * w,
        beta=scale * (np.where(s0, g - value[:, None], 0.0) - w * g),
        n_effective=n0,
        errors=errors,
    )


def estimate_phi(
    d: Dataset, nu: NuisanceSet, a: int, *, hajek: bool = False
) -> EstimateWithIF:
    """Emulation-only doubly robust mean of the potential outcome under ``a``."""
    return _estimate_one(d, nu, "phi", a, hajek)


def estimate_chi(
    d: Dataset, nu: NuisanceSet, a: int, *, hajek: bool = False
) -> EstimateWithIF:
    """Trial-transported doubly robust mean of the potential outcome under ``a``."""
    return _estimate_one(d, nu, "chi", a, hajek)


def estimate_psi(
    d: Dataset, nu: NuisanceSet, a: int, *, hajek: bool = False
) -> EstimateWithIF:
    """Pooled-data doubly robust mean of the potential outcome under ``a``."""
    return _estimate_one(d, nu, "psi", a, hajek)


def _estimate_one(d: Dataset, nu: NuisanceSet, name: str, a: int, hajek: bool) -> EstimateWithIF:
    t = cell_table(d, nu.outcome_kind)
    return _estimate(t, predictions(t, nu, [name], [a]), nu.errors, name, a, hajek).only(t)


def contrast(
    e1: EstimateWithIF, e2: EstimateWithIF, label: str | None = None
) -> EstimateWithIF:
    """Difference e1 - e2 with the differenced influence values.

    Both estimates must come from the same cell table, and so from the
    same dataset. The mean of the differenced influence values may lie as
    far from zero as the parents' may together: its rounding error grows
    with the size of the parents, not of their difference. Of two stacks,
    each weight vector keeps the first error either parent met.
    """
    if e1.table is not e2.table:
        raise IncompatibleEstimatesError(
            f"cannot contrast {e1.label} with {e2.label}: they come from different datasets"
        )
    return EstimateWithIF(
        label=label or f"{e1.label} - {e2.label}",
        value=e1.value - e2.value,
        table=e1.table,
        alpha=e1.alpha - e2.alpha,
        beta=e1.beta - e2.beta,
        n_effective=np.minimum(e1.n_effective, e2.n_effective),
        _budget=e1.tolerance + e2.tolerance,
        errors=None if e1.errors is None else [f or g for f, g in zip(e1.errors, e2.errors)],
    )


@dataclass(frozen=True)
class AnalysisPlan:
    """What to estimate and how, shared by the point analysis, the bootstrap
    and the Monte Carlo replicates; the one check of these requests.

    ``estimators`` is a subset of {"phi", "chi", "psi"}; ``arms`` a subset
    of {0, 1}; ``outcome_kind`` one of data.OUTCOME_KINDS; ``ridge`` a
    finite number >= 0 (glm.check_ridge). A bad request raises a ValueError
    that names its key. ``contrasts`` says which contrasts the plan yields.
    """

    outcome_kind: str
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    arms: tuple[int, ...] = (0, 1)
    ridge: float = 0.0
    hajek: bool = False
    drop: Mapping[str, Sequence[str]] | Sequence[str] | None = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "arms", tuple(self.arms))
        names, arms = self.estimators, self.arms
        if not names or not set(names) <= set(ESTIMATOR_NAMES) or len(set(names)) != len(names):
            raise ValueError(
                f"'estimators' must be distinct names from {list(ESTIMATOR_NAMES)}, "
                f"got {list(names)}"
            )
        # A bool arm would equal 1 or 0 here yet label its estimates "phi(True)".
        bools = any(isinstance(a, bool) for a in arms)
        if not arms or bools or not set(arms) <= {0, 1} or len(set(arms)) != len(arms):
            raise ValueError(f"'arms' must be a subset of [0, 1] without repeats, got {list(arms)}")
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ValueError(
                f"'outcome_kind' must be one of {list(OUTCOME_KINDS)}, got {self.outcome_kind!r}"
            )
        check_ridge(self.ridge)

    def contrasts(self) -> dict[str, dict]:
        """Each contrast the plan yields, as (label, first, second), by kind:
        "ate" keyed by estimator, when both arms are requested, and "delta"
        (phi minus chi) keyed by arm, when both of those estimators are."""
        ate, delta = {}, {}
        if 0 in self.arms and 1 in self.arms:
            ate = {name: (f"ate_{name}", f"{name}(1)", f"{name}(0)") for name in self.estimators}
        if "phi" in self.estimators and "chi" in self.estimators:
            delta = {arm: (f"delta({arm})", f"phi({arm})", f"chi({arm})") for arm in self.arms}
        return {"ate": ate, "delta": delta}


def run_plan(d: Dataset, plan: AnalysisPlan) -> dict[str, EstimateWithIF]:
    """Fit nuisances and compute every quantity the plan asks for.

    Returns an ordered mapping: potential-outcome means keyed
    "phi(1)"-style, treatment effects "ate_phi"-style, and benchmarking
    deltas "delta(1)"-style.
    """
    nu = fit_nuisances(d, plan.outcome_kind, ridge=plan.ridge, drop=plan.drop)
    return run_plan_with(d, nu, plan)


def run_plan_with(
    d: Dataset | CellTable, nu: NuisanceSet, plan: AnalysisPlan
) -> dict[str, EstimateWithIF]:
    """Same as run_plan but on an already fitted nuisance bundle.

    Each model the plan's estimates read, and no other, is predicted once on
    the table's cells (predictions), and every estimate reads those
    predictions. The estimates run as a stack of one, and the first error
    met, in the order of the returned mapping, is raised here. ``d`` may
    also be a reweighted cell table, such as a chunk of bootstrap
    replicates', with ``nu`` fitted on it: every quantity is then a stacked
    estimate, one per weight vector, and a failed one is recorded, not raised.
    """
    t = cell_table(d, nu.outcome_kind)
    pred = predictions(t, nu, plan.estimators, plan.arms)
    out: dict[str, EstimateWithIF] = {}
    for name in plan.estimators:
        for arm in plan.arms:
            out[f"{name}({arm})"] = _estimate(t, pred, nu.errors, name, arm, plan.hajek)
    for kind in plan.contrasts().values():
        for label, first, second in kind.values():
            out[label] = contrast(out[first], out[second], label)
    return out if t.reweighted else {label: e.only(t) for label, e in out.items()}
