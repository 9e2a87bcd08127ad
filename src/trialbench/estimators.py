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
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import CellTable, Dataset, cell_table
from .errors import IncompatibleEstimatesError, PositivityError
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
    their parents'. Construction enforces that the influence values average
    to zero up to float tolerance.
    """

    label: str
    value: float
    table: CellTable
    alpha: np.ndarray
    beta: np.ndarray
    n_effective: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError(f"{self.label}: estimate is not finite")
        t = self.table
        tolerance = 1e-8 * (1.0 + abs(self.value))
        center = abs(float(self.alpha @ t.y_sum + self.beta @ t.count) / float(np.sum(t.count)))
        if center > tolerance:
            raise ValueError(
                f"{self.label}: influence values are off-center by {center:.3e}"
            )

    @property
    def if_values(self) -> np.ndarray:
        """Influence value of each dataset row (0 where a row cannot contribute)."""
        inverse = self.table.inverse
        return self.alpha[inverse] * self.table.y_rows + self.beta[inverse]


def _positivity_check(t: CellTable, prob: np.ndarray, mask: np.ndarray, what: str) -> None:
    bad_cells = np.flatnonzero(mask & (prob < PROPENSITY_FLOOR))
    if bad_cells.size:
        bad = t.rows_of(bad_cells)
        shown = ", ".join(str(int(i)) for i in bad[:20])
        suffix = "" if bad.size <= 20 else f" (and {bad.size - 20} more)"
        raise PositivityError(
            f"{what} below {PROPENSITY_FLOOR:g} on {bad.size} weighted row(s): "
            f"rows [{shown}]{suffix}"
        )


# Per estimator: the stratum of its outcome and propensity models (its
# weighted rows are that stratum's rows at the arm), the propensity's name in
# error messages, and the weight from the propensity e and participation p.
_AIPW = {
    "phi": ("s0", "emulation propensity", lambda e, p: 1.0 / e),
    "chi": ("s1", "trial propensity", lambda e, p: (1.0 - p) / p / e),
    "psi": ("pooled", "pooled propensity", lambda e, p: (1.0 - p) / e),
}


def aipw_weighting(
    name: str, a: int, s: np.ndarray, treatment: np.ndarray
) -> tuple[str, np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """Estimator ``name`` at arm ``a``: the stratum of its propensity, the mask
    of its weighted rows among rows (s, treatment), and its weight w(e, p)."""
    stratum, _, weight = _AIPW[name]
    in_stratum = {"s0": s == 0, "s1": s == 1, "pooled": True}[stratum]
    return stratum, in_stratum & (treatment == a), weight


def _estimate(t: CellTable, nu: NuisanceSet, name: str, a: int, hajek: bool) -> EstimateWithIF:
    """One AIPW estimate on a cell table, with its influence values.

    value = (sum over s=0 rows of g + sum over weighted rows of w (y - g)) / n0,
    each row counted with its weight, g and w per cell; w is 0 off the
    weighted rows. phi, chi and psi differ only in the entries of _AIPW. A
    row's influence value is (n/n0) [w (y - g) + (g - value) 1{s=0}].
    """
    stratum, weighted, weight = aipw_weighting(name, a, t.s, t.a)
    s0 = t.s == 0
    n0 = t.n_emulation
    g = nu.outcome_mean(t.x, a, stratum)
    e = nu.treatment_prob(t.x, a, stratum)
    p = nu.participation_prob(t.x)
    live = weighted & (t.count > 0)
    if name == "chi":
        _positivity_check(t, p, live, f"chi({a}): participation probability")
    _positivity_check(t, e, live, f"{name}({a}): {_AIPW[name][1]} for arm {a}")
    w = np.zeros(t.count.size)
    w[live] = weight(e[live], p[live])
    if hajek:
        total = float(t.count @ w)
        if total <= 0.0:
            raise PositivityError(
                "renormalization impossible: weighted rows have zero total weight"
            )
        w *= n0 / total

    value = float((t.count[s0] @ g[s0] + w @ (t.y_sum - t.count * g)) / n0)
    scale = float(np.sum(t.count)) / n0
    return EstimateWithIF(
        label=f"{name}({a})",
        value=value,
        table=t,
        alpha=scale * w,
        beta=scale * (np.where(s0, g - value, 0.0) - w * g),
        n_effective=int(n0),
    )


def estimate_phi(
    d: Dataset, nu: NuisanceSet, a: int, *, hajek: bool = False
) -> EstimateWithIF:
    """Emulation-only doubly robust mean of the potential outcome under ``a``."""
    return _estimate(cell_table(d, nu.outcome_kind), nu, "phi", a, hajek)


def estimate_chi(
    d: Dataset, nu: NuisanceSet, a: int, *, hajek: bool = False
) -> EstimateWithIF:
    """Trial-transported doubly robust mean of the potential outcome under ``a``."""
    return _estimate(cell_table(d, nu.outcome_kind), nu, "chi", a, hajek)


def estimate_psi(
    d: Dataset, nu: NuisanceSet, a: int, *, hajek: bool = False
) -> EstimateWithIF:
    """Pooled-data doubly robust mean of the potential outcome under ``a``."""
    return _estimate(cell_table(d, nu.outcome_kind), nu, "psi", a, hajek)


def contrast(
    e1: EstimateWithIF, e2: EstimateWithIF, label: str | None = None
) -> EstimateWithIF:
    """Difference e1 - e2 with the differenced influence values.

    Both estimates must come from the same cell table, and so from the
    same dataset.
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
        n_effective=min(e1.n_effective, e2.n_effective),
    )


@dataclass(frozen=True)
class AnalysisPlan:
    """What to estimate and how, shared by the point analysis and bootstrap.

    ``estimators`` is a subset of {"phi", "chi", "psi"}; ``arms`` a subset
    of {0, 1}. Treatment-effect contrasts appear when both arms are
    requested, benchmarking deltas (phi minus chi, per arm) when both of
    those estimators are requested.
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
        if not self.estimators:
            raise ValueError("plan requests no estimators")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if unknown:
            raise ValueError(f"unknown estimator(s) {unknown}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("duplicate estimators in plan")
        if not self.arms:
            raise ValueError("plan requests no treatment arms")
        if any(a not in (0, 1) for a in self.arms):
            raise ValueError("treatment arms must be 0 or 1")
        if len(set(self.arms)) != len(self.arms):
            raise ValueError("duplicate arms in plan")


def run_plan(d: Dataset, plan: AnalysisPlan) -> dict[str, EstimateWithIF]:
    """Fit nuisances and compute every quantity the plan asks for.

    Returns an ordered mapping: potential-outcome means keyed
    "phi(1)"-style, treatment effects "ate_phi"-style, and benchmarking
    deltas "delta(1)"-style.
    """
    nu = fit_nuisances(d, plan.outcome_kind, ridge=plan.ridge, drop=plan.drop)
    return run_plan_with(d, nu, plan)


def _contrasts(plan: AnalysisPlan) -> list[tuple[str, str, str]]:
    """(label, first, second) of each contrast the plan asks for."""
    out = []
    if 0 in plan.arms and 1 in plan.arms:
        out += [(f"ate_{name}", f"{name}(1)", f"{name}(0)") for name in plan.estimators]
    if "phi" in plan.estimators and "chi" in plan.estimators:
        out += [(f"delta({arm})", f"phi({arm})", f"chi({arm})") for arm in plan.arms]
    return out


def run_plan_with(
    d: Dataset | CellTable, nu: NuisanceSet, plan: AnalysisPlan
) -> dict[str, EstimateWithIF]:
    """Same as run_plan but on an already fitted nuisance bundle.

    ``d`` may also be a cell table, such as a bootstrap replicate's
    reweighted one; every estimate then comes from that table.
    """
    t = cell_table(d, nu.outcome_kind)
    out: dict[str, EstimateWithIF] = {}
    for name in plan.estimators:
        for arm in plan.arms:
            out[f"{name}({arm})"] = _estimate(t, nu, name, arm, plan.hajek)
    for label, first, second in _contrasts(plan):
        out[label] = contrast(out[first], out[second], label=label)
    return out
