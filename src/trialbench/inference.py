"""Variance estimation and tests built on influence values.

The sandwich route treats the per-row influence values as the unit-level
contributions: the standard error is sqrt(sampleVar(if_values) / n) with
the usual n - 1 denominator inside the sample variance. The bootstrap
route resamples rows within each study separately, matching how the
composite sample was drawn, and refits every nuisance model per replicate,
on cell counts rather than on a copy of the resampled rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import Dataset
from .errors import DegenerateTestError, FitError
from .estimators import AnalysisPlan, EstimateWithIF, plan_values
from .nuisance import fit_nuisances


@dataclass(frozen=True)
class Interval:
    estimate: float
    std_error: float
    lower: float
    upper: float
    level: float
    method: str

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
            "method": self.method,
        }


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    null_description: str
    df: int | None = None  # None marks a z statistic

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "null": self.null_description,
            "df": self.df,
        }


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate values for one quantity; failures are counted, not imputed."""

    label: str
    replicates: np.ndarray
    requested: int
    failures: int
    seed: int

    def __post_init__(self) -> None:
        reps = np.asarray(self.replicates, dtype=float)
        reps.setflags(write=False)
        object.__setattr__(self, "replicates", reps)

    @property
    def std_error(self) -> float:
        return float(np.std(self.replicates, ddof=1))

    def percentile_interval(self, point: float, level: float = 0.95) -> Interval:
        _check_level(level)
        alpha = 1.0 - level
        lower, upper = np.quantile(self.replicates, [alpha / 2.0, 1.0 - alpha / 2.0])
        return Interval(
            estimate=point,
            std_error=self.std_error,
            lower=float(lower),
            upper=float(upper),
            level=level,
            method="bootstrap-percentile",
        )


def _check_level(level: float) -> None:
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level must be inside (0, 1), got {level!r}")


def sandwich_se(e: EstimateWithIF) -> float:
    """Plug-in standard error from the influence values."""
    if e.n < 2:
        raise DegenerateTestError(f"{e.label}: need at least 2 rows for a variance")
    return float(np.sqrt(np.var(e.if_values, ddof=1) / e.n))


def sandwich_ci(e: EstimateWithIF, level: float = 0.95) -> Interval:
    """Symmetric normal-theory interval around the estimate."""
    _check_level(level)
    se = sandwich_se(e)
    z = float(special.ndtri(0.5 + level / 2.0))
    return Interval(
        estimate=e.value,
        std_error=se,
        lower=e.value - z * se,
        upper=e.value + z * se,
        level=level,
        method="sandwich",
    )


def wald_test(e: EstimateWithIF, null_value: float = 0.0) -> TestResult:
    """Two-sided z test of the estimate against a null value."""
    se = sandwich_se(e)
    if se == 0.0:
        raise DegenerateTestError(
            f"{e.label}: zero standard error, test statistic undefined"
        )
    z = (e.value - null_value) / se
    return TestResult(
        statistic=float(z),
        p_value=float(2.0 * special.ndtr(-abs(z))),
        null_description=f"{e.label} = {null_value:g}",
        df=None,
    )


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    # Index-keyed stream: replicate i's draws never depend on execution order.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def bootstrap_replicate(
    d: Dataset, plan: AnalysisPlan, seed: int, index: int
) -> dict[str, float]:
    """One stratified resample and re-analysis; raises FitError on failure.

    The resample draws trial rows, then emulation rows, with replacement.
    Its analysis runs on the dataset's cell table with each row weighted by
    the number of times it was drawn, which equals the analysis of the
    resampled rows themselves.
    """
    rng = _replicate_rng(seed, index)
    trial_rows = np.flatnonzero(d.s == 1)
    emulation_rows = np.flatnonzero(d.s == 0)
    take_trial = trial_rows[rng.integers(0, trial_rows.size, trial_rows.size)]
    take_emulation = emulation_rows[
        rng.integers(0, emulation_rows.size, emulation_rows.size)
    ]
    draws = np.bincount(np.concatenate([take_trial, take_emulation]), minlength=d.n)
    table = d.cells(plan.outcome_kind == "binary").reweight(draws)
    nu = fit_nuisances(table, plan.outcome_kind, ridge=plan.ridge, drop=plan.drop)
    return plan_values(table, nu, plan)


def bootstrap(
    d: Dataset, plan: AnalysisPlan, B: int, seed: int
) -> dict[str, BootstrapResult]:
    """Stratified nonparametric bootstrap of every quantity in the plan.

    Replicates that fail to fit (separation, positivity, degenerate strata)
    are dropped and counted; more than B/2 failures aborts. Results are
    bit-identical for a given (d, plan, B, seed) regardless of execution
    order because each replicate owns an index-keyed RNG stream.
    """
    if B < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    values: dict[str, list[float]] = {}
    failures = 0
    for i in range(B):
        try:
            result = bootstrap_replicate(d, plan, seed, i)
        except FitError:
            failures += 1
            if failures > B / 2:
                raise FitError(
                    f"bootstrap aborted: {failures} of {i + 1} replicates failed to fit"
                ) from None
            continue
        for label, value in result.items():
            values.setdefault(label, []).append(value)
    if not values:
        raise FitError("bootstrap aborted: every replicate failed to fit")
    return {
        label: BootstrapResult(
            label=label,
            replicates=np.asarray(reps),
            requested=B,
            failures=failures,
            seed=seed,
        )
        for label, reps in values.items()
    }
