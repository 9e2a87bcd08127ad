"""JSON configuration for the command line.

Every config is a single JSON object, parsed strictly from the dataclass
fields (``jsonfields.parse``): unknown keys and values of the wrong JSON type
are errors, since a typo silently changing an analysis is worse than a retry.
Range checks are the library's own (``errors.require_unit`` and its kin).
``to_dict`` materializes every default, and re-running on the echoed dict
reproduces the run (timestamps aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .data import ColumnSchema
from .errors import ConfigError, require_count, require_positive, require_sizes, require_unit
from .estimators import ESTIMATOR_NAMES, AnalysisPlan
from .inference import check_seed
from .jsonfields import dump, parser
from .scenarios import preset
from .simulation import ScenarioConfig


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return raw


# Peak bytes that one Monte Carlo replicate holds per composite row, as (base,
# per covariate): tracemalloc peaks of replicate_estimates at (20k, 20k) and
# (80k, 80k) rows were 67 + 16.6 k for k binary covariates and 312 + 25 k for k
# Gaussian ones, whose accept-reject draws hold a proposal batch four times the
# study size; rounded up. A simulate config whose replicate would need more than
# REPLICATE_BUDGET is refused before anything is drawn, and so is a replicate
# count whose records (run_replicates keeps 8 bytes per value per replicate)
# would. A run on several workers has one task in flight per worker, so it
# takes only as many workers as the budget holds replicates
# (SimulationConfig.workers_within_budget).
_ROW_BYTES = {"binary": (80, 20), "gaussian": (320, 32)}
REPLICATE_BUDGET = 16 * 2**30

# Peak bytes per row of a binary law's support (simulation._binary_cells, which
# the truths and every draw build whole), as (base, per covariate): tracemalloc
# peaks of true_values and generate at 12-18 binary covariates were 32 + 24 k
# per row without violations, 114 + 8 k with both and 220-316 with one; rounded
# up over all three. On two workers the truths task builds one support while a
# replicate draws from another (on threads, a traced peak of 109 MiB for 2^18
# rows, each alone 58), so a replicate is counted with two supports: those and
# its rows beyond REPLICATE_BUDGET together are refused before anything is
# built.
_SUPPORT_ROW_BYTES = (120, 24)


def _check_plan(cfg: AnalysisConfig | SimulationConfig) -> None:
    """Checks shared by the configs that run estimators; AnalysisPlan checks the plan."""
    cfg.plan
    check_seed(cfg.seed)
    require_unit(cfg.level, "level")
    require_unit(cfg.restriction_threshold, "restriction_threshold")


def _check_records(key: str, count: int, values: int) -> None:
    need = 8 * values * count
    if need > REPLICATE_BUDGET:
        raise ConfigError(
            f"{key!r} {count} needs {need / 2**30:.3g} GiB of replicate records "
            f"({values} values each), over the {REPLICATE_BUDGET / 2**30:g} GiB budget"
        )


def _quantities(plan: AnalysisPlan) -> int:
    """Estimates per replicate: each estimator and arm, and each contrast."""
    return len(plan.estimators) * len(plan.arms) + sum(map(len, plan.contrasts().values()))


@dataclass(frozen=True)
class AnalysisConfig:
    input: str
    schema: ColumnSchema
    outcome_kind: str = "continuous"
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    arms: tuple[int, ...] = (0, 1)
    level: float = 0.95
    bootstrap: int = 0  # replicate count; 0 disables the bootstrap
    seed: int = 0
    hajek: bool = False
    ridge: float = 0.0
    restriction: bool = True
    restriction_threshold: float = 0.05
    include_interactions: bool = False
    overlap: bool = True
    weight_threshold: float = 10.0
    output: str = "report.json"

    def __post_init__(self) -> None:
        _check_plan(self)
        require_count(self.bootstrap, "bootstrap", 2, or_zero=True)
        _check_records("bootstrap", self.bootstrap, _quantities(self.plan))
        require_positive(self.weight_threshold, "weight_threshold")

    @property
    def plan(self) -> AnalysisPlan:
        return AnalysisPlan(self.outcome_kind, self.estimators, self.arms, self.ridge, self.hajek)

    from_dict = parser("analyze config")
    to_dict = dump


@dataclass(frozen=True)
class SimulationConfig:
    scenario: str | ScenarioConfig  # a preset name or an inline law
    reps: int
    n: tuple[int, int]
    seed: int = 0
    misspec: dict[str, list[str]] | list[str] | None = None
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    arms: tuple[int, ...] = (0, 1)
    level: float = 0.95
    restriction: bool = True
    restriction_threshold: float = 0.05
    ridge: float = 0.0
    truth_draws: int = 10_000_000
    output: str = "simulation.json"

    def __post_init__(self) -> None:
        if isinstance(self.scenario, str):
            object.__setattr__(self, "scenario", self.scenario.upper())
        _check_plan(self)  # an unknown preset fails here, not after the truths
        require_count(self.reps, "reps", 2)
        # Each estimate and its standard error, and a restriction p-value per arm.
        values = 2 * _quantities(self.plan) + self.restriction * len(self.arms)
        _check_records("reps", self.reps, values)
        require_sizes(self.n, "n")
        need, what = self._replicate_need()
        if need > REPLICATE_BUDGET:
            raise ConfigError(
                f"{what} takes the most of the {need / 2**30:.3g} GiB "
                f"a replicate needs, over the {REPLICATE_BUDGET / 2**30:g} GiB budget"
            )
        require_count(self.truth_draws, "truth_draws", 1000)

    def _replicate_need(self) -> tuple[int, str]:
        """The bytes one replicate holds at once, its rows and, for a binary
        law, two supports of 2^k patterns times 2 per violation present; and
        the key that takes the most of them."""
        law = self.law
        base, per_covariate = _ROW_BYTES[law.covariates.kind]
        draws = sum(self.n) * (base + per_covariate * law.k)
        support, what = 0, f"'n' {list(self.n)}"
        if law.covariates.kind == "binary":
            rows = 2 ** (law.k + sum(v is not None for v in (law.confounding, law.transport)))
            base, per_covariate = _SUPPORT_ROW_BYTES
            support = 2 * rows * (base + per_covariate * law.k)
            if support > draws:
                what = f"'scenario' ({law.k} binary covariates, {rows} support rows)"
        return draws + support, what

    def workers_within_budget(self, workers: int) -> int:
        """At most ``workers``, and no more than REPLICATE_BUDGET holds
        replicates at once."""
        return min(workers, REPLICATE_BUDGET // self._replicate_need()[0])  # >= 1, as checked

    @property
    def law(self) -> ScenarioConfig:
        """The scenario to simulate, with a preset name resolved."""
        return preset(self.scenario) if isinstance(self.scenario, str) else self.scenario

    @property
    def plan(self) -> AnalysisPlan:  # run_monte_carlo's, misspecification aside
        return AnalysisPlan(self.law.outcome_kind, self.estimators, self.arms, self.ridge)

    from_dict = parser("simulate config")
    to_dict = dump


@dataclass(frozen=True)
class ValidateConfig:
    input: str
    schema: ColumnSchema
    output: str | None = None

    from_dict = parser("validate config")
    to_dict = dump
