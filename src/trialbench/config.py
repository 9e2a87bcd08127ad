"""JSON configuration for the command line.

Every config is a single JSON object, parsed strictly from the dataclass
fields (``jsonfields.parse``): unknown keys and values of the wrong JSON type
are errors, since a typo silently changing an analysis is worse than a retry.
``to_dict`` materializes every default, and re-running on the echoed dict
reproduces the run (timestamps aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .data import ColumnSchema
from .errors import ConfigError
from .estimators import ESTIMATOR_NAMES, AnalysisPlan
from .inference import check_seed
from .jsonfields import dump, parse
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
# would.
_ROW_BYTES = {"binary": (80, 20), "gaussian": (320, 32)}
REPLICATE_BUDGET = 16 * 2**30

# Peak bytes per row of a binary law's support (simulation._binary_cells, which
# the truths and every draw build whole), as (base, per covariate): tracemalloc
# peaks of true_values and generate at 12-18 binary covariates were 32 + 24 k
# per row without violations, 114 + 8 k with both and 220-316 with one; rounded
# up over all three. The truths thread builds one support beside a replicate's
# draws from another (a traced peak of 109 MiB for 2^18 rows, each alone 58), so
# two supports and a replicate's rows beyond REPLICATE_BUDGET together are
# refused before anything is built.
_SUPPORT_ROW_BYTES = (120, 24)


def _check_plan(cfg: AnalysisConfig | SimulationConfig, where: str) -> None:
    """Checks shared by the configs that run estimators; AnalysisPlan checks the plan."""
    try:
        cfg.plan
        check_seed(cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for key in ("level", "restriction_threshold"):
        if not 0.0 < getattr(cfg, key) < 1.0:
            raise ConfigError(f"{where}: {key!r} must be inside (0, 1), got {getattr(cfg, key)}")


def _check_records(where: str, key: str, count: int, values: int) -> None:
    need = 8 * values * count
    if need > REPLICATE_BUDGET:
        raise ConfigError(
            f"{where}: {key!r} {count} needs {need / 2**30:.3g} GiB of replicate records "
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
        where = "analyze config"
        _check_plan(self, where)
        if self.bootstrap < 0 or self.bootstrap == 1:
            raise ConfigError(f"{where}: bootstrap needs at least 2 replicates (or 0 to disable)")
        _check_records(where, "bootstrap", self.bootstrap, _quantities(self.plan))
        if not self.weight_threshold > 0.0:
            raise ConfigError(f"{where}: weight_threshold must be positive")

    @property
    def plan(self) -> AnalysisPlan:
        return AnalysisPlan(self.outcome_kind, self.estimators, self.arms, self.ridge, self.hajek)

    @classmethod
    def from_dict(cls, raw: Mapping) -> AnalysisConfig:
        return parse(cls, raw, "analyze config")

    def to_dict(self) -> dict:
        return dump(self)


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
        where = "simulate config"
        if isinstance(self.scenario, str):
            object.__setattr__(self, "scenario", self.scenario.upper())
        _check_plan(self, where)  # an unknown preset fails here, not after the truths
        if self.reps < 2:
            raise ConfigError(f"{where}: reps must be at least 2")
        # Each estimate and its standard error, and a restriction p-value per arm.
        values = 2 * _quantities(self.plan) + self.restriction * len(self.arms)
        _check_records(where, "reps", self.reps, values)
        if min(self.n) < 1:
            raise ConfigError(f"{where}: study sizes must be positive")
        # What a run holds at once: a replicate's rows and, for a binary law,
        # two supports of 2^k patterns times 2 per violation present.
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
        if draws + support > REPLICATE_BUDGET:
            raise ConfigError(
                f"{where}: {what} takes the most of the {(draws + support) / 2**30:.3g} GiB "
                f"a replicate needs, over the {REPLICATE_BUDGET / 2**30:g} GiB budget"
            )
        if self.truth_draws < 1000:
            raise ConfigError(f"{where}: truth_draws must be at least 1000")

    @property
    def law(self) -> ScenarioConfig:
        """The scenario to simulate, with a preset name resolved."""
        return preset(self.scenario) if isinstance(self.scenario, str) else self.scenario

    @property
    def plan(self) -> AnalysisPlan:  # run_monte_carlo's, misspecification aside
        return AnalysisPlan(self.law.outcome_kind, self.estimators, self.arms, self.ridge)

    @classmethod
    def from_dict(cls, raw: Mapping) -> SimulationConfig:
        return parse(cls, raw, "simulate config")

    def to_dict(self) -> dict:
        return dump(self)


@dataclass(frozen=True)
class ValidateConfig:
    input: str
    schema: ColumnSchema
    output: str | None = None

    @classmethod
    def from_dict(cls, raw: Mapping) -> ValidateConfig:
        return parse(cls, raw, "validate config")

    def to_dict(self) -> dict:
        return dump(self)
