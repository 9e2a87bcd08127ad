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
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return raw


# Peak bytes that one Monte Carlo replicate holds per composite row, as (base,
# per covariate): tracemalloc peaks of replicate_estimates at (20k, 20k) and
# (80k, 80k) rows were 67 + 16.6 k for k binary covariates and 312 + 25 k for k
# Gaussian ones, whose accept-reject draws hold a proposal batch four times the
# study size; rounded up. A simulate config whose replicate would need more than
# REPLICATE_BUDGET is refused before anything is drawn.
_ROW_BYTES = {"binary": (80, 20), "gaussian": (320, 32)}
REPLICATE_BUDGET = 16 * 2**30


def _check_plan(cfg: AnalysisConfig | SimulationConfig, where: str) -> None:
    """Checks shared by the configs that run estimators; AnalysisPlan checks the plan."""
    try:
        cfg.plan
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for key in ("level", "restriction_threshold"):
        if not 0.0 < getattr(cfg, key) < 1.0:
            raise ConfigError(f"{where}: {key!r} must be inside (0, 1), got {getattr(cfg, key)}")
    # np.random.SeedSequence takes non-negative integers only.
    if cfg.seed < 0:
        raise ConfigError(f"{where}: 'seed' must be a non-negative integer, got {cfg.seed}")


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
        if min(self.n) < 1:
            raise ConfigError(f"{where}: study sizes must be positive")
        base, per_covariate = _ROW_BYTES[self.law.covariates.kind]
        need = sum(self.n) * (base + per_covariate * self.law.k)
        if need > REPLICATE_BUDGET:
            raise ConfigError(
                f"{where}: 'n' {list(self.n)} needs about {need / 2**30:.3g} GiB per replicate, "
                f"over the {REPLICATE_BUDGET / 2**30:g} GiB budget"
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
