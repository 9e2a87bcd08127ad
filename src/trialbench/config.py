"""JSON configuration for the command line.

Every config is a single JSON object. Parsing is strict: unknown keys are
errors, since a typo silently changing an analysis is worse than a retry.
``to_dict`` materializes every default, and re-running on the echoed dict
reproduces the run (timestamps aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .data import ColumnSchema
from .errors import ConfigError
from .estimators import ESTIMATOR_NAMES
from .scenarios import PRESETS
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


def _reject_unknown(raw: Mapping, allowed: set[str], where: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _require(raw: Mapping, key: str, where: str) -> Any:
    if key not in raw:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return raw[key]


def _is_integer(value: Any) -> bool:
    # JSON true and false load as Python bools, which are ints too.
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(raw: Mapping, key: str, default: Any, where: str) -> int:
    """A JSON integer; booleans, floats and strings are rejected, not coerced."""
    value = raw.get(key, default)
    if not _is_integer(value):
        raise ConfigError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


def _flag(raw: Mapping, key: str, default: bool, where: str) -> bool:
    """A JSON boolean; strings such as "false" are rejected, not coerced."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: {key!r} must be true or false, got {value!r}")
    return value


def _schema_from(raw: Any, where: str) -> ColumnSchema:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where}: 'schema' must be an object")
    _reject_unknown(raw, {"s", "a", "y", "x"}, f"{where}.schema")
    for key in ("s", "a", "y", "x"):
        _require(raw, key, f"{where}.schema")
    x = raw["x"]
    if isinstance(x, str) or not isinstance(x, (list, tuple)):
        raise ConfigError(f"{where}.schema: 'x' must be a list of column names")
    return ColumnSchema(
        s=str(raw["s"]), a=str(raw["a"]), y=str(raw["y"]), x=tuple(str(c) for c in x)
    )


def _check_level(level: Any, where: str) -> float:
    try:
        level = float(level)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: 'level' must be a number") from None
    if not (0.0 < level < 1.0):
        raise ConfigError(f"{where}: 'level' must be inside (0, 1), got {level}")
    return level


def _check_estimators(value: Any, where: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where}: 'estimators' must be a non-empty list")
    names = tuple(str(v) for v in value)
    bad = [v for v in names if v not in ESTIMATOR_NAMES]
    if bad:
        raise ConfigError(f"{where}: unknown estimator(s) {bad}; allowed: {list(ESTIMATOR_NAMES)}")
    if len(set(names)) != len(names):
        raise ConfigError(f"{where}: duplicate estimators")
    return names


def _check_arms(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where}: 'arms' must be a non-empty list")
    if not all(_is_integer(v) for v in value):
        raise ConfigError(f"{where}: 'arms' must contain integers")
    arms = tuple(value)
    if any(a not in (0, 1) for a in arms) or len(set(arms)) != len(arms):
        raise ConfigError(f"{where}: 'arms' must be a subset of [0, 1] without repeats")
    return arms


def _check_misspec(value: Any, where: str) -> dict[str, list[str]] | list[str] | None:
    if value is None:
        return None
    if isinstance(value, Mapping):
        out: dict[str, list[str]] = {}
        for key, cols in value.items():
            if isinstance(cols, str) or not isinstance(cols, (list, tuple)):
                raise ConfigError(f"{where}.misspec[{key!r}]: must be a list of covariate names")
            out[str(key)] = [str(c) for c in cols]
        return out
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    raise ConfigError(f"{where}: 'misspec' must be an object, a list of model names, or null")


_ANALYSIS_KEYS = {
    "input", "schema", "outcome_kind", "estimators", "arms", "level",
    "bootstrap", "seed", "hajek", "ridge", "restriction",
    "restriction_threshold", "include_interactions", "overlap",
    "weight_threshold", "output",
}


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

    @classmethod
    def from_dict(cls, raw: Mapping) -> "AnalysisConfig":
        where = "analyze config"
        _reject_unknown(raw, _ANALYSIS_KEYS, where)
        schema = _schema_from(_require(raw, "schema", where), where)
        cfg = cls(
            input=str(_require(raw, "input", where)),
            schema=schema,
            outcome_kind=str(raw.get("outcome_kind", "continuous")),
            estimators=_check_estimators(raw.get("estimators", list(ESTIMATOR_NAMES)), where),
            arms=_check_arms(raw.get("arms", [0, 1]), where),
            level=_check_level(raw.get("level", 0.95), where),
            bootstrap=_integer(raw, "bootstrap", 0, where),
            seed=_integer(raw, "seed", 0, where),
            hajek=_flag(raw, "hajek", False, where),
            ridge=float(raw.get("ridge", 0.0)),
            restriction=_flag(raw, "restriction", True, where),
            restriction_threshold=_check_level(raw.get("restriction_threshold", 0.05), where),
            include_interactions=_flag(raw, "include_interactions", False, where),
            overlap=_flag(raw, "overlap", True, where),
            weight_threshold=float(raw.get("weight_threshold", 10.0)),
            output=str(raw.get("output", "report.json")),
        )
        if cfg.outcome_kind not in ("continuous", "binary"):
            raise ConfigError(f"{where}: outcome_kind must be continuous or binary")
        if cfg.bootstrap < 0:
            raise ConfigError(f"{where}: bootstrap must be >= 0")
        if cfg.bootstrap == 1:
            raise ConfigError(f"{where}: bootstrap needs at least 2 replicates (or 0 to disable)")
        if cfg.ridge < 0.0:
            raise ConfigError(f"{where}: ridge must be >= 0")
        if cfg.weight_threshold <= 0.0:
            raise ConfigError(f"{where}: weight_threshold must be positive")
        return cfg

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "schema": {
                "s": self.schema.s,
                "a": self.schema.a,
                "y": self.schema.y,
                "x": list(self.schema.x),
            },
            "outcome_kind": self.outcome_kind,
            "estimators": list(self.estimators),
            "arms": list(self.arms),
            "level": self.level,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "hajek": self.hajek,
            "ridge": self.ridge,
            "restriction": self.restriction,
            "restriction_threshold": self.restriction_threshold,
            "include_interactions": self.include_interactions,
            "overlap": self.overlap,
            "weight_threshold": self.weight_threshold,
            "output": self.output,
        }


_SIMULATION_KEYS = {
    "scenario", "reps", "n", "seed", "misspec", "estimators", "arms",
    "level", "restriction", "restriction_threshold", "ridge",
    "truth_draws", "output",
}


@dataclass(frozen=True)
class SimulationConfig:
    scenario: ScenarioConfig
    scenario_name: str | None
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

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SimulationConfig":
        where = "simulate config"
        _reject_unknown(raw, _SIMULATION_KEYS, where)
        scenario_raw = _require(raw, "scenario", where)
        scenario_name: str | None = None
        if isinstance(scenario_raw, str):
            if scenario_raw.upper() not in PRESETS:
                raise ConfigError(
                    f"{where}: unknown scenario preset {scenario_raw!r}; "
                    f"available: {sorted(PRESETS)}"
                )
            scenario_name = scenario_raw.upper()
            scenario = PRESETS[scenario_name]()
        elif isinstance(scenario_raw, Mapping):
            scenario = ScenarioConfig.from_dict(scenario_raw)
        else:
            raise ConfigError(f"{where}: 'scenario' must be a preset name or an object")

        n_raw = _require(raw, "n", where)
        if not isinstance(n_raw, (list, tuple)) or len(n_raw) != 2:
            raise ConfigError(f"{where}: 'n' must be [trial size, emulation size]")
        if not all(_is_integer(v) for v in n_raw):
            raise ConfigError(f"{where}: 'n' must hold two integers")
        n = (n_raw[0], n_raw[1])
        if n[0] < 1 or n[1] < 1:
            raise ConfigError(f"{where}: study sizes must be positive")

        _require(raw, "reps", where)
        reps = _integer(raw, "reps", None, where)
        if reps < 2:
            raise ConfigError(f"{where}: reps must be at least 2")

        cfg = cls(
            scenario=scenario,
            scenario_name=scenario_name,
            reps=reps,
            n=n,
            seed=_integer(raw, "seed", 0, where),
            misspec=_check_misspec(raw.get("misspec"), where),
            estimators=_check_estimators(raw.get("estimators", list(ESTIMATOR_NAMES)), where),
            arms=_check_arms(raw.get("arms", [0, 1]), where),
            level=_check_level(raw.get("level", 0.95), where),
            restriction=_flag(raw, "restriction", True, where),
            restriction_threshold=_check_level(raw.get("restriction_threshold", 0.05), where),
            ridge=float(raw.get("ridge", 0.0)),
            truth_draws=_integer(raw, "truth_draws", 10_000_000, where),
            output=str(raw.get("output", "simulation.json")),
        )
        if cfg.ridge < 0.0:
            raise ConfigError(f"{where}: ridge must be >= 0")
        if cfg.truth_draws < 1000:
            raise ConfigError(f"{where}: truth_draws must be at least 1000")
        return cfg

    def to_dict(self) -> dict:
        misspec: Any
        if self.misspec is None:
            misspec = None
        elif isinstance(self.misspec, dict):
            misspec = {k: list(v) for k, v in self.misspec.items()}
        else:
            misspec = list(self.misspec)
        return {
            "scenario": self.scenario_name or self.scenario.to_dict(),
            "reps": self.reps,
            "n": list(self.n),
            "seed": self.seed,
            "misspec": misspec,
            "estimators": list(self.estimators),
            "arms": list(self.arms),
            "level": self.level,
            "restriction": self.restriction,
            "restriction_threshold": self.restriction_threshold,
            "ridge": self.ridge,
            "truth_draws": self.truth_draws,
            "output": self.output,
        }


_VALIDATE_KEYS = {"input", "schema", "output"}


@dataclass(frozen=True)
class ValidateConfig:
    input: str
    schema: ColumnSchema
    output: str | None = None

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ValidateConfig":
        where = "validate config"
        _reject_unknown(raw, _VALIDATE_KEYS, where)
        return cls(
            input=str(_require(raw, "input", where)),
            schema=_schema_from(_require(raw, "schema", where), where),
            output=str(raw["output"]) if raw.get("output") is not None else None,
        )

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "schema": {
                "s": self.schema.s,
                "a": self.schema.a,
                "y": self.schema.y,
                "x": list(self.schema.x),
            },
            "output": self.output,
        }
