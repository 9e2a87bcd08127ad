import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbench import (
    ESTIMATOR_NAMES,
    MODEL_NAMES,
    AnalysisPlan,
    ConfigError,
    ScenarioConfig,
    d1,
    truth_table,
)
from trialbench.cli import main
from trialbench.config import AnalysisConfig, SimulationConfig, ValidateConfig
from trialbench.jsonfields import dump
from trialbench.scenarios import PRESETS

from conftest import FIXTURE_CSV, REPO_ROOT

SCHEMA = {"s": "S", "a": "A", "y": "Y", "x": ["X1"]}

# No example database: the properties are cheap and the runs write no files.
round_trip = settings(database=None, deadline=None)

names = st.text(alphabet="abcdefgXYZ_019", min_size=1, max_size=6)
numbers = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-1000, 1000)
inside_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
schemas = st.lists(names, min_size=4, max_size=7, unique=True).map(
    lambda cols: {"s": cols[0], "a": cols[1], "y": cols[2], "x": cols[3:]}
)
# Keys shared by the configs that run estimators.
plan_keys = {
    "estimators": st.lists(st.sampled_from(ESTIMATOR_NAMES), min_size=1, unique=True),
    "arms": st.lists(st.sampled_from([0, 1]), min_size=1, unique=True),
    "level": inside_unit,
    "restriction": st.booleans(),
    "restriction_threshold": inside_unit,
    "ridge": st.floats(0.0, 1e6) | st.integers(0, 1000),
    "seed": st.integers(0, 2**64),
    "output": names,
}


def coefficients(k: int):
    return st.lists(numbers, min_size=k, max_size=k)


violation = st.fixed_dictionaries({}, optional={"u_prob": inside_unit, "effect_on_y": numbers})


@st.composite
def gaussian_laws(draw) -> dict:
    dim = draw(st.integers(1, 4))
    law = {
        "covariates": {"kind": "gaussian", "dim": dim},
        "participation": draw(coefficients(dim + 1)),
        "trial_arm_prob": draw(inside_unit),
        "emulation_propensity": draw(coefficients(dim + 1)),
        "outcome_intercept": draw(numbers),
        "outcome_x": draw(coefficients(dim)),
        "outcome_treatment": draw(numbers),
        "outcome_tx": draw(coefficients(dim)),
    }
    optional = {
        "noise_sd": st.floats(0.0, 10.0),
        "outcome_kind": st.sampled_from(["continuous", "binary"]),
        "confounding": st.none() | violation,
        "transport": st.none() | violation,
    }
    return law | draw(st.fixed_dictionaries({}, optional=optional))


scenario_laws = st.sampled_from(sorted(PRESETS)).map(
    lambda name: PRESETS[name]().to_dict()
) | gaussian_laws()

analyze_configs = st.fixed_dictionaries(
    {"input": names, "schema": schemas},
    optional={
        **plan_keys,
        "outcome_kind": st.sampled_from(["continuous", "binary"]),
        "bootstrap": st.just(0) | st.integers(2, 10**6),
        "hajek": st.booleans(),
        "include_interactions": st.booleans(),
        "overlap": st.booleans(),
        "weight_threshold": st.floats(1e-6, 1e6),
    },
)
misspecs = (
    st.none()
    | st.lists(st.sampled_from(MODEL_NAMES), unique=True)
    | st.dictionaries(st.sampled_from(MODEL_NAMES), st.lists(names, max_size=3))
)
simulate_configs = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(sorted(PRESETS) + ["d1", "Truth_Table_TF"]) | scenario_laws,
        "reps": st.integers(2, 10**6),
        "n": st.lists(st.integers(1, 10**7), min_size=2, max_size=2),
    },
    optional={**plan_keys, "misspec": misspecs, "truth_draws": st.integers(1000, 10**9)},
)
validate_configs = st.fixed_dictionaries(
    {"input": names, "schema": schemas}, optional={"output": st.none() | names}
)


def assert_round_trip(cls, raw: dict) -> None:
    config = cls.from_dict(raw)
    echo = config.to_dict()
    assert json.loads(json.dumps(echo)) == echo  # the echo is plain JSON
    assert cls.from_dict(echo) == config
    assert cls.from_dict(echo).to_dict() == echo


@round_trip
@given(analyze_configs)
def test_analyze_config_round_trips(raw):
    assert_round_trip(AnalysisConfig, raw)


@round_trip
@given(simulate_configs)
def test_simulate_config_round_trips(raw):
    assert_round_trip(SimulationConfig, raw)


@round_trip
@given(validate_configs)
def test_validate_config_round_trips(raw):
    assert_round_trip(ValidateConfig, raw)


@round_trip
@given(scenario_laws)
def test_scenario_round_trips(raw):
    assert_round_trip(ScenarioConfig, raw)


def test_preset_echo_is_its_upper_case_name():
    config = SimulationConfig.from_dict({"scenario": "truth_table_ft", "reps": 2, "n": [5, 5]})
    assert config.to_dict()["scenario"] == "TRUTH_TABLE_FT"
    assert config.law == truth_table("FT")


def test_replace_runs_the_range_checks():
    config = AnalysisConfig.from_dict({"input": "d.csv", "schema": SCHEMA})
    with pytest.raises(ConfigError, match="bootstrap"):
        dataclasses.replace(config, bootstrap=1)
    with pytest.raises(ConfigError, match="'level'"):
        dataclasses.replace(config, level=1.0)


# Plan requests, valid and not, each of its key's JSON type.
plan_requests = st.fixed_dictionaries(
    {},
    optional={
        "estimators": st.lists(st.sampled_from([*ESTIMATOR_NAMES, "rho", "PHI"]), max_size=4),
        "arms": st.lists(st.integers(-1, 2), max_size=3),
        "outcome_kind": st.sampled_from(["continuous", "binary", "count", "Binary"]),
        "ridge": st.floats() | st.integers(-3, 3),
    },
)


def _plan_refuses(request: dict) -> bool:
    try:
        AnalysisPlan(**{"outcome_kind": "continuous", **request})
    except ValueError:
        return True
    return False


def _config_refuses(cls, raw: dict, request: dict) -> bool:
    try:
        cls.from_dict(raw)
    except ConfigError as exc:
        assert any(repr(key) in str(exc) for key in request)
        return True
    return False


@round_trip
@given(plan_requests)
def test_analyze_config_refuses_exactly_what_the_plan_refuses(request):
    raw = {"input": "d.csv", "schema": SCHEMA, **request}
    assert _config_refuses(AnalysisConfig, raw, request) == _plan_refuses(request)


@round_trip
@given(plan_requests)
def test_simulate_config_refuses_exactly_what_the_plan_refuses(request):
    # A simulate config takes its outcome kind from the scenario law.
    raw = {"scenario": "D1", "reps": 2, "n": [50, 50]}
    raw |= {key: value for key, value in request.items() if key != "outcome_kind"}
    if "outcome_kind" in request:
        raw["scenario"] = d1().to_dict() | {"outcome_kind": request["outcome_kind"]}
    assert _config_refuses(SimulationConfig, raw, request) == _plan_refuses(request)


def test_replicate_budget_takes_the_sizes_in_use_and_refuses_beyond():
    gaussian = {
        "covariates": {"kind": "gaussian", "dim": 4},
        "participation": [0.0] * 5,
        "trial_arm_prob": 0.5,
        "emulation_propensity": [0.0] * 5,
        "outcome_intercept": 0.0,
        "outcome_x": [0.0] * 4,
        "outcome_treatment": 0.0,
        "outcome_tx": [0.0] * 4,
    }
    # The largest sizes the round-trip properties draw.
    for scenario in ("D1", gaussian):
        SimulationConfig.from_dict({"scenario": scenario, "reps": 2, "n": [10**7] * 2})
    for path in sorted((REPO_ROOT / "configs").glob("simulate_*.json")):
        SimulationConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    for scenario in ("D1", gaussian):
        with pytest.raises(ConfigError, match="'n' .* GiB budget"):
            SimulationConfig.from_dict({"scenario": scenario, "reps": 2, "n": [10**9, 10]})



def binary_law(k: int) -> dict:
    """A law of k binary covariates with both violations present."""
    return {
        "covariates": {"kind": "binary", "p": [0.5] * k},
        "participation": [0.0] * (k + 1),
        "trial_arm_prob": 0.5,
        "emulation_propensity": [0.0] * (k + 1),
        "outcome_intercept": 0.0,
        "outcome_x": [0.0] * k,
        "outcome_treatment": 0.0,
        "outcome_tx": [0.0] * k,
        "confounding": {},
        "transport": {},
    }


def test_binary_support_budget_refuses_the_first_covariate_count_beyond():
    # Two supports of 2^(k + 2) rows of 120 + 24 k bytes: 9.75 GiB at k = 21,
    # 20.25 GiB at 22.
    SimulationConfig.from_dict({"scenario": binary_law(21), "reps": 2, "n": [50, 50]})
    with pytest.raises(ConfigError, match=r"'scenario' \(22 binary covariates.* GiB budget"):
        SimulationConfig.from_dict({"scenario": binary_law(22), "reps": 2, "n": [50, 50]})


def test_budget_sums_the_support_and_the_rows_each_of_which_fits_alone():
    # At k = 21 rows take 500 bytes each, and the two supports 9.75 GiB with
    # both violations, 2.44 GiB with none. 18 and 24 million rows fit beside
    # the small supports, not beside the large; the larger share is named.
    law = binary_law(21)
    without_violations = {key: law[key] for key in law if key not in ("confounding", "transport")}
    for n, named in (([9 * 10**6] * 2, "'scenario'"), ([12 * 10**6] * 2, "'n'")):
        SimulationConfig.from_dict({"scenario": without_violations, "reps": 2, "n": n})
        with pytest.raises(ConfigError, match=f"^simulate config: {named}"):
            SimulationConfig.from_dict({"scenario": binary_law(21), "reps": 2, "n": n})

def _inline(**changes) -> dict:
    """A simulate payload change: the FT scenario inline, keys replaced."""
    return {"scenario": truth_table("FT").to_dict() | changes}


def _ft_renamed(old: str, new: str) -> dict:
    """A simulate payload change: the FT scenario inline, one key renamed."""
    law = truth_table("FT").to_dict()
    law[new] = law.pop(old)
    return {"scenario": law}


# (command, changes to a runnable payload, the key the error must name)
WRONG = {
    "scenario noise_SD typo": ("simulate", _ft_renamed("noise_sd", "noise_SD"), "noise_SD"),
    "scenario noise_sd string": ("simulate", _inline(noise_sd="abc"), "noise_sd"),
    "scenario noise_sd bool": ("simulate", _inline(noise_sd=True), "noise_sd"),
    "scenario participation string": ("simulate", _inline(participation="ab"), "participation"),
    "scenario fractional dim": (
        "simulate", _inline(covariates={"kind": "gaussian", "dim": 1.7}), "dim"
    ),
    "scenario unknown covariates key": (
        "simulate", _inline(covariates={"kind": "binary", "q": [0.5]}), "q"
    ),
    "scenario covariates string": ("simulate", _inline(covariates="binary"), "covariates"),
    "scenario confunding typo": (
        "simulate", _ft_renamed("confounding", "confunding"), "confunding"
    ),
    "analyze ridge string": ("analyze", {"ridge": "x"}, "ridge"),
    "analyze ridge NaN": ("analyze", {"ridge": float("nan")}, "ridge"),
    "analyze level string": ("analyze", {"level": "0.9"}, "level"),
    "analyze weight_threshold bool": ("analyze", {"weight_threshold": True}, "weight_threshold"),
    "analyze output null": ("analyze", {"output": None}, "output"),
    "analyze schema x ints": ("analyze", {"schema": {**SCHEMA, "x": [1]}}, "x"),
    "validate output int": ("validate", {"output": 3}, "output"),
}


@pytest.mark.parametrize("command, changes, key", WRONG.values(), ids=list(WRONG))
def test_wrong_json_type_exits_2_naming_the_key(
    tmp_path, write_config, capsys, command, changes, key
):
    if command == "simulate":
        payload = {"scenario": "D1", "reps": 2, "n": [50, 50], "truth_draws": 1000}
    else:
        payload = {"input": str(FIXTURE_CSV), "schema": SCHEMA}
    payload = {**payload, "output": str(tmp_path / "out.json"), **changes}
    assert main([command, write_config(payload), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert repr(key) in error["message"]
    assert not (tmp_path / "out.json").exists()


@dataclasses.dataclass(frozen=True)
class _Inner:
    flag: object
    values: object


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    by_arm: dict
    pair: tuple


def test_dump_gives_strict_json_values():
    record = _Outer(
        inner=_Inner(flag=np.bool_(True), values=np.array([1.5, np.nan, 3.0])),
        by_arm={0: np.float64(np.inf), 1: np.int64(7)},
        pair=(np.float32(0.5), float("-inf")),
    )
    out = dump(record)
    assert out == {
        "inner": {"flag": True, "values": [1.5, None, 3.0]},
        "by_arm": {"0": None, "1": 7},
        "pair": [0.5, None],
    }
    assert type(out["inner"]["flag"]) is bool
    assert type(out["by_arm"]["1"]) is int
    assert type(out["pair"][0]) is float
    json.dumps(out, allow_nan=False)
