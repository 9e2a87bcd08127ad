"""Every bad argument to a library entry point is a ConfigError, which is also
a ValueError, whose message names the argument, raised before any work."""

import dataclasses
import math

import pytest

from trialbench import (
    AnalysisPlan,
    ConfigError,
    ConfoundingViolation,
    CovariateLaw,
    TransportViolation,
    bootstrap,
    d1,
    diagnostics,
    fit_nuisances,
    generate,
    inference,
    overlap_summary,
    restriction_test,
    run_monte_carlo,
    run_plan,
    sandwich_ci,
    simulation,
    true_values,
)
from trialbench.config import SimulationConfig
from trialbench.data import cell_table

D = generate(d1(), (200, 200), 3)
PLAN = AnalysisPlan("continuous", ("phi",), (1,))
NU = fit_nuisances(D, "continuous")
ESTIMATE = run_plan(D, PLAN)["phi(1)"]
LAW = d1(confounding=ConfoundingViolation())
NAN, INF = math.nan, math.inf

# (entry point, its keyword arguments when they are good)
GOOD = {
    "bootstrap": (bootstrap, {"d": D, "plan": PLAN, "B": 2, "seed": 0}),
    "run_monte_carlo": (run_monte_carlo, {"cfg": d1(), "reps": 2, "n": (50, 50), "seed": 0}),
    "generate": (generate, {"cfg": d1(), "n": (5, 5), "seed": 0}),
    "SimulationConfig": (SimulationConfig, {"scenario": "D1", "reps": 2, "n": (5, 5)}),
    "true_values": (true_values, {"cfg": d1()}),
    "restriction_test": (restriction_test, {"d": D, "a": 1, "outcome_kind": "continuous"}),
    "overlap_summary": (overlap_summary, {"d": D, "nu": NU}),
    "sandwich_ci": (sandwich_ci, {"e": ESTIMATE}),
    "percentile_interval": (
        lambda **kw: inference.BootstrapResult("phi(1)", [1.0, 2.0], 2, 0, 0).percentile_interval(**kw),
        {"point": 1.5},
    ),
    "AnalysisPlan": (AnalysisPlan, {"outcome_kind": "continuous"}),
    "CovariateLaw": (CovariateLaw, {"kind": "binary"}),
    "gaussian CovariateLaw": (CovariateLaw, {"kind": "gaussian"}),
    "ConfoundingViolation": (ConfoundingViolation, {}),
    "TransportViolation": (TransportViolation, {}),
    "ScenarioConfig": (lambda **kw: dataclasses.replace(LAW, **kw), {}),
    "cell_table": (cell_table, {"d": D, "outcome_kind": "continuous"}),
}

# (entry point, the argument, its bad values)
BAD = [
    ("bootstrap", "B", [1, 0, -3, 2.5, 200.0, True]),
    ("bootstrap", "seed", [-1, 1.5]),
    ("bootstrap", "workers", [0, -2, 2.0, True]),
    ("run_monte_carlo", "reps", [1, 2.5, 40.0]),
    ("run_monte_carlo", "n", [(0, 5), (5, -1), (3.9, 5), (50, 50.0), 5, (50,), (50, 50, 50)]),
    ("run_monte_carlo", "truth_draws", [0, -5, 1000.5]),
    ("run_monte_carlo", "level", [0.0, 1.0, -0.5, NAN, "0.9"]),
    ("run_monte_carlo", "restriction_threshold", [0.0, 1.5, NAN]),
    ("run_monte_carlo", "seed", [-1, 0.5]),
    ("run_monte_carlo", "workers", [0, 1.5]),
    ("run_monte_carlo", "ridge", [-1.0, NAN, INF]),
    ("run_monte_carlo", "estimators", [("xi",), ()]),
    ("run_monte_carlo", "arms", [(2,), (0, 0)]),
    ("generate", "n", [(0, 5), (3.9, 5), (5, 2.0), (True, 5), 5, (50,), (50, 50, 50)]),
    ("generate", "seed", [-1, 2.5]),
    ("SimulationConfig", "n", [5, (50,), (1, 2, 3), (0, 5)]),
    ("true_values", "draws", [0, -5, 2.5]),
    ("restriction_test", "a", [2, -1, "1"]),
    ("restriction_test", "threshold", [0.0, 1.0, NAN]),
    ("restriction_test", "outcome_kind", ["ordinal"]),
    ("overlap_summary", "weight_threshold", [0.0, -1.0, NAN, INF]),
    ("sandwich_ci", "level", [0.0, 1.0, NAN]),
    ("percentile_interval", "level", [0.0, 1.5]),
    ("AnalysisPlan", "outcome_kind", ["ordinal"]),
    ("AnalysisPlan", "estimators", [("phi", "phi"), ("xi",), ()]),
    ("AnalysisPlan", "arms", [(2,), (True,), (0, 0), (), ("1",)]),
    ("AnalysisPlan", "ridge", [-1.0, NAN, INF]),
    ("CovariateLaw", "kind", ["uniform"]),
    ("CovariateLaw", "p", [(0.0,), (0.5, 1.0), (NAN,)]),
    ("gaussian CovariateLaw", "dim", [0, 1.5]),
    ("ConfoundingViolation", "u_prob", [0.0, 1.0]),
    ("TransportViolation", "u_prob", [-0.1, NAN]),
    ("ScenarioConfig", "trial_arm_prob", [0.0, 1.0, NAN]),
    ("ScenarioConfig", "noise_sd", [-1.0, NAN, INF]),
    ("ScenarioConfig", "outcome_kind", ["ordinal"]),
    ("cell_table", "outcome_kind", ["ordinal", None]),
]
CASES = [(entry, key, value) for entry, key, values in BAD for value in values]


class WorkBegan(Exception):
    """Raised by every stand-in for work: a replicate, a draw, a fit, the truths."""


@pytest.fixture()
def work(monkeypatch):
    """The work each entry point starts, stubbed to count its calls and stop."""
    calls = []

    def stub(name):
        def began(*args, **kwargs):
            calls.append(name)
            raise WorkBegan(name)

        return began

    for owner, name in [
        (simulation, "replicate_estimates"),
        (simulation, "_draw_stream"),
        (simulation, "_enumeration_truths"),
        (simulation, "_importance_truths"),
        (inference, "bootstrap_chunk"),
        (diagnostics, "fit_cells"),
        (diagnostics, "predictions"),
    ]:
        monkeypatch.setattr(owner, name, stub(name))
    return calls


@pytest.mark.parametrize("entry", ["bootstrap", "run_monte_carlo", "generate", "true_values",
                                   "restriction_test", "overlap_summary"])
def test_good_arguments_reach_the_stubbed_work(work, entry):
    # So the stubs stand where the work starts, and the test below sees it.
    call, kwargs = GOOD[entry]
    with pytest.raises(WorkBegan):
        call(**kwargs)
    assert len(work) == 1


@pytest.mark.parametrize("entry, key, value", CASES, ids=[f"{e}-{k}-{v!r}" for e, k, v in CASES])
def test_bad_argument_is_a_config_error_naming_it_before_any_work(work, entry, key, value):
    call, kwargs = GOOD[entry]
    with pytest.raises(ConfigError) as raised:
        call(**{**kwargs, key: value})
    assert isinstance(raised.value, ValueError)
    assert repr(key) in str(raised.value)
    assert work == []
