"""The cell-count bootstrap against a row-by-row oracle.

``bootstrap_replicate`` refits each replicate on the dataset's cell table
with every row weighted by the number of times the resample drew it. The
oracle kept here is the analysis of the resampled rows themselves: it copies
them with ``Dataset.subset``, fits every nuisance model on those rows, and
evaluates the three AIPW estimators row by row.
"""

import numpy as np
import pytest

from trialbench import (
    AnalysisPlan,
    DegenerateFitError,
    FitError,
    NuisanceSet,
    PositivityError,
    ScenarioConfig,
    fit_nuisances,
    generate,
    run_plan,
)
from trialbench import inference
from trialbench.data import Dataset
from trialbench.estimators import PROPENSITY_FLOOR
from trialbench.glm import add_intercept, fit_linear, fit_logistic

RTOL = 1e-10
STRATA = {"s0": 0, "s1": 1, "pooled": None}


def _oracle_nuisances(d: Dataset, outcome_kind: str) -> NuisanceSet:
    def fit(tag, rows, response, logistic):
        design = add_intercept(d.x[rows])
        try:
            if logistic:
                return fit_logistic(design, response[rows])
            return fit_linear(design, response[rows])
        except FitError as exc:
            raise type(exc)(f"{tag}: {exc}") from exc
        except ValueError as exc:
            raise DegenerateFitError(f"{tag}: {exc}") from exc

    def in_stratum(stratum):
        s = STRATA[stratum]
        return np.ones(d.n, dtype=bool) if s is None else d.s == s

    participation = fit("participation", in_stratum("pooled"), d.s.astype(float), True)
    propensity = {
        stratum: fit(f"propensity_{stratum}", in_stratum(stratum), d.a.astype(float), True)
        for stratum in STRATA
    }
    outcome = {}
    for stratum in STRATA:
        for arm in (0, 1):
            rows = in_stratum(stratum) & (d.a == arm)
            tag = f"outcome_{stratum} arm {arm}"
            if not np.any(rows):
                raise DegenerateFitError(f"{tag}: no rows in this stratum")
            outcome[(stratum, arm)] = fit(tag, rows, d.y, outcome_kind == "binary")
    return NuisanceSet(
        models={
            "participation": participation,
            **{f"propensity_{stratum}": model for stratum, model in propensity.items()},
            **{f"outcome_{stratum}_arm{arm}": model for (stratum, arm), model in outcome.items()},
        },
        outcome_kind=outcome_kind,
        covariate_names=d.covariate_names,
    )


def _oracle_estimate(d: Dataset, nu: NuisanceSet, name: str, a: int, hajek: bool):
    """(value, influence values) by the AIPW formulas, one row at a time."""
    stratum = {"phi": "s0", "chi": "s1", "psi": "pooled"}[name]
    s0 = d.s == 0
    n0 = d.n_emulation
    g = nu.models[f"outcome_{stratum}_arm{a}"].predict(d.x)
    e1 = nu.models[f"propensity_{stratum}"].predict(d.x)
    e = e1 if a == 1 else 1.0 - e1
    p = nu.models["participation"].predict(d.x)
    weighted = {"phi": s0, "chi": ~s0, "psi": np.ones(d.n, dtype=bool)}[name] & (d.a == a)
    for prob in [e, p] if name == "chi" else [e]:
        if np.any(weighted & (prob < PROPENSITY_FLOOR)):
            raise PositivityError(f"{name}({a}): below the floor")
    w = np.zeros(d.n)
    ew, pw = e[weighted], p[weighted]
    w[weighted] = {"phi": 1.0 / ew, "chi": (1.0 - pw) / pw / ew, "psi": (1.0 - pw) / ew}[name]
    if hajek:
        total = float(np.sum(w[weighted]))
        if total <= 0.0:
            raise PositivityError("renormalization impossible")
        w *= n0 / total
    residual = np.where(weighted, w * (d.y - g), 0.0)
    value = float((np.sum(g[s0]) + np.sum(residual)) / n0)
    if_values = (d.n / n0) * (residual + np.where(s0, g - value, 0.0))
    return value, if_values


def _oracle_plan(d: Dataset, plan: AnalysisPlan) -> dict:
    nu = _oracle_nuisances(d, plan.outcome_kind)
    out = {
        f"{name}({arm})": _oracle_estimate(d, nu, name, arm, plan.hajek)
        for name in plan.estimators
        for arm in plan.arms
    }
    if 0 in plan.arms and 1 in plan.arms:
        for name in plan.estimators:
            (v1, f1), (v0, f0) = out[f"{name}(1)"], out[f"{name}(0)"]
            out[f"ate_{name}"] = (v1 - v0, f1 - f0)
    if "phi" in plan.estimators and "chi" in plan.estimators:
        for arm in plan.arms:
            (vp, fp), (vc, fc) = out[f"phi({arm})"], out[f"chi({arm})"]
            out[f"delta({arm})"] = (vp - vc, fp - fc)
    return out


def _resampled_rows(d: Dataset, seed: int, index: int) -> np.ndarray:
    rng = inference._replicate_rng(seed, index)
    trial_rows = np.flatnonzero(d.s == 1)
    emulation_rows = np.flatnonzero(d.s == 0)
    take_trial = trial_rows[rng.integers(0, trial_rows.size, trial_rows.size)]
    take_emulation = emulation_rows[rng.integers(0, emulation_rows.size, emulation_rows.size)]
    return np.concatenate([take_trial, take_emulation])


def _outcome(call):
    """The replicate's values, or the class of the FitError it raised."""
    try:
        return call()
    except FitError as exc:
        return type(exc)


def _assert_replicates_match(d: Dataset, plan: AnalysisPlan, seed: int, indices) -> int:
    """Compare each replicate with the oracle; return how many failed on both paths."""
    failed = 0
    for index in indices:
        expected = _outcome(lambda: _oracle_plan(d.subset(_resampled_rows(d, seed, index)), plan))
        got = _outcome(lambda: inference.bootstrap_replicate(d, plan, seed, index))
        if isinstance(expected, type):
            assert got is expected, f"replicate {index}: {got!r} instead of {expected.__name__}"
            failed += 1
            continue
        assert not isinstance(got, type), f"replicate {index} raised {got.__name__}"
        assert list(got) == list(expected), index
        for label, (value, _) in expected.items():
            assert abs(got[label] - value) <= RTOL * abs(value), (index, label, got[label], value)
    return failed


def test_fixture_replicates_match_row_oracle(fixture_dataset):
    # The analyze_d1 plan: 20k rows in 8 cells, every estimator, both arms.
    assert fixture_dataset.cells(False).count.size == 8
    plan = AnalysisPlan(outcome_kind="continuous")
    assert _assert_replicates_match(fixture_dataset, plan, 20260819, range(200)) == 0


def test_uncompressed_replicates_match_row_oracle():
    # Gaussian covariates: every row its own cell, so the weighted fits run on rows.
    scenario = ScenarioConfig.from_dict(
        {
            "covariates": {"kind": "gaussian", "dim": 3},
            "participation": [-0.3, 0.5, -0.4, 0.3],
            "trial_arm_prob": 0.5,
            "emulation_propensity": [-0.2, 0.4, 0.3, -0.5],
            "outcome_intercept": -0.5,
            "outcome_x": [0.6, -0.4, 0.3],
            "outcome_treatment": 0.8,
            "outcome_tx": [0.3, 0.0, -0.2],
            "outcome_kind": "binary",
        }
    )
    d = generate(scenario, (400, 400), seed=5)
    assert d.cells(True).count.size == d.n
    plan = AnalysisPlan(outcome_kind="binary", hajek=True)
    assert _assert_replicates_match(d, plan, 17, range(30)) == 0


def test_failing_resamples_fail_alike():
    # 40 rows per study, binary covariate and outcome (16 cells at most); the
    # trial treats 3 rows, so some resamples lose a model's rows or classes.
    rng = np.random.default_rng(8)
    n = 40
    x = rng.integers(0, 2, 2 * n).astype(float)[:, None]
    s = np.repeat([1, 0], n)
    a = np.concatenate([np.arange(n) < 3, rng.integers(0, 2, n)]).astype(int)
    y = (rng.random(2 * n) < 0.3 + 0.4 * x[:, 0]).astype(float)
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=("X1",))
    assert d.cells(True).count.size <= 16
    plan = AnalysisPlan(outcome_kind="binary", estimators=("phi", "chi"))
    failed = _assert_replicates_match(d, plan, 3, range(200))
    assert 0 < failed < 200


def test_fixture_influence_values_match_row_oracle(fixture_dataset):
    plan = AnalysisPlan(outcome_kind="continuous")
    expected_models = _oracle_nuisances(fixture_dataset, "continuous").summaries()
    got_models = fit_nuisances(fixture_dataset, "continuous").summaries()
    for name, entry in expected_models.items():
        for key, value in entry.items():
            values = value.items() if key == "coefficients" else [(key, value)]
            for field, number in values:
                other = got_models[name][key]
                other = other[field] if key == "coefficients" else other
                assert other == pytest.approx(number, rel=RTOL, abs=0.0), (name, field)

    expected = _oracle_plan(fixture_dataset, plan)
    got = run_plan(fixture_dataset, plan)
    assert list(got) == list(expected)
    for label, (value, if_values) in expected.items():
        assert got[label].value == pytest.approx(value, rel=RTOL, abs=0.0), label
        scale = float(np.max(np.abs(if_values)))
        assert np.max(np.abs(got[label].if_values - if_values)) <= RTOL * scale, label
