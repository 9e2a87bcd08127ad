import json

import numpy as np
import pytest

from trialbench import (
    AnalysisPlan,
    Dataset,
    EstimateWithIF,
    IncompatibleEstimatesError,
    PositivityError,
    contrast,
    estimate_chi,
    estimate_phi,
    estimate_psi,
    fit_nuisances,
    generate,
    run_plan,
    run_plan_with,
    truth_table,
)
from trialbench.config import SimulationConfig
from trialbench.glm import LinearModel, LogisticModel
from trialbench.nuisance import NuisanceSet

from conftest import REPO_ROOT, estimate_with_if_values


def nonparametric_standardization(d: Dataset, a: int) -> float:
    """Cell-mean oracle: average E[Y | S=0, A=a, X=x] over the S=0 law of X."""
    s0 = d.s == 0
    total = 0.0
    for xv in np.unique(d.x[s0, 0]):
        cell = d.x[:, 0] == xv
        weight = float(np.mean(d.x[s0, 0] == xv))
        total += weight * float(np.mean(d.y[s0 & cell & (d.a == a)]))
    return total


def duplicated_studies() -> Dataset:
    """Trial and emulation that are literal copies of each other."""
    rng = np.random.default_rng(5)
    m = 500
    x = rng.integers(0, 2, m).astype(float)[:, None]
    a = rng.integers(0, 2, m)
    y = 1.0 + x[:, 0] + 2.0 * a + rng.normal(size=m)
    return Dataset(
        x=np.vstack([x, x]),
        s=np.repeat([1, 0], m),
        a=np.concatenate([a, a]),
        y=np.concatenate([y, y]),
        covariate_names=("X1",),
    )


def test_phi_matches_nonparametric_oracle(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous")
    for arm in (0, 1):
        est = estimate_phi(small_dataset, nu, arm)
        assert est.value == pytest.approx(
            nonparametric_standardization(small_dataset, arm), abs=1e-10
        )


def test_constant_outcome_is_returned_exactly():
    rng = np.random.default_rng(1)
    n = 200
    d = Dataset(
        x=rng.integers(0, 2, n).astype(float)[:, None],
        s=np.repeat([1, 0], n // 2),
        a=rng.integers(0, 2, n),
        y=np.full(n, 5.0),
        covariate_names=("X1",),
    )
    nu = fit_nuisances(d, "continuous")
    for est in (estimate_phi, estimate_chi, estimate_psi):
        assert est(d, nu, 1).value == pytest.approx(5.0, abs=1e-10)


def test_identical_studies_make_all_three_agree():
    d = duplicated_studies()
    nu = fit_nuisances(d, "continuous")
    for arm in (0, 1):
        phi = estimate_phi(d, nu, arm)
        chi = estimate_chi(d, nu, arm)
        psi = estimate_psi(d, nu, arm)
        assert chi.value == pytest.approx(phi.value, abs=1e-8)
        assert psi.value == pytest.approx(phi.value, abs=1e-8)


def test_chi_reduces_to_transported_mean_when_trial_fit_interpolates():
    x1 = np.array([0.0, 0.0, 1.0, 1.0])
    d = Dataset(
        x=np.concatenate([np.tile(x1, 2), x1])[:, None],
        s=np.array([1] * 8 + [0] * 4),
        a=np.array([0, 1, 0, 1] * 3),
        y=np.concatenate([2.0 + 3.0 * np.tile(x1, 2), [5.0, 1.0, 2.0, 7.0]]),
        covariate_names=("X1",),
    )
    nu = fit_nuisances(d, "continuous")
    for arm in (0, 1):
        est = estimate_chi(d, nu, arm)
        # trial outcomes are an exact line, so the residual term vanishes
        assert est.value == pytest.approx(2.0 + 3.0 * 0.5, abs=1e-12)


def test_location_equivariance(small_dataset):
    shift = 17.5
    shifted = Dataset(
        x=small_dataset.x,
        s=small_dataset.s,
        a=small_dataset.a,
        y=small_dataset.y + shift,
        covariate_names=small_dataset.covariate_names,
    )
    nu = fit_nuisances(small_dataset, "continuous")
    nu_shifted = fit_nuisances(shifted, "continuous")
    for func in (estimate_phi, estimate_chi, estimate_psi):
        base = func(small_dataset, nu, 1)
        moved = func(shifted, nu_shifted, 1)
        assert moved.value - base.value == pytest.approx(shift, abs=1e-10)


def test_influence_values_are_centered_with_positive_variance(fixture_dataset):
    results = run_plan(fixture_dataset, AnalysisPlan(outcome_kind="continuous"))
    for label, est in results.items():
        assert abs(float(np.mean(est.if_values))) < 1e-10 * (1.0 + abs(est.value)), label
        assert float(np.var(est.if_values)) > 0.0


def test_off_center_influence_values_are_rejected():
    with pytest.raises(ValueError, match="off-center"):
        estimate_with_if_values(
            label="bad", value=1.0, if_values=np.ones(10), n_effective=10
        )


def test_contrast_of_estimate_with_itself_is_zero(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, "continuous")
    phi = estimate_phi(fixture_dataset, nu, 1)
    diff = contrast(phi, phi, label="zero")
    assert diff.value == 0.0
    assert np.all(diff.if_values == 0.0)


def test_contrast_rejects_mismatched_lengths(fixture_dataset, small_dataset):
    nu_a = fit_nuisances(fixture_dataset, "continuous")
    nu_b = fit_nuisances(small_dataset, "continuous")
    a = estimate_phi(fixture_dataset, nu_a, 1)
    b = estimate_phi(small_dataset, nu_b, 1)
    with pytest.raises(IncompatibleEstimatesError):
        contrast(a, b)


# Outcomes whose mean is 0: alpha 1 and beta 0 centre their influence values.
CENTRED = [1.0, -1.0, 1.0, -1.0]


def stacked_estimate(t, value, beta) -> EstimateWithIF:
    """One estimate per entry of ``value`` on the stacked table ``t``, each
    with alpha 1 and its row of ``beta``; no error met before construction."""
    k, m = t.count.shape
    return EstimateWithIF(
        label="unit",
        value=np.asarray(value, dtype=float),
        table=t,
        alpha=np.ones((k, m)),
        beta=np.asarray(beta, dtype=float),
        n_effective=np.full(k, m),
        errors=[None] * k,
    )


def test_a_stacked_estimate_records_a_failed_check_in_its_row_only():
    single = estimate_with_if_values(label="unit", value=0.5, if_values=CENTRED, n_effective=4)
    t = single.table
    every_row = np.arange(4)
    beta = np.zeros((3, 4))
    beta[2] = 1.0  # the influence values of row 2 average 1
    e = stacked_estimate(t.resample([every_row] * 3), [0.5, np.nan, 0.5], beta)
    assert e.errors[0] is None
    assert str(e.errors[1]) == "unit: estimate is not finite"
    assert str(e.errors[2]) == "unit: influence values are off-center by 1.000e+00"
    alone = [stacked_estimate(t.resample([every_row]), [v], [b]) for v, b in zip(e.value, beta)]
    kept = alone[0].only(t)
    assert (kept.value, kept.table, kept.n_effective) == (0.5, t, 4)
    np.testing.assert_array_equal(kept.if_values, single.if_values)
    for r in (1, 2):
        with pytest.raises(ValueError) as raised:
            alone[r].only(t)
        assert str(raised.value) == str(e.errors[r])


def test_contrast_of_two_stacks_keeps_the_first_error_either_parent_met():
    t = estimate_with_if_values(label="unit", value=0.0, if_values=CENTRED, n_effective=4).table
    stack = t.resample([np.arange(4), np.arange(4), np.arange(4), [0, 1]])
    off_center = np.zeros((4, 4))
    off_center[0] = 1.0
    first = stacked_estimate(stack, [np.nan, 0.5, 0.5, 0.5], np.zeros((4, 4)))
    second = stacked_estimate(stack, [0.5, np.inf, 0.25, 0.5], off_center)
    assert [str(e) for e in second.errors[:2]] == [
        "unit: influence values are off-center by 1.000e+00",
        "unit: estimate is not finite",
    ]
    diff = contrast(first, second, label="diff")
    assert diff.errors[:2] == [first.errors[0], second.errors[1]]
    assert diff.errors[2:] == [None, None]
    np.testing.assert_array_equal(diff.value[2:], [0.25, 0.0])
    np.testing.assert_array_equal(diff.n_effective, np.full(4, 4))
    np.testing.assert_array_equal(diff.tolerance, first.tolerance + second.tolerance)


def test_contrast_of_estimates_from_different_tables_is_refused():
    a = estimate_with_if_values(label="a", value=0.5, if_values=CENTRED, n_effective=4)
    b = estimate_with_if_values(label="b", value=0.5, if_values=CENTRED, n_effective=4)
    with pytest.raises(IncompatibleEstimatesError, match="cannot contrast a with b"):
        contrast(a, b)
    every_row = np.arange(4)
    stacks = [stacked_estimate(a.table.resample([every_row]), [0.5], [np.zeros(4)]) for _ in (a, b)]
    with pytest.raises(IncompatibleEstimatesError):
        contrast(*stacks)


def _degenerate_propensity_nuisances(d: Dataset) -> NuisanceSet:
    flat = LogisticModel(
        coefficients=np.array([0.0, 0.0]), converged=True, iterations=0, log_likelihood=0.0
    )
    # arm-1 probability numerically zero everywhere
    pinned = LogisticModel(
        coefficients=np.array([-800.0, 0.0]), converged=True, iterations=0, log_likelihood=0.0
    )
    line = LinearModel(coefficients=np.array([0.0, 0.0]), residual_variance=1.0)
    return NuisanceSet(
        participation=flat,
        propensity={"s0": pinned, "s1": pinned, "pooled": pinned},
        outcome={(s, a): line for s in ("s0", "s1", "pooled") for a in (0, 1)},
        outcome_kind="continuous",
        covariate_names=d.covariate_names,
    )


def test_positivity_floor_raises_and_names_rows(toy_dataset):
    nu = _degenerate_propensity_nuisances(toy_dataset)
    with pytest.raises(PositivityError, match="rows \\["):
        estimate_phi(toy_dataset, nu, 1)
    with pytest.raises(PositivityError):
        estimate_psi(toy_dataset, nu, 1)
    # arm 0 gets probability one minus zero, so it stays estimable
    assert np.isfinite(estimate_phi(toy_dataset, nu, 0).value)


def test_hajek_is_noop_when_weights_self_normalize(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous")
    plain = estimate_phi(small_dataset, nu, 1)
    scaled = estimate_phi(small_dataset, nu, 1, hajek=True)
    # saturated propensity makes the weights sum to n0 already
    assert scaled.value == pytest.approx(plain.value, abs=1e-6)


def test_hajek_changes_value_when_weights_drift(small_dataset):
    # A ridge-shrunk propensity is not the saturated MLE, so its inverse
    # weights no longer sum to n0; an intercept-only propensity would (its
    # fitted probability is the treated share), making Hajek a no-op.
    nu = fit_nuisances(small_dataset, "continuous", ridge=50.0, drop={"outcome_s0": ["X1"]})
    plain = estimate_phi(small_dataset, nu, 1)
    scaled = estimate_phi(small_dataset, nu, 1, hajek=True)
    assert abs(scaled.value - plain.value) > 1e-4


def test_run_plan_emits_expected_labels(fixture_dataset):
    results = run_plan(fixture_dataset, AnalysisPlan(outcome_kind="continuous"))
    expected = {
        "phi(0)", "phi(1)", "chi(0)", "chi(1)", "psi(0)", "psi(1)",
        "ate_phi", "ate_chi", "ate_psi", "delta(0)", "delta(1)",
    }
    assert set(results) == expected
    assert results["ate_phi"].value == pytest.approx(
        results["phi(1)"].value - results["phi(0)"].value, abs=1e-12
    )
    assert results["delta(1)"].value == pytest.approx(
        results["phi(1)"].value - results["chi(1)"].value, abs=1e-12
    )


def test_run_plan_single_arm_omits_contrasts(fixture_dataset):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi", "psi"), arms=(1,))
    results = run_plan(fixture_dataset, plan)
    assert set(results) == {"phi(1)", "psi(1)"}


def test_plan_rejects_bad_requests():
    with pytest.raises(ValueError):
        AnalysisPlan(outcome_kind="continuous", estimators=())
    with pytest.raises(ValueError):
        AnalysisPlan(outcome_kind="continuous", arms=(2,))
    with pytest.raises(ValueError):
        AnalysisPlan(outcome_kind="continuous", estimators=("phi", "phi"))


@pytest.mark.parametrize(
    "request_, key",
    [
        ({"estimators": ("phi", "rho")}, "estimators"),
        ({"arms": (1, 1)}, "arms"),
        ({"arms": (True, 0)}, "arms"),
        ({"outcome_kind": "count"}, "outcome_kind"),
        ({"ridge": float("nan")}, "ridge"),
        ({"ridge": -1.0}, "ridge"),
        ({"ridge": float("inf")}, "ridge"),
    ],
)
def test_plan_error_names_the_key(request_, key):
    with pytest.raises(ValueError, match=repr(key)):
        AnalysisPlan(**{"outcome_kind": "continuous", **request_})


@pytest.mark.parametrize(
    "estimators, arms, ate, delta",
    [
        (("phi", "chi", "psi"), (0, 1), ["phi", "chi", "psi"], [0, 1]),
        (("psi", "chi"), (1, 0), ["psi", "chi"], []),
        (("chi", "phi"), (1,), [], [1]),
        (("psi",), (0,), [], []),
    ],
)
def test_plan_contrasts_follow_its_arms_and_estimators(estimators, arms, ate, delta):
    contrasts = AnalysisPlan("continuous", estimators, arms).contrasts()
    assert list(contrasts["ate"]) == ate
    assert list(contrasts["delta"]) == delta
    assert contrasts["ate"].get("chi") in (None, ("ate_chi", "chi(1)", "chi(0)"))
    assert contrasts["delta"].get(1) in (None, ("delta(1)", "phi(1)", "chi(1)"))


def _predicted_models(monkeypatch, d: Dataset, nu: NuisanceSet, plan: AnalysisPlan) -> list:
    """The models one run_plan_with call predicts, once per prediction."""
    predicted = []
    for cls in (LogisticModel, LinearModel):

        def counting(model, x, predict=cls.predict):
            predicted.append(model)
            return predict(model, x)

        monkeypatch.setattr(cls, "predict", counting)
    run_plan_with(d, nu, plan)
    return predicted


def test_run_plan_with_predicts_each_model_it_reads_once(fixture_dataset, monkeypatch):
    nu = fit_nuisances(fixture_dataset, "continuous")
    predicted = _predicted_models(monkeypatch, fixture_dataset, nu, AnalysisPlan("continuous"))
    every = [nu.participation, *nu.propensity.values(), *nu.outcome.values()]
    assert len(predicted) == 10
    assert sorted(map(id, predicted)) == sorted(map(id, every))


def test_phi_chi_arm_one_plan_predicts_its_five_models(monkeypatch):
    config = json.loads((REPO_ROOT / "configs" / "simulate_confounded.json").read_text())
    plan = SimulationConfig.from_dict(config).plan
    assert (plan.estimators, plan.arms) == (("phi", "chi"), (1,))
    d = generate(truth_table("FT"), (2_000, 2_000), seed=5)
    nu = fit_nuisances(d, plan.outcome_kind)
    predicted = _predicted_models(monkeypatch, d, nu, plan)
    read = [
        nu.participation,
        nu.propensity["s0"],
        nu.propensity["s1"],
        nu.outcome[("s0", 1)],
        nu.outcome[("s1", 1)],
    ]
    assert sorted(map(id, predicted)) == sorted(map(id, read))
