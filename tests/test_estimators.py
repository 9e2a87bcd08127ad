import numpy as np
import pytest

from trialbench import (
    AnalysisPlan,
    Dataset,
    IncompatibleEstimatesError,
    PositivityError,
    contrast,
    estimate_chi,
    estimate_phi,
    estimate_psi,
    fit_nuisances,
    run_plan,
)
from trialbench.glm import LinearModel, LogisticModel
from trialbench.nuisance import NuisanceSet

from conftest import estimate_with_if_values


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
