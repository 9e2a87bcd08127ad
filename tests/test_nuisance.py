import contextlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbench import (
    AnalysisPlan,
    ConfigError,
    DegenerateFitError,
    Dataset,
    DomainError,
    FitError,
    ScenarioConfig,
    SingularDesignError,
    d1,
    fit_nuisances,
    generate,
)
from trialbench import diagnostics, glm, inference, nuisance, simulation
from trialbench.data import cell_table
from trialbench.errors import record
from trialbench.glm import add_intercept, fit_linear_stack, fit_logistic_stack
from trialbench.nuisance import MODEL_NAMES, normalize_drop


def test_fits_every_model_with_full_arity(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous")
    assert nu.participation.coefficients.size == small_dataset.k + 1
    for stratum in ("s0", "s1", "pooled"):
        assert nu.propensity[stratum].coefficients.size == small_dataset.k + 1
        for arm in (0, 1):
            assert nu.outcome[(stratum, arm)].coefficients.size == small_dataset.k + 1


def test_participation_recovers_design(small_dataset):
    # equal study sizes turn the sampling law into a logit shifted by log(n1/n0)
    nu = fit_nuisances(small_dataset, "continuous")
    intercept, slope = nu.participation.coefficients
    assert abs(intercept + 0.4) < 0.15
    assert abs(slope - 0.8) < 0.2


def test_pooled_outcome_recovers_generating_mean(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, "continuous")
    coef = nu.outcome[("pooled", 1)].coefficients
    assert abs(coef[0] - 3.0) < 0.05
    assert abs(coef[1] - 2.0) < 0.05


def test_treatment_prob_complements(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous")
    x = small_dataset.x[:10]
    p1 = nu.treatment_prob(x, 1, "s0")
    p0 = nu.treatment_prob(x, 0, "s0")
    assert np.allclose(p1 + p0, 1.0)


def test_drop_produces_zero_slope_but_keeps_arity(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous", drop={"outcome_s0": ["X1"]})
    for arm in (0, 1):
        assert nu.outcome[("s0", arm)].coefficients[1] == 0.0
        assert nu.outcome[("s0", arm)].coefficients.size == 2
    # untouched models keep their slopes
    assert nu.outcome[("s1", 1)].coefficients[1] != 0.0
    assert nu.dropped == {"outcome_s0": ("X1",)}


def test_bare_list_drop_means_first_covariate(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous", drop=["propensity_s0"])
    assert nu.propensity["s0"].coefficients[1] == 0.0


def test_normalize_drop_rejects_unknown_model():
    with pytest.raises(ConfigError, match="unknown nuisance model"):
        normalize_drop({"nope": ["X1"]}, ("X1",))


def test_normalize_drop_rejects_unknown_covariate():
    with pytest.raises(ConfigError, match="unknown covariate"):
        normalize_drop({"participation": ["X9"]}, ("X1",))


def test_normalize_drop_accepts_every_model_name():
    normalized = normalize_drop(list(MODEL_NAMES), ("X1", "X2"))
    assert set(normalized) == set(MODEL_NAMES)
    assert all(cols == ("X1",) for cols in normalized.values())


def test_failure_is_tagged_with_model_name():
    # trial propensity single-class: every trial row treated
    x = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [0.0], [1.0], [1.0]])
    d = Dataset(
        x=x,
        s=np.array([1, 1, 1, 1, 0, 0, 0, 0]),
        a=np.array([1, 1, 1, 1, 0, 1, 0, 1]),
        y=np.ones(8),
        covariate_names=("X1",),
    )
    with pytest.raises(DegenerateFitError, match="propensity_s1"):
        fit_nuisances(d, "continuous")


def test_outcome_failure_names_stratum_and_arm():
    # every design model is balanced; only the trial arm-1 outcome is single-class
    cell_x = [0.0, 0.0, 1.0, 1.0]
    mixed_y = [0.0, 1.0, 0.0, 1.0]
    x, s, a, y = [], [], [], []
    for s_val, a_val, ys in (
        (0, 0, mixed_y),
        (0, 1, mixed_y),
        (1, 0, mixed_y),
        (1, 1, [1.0, 1.0, 1.0, 1.0]),
    ):
        x += cell_x
        s += [s_val] * 4
        a += [a_val] * 4
        y += ys
    d = Dataset(
        x=np.array(x)[:, None],
        s=np.array(s),
        a=np.array(a),
        y=np.array(y),
        covariate_names=("X1",),
    )
    with pytest.raises(DegenerateFitError, match="outcome_s1 arm 1"):
        fit_nuisances(d, "binary")


def test_binary_outcome_kind_checks_domain(small_dataset):
    with pytest.raises(DomainError, match="binary"):
        fit_nuisances(small_dataset, "binary")


def test_binary_outcome_models_are_logistic(small_dataset):
    y = (small_dataset.y > np.median(small_dataset.y)).astype(float)
    d = Dataset(
        x=small_dataset.x,
        s=small_dataset.s,
        a=small_dataset.a,
        y=y,
        covariate_names=small_dataset.covariate_names,
    )
    nu = fit_nuisances(d, "binary")
    means = nu.outcome_mean(d.x[:5], 1, "pooled")
    assert np.all((means > 0.0) & (means < 1.0))


def test_summaries_are_json_ready(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous", drop={"outcome_s0": ["X1"]})
    out = nu.summaries()
    assert set(out) == {
        "participation",
        "propensity_s0",
        "propensity_s1",
        "propensity_pooled",
        "outcome_s0_arm0",
        "outcome_s0_arm1",
        "outcome_s1_arm0",
        "outcome_s1_arm1",
        "outcome_pooled_arm0",
        "outcome_pooled_arm1",
    }
    assert out["participation"]["converged"] is True
    assert out["outcome_s0_arm1"]["dropped_covariates"] == ["X1"]
    assert "residual_variance" in out["outcome_pooled_arm0"]
    assert out["propensity_s0"]["coefficients"].keys() == {"intercept", "X1"}


def test_a_summary_that_is_not_finite_is_a_fit_error_naming_it(small_dataset):
    nu = fit_nuisances(small_dataset, "continuous")
    pooled = replace(nu.propensity["pooled"], log_likelihood=float("-inf"))
    with pytest.raises(FitError, match="^nuisance propensity_pooled: log-likelihood is not finite$"):
        replace(nu, propensity={**nu.propensity, "pooled": pooled}).summaries()
    outcome = replace(nu.outcome[("s1", 0)], residual_variance=float("nan"))
    with pytest.raises(FitError, match="^nuisance outcome_s1_arm0: residual variance is not finite$"):
        replace(nu, outcome={**nu.outcome, ("s1", 0): outcome}).summaries()
    participation = replace(nu.participation, coefficients=np.array([0.0, np.inf]))
    with pytest.raises(FitError, match="^nuisance participation: a coefficient is not finite$"):
        replace(nu, participation=participation).summaries()


def test_invalid_outcome_kind_is_config_error(small_dataset):
    with pytest.raises(ConfigError, match="outcome_kind"):
        fit_nuisances(small_dataset, "counts")


# The law of the simulate_gauss benchmark workload: three standard normal
# covariates, so every row is a cell of its own.
GAUSSIAN_LAW = {
    "covariates": {"kind": "gaussian", "dim": 3},
    "participation": [-0.3, 0.5, -0.4, 0.3],
    "trial_arm_prob": 0.5,
    "emulation_propensity": [-0.2, 0.4, 0.3, -0.5],
    "outcome_intercept": -0.5,
    "outcome_x": [0.6, -0.4, 0.3],
    "outcome_treatment": 0.8,
    "outcome_tx": [0.3, 0.0, -0.2],
}
ALL_ESTIMATES = dict(estimators=("phi", "chi", "psi"), arms=(0, 1))


def _boolean_mask_fit_cells(t, mask, design, labels, tag, ridge=0.0):
    """nuisance.fit_cells as it was when it selected cells by boolean mask
    subscripts rather than np.compress."""
    count = t.count[:, mask]
    if labels is not None:
        model, errors = fit_logistic_stack(design, labels[..., mask], count, ridge=ridge)
    else:
        model, errors = fit_linear_stack(design, t.y_mean[:, mask], count)
    if any(errors):
        errors = [e and nuisance._tagged(e, tag) for e in errors]
    if labels is not None:
        return model, errors
    df = count.sum(axis=1) - design.shape[1]
    spread = np.divide(t.y_ss[:, mask].sum(axis=1), df, out=np.zeros(df.size), where=df > 0)
    variance = model.residual_variance + spread
    finite = np.isfinite(variance)
    record(errors, ~finite, lambda r: FitError(f"{tag}: residual variance is not finite"))
    return replace(model, residual_variance=variance), errors


def _select_by_boolean_masks(monkeypatch):
    monkeypatch.setattr(nuisance, "fit_cells", _boolean_mask_fit_cells)
    monkeypatch.setattr(diagnostics, "fit_cells", _boolean_mask_fit_cells)


@pytest.mark.parametrize("law", ["gaussian-binary", "gaussian-continuous", "d1"])
def test_replicate_equals_its_boolean_mask_selection(monkeypatch, law):
    # D1's one binary covariate leaves many rows per cell, so the linear fits
    # add a within-cell spread; a Gaussian law makes every row its own cell.
    if law == "d1":
        law = d1()
    else:
        law = ScenarioConfig.from_dict({**GAUSSIAN_LAW, "outcome_kind": law.split("-")[1]})
    plan = AnalysisPlan(outcome_kind=law.outcome_kind, **ALL_ESTIMATES)
    run = lambda: simulation.replicate_estimates(law, (3000, 3000), 7007, 2, plan, restriction=True)
    compressed = run()
    _select_by_boolean_masks(monkeypatch)
    masked = run()
    assert "restriction_p(0)" in compressed
    assert compressed == masked


@pytest.mark.parametrize("outcome_kind", ["binary", "continuous"])
def test_bootstrap_chunk_equals_its_boolean_mask_selection(monkeypatch, outcome_kind):
    law = ScenarioConfig.from_dict({**GAUSSIAN_LAW, "outcome_kind": outcome_kind})
    d = generate(law, (150, 150), seed=3)
    plan = AnalysisPlan(outcome_kind=outcome_kind, **ALL_ESTIMATES)
    table = cell_table(d, outcome_kind).resample(inference._Draws(d, 8, range(12)))
    assert (table.count == 0).any(axis=1).all()  # every replicate leaves cells empty
    compressed = inference.bootstrap_chunk(d, plan, 8, range(12))
    _select_by_boolean_masks(monkeypatch)
    masked = inference.bootstrap_chunk(d, plan, 8, range(12))
    for got, expected in zip(compressed, masked):
        if isinstance(expected, Exception):
            assert (type(got), str(got)) == (type(expected), str(expected))
        else:
            assert got == expected


def test_stacked_residual_variance_equals_the_stack_of_one():
    # 16 covariate patterns, so each outcome model sums the within-cell
    # spread over at least 8 cells: a sum whose bits follow its memory layout.
    rng = np.random.default_rng(3)
    n = 400
    x = (rng.random((n, 2)) < 0.5) + 2.0 * (rng.random((n, 2)) < 0.5)
    s, a = (rng.random((2, n)) < 0.5).astype(np.int64)
    y = x[:, 0] + a + 100.0 * rng.standard_normal(n)
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=("X1", "X2"))

    def fitted(indices):
        table = cell_table(d, "continuous").resample(inference._Draws(d, 5, indices))
        return fit_nuisances(table, "continuous")

    stack, alone = fitted([0, 1, 2]), fitted([1])
    for key, model in stack.outcome.items():
        assert model.residual_variance[1] == alone.outcome[key].residual_variance[0], key


def test_gaussian_replicate_makes_no_svd_and_a_singular_design_still_does(monkeypatch):
    # The Gram certificate passes every full-rank design of a replicate of
    # the simulate_gauss workload and of a bootstrap chunk whose replicates
    # leave cells empty; a rank-deficient one still reaches the SVD.
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    law = ScenarioConfig.from_dict({**GAUSSIAN_LAW, "outcome_kind": "binary"})
    plan = AnalysisPlan(outcome_kind="binary", **ALL_ESTIMATES)
    values = simulation.replicate_estimates(law, (10000, 10000), 7007, 0, plan, restriction=True)
    assert "restriction_p(1)" in values
    assert calls == []

    law = ScenarioConfig.from_dict({**GAUSSIAN_LAW, "outcome_kind": "continuous"})
    d = generate(law, (150, 150), seed=3)
    plan = AnalysisPlan(outcome_kind="continuous", **ALL_ESTIMATES)
    table = cell_table(d, "continuous").resample(inference._Draws(d, 8, range(12)))
    assert (table.count == 0).any(axis=1).all()  # every replicate leaves cells empty
    assert all(isinstance(v, dict) for v in inference.bootstrap_chunk(d, plan, 8, range(12)))
    assert calls == []
    names = (*d.covariate_names, "copy")
    copied = replace(d, x=np.column_stack([d.x, d.x[:, 2]]), covariate_names=names)
    for error in inference.bootstrap_chunk(copied, plan, 8, range(12)):
        assert isinstance(error, SingularDesignError)
        assert "participation: logistic fit: design column 4 is linearly dependent" in str(error)
    assert calls
    calls.clear()

    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 2))
    y = (rng.random(500) < 0.5).astype(float)
    with pytest.raises(SingularDesignError, match="design column 3 is linearly dependent"):
        glm.fit_logistic(add_intercept(np.column_stack([x, x[:, 1]])), y)
    assert calls[0] == (1, 500, 4)


def _parent_design(t, mask, tag, dropped, interactions):
    """The design of the fit ``tag`` on the cells ``mask``, built as the
    parent did: the cells' covariates, then their kept columns (an F-ordered
    copy), with the intercept, and for the restriction test the study terms,
    stacked on."""
    x = np.compress(mask, t.x, axis=0)
    if tag.startswith("restriction test"):
        s_col = np.compress(mask, t.s).astype(float)[:, None]
        blocks = [add_intercept(x), s_col]
        if interactions:
            blocks.append(x * s_col)
        return np.hstack(blocks)
    name = tag.split(" arm ")[0]
    keep = [j for j, c in enumerate(t.covariate_names) if c not in dropped.get(name, ())]
    return add_intercept(x[:, keep])


def _same_fit(got, expected):
    (model, errors), (model_ref, errors_ref) = got, expected
    assert type(model) is type(model_ref)
    for f in fields(model):
        a, b = np.asarray(getattr(model, f.name)), np.asarray(getattr(model_ref, f.name))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
    assert [(type(e), str(e)) for e in errors] == [(type(e), str(e)) for e in errors_ref]


@settings(max_examples=60, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 400),
    k=st.integers(1, 3),
    gaussian=st.booleans(),
    outcome_kind=st.sampled_from(["binary", "continuous"]),
    resamples=st.integers(0, 3),
    drop=st.dictionaries(st.sampled_from(MODEL_NAMES), st.sets(st.integers(0, 2), min_size=1)),
    interactions=st.booleans(),
)
def test_each_fit_gets_one_row_major_copy_of_the_parent_design(
    seed, n, k, gaussian, outcome_kind, resamples, drop, interactions
):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k)) if gaussian else rng.integers(0, 2, (n, k)).astype(float)
    s, a = rng.integers(0, 2, n), rng.integers(0, 2, n)
    mean = x @ rng.normal(size=k) + 0.5 * s + a
    y = mean + rng.normal(size=n) if outcome_kind == "continuous" else (rng.random(n) < 0.4).astype(float)
    names = tuple(f"X{j}" for j in range(k))
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=names)
    dropped = {m: tuple(names[j] for j in cols if j < k) for m, cols in drop.items()}
    dropped = {m: cols for m, cols in dropped.items() if cols}
    table = cell_table(d, outcome_kind)
    if resamples:
        table = table.resample(inference._Draws(d, seed, range(resamples)))
    fit_cells, calls = nuisance.fit_cells, []

    def checked(t, mask, design, labels, tag, ridge=0.0):
        # The fit takes the design as it is: _prepare's np.ascontiguousarray copies nothing.
        assert design.flags.c_contiguous and design.dtype == float
        parent = _parent_design(t, mask, tag, dropped, interactions)
        assert design.shape == parent.shape and design.tobytes() == parent.tobytes()
        got = fit_cells(t, mask, design, labels, tag, ridge)
        _same_fit(got, fit_cells(t, mask, parent, labels, tag, ridge))
        calls.append(tag)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nuisance, "fit_cells", checked)
        patch.setattr(diagnostics, "fit_cells", checked)
        with contextlib.suppress(FitError):
            fit_nuisances(table, outcome_kind, drop=dropped)
        assert len(calls) == 10
        if not resamples:
            for arm in (0, 1):
                with contextlib.suppress(FitError):
                    diagnostics.restriction_test(d, arm, interactions, outcome_kind=outcome_kind)
