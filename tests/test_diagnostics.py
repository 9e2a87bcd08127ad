import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbench import (
    Dataset,
    fit_nuisances,
    generate,
    overlap_summary,
    restriction_test,
    truth_table,
)
from trialbench import diagnostics
from trialbench.errors import DegenerateFitError


def swap_studies(d: Dataset) -> Dataset:
    return Dataset(x=d.x, s=1 - d.s, a=d.a, y=d.y, covariate_names=d.covariate_names)


def test_restriction_invariant_to_study_relabel(small_dataset):
    base = restriction_test(small_dataset, 1, outcome_kind="continuous")
    flipped = restriction_test(swap_studies(small_dataset), 1, outcome_kind="continuous")
    assert flipped.test.statistic == pytest.approx(base.test.statistic, abs=1e-8)
    assert flipped.s_terms["S"] == pytest.approx(-base.s_terms["S"], abs=1e-8)


@settings(max_examples=40, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 400),
    k=st.integers(1, 3),
    shift=st.floats(-1.0, 1.0),
    arm=st.sampled_from([0, 1]),
    include_interactions=st.booleans(),
)
def test_restriction_p_value_invariant_to_study_labels(
    seed, n, k, shift, arm, include_interactions
):
    # Chi-square on df = 1 without interactions and on df = 1 + k with them.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    s = np.arange(n) % 2
    a = (np.arange(n) // 2) % 2  # each study-by-arm cell holds about n / 4 rows
    y = x @ rng.normal(size=k) + shift * s + rng.normal(size=n) * rng.uniform(0.1, 3.0)
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=tuple(f"X{j}" for j in range(k)))
    base, flipped = (
        restriction_test(data, arm, include_interactions, outcome_kind="continuous")
        for data in (d, swap_studies(d))
    )
    assert base.test.df == flipped.test.df == (1 + k if include_interactions else 1)
    assert flipped.test.p_value == pytest.approx(base.test.p_value, rel=1e-9)


def test_restriction_on_fixture_both_arms(fixture_dataset):
    arm0 = restriction_test(fixture_dataset, 0, outcome_kind="continuous")
    arm1 = restriction_test(fixture_dataset, 1, outcome_kind="continuous")
    assert arm0.status == "consistent"
    assert arm1.status == "consistent"
    assert arm0.test.p_value == pytest.approx(0.388, abs=0.01)
    assert arm1.test.p_value == pytest.approx(0.0603, abs=0.005)
    assert arm0.test.df == 1


def test_restriction_rejects_under_confounding():
    d = generate(truth_table("FT"), (20_000, 20_000), seed=3)
    result = restriction_test(d, 1, outcome_kind="continuous")
    assert result.status == "inconsistent"
    assert result.test.p_value < 1e-4


def test_restriction_interactions_add_df(small_dataset):
    result = restriction_test(
        small_dataset, 1, include_interactions=True, outcome_kind="continuous"
    )
    assert result.test.df == 1 + small_dataset.k
    assert sorted(result.s_terms) == ["S", "S:X1"]
    assert result.include_interactions is True


def test_restriction_rejects_bad_arguments(small_dataset):
    with pytest.raises(ValueError, match="arm"):
        restriction_test(small_dataset, 2, outcome_kind="continuous")
    with pytest.raises(ValueError, match="threshold"):
        restriction_test(small_dataset, 1, outcome_kind="continuous", threshold=0.0)


def test_restriction_needs_both_study_cells(small_dataset):
    keep = ~((small_dataset.s == 0) & (small_dataset.a == 1))
    pruned = small_dataset.subset(np.flatnonzero(keep))
    with pytest.raises(DegenerateFitError, match="s=0"):
        restriction_test(pruned, 1, outcome_kind="continuous")


def test_overlap_quantiles_are_monotone(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, outcome_kind="continuous")
    report = overlap_summary(fixture_dataset, nu)
    for summary in report.probabilities.values():
        values = [
            summary.min,
            summary.p1,
            summary.p5,
            summary.median,
            summary.p95,
            summary.p99,
            summary.max,
        ]
        assert values == sorted(values)
        assert 0.0 < summary.min and summary.max < 1.0
    assert sorted(report.probabilities) == [
        "participation",
        "propensity_pooled",
        "propensity_s0",
        "propensity_s1",
    ]


def test_overlap_weights_on_fixture(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, outcome_kind="continuous")
    report = overlap_summary(fixture_dataset, nu, weight_threshold=10.0)
    assert sorted(report.weights) == [
        "chi(0)",
        "chi(1)",
        "phi(0)",
        "phi(1)",
        "psi(0)",
        "psi(1)",
    ]
    assert report.max_weight < 10.0
    for diag in report.weights.values():
        assert diag.count_above == 0
        assert diag.rows_above == ()
        assert diag.n_weighted > 0
    total_phi = report.weights["phi(0)"].n_weighted + report.weights["phi(1)"].n_weighted
    assert total_phi == fixture_dataset.n_emulation


def test_overlap_flags_rows_above_threshold(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, outcome_kind="continuous")
    report = overlap_summary(fixture_dataset, nu, weight_threshold=1.0)
    flagged = report.weights["phi(1)"]
    assert flagged.count_above > 0
    assert 0 < len(flagged.rows_above) <= 50
    assert len(flagged.rows_above) == min(flagged.count_above, 50)
    rows = np.asarray(flagged.rows_above)
    assert np.all(fixture_dataset.s[rows] == 0)
    assert np.all(fixture_dataset.a[rows] == 1)


def test_overlap_rejects_bad_threshold(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, outcome_kind="continuous")
    with pytest.raises(ValueError, match="threshold"):
        overlap_summary(fixture_dataset, nu, weight_threshold=0.0)


def test_singular_information_makes_the_restriction_test_indeterminate(
    small_dataset, monkeypatch
):
    # An observed information matrix that cannot be inverted (the fuzz of
    # `analyze` met one in a separated fit) reads "indeterminate", as a
    # singular Wald block does; the LinAlgError does not escape.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(diagnostics, "coefficient_covariance", singular)
    result = restriction_test(small_dataset, 1, outcome_kind="continuous")
    assert result.status == "indeterminate"
    assert np.isnan(result.test.statistic) and np.isnan(result.test.p_value)
