from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from trialbench.errors import ConfigError, DegenerateFitError, DomainError, FitError
from trialbench.glm import LogisticModel

from conftest import pinned_low


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
    # The outcome checks fit_nuisances makes, not a failed fit.
    with pytest.raises(ConfigError, match="outcome_kind must be one of"):
        restriction_test(small_dataset, 1, outcome_kind="continous")
    with pytest.raises(DomainError, match="values outside"):
        restriction_test(small_dataset, 1, outcome_kind="binary")


def test_restriction_needs_both_study_cells(small_dataset):
    keep = ~((small_dataset.s == 0) & (small_dataset.a == 1))
    pruned = small_dataset.subset(np.flatnonzero(keep))
    with pytest.raises(DegenerateFitError, match="s=0"):
        restriction_test(pruned, 1, outcome_kind="continuous")


QS = [0.0, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0]


def row_overlap(d: Dataset, nu, weight_threshold: float) -> diagnostics.OverlapReport:
    """The overlap summary computed row by row: every model is predicted on
    all rows and then masked, each weight recomputed from its formula."""
    p = nu.participation_prob(d.x)
    e1 = {stratum: nu.treatment_prob(d.x, 1, stratum) for stratum in ("s0", "s1", "pooled")}
    in_stratum = {"s0": d.s == 0, "s1": d.s == 1, "pooled": np.ones(d.n, dtype=bool)}

    def summary(values):
        return diagnostics.QuantileSummary(*[float(v) for v in np.quantile(values, QS)])

    probabilities = {"participation": summary(p)}
    for stratum, rows in in_stratum.items():
        probabilities[f"propensity_{stratum}"] = summary(e1[stratum][rows])
    weights = {}
    for arm in (0, 1):
        for name, stratum in (("phi", "s0"), ("chi", "s1"), ("psi", "pooled")):
            rows = np.flatnonzero(in_stratum[stratum] & (d.a == arm))
            e = e1[stratum][rows] if arm == 1 else 1.0 - e1[stratum][rows]
            pw = p[rows]
            w = {"phi": 1.0 / e, "chi": (1.0 - pw) / pw / e, "psi": (1.0 - pw) / e}[name]
            above = rows[w > weight_threshold]
            weights[f"{name}({arm})"] = diagnostics.WeightDiagnostic(
                n_weighted=int(rows.size),
                count_above=int(above.size),
                max_weight=float(np.max(w)) if w.size else 0.0,
                rows_above=tuple(int(i) for i in above[:50]),
            )
    return diagnostics.OverlapReport(
        probabilities=probabilities,
        weights=weights,
        weight_threshold=weight_threshold,
        max_weight=max(w.max_weight for w in weights.values()),
    )


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
    assert report == row_overlap(fixture_dataset, nu, 10.0)
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
    assert report == row_overlap(fixture_dataset, nu, 1.0)
    flagged = report.weights["phi(1)"]
    assert flagged.count_above > 0
    assert 0 < len(flagged.rows_above) <= 50
    assert len(flagged.rows_above) == min(flagged.count_above, 50)
    rows = np.asarray(flagged.rows_above)
    assert np.all(fixture_dataset.s[rows] == 0)
    assert np.all(fixture_dataset.a[rows] == 1)


def test_overlap_rejects_bad_threshold(fixture_dataset):
    nu = fit_nuisances(fixture_dataset, outcome_kind="continuous")
    for threshold in (0.0, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            overlap_summary(fixture_dataset, nu, weight_threshold=threshold)


@settings(max_examples=100, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(200, 3000),
    k=st.integers(1, 8),
    gaussian=st.booleans(),
    outcome_kind=st.sampled_from(["continuous", "binary"]),
    threshold=st.floats(1.0, 6.0),
)
def test_overlap_on_cells_equals_the_row_oracle(seed, n, k, gaussian, outcome_kind, threshold):
    # Binary covariates group rows into cells; Gaussian ones leave each row a
    # cell of its own.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k)) if gaussian else (rng.random((n, k)) < rng.uniform(0.2, 0.8, k))
    x = x.astype(float)
    s = (rng.random(n) < 1.0 / (1.0 + np.exp(-x @ rng.normal(0.0, 0.5, k)))).astype(int)
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-x @ rng.normal(0.0, 0.5, k)))).astype(int)
    y = x @ rng.normal(size=k) + a + rng.normal(size=n)
    if outcome_kind == "binary":
        y = (y > 0.5).astype(float)
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=tuple(f"X{j}" for j in range(k)))
    try:
        nu = fit_nuisances(d, outcome_kind)
    except FitError:
        assume(False)  # a sparse draw that separates or leaves a stratum empty
    assert overlap_summary(d, nu, threshold) == row_overlap(d, nu, threshold)


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


def test_overlap_weight_that_overflows_is_a_fit_error_naming_it(fixture_dataset):
    nu = pinned_low(fit_nuisances(fixture_dataset, "continuous"))
    with pytest.raises(FitError, match=r"^overlap: chi\(1\) maximum weight is not finite$"):
        overlap_summary(fixture_dataset, nu)
    propensity = LogisticModel(np.array([np.nan, 0.0]), True, 1, 0.0)
    nu = replace(nu, propensity={**nu.propensity, "s0": propensity})
    with pytest.raises(FitError, match="^overlap: a propensity_s0 probability quantile is not finite$"):
        overlap_summary(fixture_dataset, nu)
