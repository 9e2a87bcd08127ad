"""The analysis on the cell table against row-level computations.

Influence values are held per cell and the restriction test is fitted on
cell counts. The oracles kept here work on rows: the sample variance of
the expanded influence values, and the S-augmented design with one row per
subject.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trialbench import (
    AnalysisPlan,
    Dataset,
    FitError,
    fit_nuisances,
    restriction_test,
    run_plan_with,
    sandwich_se,
)
from trialbench.diagnostics import chi2_sf
from trialbench.glm import add_intercept, coefficient_covariance, fit_linear, fit_logistic


def row_restriction_p_value(
    d: Dataset, a: int, include_interactions: bool, outcome_kind: str
) -> float:
    """The restriction test's p-value from a fit on the rows themselves."""
    mask = d.a == a
    x = d.x[mask]
    s_col = d.s[mask].astype(float)[:, None]
    blocks = [add_intercept(x), s_col]
    if include_interactions:
        blocks.append(x * s_col)
    design = np.hstack(blocks)
    if outcome_kind == "continuous":
        model = fit_linear(design, d.y[mask])
    else:
        model = fit_logistic(design, d.y[mask])
    cov = coefficient_covariance(model, design)
    idx = np.arange(1 + d.k, design.shape[1])
    b = model.coefficients[idx]
    statistic = float(b @ np.linalg.solve(cov[np.ix_(idx, idx)], b))
    return chi2_sf(idx.size, statistic)


@settings(max_examples=40, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(300, 600),
    k=st.integers(1, 2),
    levels=st.integers(2, 3),
    outcome_kind=st.sampled_from(["continuous", "binary"]),
    include_interactions=st.booleans(),
)
def test_cell_path_matches_rows(seed, n, k, levels, outcome_kind, include_interactions):
    # At most 3^2 patterns, times 8 with a binary outcome: at most 72 cells, a
    # quarter of 300 rows, so the rows are always grouped.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, k)).astype(float)
    s = np.arange(n) % 2
    a = (np.arange(n) // 2) % 2  # each study-by-arm cell holds about n / 4 rows
    mean = x @ rng.normal(size=k) + rng.normal() * s + 0.5 * a
    if outcome_kind == "continuous":
        y = mean + rng.normal(size=n) * rng.uniform(0.1, 3.0)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.3 * mean))).astype(float)
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=tuple(f"X{j}" for j in range(k)))
    assert d.cells(outcome_kind == "binary").count.size < n

    try:
        nu = fit_nuisances(d, outcome_kind)
        estimates = run_plan_with(d, nu, AnalysisPlan(outcome_kind=outcome_kind))
    except FitError:
        assume(False)
    for label, est in estimates.items():
        expected = np.sqrt(np.var(est.if_values, ddof=1) / n)
        assert sandwich_se(est) == pytest.approx(expected, rel=1e-10, abs=0.0), label

    for arm in (0, 1):
        try:
            expected = row_restriction_p_value(d, arm, include_interactions, outcome_kind)
        except FitError as exc:
            with pytest.raises(type(exc)):
                restriction_test(d, arm, include_interactions, outcome_kind=outcome_kind)
            continue
        got = restriction_test(d, arm, include_interactions, outcome_kind=outcome_kind)
        assert got.test.p_value == pytest.approx(expected, rel=1e-9, abs=0.0), arm


@settings(max_examples=30, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(300, 600),
    k=st.integers(1, 2),
    levels=st.integers(2, 3),
    outcome_kind=st.sampled_from(["continuous", "binary"]),
)
def test_estimates_do_not_change_when_rows_are_reordered_within_each_study(
    seed, n, k, levels, outcome_kind
):
    # At most 3^2 covariate patterns, so the rows are grouped (see
    # test_cell_path_matches_rows) and each cell sums its rows in a new order:
    # only the last bits may move.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, k)).astype(float)
    s = rng.integers(0, 2, n)
    a = rng.integers(0, 2, n)
    mean = 5.0 + x @ rng.normal(size=k) + rng.normal() * s + 0.5 * a
    if outcome_kind == "continuous":
        y = mean + rng.normal(size=n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.3 * (mean - 5.0)))).astype(float)
    order = np.arange(n)
    for study in (0, 1):
        rows = np.flatnonzero(s == study)
        order[rows] = rng.permutation(rows)
    names = tuple(f"X{j}" for j in range(k))
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=names)
    shuffled = Dataset(x=x[order], s=s[order], a=a[order], y=y[order], covariate_names=names)
    assert d.cells(outcome_kind == "binary").count.size < n

    plan = AnalysisPlan(outcome_kind=outcome_kind)
    try:
        expected = run_plan_with(d, fit_nuisances(d, outcome_kind), plan)
    except FitError as exc:
        with pytest.raises(type(exc)):
            run_plan_with(shuffled, fit_nuisances(shuffled, outcome_kind), plan)
        return
    got = run_plan_with(shuffled, fit_nuisances(shuffled, outcome_kind), plan)
    for name in ("phi", "chi", "psi"):
        for arm in (0, 1):
            label = f"{name}({arm})"
            assert got[label].value == pytest.approx(
                expected[label].value, rel=1e-12, abs=0.0
            ), label
            assert sandwich_se(got[label]) == pytest.approx(
                sandwich_se(expected[label]), rel=1e-12, abs=0.0
            ), label
