"""The batched bootstrap against replicates fitted one at a time.

``bootstrap`` fits its replicates in chunks, each a stack of count vectors
on the dataset's cell table, with one Newton loop for the stack. Every
reduction runs row by row, so replicate i must have the same bits whether
it is fitted in a chunk or alone (``bootstrap_replicate``), and a replicate
that fails in its chunk must fail alone with the same error class.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import trialbench
from trialbench import AnalysisPlan, Dataset, FitError, ScenarioConfig, generate
from trialbench import inference
from trialbench.glm import (
    add_intercept,
    fit_linear,
    fit_linear_stack,
    fit_logistic,
    fit_logistic_stack,
)

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


def _gaussian(n: tuple[int, int], outcome_kind: str, seed: int) -> Dataset:
    law = ScenarioConfig.from_dict({**GAUSSIAN_LAW, "outcome_kind": outcome_kind})
    d = generate(law, n, seed=seed)
    assert d.cells(outcome_kind == "binary").count.size == d.n
    return d


def _lone(d: Dataset, plan: AnalysisPlan, seed: int, index: int):
    """Replicate ``index`` fitted alone: its values, or the class of its FitError."""
    try:
        return inference.bootstrap_replicate(d, plan, seed, index)
    except FitError as exc:
        return type(exc)


def _assert_chunks_match_lone(d: Dataset, plan: AnalysisPlan, B: int, seed: int) -> int:
    """Check bootstrap() and bootstrap_chunk() against lone replicates; return the failures."""
    lone = [_lone(d, plan, seed, i) for i in range(B)]
    failed = [i for i, out in enumerate(lone) if isinstance(out, type)]
    chunked = inference.bootstrap_chunk(d, plan, seed, range(B))
    for i, (alone, together) in enumerate(zip(lone, chunked)):
        if i in failed:
            assert type(together) is alone, (i, together, alone)
        else:
            assert together == alone, i
    if len(failed) <= B / 2:
        kept = [lone[i] for i in range(B) if i not in failed]
        for label, result in inference.bootstrap(d, plan, B, seed).items():
            assert result.failures == len(failed)
            assert np.array_equal(result.replicates, [values[label] for values in kept]), label
    return len(failed)


def test_fixture_chunk_matches_lone_replicates(fixture_dataset):
    plan = AnalysisPlan(outcome_kind="continuous")
    assert _assert_chunks_match_lone(fixture_dataset, plan, 200, 20260819) == 0


def test_uncompressed_chunk_matches_lone_replicates():
    d = _gaussian((400, 400), "binary", seed=5)
    plan = AnalysisPlan(outcome_kind="binary", hajek=True)
    assert _assert_chunks_match_lone(d, plan, 30, 17) == 0


def test_failing_replicates_fail_alone_with_the_same_class():
    # The 80-row toy of test_bootstrap_equivalence: the trial treats 3 rows.
    rng = np.random.default_rng(8)
    n = 40
    x = rng.integers(0, 2, 2 * n).astype(float)[:, None]
    s = np.repeat([1, 0], n)
    a = np.concatenate([np.arange(n) < 3, rng.integers(0, 2, n)]).astype(int)
    y = (rng.random(2 * n) < 0.3 + 0.4 * x[:, 0]).astype(float)
    d = Dataset(x=x, s=s, a=a, y=y, covariate_names=("X1",))
    plan = AnalysisPlan(outcome_kind="binary", estimators=("phi", "chi"))
    assert 0 < _assert_chunks_match_lone(d, plan, 200, 3) < 200


def test_replicates_cross_a_chunk_boundary_unchanged():
    d = _gaussian((2000, 2000), "continuous", seed=9)
    chunk = inference._CHUNK_FLOATS // (d.n * (d.k + 1))
    B = chunk + 5
    assert 1 <= chunk < B
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi", "chi"))
    assert _assert_chunks_match_lone(d, plan, B, 4) == 0


def test_chunk_size_leaves_the_bits_alone(small_dataset, monkeypatch):
    plan = AnalysisPlan(outcome_kind="continuous")
    whole = inference.bootstrap(small_dataset, plan, 12, seed=6)
    # Chunks of 5 replicates on the 8-cell, 2-coefficient table: 5 + 5 + 2.
    monkeypatch.setattr(inference, "_CHUNK_FLOATS", 5 * small_dataset.cells(False).count.size * 2)
    pieces = inference.bootstrap(small_dataset, plan, 12, seed=6)
    for label in whole:
        assert np.array_equal(whole[label].replicates, pieces[label].replicates), label


def _outcomes(fit, design, response, weights):
    """Per row of ``weights``: the fit alone, or the class of the error it raised."""
    out = []
    for w in weights:
        try:
            out.append(fit(design, response, weights=w))
        except (FitError, ValueError) as exc:
            out.append(type(exc))
    return out


def _assert_rows_equal(stack, errors, alone):
    for r, single in enumerate(alone):
        if isinstance(single, type):
            assert type(errors[r]) is single, (r, errors[r])
            continue
        assert errors[r] is None, (r, errors[r])
        row = stack.row(r)
        assert np.array_equal(row.coefficients, single.coefficients), r
        for name, value in vars(single).items():
            if name != "coefficients":
                assert getattr(row, name) == value, (r, name)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.integers(3, 12),
    slopes=st.integers(0, 2),
    stack=st.integers(1, 6),
    separable=st.booleans(),
)
def test_stacked_fits_equal_fits_alone(seed, cells, slopes, stack, separable):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cells, slopes)) * rng.choice([1e-3, 1.0, 1e3], size=slopes)
    labels = (rng.random(cells) < 0.5).astype(float)
    if separable and slopes:
        x[:, 0] = labels * 2.0 - 1.0 + 0.1 * rng.random(cells)
    design = add_intercept(x)
    weights = rng.integers(0, 4, size=(stack, cells)).astype(float)
    weights[rng.random(stack) < 0.2] = 0.0  # no rows at all
    single_class = rng.random(stack) < 0.2
    weights[single_class] *= labels  # only the cells labelled 1
    # Column-major stacks, as a boolean mask over the cells of a stacked
    # table gives them, must fit as the rows do alone.
    model, errors = fit_logistic_stack(design, labels, np.asfortranarray(weights))
    _assert_rows_equal(model, errors, _outcomes(fit_logistic, design, labels, weights))

    response = rng.normal(size=(stack, cells)) * 10.0 ** rng.integers(-3, 4)
    model, errors = fit_linear_stack(design, np.asfortranarray(response), np.asfortranarray(weights))
    alone = [_outcomes(fit_linear, design, y, w[None])[0] for y, w in zip(response, weights)]
    _assert_rows_equal(model, errors, alone)


BOOTSTRAP_MEMORY = """
import resource
from trialbench import AnalysisPlan, CovariateLaw, ScenarioConfig, bootstrap, generate

law = ScenarioConfig(
    covariates=CovariateLaw(kind="gaussian", dim=3),
    participation=(-0.3, 0.5, -0.4, 0.2),
    trial_arm_prob=0.5,
    emulation_propensity=(0.1, 0.3, 0.3, -0.2),
    outcome_intercept=-0.2,
    outcome_x=(0.5, -0.3, 0.4),
    outcome_treatment=0.7,
    outcome_tx=(0.2, 0.0, -0.3),
    outcome_kind="continuous",
)
d = generate(law, (10000, 10000), seed=3)
assert d.cells(False).count.size == d.n
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
bootstrap(d, AnalysisPlan(outcome_kind="continuous"), 200, seed=1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_bootstrap_of_an_uncompressed_table_runs_in_bounded_memory():
    # A fresh process, so the peak resident size is this run's alone. Each
    # chunk's stack holds at most _CHUNK_FLOATS floats per (chunk, cells,
    # coefficients) array, whatever the replicate count.
    package_root = str(pathlib.Path(trialbench.__file__).resolve().parent.parent)
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", BOOTSTRAP_MEMORY],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert float(proc.stdout) < 40.0  # megabytes of peak growth
