"""The batched bootstrap against replicates fitted one at a time.

``bootstrap`` fits its replicates in chunks, each a stack of count vectors
on the dataset's cell table, with one Newton loop for the stack. Every
reduction runs row by row, so replicate i must have the same bits whether
it is fitted in a chunk or alone (``bootstrap_replicate``), and a replicate
that fails in its chunk must fail alone with the same error class.
"""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import trialbench
from trialbench import (
    AnalysisPlan,
    Dataset,
    FitError,
    PositivityError,
    ScenarioConfig,
    d1,
    generate,
)
from trialbench import estimators, glm, inference
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


def test_positivity_failures_in_a_chunk_list_the_rows_their_replicate_drew(monkeypatch):
    d = generate(d1(), (60, 60), seed=11)
    plan = AnalysisPlan(outcome_kind="continuous")
    # Propensities of this law lie near 0.5, so a floor of 0.35 trips about
    # half of these replicates.
    monkeypatch.setattr(estimators, "PROPENSITY_FLOOR", 0.35)
    B, seed = 20, 5
    chunked = inference.bootstrap_chunk(d, plan, seed, range(B))
    tripped = 0
    for i, together in enumerate(chunked):
        try:
            alone = inference.bootstrap_replicate(d, plan, seed, i)
        except FitError as exc:
            alone = exc
        if not isinstance(alone, FitError):
            assert together == alone, i
            continue
        assert type(together) is type(alone) and str(together) == str(alone), i
        if not isinstance(alone, PositivityError):
            continue
        tripped += 1
        shown = re.search(r"rows \[([0-9, ]+)\]$", str(together))
        assert shown is not None, together
        rows = [int(row) for row in shown.group(1).split(", ")]
        drawn = inference._Draws(d, seed, [i])[0]
        assert (drawn[rows] > 0).all(), (i, rows)
    assert 0 < tripped < B


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
    """Per row of ``weights``: the fit alone, or the error it raised."""
    out = []
    for w in weights:
        try:
            out.append(fit(design, response, weights=w))
        except (FitError, ValueError) as exc:
            out.append(exc)
    return out


def _assert_rows_equal(stack, errors, alone):
    for r, single in enumerate(alone):
        if isinstance(single, Exception):
            assert type(errors[r]) is type(single), (r, errors[r], single)
            assert str(errors[r]) == str(single), (r, errors[r], single)
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


# One shared design (intercept and two slopes), each stack row weighting its
# own group of cells. Lone, the rows take 0, 1 and 3 step halvings, separate
# completely, meet a singular working Hessian after one step (two cells 2^-30
# apart on X1 leave the Gram matrix numerically singular) and stagnate: no
# halving of the first step raises the log-likelihood.
MASKED_LOOP_ROWS = {
    "no halving": ([[0, 4], [8, -8], [-6, 5], [8, -4], [-3, 6], [-1, -4]],
                   [1, 0, 1, 0, 0, 1], [25, 14, 23, 4, 9, 4]),
    "one halving": ([[6, 8], [-4, -5], [0, -8], [8, -3], [0, 5], [6, 0], [1, -7]],
                    [0, 0, 1, 0, 1, 0, 0], [261, 3, 270, 209, 29, 2, 268]),
    "three halvings": ([[-1, 1], [-5, 6], [2, 6], [8, 5], [-5, 3], [-1, 3], [3, 1], [6, -6]],
                       [1, 0, 0, 0, 0, 1, 0, 1], [69, 3, 3, 167, 6, 1, 186, 5]),
    "separated": ([[-2, 1], [-3, -1], [2, 2], [3, -2]], [0, 0, 1, 1], [1, 2, 2, 1]),
    "singular": ([[1, 0], [1 + 2**-30, 0], [2, 0.5]], [0, 1, 1], [3, 1, 1]),
    "stagnated": ([[1, 0], [1 + 2**-30, 0], [1, 1]], [0, 1, 0], [3, 1, 1]),
}


def test_masked_newton_loop_rows_equal_their_fits_alone(monkeypatch):
    x, labels, groups = [], [], []
    for cells, cell_labels, _ in MASKED_LOOP_ROWS.values():
        groups.append(slice(len(x), len(x) + len(cells)))
        x += cells
        labels += cell_labels
    design, labels = add_intercept(np.array(x, dtype=float)), np.array(labels, dtype=float)
    weights = np.zeros((len(groups), len(x)))
    for row, group, (_, _, w) in zip(weights, groups, MASKED_LOOP_ROWS.values()):
        row[group] = w

    # A fit alone evaluates the log-likelihood once for each step it takes,
    # once more for each halving on the way, and _HALVINGS times for a step
    # it gives up on.
    evaluations = []
    loglik = glm._penalized_loglik

    def counted(eta, *args):
        evaluations.append(len(eta))
        return loglik(eta, *args)

    monkeypatch.setattr(glm, "_penalized_loglik", counted)
    alone, halvings = [], []
    for w in weights:
        evaluations.clear()
        (out,) = _outcomes(fit_logistic, design, labels, w[None])
        alone.append(out)
        steps = out.iterations if isinstance(out, glm.LogisticModel) else 0
        halvings.append(sum(evaluations) - steps)
    monkeypatch.undo()

    no_halving, one_halving, three_halvings, separated, singular, stagnated = alone
    assert halvings[:3] == [0, 1, 3]
    assert [m.iterations for m in (no_halving, one_halving, three_halvings)] == [6, 11, 12]
    for m in (no_halving, one_halving, three_halvings):
        assert m.converged and len(m.loglik_trace) == m.iterations + 1
        assert np.all(np.diff(m.loglik_trace) >= 0.0)
    assert str(separated) == "logistic fit: complete separation detected at iteration 18"
    assert str(singular) == "logistic fit: singular working Hessian at iteration 2"
    assert halvings[5] == glm._HALVINGS
    assert (stagnated.iterations, stagnated.converged) == (0, False)
    assert len(stagnated.loglik_trace) == 1

    model, errors = fit_logistic_stack(design, labels, weights)
    _assert_rows_equal(model, errors, alone)
    for order in ([5, 4, 3, 2, 1, 0], [3, 0], [4, 1, 5]):
        model, errors = fit_logistic_stack(design, labels, weights[order])
        _assert_rows_equal(model, errors, [alone[r] for r in order])


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
