import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbench import (
    AnalysisPlan,
    BootstrapResult,
    DegenerateTestError,
    EstimateWithIF,
    FitError,
    bootstrap,
    sandwich_ci,
    sandwich_se,
    wald_test,
)
from trialbench import errors, inference
from trialbench.errors import DegenerateFitError, WorkerError

from conftest import children, estimate_with_if_values


def alternating_estimate(n: int = 10_000) -> EstimateWithIF:
    if_values = np.tile([1.0, -1.0], n // 2)
    return estimate_with_if_values(label="unit", value=0.5, if_values=if_values, n_effective=n)


def test_sandwich_se_known_value():
    e = alternating_estimate()
    # sample variance n/(n-1), so se = 1/sqrt(n-1)
    assert sandwich_se(e) == pytest.approx(1.0 / np.sqrt(9999), abs=1e-12)


def test_sandwich_ci_symmetric_normal_quantiles():
    e = alternating_estimate()
    ci = sandwich_ci(e, level=0.95)
    half = 1.959963984540054 * sandwich_se(e)
    assert ci.lower == pytest.approx(0.5 - half, abs=1e-10)
    assert ci.upper == pytest.approx(0.5 + half, abs=1e-10)
    assert ci.method == "sandwich"


def test_bad_level_rejected():
    e = alternating_estimate()
    with pytest.raises(ValueError, match="level"):
        sandwich_ci(e, level=1.0)


def test_wald_test_statistic_and_pvalue():
    e = alternating_estimate()
    result = wald_test(e, 0.0)
    z = 0.5 / sandwich_se(e)
    assert result.statistic == pytest.approx(z, abs=1e-9)
    assert result.p_value == pytest.approx(0.0, abs=1e-8)
    assert result.df is None


def test_wald_test_zero_se_is_degenerate():
    e = estimate_with_if_values(label="flat", value=0.0, if_values=np.zeros(10), n_effective=10)
    with pytest.raises(DegenerateTestError, match="zero standard error"):
        wald_test(e)


def test_sandwich_se_that_overflows_is_degenerate():
    e = estimate_with_if_values(label="huge", value=0.0, if_values=[1e200, -1e200], n_effective=2)
    with np.errstate(over="ignore"), pytest.raises(DegenerateTestError, match="huge: sum"):
        sandwich_se(e)


def test_bootstrap_is_deterministic(small_dataset):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    first = bootstrap(small_dataset, plan, 20, seed=9)
    second = bootstrap(small_dataset, plan, 20, seed=9)
    assert np.array_equal(first["phi(1)"].replicates, second["phi(1)"].replicates)
    third = bootstrap(small_dataset, plan, 20, seed=10)
    assert not np.array_equal(first["phi(1)"].replicates, third["phi(1)"].replicates)


def test_bootstrap_replicates_are_index_keyed(small_dataset):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    full = bootstrap(small_dataset, plan, 10, seed=9)
    # replicate 7 recomputed on its own matches position 7 of the run
    alone = inference.bootstrap_replicate(small_dataset, plan, seed=9, index=7)
    assert alone["phi(1)"] == full["phi(1)"].replicates[7]


def test_bootstrap_resamples_within_study(small_dataset):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    rng_draw = inference._replicate_rng(3, 0)
    trial_rows = np.flatnonzero(small_dataset.s == 1)
    emulation_rows = np.flatnonzero(small_dataset.s == 0)
    take_trial = trial_rows[rng_draw.integers(0, trial_rows.size, trial_rows.size)]
    take_emulation = emulation_rows[
        rng_draw.integers(0, emulation_rows.size, emulation_rows.size)
    ]
    resampled = small_dataset.subset(np.concatenate([take_trial, take_emulation]))
    assert resampled.n_trial == small_dataset.n_trial
    assert resampled.n_emulation == small_dataset.n_emulation


def test_bootstrap_counts_and_tolerates_failures(small_dataset, monkeypatch):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    real = inference.bootstrap_chunk

    def flaky(d, p, seed, indices):
        return [
            DegenerateFitError("forced failure") if index % 3 == 0 else out
            for index, out in zip(indices, real(d, p, seed, indices))
        ]

    monkeypatch.setattr(inference, "bootstrap_chunk", flaky)
    out = bootstrap(small_dataset, plan, 9, seed=1)
    assert out["phi(1)"].failures == 3
    assert out["phi(1)"].replicates.size == 6


def test_bootstrap_aborts_past_half_failures(small_dataset, monkeypatch):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))

    def broken(d, p, seed, indices):
        return [DegenerateFitError("forced failure") for _ in indices]

    monkeypatch.setattr(inference, "bootstrap_chunk", broken)
    with pytest.raises(FitError, match="aborted"):
        bootstrap(small_dataset, plan, 8, seed=1)


def test_bootstrap_needs_two_replicates(small_dataset):
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    with pytest.raises(ValueError, match="at least 2"):
        bootstrap(small_dataset, plan, 1, seed=0)


def test_bootstrap_refuses_a_negative_seed_before_any_draw(small_dataset, monkeypatch):
    def no_draws(*args, **kwargs):
        pytest.fail("a replicate ran with a negative seed")

    monkeypatch.setattr(inference, "bootstrap_chunk", no_draws)
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    with pytest.raises(ValueError, match="'seed'"):
        bootstrap(small_dataset, plan, 4, seed=-1)


def _per_index(task):
    """A chunk producer from a per-index task: its values, or the error it raised."""

    def chunk(indices):
        results = []
        for i in indices:
            try:
                results.append(task(i))
            except Exception as exc:  # noqa: BLE001 - handed to run_replicates
                results.append(exc)
        return results

    return chunk


@pytest.mark.parametrize("size", [1, 3, 7])
def test_run_replicates_gives_the_kept_values_per_label_in_replicate_order(size):
    # The same columns and failure count whatever the chunk size.
    def task(i):
        if i % 3 == 1:
            raise DegenerateFitError("forced failure")
        return {"a": float(i), "b": -float(i)}

    seen = []

    def chunk(indices):
        seen.append(list(indices))
        return _per_index(task)(indices)

    columns, failures, _ = inference.run_replicates(chunk, 7, size, "test")
    assert failures == 2
    assert list(columns) == ["a", "b"]
    np.testing.assert_array_equal(columns["a"], [0.0, 2.0, 3.0, 5.0, 6.0])
    np.testing.assert_array_equal(columns["b"], -columns["a"])
    assert seen == [list(range(7))[i : i + size] for i in range(0, 7, size)]


def test_run_replicates_fails_each_index_of_a_chunk_that_raises_a_fit_error():
    def chunk(indices):
        if 3 in indices:
            raise DegenerateFitError("forced failure")
        return [{"a": float(i)} for i in indices]

    columns, failures, _ = inference.run_replicates(chunk, 9, 3, "test")
    assert failures == 3
    np.testing.assert_array_equal(columns["a"], [0.0, 1.0, 2.0, 6.0, 7.0, 8.0])


def test_run_replicates_raises_an_error_value_that_is_not_a_fit_error():
    def chunk(indices):
        return [ValueError("not a fit") if i == 2 else {"a": 1.0} for i in indices]

    with pytest.raises(ValueError, match="not a fit"):
        inference.run_replicates(chunk, 5, 5, "test")


def test_run_replicates_names_the_failing_index_when_it_aborts():
    def chunk(indices):
        return [DegenerateFitError("forced failure") for _ in indices]

    with pytest.raises(FitError, match="test aborted: 3 of 3 replicates failed"):
        inference.run_replicates(chunk, 4, 4, "test")
    with pytest.raises(FitError, match="test aborted: 4 of 4 replicates failed"):
        inference.run_replicates(chunk, 7, 2, "test")


@pytest.mark.parametrize("failing", [0, 1])
def test_run_replicates_aborts_when_fewer_than_two_are_left_to_keep(failing):
    # One failure of two is not past half, but one replicate has no spread.
    def task(i):
        if i == failing:
            raise DegenerateFitError("forced failure")
        return {"a": 1.0}

    with pytest.raises(FitError, match=f"test aborted: 1 of {failing + 1} replicates failed"):
        inference.run_replicates(_per_index(task), 2, 2, "test")
    columns, failures, _ = inference.run_replicates(_per_index(task), 3, 2, "test")
    assert (columns["a"].size, failures) == (2, 1)


def test_run_replicates_holds_one_float_per_value():
    # One dict per replicate, kept until the end, held about ten times this.
    count, labels = 20_000, [f"q{j}" for j in range(24)]
    tracemalloc.start()
    try:
        columns, _, _ = inference.run_replicates(
            lambda indices: [{label: i + 0.5 for label in labels} for i in indices],
            count,
            1,
            "test",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [column.size for column in columns.values()] == [count] * len(labels)
    assert peak < 1.5 * count * len(labels) * 8


@pytest.mark.parametrize("size", [1, 3])
def test_run_replicates_gives_the_same_values_drops_and_lead_on_two_workers(size):
    def task(i):
        if i % 4 == 1:
            raise DegenerateFitError(f"forced failure {i}")
        return {"a": float(i) ** 0.5, "b": -float(i)}

    runs = {
        workers: inference.run_replicates(
            _per_index(task), 11, size, "test", workers, lead=lambda: ("lead", os.getpid())
        )
        for workers in (1, 2)
    }
    (columns, failures, lead), (columns2, failures2, lead2) = runs[1], runs[2]
    assert failures == failures2 == 3
    assert columns.keys() == columns2.keys()
    for label in columns:
        assert columns[label].tobytes() == columns2[label].tobytes()
    assert lead == ("lead", os.getpid())
    assert lead2[0] == "lead" and lead2[1] != os.getpid()  # it ran in a worker


def test_run_replicates_forks_no_pool_for_one_task():
    # One chunk, or one worker: no process, and the chunk runs here.
    pids = set()

    def chunk(indices):
        pids.add(os.getpid())
        return [{"a": 1.0} for _ in indices]

    processes = children()
    inference.run_replicates(chunk, 6, 6, "test", 2)
    inference.run_replicates(chunk, 6, 1, "test", 1)
    assert pids == {os.getpid()} and children() == processes


@pytest.mark.parametrize("error", [DegenerateTestError, ValueError, MemoryError])
def test_an_error_raised_in_a_worker_reaches_the_caller_with_its_type_and_message(error):
    def chunk(indices):
        if 5 in indices:
            raise error("raised at replicate 5")
        return [{"a": float(i)} for i in indices]

    processes = children()
    for workers in (1, 2):
        with pytest.raises(error) as raised:
            inference.run_replicates(chunk, 9, 2, "test", workers)
        assert (type(raised.value), str(raised.value)) == (error, "raised at replicate 5")
    assert children() == processes


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_worker_that_dies_ends_in_a_worker_error_and_leaves_no_process(death):
    def chunk(indices):
        if 4 in indices:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return [{"a": float(i)} for i in indices]

    processes = children()
    with pytest.raises(WorkerError, match="worker process ended before it returned"):
        inference.run_replicates(chunk, 8, 1, "test", 2)
    assert children() == processes


def test_an_aborting_bootstrap_names_the_same_replicate_on_two_workers(small_dataset, monkeypatch):
    chunk = inference.bootstrap_chunk

    def failing_from_5(d, plan, seed, indices):
        out = chunk(d, plan, seed, indices)
        return [DegenerateFitError("forced") if i >= 5 else v for i, v in zip(indices, out)]

    monkeypatch.setattr(inference, "bootstrap_chunk", failing_from_5)
    monkeypatch.setattr(inference, "_CHUNK_FLOATS", 16)  # chunks of one replicate
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi",), arms=(1,))
    messages = set()
    for workers in (1, 2):
        with pytest.raises(FitError) as raised:
            bootstrap(small_dataset, plan, 12, seed=4, workers=workers)
        messages.add(str(raised.value))
    assert messages == {"bootstrap aborted: 7 of 12 replicates failed to fit"}


@pytest.mark.parametrize(
    "error",
    [e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, Exception)],
)
def test_every_error_round_trips_through_pickle(error):
    # A worker process sends its errors back pickled.
    back = pickle.loads(pickle.dumps(error("replicate 3: a message")))
    assert (type(back), str(back)) == (error, "replicate 3: a message")


def test_percentile_interval_known_quantiles():
    reps = np.linspace(0.0, 1.0, 1001)
    br = BootstrapResult(label="q", replicates=reps, requested=1001, failures=0, seed=0)
    interval = br.percentile_interval(point=0.5, level=0.95)
    assert interval.lower == pytest.approx(0.025, abs=1e-9)
    assert interval.upper == pytest.approx(0.975, abs=1e-9)
    assert interval.method == "bootstrap-percentile"
    assert br.std_error == pytest.approx(np.std(reps, ddof=1), abs=1e-12)


@pytest.mark.parametrize(
    "reps", [[1e308, -1e308, 5e307], [-1e308, 1e308], [0.0, np.inf, 1.0], [0.0, np.nan]]
)
def test_bootstrap_of_non_finite_spread_is_a_degenerate_test(reps):
    # Each would otherwise reach the report as null: an overflowing spread,
    # an overflowing range, an infinite and a missing replicate.
    br = BootstrapResult("phi(1)", np.array(reps), requested=len(reps), failures=0, seed=1)
    with pytest.raises(DegenerateTestError, match=r"phi\(1\): bootstrap standard error"):
        br.std_error
    with pytest.raises(DegenerateTestError, match=r"phi\(1\): bootstrap standard error"):
        br.percentile_interval(point=0.0)


# Zeros are drawn unsigned: np.quantile partitions where linear_quantiles
# sorts, and the two may order 0.0 and -0.0, which compare equal, apart.
finite = st.floats(-1e300, 1e300).map(lambda v: v + 0.0)


@settings(max_examples=300, database=None, deadline=None)
@given(
    values=st.lists(finite, min_size=1, max_size=60)
    | st.lists(st.sampled_from((0.0, 1.0, 2.5, -3.0)), min_size=1, max_size=60),
    qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_quantiles_give_the_bits_of_np_quantile(values, qs, seed):
    values = np.array(values)
    qs = qs + [0.0, 0.025, 0.5, 0.975, 1.0]
    quantiles = inference.linear_quantiles(values, qs, np.ones(values.size))
    assert quantiles.tobytes() == np.quantile(values, qs).tobytes()
    # Random counts, a count of 0 leaving its value out, against the repeated values.
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, values.size)
    counts[rng.integers(values.size)] += 1
    quantiles = inference.linear_quantiles(values, qs, counts.astype(float))
    assert quantiles.tobytes() == np.quantile(np.repeat(values, counts), qs).tobytes()
