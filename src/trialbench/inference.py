"""Variance estimation and tests built on influence values.

The sandwich route treats the per-row influence values as the unit-level
contributions: the standard error is sqrt(sampleVar(if_values) / n) with
the usual n - 1 denominator inside the sample variance. The influence
values are held per cell, so that variance comes from cell sums without
expanding them to rows. The bootstrap route resamples rows within each
study separately, matching how the composite sample was drawn, and refits
every nuisance model per replicate, on cell counts rather than on a copy
of the resampled rows. The replicates are fitted together, a chunk at a
time: each chunk is a (replicates, cells) matrix of counts on the
dataset's cell table, and one Newton loop and one least-squares solve fit
every model for all its rows. Every reduction runs row by row, so a
replicate's values do not depend on which replicates share its chunk, or
on the chunk size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, cell_table
from .errors import DegenerateTestError, FitError, WorkerError, require_count, require_unit
from .estimators import AnalysisPlan, EstimateWithIF, run_plan


@dataclass(frozen=True)
class Interval:
    estimate: float
    std_error: float
    lower: float
    upper: float
    level: float
    method: str


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    null: str  # the null hypothesis, in words
    df: int | None = None  # None marks a z statistic


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate values for one quantity; failures are counted, not imputed."""

    label: str
    replicates: np.ndarray
    requested: int
    failures: int
    seed: int

    def __post_init__(self) -> None:
        reps = np.asarray(self.replicates, dtype=float)
        reps.setflags(write=False)
        object.__setattr__(self, "replicates", reps)

    @property
    def std_error(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            se = float(np.std(self.replicates, ddof=1))
        if not math.isfinite(se):
            raise DegenerateTestError(f"{self.label}: bootstrap standard error is not finite")
        return se

    def percentile_interval(self, point: float, level: float = 0.95) -> Interval:
        """Percentile interval; its endpoints are finite, because a finite
        standard error keeps every replicate and their range finite."""
        require_unit(level, "level")
        se = self.std_error
        alpha = 1.0 - level
        reps = self.replicates
        lower, upper = linear_quantiles(reps, [alpha / 2.0, 1.0 - alpha / 2.0], np.ones(reps.size))
        return Interval(
            estimate=point,
            std_error=se,
            lower=float(lower),
            upper=float(upper),
            level=level,
            method="bootstrap-percentile",
        )


def linear_quantiles(values: np.ndarray, qs: Sequence[float], counts: np.ndarray) -> np.ndarray:
    """np.quantile(np.repeat(values, counts), qs) by its default (linear)
    method, with the same bits, from the sorted values and their cumulative
    counts; np.quantile calls np.unique, whose first call imports numpy.ma."""
    keep = counts > 0
    values, counts = values[keep], counts[keep]
    order = np.argsort(values)
    ordered, counts = values[order], counts[order]
    ends = np.cumsum(counts)
    n = ends[-1]
    position = (n - 1) * np.asarray(qs, dtype=float)
    low = np.floor(position).astype(np.intp)
    high = low + 1
    top = position >= n - 1
    low[top] = high[top] = -1
    gamma = position - low
    # Repeated value i (-1 the last) is the first whose cumulative count exceeds i.
    a, b = (ordered[np.searchsorted(ends, i % n, side="right")] for i in (low, high))
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def sandwich_se(e: EstimateWithIF) -> float:
    """Plug-in standard error from the influence values, summed per cell: in a
    cell, alpha * y + beta averages alpha * ybar + beta, and its squared
    deviations from that average sum to alpha^2 * y_ss."""
    t = e.table
    count, y_mean, y_ss = t.count[0], t.y_mean[0], t.y_ss[0]
    n = float(np.sum(count))
    if n < 2:
        raise DegenerateTestError(f"{e.label}: need at least 2 rows for a variance")
    cell_mean = e.alpha * y_mean + e.beta
    dev = cell_mean - float(count @ cell_mean) / n
    with np.errstate(over="ignore"):  # an overflow is caught just below
        squares = float((e.alpha * e.alpha) @ y_ss + count @ (dev * dev))
    if not math.isfinite(squares):
        raise DegenerateTestError(f"{e.label}: sum of squared influence values is not finite")
    return math.sqrt(squares / (n - 1) / n)


def sandwich_ci(e: EstimateWithIF, level: float = 0.95) -> Interval:
    """Symmetric normal-theory interval around the estimate."""
    require_unit(level, "level")
    se = sandwich_se(e)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return Interval(
        estimate=e.value,
        std_error=se,
        lower=e.value - z * se,
        upper=e.value + z * se,
        level=level,
        method="sandwich",
    )


def wald_test(e: EstimateWithIF, null_value: float = 0.0) -> TestResult:
    """Two-sided z test of the estimate against a null value."""
    se = sandwich_se(e)
    if se == 0.0:
        raise DegenerateTestError(
            f"{e.label}: zero standard error, test statistic undefined"
        )
    z = (e.value - null_value) / se
    return TestResult(
        statistic=float(z),
        p_value=math.erfc(abs(z) / math.sqrt(2.0)),
        null=f"{e.label} = {null_value:g}",
        df=None,
    )


def check_seed(seed: int | np.random.SeedSequence) -> None:
    """np.random.SeedSequence takes non-negative integers only."""
    if not isinstance(seed, np.random.SeedSequence):
        require_count(seed, "seed", 0)


def keyed_seed(seed: int | np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """Child stream ``index`` of ``seed``, keyed by the index alone.

    So replicate i draws the same numbers whatever order replicates run in.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, index))


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(keyed_seed(seed, index))


def _keep_freed_heap() -> None:
    """Have glibc's allocator keep up to 16 MiB of freed heap, and map only
    arrays above 2 MiB, for the rest of the process. Otherwise the next
    replicate faults its freed working set back in: 58,000 minor faults in 25
    replicates on 20k Gaussian rows, 10,000 so. Off glibc nothing is done."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD


# The task of a forked worker. The pool's initializer sets it in each worker,
# which inherits it at the fork: closures over a dataset do not pickle.
_worker_task: Callable[[int], object] | None = None


def _start_worker(task: Callable[[int], object], parent: int) -> None:
    """Set up a forked worker: its task, Ctrl-C left to the parent, which
    ends its workers, and on Linux death with the parent."""
    import ctypes
    import signal

    global _worker_task
    _worker_task = task
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, TypeError, AttributeError):  # no prctl: not Linux
        pass
    if os.getppid() != parent:  # the parent died before the prctl
        os._exit(1)


def _run_worker_task(index: int) -> object:
    return _worker_task(index)


class _Tasks:
    """Tasks 0 .. count - 1 of ``task``: result(i) gives task i's value or
    raises its error, once, read in any order.

    With one worker a task runs in this process when it is read, after
    every earlier task that has not run, so the tasks run in index order
    and the first error is raised as it happens. With more, the pool's
    modules are imported, that many workers are forked at the first read,
    and they run the tasks in index order, up to four per worker past the
    last one read. close() ends the tasks still running and reaps the
    workers: Python 3.11's ProcessPoolExecutor cannot cancel a running
    task, so close() terminates the workers, and the pool, broken, joins
    them."""

    def __init__(self, task: Callable[[int], object], count: int, workers: int) -> None:
        self.task, self.count = task, count
        self.ran = 0  # the tasks run, or with workers submitted, so far
        self.values: dict = {}  # per task not yet read, its value or future
        self.workers = min(workers, count)
        if self.workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self.pool = ProcessPoolExecutor(
                self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(task, os.getpid()),
            )

    def _submit(self, stop: int) -> None:
        """Submit the tasks before ``stop``. The first submit forks the
        workers; Ctrl-C waits until the pool holds them, and their futures
        are held, so that close() finds every worker it must end."""
        import signal

        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for t in range(self.ran, min(stop, self.count)):
                self.values[t] = self.pool.submit(_run_worker_task, t)
            self.ran = max(self.ran, stop)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def result(self, i: int) -> object:
        if self.workers == 1:
            while self.ran <= i:
                self.values[self.ran] = self.task(self.ran)
                self.ran += 1
            return self.values.pop(i)
        from concurrent.futures.process import BrokenProcessPool

        try:
            self._submit(i + 4 * self.workers)
            return self.values.pop(i).result()
        except BrokenProcessPool:
            raise WorkerError(
                "a worker process ended before it returned its replicates; "
                "it may have run out of memory or been killed"
            ) from None

    def raise_failed(self, i: int) -> None:
        """Raise task i's error now, if it has ended with one."""
        future = self.values.get(i) if self.workers > 1 else None
        if future is not None and future.done() and future.exception() is not None:
            self.result(i)

    def close(self) -> None:
        if self.workers > 1:
            if not all(future.done() for future in self.values.values()):
                for process in list(self.pool._processes.values()):
                    process.terminate()
            self.pool.shutdown(wait=True, cancel_futures=True)


def run_replicates(
    chunk: Callable[[range], list[dict[str, float] | Exception]],
    count: int,
    size: int,
    what: str,
    workers: int = 1,
    lead: Callable[[], object] | None = None,
) -> tuple[dict[str, np.ndarray], int, object]:
    """Run replicates 0 .. count - 1 through ``chunk``, ``size`` indices at a
    time: per label the kept values in replicate order, the failure count,
    and the value of ``lead`` (None without one).

    ``chunk(indices)`` gives each index its values or its error. A FitError,
    or one that ``chunk`` raises for all its indices, drops and counts a
    replicate, and any other error is raised. More than count/2 failures, or
    fewer than two replicates left to keep, aborts. ``lead``, a callable of
    no arguments, is one more task, before the chunks; its error wins over
    theirs.

    With ``workers`` above 1, up to that many forked worker processes run
    the lead and the chunks, so call it with no other thread running. The
    chunks are read in replicate order, so the kept values, the drops and
    the abort are the ones of one worker. An error or an abort (or Ctrl-C)
    ends the tasks still running, the lead among them, before it is raised.
    Freed heap is kept, by the workers too."""
    _keep_freed_heap()  # before the fork, or each worker faults its heap back in
    starts = range(0, count, size)
    first = int(lead is not None)  # the lead is task 0, and chunk c task first + c

    def indices_of(t: int) -> range:
        start = starts[t - first]
        return range(start, min(start + size, count))

    def task(t: int) -> object:
        if t < first:
            return lead()
        indices = indices_of(t)
        try:
            return chunk(indices)
        except FitError as exc:
            return [exc] * len(indices)

    columns: dict[str, np.ndarray] = {}
    kept = failures = 0
    tasks = _Tasks(task, first + len(starts), workers)
    try:
        for t in range(first, first + len(starts)):
            for i, values in zip(indices_of(t), tasks.result(t)):
                if isinstance(values, Exception):
                    if not isinstance(values, FitError):
                        raise values
                    failures += 1
                    if failures > count / 2 or count - failures < 2:
                        raise FitError(
                            f"{what} aborted: {failures} of {i + 1} replicates failed to fit"
                        )
                    continue
                if not kept:
                    columns = {label: np.empty(count) for label in values}
                for label, value in values.items():
                    columns[label][kept] = value
                kept += 1
            if first:
                tasks.raise_failed(0)
        lead_value = tasks.result(0) if first else None
    except Exception:
        if first:
            tasks.raise_failed(0)  # an error of the lead wins
        raise
    finally:
        tasks.close()
    return {label: column[:kept] for label, column in columns.items()}, failures, lead_value


class _Draws:
    """The rows each bootstrap replicate of ``indices`` draws, as a sequence:
    item r is drawn anew from replicate indices[r]'s keyed stream, trial rows
    then emulation rows, each with replacement."""

    def __init__(self, d: Dataset, seed: int, indices: Sequence[int]) -> None:
        self.strata = (np.flatnonzero(d.s == 1), np.flatnonzero(d.s == 0))
        self.seed = seed
        self.indices = indices

    def __getitem__(self, r: int) -> np.ndarray:
        rng = _replicate_rng(self.seed, self.indices[r])
        return np.concatenate([rows[rng.integers(0, rows.size, rows.size)] for rows in self.strata])


# A chunk of replicates is fitted as one stack, whose largest arrays hold
# chunk * cells * coefficients floats; this bounds that product.
_CHUNK_FLOATS = 2**18


def bootstrap_chunk(
    d: Dataset, plan: AnalysisPlan, seed: int, indices: Sequence[int]
) -> list[dict[str, float] | Exception]:
    """Bootstrap replicates ``indices``, fitted together: per replicate its
    values, or the error its analysis raised.

    Every replicate is a row of cell sums over the rows it drew, and
    every nuisance fit and estimate runs on all the rows at once, row by
    row, so a replicate's values have the same bits whichever replicates
    share its chunk.
    """
    table = cell_table(d, plan.outcome_kind).resample(_Draws(d, seed, indices))
    estimates = run_plan(table, plan)
    out: list[dict[str, float] | Exception] = []
    for r in range(len(indices)):
        error = next((e.errors[r] for e in estimates.values() if e.errors[r]), None)
        out.append(error or {label: float(e.value[r]) for label, e in estimates.items()})
    return out


def bootstrap_replicate(
    d: Dataset, plan: AnalysisPlan, seed: int, index: int
) -> dict[str, float]:
    """One stratified resample and re-analysis; raises FitError on failure.

    The resample draws trial rows, then emulation rows, with replacement.
    Its analysis runs on the dataset's cell table with each row counted as
    often as it was drawn, which equals the analysis of the resampled rows
    themselves. It is the chunk of one of bootstrap_chunk.
    """
    (out,) = bootstrap_chunk(d, plan, seed, [index])
    if isinstance(out, Exception):
        raise out
    return out


def bootstrap(
    d: Dataset, plan: AnalysisPlan, B: int, seed: int, workers: int = 1
) -> dict[str, BootstrapResult]:
    """Stratified nonparametric bootstrap of every quantity in the plan.

    Replicates are fitted in chunks by bootstrap_chunk, which records the
    first error each replicate's analysis met, the error bootstrap_replicate
    would raise for it alone. run_replicates drops and counts fit failures
    (separation, positivity, degenerate strata), raises any other error, and
    aborts past B/2 failures or when fewer than two replicates are left to
    keep. Results are bit-identical for a given (d, plan, B, seed) regardless
    of execution order, chunking and ``workers`` (run_replicates), because
    each replicate owns an index-keyed RNG stream and is fitted row by row.
    """
    require_count(B, "B", 2)
    require_count(workers, "workers", 1)
    check_seed(seed)
    t = cell_table(d, plan.outcome_kind)
    size = max(1, _CHUNK_FLOATS // (t.s.size * (t.k + 1)))
    columns, failures, _ = run_replicates(
        lambda indices: bootstrap_chunk(d, plan, seed, indices), B, size, "bootstrap", workers
    )
    return {
        label: BootstrapResult(label, column, requested=B, failures=failures, seed=seed)
        for label, column in columns.items()
    }
