"""The trialbench benchmark: each workload as fresh ``trialbench`` processes.

    python3 perfbench/run.py --workload analyze_d1 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --short          # each workload once, few replicates
    python3 -m pytest perfbench               # tests of the benchmark itself

It runs the package from the ``src/`` next to it. Every command is one
operation: the benchmark writes its config into a directory of its own,
launches ``trialbench.cli.main`` through launch.py, and checks the report it
writes (check.py). Commands run one at a time, each with one BLAS thread (see
``BLAS_THREADS``). A command fails if it exits non-zero,
times out or fails its check. Inputs follow from ``--seed``: command i of a
run uses config seed ``1000 * seed + i``.

``--trace 0`` measures for ``--seconds`` and reports, as medians over the
commands, the end-to-end metrics:

* ``wall_s``: process launch to exit of one command;
* ``setup_s``: process launch until ``trialbench.cli`` is imported;
* ``cpu_s``: user plus system CPU time of the command's process tree;
* ``peak_rss_mb``: peak resident memory of the command's process.

The three times are given at a fixed reference speed of the host. A shared
host's speed drifts by up to a half over minutes, more than the bound a
change is judged by, so before each command the run times reference.py, a
fixed kernel of numpy and scipy work that uses no trialbench code, and scales
that command's times by ``REFERENCE_S`` over the reference's time. The raw
medians and the reference's median are printed too.

``--trace 1`` alternates untraced and traced commands (spans.py) and reports
the per-layer metrics, as medians over the traced commands, plus the tracing
overhead on wall time. layer_map.json says which end-to-end metric each one
should move, and on which workload.

Reports go to a temporary directory in the repository root, removed at exit.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "data" / "d1_fixture.csv"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
PER_LAYER_UNITS["trace.overhead_s"] = "s"

# BLAS threads of each command. On a 2-vCPU VM a second OpenBLAS thread left
# wall_s unchanged but doubled cpu_s, and its spin-waits made both swing with
# whatever else shared the host; one thread measures the program's own work.
BLAS_THREADS = "1"

# A round figure near the time of reference.py, launch to exit, on a calm
# 2-vCPU VM (Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread); it took
# 2.3-3.9 s there as the host's speed drifted. Times are scaled to this speed.
REFERENCE_S = 2.5

# A run ends within this many seconds even if a command hangs.
HARD_LIMIT_S = 165.0

# The plan of configs/analyze_d1.json. The benchmark keeps its own copy, so an
# edit to the shipped config cannot change what is measured.
ANALYZE_D1_PLAN = {
    "schema": {"s": "S", "a": "A", "y": "Y", "x": ["X1"]},
    "outcome_kind": "continuous",
    "estimators": ["phi", "chi", "psi"],
    "arms": [0, 1],
    "level": 0.95,
    "restriction": True,
    "overlap": True,
}

# Three Gaussian covariates, binary outcome, no violations: every row is a
# distinct covariate pattern and 6 of the 10 nuisance fits are logistic.
SIMULATE_GAUSS_PLAN = {
    "scenario": {
        "covariates": {"kind": "gaussian", "dim": 3},
        "participation": [-0.3, 0.5, -0.4, 0.3],
        "trial_arm_prob": 0.5,
        "emulation_propensity": [-0.2, 0.4, 0.3, -0.5],
        "outcome_intercept": -0.5,
        "outcome_x": [0.6, -0.4, 0.3],
        "outcome_treatment": 0.8,
        "outcome_tx": [0.3, 0.0, -0.2],
        "outcome_kind": "binary",
    },
    "n": [10000, 10000],
    "estimators": ["phi", "chi", "psi"],
    "arms": [0, 1],
    "restriction": True,
}


@dataclass(frozen=True)
class Workload:
    subcommand: str  # "analyze" or "simulate"
    plan: dict
    replicates: int  # bootstrap or Monte Carlo replicates per command
    check: Callable[[dict, int], list[str]]  # (report, replicates) -> problems

    def config(self, seed: int, replicates: int) -> dict:
        if self.subcommand == "analyze":
            extra = {"input": str(FIXTURE), "bootstrap": replicates}
        else:
            extra = {"reps": replicates}
        return {**self.plan, **extra, "seed": seed, "output": "report.json"}


# Replicate counts keep one command near 4-8 s on two cores, so a 55 s run
# holds four or more commands, each after its reference run. There are only
# two workloads so that runs of about a minute, which a shared host needs for
# steady medians, still fit in an hour of measuring for both.
WORKLOADS = {
    "analyze_d1": Workload("analyze", ANALYZE_D1_PLAN, 100, check.check_analysis),
    "simulate_gauss": Workload("simulate", SIMULATE_GAUSS_PLAN, 25, check.check_simulate_gauss),
}
SHORT_REPLICATES = 10  # per command with --short


@dataclass
class Sample:
    """One command: its resource use, whether it passed, and its spans."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    reference_s: float = float("nan")  # reference.py just before; see REFERENCE_S


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with its rusage, killing it after timeout seconds."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, not ready


def _tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_command(
    workdir: Path, name: str, seed: int, replicates: int, traced: bool, timeout: float, env: dict
) -> Sample:
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(workload.config(seed, replicates)))
    setup_file = workdir / "setup"
    trace_file = workdir / "trace.json"
    argv = [
        sys.executable,
        str(HERE / "launch.py"),
        str(setup_file),
        str(trace_file) if traced else "-",
        workload.subcommand,
        "config.json",
    ]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        try:
            usage, timed_out = _wait(proc, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    try:
        setup_s = float(setup_file.read_text()) - start
    except (OSError, ValueError):
        setup_s = float("nan")
    sample = Sample(
        wall_s=end - start,
        setup_s=setup_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if timed_out:
        sample.problems.append(f"timed out after {timeout:.0f} s")
    elif proc.returncode != 0:
        detail = _tail(workdir / "stdout") or _tail(workdir / "stderr")
        sample.problems.append(f"exit {proc.returncode}: {detail}")
    else:
        report = json.loads((workdir / "report.json").read_text())
        sample.problems += workload.check(report, replicates)
        if traced:
            sample.trace = json.loads(trace_file.read_text())
    return sample


def reference_time(env: dict, timeout: float) -> float:
    """Launch-to-exit time of reference.py, the host-speed gauge."""
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=max(timeout, 0.0),
        check=True,
    )
    return time.monotonic() - start


def measure(
    name: str, seed: int, seconds: float, trace: bool, short: bool, workroot: Path, env: dict
) -> tuple[list[Sample], list[Sample]]:
    """Run commands for `seconds`; returns (untraced, traced) samples.

    A new command (or untraced/traced pair) starts only if the typical one
    so far would end within `seconds`; the first always runs. Untraced runs
    time the reference kernel before each command.
    """
    replicates = SHORT_REPLICATES if short else WORKLOADS[name].replicates
    plain: list[Sample] = []
    traced: list[Sample] = []
    units: list[float] = []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    for i in range(1000):
        unit_start = time.monotonic()
        cmd_seed = seed * 1000 + i
        for with_trace in (False, True) if trace else (False,):
            remaining = deadline - time.monotonic()
            reference_s = float("nan") if trace else reference_time(env, remaining)
            sample = run_command(
                workroot / f"{name}-{i}-{int(with_trace)}",
                name,
                cmd_seed,
                replicates,
                with_trace,
                deadline - time.monotonic(),
                env,
            )
            sample.reference_s = reference_s
            (traced if with_trace else plain).append(sample)
            status = "ok" if not sample.problems else "FAILED: " + "; ".join(sample.problems)
            print(
                f"{name} #{i} seed {cmd_seed}{' traced' if with_trace else ''}: "
                f"wall {sample.wall_s:.3f} s, {status}",
                file=sys.stderr,
            )
        now = time.monotonic()
        units.append(now - unit_start)
        typical = statistics.median(units)
        if short or now - start + typical > seconds or deadline - now < 2 * typical:
            break
    return plain, traced


def _median(values: list[float]) -> float:
    finite = [v for v in values if v == v]
    return statistics.median(finite) if finite else float("nan")


SCALED = ("wall_s", "setup_s", "cpu_s")


def end_to_end_metrics(samples: list[Sample], scale: bool = True) -> dict[str, float]:
    """Medians over the commands that passed; times at the reference speed."""
    good = [s for s in samples if not s.problems] or samples

    def value(s: Sample, metric: str) -> float:
        factor = REFERENCE_S / s.reference_s if scale and metric in SCALED else 1.0
        return getattr(s, metric) * factor

    return {metric: _median([value(s, metric) for s in good]) for metric in END_TO_END}


def per_layer_metrics(plain: list[Sample], traced: list[Sample]) -> dict[str, float]:
    per_command = [spans.layer_metrics(s.trace) for s in traced if s.trace is not None]
    names = [n for n in spans.PER_LAYER if all(n in m for m in per_command)]
    out = {n: _median([m[n] for m in per_command]) for n in names}
    out["trace.overhead_s"] = _median([s.wall_s for s in traced]) - _median(
        [s.wall_s for s in plain]
    )
    return out


def describe_trace(traced: list[Sample]) -> None:
    good = [s for s in traced if s.trace is not None]
    if not good:
        return
    shares = ", ".join(
        f"{name} {ms / 1e3:.3f} s ({ms / 1e3 / good[0].wall_s:.0%})"
        for name, ms in spans.stage_times(good[0].trace)[:6]
    )
    print(f"largest stages of the first traced command, share of its wall time: {shares}")
    absent = sorted({a for s in good for a in s.trace["absent"]})
    if absent:
        print(f"absent wrap points (their metrics are omitted): {absent}")


def child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def numeric_environment(env: dict, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "--environment"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return {**json.loads(out.stdout), "seed": seed}


def warm_up(env: dict) -> None:
    """Import the package once, untimed, so bytecode caches are written."""
    subprocess.run(
        [sys.executable, "-c", "import trialbench.cli"], env=env, timeout=120, check=True
    )


def _print_metrics(name: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    for metric, value in metrics.items():
        print(f"  {name:<15} {metric:<42} {value:>14.6f} {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true", help="one command per workload with few replicates"
    )
    args = parser.parse_args(argv)

    if not (SRC / "trialbench" / "cli.py").is_file() or not FIXTURE.is_file():
        print(f"perfbench: no trialbench source or D1 fixture under {ROOT}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running command is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    print("environment: " + json.dumps(numeric_environment(env, args.seed)))
    warm_up(env)

    workroot = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            plain, traced = measure(
                name, args.seed, args.seconds, bool(args.trace), args.short, workroot / name, env
            )
            samples = plain + traced
            attempted += len(samples)
            failed += sum(1 for s in samples if s.problems)
            if args.trace:
                describe_trace(traced)
                values = per_layer_metrics(plain, traced)
            else:
                values = end_to_end_metrics(plain)
                raw = end_to_end_metrics(plain, scale=False)
                print(
                    f"{name}: reference kernel median "
                    f"{_median([s.reference_s for s in plain]):.3f} s, scaled to {REFERENCE_S} s; "
                    "raw medians " + ", ".join(f"{m} {raw[m]:.3f} s" for m in SCALED)
                )
            print(f"{name}: {len(samples)} commands, {sum(bool(s.problems) for s in samples)} failed")
            _print_metrics(name, values, units)
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in values.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
