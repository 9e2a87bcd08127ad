"""Command line entry point.

Three subcommands, each driven by a single JSON config file:

* ``analyze``: load a composite CSV, run the requested estimators with
  inference and diagnostics, write a JSON report plus a text summary.
* ``simulate``: run a Monte Carlo study of a scenario and write its report.
* ``validate``: run the structural dataset checks and report them.

Exit codes are stable: 0 success, 2 configuration problem, 3 data problem,
4 estimation or testing failure, 5 internal error, 6 out of memory.
``validate`` exits 3 when the dataset fails a hard check. On failure a
one-line JSON object describing the error goes to stdout.

The replicates of ``analyze`` and ``simulate`` run on one forked worker per
CPU this process may use, each at one BLAS thread, so the bits of a report
depend on neither count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback

from .config import AnalysisConfig, SimulationConfig, ValidateConfig, load_json
from .data import ColumnSchema, Dataset, load_dataset, validate
from .errors import (
    ConfigError,
    DataError,
    DegenerateTestError,
    FitError,
    IncompatibleEstimatesError,
    TrialbenchError,
)
from .report import (
    build_analysis_report,
    build_simulation_report,
    build_validation_report,
    render_analysis_summary,
    render_simulation_summary,
    render_validation_summary,
    run_simulation_config,
    write_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FIT = 4
EXIT_INTERNAL = 5
EXIT_MEMORY = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialbench",
        description=(
            "Benchmark an observational trial emulation against its index "
            "randomized trial with doubly robust estimators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("analyze", "estimate, test, and diagnose on a composite dataset"),
        ("simulate", "Monte Carlo study of a synthetic scenario"),
        ("validate", "structural checks on a composite dataset"),
    )
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON config file")
        p.add_argument("--output", help="override the config's output path")
        p.add_argument(
            "--quiet", action="store_true", help="suppress the text summary on stdout"
        )
    return parser


def _text_path(output: str) -> str:
    return output[: -len(".json")] + ".txt" if output.endswith(".json") else output + ".txt"


def _load(path: str, schema: ColumnSchema) -> Dataset:
    try:
        return load_dataset(path, schema)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc


def _commands(workers: int) -> dict:
    """Per command: its config class, how it builds its report on
    ``workers`` processes and how it renders the summary. Built per call, so
    every function is the module global of the moment: tests and tracers
    replace them."""
    return {
        "analyze": (
            AnalysisConfig,
            lambda c: build_analysis_report(c, _load(c.input, c.schema), workers),
            render_analysis_summary,
        ),
        "simulate": (
            SimulationConfig,
            lambda c: build_simulation_report(c, run_simulation_config(c, workers)),
            render_simulation_summary,
        ),
        "validate": (
            ValidateConfig,
            lambda c: build_validation_report(c, validate(_load(c.input, c.schema))),
            render_validation_summary,
        ),
    }


def _run(command: str, raw: dict, output: str | None, quiet: bool, workers: int) -> int:
    config_class, build, render = _commands(workers)[command]
    config = config_class.from_dict(raw)
    if output is not None:
        config = dataclasses.replace(config, output=output)
    report = build(config)
    summary = render(report)
    if config.output is not None:
        try:
            write_report(report, config.output)
            with open(_text_path(config.output), "w", encoding="utf-8") as fh:
                fh.write(summary)
        except OSError as exc:
            raise ConfigError(f"cannot write output {config.output}: {exc}") from exc
    if not quiet:
        print(summary)
        if config.output is not None:
            print(f"report written to {config.output}")
    # Only a dataset that fails a hard check reports validation.ok false.
    return EXIT_OK if report.get("validation", {"ok": True})["ok"] else EXIT_DATA


def _fail(exc: BaseException, code: int) -> int:
    payload = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    print(json.dumps(payload))
    return code


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads():
    """The (get, set) functions of the thread count of numpy's bundled
    OpenBLAS, or None where a thread variable is set or none is found."""
    if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return None
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            get, put = (getattr(lib, f"scipy_openblas_{verb}_num_threads64_", None)
                        for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one command: its replicates on a worker per usable CPU, and its
    BLAS at one thread, whose count is restored on return (a thread variable
    set by the user is left in charge)."""
    args = build_parser().parse_args(argv)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas = _blas_threads()
    if blas is not None:
        get, put = blas
        threads = get()
        put(1)
    try:
        raw = load_json(args.config)
        return _run(args.command, raw, args.output, args.quiet, workers)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail(exc, EXIT_DATA)
    except (FitError, DegenerateTestError, IncompatibleEstimatesError) as exc:
        return _fail(exc, EXIT_FIT)
    except TrialbenchError as exc:
        return _fail(exc, EXIT_INTERNAL)
    except MemoryError as exc:
        return _fail(exc, EXIT_MEMORY)
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 5
        traceback.print_exc(file=sys.stderr)
        return _fail(exc, EXIT_INTERNAL)
    finally:
        if blas is not None:
            put(threads)


if __name__ == "__main__":
    sys.exit(main())
