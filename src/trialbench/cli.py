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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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


def _commands() -> dict:
    """Per command: its config class, how it builds its report and how it
    renders the summary. Built per call, so every function is the module
    global of the moment: tests and tracers replace them."""
    return {
        "analyze": (
            AnalysisConfig,
            lambda c: build_analysis_report(c, _load(c.input, c.schema)),
            render_analysis_summary,
        ),
        "simulate": (
            SimulationConfig,
            lambda c: build_simulation_report(c, run_simulation_config(c)),
            render_simulation_summary,
        ),
        "validate": (
            ValidateConfig,
            lambda c: build_validation_report(c, validate(_load(c.input, c.schema))),
            render_validation_summary,
        ),
    }


def _run(command: str, raw: dict, output: str | None, quiet: bool) -> int:
    config_class, build, render = _commands()[command]
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


def _keep_freed_heap() -> None:
    """Have glibc's allocator keep the memory the process frees.

    Every bootstrap and Monte Carlo replicate frees its working set at its
    end. By default glibc hands the top of its heap back to the kernel once
    it exceeds its trim threshold, and serves a large array by a fresh
    mapping, so the next replicate faults the same pages back in, zeroed:
    about 58,000 minor faults in 25 replicates on 20k Gaussian rows, 10,000
    with these settings. Fixed thresholds keep up to 16 MiB of freed heap
    and map only arrays above 2 MiB. Nothing is done where the C library
    has no mallopt, as off glibc. Only the command line calls this; the
    library leaves the allocator alone.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        raw = load_json(args.config)
        return _run(args.command, raw, args.output, args.quiet)
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


if __name__ == "__main__":
    sys.exit(main())
