"""Run one trialbench command through ``trialbench.cli.main`` as a fresh process.

    python3 perfbench/launch.py SETUP_FILE TRACE_FILE|- <trialbench arguments>
    python3 perfbench/launch.py --environment

SETUP_FILE receives the CLOCK_MONOTONIC time at which ``trialbench.cli`` had
finished importing; that clock is system-wide on Linux, so the parent process
subtracts its own launch time from it. With a TRACE_FILE the public functions
are wrapped (see spans.py) and the spans are written there when the command
ends. ``--environment`` prints the numeric environment as one JSON object.
"""

from __future__ import annotations

import sys
import time


def environment() -> dict:
    import ctypes
    import importlib.metadata
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), symbol, None)
            if func is not None:
                threads = int(func())
                break
        if threads is not None:
            break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    if sys.argv[1:] == ["--environment"]:
        import json

        print(json.dumps(environment()))
        return 0
    setup_file, trace_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import trialbench.cli

    imported = time.monotonic()
    with open(setup_file, "w", encoding="utf-8") as fh:
        fh.write(repr(imported))
    if trace_file == "-":
        return trialbench.cli.main(argv)

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return trialbench.cli.main(argv)
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
