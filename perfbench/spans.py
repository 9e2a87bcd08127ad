"""Span recorder that traces trialbench from outside its source.

``install`` wraps each wrap point below in every ``trialbench`` module
namespace that binds it. Callers use ``from .x import f``, so patching only
the defining module would miss their calls. Each span records its name,
start, end, parent, the exception type it raised (if any) and counts read
from the call's arguments and return value. Spans stay in memory until
``Recorder.dump`` writes them out when the command ends.

``layer_metrics`` turns the spans of one command into the per-layer metrics.
A wrap point that no longer exists is reported as absent, and every metric
built on it is left out instead of crashing.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# Public functions wrapped per module, by qualified name. estimate_phi/chi/psi
# stay unwrapped so that run_plan_with's self time is the whole AIPW kernel.
WRAP_POINTS = {
    "config": (
        "load_json",
        "AnalysisConfig.from_dict",
        "SimulationConfig.from_dict",
        "ValidateConfig.from_dict",
    ),
    "data": ("load_dataset", "validate", "Dataset.subset"),
    "glm": ("fit_logistic", "fit_linear"),
    "nuisance": ("fit_nuisances",),
    "estimators": ("run_plan", "run_plan_with"),
    "inference": ("bootstrap", "bootstrap_replicate", "sandwich_se", "sandwich_ci", "wald_test"),
    "diagnostics": ("restriction_test", "overlap_summary"),
    "simulation": ("true_values", "generate", "replicate_estimates", "run_monte_carlo"),
    "report": (
        "build_analysis_report",
        "build_simulation_report",
        "run_simulation_config",
        "render_analysis_summary",
        "render_simulation_summary",
        "validate_report",
        "write_report",
    ),
    "cli": ("main",),
}
LAYERS = tuple(WRAP_POINTS)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _fit_counts(args, kwargs, result):
    design = _arg(args, kwargs, 0, "design")
    counts = {"rows": int(design.shape[0]), "bytes": int(design.nbytes)}
    if hasattr(result, "iterations"):
        counts["iters"] = int(result.iterations)
    return counts


def _dataset_rows(args, kwargs, result):
    return {"rows": int(result.n)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Counts come from what a call was given and what it returned.
COUNTERS = {
    "glm.fit_logistic": _fit_counts,
    "glm.fit_linear": _fit_counts,
    "data.Dataset.subset": _dataset_rows,
    "simulation.generate": _dataset_rows,
    "report.write_report": _file_bytes,
}


class Recorder:
    """In-memory spans of one process: [name, start, end, parent, error, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def _package_modules() -> list:
    return [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == "trialbench" or key.startswith("trialbench."))
    ]


def install(recorder: Recorder) -> None:
    """Wrap every wrap point of the already imported trialbench package."""
    modules = _package_modules()
    for layer, qualnames in WRAP_POINTS.items():
        module = sys.modules.get(f"trialbench.{layer}")
        for qualname in qualnames:
            name = f"{layer}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                recorder.absent.append(name)
                continue
            if owner_name:
                # A method or classmethod lives on its class only.
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, recorder.wrap(name, raw))
                continue
            traced = recorder.wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, traced)


class _Spans:
    """Queries over one command's spans; remembers which span names it read."""

    def __init__(self, trace: dict) -> None:
        self.spans = trace["spans"]
        self.dur_ms = [(end - start) * 1e3 for _, start, end, _, _, _ in self.spans]
        self.self_ms = list(self.dur_ms)
        self.by_name: dict[str, list[int]] = {}
        for i, (name, _, _, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                self.self_ms[parent] -= self.dur_ms[i]
            self.by_name.setdefault(name, []).append(i)
        self.read: set[str] = set()

    def _idx(self, *names: str) -> list[int]:
        self.read.update(names)
        return [i for n in names for i in self.by_name.get(n, ())]

    def calls(self, name: str) -> int:
        return len(self._idx(name))

    def ms(self, *names: str) -> float:
        return sum(self.dur_ms[i] for i in self._idx(*names))

    def self_ms_of(self, *names: str) -> float:
        return sum(self.self_ms[i] for i in self._idx(*names))

    def pct_ms(self, name: str, q: int) -> float:
        """The q-th percentile of the span's durations; 0 when it never ran."""
        values = [self.dur_ms[i] for i in self._idx(name)]
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    def count(self, key: str, *names: str) -> float:
        return sum(self.spans[i][5][key] for i in self._idx(*names) if self.spans[i][5])

    def failed(self, name: str) -> int:
        return sum(1 for i in self._idx(name) if self.spans[i][4] is not None)

    def children_per_call(self, parent: str, *children: str) -> float:
        """Mean number of `children` spans called directly by each `parent` span."""
        parents = set(self._idx(parent))
        owned = sum(1 for i in self._idx(*children) if self.spans[i][3] in parents)
        return owned / len(parents) if parents else 0.0

    def layer_self_ms(self, layer: str) -> float:
        return sum(
            self.self_ms[i] for i, span in enumerate(self.spans) if span[0].split(".", 1)[0] == layer
        )


_BOOT = "inference.bootstrap_replicate"
_REP = "simulation.replicate_estimates"
_FITS = ("glm.fit_logistic", "glm.fit_linear")
_BUILD = ("report.build_analysis_report", "report.build_simulation_report")

# name -> (unit, value from one command's spans)
PER_LAYER = {
    "inference.bootstrap.ms": ("ms", lambda t: t.ms("inference.bootstrap")),
    f"{_BOOT}.calls": ("count", lambda t: t.calls(_BOOT)),
    f"{_BOOT}.p50_ms": ("ms", lambda t: t.pct_ms(_BOOT, 50)),
    f"{_BOOT}.p90_ms": ("ms", lambda t: t.pct_ms(_BOOT, 90)),
    "inference.replicates_failed": ("count", lambda t: t.failed(_BOOT)),
    "data.subset.calls": ("count", lambda t: t.calls("data.Dataset.subset")),
    "data.subset.rows": ("rows", lambda t: t.count("rows", "data.Dataset.subset")),
    "data.load_dataset.ms": ("ms", lambda t: t.ms("data.load_dataset")),
    "data.validate.ms": ("ms", lambda t: t.ms("data.validate")),
    "nuisance.fit_nuisances.calls": ("count", lambda t: t.calls("nuisance.fit_nuisances")),
    "nuisance.fit_nuisances.p50_ms": ("ms", lambda t: t.pct_ms("nuisance.fit_nuisances", 50)),
    "nuisance.models_per_call": (
        "count",
        lambda t: t.children_per_call("nuisance.fit_nuisances", *_FITS),
    ),
    "glm.fit_logistic.calls": ("count", lambda t: t.calls("glm.fit_logistic")),
    "glm.fit_logistic.self_ms": ("ms", lambda t: t.self_ms_of("glm.fit_logistic")),
    "glm.fit_linear.calls": ("count", lambda t: t.calls("glm.fit_linear")),
    "glm.fit_linear.self_ms": ("ms", lambda t: t.self_ms_of("glm.fit_linear")),
    "glm.newton_iters": ("count", lambda t: t.count("iters", "glm.fit_logistic")),
    "glm.rows_fitted": ("rows", lambda t: t.count("rows", *_FITS)),
    # Summed design array sizes: computed from shapes, not a measured footprint.
    "glm.design_mb": ("MB_computed", lambda t: t.count("bytes", *_FITS) / 2**20),
    "estimators.run_plan_with.self_ms": (
        "ms",
        lambda t: t.self_ms_of("estimators.run_plan_with"),
    ),
    "diagnostics.restriction_test.calls": (
        "count",
        lambda t: t.calls("diagnostics.restriction_test"),
    ),
    "diagnostics.restriction_test.p50_ms": (
        "ms",
        lambda t: t.pct_ms("diagnostics.restriction_test", 50),
    ),
    "diagnostics.overlap_summary.ms": ("ms", lambda t: t.ms("diagnostics.overlap_summary")),
    "simulation.true_values.ms": ("ms", lambda t: t.ms("simulation.true_values")),
    "simulation.generate.calls": ("count", lambda t: t.calls("simulation.generate")),
    "simulation.generate.p50_ms": ("ms", lambda t: t.pct_ms("simulation.generate", 50)),
    "simulation.generate.rows": ("rows", lambda t: t.count("rows", "simulation.generate")),
    f"{_REP}.calls": ("count", lambda t: t.calls(_REP)),
    f"{_REP}.p50_ms": ("ms", lambda t: t.pct_ms(_REP, 50)),
    f"{_REP}.p90_ms": ("ms", lambda t: t.pct_ms(_REP, 90)),
    "simulation.replicates_failed": ("count", lambda t: t.failed(_REP)),
    "report.build.self_ms": ("ms", lambda t: t.self_ms_of(*_BUILD)),
    "report.validate_report.ms": ("ms", lambda t: t.ms("report.validate_report")),
    "report.write_report.ms": ("ms", lambda t: t.ms("report.write_report")),
    "report.bytes_written": ("bytes", lambda t: t.count("bytes", "report.write_report")),
    **{
        f"{layer}.self_ms": ("ms", lambda t, layer=layer: t.layer_self_ms(layer))
        for layer in LAYERS
    },
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command; absent wrap points omit theirs."""
    spans = _Spans(trace)
    absent = set(trace["absent"])
    out = {}
    for name, (_, value) in PER_LAYER.items():
        spans.read = set()
        v = float(value(spans))
        if not spans.read & absent:
            out[name] = v
    return out


# Spans that only sequence the stages below them.
ORCHESTRATORS = (
    "cli.main",
    "report.build_analysis_report",
    "report.build_simulation_report",
    "report.run_simulation_config",
    "simulation.run_monte_carlo",
)


def stage_times(trace: dict) -> list[tuple[str, float]]:
    """Total ms per stage, largest first: spans called by an orchestrator."""
    spans = trace["spans"]
    totals: dict[str, float] = {}
    for name, start, end, parent, _, _ in spans:
        if name not in ORCHESTRATORS and parent >= 0 and spans[parent][0] in ORCHESTRATORS:
            totals[name] = totals.get(name, 0.0) + (end - start) * 1e3
    return sorted(totals.items(), key=lambda item: -item[1])
