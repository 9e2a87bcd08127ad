"""Tests of the benchmark itself: python3 -m pytest perfbench

They run every workload once with few replicates (about 30 s on two cores).
They sit outside the package's testpaths, so the tier-1 suite skips them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import pytest
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    layer_map = json.loads((run.HERE / "layer_map.json").read_text())["map"]
    mapped = [name for entry in layer_map for name in entry["per_layer"]]
    assert sorted(mapped) == sorted(run.PER_LAYER_UNITS)


def test_short_mode_prints_every_end_to_end_metric_with_its_unit():
    result = _result(_run("--short"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0


def test_short_traced_run_prints_every_per_layer_metric():
    result = _result(_run("--short", "--workload", "analyze_d1", "--trace", "1"))
    assert result["correct"] and result["attempted"] == 2
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == run.PER_LAYER_UNITS
    assert result["metrics"]["nuisance.models_per_call"]["value"] == 10
    assert result["metrics"]["inference.bootstrap_replicate.calls"]["value"] == 10


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    slow = run.Sample(6.0, 1.5, 5.0, 100.0, reference_s=2 * run.REFERENCE_S)
    m = run.end_to_end_metrics([slow])
    assert (m["wall_s"], m["setup_s"], m["cpu_s"], m["peak_rss_mb"]) == (3.0, 0.75, 2.5, 100.0)
    assert run.end_to_end_metrics([slow], scale=False)["wall_s"] == 6.0


def test_layer_metrics_use_self_time_and_omit_absent_wrap_points():
    trace = {
        "absent": ["data.Dataset.subset"],
        "spans": [
            ["nuisance.fit_nuisances", 0.0, 1.0, -1, None, None],
            ["glm.fit_logistic", 0.1, 0.4, 0, None, {"rows": 10, "bytes": 2**20, "iters": 5}],
            ["glm.fit_linear", 0.5, 0.6, 0, None, {"rows": 10, "bytes": 2**20}],
            ["glm.fit_linear", 2.0, 2.5, -1, "SingularDesignError", None],
        ],
    }
    m = spans.layer_metrics(trace)
    assert "data.subset.calls" not in m and "data.subset.rows" not in m
    assert m["nuisance.models_per_call"] == 2
    assert m["nuisance.self_ms"] == pytest.approx(600)
    assert m["glm.self_ms"] == pytest.approx(900)
    assert m["glm.fit_linear.calls"] == 2
    assert (m["glm.newton_iters"], m["glm.rows_fitted"], m["glm.design_mb"]) == (5, 20, 2)
    assert m["inference.bootstrap_replicate.calls"] == 0


def test_checker_rejects_a_perturbed_phi1(tmp_path):
    sample = run.run_command(
        tmp_path / "cmd", "analyze_d1", 7, 10, False, 120.0, run.child_environment()
    )
    assert sample.problems == []
    report = json.loads((tmp_path / "cmd" / "report.json").read_text())
    assert check.check_analysis(report, 10) == []
    report["estimates"]["phi"]["1"]["value"] *= 1 + 1e-6
    problems = check.check_analysis(report, 10)
    assert len(problems) == 1 and problems[0].startswith("phi(1)")


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "analyze_d1", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
