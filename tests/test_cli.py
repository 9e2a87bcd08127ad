import contextlib
import ctypes
import dataclasses
import importlib
import io
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trialbench
from trialbench import cli, glm, report, simulation
from trialbench.cli import main
from trialbench.config import AnalysisConfig, SimulationConfig, ValidateConfig
from trialbench.scenarios import truth_table
from trialbench.nuisance import MODEL_NAMES
from trialbench.report import load_report_schema, validate_report

from conftest import FIXTURE_CSV, REPO_ROOT, children, pinned_low, run_fresh

SCHEMA = {"s": "S", "a": "A", "y": "Y", "x": ["X1"]}


def analysis_payload(tmp_path, **overrides) -> dict:
    payload = {
        "input": str(FIXTURE_CSV),
        "schema": SCHEMA,
        "output": str(tmp_path / "report.json"),
    }
    payload.update(overrides)
    return payload


def written_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def simulation_payload(tmp_path, **overrides) -> dict:
    payload = {
        "scenario": "D1",
        "reps": 10,
        "n": [300, 300],
        "seed": 6,
        "estimators": ["phi"],
        "arms": [1],
        "restriction": False,
        "output": str(tmp_path / "sim.json"),
    }
    payload.update(overrides)
    return payload


def test_analyze_end_to_end(tmp_path, write_config, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", write_config(analysis_payload(tmp_path))])
    assert code == 0
    report = written_report(out)
    validate_report(report)
    assert report["kind"] == "analysis"
    for name in ("phi", "chi", "psi"):
        value = report["estimates"][name]["1"]["value"]
        assert abs(value - 3.8026246797750964) < 0.1
        interval = report["estimates"][name]["1"]["sandwich"]
        assert interval["lower"] < value < interval["upper"]
    assert report["interpretation"]["benchmarking_verdict"] == "compatible"
    assert report["contrasts"]["ate"]["phi"]["value"] == pytest.approx(
        report["estimates"]["phi"]["1"]["value"] - report["estimates"]["phi"]["0"]["value"],
        abs=1e-10,
    )
    assert (tmp_path / "report.txt").exists()
    stdout = capsys.readouterr().out
    assert "report written to" in stdout
    assert "treatment effects" in stdout


def test_analyze_quiet_suppresses_summary(tmp_path, write_config, capsys):
    code = main(["analyze", write_config(analysis_payload(tmp_path)), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_analyze_output_flag_overrides_and_is_echoed(tmp_path, write_config):
    override = tmp_path / "moved.json"
    code = main(
        ["analyze", write_config(analysis_payload(tmp_path)), "--quiet", "--output", str(override)]
    )
    assert code == 0
    report = written_report(override)
    assert report["metadata"]["config"]["output"] == str(override)
    assert not (tmp_path / "report.json").exists()


def test_analyze_config_echo_reproduces_report(tmp_path, write_config):
    out = tmp_path / "report.json"
    payload = analysis_payload(tmp_path, bootstrap=25, seed=14)
    assert main(["analyze", write_config(payload), "--quiet"]) == 0
    first = written_report(out)

    echo = first["metadata"]["config"]
    assert main(["analyze", write_config(echo, "echo.json"), "--quiet"]) == 0
    second = written_report(out)

    first["metadata"].pop("created_utc")
    second["metadata"].pop("created_utc")
    assert first == second


def test_simulate_end_to_end(tmp_path, write_config, capsys):
    out = tmp_path / "sim.json"
    code = main(["simulate", write_config(simulation_payload(tmp_path))])
    assert code == 0
    report = written_report(out)
    validate_report(report)
    assert report["kind"] == "simulation"
    assert report["result"]["truths"]["mean1"] == pytest.approx(3.8026246797750964, abs=1e-12)
    series = report["result"]["series"]
    assert len(series) == 1 and series[0]["reps_used"] == 10
    stdout = capsys.readouterr().out
    assert "bias" in stdout


def test_validate_good_dataset(tmp_path, write_config, capsys):
    out = tmp_path / "validation.json"
    payload = {"input": str(FIXTURE_CSV), "schema": SCHEMA, "output": str(out)}
    code = main(["validate", write_config(payload)])
    assert code == 0
    report = written_report(out)
    validate_report(report)
    assert report["kind"] == "validation"
    assert report["validation"]["ok"] is True
    assert "dataset is usable" in capsys.readouterr().out


def test_validate_failing_dataset_exits_3_and_reports(tmp_path, write_config):
    csv = tmp_path / "bad.csv"
    lines = ["S,A,Y,X1"]
    lines += [f"1,{i % 2},1.5,{i % 2}" for i in range(8)]
    lines += ["0,0,1.0,0", "0,0,2.0,1", "0,0,1.3,0", "0,0,0.7,1"]
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "validation.json"
    payload = {"input": str(csv), "schema": SCHEMA, "output": str(out)}
    code = main(["validate", write_config(payload), "--quiet"])
    assert code == 3
    report = written_report(out)
    assert report["validation"]["ok"] is False
    failed = [c for c in report["validation"]["checks"] if c["status"] == "fail"]
    assert any("(s=0, a=1)" in c["message"] for c in failed)


@pytest.mark.parametrize(
    "command, payload",
    [
        ("simulate", simulation_payload),
        ("validate", analysis_payload),
        ("validate", lambda tmp_path: {"input": str(FIXTURE_CSV), "schema": SCHEMA}),
    ],
    ids=["simulate", "validate", "validate-without-output"],
)
def test_output_flag_overrides_and_is_echoed(tmp_path, write_config, capsys, command, payload):
    payload = payload(tmp_path)
    override = tmp_path / "moved.json"
    assert main([command, write_config(payload), "--output", str(override)]) == 0
    report = written_report(override)
    assert report["kind"] == {"simulate": "simulation", "validate": "validation"}[command]
    assert report["metadata"]["config"]["output"] == str(override)
    assert (tmp_path / "moved.txt").exists()
    assert sorted(p.name for p in tmp_path.glob("*.json")) == ["config.json", "moved.json"]
    assert capsys.readouterr().out.endswith(f"\nreport written to {override}\n")


def test_unconverged_nuisance_fit_is_a_report_warning(
    tmp_path, write_config, capsys, monkeypatch
):
    monkeypatch.setattr(glm, "_MAX_ITER", 1)
    assert main(["analyze", write_config(analysis_payload(tmp_path))]) == 0
    report = written_report(tmp_path / "report.json")
    models = ("participation", "propensity_s0", "propensity_s1", "propensity_pooled")
    for name in models:
        assert report["nuisance"][name]["converged"] is False
    expected = [f"nuisance: {name} did not converge" for name in models]
    assert [w for w in report["warnings"] if w.startswith("nuisance:")] == expected
    summary = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "warnings\n" + "".join(f"  - {w}\n" for w in expected) in summary
    assert summary in capsys.readouterr().out


def test_simulation_summary_names_misspecified_models(tmp_path, write_config, capsys):
    payload = simulation_payload(tmp_path, misspec=["outcome_s0"])
    assert main(["simulate", write_config(payload)]) == 0
    summary = (tmp_path / "sim.txt").read_text(encoding="utf-8")
    assert "\nmisspecified models: outcome_s0 (X1)\n" in summary
    assert "replicates dropped" not in summary
    assert summary in capsys.readouterr().out


def test_simulation_summary_names_the_study_sizes_in_words(tmp_path, write_config, capsys):
    payload = simulation_payload(tmp_path, n=[300, 200])
    assert main(["simulate", write_config(payload)]) == 0
    summary = (tmp_path / "sim.txt").read_text(encoding="utf-8")
    assert summary.splitlines()[0] == (
        f"trialbench {trialbench.__version__} simulation: "
        "10 replicates, n = 300 trial, 200 emulation, seed 6"
    )
    assert summary in capsys.readouterr().out


def test_analysis_summary_lists_rows_above_the_weight_threshold(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, weight_threshold=2.0)
    assert main(["analyze", write_config(payload)]) == 0
    weights = written_report(tmp_path / "report.json")["diagnostics"]["overlap"]["weights"]
    counts = {"phi(0)": 1578, "chi(0)": 1990, "phi(1)": 2729, "chi(1)": 2008}
    assert {k: w["count_above"] for k, w in weights.items()} == {
        **counts, "psi(0)": 0, "psi(1)": 0
    }
    summary = (tmp_path / "report.txt").read_text(encoding="utf-8")
    flagged = ", ".join(f"{k} {v}" for k, v in counts.items())
    assert f"\noverlap: max weight 3.03; rows above threshold 2: {flagged}\n" in summary
    assert summary in capsys.readouterr().out


def test_simulation_summary_counts_dropped_replicates(tmp_path, write_config, capsys):
    # At 15 rows per study, 2 of these 10 replicates fail to fit.
    payload = simulation_payload(tmp_path, n=[15, 15], seed=3)
    assert main(["simulate", write_config(payload)]) == 0
    assert written_report(tmp_path / "sim.json")["result"]["failures"] == 2
    summary = (tmp_path / "sim.txt").read_text(encoding="utf-8")
    assert "\nreplicates dropped for fit failures: 2\n" in summary
    assert "misspecified models" not in summary
    assert summary in capsys.readouterr().out


def test_unknown_config_key_exits_2(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, estimator="phi")
    code = main(["analyze", write_config(payload), "--quiet"])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "estimator" in error["message"]
    assert error["exit_code"] == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.json")])
    assert code == 2
    assert "not found" in json.loads(capsys.readouterr().out)["error"]["message"]


@pytest.mark.parametrize("form", ["directory", "not utf-8", "deeply nested"])
def test_unreadable_config_file_exits_2_naming_it(tmp_path, capsys, form):
    # Each used to escape load_json (IsADirectoryError, UnicodeDecodeError,
    # RecursionError) and exit 5.
    path = tmp_path / "config.json"
    if form == "directory":
        path.mkdir()
    elif form == "not utf-8":
        path.write_bytes(b'{"input": "\xff"}')
    else:
        path.write_text("[" * 200_000)
    assert main(["analyze", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError"
    assert str(path) in error["message"]


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    assert "not valid JSON" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_single_bootstrap_replicate_rejected(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, bootstrap=1)
    assert main(["analyze", write_config(payload), "--quiet"]) == 2
    assert "bootstrap" in json.loads(capsys.readouterr().out)["error"]["message"]


def _config_error(capsys) -> dict:
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    return error


def test_string_replicate_count_exits_2(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, bootstrap="abc")
    assert main(["analyze", write_config(payload), "--quiet"]) == 2
    assert "'bootstrap' must be an integer" in _config_error(capsys)["message"]


def test_fractional_replicate_count_exits_2(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, bootstrap=2.7)
    assert main(["analyze", write_config(payload), "--quiet"]) == 2
    assert "'bootstrap' must be an integer" in _config_error(capsys)["message"]


def test_string_flag_exits_2(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, hajek="false")
    assert main(["analyze", write_config(payload), "--quiet"]) == 2
    assert "'hajek' must be true or false" in _config_error(capsys)["message"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("reps", 10.0),
        ("seed", True),
        ("truth_draws", "5000"),
        ("restriction", 1),
        ("n", [300.5, 300]),
    ],
)
def test_simulate_config_rejects_wrong_json_types(tmp_path, write_config, capsys, key, value):
    payload = {"scenario": "D1", "reps": 10, "n": [300, 300], "output": str(tmp_path / "s.json")}
    payload[key] = value
    assert main(["simulate", write_config(payload), "--quiet"]) == 2
    assert repr(key) in _config_error(capsys)["message"]


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_negative_seed_exits_2_naming_seed(tmp_path, write_config, capsys, command):
    # np.random.SeedSequence refuses a negative seed; its ValueError used to exit 5.
    payload = json.loads((REPO_ROOT / "configs" / f"{command}_d1.json").read_text(encoding="utf-8"))
    if command == "simulate":
        payload.update(reps=2, n=[200, 200])
    else:
        payload.update(input=str(FIXTURE_CSV), bootstrap=5)
    payload.update(seed=-1, output=str(tmp_path / "out.json"))
    assert main([command, write_config(payload), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert "'seed'" in error["message"]
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def _inline_ft(**changes) -> dict:
    """The FT scenario inline, with keys replaced."""
    return {"scenario": {**truth_table("FT").to_dict(), **changes}}


# (command, changes to a runnable payload, the key the message names): each
# argument rule a config applies, broken once.
OUT_OF_RANGE = {
    "analyze level 0": ("analyze", {"level": 0.0}, "level"),
    "analyze level 1": ("analyze", {"level": 1.0}, "level"),
    "analyze restriction_threshold": ("analyze", {"restriction_threshold": 1.0}, "restriction_threshold"),
    "analyze bootstrap 1": ("analyze", {"bootstrap": 1}, "bootstrap"),
    "analyze bootstrap -2": ("analyze", {"bootstrap": -2}, "bootstrap"),
    "analyze seed": ("analyze", {"seed": -1}, "seed"),
    "analyze weight_threshold": ("analyze", {"weight_threshold": 0.0}, "weight_threshold"),
    "analyze ridge": ("analyze", {"ridge": -1.0}, "ridge"),
    "analyze outcome_kind": ("analyze", {"outcome_kind": "ordinal"}, "outcome_kind"),
    "analyze estimators": ("analyze", {"estimators": ["xi"]}, "estimators"),
    "analyze arms": ("analyze", {"arms": [2]}, "arms"),
    "simulate reps": ("simulate", {"reps": 1}, "reps"),
    "simulate n": ("simulate", {"n": [0, 5]}, "n"),
    "simulate truth_draws": ("simulate", {"truth_draws": 999}, "truth_draws"),
    "simulate level": ("simulate", {"level": 0.0}, "level"),
    "simulate restriction_threshold": ("simulate", {"restriction_threshold": 0.0}, "restriction_threshold"),
    "simulate seed": ("simulate", {"seed": -1}, "seed"),
    "simulate ridge": ("simulate", {"ridge": -1.0}, "ridge"),
    "simulate estimators": ("simulate", {"estimators": []}, "estimators"),
    "simulate arms": ("simulate", {"arms": [0, 0]}, "arms"),
    "scenario trial_arm_prob": ("simulate", _inline_ft(trial_arm_prob=1.0), "trial_arm_prob"),
    "scenario noise_sd": ("simulate", _inline_ft(noise_sd=-1.0), "noise_sd"),
    "scenario outcome_kind": ("simulate", _inline_ft(outcome_kind="ordinal"), "outcome_kind"),
    "scenario confounding u_prob": ("simulate", _inline_ft(confounding={"u_prob": 0.0}), "u_prob"),
    "scenario transport u_prob": ("simulate", _inline_ft(transport={"u_prob": 1.0}), "u_prob"),
    "scenario covariates p": ("simulate", _inline_ft(covariates={"kind": "binary", "p": [1.0]}), "p"),
    "scenario covariates dim": ("simulate", _inline_ft(covariates={"kind": "gaussian", "dim": 0}), "dim"),
    "scenario covariates kind": ("simulate", _inline_ft(covariates={"kind": "uniform"}), "kind"),
}


@pytest.mark.parametrize("command, changes, key", OUT_OF_RANGE.values(), ids=list(OUT_OF_RANGE))
def test_each_config_rule_exits_2_with_a_one_line_error_naming_the_key(
    tmp_path, write_config, capsys, command, changes, key
):
    if command == "analyze":
        payload = analysis_payload(tmp_path, **changes)
    else:
        payload = simulation_payload(tmp_path, **changes)
    assert main([command, write_config(payload), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"{command} config")
    assert repr(key) in error["message"]
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "sim.json").exists()


def test_missing_input_csv_exits_3(tmp_path, write_config, capsys):
    payload = analysis_payload(tmp_path, input=str(tmp_path / "absent.csv"))
    assert main(["analyze", write_config(payload), "--quiet"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["exit_code"] == 3


def test_unparseable_cell_exits_3(tmp_path, write_config, capsys):
    csv = tmp_path / "bad_cell.csv"
    csv.write_text("S,A,Y,X1\n1,0,oops,0\n1,1,1.0,1\n0,0,1.0,0\n0,1,2.0,1\n")
    payload = analysis_payload(tmp_path, input=str(csv))
    assert main(["analyze", write_config(payload), "--quiet"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_separated_propensity_exits_4(tmp_path, write_config, capsys):
    csv = tmp_path / "separated.csv"
    lines = ["S,A,Y,X1"]
    for i in range(40):
        x = i % 2
        lines.append(f"1,{x},{1.0 + 0.1 * (i % 7):.2f},{x}")
    for i in range(40):
        lines.append(f"0,{(i // 2) % 2},{1.5 + 0.1 * (i % 5):.2f},{i % 2}")
    csv.write_text("\n".join(lines) + "\n")
    payload = analysis_payload(tmp_path, input=str(csv))
    assert main(["analyze", write_config(payload), "--quiet"]) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "SeparationError"
    assert "propensity_s1" in error["message"]


def test_overflowing_outcome_exits_4_with_one_line_error(tmp_path, write_config, capsys):
    # Squares of a 1e300 outcome overflow; no inf may reach the report as null.
    lines = FIXTURE_CSV.read_text(encoding="utf-8").splitlines()
    y_column = lines[0].split(",").index("Y")
    first = lines[1].split(",")
    first[y_column] = "1e300"
    lines[1] = ",".join(first)
    csv = tmp_path / "huge_outcome.csv"
    csv.write_text("\n".join(lines) + "\n")
    payload = analysis_payload(tmp_path, input=str(csv))
    assert main(["analyze", write_config(payload), "--quiet"]) == 4
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["exit_code"] == 4
    assert error["message"].startswith("outcome_")
    assert "not finite" in error["message"]


def test_overflowing_influence_squares_exit_4_without_a_warning(tmp_path, write_config, capsys):
    # Outcomes near 1e152 fit, but the squares in the sandwich SE overflow.
    # numpy's overflow warning must not escape: as an error (the test
    # settings, or python -W error) it made the command exit 5.
    lines = FIXTURE_CSV.read_text(encoding="utf-8").splitlines()
    y_column = lines[0].split(",").index("Y")
    for i in range(1, len(lines)):
        row = lines[i].split(",")
        row[y_column] = repr(float(row[y_column]) * 1e152)
        lines[i] = ",".join(row)
    csv = tmp_path / "huge_outcomes.csv"
    csv.write_text("\n".join(lines) + "\n")
    payload = analysis_payload(tmp_path, input=str(csv))
    assert main(["analyze", write_config(payload), "--quiet"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {
        "error": {
            "type": "DegenerateTestError",
            "message": "phi(0): sum of squared influence values is not finite",
            "exit_code": 4,
        }
    }


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_report_schema_ships_with_package():
    schema = load_report_schema()
    assert schema["$schema"].startswith("http://json-schema.org/")


def test_console_script_is_installed(tmp_path, write_config):
    exe = shutil.which("trialbench")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    payload = {"input": str(FIXTURE_CSV), "schema": SCHEMA}
    proc = subprocess.run(
        [exe, "validate", write_config(payload)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "dataset is usable" in proc.stdout


def test_cli_import_leaves_out_scipy_stats():
    # scipy.special alone takes about 0.3 s to import; the numerics need none of scipy.
    code = (
        "import sys, trialbench.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert run_fresh(code, timeout=120).strip() == "[]"


def test_cli_import_leaves_out_the_process_pool():
    # The pool modules load only when a command forks workers; importing
    # multiprocessing and concurrent.futures costs every command its time.
    code = (
        "import sys, trialbench.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    assert run_fresh(code, timeout=120).strip() == "[]"


def test_analyze_run_leaves_out_jsonschema_and_importlib_metadata(tmp_path, write_config):
    # Importing jsonschema (with referencing) or importlib.metadata (with email)
    # costs every command tens of milliseconds before it does any work.
    config = write_config(analysis_payload(tmp_path, bootstrap=20))
    code = (
        "import sys, trialbench.cli; "
        f"assert trialbench.cli.main(['analyze', {config!r}, '--quiet']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', 'referencing') "
        "or m.startswith('importlib.metadata')))"
    )
    assert run_fresh(code, timeout=120).strip() == "[]"
    assert (tmp_path / "report.json").exists()


def test_analyze_run_leaves_out_numpy_ma(tmp_path, write_config):
    # np.quantile and a plain np.unique import numpy.ma on their first call,
    # about 10 ms of a cold analyze that uses nothing of it.
    payload = analysis_payload(tmp_path, bootstrap=20, restriction=True, overlap=True)
    config = write_config(payload)
    code = (
        "import sys, trialbench.cli; "
        f"assert trialbench.cli.main(['analyze', {config!r}, '--quiet']) == 0; "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    assert run_fresh(code, timeout=120).strip() == "[]"


def test_binary_law_simulate_leaves_out_numpy_ma(tmp_path, write_config):
    # The enumeration truths listed the covariate patterns with
    # np.unique(axis=0), which imports numpy.ma (about 13 ms) on every
    # binary-law simulate.
    payload = {"scenario": "D1", "reps": 3, "n": [300, 300], "output": str(tmp_path / "s.json")}
    config = write_config(payload)
    code = (
        "import sys, trialbench.cli; "
        f"assert trialbench.cli.main(['simulate', {config!r}, '--quiet']) == 0; "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    assert run_fresh(code, timeout=120).strip() == "[]"


@pytest.mark.parametrize("n", [[10**13, 10**13], [10**9, 10**9]])
@pytest.mark.parametrize("scenario", ["D1", "gaussian"])
def test_impossible_study_size_exits_2_naming_n_without_allocating(
    tmp_path, write_config, capsys, n, scenario
):
    # One replicate of these sizes would need hundreds of GiB or more; the
    # first draw used to end in a MemoryError, exit 5.
    if scenario == "gaussian":
        scenario = {
            "covariates": {"kind": "gaussian", "dim": 1},
            "participation": [-0.4, 0.8],
            "trial_arm_prob": 0.5,
            "emulation_propensity": [-0.2, 0.6],
            "outcome_intercept": 1.0,
            "outcome_x": [1.0],
            "outcome_treatment": 2.0,
            "outcome_tx": [1.0],
        }
    payload = {"scenario": scenario, "reps": 2, "n": n, "output": str(tmp_path / "s.json")}
    config = write_config(payload)
    tracemalloc.start()
    try:
        code = main(["simulate", config, "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "'n'" in _config_error(capsys)["message"]
    assert peak < 2**20
    assert not (tmp_path / "s.json").exists()



@pytest.mark.parametrize("command, key", [("analyze", "bootstrap"), ("simulate", "reps")])
def test_impossible_replicate_count_exits_2_naming_it_without_allocating(
    tmp_path, write_config, capsys, command, key
):
    # The replicate records would take 8 bytes per value per replicate,
    # terabytes here; they used to end in a MemoryError, exit 5.
    if command == "analyze":
        payload = analysis_payload(tmp_path, bootstrap=10**12)
    else:
        payload = simulation_payload(tmp_path, reps=10**12)
    config = write_config(payload)
    tracemalloc.start()
    try:
        code = main([command, config, "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError"
    assert f"'{key}'" in error["message"]
    assert peak < 2**20


def _one_kept_payload(tmp_path, command) -> dict:
    # Of two replicates, the second fails to fit and one is left; that used
    # to reach the report with a NaN spread and exit 5.
    if command == "simulate":
        return {"scenario": "D1", "reps": 2, "n": [6, 6], "seed": 2, "restriction": False,
                "output": str(tmp_path / "s.json")}
    data = tmp_path / "d.csv"
    trialbench.save_dataset(trialbench.generate(trialbench.d1(), (12, 12), 0), str(data))
    return analysis_payload(tmp_path, input=str(data), bootstrap=2, seed=0)


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_a_run_that_keeps_one_replicate_exits_4(tmp_path, write_config, capsys, command):
    code = main([command, write_config(_one_kept_payload(tmp_path, command)), "--quiet"])
    captured = capsys.readouterr()
    assert code == 4
    lines = captured.out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "FitError"
    assert error["message"].endswith("aborted: 1 of 2 replicates failed to fit")
    assert "RuntimeWarning" not in captured.err


def test_impossible_binary_support_exits_2_naming_scenario_without_allocating(
    tmp_path, write_config, capsys
):
    # 2^40 covariate patterns: the truths and every draw would build the whole
    # support, a tuple at a time before it was built as arrays.
    k = 40
    scenario = {
        "covariates": {"kind": "binary", "p": [0.5] * k},
        "participation": [0.0] * (k + 1),
        "trial_arm_prob": 0.5,
        "emulation_propensity": [0.0] * (k + 1),
        "outcome_intercept": 1.0,
        "outcome_x": [0.0] * k,
        "outcome_treatment": 2.0,
        "outcome_tx": [0.0] * k,
        "confounding": {},
        "transport": {},
    }
    payload = {"scenario": scenario, "reps": 2, "n": [100, 100], "output": str(tmp_path / "s.json")}
    config = write_config(payload)
    tracemalloc.start()
    try:
        code = main(["simulate", config, "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert "'scenario'" in error["message"]
    assert peak < 2**20
    assert not (tmp_path / "s.json").exists()

def test_report_that_breaks_the_schema_exits_5_with_a_one_line_error(
    tmp_path, write_config, capsys, monkeypatch
):
    build = cli.build_analysis_report

    def broken(config, d, workers):
        report = build(config, d, workers)
        report["estimates"]["phi"]["0"]["sandwich"]["level"] = 1.5
        return report

    monkeypatch.setattr(cli, "build_analysis_report", broken)
    assert main(["analyze", write_config(analysis_payload(tmp_path)), "--quiet"]) == 5
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {
        "type": "ReportSchemaError",
        "message": "report.estimates.phi.0.sandwich.level: out of range",
        "exit_code": 5,
    }
    assert not (tmp_path / "report.json").exists()


def test_memory_error_exits_6_with_a_one_line_error(
    tmp_path, write_config, capsys, monkeypatch
):
    # A stage that runs out of memory, raised here instead of allocated.
    def out_of_memory(config, d, workers):
        raise MemoryError("cannot allocate the nuisance designs")

    monkeypatch.setattr(cli, "build_analysis_report", out_of_memory)
    assert main(["analyze", write_config(analysis_payload(tmp_path)), "--quiet"]) == 6
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {
        "type": "MemoryError",
        "message": "cannot allocate the nuisance designs",
        "exit_code": 6,
    }
    assert not (tmp_path / "report.json").exists()


def test_overlap_weight_that_overflows_exits_4_naming_it(
    tmp_path, write_config, capsys, monkeypatch
):
    fit = report.fit_nuisances
    monkeypatch.setattr(report, "fit_nuisances", lambda *args, **kw: pinned_low(fit(*args, **kw)))
    payload = analysis_payload(tmp_path, estimators=["phi"], arms=[1])  # phi reads neither pinned model
    assert main(["analyze", write_config(payload), "--quiet"]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "FitError",
        "message": "overlap: chi(1) maximum weight is not finite",
        "exit_code": 4,
    }
    assert not (tmp_path / "report.json").exists()


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# A Gaussian law with a binary outcome: at (20000, 20000) every row is a
# cell, so each replicate's working set is a few MB, freed at its end.
FAULTS_LAW = {
    "covariates": {"kind": "gaussian", "dim": 3}, "participation": [-0.3, 0.5, -0.4, 0.3],
    "trial_arm_prob": 0.5, "emulation_propensity": [-0.2, 0.4, 0.3, -0.5],
    "outcome_intercept": -0.5, "outcome_x": [0.6, -0.4, 0.3], "outcome_treatment": 0.8,
    "outcome_tx": [0.3, 0.0, -0.2], "outcome_kind": "binary",
}

# Simulates FAULTS_LAW and prints the minor page faults of the main call;
# KEEP False stubs out the allocator settings. One usable CPU keeps the
# replicates in this process, where RUSAGE_SELF counts their faults.
SIMULATE_FAULTS = f"""
import json, os, resource, tempfile
from trialbench import cli, inference
os.sched_getaffinity = lambda pid: {{0}}
if not KEEP:
    inference._keep_freed_heap = lambda: None
law = {FAULTS_LAW!r}
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({{"scenario": law, "n": [20000, 20000], "reps": 3, "truth_draws": 100000,
                   "seed": 5, "output": os.path.join(tmp, "report.json")}}, fh)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["simulate", config, "--quiet"]) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# The same study through the library alone, with no command line around it.
LIBRARY_FAULTS = f"""
import resource
from trialbench import ScenarioConfig, inference, run_monte_carlo
if not KEEP:
    inference._keep_freed_heap = lambda: None
law = ScenarioConfig.from_dict({FAULTS_LAW!r})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_monte_carlo(law, 3, (20000, 20000), 5, truth_draws=100000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_cli_keeps_the_heap_its_replicates_free():
    # On a 2-vCPU Linux machine: about 5,800 minor faults with the settings,
    # 17,000-19,000 without them.
    kept, returned = (
        int(run_fresh(f"KEEP = {keep}\n" + SIMULATE_FAULTS, timeout=120)) for keep in (True, False)
    )
    assert kept < returned / 2, (kept, returned)


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_library_monte_carlo_keeps_the_heap_its_replicates_free():
    # The replicate loop applies the settings, so a library caller gets them
    # too: on a 2-vCPU Linux machine about 5,750 minor faults with them,
    # 17,700-20,400 with them stubbed out.
    kept, returned = (
        int(run_fresh(f"KEEP = {keep}\n" + LIBRARY_FAULTS, timeout=120)) for keep in (True, False)
    )
    assert kept < returned / 2, (kept, returned)


class _Recorded:
    """A C library whose mallopt records its calls."""

    def __init__(self, calls):
        self.mallopt = lambda parameter, value: calls.append((parameter, value))


@pytest.mark.parametrize("libc", ["recorded", "unloadable", "without-mallopt"])
def test_allocator_settings_are_glibc_mallopt_calls_or_nothing(
    tmp_path, write_config, monkeypatch, libc
):
    calls = []

    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library here")
        return _Recorded(calls) if libc == "recorded" else object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["simulate", write_config(simulation_payload(tmp_path)), "--quiet"]) == 0
    expected = [(-1, 16 << 20), (-3, 2 << 20)] if libc == "recorded" else []
    assert [(int(p), int(v)) for p, v in calls] == expected


def test_report_version_is_the_version_pyproject_reads(tmp_path, write_config):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    module, _, name = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    version = getattr(importlib.import_module(module), name)
    assert re.fullmatch(r"\d+\.\d+\.\d+", version)
    out = tmp_path / "validation.json"
    payload = {"input": str(FIXTURE_CSV), "schema": SCHEMA, "output": str(out)}
    assert main(["validate", write_config(payload), "--quiet"]) == 0
    assert written_report(out)["metadata"]["version"] == version == trialbench.__version__


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_csv_with_byte_order_mark_reads_as_without(tmp_path, write_config, command):
    # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark.
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + FIXTURE_CSV.read_bytes())
    reports = []
    for name, source in (("plain", FIXTURE_CSV), ("marked", marked)):
        out = tmp_path / f"{name}.json"
        payload = {"input": str(source), "schema": SCHEMA, "output": str(out)}
        assert main([command, write_config(payload, f"{name}-config.json"), "--quiet"]) == 0
        report = written_report(out)
        del report["metadata"]["created_utc"], report["metadata"]["config"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "byte-order-mark"])
@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_csv_that_is_not_utf8_exits_3_naming_the_byte_offset(
    tmp_path, write_config, capsys, command, marked
):
    # One byte 0xff in a cell of the last data row; the offset counts bytes
    # from the start of the file, a byte-order mark included.
    text = FIXTURE_CSV.read_bytes()
    bom = b"\xef\xbb\xbf" if marked else b""
    offset = len(bom) + text.rstrip(b"\n").rindex(b"\n") + 2
    bad = tmp_path / "latin.csv"
    bad.write_bytes(bom + text[: offset - len(bom)] + b"\xff" + text[offset - len(bom) :])
    payload = {"input": str(bad), "schema": SCHEMA, "output": str(tmp_path / "r.json")}
    assert main([command, write_config(payload), "--quiet"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {
        "error": {
            "type": "DataError",
            "message": f"{bad}: not UTF-8 text: byte 0xff at byte offset {offset} "
            "cannot be decoded",
            "exit_code": 3,
        }
    }
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("factor", [1e200, 1e-200])
def test_rescaled_covariate_gives_the_same_estimates(tmp_path, write_config, factor):
    # The fits scale each covariate column by a power of two before the rank
    # decision and the solve, so X1 times 1e200 or 1e-200 fits as X1 does.
    lines = FIXTURE_CSV.read_text(encoding="utf-8").splitlines()
    x_column = lines[0].split(",").index("X1")
    for i in range(1, len(lines)):
        row = lines[i].split(",")
        row[x_column] = repr(float(row[x_column]) * factor)
        lines[i] = ",".join(row)
    scaled = tmp_path / "scaled.csv"
    scaled.write_text("\n".join(lines) + "\n")
    reports = []
    for name, csv in (("original", FIXTURE_CSV), ("scaled", scaled)):
        output = tmp_path / f"{name}.json"
        payload = analysis_payload(tmp_path, input=str(csv), output=str(output), bootstrap=20)
        assert main(["analyze", write_config(payload, f"{name}.json"), "--quiet"]) == 0
        reports.append(written_report(output))
    original, rescaled = reports
    for name in ("phi", "chi", "psi"):
        for arm in ("0", "1"):
            expected = original["estimates"][name][arm]["value"]
            got = rescaled["estimates"][name][arm]["value"]
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0), (name, arm)


def _fixture_with(tmp_path, name: str, change) -> pathlib.Path:
    """The fixture CSV with ``change(column, value)`` applied to every data cell."""
    lines = FIXTURE_CSV.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for i in range(1, len(lines)):
        row = lines[i].split(",")
        lines[i] = ",".join(change(column, value) for column, value in zip(header, row))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _leaves(entry, path=()):
    """(path, value) of every number in a report entry."""
    if isinstance(entry, dict):
        for key, value in entry.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
        yield path, entry


def test_shifted_outcome_gives_the_same_contrasts(tmp_path, write_config):
    # A contrast's influence values centre within the sum of its parents'
    # budgets: phi(1) and phi(0) near 1e9 each carry a rounding error that
    # their difference, near 2.4, keeps.
    shifted = _fixture_with(
        tmp_path, "shifted.csv", lambda c, v: repr(float(v) + 1e9) if c == "Y" else v
    )
    reports = []
    for name, csv in (("original", FIXTURE_CSV), ("shifted", shifted)):
        output = tmp_path / f"{name}.json"
        payload = analysis_payload(tmp_path, input=str(csv), output=str(output), bootstrap=20)
        assert main(["analyze", write_config(payload, f"{name}.json"), "--quiet"]) == 0
        reports.append(written_report(output)["contrasts"])
    original, moved = reports
    for family in ("ate", "benchmarking"):
        for key, entry in original[family].items():
            expected, got = dict(_leaves(entry)), dict(_leaves(moved[family][key]))
            assert got.keys() == expected.keys()
            # The z statistic divides the estimate by its standard error.
            slack = 1e-5 / entry["sandwich"]["std_error"]
            for path, value in expected.items():
                bound = slack if path[0] == "test" else 1e-5
                assert got[path] == pytest.approx(value, rel=0.0, abs=bound), (family, key, path)


def test_overflowing_slope_exits_4_naming_the_outcome_model(tmp_path, write_config, capsys):
    # The outcome slope of X1 * 1e-200 against Y * 1e120 is 1e320, beyond the
    # float range once the column scale is taken back out.
    def change(column: str, value: str) -> str:
        factor = {"X1": 1e-200, "Y": 1e120}.get(column)
        return value if factor is None else repr(float(value) * factor)

    csv = _fixture_with(tmp_path, "overflow.csv", change)
    payload = analysis_payload(tmp_path, input=str(csv))
    assert main(["analyze", write_config(payload), "--quiet"]) == 4
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["exit_code"] == 4
    assert error["message"].startswith("outcome_")
    assert "not finite" in error["message"]


MAGNITUDES = (1.0, 1e150, 1e-150, 1e300, 1e-300)


@st.composite
def analyze_runs(draw) -> tuple[str, dict]:
    """A small CSV with S, A, Y and one or two covariates, and the analyze
    config to run on it (without input and output)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 60))
    columns: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("binary", "normal", "constant", "duplicate")))
        if kind == "duplicate" and columns:
            columns.append(columns[0].copy())
            continue
        if kind == "constant":
            column = np.full(n, draw(st.sampled_from((0.0, 1.0, -3.0))))
        elif kind == "binary":
            column = rng.integers(0, 2, n).astype(float)
        else:
            column = rng.normal(size=n)
        columns.append(column * draw(st.sampled_from(MAGNITUDES)))
    outcome_kind = draw(st.sampled_from(("binary", "continuous")))
    outcome = draw(st.sampled_from(("varied", "constant")))
    if outcome == "constant":
        y = np.ones(n)
    elif outcome_kind == "binary":
        y = rng.integers(0, 2, n).astype(float)
    else:
        y = rng.normal(size=n) * draw(st.sampled_from(MAGNITUDES))
    s, a = rng.integers(0, 2, n), rng.integers(0, 2, n)
    rows = list(zip(s, a, y, *columns))
    if draw(st.booleans()):  # every row twice
        rows = rows[: n // 2] * 2
    names = [f"X{j + 1}" for j in range(len(columns))]
    lines = [",".join(["S", "A", "Y", *names])]
    lines += [",".join([str(int(r[0])), str(int(r[1])), *map(repr, map(float, r[2:]))]) for r in rows]
    config = {
        "schema": {"s": "S", "a": "A", "y": "Y", "x": names},
        "outcome_kind": outcome_kind,
        "ridge": draw(st.sampled_from((0.0, 1.0))),
        "hajek": draw(st.booleans()),
        "include_interactions": draw(st.booleans()),
        "bootstrap": draw(st.sampled_from((0, 5))),
        "seed": 3,
    }
    return "\n".join(lines) + "\n", config


@settings(max_examples=200, deadline=None, database=None)
@given(run=analyze_runs())
def test_analyze_exits_within_its_families(tmp_path_factory, run):
    # Every input ends in exit 0 or in its own family (2 config, 3 data,
    # 4 fit) with a one-line JSON error, never in exit 5, and in bounded time.
    text, payload = run
    work = tmp_path_factory.mktemp("fuzz")
    (work / "data.csv").write_text(text)
    payload = {**payload, "input": str(work / "data.csv"), "output": str(work / "report.json")}
    (work / "config.json").write_text(json.dumps(payload))
    stdout = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main(["analyze", str(work / "config.json"), "--quiet"])
    assert time.perf_counter() - started < 5.0
    out = stdout.getvalue()
    assert code in (0, 2, 3, 4), out
    if code:
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["exit_code"] == code


@st.composite
def simulate_runs(draw) -> dict:
    """An inline simulate config (without output): binary covariates with
    1-3 probabilities or a Gaussian law of dim 1-3, logits up to 10 times
    the unit scale, one violation or none, either outcome kind, misspecified
    models or none, and subsets of the estimators and arms. Study sizes are
    at most 200, drawn from 100-200 half the time, as smaller ones mostly
    fail to fit."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        covariates = {"kind": "binary", "p": draw(st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k))}
    else:
        covariates = {"kind": "gaussian", "dim": k}
    scale = draw(st.sampled_from((1.0, 3.0, 10.0)))
    coefficient = st.floats(-1.0, 1.0).map(lambda v: v * scale)
    law = {
        "covariates": covariates,
        "participation": draw(st.lists(coefficient, min_size=k + 1, max_size=k + 1)),
        "trial_arm_prob": draw(st.floats(0.1, 0.9)),
        "emulation_propensity": draw(st.lists(coefficient, min_size=k + 1, max_size=k + 1)),
        "outcome_intercept": draw(coefficient),
        "outcome_x": draw(st.lists(coefficient, min_size=k, max_size=k)),
        "outcome_treatment": draw(coefficient),
        "outcome_tx": draw(st.lists(coefficient, min_size=k, max_size=k)),
        "outcome_kind": draw(st.sampled_from(("binary", "continuous"))),
    }
    violation = draw(st.sampled_from((None, "confounding", "transport")))
    if violation:
        law[violation] = {}
    config = {
        "scenario": law,
        "reps": draw(st.integers(2, 4)),
        "n": draw(st.lists(st.integers(1, 200) | st.integers(100, 200), min_size=2, max_size=2)),
        "seed": 3,
        "estimators": draw(st.lists(st.sampled_from(("phi", "chi", "psi")), min_size=1, unique=True)),
        "arms": draw(st.lists(st.sampled_from((0, 1)), min_size=1, unique=True)),
        "restriction": draw(st.booleans()),
        "ridge": draw(st.sampled_from((0.0, 1.0))),
        "truth_draws": 1000,
    }
    models = st.sampled_from(MODEL_NAMES)
    misspec = draw(st.sampled_from(("none", "models", "covariates")))
    if misspec == "models":  # each drops X1
        config["misspec"] = draw(st.lists(models, min_size=1, max_size=3, unique=True))
    elif misspec == "covariates":
        names = st.lists(st.sampled_from([f"X{j + 1}" for j in range(k)]), min_size=1, unique=True)
        config["misspec"] = draw(st.dictionaries(models, names, min_size=1, max_size=3))
    return config


@settings(max_examples=40, deadline=None, database=None)
@given(payload=simulate_runs())
def test_simulate_exits_within_its_families(tmp_path_factory, payload):
    # As analyze: exit 0 or the family of the failure, with a one-line JSON
    # error, never exit 5, and in bounded time.
    work = tmp_path_factory.mktemp("fuzz")
    payload = {**payload, "output": str(work / "simulation.json")}
    (work / "config.json").write_text(json.dumps(payload))
    stdout = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main(["simulate", str(work / "config.json"), "--quiet"])
    assert time.perf_counter() - started < 5.0
    out = stdout.getvalue()
    assert code in (0, 2, 3, 4), out
    if code:
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["exit_code"] == code


@st.composite
def lopsided_runs(draw) -> tuple[str, dict]:
    """A small CSV whose rows all share one study, or one treatment arm
    overall or within one study, and the analyze config to run on it
    (without input and output)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    s, a = rng.integers(0, 2, n), rng.integers(0, 2, n)
    shape = draw(st.sampled_from(("one study", "one arm", "one arm in the trial", "one arm in the emulation")))
    level = draw(st.sampled_from((0, 1)))
    if shape == "one study":
        s[:] = level
    elif shape == "one arm":
        a[:] = level
    else:
        a[s == (shape == "one arm in the trial")] = level
    outcome_kind = draw(st.sampled_from(("binary", "continuous")))
    y = rng.integers(0, 2, n).astype(float) if outcome_kind == "binary" else rng.normal(size=n)
    x = rng.integers(0, 2, n).astype(float) if draw(st.booleans()) else rng.normal(size=n)
    lines = ["S,A,Y,X1"] + [f"{si},{ai},{yi!r},{xi!r}" for si, ai, yi, xi in zip(s, a, y.tolist(), x.tolist())]
    config = {
        "schema": SCHEMA,
        "outcome_kind": outcome_kind,
        "bootstrap": draw(st.sampled_from((0, 5))),
        "restriction": draw(st.booleans()),
        "overlap": draw(st.booleans()),
    }
    return "\n".join(lines) + "\n", config


@settings(max_examples=60, deadline=None, database=None)
@given(run=lopsided_runs())
def test_analyze_of_one_study_or_one_arm_exits_3(tmp_path_factory, run):
    # Drawn on purpose, not left to chance at small n: a lone study fails
    # the load, an empty study-by-arm cell the validation, each before a fit.
    text, payload = run
    work = tmp_path_factory.mktemp("lopsided")
    (work / "data.csv").write_text(text)
    payload = {**payload, "input": str(work / "data.csv"), "output": str(work / "report.json")}
    (work / "config.json").write_text(json.dumps(payload))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["analyze", str(work / "config.json"), "--quiet"])
    out = stdout.getvalue()
    assert code == 3, out
    assert out.count("\n") == 1
    studies = {line.split(",")[0] for line in text.splitlines()[1:]}
    expected = "DomainError" if len(studies) == 1 else "ValidationFailure"
    assert json.loads(out)["error"]["type"] == expected


SHIPPED = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted((REPO_ROOT / "configs").glob("*.json"))}
# Sizes that run in a fraction of a second; the mutations act on the rest.
SMALL = {"bootstrap": 5, "reps": 3, "n": [300, 300]}
# Values of another JSON type than the one a key holds.
OTHER_TYPES = ["text", 2.5, True, None, [1], {"a": 1}]
# Values outside each key's range.
OUTSIDE = {
    "level": [0.0, 1.0, -0.5, 1.5],
    "restriction_threshold": [0.0, 1.0],
    "bootstrap": [1, -1],
    "reps": [1, 0, -2],
    "n": [[0, 300], [300, -1]],
    "truth_draws": [999, 0],
    "seed": [-1],
    "weight_threshold": [0.0, -1.0],
    "ridge": [-1.0],
    "outcome_kind": ["ordinal"],
    "estimators": [[], ["phi", "phi"], ["xi"]],
    "arms": [[], [2], [0, 0]],
}
CONFIG_CLASSES = {"analyze": AnalysisConfig, "simulate": SimulationConfig, "validate": ValidateConfig}


@st.composite
def mutated_configs(draw) -> tuple[str, dict, str, str]:
    """A shipped config at SMALL sizes with one mutation: a key dropped, a
    value of another JSON type, or a value out of range. Gives the command,
    the payload (without output), the mutation and its key."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    command = name.split("_")[0]
    payload = {**SHIPPED[name], **{k: v for k, v in SMALL.items() if k in SHIPPED[name]}}
    payload.pop("output", None)
    if "input" in payload:
        payload["input"] = str(REPO_ROOT / payload["input"])
    fields = {f.name for f in dataclasses.fields(CONFIG_CLASSES[command])}
    ranged = sorted(fields & OUTSIDE.keys())
    mutation = draw(st.sampled_from(("drop", "type", "range") if ranged else ("drop", "type")))
    if mutation == "range":
        key = draw(st.sampled_from(ranged))
        payload[key] = draw(st.sampled_from(OUTSIDE[key]))
        return command, payload, mutation, key
    key = draw(st.sampled_from(sorted(payload)))
    if mutation == "drop":
        del payload[key]
    else:
        payload[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(payload[key])]))
    return command, payload, mutation, key


@settings(max_examples=60, deadline=None, database=None)
@given(run=mutated_configs())
def test_mutated_shipped_configs_exit_within_their_families(tmp_path_factory, run):
    # A dropped key leaves a valid config or a missing required key; a wrong
    # JSON type or a value out of range is a config error naming the key.
    command, payload, mutation, key = run
    work = tmp_path_factory.mktemp("mutated")
    payload = {**payload, "output": str(work / "report.json")}
    (work / "config.json").write_text(json.dumps(payload))
    stdout = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main([command, str(work / "config.json"), "--quiet"])
    assert time.perf_counter() - started < 5.0
    out = stdout.getvalue()
    assert code in (0, 2, 3, 4), out
    if code:
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["exit_code"] == code
    if mutation != "drop":
        assert code == 2, out
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert repr(key) in error["message"]


# Text forms of one CSV: each must read as the plain text reads.
TEXT_FORMS = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "bom": lambda lines: "\ufeff" + "\n".join(lines) + "\n",
    "padded": lambda lines: "".join(",".join(f" {v}\t" for v in line.split(",")) + "\n" for line in lines),
    "quoted": lambda lines: "".join(",".join(f'"{v}"' for v in line.split(",")) + "\n" for line in lines),
}


def _analyze_text(work, text: str, payload: dict) -> tuple[int, dict | None]:
    """Exit code and report estimates of ``analyze`` on ``text``."""
    (work / "data.csv").write_text(text, encoding="utf-8", newline="")
    report = work / "report.json"
    report.unlink(missing_ok=True)
    payload = {**payload, "input": str(work / "data.csv"), "output": str(report)}
    (work / "config.json").write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", str(work / "config.json"), "--quiet"])
    return code, written_report(report)["estimates"] if code == 0 else None


@settings(max_examples=60, deadline=None, database=None)
@given(run=analyze_runs())
def test_analyze_reads_every_text_form_of_a_dataset_alike(tmp_path_factory, run):
    # The loader parses each text form the same: exit code and estimates
    # match the plain text's, and a trailing blank line is a data error.
    text, payload = run
    work = tmp_path_factory.mktemp("forms")
    expected = _analyze_text(work, text, payload)
    lines = text.splitlines()
    for form, write in TEXT_FORMS.items():
        assert _analyze_text(work, write(lines), payload) == expected, form
    assert _analyze_text(work, text + "\n", payload)[0] == 3


# The continuous-covariate law of tests/test_batched_bootstrap.py's
# BOOTSTRAP_MEMORY script: every row is a cell of its own, so a bootstrap
# chunk holds 3 replicates and more than one chunk runs on the workers.
CONTINUOUS_LAW = trialbench.ScenarioConfig(
    covariates=trialbench.CovariateLaw(kind="gaussian", dim=3),
    participation=(-0.3, 0.5, -0.4, 0.2),
    trial_arm_prob=0.5,
    emulation_propensity=(0.1, 0.3, 0.3, -0.2),
    outcome_intercept=-0.2,
    outcome_x=(0.5, -0.3, 0.4),
    outcome_treatment=0.7,
    outcome_tx=(0.2, 0.0, -0.3),
    outcome_kind="continuous",
)


@pytest.fixture(scope="module")
def continuous_csv(tmp_path_factory) -> pathlib.Path:
    path = tmp_path_factory.mktemp("continuous") / "continuous.csv"
    trialbench.save_dataset(trialbench.generate(CONTINUOUS_LAW, (10_000, 10_000), 3), str(path))
    return path


def continuous_payload(csv: pathlib.Path, output: pathlib.Path, bootstrap: int) -> dict:
    schema = {"s": "S", "a": "A", "y": "Y", "x": ["X1", "X2", "X3"]}
    return {"input": str(csv), "schema": schema, "bootstrap": bootstrap, "seed": 1,
            "output": str(output)}


def without_time(report: dict) -> dict:
    report["metadata"].pop("created_utc")
    return report


@pytest.fixture()
def cpus(monkeypatch):
    """Set the count of CPUs the command line may use, and so its workers."""
    return lambda count: monkeypatch.setattr(
        cli.os, "sched_getaffinity", lambda pid: set(range(count))
    )


def test_main_runs_the_blas_at_one_thread_and_restores_the_count(
    tmp_path, write_config, monkeypatch, capsys
):
    for name in cli._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    blas = cli._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, _ = blas
    before, seen = get(), []
    run = cli._run

    def recorded(*args):
        seen.append(get())
        if len(seen) == 2:
            raise RuntimeError("a command that fails")
        return run(*args)

    monkeypatch.setattr(cli, "_run", recorded)
    config = write_config({"input": str(FIXTURE_CSV), "schema": SCHEMA})
    assert main(["validate", config, "--quiet"]) == 0
    assert get() == before
    assert main(["validate", config, "--quiet"]) == 5
    assert get() == before
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert get() == before
    assert seen == [1, 1]
    capsys.readouterr()


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"])
def test_a_blas_thread_variable_leaves_the_count_to_the_user(monkeypatch, name):
    monkeypatch.setenv(name, "2")
    assert cli._blas_threads() is None


def test_continuous_report_has_the_same_bits_at_any_blas_thread_setting(tmp_path, continuous_csv):
    # With no thread variable the command sets one BLAS thread itself.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(continuous_payload(continuous_csv, tmp_path / "report.json", 8)))
    package_root = str(pathlib.Path(trialbench.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    reports = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        subprocess.run(
            [sys.executable, "-m", "trialbench.cli", "analyze", str(config), "--quiet"],
            env={**base, **extra}, check=True, timeout=300,
        )
        reports.append(without_time(written_report(tmp_path / "report.json")))
    assert reports[0] == reports[1]


def _shipped_simulate(tmp_path, name: str, reps: int) -> dict:
    return {**SHIPPED[name], "reps": reps, "output": str(tmp_path / f"{name}.json")}


def test_reports_have_the_same_bits_on_one_and_two_workers(
    tmp_path, write_config, continuous_csv, cpus
):
    runs = [
        ("analyze", continuous_payload(continuous_csv, tmp_path / "analysis.json", 8)),
        ("simulate", _shipped_simulate(tmp_path, "simulate_confounded", 12)),
        ("simulate", {**simulation_payload(tmp_path), "scenario": FAULTS_LAW,
                      "n": [2000, 2000], "truth_draws": 200_000}),
    ]
    for command, payload in runs:
        config = write_config(payload)
        reports = []
        for count in (1, 2):
            cpus(count)
            assert main([command, config, "--quiet"]) == 0
            reports.append(without_time(written_report(payload["output"])))
        assert reports[0] == reports[1], command


@pytest.mark.parametrize(
    "error, code", [(trialbench.DegenerateTestError, 4), (ValueError, 5), (MemoryError, 6)]
)
def test_an_error_in_a_worker_exits_as_on_one_worker(
    tmp_path, write_config, capsys, monkeypatch, cpus, error, code
):
    estimates = simulation.replicate_estimates

    def failing_at_3(cfg, n, seed, index, plan, **kwargs):
        if index == 3:
            raise error("replicate 3 went wrong")
        return estimates(cfg, n, seed, index, plan, **kwargs)

    monkeypatch.setattr(simulation, "replicate_estimates", failing_at_3)
    config = write_config(simulation_payload(tmp_path))
    errors = []
    for count in (1, 2):
        cpus(count)
        assert main(["simulate", config, "--quiet"]) == code
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors[0] == errors[1] == {
        "type": error.__name__, "message": "replicate 3 went wrong", "exit_code": code
    }


def test_a_run_that_loses_a_worker_exits_5_naming_it_and_leaves_no_process(
    tmp_path, write_config, capsys, monkeypatch, cpus
):
    estimates = simulation.replicate_estimates

    def killed_at_3(cfg, n, seed, index, plan, **kwargs):
        if index == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return estimates(cfg, n, seed, index, plan, **kwargs)

    monkeypatch.setattr(simulation, "replicate_estimates", killed_at_3)
    cpus(2)
    processes = children()
    assert main(["simulate", write_config(simulation_payload(tmp_path)), "--quiet"]) == 5
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "WorkerError"
    assert children() == processes


def test_ctrl_c_ends_a_simulate_run_and_its_workers(tmp_path, write_config):
    # Long enough to be interrupted: 2000 replicates of (2000, 2000) rows.
    payload = {**simulation_payload(tmp_path), "scenario": FAULTS_LAW, "reps": 2000,
               "n": [2000, 2000], "truth_draws": 1000}
    package_root = str(pathlib.Path(trialbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, trialbench.cli; sys.exit(trialbench.cli.main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "simulate", write_config(payload), "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Signalled as the first worker appears: Ctrl-C while the pool forks
        # must not leave a worker that the command waits for at exit.
        deadline = time.monotonic() + 60
        while not (workers := children(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) != 0
    finally:
        proc.kill()
        proc.wait()
    assert not [pid for pid in workers if pathlib.Path(f"/proc/{pid}").exists()]
