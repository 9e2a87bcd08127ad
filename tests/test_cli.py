import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import trialbench
from trialbench.cli import main
from trialbench.report import load_report_schema, validate_report

from conftest import FIXTURE_CSV

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
    payload = {
        "scenario": "D1",
        "reps": 10,
        "n": [300, 300],
        "seed": 6,
        "estimators": ["phi"],
        "arms": [1],
        "restriction": False,
        "output": str(out),
    }
    code = main(["simulate", write_config(payload)])
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
    package_root = str(pathlib.Path(trialbench.__file__).resolve().parent.parent)
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "[]"


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
