import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fitzkit
from fitzkit.cli import main

CONE = json.dumps({"kind": "normal_cone", "box": {"lo": [0.0], "hi": [1.0]}})
GRAPH = json.dumps({"kind": "graph", "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]})
IDENT = json.dumps({"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_suite_bundled_name(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "suite", "--scenario", "paper-suite", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["fail"] == 0


def test_suite_expected_failures_exit_one(capsys):
    code, out = run_cli(capsys, "suite", "--scenario", "expected-failures")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 2


def test_suite_csv_to_stdout(capsys):
    code, out = run_cli(
        capsys, "suite", "--scenario", "expected-failures", "--format", "csv"
    )
    assert code == 1
    assert out.splitlines()[0] == "check,target,verdict,key_scalar"


def test_suite_missing_scenario_exit_two(capsys):
    code, _ = run_cli(capsys, "suite", "--scenario", "no-such-scenario")
    assert code == 2


def test_check_ad_hoc_near_convexity(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "--check", "near_convexity",
        "--operator", CONE,
        "--z", "2.0",
        "--p", "1",
        "--lambdas", "1,10,100",
        "--wgrid=-2:3:0.1",
    )
    assert code == 0
    payload = json.loads(out)
    cert = payload["checks"][0]["certificate"]
    assert cert["verdict"] == "pass"


def test_check_missing_required_param_exit_two(capsys):
    code = main(
        [
            "check",
            "--check", "near_convexity",
            "--operator", IDENT,
            "--wgrid=-1,-1:1,1:0.5",
            "--lambdas", "1",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and "z" in err


def test_check_br_without_a_parameter_set_exit_two(capsys):
    code = main(
        [
            "check",
            "--check", "br",
            "--operator", '{"kind": "linear", "matrix": [[1.0]]}',
            "--wgrid=-1:1:0.5",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and "trials" in err


def test_suite_non_numeric_tolerance_exit_two(capsys, tmp_path):
    path = tmp_path / "bad-tol.json"
    path.write_text(json.dumps({"dimension": 1, "tolerances": {"eq_tol": "abc"}}))
    code = main(["suite", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: tolerances.eq_tol")


VALID_SCENARIO = {
    "dimension": 1,
    "operators": {"cone": json.loads(CONE)},
    "grids": {"w": {"lower": [-1.0], "upper": [2.0], "spacing": 0.5}},
    "checks": [{"check": "fitz_inequality", "target": "cone",
                "params": {"wgrid": "w", "n_samples": 4}}],
}


@pytest.mark.parametrize(
    "field, change",
    [
        ("dimension", {"dimension": "one"}),
        ("seed", {"seed": "x"}),
        ("tolerances", {"tolerances": [1]}),
        ("operators", {"operators": [1]}),
        ("grids.w", {"grids": {"w": [1]}}),
        ("checks[0]", {"checks": [5]}),
        ("checks[0].params",
         {"checks": [{"check": "fitz_inequality", "target": "cone", "params": "abc"}]}),
        ("operators.cone", {"operators": {"cone": {"kind": "linear", "matrix": "ab"}}}),
    ],
    ids=["dimension", "seed", "tolerances", "operators", "grid", "check", "params", "matrix"],
)
def test_suite_wrongly_typed_scenario_field_exit_two(capsys, tmp_path, field, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**VALID_SCENARIO, **change}))
    code = main(["suite", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {field}:")


def test_suite_valid_scenario_base_runs(capsys, tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(VALID_SCENARIO))
    assert main(["suite", "--scenario", str(path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["fitz", "--operator", IDENT, "--x", "a", "--xstar", "1,1"],
        ["fitz", "--operator", CONE, "--x", "0.5", "--xstar", "0", "--wgrid=a:b:c"],
        ["check", "--check", "near_convexity", "--operator", CONE, "--z", "x",
         "--lambdas", "1", "--wgrid=-2:3:0.5"],
        ["check", "--check", "near_convexity", "--operator", CONE, "--z", "2",
         "--lambdas", "1,b", "--wgrid=-2:3:0.5"],
        ["check", "--check", "fitz_inequality", "--operator", "[1]"],
        ["fitz", "--operator", "[1]", "--x", "0", "--xstar", "0"],
        ["check", "--check", "fitz_inequality", "--operator", CONE, "--params", "[1]"],
    ],
    ids=["fitz-x", "fitz-wgrid", "check-z", "check-lambdas", "check-operator",
         "fitz-operator", "check-params"],
)
def test_non_numeric_or_non_object_flag_exit_two(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_check_sup_quotient_expect(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "--check", "sup_quotient",
        "--operator", CONE,
        "--z", "2.0",
        "--wgrid=-2:3:0.1",
        "--expect", '{"crosses": true}',
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["certificate"]["verdict"] == "pass"


def test_fitz_graph(capsys):
    code, out = run_cli(capsys, "fitz", "--operator", GRAPH, "--x", "2.0", "--xstar", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "finite" and payload["value"] == 2.0


def test_fitz_linear_closed_form(capsys):
    code, out = run_cli(
        capsys, "fitz", "--operator", IDENT, "--x", "1.0,0.0", "--xstar", "1.0,0.0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "linear_closed_form"
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)


def test_fitz_sampled_infinite(capsys):
    code, out = run_cli(
        capsys, "fitz", "--operator", CONE, "--x", "2.0", "--xstar", "0.0",
        "--wgrid=-1:2:0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "infinite_suspected"
    assert payload["crossed_threshold"] > 1e8


def test_report_reemit(capsys, tmp_path):
    stored = tmp_path / "r.json"
    code, _ = run_cli(capsys, "suite", "--scenario", "expected-failures", "--out", str(stored))
    assert code == 1
    code, out = run_cli(capsys, "report", str(stored), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check,target,verdict,key_scalar"


def test_unwritable_out_exit_two(capsys):
    code, _ = run_cli(
        capsys, "suite", "--scenario", "expected-failures",
        "--out", "/nonexistent-dir/report.json",
    )
    assert code == 2


def test_console_script_subprocess():
    # the child imports the same fitzkit as this process, installed or not
    src = str(Path(fitzkit.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fitzkit.cli", "suite", "--scenario", "expected-failures",
         "--format", "csv"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "check,target,verdict,key_scalar"
