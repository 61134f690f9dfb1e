import inspect
import json
import sys
from pathlib import Path

import pytest

from fitzkit import operators
from fitzkit.certificates import Verdict
from fitzkit.cli import main
from fitzkit.errors import ScenarioParseError, ValidationError
from fitzkit.harness import (
    emit_report,
    load_scenario,
    reformat_report_json,
    render_report,
    report_to_dict,
    run_suite,
    scenario_from_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "fitzkit" / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def assert_matches_golden(rep, scenario):
    """The JSON report, timing block removed, is byte for byte the recorded one."""
    doc = json.loads(render_report(rep, "json"))
    doc.pop("timing")
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    assert text == (GOLDEN_DIR / f"{scenario}.json").read_text()


def minimal_raw(**over):
    raw = {
        "dimension": 1,
        "seed": 7,
        "operators": {
            "cone": {"kind": "normal_cone", "box": {"lo": [0.0], "hi": [1.0]}}
        },
        "grids": {"scan": {"lower": [-1.0], "upper": [3.0], "spacing": 0.1}},
        "checks": [{"check": "theorem36", "target": "cone", "params": {"xgrid": "scan"}}],
    }
    raw.update(over)
    return raw


def test_load_minimal_scenario(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(minimal_raw()))
    cfg = load_scenario(p)
    assert cfg.dimension == 1
    assert len(cfg.operators) == 1 and len(cfg.checks) == 1


def test_load_rejects_non_monotone_linear():
    raw = minimal_raw(
        operators={"bad": {"kind": "linear", "matrix": [[-1.0]]}},
        checks=[],
    )
    with pytest.raises(ValidationError, match="not monotone"):
        scenario_from_dict(raw)


def test_load_rejects_unresolved_name():
    raw = minimal_raw()
    raw["checks"] = [{"check": "theorem36", "target": "ghost", "params": {"xgrid": "scan"}}]
    with pytest.raises(ValidationError, match="unresolved operator name"):
        scenario_from_dict(raw)


def test_load_rejects_dimension_mismatch():
    raw = minimal_raw()
    raw["operators"]["cone2"] = {
        "kind": "normal_cone",
        "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    }
    with pytest.raises(ValidationError, match="dimension"):
        scenario_from_dict(raw)


def test_parse_error_carries_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"dimension": 1,\n  "seed": }')
    with pytest.raises(ScenarioParseError, match="line 2"):
        load_scenario(p)


def test_empty_checks_report(tmp_path):
    raw = minimal_raw(checks=[])
    rep = run_suite(scenario_from_dict(raw))
    assert rep.results == ()
    assert rep.exit_code() == 0


def test_paper_suite_all_pass():
    cfg = load_scenario(SCENARIO_DIR / "paper-suite.json")
    rep = run_suite(cfg)
    assert all(r.certificate.verdict is Verdict.PASS for r in rep.results)
    assert rep.exit_code() == 0
    assert_matches_golden(rep, "paper-suite")


def test_expected_failures_scenario():
    cfg = load_scenario(SCENARIO_DIR / "expected-failures.json")
    rep = run_suite(cfg)
    assert rep.exit_code() == 1
    fitz = rep.results[0].certificate
    assert fitz.verdict is Verdict.FAIL
    assert fitz.witness("gap") == pytest.approx(0.25, abs=1e-12)
    assert_matches_golden(rep, "expected-failures")


def test_report_determinism_modulo_timing():
    cfg = load_scenario(SCENARIO_DIR / "paper-suite.json")
    d1 = report_to_dict(run_suite(cfg))
    d2 = report_to_dict(run_suite(cfg))
    del d1["timing"], d2["timing"]
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_parallel_matches_sequential():
    """The thread-pool mode is gone: run_suite runs the checks in order and
    the CLI rejects --parallel as an unknown argument."""
    assert "parallel" not in inspect.signature(run_suite).parameters
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--scenario", "paper-suite", "--parallel"])
    assert exc.value.code == 2


def test_emit_csv_rows(tmp_path):
    cfg = load_scenario(SCENARIO_DIR / "expected-failures.json")
    rep = run_suite(cfg)
    out = tmp_path / "r.csv"
    text = emit_report(rep, "csv", out)
    lines = text.strip().splitlines()
    assert lines[0] == "check,target,verdict,key_scalar"
    assert len(lines) == 1 + len(rep.results)
    assert out.read_text() == text
    assert "fail" in lines[1]


def test_report_reformat_roundtrip():
    cfg = load_scenario(SCENARIO_DIR / "expected-failures.json")
    rep = run_suite(cfg)
    stored = json.loads(render_report(rep, "json"))
    csv_again = reformat_report_json(stored, "csv")
    assert csv_again == render_report(rep, "csv")


def test_json_report_echoes_tolerances_and_seed():
    cfg = load_scenario(SCENARIO_DIR / "paper-suite.json")
    d = report_to_dict(run_suite(cfg))
    assert d["seed"] == cfg.seed
    assert d["tolerances"]["eq_tol"] == cfg.tolerances.eq_tol
    assert d["tool"]["name"] == "fitzkit"
    assert d["scenario_digest"].startswith("sha256:")
    assert len(d["annotations"]) == 2


def test_operator_zoo_all_pass():
    cfg = load_scenario(SCENARIO_DIR / "operator-zoo.json")
    rep = run_suite(cfg)
    assert rep.exit_code() == 0
    assert_matches_golden(rep, "operator-zoo")


@pytest.mark.parametrize("scenario, calls", [("paper-suite", 8), ("operator-zoo", 11)])
def test_run_suite_samples_each_target_and_grid_once(monkeypatch, scenario, calls):
    """One graph_sample per (target, wgrid) pair the checks share, plus one
    per theorem36 check, whose grid derives from its xgrid."""
    made = []
    real = operators.graph_sample

    def counting(*args, **kwargs):
        made.append(args[1])
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "fitzkit" or name.startswith("fitzkit."):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, counting)
    rep = run_suite(load_scenario(SCENARIO_DIR / f"{scenario}.json"))
    assert rep.exit_code() == 0
    assert len(made) == calls
