import inspect
import json
import re
import sys
from collections import Counter
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from fitzkit import operators
from fitzkit.certificates import Verdict
from fitzkit.cli import main
from fitzkit.errors import FitzkitError, ScenarioParseError, ValidationError
from fitzkit.fitzpatrick import _blocks
from fitzkit.harness import (
    CHECKS,
    FUNCTION_KINDS,
    OPERATOR_KINDS,
    PARAM_KINDS,
    _Run,
    load_scenario,
    reformat_report_json,
    render_report,
    report_to_dict,
    run_suite,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "src" / "fitzkit" / "scenarios"
GOLDEN_DIR = ROOT / "perfbench" / "golden"


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


def test_load_rejects_negative_seed():
    """numpy's default_rng takes no negative seed: it is refused at load, not
    raised from the first check's draw."""
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        scenario_from_dict(minimal_raw(seed=-1))


def test_suite_seed_flag_rejects_negative_seed(capsys):
    assert main(["suite", "--scenario", "expected-failures", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


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


def test_emit_csv_rows():
    cfg = load_scenario(SCENARIO_DIR / "expected-failures.json")
    rep = run_suite(cfg)
    lines = render_report(rep, "csv").strip().splitlines()
    assert lines[0] == "check,target,verdict,key_scalar"
    assert len(lines) == 1 + len(rep.results)
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


def test_bundled_samples_reach_the_tiled_gate_only_from_operator_zoos_jmap(monkeypatch):
    """Every verified sample of the three bundled scenarios passes the residual
    certificate but operator-zoo's J_1 (no cone form), whose one tiled gate
    flags nothing, so monotone_check makes no full-square rescan: a kind that
    lost the residual route would show here as a call, not as time.
    (maximality_probe's pairwise_product_blocks calls are not rescans.)"""
    declined, flags, rescans = [], [], []
    real_cert, real_flag, real_blocks, real_check = (
        operators._residual_certificate, operators._first_flagged_row,
        operators.pairwise_product_blocks, operators.monotone_check)

    def cert(op, *args):
        ok = real_cert(op, *args)
        declined.extend([] if ok else [op])
        return ok

    def check(*args):
        with monkeypatch.context() as m:
            m.setattr(operators, "pairwise_product_blocks", lambda *a: rescans.append(1) or real_blocks(*a))
            return real_check(*args)

    monkeypatch.setattr(operators, "_residual_certificate", cert)
    monkeypatch.setattr(operators, "_first_flagged_row", lambda *a: flags.append(1) or real_flag(*a))
    monkeypatch.setattr(operators, "monotone_check", check)
    cfgs = {s: load_scenario(SCENARIO_DIR / f"{s}.json") for s in ("paper-suite", "operator-zoo", "expected-failures")}
    for cfg in cfgs.values():
        run_suite(cfg)
    assert declined == [cfgs["operator-zoo"].operators["jmap"]] and flags == [1] and rescans == []


def test_br_trials_make_two_resolvent_batches_per_row_block(monkeypatch):
    """operator-zoo's br on quadbox2 solves the resolvent points of its 60
    trials in at most 2 resolvent_batch calls per row block, not 2 per trial."""
    cfg = load_scenario(SCENARIO_DIR / "operator-zoo.json")
    (spec,) = [c for c in cfg.checks if c.check == "br" and c.target == "quadbox2"]
    run = _Run(cfg, spec, np.random.default_rng(0), {})
    blocks = len(list(_blocks(spec.params["trials"], len(run.sample().graph))))
    calls, real = [], operators.resolvent_batch
    monkeypatch.setattr(operators, "resolvent_batch", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert CHECKS["br"].run(run).verdict is Verdict.PASS
    assert 0 < len(calls) <= 2 * blocks


GRAPH_OP = {"kind": "graph", "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]}


@pytest.mark.parametrize(
    "check, target, params, message",
    [
        ("sup_quotient", "cone", {"z": [3.0], "wgrid": "scan", "allow_z_in_domian": True},
         r"params\.allow_z_in_domian: sup_quotient takes only"),
        ("near_convexity", "cone", {"z": [2.0], "lambdas": [1.0], "wgrid": "scan", "stirct": True},
         r"params\.stirct: near_convexity takes only"),
        ("simons_lower_bound", "cone", {"z": [2.0], "zstar": [1.0]}, r"needs parameter\(s\) wgrid"),
        ("br", "cone", {"trials": 3}, r"needs parameter\(s\) wgrid"),
        ("fitz_inequality", "cone", {"n_samples": 3}, r"needs parameter\(s\) wgrid"),
        ("maximality_probe", "cone", {"probe_grid": "scan"}, r"needs parameter\(s\) wgrid"),
        ("shift_identity", "cone", {"z": [2.0], "zstar": [1.0]}, "needs a finite-graph target"),
        ("theorem36", "graph", {"xgrid": "scan"}, "needs a sampled target"),
        ("near_convexity", "cone", {"z": [2.0, 1.0], "lambdas": [1.0], "wgrid": "scan"},
         r"params\.z: expected a 1-vector"),
        ("br", "cone", {"trials": 3, "wgrid": "scan", "box_lo": [-1.0, -1.0]},
         r"params\.box_lo: expected a 1-vector"),
        ("maximality_probe", "graph", {"probe_grid": "scan"},
         r"params\.probe_grid: grid 'scan' is 1-d, not 2-d"),
        ("near_convexity", "cone", {"z": [2.0], "lambdas": [1.0], "wgrid": "scan", "strict": True},
         "strict mode needs parameter probe_grid"),
        ("br", "cone", {"trials": 3, "wgrid": "scan", "box_hi": [-3.0]},
         r"params: box_lo exceeds box_hi"),
        ("fitz_inequality", "cone", {"n_samples": 2, "wgrid": "scan", "box_lo": 1.0, "box_hi": 0.5},
         r"params: box_lo exceeds box_hi"),
        ("br", "cone", {"trials": -2, "wgrid": "scan"},
         r"params\.trials: expected an integer >= 0"),
    ],
    ids=["typo-allow_z_in_domain", "typo-strict", "simons-no-wgrid", "br-no-wgrid",
         "fitz_inequality-no-wgrid", "maximality_probe-no-wgrid", "shift_identity-on-cone",
         "theorem36-on-graph", "z-2-vector", "box_lo-2-vector", "probe_grid-n",
         "strict-no-probe_grid", "box_hi-below-default-box_lo", "box_lo-above-box_hi",
         "trials-negative"],
)
def test_check_rejected_at_load(check, target, params, message):
    """A bad check fails the scenario load, naming itself, even when a valid
    check comes before it."""
    raw = minimal_raw()
    raw["operators"]["graph"] = GRAPH_OP
    raw["checks"].append({"check": check, "target": target, "params": params})
    with pytest.raises(FitzkitError, match=r"^checks\[1\]") as exc:
        scenario_from_dict(raw)
    assert exc.match(message)


@pytest.mark.parametrize("check", [k for k, c in CHECKS.items() if c.samples])
def test_finite_graph_target_needs_no_wgrid(check):
    params = {"z": [2.0], "zstar": [1.0], "lambdas": [1.0], "n_schedule": [1], "trials": 2,
              "probe_grid": "probe"}
    accepted = {k: v for k, v in params.items() if k in CHECKS[check].accepts}
    raw = minimal_raw(operators={"graph": GRAPH_OP},
                      checks=[{"check": check, "target": "graph", "params": accepted}])
    raw["grids"]["probe"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "spacing": 0.5}
    assert scenario_from_dict(raw).checks[0].params == accepted


def test_every_accepted_param_has_a_kind():
    accepted = set().union(*(c.accepts for c in CHECKS.values()))
    assert accepted == set(PARAM_KINDS)


def test_readme_check_table_lists_every_check():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("Check kinds and their parameters:")[1].split("\n\n")[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert {row.split("`")[1] for row in rows} == set(CHECKS)


def test_readme_kind_blocks_list_every_kind():
    """Each README kind block names each kind of its table with the table's keys."""
    readme = (ROOT / "README.md").read_text()
    for title, table in (("Operator kinds", OPERATOR_KINDS), ("Function kinds", FUNCTION_KINDS)):
        block = readme.split(f"\n{title}")[1].split("```json\n")[1].split("```")[0]
        keys = {}
        for line in block.splitlines():
            kind = re.search(r'"kind": "(\w+)"', line)[1]
            top = re.sub(r"\{[^{}]*\}", "", line[1:-1])  # a box's lo and hi are not its keys
            keys.setdefault(kind, set()).update(re.findall(r'"(\w+)":', top))
        assert keys == {kind: {"kind", *wire_keys} for kind, (_, wire_keys) in table.items()}


def test_every_spec_class_has_exactly_one_wire_kind():
    for union, table in ((operators.OperatorSpec, OPERATOR_KINDS),
                         (operators.FunSpec, FUNCTION_KINDS)):
        assert Counter(cls for cls, _ in table.values()) == Counter(get_args(union))


# One operator of every kind (and every function kind inside a sum), as the
# wire format reads it: its digest pins how each kind is parsed and echoed.
ALL_KINDS = {
    "dimension": 2, "seed": 3, "grids": {}, "checks": [],
    "operators": {
        "g": {"kind": "graph", "pairs": [[[0, 0], [0, 0]], [[1, 0], [1, 0]]]},
        "l": {"kind": "linear", "matrix": [[1, 0], [0, 1]]},
        "s": {"kind": "subdiff", "fun": {"kind": "sum", "parts": [
            {"kind": "quadratic", "matrix": [[1, 0], [0, 1]]},
            {"kind": "box_indicator", "lo": [0, 0], "hi": [1, 1]},
            {"kind": "norm_power", "p": 1},
            {"kind": "translated_norm_power", "p": 3, "center": [1, 2]}]}},
        "nb": {"kind": "normal_cone", "box": {"lo": [0, 0], "hi": [1, 1]}},
        "nv": {"kind": "normal_cone", "vertices": [[1, 0], [0, 0], [0, 1], [0.2, 0.2]]},
        "j": {"kind": "duality_map", "p": 2, "center": [0, 0]},
        "sh": {"kind": "shifted", "inner": {"kind": "linear", "matrix": [[1, 0], [0, 1]],
                                            "offset": [1, 1]}, "zstar": [1, 0]},
        "pe": {"kind": "perturbed", "inner": {"kind": "normal_cone", "box": {"lo": [0, 0], "hi": [1, 1]}},
               "lambda": 2, "p": 1, "center": [0.5, 0.5]},
    },
}


def test_all_kinds_scenario_digest_is_pinned():
    digest = "sha256:9271badd07a81bbfbc9744d129e8dd75ebe5d81494bbd29cf76b5ad2e44adcb1"
    assert scenario_digest(scenario_from_dict(ALL_KINDS)) == digest


@pytest.mark.parametrize("name", sorted(ALL_KINDS["operators"]))
def test_each_kind_dumps_what_it_parses_back_to(name):
    """Dump a parsed spec, parse the dump and dump again: the same dict."""
    raw = {**ALL_KINDS, "operators": {name: ALL_KINDS["operators"][name]}}
    once = scenario_to_dict(scenario_from_dict(raw))
    assert scenario_to_dict(scenario_from_dict(once)) == once
