import copy
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fitzkit
from fitzkit.certificates import passed
from fitzkit.cli import main
from fitzkit.fitzpatrick import Finite, fitz_linear, fitz_sampled
from fitzkit.harness import CHECKS, FUNCTION_KINDS, OPERATOR_KINDS, parse_operator
from fitzkit.operators import affine_form
from fitzkit.vecspace import DEFAULT_TOL, Grid, pair

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


@pytest.mark.parametrize("tolerances", [{"eq_tol": -1.0}, {"budget": "abc"}, {"inf_threshold": 1e-4}])
def test_suite_bad_tolerance_error_names_its_field(capsys, tmp_path, tolerances):
    """A value that is out of range and one that is no number both read "tolerances.<field>"."""
    path = tmp_path / "bad-tol.json"
    path.write_text(json.dumps({"dimension": 1, "tolerances": tolerances}))
    code = main(["suite", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: tolerances.{next(iter(tolerances))}")


@pytest.mark.parametrize("budget", ["Infinity", "NaN"])
def test_suite_non_finite_budget_exit_two(capsys, tmp_path, budget):
    # int() of JSON's Infinity raises OverflowError, which the field reader now reports
    path = tmp_path / "bad-budget.json"
    path.write_text('{"dimension": 1, "tolerances": {"budget": %s}}' % budget)
    code = main(["suite", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: tolerances.budget")


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
        ("operators.cone.matrix", {"operators": {"cone": {"kind": "linear", "matrix": "ab"}}}),
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


def test_suite_fitz_inequality_without_probes_exit_zero(capsys, tmp_path):
    """With only a wgrid the check has no probe points: the report leaves the
    probe witnesses out and keeps the graph-point equality."""
    path = tmp_path / "no-probes.json"
    check = {"check": "fitz_inequality", "target": "cone", "params": {"wgrid": "w"}}
    path.write_text(json.dumps({**VALID_SCENARIO, "checks": [check]}))
    code = main(["suite", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    cert = json.loads(captured.out)["checks"][0]["certificate"]
    labels = [w["label"] for w in cert["witnesses"]]
    assert "worst_gap" not in labels and "worst_point" not in labels
    assert "worst_graph_equality_residual" in labels


LINEAR_1D = '{"kind": "linear", "matrix": [[1.0]]}'


@pytest.mark.parametrize(
    "check, flags, param",
    [
        ("near_convexity", ["--params", '{"z": "abc", "lambdas": [1]}'], "z"),
        ("near_convexity", ["--params", '{"z": [1.0], "lambdas": ["x"]}'], "lambdas"),
        ("br", ["--params", '{"trials": "many"}'], "trials"),
        ("sup_quotient", ["--z", "3", "--expect", "[1]"], "expect"),
        ("near_convexity", ["--params", '{"z": [2.0], "lambdas": [1], "p": "two"}'], "p"),
        ("br", ["--params", '{"trials": 2, "box_lo": "abc"}'], "box_lo"),
        ("fitz_inequality", ["--params", '{"n_samples": "ten"}'], "n_samples"),
        ("fitz_inequality", ["--params", '{"points": [[1, 2, 3]]}'], "points"),
        ("sup_quotient", ["--z", "3", "--expect", '{"at_most": "abc"}'], "expect"),
        ("sup_quotient", ["--z", "3", "--expect", '{"between": [2, 1]}'], "expect"),
        ("sup_quotient", ["--z", "3", "--expect", '{"at_mots": 1}'], "expect"),
        ("near_convexity", ["--params", '{"z": [2.0], "lambdas": []}'], "lambdas"),
    ],
    ids=["z", "lambdas", "trials", "expect", "p", "box_lo", "n_samples", "points",
         "expect-at_most", "expect-between", "expect-key", "lambdas-empty"],
)
def test_check_param_of_wrong_kind_exit_two(capsys, check, flags, param):
    argv = ["check", "--check", check, "--operator", LINEAR_1D, "--wgrid=-1:1:0.5"]
    code = main(argv + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: checks[0].params.{param}:")


@pytest.mark.parametrize(
    "check, flags, param",
    [
        ("sup_quotient", ["--z", "3", "--wgrid=-2,-2:3,3:0.5", "--allow-z-in-domain"], "wgrid"),
        ("maximality_probe", ["--wgrid=-2:3:0.5", "--probe-grid=-1:1:0.5"], "probe_grid"),
        ("theorem36", ["--xgrid=-1,-1:1,1:0.5"], "xgrid"),
    ],
    ids=["wgrid-2n", "probe_grid-n", "xgrid-2n"],
)
def test_check_grid_of_wrong_dimension_exit_two(capsys, check, flags, param):
    code = main(["check", "--check", check, "--operator", LINEAR_1D] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: checks[0].params.{param}: grid")


def test_check_grid_too_fine_to_build_exit_two(capsys):
    # 5e9 nodes: counted and refused before any axis is built
    code = main(["check", "--check", "near_convexity", "--operator", LINEAR_1D, "--z", "2",
                 "--lambdas", "1", "--wgrid=-2:3:1e-9"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: grid has 5000000001 nodes")


@pytest.mark.parametrize("n, count", [(1, "2.00e+300"), (15, "10^4504.5")])
def test_check_grid_with_an_oversize_count_names_it_compactly_exit_two(capsys, n, count):
    # 2e300 nodes per axis: 301 digits in 1-d, past str()'s 4300 in 15-d
    op = json.dumps({"kind": "linear", "matrix": np.eye(n).tolist()})
    lo, hi = ",".join(["-1"] * n), ",".join(["1"] * n)
    code = main(["check", "--check", "near_convexity", "--operator", op, "--z", ",".join(["2"] * n),
                 "--lambdas", "1", f"--wgrid={lo}:{hi}:1e-300"])
    assert code == 2
    assert capsys.readouterr().err == f"error: grid has {count} nodes, exceeding cap 100000\n"


def test_check_strict_near_convexity_without_probe_grid_exit_two(capsys):
    code = main(["check", "--check", "near_convexity", "--operator", LINEAR_1D, "--z", "2",
                 "--lambdas", "1", "--wgrid=-2:3:0.5", "--params", '{"strict": true}'])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: checks[0]: strict") and "probe_grid" in err


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
        ["check", "--check", "near_convexity", "--operator", CONE, "--z", "2",
         "--lambdas", "1", "--wgrid", "-2:x"],
        ["fitz", "--operator", IDENT, "--x", "-1,b", "--xstar", "1,1"],
    ],
    ids=["fitz-x", "fitz-wgrid", "check-z", "check-lambdas", "check-operator",
         "fitz-operator", "check-params", "check-wgrid-spaced", "fitz-x-spaced"],
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


def flag_argv(values: dict, spaced: bool) -> list[str]:
    out = []
    for flag, value in values.items():
        out += [flag, value] if spaced else [f"{flag}={value}"]
    return out


def test_check_values_starting_with_minus_parse_spaced_or_with_equals(capsys):
    cone2 = json.dumps({"kind": "normal_cone", "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}})
    base = ["check", "--check", "near_convexity", "--operator", cone2, "--p", "1", "--lambdas", "1,10"]
    values = {"--z": "-1,2", "--wgrid": "-2,-2:3,3:0.5"}
    certs = []
    for spaced in (True, False):
        code, out = run_cli(capsys, *base, *flag_argv(values, spaced))
        assert code == 0
        certs.append(json.loads(out)["checks"][0]["certificate"])
    assert certs[0]["verdict"] == "pass" and certs[0] == certs[1]


def test_fitz_values_starting_with_minus_parse_spaced_or_with_equals(capsys):
    values = {"--x": "-1,2", "--xstar": "-.5,1"}
    outs = [run_cli(capsys, "fitz", "--operator", IDENT, *flag_argv(values, spaced)) for spaced in (True, False)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    # F of the identity is |x + x*|^2 / 4
    assert json.loads(outs[0][1])["value"] == pytest.approx((1.5**2 + 3.0**2) / 4.0, abs=1e-12)


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


@pytest.mark.parametrize("operator, extra", [
    (IDENT, ()),
    (GRAPH, ()),
    (json.dumps({"kind": "normal_cone", "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}), ("--wgrid=-1:2:0.5",)),
], ids=["linear", "graph", "sampled"])
def test_fitz_point_of_wrong_dimension_exit_two(capsys, operator, extra):
    code = main(["fitz", "--operator", operator, "--x", "1,2,3", "--xstar", "0,0,0", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_fitz_wgrid_of_wrong_dimension_exit_two(capsys):
    # the grid's nodes are 3-d, the box cone 2-d
    box = json.dumps({"kind": "normal_cone", "box": {"lo": [0, 0], "hi": [1, 1]}})
    code = main(["fitz", "--operator", box, "--x", "0,0", "--xstar", "0,0", "--wgrid=-1,-1,-1:1,1,1:0.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("operator, field", [
    ({"kind": "linear", "matrix": [[1, 0], [0]]}, "operator.matrix"),
    ({"kind": "normal_cone", "vertices": [[0, 0], [1]]}, "operator.vertices"),
    ({"kind": "subdiff", "fun": {"kind": "quadratic", "matrix": [[1, 0], [0]]}}, "operator.fun.matrix"),
], ids=["linear", "polytope-cone", "quadratic"])
def test_fitz_ragged_array_names_its_field_exit_two(capsys, operator, field):
    code = main(["fitz", "--operator", json.dumps(operator), "--x", "0,0", "--xstar", "0,0",
                 "--wgrid=-1,-1:1,1:0.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {field}: rows of different lengths"]


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


# --------------------------------------------------------------------------
# non-finite and out-of-range scalars end at load with exit 2
# --------------------------------------------------------------------------

SUP_Q_1D = ["check", "--check", "sup_quotient", "--z", "5", "--wgrid=-1:1:0.5",
            "--params", '{"allow_z_in_domain": true}']
NORM_POWER = {"kind": "subdiff", "fun": {"kind": "norm_power", "p": 2.0, "scale": 1.0}}


def run_captured(argv):
    """cli.main in-process with stdout and stderr captured: (code, stdout,
    stderr), where stderr also holds a line for each RuntimeWarning (numpy's
    floating-point warnings), which the console script would print there."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = main(argv)
    lines = [f"{w.category.__name__}: {w.message}\n" for w in caught if w.category is RuntimeWarning]
    return code, out.getvalue(), err.getvalue() + "".join(lines)


def run_quiet(argv):
    """cli.main in-process with stdout and stderr captured: (code, stderr)."""
    code, _, err = run_captured(argv)
    return code, err


@pytest.mark.parametrize(
    "operator, extra",
    [
        ({"kind": "perturbed", "inner": {"kind": "linear", "matrix": [[1.0]]},
          "lambda": float("nan"), "p": 2.0, "center": [0.0]}, []),
        ({"kind": "subdiff", "fun": {"kind": "norm_power", "p": 2.0, "scale": float("nan")}}, []),
        ({"kind": "subdiff", "fun": {"kind": "norm_power", "p": float("nan")}}, []),
        ({"kind": "subdiff", "fun": {"kind": "norm_power", "p": float("inf")}}, []),
        (NORM_POWER, ["--wgrid=-1:1:nan"]),
        (NORM_POWER, ["--wgrid=-1:1:inf"]),
        (NORM_POWER, ["--inf-threshold", "inf"]),
    ],
    ids=["lambda-nan", "scale-nan", "p-nan", "p-inf", "wgrid-spacing-nan", "wgrid-spacing-inf",
         "inf-threshold-inf"],
)
def test_check_non_finite_scalar_exit_two_at_load(operator, extra):
    code, err = run_quiet(SUP_Q_1D + ["--operator", json.dumps(operator)] + extra)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and "finite" in err


# A valid 1-d value for each key of the kind table; with the table they make
# one valid spec of each kind, a function kind inside a subdiff, and a normal
# cone once with a box and once with vertices. KIND_VALUES overrides a key for
# one kind, so that p = 3 and p = 1 run and a perturbation wraps a normal cone.
KEY_VALUES = {
    "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]], "matrix": [[1.0]], "offset": [0.5],
    "lo": [0.0], "hi": [1.0], "box": {"lo": [0.0], "hi": [1.0]}, "vertices": [[0.0], [1.0]],
    "p": 2.0, "scale": 0.5, "lambda": 2.0, "center": [0.5], "zstar": [1.0],
    "fun": {"kind": "norm_power", "p": 2.0}, "inner": {"kind": "linear", "matrix": [[1.0]]},
    "parts": [{"kind": "quadratic", "matrix": [[1.0]]},
              {"kind": "box_indicator", "lo": [0.0], "hi": [1.0]},
              {"kind": "norm_power", "p": 2.0}],
}
KIND_VALUES = {
    "translated_norm_power": {"p": 3.0},
    "perturbed": {"inner": {"kind": "normal_cone", "box": {"lo": [0.0], "hi": [1.0]}}, "p": 1.0},
}


def kind_examples():
    for table in (OPERATOR_KINDS, FUNCTION_KINDS):
        for kind, (_, keys) in table.items():
            for one_of in [keys[:1], keys[1:]] if kind == "normal_cone" else [keys]:
                values = {**KEY_VALUES, **KIND_VALUES.get(kind, {})}
                spec = {"kind": kind, **{key: values[key] for key in one_of}}
                yield spec if table is OPERATOR_KINDS else {"kind": "subdiff", "fun": spec}


KIND_EXAMPLES = list(kind_examples())


def scalar_slots(node, path=()):
    """(path, kind) of each number in a wire spec: a number that is a key's
    whole value (p, scale, lambda) is "positive", one inside a vector or
    matrix is a "coordinate"."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from scalar_slots(value, path + (key,))
        elif not isinstance(value, str):
            yield path + (key,), "positive" if isinstance(node, dict) else "coordinate"


# (valid 1-d spec, [(path to one scalar, its kind)]); a "positive" scalar is
# invalid at 0 and below too, a "coordinate" only when it is not a finite number
SCALAR_SLOTS = [(spec, list(scalar_slots(spec))) for spec in KIND_EXAMPLES]
BAD_SCALARS = {
    "coordinate": [float("nan"), float("inf"), -float("inf"), "a"],
    "positive": [float("nan"), float("inf"), -float("inf"), 0.0, -1.5, "a"],
}


def test_every_operator_and_function_kind_has_a_scalar_slot():
    kinds = {spec["kind"] for spec, _ in SCALAR_SLOTS}
    funs = {spec["fun"]["kind"] for spec, _ in SCALAR_SLOTS if spec["kind"] == "subdiff"}
    assert kinds == {"graph", "linear", "subdiff", "normal_cone", "duality_map", "shifted", "perturbed"}
    assert funs == {"quadratic", "box_indicator", "norm_power", "translated_norm_power", "sum"}
    for spec, _ in SCALAR_SLOTS:  # each spec is valid as written
        assert run_quiet(SUP_Q_1D + ["--operator", json.dumps(spec)])[0] in (0, 1)


NO_RESOLVENT = {"kind": "perturbed", "inner": {"kind": "linear", "matrix": [[1.0]]},
                "lambda": 2.0, "p": 3.0, "center": [0.5]}


@pytest.mark.parametrize("spec, where", [
    (NO_RESOLVENT, "operator"),
    ({"kind": "shifted", "inner": NO_RESOLVENT, "zstar": [1.0]}, "operator.inner"),
    ({"kind": "perturbed", "inner": NO_RESOLVENT, "lambda": 1.0, "p": 2.0, "center": [0.0]},
     "operator.inner"),
    ({**NO_RESOLVENT, "inner": {"kind": "shifted", "inner": NORM_POWER, "zstar": [1.0]}}, "operator"),
], ids=["linear-inner", "under-shifted", "under-perturbed", "shifted-subdiff-inner"])
@pytest.mark.parametrize("command", ["check", "fitz", "suite"])
def test_perturbed_without_a_resolvent_exits_two_at_load(tmp_path, command, spec, where):
    """p != 2 and an inner operator that is no subdifferential: resolvent_batch
    has no reduction, and every use of the operator samples it."""
    argv = {"check": SUP_Q_1D + ["--operator", json.dumps(spec)],
            "fitz": ["fitz", "--operator", json.dumps(spec), "--x", "0", "--xstar", "0",
                     "--wgrid=-1:1:0.5"]}.get(command)
    if argv is None:
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps({"dimension": 1, "operators": {"t": spec}}))
        argv, where = ["suite", "--scenario", str(path)], where.replace("operator", "operators.t")
    code, err = run_quiet(argv)
    assert code == 2
    assert err == (f"error: {where}: perturbed has no resolvent: p is 3, not 2, and its inner "
                   "operator is not a subdifferential\n")


@pytest.mark.parametrize("kind, extra", [("shifted", {"zstar": [1.0]}),
                                         ("perturbed", {"lambda": 1.0, "p": 2.0, "center": [0.0]})])
def test_wrapped_graph_exits_two_at_load(kind, extra):
    """A finite graph has no resolvent, so an op that wraps one cannot be sampled."""
    spec = {"kind": kind, "inner": json.loads(GRAPH), **extra}
    code, err = run_quiet(SUP_Q_1D + ["--operator", json.dumps(spec)])
    assert (code, err) == (2, f"error: operator: {kind} has no resolvent: its inner operator is a graph\n")


@st.composite
def one_bad_scalar(draw):
    spec, slots = draw(st.sampled_from(SCALAR_SLOTS))
    path, kind = draw(st.sampled_from(slots))
    spec = copy.deepcopy(spec)
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(BAD_SCALARS[kind]))
    return spec


@settings(max_examples=150, deadline=None)
@given(one_bad_scalar())
def test_one_bad_operator_scalar_exits_two_with_one_line(spec):
    code, err = run_quiet(SUP_Q_1D + ["--operator", json.dumps(spec)])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


# --------------------------------------------------------------------------
# finite-graph pairs are read as one float array
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "pairs",
    [[], [[[0.0], [0.0], [1.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]]],
     [[[0.0], [float("nan")]], [[1.0], [1.0]]]],
    ids=["empty", "triple", "mixed-widths", "nan-entry"],
)
def test_graph_pairs_that_are_not_finite_pairs_exit_two(pairs):
    code, err = run_quiet(SUP_Q_1D + ["--operator", json.dumps({"kind": "graph", "pairs": pairs})])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_graph_pairs_of_bare_numbers_are_pairs_in_r1(capsys):
    bare = json.dumps({"kind": "graph", "pairs": [[0.0, 0.0], [1.0, 1.0]]})
    code, out = run_cli(capsys, "fitz", "--operator", bare, "--x", "0.5", "--xstar", "0.5")
    assert code == 0
    assert json.loads(out) == {"kind": "finite", "value": 0.0, "method": "finite_graph"}


# --------------------------------------------------------------------------
# a key that its object does not take ends the load with exit 2
# --------------------------------------------------------------------------

def test_fitz_misspelt_operator_key_exit_two():
    """A misspelt offset is named, not read as the default zero offset."""
    op = {"kind": "linear", "matrix": [[1.0]], "ofset": [5.0]}
    code, err = run_quiet(["fitz", "--operator", json.dumps(op), "--x", "1", "--xstar", "0"])
    assert code == 2
    assert err == "error: operator.ofset: linear takes only kind, matrix, offset\n"


def test_normal_cone_with_box_and_vertices_exit_two():
    op = {"kind": "normal_cone", "box": {"lo": [0.0], "hi": [1.0]}, "vertices": [[0.0], [1.0]]}
    code, err = run_quiet(SUP_Q_1D + ["--operator", json.dumps(op)])
    assert code == 2
    assert err == "error: operator.vertices: normal_cone takes only box, kind\n"


def test_suite_misspelt_tolerances_key_exit_two(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**VALID_SCENARIO, "tolerances": {"eq_tl": 1e-6}}))
    code, err = run_quiet(["suite", "--scenario", str(path)])
    assert code == 2
    assert err == ("error: tolerances.eq_tl: tolerances takes only budget, eq_tol, "
                   "inf_threshold, rank_tol\n")


# --------------------------------------------------------------------------
# generated scenarios, one field changed at a time
# --------------------------------------------------------------------------

# A valid 1-d value for each check param; "w" and "probe" are the scenario's grids.
PARAM_VALUES = {
    "z": [3.0], "zstar": [0.5], "x": [0.5], "xstar": [0.5], "box_lo": [-1.0], "box_hi": [1.0],
    "lambdas": [1.0, 10.0], "n_schedule": [1, 2], "p": 1.0, "alpha": 0.5, "beta": 0.5,
    "trials": 2, "n_samples": 2, "strict": False, "allow_z_in_domain": True,
    "wgrid": "w", "xgrid": "w", "probe_grid": "probe", "expect": {"at_most": 1e9},
    "points": [[[0.5], [0.5]]],
}


@st.composite
def valid_scenarios(draw):
    """One check of CHECKS on one operator of the kind table, with a small
    budget; a check that samples its target always names the grid w."""
    name, check = draw(st.sampled_from(sorted(CHECKS.items())))
    targets = [s for s in KIND_EXAMPLES if check.graph_target in (None, s["kind"] == "graph")]
    keys = set(draw(st.sampled_from(check.needs)))
    keys |= {k for k in check.optional if draw(st.booleans())}
    keys |= {"wgrid"} if check.samples else set()
    return {
        "dimension": 1, "seed": 0, "tolerances": {"budget": 2000},
        "operators": {"t": draw(st.sampled_from(targets))},
        "grids": {"w": {"lower": [-1.0], "upper": [2.0], "spacing": 0.5},
                  "probe": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "spacing": 1.0}},
        "checks": [{"check": name, "target": "t", "params": {k: PARAM_VALUES[k] for k in keys}}],
    }


def paths(node, path=()):
    """The path of every value below node, node's own included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(value, path + (key,))


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# One change to a value: (name, applies to value, new value, always invalid?)
ONE_FIELD_CHANGES = [
    ("wrong type", lambda v: True, lambda v: 1.5 if isinstance(v, str) else "a", True),
    ("non-finite", is_number, lambda v: float("nan"), True),
    ("unknown key", lambda v: isinstance(v, dict), lambda v: {**v, "unknown_key": 1}, True),
    ("negative", is_number, lambda v: -abs(v) - 1.5, False),
    ("empty", lambda v: isinstance(v, (dict, list, str)), lambda v: type(v)(), False),
    ("wrong length", lambda v: isinstance(v, list) and v, lambda v: v + v[-1:], False),
]


@st.composite
def changed_scenarios(draw):
    """(scenario, what changed, whether no scenario may hold the change): a
    valid scenario with one value changed, the whole scenario included."""
    holder = [copy.deepcopy(draw(valid_scenarios()))]  # it shares the example values
    path = draw(st.sampled_from(list(paths(holder[0], (0,)))))
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    name, _, change, invalid = draw(st.sampled_from([c for c in ONE_FIELD_CHANGES if c[1](old)]))
    parent[path[-1]] = change(old)
    return holder[0], f"{name} at {path[1:]}", invalid


def run_scenario(raw, tmp_dir: Path):
    path = tmp_dir / "generated.json"
    path.write_text(json.dumps(raw))
    return run_quiet(["suite", "--scenario", str(path)])


@settings(max_examples=60, deadline=None)
@given(valid_scenarios())
def test_generated_valid_scenario_exits_zero_or_one(tmp_path_factory, raw):
    code, err = run_scenario(raw, tmp_path_factory.mktemp("valid"))
    assert code in (0, 1), err


@settings(max_examples=200, deadline=None)
@given(changed_scenarios())
def test_generated_scenario_with_one_changed_field_exits_cleanly(tmp_path_factory, case):
    """Each change ends in exit 0, 1 or 2, never a raise; exit 2 comes with one
    error line; and a change that no scenario may hold is always exit 2."""
    raw, what, invalid = case
    code, err = run_scenario(raw, tmp_path_factory.mktemp("changed"))
    assert code in ((2,) if invalid else (0, 1, 2)), what
    assert (code == 2) == (err.count("\n") == 1 and err.startswith("error: ")), (what, err)


# --------------------------------------------------------------------------
# every number of the wire format is a JSON number
# --------------------------------------------------------------------------

@pytest.mark.parametrize("change, where", [
    ({"operators": {"cone": {"kind": "duality_map", "p": "2", "center": [0.0]}}}, "operators.cone.p"),
    ({"operators": {"cone": {"kind": "duality_map", "p": 2, "center": [True]}}},
     "operators.cone.center"),
    ({"operators": {"cone": {"kind": "linear", "matrix": [["1"]]}}}, "operators.cone.matrix"),
    ({"operators": {"cone": {"kind": "normal_cone", "box": {"lo": ["0"], "hi": [1]}}}},
     "operators.cone.box.lo"),
    ({"operators": {"cone": {"kind": "normal_cone", "vertices": [[False], [1]]}}},
     "operators.cone.vertices"),
    ({"operators": {"cone": {"kind": "graph", "pairs": [[0, "0"], [1, 1]]}}}, "operators.cone.pairs"),
    ({"dimension": True}, "dimension"),
    ({"dimension": 1.0}, "dimension"),
    ({"seed": "3"}, "seed"),
    ({"tolerances": {"budget": 2.5}}, "tolerances.budget"),
    ({"tolerances": {"eq_tol": True}}, "tolerances.eq_tol"),
    ({"grids": {"w": {"lower": [True], "upper": [2.0], "spacing": 0.5}}}, "grids.w.lower"),
    ({"grids": {"w": {"lower": [-1.0], "upper": [2.0], "spacing": "0.5"}}}, "grids.w.spacing"),
], ids=["string-p", "boolean-center", "string-matrix", "string-box", "boolean-vertices",
        "string-pairs", "boolean-dimension", "float-dimension", "string-seed",
        "fractional-budget", "boolean-eq_tol", "boolean-grid-lower", "string-grid-spacing"])
def test_suite_value_that_is_no_json_number_exit_two(tmp_path, change, where):
    """A string or a boolean where a number goes, and a fraction where an
    integer goes, as check params already refuse them."""
    path = tmp_path / "not-a-number.json"
    path.write_text(json.dumps({**VALID_SCENARIO, **change}))
    code, err = run_quiet(["suite", "--scenario", str(path)])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {where}: expected ")


def test_fitz_operator_number_that_is_a_string_exit_two():
    spec = {"kind": "duality_map", "p": "2", "center": [True]}
    code, err = run_quiet(["fitz", "--operator", json.dumps(spec), "--x", "0", "--xstar", "0",
                           "--wgrid=-1:1:0.5"])
    assert code == 2
    assert err == "error: operator.p: expected finite numbers, got '2'\n"


@pytest.mark.parametrize("flags, message", [
    (["--tol-eq", "a"], "error: argument --tol-eq: invalid float value: 'a'\n"),
    (["--inf-threshold=1e8,1e8"], "error: argument --inf-threshold: invalid float value: '1e8,1e8'\n"),
], ids=["tol-eq", "inf-threshold"])
def test_fitz_float_flag_that_is_no_number_exit_two(flags, message):
    """argparse's own message, on one line, not its usage text and exit."""
    code, out, err = run_captured(["fitz", "--operator", IDENT, "--x", "1,0", "--xstar", "1,0", *flags])
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("operator", [IDENT, GRAPH], ids=["linear", "graph"])
def test_fitz_malformed_wgrid_exit_two_where_no_sample_is_drawn(operator):
    code, err = run_quiet(["fitz", "--operator", operator, "--x", "1", "--xstar", "1",
                           "--wgrid=a:2:0.5"])
    assert code == 2
    assert err == "error: expected comma-separated numbers, got 'a'\n"


@pytest.mark.parametrize("operator", [LINEAR_1D, json.dumps(NORM_POWER)], ids=["linear", "sampled"])
def test_fitz_value_that_overflows_a_float_exit_two(operator):
    """F at x = 1e300 is about 1e600: one error line and no numpy warning."""
    code, out, err = run_captured(["fitz", "--operator", operator, "--x", "1e300", "--xstar", "1e300",
                                   "--wgrid=-1:1:0.5"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: F at this point overflows a float")


def test_fitz_linear_value_above_the_threshold_is_a_crossing():
    """F = |x + x*|^2 / 4 = 1e10 at x = x* = 1e5 passes inf_threshold: the
    closed form reports the crossing, with the witness the sampled kernel
    gives for the same map written as a quadratic's subdifferential."""
    args = ["--x", "1e5", "--xstar", "1e5", "--wgrid=-1:1:0.5"]
    quadratic = json.dumps({"kind": "subdiff", "fun": {"kind": "quadratic", "matrix": [[1.0]]}})
    (code, out, err), (_, sampled, _) = (run_captured(["fitz", "--operator", op, *args])
                                         for op in (LINEAR_1D, quadratic))
    crossing = {"kind": "infinite_suspected", "crossed_threshold": 1e10,
                "witness": {"primal": [1e5], "dual": [1e5]}}
    assert (code, err) == (0, "")
    assert json.loads(out) == {**crossing, "method": "linear_closed_form"}
    assert json.loads(sampled) == {**crossing, "method": "sampled"}


@st.composite
def affine_chain_specs(draw):
    """A wire spec of a random monotone linear map in 1 or 2 dimensions (a PSD
    symmetric part, none when the weight is 0, plus a skew part) wrapped in
    one to three shifts and p = 2 perturbations."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    M = draw(st.sampled_from([0.0, 1.0])) * A @ A.T + (B - B.T)
    spec = {"kind": "linear", "matrix": M.tolist(), "offset": rng.uniform(-1.0, 1.0, n).tolist()}
    for _ in range(draw(st.integers(1, 3))):
        v = rng.uniform(-2.0, 2.0, n).tolist()
        spec = ({"kind": "shifted", "inner": spec, "zstar": v} if draw(st.booleans()) else
                {"kind": "perturbed", "inner": spec, "lambda": draw(st.sampled_from([0.5, 2.0])),
                 "p": 2.0, "center": v})
    return spec, rng.uniform(-2.0, 2.0, (2, n)).tolist()


@settings(max_examples=40, deadline=None)
@given(affine_chain_specs())
def test_fitz_on_a_shifted_or_p2_perturbed_linear_map_is_its_closed_form(case):
    """Without --wgrid, fitz reports fitz_linear of the chain's normal form,
    which a sampled lower bound on a wide grid never exceeds by more than eq_tol."""
    spec, (x, xs) = case
    code, out, err = run_captured(["fitz", "--operator", json.dumps(spec),
                                   "--x", ",".join(map(repr, x)), "--xstar", ",".join(map(repr, xs))])
    assert (code, err) == (0, ""), err
    payload = json.loads(out)
    op, pt = parse_operator(spec, "operator"), pair(x, xs)
    form = affine_form(op)
    want = fitz_linear(form.M, form.c, pt)
    assert payload["method"] == "linear_closed_form"
    if isinstance(want, Finite):
        assert payload == {"kind": "finite", "value": want.value, "method": "linear_closed_form"}
    else:
        assert payload["crossed_threshold"] == want.crossed_threshold
        assert payload["witness"] == {"primal": want.witness.primal.tolist(),
                                      "dual": want.witness.dual.tolist()}
    sampled = fitz_sampled(op, pt, Grid([-6.0] * len(x), [6.0] * len(x), 0.5))
    if isinstance(sampled, Finite):
        bound = want.value if isinstance(want, Finite) else np.inf
        assert bound >= sampled.value - DEFAULT_TOL.eq_tol
    else:
        assert not isinstance(want, Finite)


HUGE_Z = {"dimension": 1, "operators": {"lin": json.loads(LINEAR_1D)},
          "grids": {"w": {"lower": [-1.0], "upper": [1.0], "spacing": 0.5}},
          "checks": [{"check": "near_convexity", "target": "lin",
                      "params": {"z": [1e300], "lambdas": [1.0], "wgrid": "w"}}]}


@pytest.mark.parametrize("command", ["check", "suite"])
def test_check_value_beyond_the_float_range_exits_two_naming_the_check(tmp_path, command):
    """near_convexity at z = 1e300 squares a distance past the float range:
    one error line naming the check, with no numpy warning or traceback."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_Z))
    argv = {"check": ["check", "--check", "near_convexity", "--z", "1e300", "--lambdas", "1",
                      "--wgrid=-1:1:0.5", "--operator", LINEAR_1D],
            "suite": ["suite", "--scenario", str(path)]}[command]
    target = {"check": "target", "suite": "lin"}[command]
    code, out, err = run_captured(argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: check 'near_convexity' on target '{target}': a value overflows a float")


def test_suite_witness_beyond_the_float_range_exits_two_naming_the_check(monkeypatch, tmp_path):
    """A witness no report can hold (inf, NaN) ends as one error line, even
    when nothing overflowed on the way."""
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(VALID_SCENARIO))
    check = CHECKS["fitz_inequality"]
    monkeypatch.setitem(CHECKS, "fitz_inequality", type(check)(
        lambda run: passed("fitz_inequality", "n/a", [("worst_gap", float("nan"))]), check.needs,
        check.optional))
    code, out, err = run_captured(["suite", "--scenario", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: check 'fitz_inequality' on target 'cone': a witness is not a finite float\n"


# --------------------------------------------------------------------------
# generated `fitz` calls, one input changed at a time
# --------------------------------------------------------------------------

FITZ_FLAGS = {"--x": "0.5", "--xstar": "0.25", "--wgrid": "-1:2:0.5", "--tol-eq": "1e-09",
              "--inf-threshold": "100000000.0"}

# One change to one number of a flag: (name, new text, always invalid?)
FLAG_CHANGES = [
    ("wrong type", lambda t: "a", True),
    ("non-finite", lambda t: "nan", True),
    ("infinite", lambda t: "-inf" if t.startswith("-") else "inf", True),
    ("negative", lambda t: repr(-abs(float(t)) - 1.5), False),
    ("empty", lambda t: "", False),
    ("wrong length", lambda t: f"{t},{t}", False),
    ("huge", lambda t: "1e300", False),
    ("tiny", lambda t: "1e-300", False),
]


def fitz_argv(spec, flags: dict) -> list[str]:
    return ["fitz", "--operator", json.dumps(spec), *(f"{k}={v}" for k, v in flags.items())]


@st.composite
def valid_fitz_calls(draw):
    """fitz on one operator of the kind table at a drawn point (x, x*)."""
    point = st.floats(-2.0, 2.0).map(repr)
    flags = {**FITZ_FLAGS, "--x": draw(point), "--xstar": draw(point)}
    return fitz_argv(draw(st.sampled_from(KIND_EXAMPLES)), flags)


@st.composite
def changed_fitz_calls(draw):
    """(argv, what changed, whether no call may hold the change): a valid
    call with one value of the operator or one number of a flag changed."""
    holder, flags = [copy.deepcopy(draw(st.sampled_from(KIND_EXAMPLES)))], dict(FITZ_FLAGS)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(paths(holder[0], (0,)))))
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        name, _, change, invalid = draw(st.sampled_from([c for c in ONE_FIELD_CHANGES if c[1](old)]))
        parent[path[-1]] = change(old)
        what = f"{name} at --operator {path[1:]}"
    else:
        flag = draw(st.sampled_from(sorted(flags)))
        tokens = re.split(r"([:,])", flags[flag])  # numbers at the even places
        i = draw(st.sampled_from(range(0, len(tokens), 2)))
        name, change, invalid = draw(st.sampled_from(FLAG_CHANGES))
        tokens[i] = change(tokens[i])
        flags[flag] = "".join(tokens)
        what = f"{name} at {flag}={flags[flag]}"
    return fitz_argv(holder[0], flags), what, invalid


def assert_one_json_object_or_one_error_line(code, out, err, what):
    if code == 0:
        assert err == "" and isinstance(json.loads(out), dict), what
    else:
        assert code == 2 and out == "", what
        assert err.count("\n") == 1 and err.startswith("error: "), (what, err)


@settings(max_examples=100, deadline=None)
@given(valid_fitz_calls())
def test_generated_valid_fitz_call_prints_one_json_object(argv):
    code, out, err = run_captured(argv)
    assert code == 0, err
    assert_one_json_object_or_one_error_line(code, out, err, argv)


@settings(max_examples=300, deadline=None)
@given(changed_fitz_calls())
def test_generated_fitz_call_with_one_changed_input_exits_cleanly(case):
    """Each change ends in exit 0 with one JSON object or exit 2 with one
    error line, never a raise; a change that no call may hold is exit 2."""
    argv, what, invalid = case
    code, out, err = run_captured(argv)
    assert code in ((2,) if invalid else (0, 2)), what
    assert_one_json_object_or_one_error_line(code, out, err, what)


@pytest.mark.parametrize(
    "alpha, beta", [("1e-200", "1e200"), ("1e200", "1e-200"), ("0", "1"), ("1", "0"), ("1", "-0.5")]
)
def test_check_br_ratio_that_is_not_positive_and_finite_exit_two(alpha, beta):
    # alpha/beta = 1e-200/1e200 underflows to 0; the check refuses it in one
    # line naming br, before any division by the ratio warns
    code, out, err = run_captured(["check", "--check", "br", "--alpha", alpha, "--beta", beta,
                                   "--x", "1", "--xstar", "0.5", "--wgrid=-1:1:0.5",
                                   "--operator", '{"kind":"linear","matrix":[[1]]}'])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: br check"), err
