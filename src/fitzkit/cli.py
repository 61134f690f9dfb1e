"""Command-line front end.

Subcommands:
  suite   run a scenario file and emit the report
  check   run one named check ad hoc (operator spec inline as JSON)
  fitz    evaluate the Fitzpatrick function of an operator at a point
  report  re-emit a stored JSON report in another format

Exit codes: 0 all pass / not-applicable, 1 any fail, 2 infrastructure error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import FitzkitError
from .fitzpatrick import Finite, fitz_finite, fitz_linear, fitz_sampled
from .harness import (
    load_scenario,
    parse_grid,
    parse_operator,
    reformat_report_json,
    render_report,
    run_suite,
    scenario_from_dict,
)
from .operators import GraphOp, cone_form, op_dimension
from .vecspace import ToleranceConfig, pair


# grid and vector flags; their values may start with a minus sign
_DASHED_VALUE_FLAGS = frozenset(
    ("--wgrid", "--xgrid", "--probe-grid", "--z", "--zstar", "--x", "--xstar", "--lambdas", "--n-schedule")
)


def _attach_dashed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--wgrid -2:3:0.1`` as ``--wgrid=-2:3:0.1``. argparse reads a
    token that starts with '-' and is not a plain negative number as the next
    option, so without this only the '=' form of such a value parses."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _DASHED_VALUE_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise FitzkitError(f"expected comma-separated numbers, got {text!r}") from e


def _parse_grid(text: str) -> dict:
    """A grid flag as the lower/upper/spacing object of a scenario grid."""
    parts = [_parse_vector(p) for p in text.split(":")]
    if len(parts) != 3 or len(parts[2]) != 1:
        raise FitzkitError(f"grid must look like 'lo1,lo2:hi1,hi2:spacing', got {text!r}")
    return {"lower": parts[0], "upper": parts[1], "spacing": parts[2][0]}


def _json_object(text: str, flag: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise FitzkitError(f"{flag} must be a JSON object, got {type(obj).__name__}")
    return obj


def _resolve_scenario_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("fitzkit").joinpath("scenarios", f"{name}.json")
    if bundled.is_file():
        return Path(str(bundled))
    raise FitzkitError(f"no scenario file or bundled scenario named {name!r}")


def _tolerances(args) -> dict:
    given = {"eq_tol": args.tol_eq, "inf_threshold": args.inf_threshold}
    return {key: value for key, value in given.items() if value is not None}


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_suite(args) -> int:
    cfg = load_scenario(_resolve_scenario_path(args.scenario))
    overrides = _tolerances(args)
    if overrides or args.seed is not None:
        cfg = replace(
            cfg,
            seed=args.seed if args.seed is not None else cfg.seed,
            tolerances=replace(cfg.tolerances, **overrides),
        )
    report = run_suite(cfg)
    _write(render_report(report, args.format), args.out)
    return report.exit_code()


def _cmd_check(args) -> int:
    op_obj = _json_object(args.operator, "--operator")
    dim = args.dimension or (op_dimension(parse_operator(op_obj, "operator")) or 1)
    flags = ("wgrid", "xgrid", "probe_grid")
    grids = {key: _parse_grid(getattr(args, key)) for key in flags if getattr(args, key)}
    params: dict = {key: key for key in grids}
    for key in ("z", "zstar", "x", "xstar", "lambdas", "n_schedule"):
        if getattr(args, key):
            params[key] = _parse_vector(getattr(args, key))
    for key in ("p", "alpha", "beta"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if args.allow_z_in_domain:
        params["allow_z_in_domain"] = True
    if args.expect:
        params["expect"] = json.loads(args.expect)
    if args.params:
        params.update(_json_object(args.params, "--params"))
    raw = {
        "dimension": dim,
        "seed": args.seed if args.seed is not None else 0,
        "tolerances": _tolerances(args),
        "operators": {"target": op_obj},
        "grids": grids,
        "checks": [{"check": args.check, "target": "target", "params": params}],
    }
    cfg = scenario_from_dict(raw)
    report = run_suite(cfg)
    _write(render_report(report, args.format), args.out)
    return report.exit_code()


def _cmd_fitz(args) -> int:
    op_obj = _json_object(args.operator, "--operator")
    op = parse_operator(op_obj, "operator")
    tol = ToleranceConfig(**_tolerances(args))
    pt = pair(_parse_vector(args.x), _parse_vector(args.xstar))
    wgrid = args.wgrid and parse_grid(_parse_grid(args.wgrid), "--wgrid", tol.budget)  # read when given
    try:
        with np.errstate(over="raise"):
            # the operator's own width decides, so a point of another width is refused
            form = cone_form(op, op_dimension(op) or len(pt.primal))
            affine = form is not None and form[2] is None  # A = M. + c on all of R^n
            if not (wgrid or affine or isinstance(op, GraphOp)):
                raise FitzkitError("sampled operators need --wgrid")
            if isinstance(op, GraphOp):
                value, method = Finite(fitz_finite(op.graph, pt)), "finite_graph"
            elif affine:
                value, method = fitz_linear(form[0], form[1], pt, tol), "linear_closed_form"
            else:
                value, method = fitz_sampled(op, pt, wgrid, tol), "sampled"
        number = value.value if isinstance(value, Finite) else value.crossed_threshold
        if not math.isfinite(number):  # JSON has no such number
            raise FloatingPointError(f"the value is {number}")
    except FloatingPointError as e:
        raise FitzkitError(f"F at this point overflows a float ({e})") from e
    if isinstance(value, Finite):
        payload = {"kind": "finite", "value": value.value, "method": method}
    else:
        payload = {
            "kind": "infinite_suspected",
            "crossed_threshold": value.crossed_threshold,
            "witness": {
                "primal": value.witness.primal.tolist(),
                "dual": value.witness.dual.tolist(),
            },
            "method": method,
        }
    _write(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return 0


def _cmd_report(args) -> int:
    stored = json.loads(Path(args.path).read_text())
    _write(reformat_report_json(stored, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # a flag value of the wrong type raises ArgumentError, which main reports
    parser = argparse.ArgumentParser(
        exit_on_error=False,
        prog="fitzkit",
        description="Monotone-operator toolkit: Fitzpatrick evaluation and "
        "near-convexity certificates at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, exit_on_error=False))

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output here (default stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol-eq", type=float, default=None, dest="tol_eq")
        p.add_argument("--inf-threshold", type=float, default=None, dest="inf_threshold")

    ps = sub.add_parser("suite", help="run a scenario file")
    ps.add_argument("--scenario", required=True, help="path or bundled scenario name")
    common(ps)
    ps.set_defaults(fn=_cmd_suite)

    pc = sub.add_parser("check", help="run one named check ad hoc")
    pc.add_argument("--check", required=True)
    pc.add_argument("--operator", required=True, help="operator spec as inline JSON")
    pc.add_argument("--dimension", type=int, default=None)
    pc.add_argument("--z")
    pc.add_argument("--zstar")
    pc.add_argument("--x")
    pc.add_argument("--xstar")
    pc.add_argument("--p", type=float, default=None)
    pc.add_argument("--lambdas")
    pc.add_argument("--n-schedule", dest="n_schedule")
    pc.add_argument("--alpha", type=float, default=None)
    pc.add_argument("--beta", type=float, default=None)
    pc.add_argument("--wgrid", help="sampling grid as 'lo1,lo2:hi1,hi2:spacing'")
    pc.add_argument("--xgrid")
    pc.add_argument("--probe-grid", dest="probe_grid")
    pc.add_argument("--allow-z-in-domain", action="store_true", dest="allow_z_in_domain")
    pc.add_argument("--expect", help="expectation JSON for sup_quotient")
    pc.add_argument("--params", help="extra parameters as inline JSON")
    common(pc)
    pc.set_defaults(fn=_cmd_check)

    pf = sub.add_parser("fitz", help="evaluate the Fitzpatrick function at a point")
    pf.add_argument("--operator", required=True)
    pf.add_argument("--x", required=True)
    pf.add_argument("--xstar", required=True)
    pf.add_argument("--wgrid")
    common(pf)
    pf.set_defaults(fn=_cmd_fitz)

    pr = sub.add_parser("report", help="re-emit a stored report in another format")
    pr.add_argument("path", help="stored JSON report")
    common(pr)
    pr.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dashed_values(sys.argv[1:] if argv is None else list(argv)))
        return args.fn(args)
    except (FitzkitError, OSError, json.JSONDecodeError, argparse.ArgumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
