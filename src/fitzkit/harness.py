"""Scenario files, suite execution, and report emission.

A scenario is a JSON document naming operators, grids, tolerances, a seed,
and a list of checks. Reports echo the seed and tolerances so every number
is reproducible from the report alone; re-running a scenario with the same
seed yields an identical report except for the timing block.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .certificates import Certificate, Verdict, failed, not_applicable, passed
from .criteria import (
    blowup_witness_sequence,
    br_check,
    conv_domain_certificate,
    near_convexity_certificate,
    simons_lower_bound_check,
    sup_quotient,
    theorem36_experiment,
)
from .errors import ScenarioParseError, ValidationError, ZOnDomainError
from .fitzpatrick import fitz_inequality_check, shift_identity_check
from .operators import (
    BoxIndicator,
    DualityMapOp,
    FiniteGraph,
    FunSum,
    GraphOp,
    LinearOp,
    NormPower,
    NormalConeOp,
    OperatorSpec,
    PerturbedOp,
    Quadratic,
    ShiftedOp,
    SubdiffOp,
    TranslatedNormPower,
    graph_of,
    maximality_probe,
    op_dimension,
)
from .vecspace import Box, Grid, PairPoint, Polytope, ToleranceConfig, pair

REPORT_ANNOTATIONS = (
    "finite-dimensional Euclidean setting: the reflexive-space sufficient "
    "condition applies at this scale",
    "Verona regularity and type (FPV) are untested hypotheses here: their "
    "quantifiers admit no finite decision procedure; only box-neighborhood "
    "maximality probes are run",
)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

@contextmanager
def _fields_of(where: str):
    """Report a missing or wrongly typed field under ``where`` as ScenarioParseError."""
    try:
        yield
    except KeyError as e:
        raise ScenarioParseError(f"{where}: missing field {e}") from e
    except (TypeError, ValueError, AttributeError) as e:
        raise ScenarioParseError(f"{where}: {e}") from e


def parse_funspec(obj: dict, where: str):
    with _fields_of(where):
        kind = obj.get("kind")
        if kind == "quadratic":
            n = len(obj["matrix"])
            return Quadratic(obj["matrix"], obj.get("offset", [0.0] * n))
        if kind == "box_indicator":
            return BoxIndicator(obj["lo"], obj["hi"])
        if kind == "norm_power":
            return NormPower(float(obj["p"]), float(obj.get("scale", 1.0)))
        if kind == "translated_norm_power":
            return TranslatedNormPower(
                float(obj["p"]), float(obj.get("scale", 1.0)), obj["center"]
            )
        if kind == "sum":
            return FunSum(tuple(parse_funspec(p, where) for p in obj["parts"]))
    raise ScenarioParseError(f"{where}: unknown function kind {kind!r}")


def parse_operator(obj: dict, where: str) -> OperatorSpec:
    with _fields_of(where):
        kind = obj.get("kind")
        if kind == "graph":
            pairs = tuple(pair(p, d) for p, d in obj["pairs"])
            return GraphOp(FiniteGraph(pairs))
        if kind == "linear":
            n = len(obj["matrix"])
            return LinearOp(obj["matrix"], obj.get("offset", [0.0] * n))
        if kind == "subdiff":
            return SubdiffOp(parse_funspec(obj["fun"], where))
        if kind == "normal_cone":
            if "box" in obj:
                return NormalConeOp(Box(obj["box"]["lo"], obj["box"]["hi"]))
            return NormalConeOp(Polytope(obj["vertices"]))
        if kind == "duality_map":
            return DualityMapOp(float(obj["p"]), obj["center"])
        if kind == "shifted":
            return ShiftedOp(parse_operator(obj["inner"], where), obj["zstar"])
        if kind == "perturbed":
            return PerturbedOp(
                parse_operator(obj["inner"], where),
                float(obj["lambda"]),
                float(obj["p"]),
                obj["center"],
            )
    raise ScenarioParseError(f"{where}: unknown operator kind {kind!r}")


def operator_to_dict(op: OperatorSpec) -> dict:
    if isinstance(op, GraphOp):
        g = op.graph
        return {"kind": "graph", "pairs": np.stack([g.primals, g.duals], axis=1).tolist()}
    if isinstance(op, LinearOp):
        return {"kind": "linear", "matrix": op.M.tolist(), "offset": op.c.tolist()}
    if isinstance(op, SubdiffOp):
        return {"kind": "subdiff", "fun": funspec_to_dict(op.fun)}
    if isinstance(op, NormalConeOp):
        if isinstance(op.region, Box):
            return {
                "kind": "normal_cone",
                "box": {"lo": op.region.lo.tolist(), "hi": op.region.hi.tolist()},
            }
        return {"kind": "normal_cone", "vertices": op.region.vertices.tolist()}
    if isinstance(op, DualityMapOp):
        return {"kind": "duality_map", "p": op.p, "center": op.center.tolist()}
    if isinstance(op, ShiftedOp):
        return {"kind": "shifted", "inner": operator_to_dict(op.inner), "zstar": op.zstar.tolist()}
    if isinstance(op, PerturbedOp):
        return {
            "kind": "perturbed",
            "inner": operator_to_dict(op.inner),
            "lambda": op.lam,
            "p": op.p,
            "center": op.center.tolist(),
        }
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def funspec_to_dict(fun) -> dict:
    if isinstance(fun, Quadratic):
        return {"kind": "quadratic", "matrix": fun.Q.tolist(), "offset": fun.b.tolist()}
    if isinstance(fun, BoxIndicator):
        return {"kind": "box_indicator", "lo": fun.lo.tolist(), "hi": fun.hi.tolist()}
    if isinstance(fun, NormPower):
        return {"kind": "norm_power", "p": fun.p, "scale": fun.scale}
    if isinstance(fun, TranslatedNormPower):
        return {
            "kind": "translated_norm_power",
            "p": fun.p,
            "scale": fun.scale,
            "center": fun.center.tolist(),
        }
    if isinstance(fun, FunSum):
        return {"kind": "sum", "parts": [funspec_to_dict(p) for p in fun.parts]}
    raise ValidationError(f"unknown function spec {type(fun).__name__}")


def parse_grid(obj: dict, where: str, cap: int) -> Grid:
    with _fields_of(where):
        return Grid(obj["lower"], obj["upper"], float(obj["spacing"]), cap=cap)


# ---------------------------------------------------------------------------
# Scenario config
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CheckSpec:
    check: str
    target: str
    params: dict


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    dimension: int
    seed: int
    tolerances: ToleranceConfig
    operators: dict
    grids: dict
    checks: tuple


# Params each check cannot run without (README's check table), as alternative
# sets: a check needs every param of at least one set. Grids needed only for
# sampled targets are checked when the check runs.
REQUIRED_PARAMS = {
    "theorem36": (("xgrid",),),
    "near_convexity": (("z", "lambdas", "wgrid"),),
    "conv_domain": (("z", "lambdas", "wgrid"),),
    "sup_quotient": (("z", "wgrid"),),
    "simons_lower_bound": (("z", "zstar"),),
    "br": (("trials",), ("x", "xstar", "alpha", "beta")),
    "blowup_witness": (("z", "n_schedule", "wgrid"),),
    "fitz_inequality": ((),),
    "shift_identity": (("z", "zstar"),),
    "maximality_probe": (("probe_grid",),),
}


def _expect(val, kind: type, where: str):
    if not isinstance(val, kind):
        raise ScenarioParseError(f"{where}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    if "dimension" not in _expect(raw, dict, "scenario"):
        raise ScenarioParseError("scenario: missing field 'dimension'")
    with _fields_of("dimension"):
        dim = int(raw["dimension"])
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    with _fields_of("seed"):
        seed = int(raw.get("seed", 0))
    tol_raw = _expect(raw.get("tolerances", {}), dict, "tolerances")
    fields = {}
    for k, v in asdict(ToleranceConfig()).items():
        with _fields_of(f"tolerances.{k}"):
            fields[k] = type(v)(tol_raw.get(k, v))
    tol = ToleranceConfig(**fields)
    operators = {}
    for name, obj in _expect(raw.get("operators", {}), dict, "operators").items():
        op = parse_operator(obj, f"operators.{name}")
        d = op_dimension(op)
        if d is not None and d != dim:
            raise ValidationError(
                f"operators.{name}: dimension {d} does not match scenario dimension {dim}"
            )
        operators[name] = op
    grids = {}
    for name, obj in _expect(raw.get("grids", {}), dict, "grids").items():
        g = parse_grid(obj, f"grids.{name}", tol.budget)
        if g.dim not in (dim, 2 * dim):
            raise ValidationError(
                f"grids.{name}: dimension {g.dim} is neither {dim} nor {2 * dim}"
            )
        grids[name] = g
    checks = []
    for i, obj in enumerate(_expect(raw.get("checks", []), list, "checks")):
        where = f"checks[{i}]"
        kind = _expect(obj, dict, where).get("check")
        if not isinstance(kind, str) or kind not in REQUIRED_PARAMS:
            raise ValidationError(f"{where}: unknown check {kind!r}")
        target = obj.get("target")
        if not isinstance(target, str) or target not in operators:
            raise ValidationError(f"{where}: unresolved operator name {target!r}")
        params = dict(_expect(obj.get("params", {}), dict, f"{where}.params"))
        missing = [[k for k in alt if k not in params] for alt in REQUIRED_PARAMS[kind]]
        if all(missing):
            need = " or ".join(", ".join(m) for m in missing)
            raise ScenarioParseError(f"{where}: {kind} needs parameter(s) {need}")
        for key in ("wgrid", "xgrid", "probe_grid"):
            if key in params and not (isinstance(params[key], str) and params[key] in grids):
                raise ValidationError(f"{where}: unresolved grid name {params[key]!r}")
        checks.append(CheckSpec(kind, target, params))
    return ScenarioConfig(dim, seed, tol, operators, grids, tuple(checks))


def load_scenario(path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ScenarioParseError(f"scenario file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"{p}: line {e.lineno} column {e.colno}: {e.msg}") from e
    return scenario_from_dict(raw)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "dimension": cfg.dimension,
        "seed": cfg.seed,
        "tolerances": asdict(cfg.tolerances),
        "operators": {k: operator_to_dict(v) for k, v in cfg.operators.items()},
        "grids": {
            k: {"lower": g.lower.tolist(), "upper": g.upper.tolist(), "spacing": g.spacing}
            for k, g in cfg.grids.items()
        },
        "checks": [
            {"check": c.check, "target": c.target, "params": c.params} for c in cfg.checks
        ],
    }


def scenario_digest(cfg: ScenarioConfig) -> str:
    blob = json.dumps(scenario_to_dict(cfg), sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Check runners
# ---------------------------------------------------------------------------

def _grid(cfg: ScenarioConfig, params: dict, key: str, required: bool = True) -> Optional[Grid]:
    name = params.get(key)
    if name is None:
        if required:
            raise ValidationError(f"check parameter {key!r} is required")
        return None
    return cfg.grids[name]


def _run_one_check(cfg: ScenarioConfig, spec: CheckSpec, child_seed: int) -> Certificate:
    op = cfg.operators[spec.target]
    tol = cfg.tolerances
    params = spec.params
    rng = np.random.default_rng(child_seed)

    if spec.check == "theorem36":
        _, cert = theorem36_experiment(
            op, _grid(cfg, params, "xgrid"), tol, wgrid=_grid(cfg, params, "wgrid", False)
        )
        return cert

    if spec.check == "near_convexity":
        return near_convexity_certificate(
            op,
            params["z"],
            float(params.get("p", 1.0)),
            params["lambdas"],
            _grid(cfg, params, "wgrid"),
            tol,
            strict=bool(params.get("strict", False)),
            probe_grid=_grid(cfg, params, "probe_grid", False),
        )

    if spec.check == "conv_domain":
        return conv_domain_certificate(
            op,
            params["z"],
            float(params.get("p", 1.0)),
            params["lambdas"],
            _grid(cfg, params, "wgrid"),
            tol,
        )

    if spec.check == "sup_quotient":
        expect = params.get("expect", {})
        try:
            est, trace = sup_quotient(
                op,
                params["z"],
                _grid(cfg, params, "wgrid"),
                tol,
                allow_z_in_domain=bool(params.get("allow_z_in_domain", False)),
            )
        except ZOnDomainError as e:
            return not_applicable("sup_quotient", str(e))
        witnesses = [("estimate", est)]
        if trace.entries:
            witnesses.append(("witness", trace.entries[-1][2]))
        ok, why = True, "estimate recorded"
        if expect.get("crosses"):
            ok = est >= tol.inf_threshold
            why = f"estimate {est:.6g} vs crossing threshold {tol.inf_threshold:g}"
        elif "at_most" in expect:
            ok = est <= float(expect["at_most"])
            why = f"estimate {est:.6g} vs bound {float(expect['at_most']):g}"
        elif "between" in expect:
            lo, hi = (float(v) for v in expect["between"])
            ok = lo <= est <= hi
            why = f"estimate {est:.6g} vs window [{lo:g}, {hi:g}]"
        return passed("sup_quotient", why, witnesses) if ok else failed(
            "sup_quotient", why, witnesses
        )

    if spec.check == "simons_lower_bound":
        source = op.graph if isinstance(op, GraphOp) else op
        return simons_lower_bound_check(
            source,
            pair(params["z"], params["zstar"]),
            tol,
            wgrid=_grid(cfg, params, "wgrid", not isinstance(op, GraphOp)),
        )

    if spec.check == "br":
        wgrid = _grid(cfg, params, "wgrid", not isinstance(op, GraphOp))
        if "trials" in params:
            lo = np.asarray(params.get("box_lo", [-2.0] * cfg.dimension), dtype=float)
            hi = np.asarray(params.get("box_hi", [2.0] * cfg.dimension), dtype=float)
            shared = graph_of(op, wgrid, tol)
            n_pass = n_na = 0
            for _ in range(int(params["trials"])):
                x = rng.uniform(lo, hi)
                xs = rng.uniform(lo, hi)
                alpha = float(rng.uniform(0.05, 1.0))
                beta = float(rng.uniform(0.05, 1.0))
                cert = br_check(op, pair(x, xs), alpha, beta, wgrid, tol, sample=shared)
                if cert.verdict is Verdict.FAIL:
                    return failed(
                        "br",
                        "a randomized trial with active hypothesis failed",
                        list(cert.witnesses)
                        + [("trial_x", x), ("trial_alpha", alpha), ("trial_beta", beta)],
                    )
                if cert.verdict is Verdict.PASS:
                    n_pass += 1
                else:
                    n_na += 1
            return passed(
                "br",
                "all activated randomized trials passed",
                [("activated_trials", float(n_pass)), ("inactive_trials", float(n_na))],
            )
        return br_check(
            op,
            pair(params["x"], params["xstar"]),
            float(params["alpha"]),
            float(params["beta"]),
            wgrid,
            tol,
        )

    if spec.check == "blowup_witness":
        _, cert = blowup_witness_sequence(
            op, params["z"], params["n_schedule"], _grid(cfg, params, "wgrid"), tol
        )
        return cert

    if spec.check == "fitz_inequality":
        g = graph_of(op, _grid(cfg, params, "wgrid", False), tol)
        pts = [pair(p, d) for p, d in params.get("points", [])]
        n_samples = int(params.get("n_samples", 0))
        if n_samples:
            lo = np.asarray(params.get("box_lo", [-2.0] * cfg.dimension), dtype=float)
            hi = np.asarray(params.get("box_hi", [2.0] * cfg.dimension), dtype=float)
            for _ in range(n_samples):
                pts.append(pair(rng.uniform(lo, hi), rng.uniform(lo, hi)))
        return fitz_inequality_check(op, pts, g, tol)

    if spec.check == "shift_identity":
        if not isinstance(op, GraphOp):
            raise ValidationError("shift_identity targets a graph operator")
        return shift_identity_check(op.graph, params["z"], params["zstar"], tol)

    if spec.check == "maximality_probe":
        evidence = maximality_probe(
            op,
            _grid(cfg, params, "probe_grid"),
            tol,
            wgrid=_grid(cfg, params, "wgrid", False),
        )
        if evidence:
            witnesses = [("evidence_count", float(len(evidence)))]
            witnesses += [(f"evidence_{i}", p) for i, p in enumerate(evidence[:5])]
            return failed(
                "maximality_probe",
                "probe points monotonically related to the surrogate but not members",
                witnesses,
            )
        return passed(
            "maximality_probe",
            "no evidence against maximality within the probe budget",
            [("evidence_count", 0.0)],
        )

    raise ValidationError(f"unknown check {spec.check!r}")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CheckResult:
    check: str
    target: str
    certificate: Certificate


@dataclass(frozen=True, eq=False)
class Report:
    scenario_digest: str
    tool_version: str
    seed: int
    tolerances: ToleranceConfig
    annotations: tuple
    results: tuple
    timing: dict

    @property
    def worst_verdict(self) -> Verdict:
        if any(r.certificate.verdict is Verdict.FAIL for r in self.results):
            return Verdict.FAIL
        return Verdict.PASS

    def exit_code(self) -> int:
        return 1 if self.worst_verdict is Verdict.FAIL else 0


def run_suite(cfg: ScenarioConfig) -> Report:
    """Execute the checks in listed order; per-check randomness comes from
    seeds drawn up front, so a check's certificate does not depend on the
    checks before it."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    master = np.random.default_rng(cfg.seed)
    child_seeds = [int(master.integers(0, 2**63 - 1)) for _ in cfg.checks]
    certs = [_run_one_check(cfg, sc, sd) for sc, sd in zip(cfg.checks, child_seeds)]
    results = tuple(
        CheckResult(sc.check, sc.target, cert) for sc, cert in zip(cfg.checks, certs)
    )
    elapsed = time.monotonic() - t0
    return Report(
        scenario_digest=scenario_digest(cfg),
        tool_version=__version__,
        seed=cfg.seed,
        tolerances=cfg.tolerances,
        annotations=REPORT_ANNOTATIONS,
        results=results,
        timing={"started_utc": started, "elapsed_seconds": elapsed},
    )


def _witness_value_to_json(v):
    if isinstance(v, PairPoint):
        return {"primal": v.primal.tolist(), "dual": v.dual.tolist()}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "verdict": cert.verdict.value,
        "check_name": cert.check_name,
        "narrative": cert.narrative,
        "witnesses": [
            {"label": k, "value": _witness_value_to_json(v)} for k, v in cert.witnesses
        ],
    }


def report_to_dict(report: Report) -> dict:
    counts = {"pass": 0, "fail": 0, "not_applicable": 0}
    for r in report.results:
        counts[r.certificate.verdict.value] += 1
    return {
        "tool": {"name": "fitzkit", "version": report.tool_version},
        "scenario_digest": report.scenario_digest,
        "seed": report.seed,
        "tolerances": asdict(report.tolerances),
        "annotations": list(report.annotations),
        "checks": [
            {
                "check": r.check,
                "target": r.target,
                "certificate": certificate_to_dict(r.certificate),
            }
            for r in report.results
        ],
        "summary": counts,
        "timing": report.timing,
    }


def render_report(report: Report, fmt: str) -> str:
    return reformat_report_json(report_to_dict(report), fmt)


def emit_report(report: Report, fmt: str, path=None) -> str:
    """Render the report; write it to path when given, return the text."""
    text = render_report(report, fmt)
    if path is not None:
        Path(path).write_text(text)
    return text


def reformat_report_json(stored: dict, fmt: str) -> str:
    """Render a report dict (fresh or stored JSON) as JSON or CSV.

    A CSV row's key_scalar is the certificate's first real-valued witness."""
    if fmt == "json":
        return json.dumps(stored, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "target", "verdict", "key_scalar"])
        for entry in stored.get("checks", []):
            cert = entry["certificate"]
            key = ""
            for w in cert.get("witnesses", []):
                if isinstance(w["value"], (int, float)) and not isinstance(w["value"], bool):
                    key = repr(float(w["value"]))
                    break
            writer.writerow([entry["check"], entry["target"], cert["verdict"], key])
        return buf.getvalue()
    raise ValidationError(f"unknown report format {fmt!r}")
