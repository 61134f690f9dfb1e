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
import math
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields as dataclass_fields
from datetime import datetime, timezone
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .certificates import Certificate, Verdict, failed, not_applicable, passed
from .criteria import (
    _br_rows,
    blowup_witness_sequence,
    br_check,
    conv_domain_certificate,
    near_convexity_certificate,
    simons_lower_bound_check,
    sup_quotient,
    theorem36_experiment,
)
from .errors import FitzkitError, ScenarioParseError, ValidationError, ZOnDomainError
from .fitzpatrick import fitz_inequality_check, shift_identity_check
from .operators import (
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
    Sample,
    ShiftedOp,
    SubdiffOp,
    TranslatedNormPower,
    _subdiff_of,
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
    except (TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ScenarioParseError(f"{where}: {e}") from e


def _expect(val, kind: type, where: str):
    if not isinstance(val, kind):
        raise ScenarioParseError(f"{where}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _number(v) -> bool:  # JSON's NaN and Infinity load as floats
    return not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float) and math.isfinite(v))


def _numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_number, v))


def _integer(v) -> bool:  # a JSON integer, not 2.5 or 2.0
    return _number(v) and isinstance(v, int)


def _numeric(v) -> bool:
    """A number, or a list of them at any depth: a vector, a matrix, vertices or pairs."""
    return _number(v) or isinstance(v, (list, tuple)) and all(map(_numeric, v))


def _shape(v) -> Optional[tuple]:
    """The shape of a number or a nest of lists, as numpy reads it; None when
    two items of one list differ in shape (rows of different lengths)."""
    if not isinstance(v, (list, tuple)):
        return ()
    shapes = {_shape(x) for x in v}
    if len(shapes) > 1 or None in shapes:
        return None
    return (len(v), *next(iter(shapes), ()))


def _wire_number(v, where: str, ok=_numeric, what: str = "finite numbers"):
    """v, once ok(v) and its lists are rectangular; else ScenarioParseError.
    Every number of the wire format reads through here or through PARAM_KINDS."""
    if not ok(v):
        raise ScenarioParseError(f"{where}: expected {what}, got {v!r:.60}")
    if _shape(v) is None:
        raise ScenarioParseError(f"{where}: rows of different lengths")
    return v


def _only(obj: dict, keys, where: str, what: str) -> dict:
    """obj, once each of its keys is found in keys; else ScenarioParseError."""
    for key in _expect(obj, dict, where):
        if key not in keys:
            raise ScenarioParseError(f"{where}.{key}: {what} takes only {', '.join(sorted(keys))}")
    return obj


# Every function and operator kind of the wire format: its class, and the keys
# of the class's init fields in order. A missing key takes its field's default
# in the class, and a missing scale is 1 (a translated norm power's scale has
# no class default, as its center follows it). A normal cone holds the one of
# its two keys that its region is.
FUNCTION_KINDS = {
    "quadratic": (Quadratic, ("matrix", "offset")),
    "box_indicator": (Box, ("lo", "hi")),
    "norm_power": (NormPower, ("p", "scale")),
    "translated_norm_power": (TranslatedNormPower, ("p", "scale", "center")),
    "sum": (FunSum, ("parts",)),
}
OPERATOR_KINDS = {
    "graph": (GraphOp, ("pairs",)),
    "linear": (LinearOp, ("matrix", "offset")),
    "subdiff": (SubdiffOp, ("fun",)),
    "normal_cone": (NormalConeOp, ("box", "vertices")),
    "duality_map": (DualityMapOp, ("p", "center")),
    "shifted": (ShiftedOp, ("inner", "zstar")),
    "perturbed": (PerturbedOp, ("inner", "lambda", "p", "center")),
}
_KIND_OF = {cls: (table, kind) for table in (FUNCTION_KINDS, OPERATOR_KINDS)
            for kind, (cls, _) in table.items()}


def _fields(table: dict, kind: str, box: bool):
    """A kind's class and its [(key, init field)]; the class and the keys must agree."""
    cls, keys = table[kind]
    if kind == "normal_cone":
        keys = keys[:1] if box else keys[1:]
    return cls, list(zip(keys, [f for f in dataclass_fields(cls) if f.init], strict=True))


def _read(table: dict, obj, where: str):
    """The spec that obj, a wire object of one of table's kinds, holds."""
    kind = _expect(obj, dict, where).get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ScenarioParseError(f"{where}: unknown kind {kind!r}, not one of {', '.join(table)}")
    cls, fields = _fields(table, kind, "box" in obj)
    obj = {"scale": 1.0, **_only(obj, {"kind", *(key for key, _ in fields)}, where, kind)}
    with _fields_of(where):  # a missing key without a default reads as "missing field"
        spec = cls(**{f.name: _WIRE.get(key, _RAW)[0](obj[key], f"{where}.{key}")
                      for key, f in fields if key in obj or f.default is MISSING})
    # every use of a wrapped op samples it, and resolvent_batch has no reduction for these
    if isinstance(spec, (ShiftedOp, PerturbedOp)) and isinstance(spec.inner, GraphOp):
        raise ScenarioParseError(f"{where}: {kind} has no resolvent: its inner operator is a graph")
    if isinstance(spec, PerturbedOp) and spec.p != 2.0 and _subdiff_of(spec) is None:
        raise ScenarioParseError(
            f"{where}: perturbed has no resolvent: p is {spec.p:g}, not 2, and its inner "
            "operator is not a subdifferential")
    return spec


def _dump(spec) -> dict:
    """The wire object of a spec of one of the kinds."""
    table, kind = _KIND_OF[type(spec)]
    _, fields = _fields(table, kind, isinstance(getattr(spec, "region", None), Box))
    return {"kind": kind, **{key: _WIRE.get(key, _RAW)[1](getattr(spec, f.name)) for key, f in fields}}


def _pairs(obj, where: str) -> FiniteGraph:
    """A graph's pairs, read as one float array; bare numbers are pairs in R^1."""
    arr = np.array(_wire_number(obj, where), dtype=float)
    arr = arr[:, :, None] if arr.ndim == 2 else arr
    if arr.ndim != 3 or arr.shape[1] != 2 or not arr.size:
        raise ScenarioParseError(f"{where}: expected a nonempty list of [x, x*] pairs of one width")
    return FiniteGraph.from_arrays(arr[:, 0], arr[:, 1])


# How a key's value reads from its JSON value and dumps to it. Any other key's
# JSON value goes to the class once it is numbers (_RAW), and the class checks it.
_RAW = (_wire_number, lambda v: v.tolist() if isinstance(v, np.ndarray) else v)
_WIRE = {
    "fun": (partial(_read, FUNCTION_KINDS), _dump),
    "parts": (lambda v, where: tuple(_read(FUNCTION_KINDS, f, f"{where}[{i}]") for i, f in enumerate(v)),
              lambda fs: [_dump(f) for f in fs]),
    "inner": (partial(_read, OPERATOR_KINDS), _dump),
    "pairs": (_pairs, lambda g: np.stack([g.primals, g.duals], axis=1).tolist()),
    "box": (lambda v, where: Box(*(_wire_number(_only(v, ("lo", "hi"), where, "box")[k], f"{where}.{k}")
                                   for k in ("lo", "hi"))),
            lambda b: {"lo": b.lo.tolist(), "hi": b.hi.tolist()}),
    "vertices": (lambda v, where: Polytope(_wire_number(v, where)), lambda p: p.vertices.tolist()),
}


def parse_operator(obj: dict, where: str) -> OperatorSpec:
    return _read(OPERATOR_KINDS, obj, where)


def parse_grid(obj: dict, where: str, cap: int) -> Grid:
    _only(obj, ("lower", "upper", "spacing"), where, "a grid")
    with _fields_of(where):
        keys = ("lower", "upper", "spacing")
        return Grid(*(_wire_number(obj[k], f"{where}.{k}") for k in keys), cap=cap)


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

    def __post_init__(self):
        if self.seed < 0:  # numpy seeds no generator from a negative integer
            raise ValidationError("seed must be >= 0")


def _vector(v, dim: int) -> bool:
    """A list of dim numbers, or a bare number when dim is 1 (as_vector's reading)."""
    return (_number(v) and dim == 1) or (_numbers(v) and len(v) == dim)


_EXPECTATIONS = {
    "crosses": lambda v: isinstance(v, bool),
    "at_most": _number,
    "between": lambda v: _numbers(v) and len(v) == 2 and v[0] <= v[1],
}

# The kind of value each check param must hold, as (description, test(value,
# dimension)); a param of another kind is rejected when the scenario loads.
# A grid param (test None) must name a grid of the scenario, of dimension 2n
# for probe_grid and n otherwise.
PARAM_KINDS = {
    **dict.fromkeys(("z", "zstar", "x", "xstar", "box_lo", "box_hi"), ("a {dim}-vector", _vector)),
    **dict.fromkeys(
        ("lambdas", "n_schedule"),
        ("a nonempty list of numbers", lambda v, _: _numbers(v) and len(v) > 0),
    ),
    **dict.fromkeys(("p", "alpha", "beta"), ("a number", lambda v, _: _number(v))),
    **dict.fromkeys(
        ("trials", "n_samples"),
        ("an integer >= 0", lambda v, _: _integer(v) and v >= 0),
    ),
    **dict.fromkeys(
        ("strict", "allow_z_in_domain"), ("a boolean", lambda v, _: isinstance(v, bool))
    ),
    **dict.fromkeys(("wgrid", "xgrid", "probe_grid"), ("a grid name", None)),
    "expect": (
        "an object of crosses (a boolean), at_most (a number) or between ([lo, hi], lo <= hi)",
        lambda v, _: isinstance(v, dict)
        and all(k in _EXPECTATIONS and _EXPECTATIONS[k](e) for k, e in v.items()),
    ),
    "points": (
        "a list of [x, x*] pairs of {dim}-vectors",
        lambda v, dim: isinstance(v, (list, tuple))
        and all(isinstance(q, (list, tuple)) and len(q) == 2 for q in v)
        and all(_vector(side, dim) for q in v for side in q),
    ),
}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    keys = ("dimension", "seed", "tolerances", "operators", "grids", "checks")
    if "dimension" not in _only(raw, keys, "scenario", "a scenario"):
        raise ScenarioParseError("scenario: missing field 'dimension'")
    dim = _wire_number(raw["dimension"], "dimension", _integer, "an integer")
    seed = _wire_number(raw.get("seed", 0), "seed", _integer, "an integer")
    tol_raw = _only(raw.get("tolerances", {}), asdict(ToleranceConfig()), "tolerances", "tolerances")
    for key, val in tol_raw.items():  # the budget is an integer
        _wire_number(val, f"tolerances.{key}", *((_integer, "an integer") if key == "budget" else
                                                  (_number, "a finite number")))
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    try:
        tol = ToleranceConfig(**tol_raw)
    except ValidationError as e:  # it names the field
        raise ScenarioParseError(f"tolerances.{e}") from e
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
        kind = _only(obj, ("check", "target", "params"), where, "a check").get("check")
        if not isinstance(kind, str) or kind not in CHECKS:
            raise ValidationError(f"{where}: unknown check {kind!r}")
        entry = CHECKS[kind]
        target = obj.get("target")
        if not isinstance(target, str) or target not in operators:
            raise ValidationError(f"{where}: unresolved operator name {target!r}")
        on_graph = isinstance(operators[target], GraphOp)
        params = dict(_only(obj.get("params", {}), entry.accepts, f"{where}.params", kind))
        missing = [[k for k in alt if k not in params] for alt in entry.needs]
        if all(missing):
            need = " or ".join(", ".join(m) for m in missing)
            raise ScenarioParseError(f"{where}: {kind} needs parameter(s) {need}")
        if entry.samples and not on_graph and "wgrid" not in params:
            raise ScenarioParseError(f"{where}: {kind} needs parameter(s) wgrid for {target!r}")
        for key, val in params.items():
            what, ok = PARAM_KINDS[key]
            if ok is None:
                if not (isinstance(val, str) and val in grids):
                    raise ValidationError(f"{where}: unresolved grid name {val!r}")
                want, got = (2 * dim if key == "probe_grid" else dim), grids[val].dim
                if got != want:
                    raise ValidationError(
                        f"{where}.params.{key}: grid {val!r} is {got}-d, not {want}-d")
            elif not ok(val, dim):
                raise ScenarioParseError(
                    f"{where}.params.{key}: expected {what.format(dim=dim)}, got {val!r:.60}"
                )
        if params.get("strict") and "probe_grid" not in params:
            raise ScenarioParseError(f"{where}: strict mode needs parameter probe_grid")
        if np.any(np.greater(params.get("box_lo", -2.0), params.get("box_hi", 2.0))):
            raise ValidationError(f"{where}.params: box_lo exceeds box_hi")
        if entry.graph_target is not None and entry.graph_target != on_graph:
            want = "a finite-graph" if entry.graph_target else "a sampled"
            raise ValidationError(f"{where}: {kind} needs {want} target, not {target!r}")
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
        "operators": {k: _dump(v) for k, v in cfg.operators.items()},
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

@dataclass(frozen=True, eq=False)
class _Run:
    """One check's view of its suite run: the scenario, the check, the check's
    random stream, and the suite's samples, one per (target, wgrid name)."""

    cfg: ScenarioConfig
    spec: CheckSpec
    rng: np.random.Generator
    samples: dict

    op = property(lambda self: self.cfg.operators[self.spec.target])
    params = property(lambda self: self.spec.params)
    tol = property(lambda self: self.cfg.tolerances)

    def grid(self, key: str) -> Optional[Grid]:
        return self.cfg.grids.get(self.params.get(key))  # None when the param is absent

    def sample(self) -> Sample:
        key = (self.spec.target, self.params.get("wgrid"))
        if key not in self.samples:
            self.samples[key] = Sample.over(self.op, self.grid("wgrid"), self.tol)
        return self.samples[key]

    box = property(lambda self: (self.params.get("box_lo", [-2.0] * self.cfg.dimension),
                                 self.params.get("box_hi", [2.0] * self.cfg.dimension)))

    def box_pairs(self, count: int) -> np.ndarray:
        """count pairs (x, x*) drawn from the box as one (count, 2, n) array."""
        return self.rng.uniform(*self.box, size=(count, 2, self.cfg.dimension))


def _sup_quotient(run: _Run) -> Certificate:
    p, threshold = run.params, run.tol.inf_threshold
    expect = p.get("expect", {})
    try:
        est, trace = sup_quotient(run.sample(), p["z"], p.get("allow_z_in_domain", False))
    except ZOnDomainError as e:
        return not_applicable("sup_quotient", str(e))
    witnesses = [("estimate", est)]
    if trace.entries:
        witnesses.append(("witness", trace.entries[-1][2]))
    ok, why = True, "estimate recorded"
    if expect.get("crosses"):
        ok = est >= threshold
        why = f"estimate {est:.6g} vs crossing threshold {threshold:g}"
    elif "at_most" in expect:
        ok = est <= expect["at_most"]
        why = f"estimate {est:.6g} vs bound {expect['at_most']:g}"
    elif "between" in expect:
        lo, hi = expect["between"]
        ok = lo <= est <= hi
        why = f"estimate {est:.6g} vs window [{lo:g}, {hi:g}]"
    return (passed if ok else failed)("sup_quotient", why, witnesses)


def _br(run: _Run) -> Certificate:
    p, s, n = run.params, run.sample(), run.cfg.dimension
    if "trials" not in p:
        return br_check(s, pair(p["x"], p["xstar"]), p["alpha"], p["beta"])
    lo, hi = run.box  # every trial up front: x and x* from the box, then alpha, beta from [0.05, 1]
    T = run.rng.uniform([*lo, *lo, 0.05, 0.05], [*hi, *hi, 1.0, 1.0], size=(p["trials"], 2 * n + 2))
    verdicts, certificate = _br_rows(s, T[:, :n], T[:, n:-2], T[:, -2], T[:, -1])
    if Verdict.FAIL in verdicts:  # the first failing trial fails the check
        i = verdicts.index(Verdict.FAIL)
        trial = [("trial_x", T[i, :n]), ("trial_alpha", float(T[i, -2])), ("trial_beta", float(T[i, -1]))]
        why = "a randomized trial with active hypothesis failed"
        return failed("br", why, [*certificate(i).witnesses, *trial])
    n_pass = verdicts.count(Verdict.PASS)
    counts = [("activated_trials", float(n_pass)), ("inactive_trials", float(p["trials"] - n_pass))]
    return passed("br", "all activated randomized trials passed", counts)


def _fitz_inequality(run: _Run) -> Certificate:
    """The points, then the box draws, as rows (x, x*) of one (k, 2, n) array."""
    points = np.array([[np.ravel(side) for side in q] for q in run.params.get("points", [])], dtype=float)
    draws = run.box_pairs(run.params.get("n_samples", 0))
    XS = np.concatenate([points.reshape(-1, 2, run.cfg.dimension), draws])
    return fitz_inequality_check(run.sample(), XS[:, 0], XS[:, 1])


def _maximality_probe(run: _Run) -> Certificate:
    X, S = maximality_probe(run.sample(), run.grid("probe_grid"))
    if len(X):
        witnesses = [("evidence_count", float(len(X)))]
        witnesses += [(f"evidence_{i}", PairPoint(X[i], S[i])) for i in range(min(5, len(X)))]
        why = "probe points monotonically related to the surrogate but not members"
        return failed("maximality_probe", why, witnesses)
    why = "no evidence against maximality within the probe budget"
    return passed("maximality_probe", why, [("evidence_count", 0.0)])


@dataclass(frozen=True)
class Check:
    """One check kind. A check needs every param of at least one set in needs
    and may also take the params in optional. A check that samples its target
    takes wgrid, and needs it unless the target is a finite graph.
    graph_target True admits only finite-graph targets, False only others."""

    run: Callable[[_Run], Certificate]
    needs: tuple
    optional: tuple = ()
    samples: bool = True
    graph_target: Optional[bool] = None

    @property
    def accepts(self) -> frozenset:
        return frozenset(chain(*self.needs, self.optional, ("wgrid",) if self.samples else ()))


# Every check kind a scenario may name, as in README's check table.
CHECKS: dict[str, Check] = {
    "theorem36": Check(
        lambda r: theorem36_experiment(r.op, r.grid("xgrid"), r.tol, wgrid=r.grid("wgrid"))[1],
        needs=(("xgrid",),), optional=("wgrid",), samples=False, graph_target=False,
    ),
    "near_convexity": Check(
        lambda r: near_convexity_certificate(
            r.sample(), r.params["z"], r.params.get("p", 1.0), r.params["lambdas"],
            strict=r.params.get("strict", False), probe_grid=r.grid("probe_grid"),
        ),
        needs=(("z", "lambdas"),), optional=("p", "strict", "probe_grid"),
    ),
    "conv_domain": Check(
        lambda r: conv_domain_certificate(
            r.sample(), r.params["z"], r.params.get("p", 1.0), r.params["lambdas"]
        ),
        needs=(("z", "lambdas"),), optional=("p",),
    ),
    "sup_quotient": Check(_sup_quotient, needs=(("z",),), optional=("allow_z_in_domain", "expect")),
    "simons_lower_bound": Check(
        lambda r: simons_lower_bound_check(r.sample(), pair(r.params["z"], r.params["zstar"])),
        needs=(("z", "zstar"),),
    ),
    "br": Check(
        _br, needs=(("trials",), ("x", "xstar", "alpha", "beta")), optional=("box_lo", "box_hi")
    ),
    "blowup_witness": Check(
        lambda r: blowup_witness_sequence(r.sample(), r.params["z"], r.params["n_schedule"])[1],
        needs=(("z", "n_schedule"),),
    ),
    "fitz_inequality": Check(
        _fitz_inequality, needs=((),), optional=("points", "n_samples", "box_lo", "box_hi")
    ),
    "shift_identity": Check(
        lambda r: shift_identity_check(r.op.graph, r.params["z"], r.params["zstar"], r.tol),
        needs=(("z", "zstar"),), samples=False, graph_target=True,
    ),
    "maximality_probe": Check(_maximality_probe, needs=(("probe_grid",),)),
}


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


def _finite_witness(v) -> bool:
    if isinstance(v, PairPoint):
        return bool(np.isfinite(v.primal).all() and np.isfinite(v.dual).all())
    return not isinstance(v, (float, np.floating, np.ndarray)) or bool(np.isfinite(v).all())


def _run_check(run: _Run) -> Certificate:
    """The check's certificate. A value beyond the float range, on the way
    or in a witness (a report has no such number), is one error naming the
    check."""
    where = f"check {run.spec.check!r} on target {run.spec.target!r}"
    try:
        with np.errstate(over="raise"):
            cert = CHECKS[run.spec.check].run(run)
    except FloatingPointError as e:
        raise FitzkitError(f"{where}: a value overflows a float ({e})") from e
    if not all(_finite_witness(v) for _, v in cert.witnesses):
        raise FitzkitError(f"{where}: a witness is not a finite float")
    return cert


def run_suite(cfg: ScenarioConfig) -> Report:
    """Execute the checks in listed order; per-check randomness comes from
    seeds drawn up front, so a check's certificate does not depend on the
    checks before it."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    master = np.random.default_rng(cfg.seed)
    child_seeds = [int(master.integers(0, 2**63 - 1)) for _ in cfg.checks]
    samples: dict = {}
    results = []
    for sc, sd in zip(cfg.checks, child_seeds):
        cert = _run_check(_Run(cfg, sc, np.random.default_rng(sd), samples))
        results.append(CheckResult(sc.check, sc.target, cert))
    elapsed = time.monotonic() - t0
    return Report(
        scenario_digest=scenario_digest(cfg),
        tool_version=__version__,
        seed=cfg.seed,
        tolerances=cfg.tolerances,
        annotations=REPORT_ANNOTATIONS,
        results=tuple(results),
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
