"""The three benchmark workloads: inputs, operations and output oracles.

A workload builds its inputs in its constructor; that is the work
``setup_s`` times in a fresh interpreter. The runner then asks it for one
pass at a time, as a list of operations. An operation is a thunk that calls
fitzkit's public functions and a check that validates the output against an
oracle. The runner times only the thunk, so checks stay outside the timed and
traced regions.

Thunks look functions up on the fitzkit modules at call time (for example
``operators.graph_sample``) so that the span recorder's wrappers see them.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from calibrate import normalised
from common import BENCH_DIR, import_fitzkit

import_fitzkit()

import numpy as np
import scipy.spatial  # noqa: F401  (the first scipy.spatial touch is set-up work)

from fitzkit import fitzpatrick, harness, operators
from fitzkit.fitzpatrick import Finite, InfiniteSuspected
from fitzkit.operators import BoxIndicator, FunSum, LinearOp, NormalConeOp, Quadratic, SubdiffOp
from fitzkit.vecspace import DEFAULT_TOL, Box, Grid, Polytope, pair

SCENARIOS = ("paper-suite", "operator-zoo", "expected-failures")
GOLDEN_DIR = BENCH_DIR / "golden"
FAMILIES = ("box", "simplex", "identity", "quadbox")


@dataclass(frozen=True)
class Op:
    """One timed call. ``check`` returns None when the output is correct and a
    one-line reason otherwise; ``units`` counts the work the output holds."""

    label: str
    thunk: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    units: Callable[[Any], int]


@dataclass
class PassRecord:
    index: int
    traced: bool
    times: list  # (position in the pass, label, seconds) per operation that completed
    units: int
    samples: list  # micro reference times taken while the operations ran

    @property
    def seconds(self) -> float:
        return sum(t for _, _, t in self.times)

    @property
    def norm_seconds(self) -> float:
        return normalised(self.seconds, self.samples)


@dataclass
class Stat:
    """A metric as measured: the reported value plus the samples behind it."""

    value: float
    unit: str
    samples: tuple = ()
    note: str = ""


def timing_stat(values, unit: str, note: str = "") -> Stat:
    vals = tuple(values)
    return Stat(statistics.median(vals), unit, vals, note)


def quartiles(values) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_percentile(values) -> tuple[float, float]:
    """(p, value) for the highest of a fixed ladder of percentiles that has at
    least ten samples beyond it; falls back to the maximum."""
    best = None
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return 100.0, float(max(values))
    return best, float(np.percentile(values, best))


# ---------------------------------------------------------------------------
# Operator families shared by dense-sample and dense-evaluate
# ---------------------------------------------------------------------------

def family_operator(family: str, n: int):
    """Unit box / solid simplex conv{0, e_i} normal cones, the identity, and
    the subdifferential of 0.5|x|^2 + indicator of the unit box."""
    eye, lo, hi = np.eye(n), np.zeros(n), np.ones(n)
    if family == "box":
        return NormalConeOp(Box(lo, hi))
    if family == "simplex":
        return NormalConeOp(Polytope(np.vstack([np.zeros(n), eye])))
    if family == "identity":
        return LinearOp(eye, np.zeros(n))
    if family == "quadbox":
        return SubdiffOp(FunSum((Quadratic(eye, np.zeros(n)), BoxIndicator(lo, hi))))
    raise ValueError(family)


def project_solid_simplex(W: np.ndarray) -> np.ndarray:
    """Row-wise projection onto {x >= 0, sum(x) <= 1} (sort-based, closed form)."""
    W = np.atleast_2d(W)
    pos = np.maximum(W, 0.0)
    out = pos.copy()
    over = pos.sum(axis=1) > 1.0
    if np.any(over):
        V = W[over]
        u = -np.sort(-V, axis=1)
        css = np.cumsum(u, axis=1) - 1.0
        ind = np.arange(1, V.shape[1] + 1)
        rho = np.count_nonzero(u - css / ind > 0, axis=1)
        theta = css[np.arange(len(V)), rho - 1] / rho
        out[over] = np.maximum(V - theta[:, None], 0.0)
    return out


def closed_form_resolvent(family: str, W: np.ndarray) -> np.ndarray:
    if family == "box":
        return np.clip(W, 0.0, 1.0)
    if family == "simplex":
        return project_solid_simplex(W)
    if family == "identity":
        return W / 2.0
    if family == "quadbox":
        return np.clip(W / 2.0, 0.0, 1.0)
    raise ValueError(family)


def distance_to_domain(family: str, x: np.ndarray) -> float:
    if family in ("box", "quadbox"):
        return float(np.linalg.norm(x - np.clip(x, 0.0, 1.0)))
    if family == "simplex":
        return float(np.linalg.norm(x - project_solid_simplex(x)[0]))
    return 0.0


def closed_form_upper(family: str, x: np.ndarray, xs: np.ndarray) -> float:
    """F(x, x*) for the cones (iota_C + sigma_C) and the identity (fitz_linear);
    the Fenchel-Young bound f(x) + f*(x*) for quadbox."""
    tol = DEFAULT_TOL.eq_tol
    if family == "identity":
        v = fitzpatrick.fitz_linear(np.eye(x.size), np.zeros(x.size), pair(x, xs))
        return v.value if isinstance(v, Finite) else np.inf
    if distance_to_domain(family, x) > tol:
        return np.inf
    if family == "box":
        return float(np.maximum(xs, 0.0).sum())
    if family == "simplex":
        return float(max(0.0, xs.max()))
    t = np.clip(xs, 0.0, 1.0)
    return float(0.5 * x @ x + (t * xs - 0.5 * t * t).sum())


def greedy_dedupe(rows: np.ndarray, tol: float) -> np.ndarray:
    """Brute-force reference dedupe: lex-sort the rows, then keep a row unless
    some earlier kept row lies within tol. Every pair of rows is compared; a
    Gram-matrix prefilter with a wide margin finds the candidates, and each
    candidate pair is confirmed with the exact Euclidean distance."""
    srt = rows[np.lexsort(rows.T[::-1])]
    n = len(srt)
    sq = np.einsum("ij,ij->i", srt, srt)
    margin = tol * tol + 1e-10 * (1.0 + float(sq.max(initial=0.0)))
    earlier: dict[int, list[int]] = {}
    block = 256
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        d2 = srt[i0:i1] @ srt[:i1].T
        d2 *= -2.0
        d2 += sq[None, :i1]
        d2 += sq[i0:i1, None]
        bi, j = np.nonzero(d2 <= margin)
        i = bi + i0
        for a, b in zip(i[j < i].tolist(), j[j < i].tolist()):
            if np.linalg.norm(srt[a] - srt[b]) <= tol:
                earlier.setdefault(a, []).append(b)
    keep = np.ones(n, dtype=bool)
    for i in sorted(earlier):
        if any(keep[j] for j in earlier[i]):
            keep[i] = False
    return srt[keep]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    min_passes = 1
    # Whether the set-up workers measure passes too: true where a pass is
    # short enough for each of four processes to run one within the run.
    workers_measure = True

    def ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def throughput(self, passes: list[PassRecord]) -> Stat:
        """Work units per second over all passes."""
        rate = sum(p.units for p in passes) / sum(p.seconds for p in passes)
        return Stat(rate, "1/s", tuple(p.units / p.seconds for p in passes))

    def named(self, passes: list[PassRecord]) -> dict[str, Stat]:
        """The workload's own metric names, as its users would call them."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Counts the checks gathered, to merge across processes."""
        return {}

    def add_counters(self, counters: dict):
        pass

    def op_times(self, passes, pred) -> list[float]:
        return [t for p in passes for _, label, t in p.times if pred(label)]


class BundledSuites(Workload):
    """``fitzkit suite`` on the three bundled scenarios, checked against the
    golden reports recorded in ``golden/``."""

    name = "bundled-suites"
    min_passes = 3

    def __init__(self, seed: int):
        del seed  # scenarios carry their own seeds
        self.configs = {s: harness.load_scenario(scenario_path(s)) for s in SCENARIOS}
        self.goldens = {s: (GOLDEN_DIR / f"{s}.json").read_text() for s in SCENARIOS}

    def ops(self, index):
        return [
            Op(s, lambda s=s: run_scenario(self.configs[s]), lambda text, s=s: self._check(s, text),
               lambda text: len(json.loads(text)["checks"]))
            for s in SCENARIOS
        ]

    def _check(self, scenario: str, text: str) -> Optional[str]:
        if strip_timing(text) != self.goldens[scenario]:
            return f"{scenario}: report differs from golden/{scenario}.json"
        return None

    def named(self, passes):
        out = {"suite_pass_s": timing_stat([p.seconds for p in passes], "s"),
               "certificates_per_s": self.throughput(passes)}
        for s in SCENARIOS:
            out[f"scenario_s.{s}"] = timing_stat(self.op_times(passes, lambda l, s=s: l == s), "s")
        return out


def run_scenario(cfg) -> str:
    return harness.render_report(harness.run_suite(cfg), "json")


def scenario_path(scenario: str) -> Path:
    return Path(harness.__file__).parent / "scenarios" / f"{scenario}.json"


def strip_timing(report_json: str) -> str:
    """The report text without its timing block, formatted as render_report does."""
    doc = json.loads(report_json)
    doc.pop("timing", None)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@dataclass(frozen=True)
class SampleCase:
    dim: int
    family: str
    op: Any
    grid: Grid

    @property
    def label(self) -> str:
        return f"{self.dim}d.{self.family}"


class DenseSample(Workload):
    """``graph_sample(verify=True)`` on a 10201-node 2-d grid and a 9261-node
    3-d grid for four operator families. The seed shifts each grid by less
    than half a spacing, which keeps its node count."""

    name = "dense-sample"
    min_passes = 1
    workers_measure = False  # one pass takes longer than a whole run
    GRIDS = ((2, 0.05), (3, 0.25))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for dim, spacing in self.GRIDS:
            shift = rng.uniform(0.0, 0.5 * spacing, dim)
            grid = Grid(-2.0 + shift, 3.0 + shift, spacing)
            for fam in FAMILIES:
                self.cases.append(SampleCase(dim, fam, family_operator(fam, dim), grid))

    def ops(self, index):
        return [
            Op(c.label, lambda c=c: operators.graph_sample(c.op, c.grid, verify=True),
               lambda g, c=c: check_sample(c, g), len)
            for c in self.cases
        ]

    def named(self, passes):
        out = {"sample_pairs_per_s": self.throughput(passes)}
        for dim, _ in self.GRIDS:
            per_pass = [sum(t for _, l, t in p.times if l.startswith(f"{dim}d.")) for p in passes]
            out[f"sample_s.{dim}d"] = timing_stat(per_pass, "s")
        for c in self.cases:
            out[f"sample_s.{c.label}"] = timing_stat(self.op_times(passes, lambda l, c=c: l == c.label), "s")
        return out


def check_sample(case: SampleCase, g) -> Optional[str]:
    """The graph must be exactly the brute-force dedupe of the resolvent rows,
    and those rows must match the family's closed-form resolvent."""
    tol = DEFAULT_TOL.eq_tol
    W = case.grid.nodes()
    X = operators.resolvent_batch(case.op, W)
    err = float(np.abs(X - closed_form_resolvent(case.family, W)).max())
    if err > tol:
        return f"{case.label}: resolvent rows differ from the closed form by {err:.3e}"
    ref = greedy_dedupe(np.hstack([X, W - X]), tol)
    got = np.hstack([g.primals, g.duals])
    if got.shape != ref.shape or not np.array_equal(got, ref):
        return f"{case.label}: graph ({len(got)} pairs) differs from the reference dedupe ({len(ref)})"
    return None


def stratified_probes(rng, side: int) -> list:
    """side² probe pairs, x in [-1,2]² and x* in [-2,2]², each uniform. The x
    lie one per cell of a side x side grid over [-1,2]², and each coordinate
    of x* one per stratum of side² equal strata (a Latin hypercube), so every
    seed covers the probe box alike and the work of a pass varies little
    from seed to seed."""
    k = side * side
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), -1).reshape(k, 2)
    x = -1.0 + 3.0 * (cells + rng.random((k, 2))) / side
    strata = np.stack([rng.permutation(k), rng.permutation(k)], axis=1)
    xs = -2.0 + 4.0 * (strata + rng.random((k, 2))) / k
    return [pair(x[i], xs[i]) for i in rng.permutation(k)]


class DenseEvaluate(Workload):
    """``fitz_sampled`` on seed-drawn probe pairs over four 2601-node samples
    built in set-up. Set-up draws 16 stratified probes per family; every pass
    evaluates the same 64 probes, families in round robin."""

    name = "dense-evaluate"
    min_passes = 3
    PROBE_GRID_SIDE = 4

    def __init__(self, seed: int):
        self.grid = Grid([-2.0, -2.0], [3.0, 3.0], 0.1)
        self.samples = []
        for fam in FAMILIES:
            op = family_operator(fam, 2)
            self.samples.append((fam, op, operators.graph_sample(op, self.grid)))
        rng = np.random.default_rng(seed)
        per_family = [stratified_probes(rng, self.PROBE_GRID_SIDE) for _ in FAMILIES]
        self.probes = [(which, pt) for group in zip(*per_family) for which, pt in enumerate(group)]
        self.outcomes = {fam: {"finite": 0, "infinite": 0} for fam in FAMILIES}

    def ops(self, index):
        return [self.probe(which, pt) for which, pt in self.probes]

    def probe(self, which: int, pt) -> Op:
        fam, op, g = self.samples[which]
        return Op(
            fam,
            lambda: fitzpatrick.fitz_sampled(op, pt, self.grid, sample=g),
            lambda v: self._check(fam, op, pt, g, v),
            lambda v: 1,
        )

    def _check(self, fam, op, pt, g, v) -> Optional[str]:
        tol = DEFAULT_TOL
        x, xs = pt.primal, pt.dual
        if isinstance(v, Finite):
            self.outcomes[fam]["finite"] += 1
            lower = fitzpatrick.fitz_finite(g, pt) - tol.eq_tol
            upper = closed_form_upper(fam, x, xs) + tol.eq_tol
            if not (np.isfinite(v.value) and lower <= v.value <= upper):
                return f"{fam}: Finite({v.value!r}) outside [{lower!r}, {upper!r}] at {pt}"
            return None
        if not isinstance(v, InfiniteSuspected):
            return f"{fam}: unexpected result {v!r}"
        self.outcomes[fam]["infinite"] += 1
        if distance_to_domain(fam, x) <= tol.eq_tol:
            return f"{fam}: InfiniteSuspected at {pt}, where the closed form is finite"
        a, astar = v.witness.primal, v.witness.dual
        term = float(x @ astar + a @ xs - a @ astar)
        if not term > tol.inf_threshold:
            return f"{fam}: witness term {term:.3e} does not cross the threshold"
        if not operators.membership(op, v.witness, tol):
            return f"{fam}: witness {v.witness} is not in the graph"
        return None

    def counters(self):
        return self.outcomes

    def add_counters(self, counters):
        for fam, counts in counters.items():
            for kind, n in counts.items():
                self.outcomes[fam][kind] += n

    def infinite_share(self) -> float:
        inf = sum(o["infinite"] for o in self.outcomes.values())
        total = inf + sum(o["finite"] for o in self.outcomes.values())
        return inf / total if total else 0.0

    def named(self, passes):
        times_ms = [t * 1e3 for p in passes for _, _, t in p.times]
        p, tail = tail_percentile(times_ms)
        return {
            "fitz_evals_per_s": self.throughput(passes),
            "eval_ms_p50": timing_stat(times_ms, "ms"),
            "eval_ms_tail": Stat(tail, "ms", tuple(times_ms), f"p{p:g} of {len(times_ms)} evals"),
            "infinite_share": Stat(self.infinite_share(), "ratio"),
            **{f"kept_ratio.{fam}": Stat(len(operators.unique_domain_points(g)) / len(g), "ratio")
               for fam, _, g in self.samples},
        }


WORKLOADS = {w.name: w for w in (BundledSuites, DenseSample, DenseEvaluate)}
