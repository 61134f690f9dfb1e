"""Fitzpatrick function evaluation by three routes (finite-graph enumeration,
linear closed form, resolvent-sampled supremum), plus the domain-projection
scan and the inequality/shift identity checks.

"Infinite" is always operationalized as a threshold crossing with a recorded
graph-point witness; sampled suprema certify lower bounds only, so a Finite
verdict is a budget-relative claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .certificates import Certificate, failed, passed
from .errors import NotMaximalError, NoClosedFormError, ValidationError, VacuousForFiniteGraphError
from .operators import (
    FiniteGraph,
    GraphOp,
    LinearOp,
    OperatorSpec,
    Sample,
    pairwise_product_blocks,
    resolvent,
    shift_graph,
)
from .vecspace import (
    DEFAULT_TOL,
    Grid,
    PairPoint,
    ToleranceConfig,
    Vector,
    as_matrix,
    as_vector,
    lexsort_rows,
    pair,
)

_CROSS_FACTOR = 1.001  # threshold-crossing target is inf_threshold * this


@dataclass(frozen=True, eq=False)
class Finite:
    value: float


@dataclass(frozen=True, eq=False)
class InfiniteSuspected:
    crossed_threshold: float
    witness: PairPoint


FitzValue = Union[Finite, InfiniteSuspected]


def is_finite(v: FitzValue) -> bool:
    return isinstance(v, Finite)


@dataclass(frozen=True, eq=False)
class DomainScan:
    grid: Grid
    member_points: np.ndarray
    method: Literal["linear_consistency", "sampled_threshold"]


def _affine_terms(g: FiniteGraph, pt: PairPoint) -> np.ndarray:
    """<x, a*> + <a, x*> - <a, a*> for every graph pair (a, a*)."""
    if pt.dim != g.dim:
        raise ValidationError("point dimension does not match the graph")
    return g.duals @ pt.primal + g.primals @ pt.dual - g.self_products


def fitz_finite(g: FiniteGraph, pt: PairPoint) -> float:
    """Exact maximum of the finitely many affine terms; always finite."""
    return float(_affine_terms(g, pt).max())


# ---------------------------------------------------------------------------
# Linear closed form
# ---------------------------------------------------------------------------

def fitz_linear(
    M: np.ndarray, c: Vector, pt: PairPoint, tol: ToleranceConfig = DEFAULT_TOL
) -> FitzValue:
    """Closed form for A = M . + c: with Ms the symmetric part and
    s = M'x + x* - c, the value is <x,c> + (1/4) <s, Ms^+ s> when s lies in
    range(Ms), and the supremum diverges otherwise.

    The range test uses a relative residual against rank_tol; the pseudo
    inverse truncates eigenvalues below rank_tol.
    """
    M = as_matrix(M)
    c = as_vector(c, dim=M.shape[0])
    x, xs = pt.primal, pt.dual
    ms = 0.5 * (M + M.T)
    s = M.T @ x + xs - c
    vals, vecs = np.linalg.eigh(ms)
    keep = vals > tol.rank_tol
    coeffs = vecs.T @ s
    resid_vec = s - vecs[:, keep] @ coeffs[keep]
    rho = float(np.linalg.norm(resid_vec))
    base = float(np.dot(x, c))
    if rho <= tol.rank_tol * max(1.0, float(np.linalg.norm(s))):
        quad = float(np.sum(coeffs[keep] ** 2 / vals[keep])) if keep.any() else 0.0
        return Finite(base + 0.25 * quad)
    # diverging direction: ride the residual component of s
    u = resid_vec / rho
    curv = float(u @ ms @ u)
    target = tol.inf_threshold * _CROSS_FACTOR

    def term_at(t: float) -> tuple[float, PairPoint]:
        a = t * u
        astar = M @ a + c
        witness = pair(a, astar)
        return float(np.dot(x, astar) + np.dot(a, xs) - np.dot(a, astar)), witness

    if curv <= 0.0:
        t = (target - base) / rho
    else:
        disc = rho * rho - 4.0 * curv * (target - base)
        t = (rho - np.sqrt(disc)) / (2.0 * curv) if disc >= 0 else rho / (2.0 * curv)
    best_term, best_w = term_at(t)
    for _ in range(60):
        if best_term > tol.inf_threshold:
            break
        t *= 2.0
        cand, w = term_at(t)
        if cand <= best_term:
            break
        best_term, best_w = cand, w
    return InfiniteSuspected(best_term, best_w)


# ---------------------------------------------------------------------------
# Sampled supremum
# ---------------------------------------------------------------------------

def _sampled_sup(
    op: OperatorSpec, pt: PairPoint, g: FiniteGraph, tol: ToleranceConfig
) -> tuple[float, list[tuple[float, PairPoint]]]:
    """Max affine term of the sample g at pt, raised by the term of the
    resolvent point of x + x* (none for finite graphs), and the terms past
    inf_threshold as threshold crossings."""
    terms = _affine_terms(g, pt)
    value = float(terms.max())
    over = np.flatnonzero(terms > tol.inf_threshold)
    crossings = [(float(terms[i]), g.pair(i)) for i in over]
    try:
        x0 = resolvent(op, pt.primal + pt.dual, tol)
    except (NotMaximalError, NoClosedFormError):
        return value, crossings
    s0 = pt.primal + pt.dual - x0
    term = float(np.dot(pt.primal, s0) + np.dot(x0, pt.dual) - np.dot(x0, s0))
    if term > tol.inf_threshold:
        crossings.append((term, pair(x0, s0)))
    return max(value, term), crossings


def _ray_crossings(s: Sample, pt: PairPoint) -> list[tuple[float, PairPoint]]:
    """Threshold-crossing graph points built by riding the exact fiber rays at
    the sampled domain points (the exact-ray head of s.candidates)."""
    out: list[tuple[float, PairPoint]] = []
    tol = s.tol
    target = tol.inf_threshold * _CROSS_FACTOR
    for a, f in s.candidates:
        if not (f.exact and len(f.rays)):
            break
        base_pt = f.points[lexsort_rows(f.points)[0]]
        base_term = float(
            np.dot(pt.primal, base_pt) + np.dot(a, pt.dual) - np.dot(a, base_pt)
        )
        for r in f.rays:
            slope = float(np.dot(pt.primal - a, r))
            if slope <= tol.eq_tol:
                continue
            t = (target - base_term) / slope
            astar = base_pt + t * r
            term = float(np.dot(pt.primal, astar) + np.dot(a, pt.dual) - np.dot(a, astar))
            for _ in range(8):
                if term > tol.inf_threshold:
                    break
                t *= 2.0
                astar = base_pt + t * r
                term = float(np.dot(pt.primal, astar) + np.dot(a, pt.dual) - np.dot(a, astar))
            if term > tol.inf_threshold:
                out.append((term, pair(a, astar)))
    return out


def _lex_first_witness(cands: list[tuple[float, PairPoint]]) -> tuple[float, PairPoint]:
    rows = np.array([np.concatenate([w.primal, w.dual]) for _, w in cands])
    idx = int(lexsort_rows(rows)[0])
    return cands[idx]


def fitz_sampled(
    op: OperatorSpec,
    pt: PairPoint,
    wgrid: Grid,
    tol: ToleranceConfig = DEFAULT_TOL,
    sample: FiniteGraph | None = None,
) -> FitzValue:
    """fitz_at over the Minty sample of op on wgrid, or over the given sample."""
    if sample is None:
        return fitz_at(Sample.over(op, wgrid, tol), pt)
    return fitz_at(Sample(op, sample, tol, wgrid), pt)


def fitz_at(s: Sample, pt: PairPoint) -> FitzValue:
    """Lower bound on F_A(pt) over the sampled graph of A.

    The sample is enriched with the resolvent point of x + x* (a true graph
    point whose term always dominates the pairing) and with exact fiber rays
    at every sampled domain point ridden past the divergence threshold. On a
    finite-graph operator this is the plain enumeration and agrees with
    fitz_finite exactly.
    """
    if isinstance(s.op, GraphOp):
        return Finite(fitz_finite(s.op.graph, pt))
    value, crossings = _sampled_sup(s.op, pt, s.graph, s.tol)
    crossings = _ray_crossings(s, pt) + crossings
    if crossings:
        return InfiniteSuspected(*_lex_first_witness(crossings))
    return Finite(value)


# ---------------------------------------------------------------------------
# Domain projection scan
# ---------------------------------------------------------------------------

def fitz_domain_projection(sample: Sample, xgrid: Grid) -> DomainScan:
    """Grid nodes x admitting some probe x* with a Finite fitz value.

    Linear operators use the closed form with the consistency probe
    x* = Mx + c (always in range, so every node is a member). Sampled
    operators probe duals of nearby sampled pairs plus fiber points at the
    nearest sampled domain point a0; a positively-aligned exact ray there is
    divergence evidence for every probe and excludes the node. The rays at a0
    need no second pass per probe: a node that survives has
    (x - a0) . r <= eq_tol for every exact ray r, and riding such a ray never
    crosses the threshold. So x is a member when some probe's sampled and
    resolvent terms stay below it. The fibers come from the sample's table.
    """
    op, tol = sample.op, sample.tol
    if isinstance(op, GraphOp):
        raise VacuousForFiniteGraphError(
            "finite graphs have F finite everywhere; the scan is vacuous"
        )
    nodes = xgrid.nodes()
    if isinstance(op, LinearOp):
        ms = 0.5 * (op.M + op.M.T)
        vals, vecs = np.linalg.eigh(ms)
        keep = vals > tol.rank_tol
        S = nodes @ (op.M + op.M.T).T  # s = M'x + (Mx + c) - c, per node
        coeffs = S @ vecs
        resid = S - coeffs[:, keep] @ vecs[:, keep].T
        ok = np.linalg.norm(resid, axis=1) <= tol.rank_tol * np.maximum(
            1.0, np.linalg.norm(S, axis=1)
        )
        members = nodes[ok]
        return DomainScan(xgrid, members, "linear_consistency")

    g, dom = sample.graph, sample.domain
    members = []
    probe_radius = 2.0 * sample.wgrid.spacing
    for x in nodes:
        d = np.linalg.norm(dom - x, axis=1)
        near = np.flatnonzero(d <= d.min() + 1e-13)
        i0 = int(near[lexsort_rows(dom[near])[0]])
        a0, f0 = dom[i0], sample.fibers[i0]
        if f0.is_empty:
            continue
        if f0.exact and len(f0.rays) and np.any((x - a0) @ f0.rays.T > tol.eq_tol):
            continue  # every probe diverges along this ray
        close = np.linalg.norm(g.primals - x, axis=1) <= probe_radius
        probes = [row for row in g.duals[close][:8]] + [row for row in f0.points[:8]]
        if any(not _sampled_sup(op, pair(x, probe), g, tol)[1] for probe in probes):
            members.append(x)
    members_arr = np.array(members) if members else np.zeros((0, xgrid.dim))
    return DomainScan(xgrid, members_arr, "sampled_threshold")


# ---------------------------------------------------------------------------
# Inequality and shift-identity checks
# ---------------------------------------------------------------------------

def _nn_spacing_estimate(g: FiniteGraph) -> float:
    xs = np.sort(g.primals[:, 0])
    gaps = np.diff(xs)
    gaps = gaps[gaps > 1e-13]
    return float(np.median(gaps)) if len(gaps) else 0.0


def fitz_inequality_check(
    op: OperatorSpec,
    sample_pts: list[PairPoint],
    graph_pts: FiniteGraph,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Certificate:
    """F >= <x,x*> - eq_tol on probe points, and F = <x,x*> within a
    spacing-scaled slack on sampled graph points. The documented failure mode
    is a non-maximal graph, where a monotonically-related gap point has F
    strictly below the pairing. Without probe points only the graph-point
    equality is checked."""
    name = "fitz_inequality"
    lip = 1.0 + float(np.linalg.norm(graph_pts.duals, axis=1).max())
    slack = max(2.0 * _nn_spacing_estimate(graph_pts) * lip, 1e-9)
    worst_gap = -np.inf
    worst_pt: Optional[PairPoint] = None
    for p in sample_pts:
        gap = p.pairing() - _sampled_sup(op, p, graph_pts, tol)[0]
        if gap > worst_gap:
            worst_gap, worst_pt = gap, p
    # graph-point equality: F - pairing = -min pairwise product, vectorized
    worst_eq = 0.0
    for _, prods in pairwise_product_blocks(
        graph_pts.primals, graph_pts.duals, graph_pts.self_products, graph_pts
    ):
        worst_eq = max(worst_eq, float(np.abs(prods.min(axis=1)).max()))
    witnesses = [
        ("worst_graph_equality_residual", worst_eq),
        ("graph_equality_slack", float(slack)),
        ("n_samples", float(len(sample_pts))),
    ]
    if worst_pt is not None:
        witnesses.insert(0, ("worst_gap", float(worst_gap)))
        witnesses.append(("worst_point", worst_pt))
    if worst_gap > tol.eq_tol:
        witnesses.insert(0, ("gap", float(worst_gap)))
        return failed(
            name,
            f"pairing exceeds F by {worst_gap:.3e} at a probe point "
            "(maximality hypothesis violated)",
            witnesses,
        )
    if worst_eq > slack:
        return failed(
            name,
            f"graph-point equality residual {worst_eq:.3e} exceeds slack {slack:.3e}",
            witnesses,
        )
    return passed(
        name,
        "F dominates the pairing on all probes and matches it on sampled graph points",
        witnesses,
    )


def shift_identity_check(
    g: FiniteGraph, z: Vector, zstar: Vector, tol: ToleranceConfig = DEFAULT_TOL
) -> Certificate:
    """F_B(z, 0) = <z, -z*> + F_A(z, z*) for gra B = gra A - {(0, z*)}.

    Exact term-by-term algebra; both sides are finite-graph enumerations."""
    name = "shift_identity"
    z = as_vector(z, dim=g.dim)
    zstar = as_vector(zstar, dim=g.dim)
    lhs = fitz_finite(shift_graph(g, zstar), pair(z, np.zeros(g.dim)))
    rhs = -float(np.dot(z, zstar)) + fitz_finite(g, pair(z, zstar))
    diff = abs(lhs - rhs)
    witnesses = [("abs_difference", diff), ("lhs", lhs), ("rhs", rhs)]
    if diff <= tol.eq_tol:
        return passed(name, "shifted and direct evaluations agree", witnesses)
    return failed(name, f"shift identity violated by {diff:.3e}", witnesses)
