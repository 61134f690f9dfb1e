"""Fitzpatrick function evaluation by three routes: finite-graph enumeration,
the linear closed form, and fitz_rows, the sampled kernel for a batch of
points (fitz_at is its one-row case and the conv-domain probes make one call;
the domain-projection scan runs only its crossings half, the inequality check
only its values half). The Sample builds what the kernel needs of it alone,
its pair order and exact-ray table, once, so a warm probe does only per-row work.

"Infinite" is always operationalized as a threshold crossing with a recorded
graph-point witness; sampled suprema certify lower bounds only, so a Finite
verdict is a budget-relative claim. Points are (k, n) arrays X and S inside;
a PairPoint is a witness, or the argument of a one-point entry such as fitz_at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .certificates import Certificate, failed, passed
from .errors import ValidationError, VacuousForFiniteGraphError
from .operators import (
    FiniteGraph,
    GraphOp,
    OperatorSpec,
    Sample,
    _resolvent_rows,
    affine_form,
    pairwise_product_blocks,
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
    rounding_margin,
    rowwise_dot,
    rowwise_matmul,
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


def _affine_terms(g: FiniteGraph, X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """<x, a*> + <a, x*> - <a, a*> for every row (x, x*) of (X, S) and graph
    pair (a, a*), summed in a fixed order: a row's terms are those it has alone."""
    if X.shape[1] != g.dim:
        raise ValidationError("point dimension does not match the graph")
    T = rowwise_matmul(X, g.duals.T)
    T += rowwise_matmul(S, g.primals.T)
    T -= g.self_products
    return T


def fitz_finite(g: FiniteGraph, pt: PairPoint) -> float:
    """Exact maximum of the finitely many affine terms; always finite."""
    return float(_affine_terms(g, pt.primal[None, :], pt.dual[None, :]).max())


# ---------------------------------------------------------------------------
# Linear closed form
# ---------------------------------------------------------------------------

def fitz_linear(
    M: np.ndarray, c: Vector, pt: PairPoint, tol: ToleranceConfig = DEFAULT_TOL
) -> FitzValue:
    """Closed form for A = M . + c (Bauschke, McLaren & Sendov 2006): with Ms
    the symmetric part and s = M'x + x* - c, the value is
    <x,c> + (1/4) <s, Ms^+ s> when s lies in range(Ms), and the supremum
    diverges otherwise.

    Ms^+ drops eigenvalues at or below rank_tol, and s is in range when its
    residual off the kept eigenvectors is within rank_tol, relative. An
    in-range value above inf_threshold is a crossing like any other term:
    its witness is the maximiser (a0, M a0 + c), a0 = Ms^+ s / 2. Otherwise
    the terms along a = a0 + t u, with u the unit residual (orthogonal to
    a0), are a quadratic in t. Its first point at the crossing target is the
    witness; when its maximum stays at or below inf_threshold, the term
    there is a Finite lower bound, exact when one eigenvector of Ms carries
    the residual. Either witness reports the term recomputed at it, and is a
    crossing only when that term passes inf_threshold.
    """
    M = as_matrix(M)
    c = as_vector(c, dim=M.shape[0])
    x, xs = as_vector(pt.primal, dim=M.shape[0]), as_vector(pt.dual, dim=M.shape[0])
    ms = 0.5 * (M + M.T)
    s = M.T @ x + xs - c
    vals, vecs = np.linalg.eigh(ms)
    keep = vals > tol.rank_tol
    coeffs = vecs.T @ s
    resid_vec = s - vecs[:, keep] @ coeffs[keep]
    rho = float(np.linalg.norm(resid_vec))
    top = float(np.dot(x, c)) + 0.25 * float(np.sum(coeffs[keep] ** 2 / vals[keep]))
    in_range = rho <= tol.rank_tol * max(1.0, float(np.linalg.norm(s)))
    if in_range and top <= tol.inf_threshold:
        return Finite(top)
    a = vecs[:, keep] @ (0.5 * coeffs[keep] / vals[keep])  # a0, whose term is top
    if not in_range:  # the term at a0 + t u is top + t rho - t^2 curv
        u = resid_vec / rho
        curv = float(u @ ms @ u)
        gap = tol.inf_threshold * _CROSS_FACTOR - top
        disc = rho * rho - 4.0 * curv * gap
        if curv <= 0.0:
            t = gap / rho
        elif disc >= 0.0:
            t = (rho - np.sqrt(disc)) / (2.0 * curv)
        else:  # the maximum, below the target
            t = rho / (2.0 * curv)
        a = a + t * u
    astar = M @ a + c
    term = float(np.dot(x, astar) + np.dot(a, xs) - np.dot(a, astar))
    return InfiniteSuspected(term, PairPoint(a, astar)) if term > tol.inf_threshold else Finite(term)


# ---------------------------------------------------------------------------
# Sampled kernel
# ---------------------------------------------------------------------------

def _blocks(rows: int, width: int):
    """Slices of max(1, 2^16 / width) rows: a (rows, width) table summed a block
    at a time holds at most 2^16 entries (or one row), stays in cache and far
    below a monotone-gate block, and a narrow table is one block, not many."""
    step = max(1, 2**16 // width)
    return (slice(i, i + step) for i in range(0, rows, step))


def _distance_blocks(P: np.ndarray, Y: np.ndarray):
    """(rows, |y - p|) over row blocks of Y and all rows p of P, summed one
    coordinate at a time as np.linalg.norm sums them (n <= 4)."""
    for blk in _blocks(len(Y), len(P)):
        yield blk, np.sqrt(sum((P[:, j] - Y[blk, j, None]) ** 2 for j in range(P.shape[1])))


def _pair_table(
    s: Sample, X: np.ndarray, S: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, list]:
    """The sampled kernel's one table loop, over the given rows of (X, S):
    each row's largest affine term over the sample pairs, and the rows'
    lex-first crossing pairs (rank 0) as (rows, terms, witnesses (a, a*),
    rank). Finite-graph samples have no crossing."""
    g, tol = s.graph, s.tol
    tops, found = np.empty(len(rows)), []
    sampled = not isinstance(s.op, GraphOp)
    for blk in _blocks(len(rows), len(g)):
        at = rows[blk]
        T = _affine_terms(g, X[at], S[at])
        tops[blk] = T.max(axis=1)
        over = T > tol.inf_threshold
        hit = np.flatnonzero(over.any(axis=1) & sampled)
        if len(hit):
            j = s.pair_order[over[hit][:, s.pair_order].argmax(axis=1)]  # lex-first crossing pair
            found.append((at[hit], T[hit, j], np.hstack([g.primals[j], g.duals[j]]), np.zeros(len(hit))))
        del T, over  # before the next block is summed
    return tops, found


def _unbounded_rows(s: Sample, X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The rows of (X, S) whose sample-pair terms the a-priori bound cannot
    keep below inf_threshold; no other row has a crossing pair.

    Exactness. _affine_terms sums, for row i and pair j, the 2n + 1 terms
    x_ik a*_jk, x*_ik a_jk and -d_j (d_j = <a_j, a*_j> as stored, an exact
    input). By the a-priori dot-product bound, which holds for any order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1),
    the computed term is within gamma_{2n+1} E_ij of their exact sum, where
    E_ij, the sum of the terms' magnitudes, is at most

        B_i = sum_k |x_ik| max_j |a*_jk| + sum_k |x*_ik| max_j |a_jk| + max_j |d_j|.

    So no computed term of row i exceeds (1 + gamma_{2n+1}) B_i. The computed
    B_i, a sum of 2n + 1 nonnegative terms, is at least (1 - gamma_{2n+1}) B_i,
    and (1 + gamma_m) / (1 - gamma_m) <= 1 + 2 gamma_{m+1}. A row is cleared
    when the computed B_i plus rounding_margin (2 gamma_{2n+3} B_i plus 4n
    smallest subnormals) is below inf_threshold: the step from 2n + 2 to
    2n + 3 covers the rounding of the margin and of its sum, the subnormals
    cover underflowed products in the terms and in B_i, and rounding to
    nearest is monotone, so a computed sum below the threshold has an exact
    sum below it. A NaN or infinite bound clears nothing. Every other row
    goes to _pair_table, where its terms are those it has alone."""
    g = s.graph
    if X.shape[1] != g.dim:
        raise ValidationError("point dimension does not match the graph")
    B = np.abs(X) @ np.abs(g.duals).max(axis=0) + np.abs(S) @ np.abs(g.primals).max(axis=0)
    B += np.abs(g.self_products).max()
    return np.flatnonzero(~(B + rounding_margin(B, g.dim) < s.tol.inf_threshold))


def _resolvent_terms(s: Sample, X: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, list]:
    """Each row's term at the resolvent point of x + x* (a true graph point
    whose term dominates the pairing), -inf on finite-graph samples, and the
    crossings among them (rank 1), as _pair_table gives its own."""
    if isinstance(s.op, GraphOp) or not len(X):
        return np.full(len(X), -np.inf), []
    X0 = _resolvent_rows(s.op, X + S, s.tol)
    S0 = X + S - X0
    terms = rowwise_dot(X, S0) + rowwise_dot(X0, S) - rowwise_dot(X0, S0)
    i = np.flatnonzero(terms > s.tol.inf_threshold)
    return terms, [(i, terms[i], np.hstack([X0, S0])[i], np.ones(len(i)))]


def _lex_min(parts: list, n: int) -> tuple[np.ndarray, ...]:
    """Each row's lex-first crossing (rows, terms, W, rank) among parts: the least
    W, ties to the least rank. Lex-min is associative, so parts may be reduced early."""
    none = (np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 2 * n)), np.zeros(0))
    rows, terms, W, rank = (np.concatenate(part) for part in zip(none, *parts))
    first = np.lexsort((rank, *W.T[::-1], rows))
    first = first[np.diff(rows[first], prepend=-1) != 0]
    return rows[first], terms[first], W[first], rank[first]


def _ray_crossings(s: Sample, X: np.ndarray, S: np.ndarray) -> list:
    """fitz_rows' crossings along the rays of the Sample's exact_rays table, ranked
    by their row there, before the pairs: each block of rows reduced to its rows'
    lex-first crossings before the next, so memory is O(rows)."""
    tol, found = s.tol, []
    A, B, R, AB = s.exact_rays if len(X) else ((),) * 4
    target = tol.inf_threshold * _CROSS_FACTOR
    for blk in _blocks(len(X), len(A)) if len(A) else ():
        Xb, Sb, steps = X[blk], S[blk], []
        slope = rowwise_dot(Xb[:, None] - A, R)
        i, k = np.nonzero(slope > tol.eq_tol)  # ride ray k at row i
        ax = rowwise_dot(Sb[i], A[k])
        t = (target - (rowwise_dot(Xb[i], B[k]) + ax - AB[k])) / slope[i, k]
        for _ in range(9):  # the target point, then up to 8 doublings of t
            if not len(i):
                break
            astar = B[k] + t[:, None] * R[k]
            terms = rowwise_dot(Xb[i], astar) + ax - rowwise_dot(A[k], astar)
            over = terms > tol.inf_threshold
            W = np.hstack([A[k[over]], astar[over]])
            steps.append((i[over] + blk.start, terms[over], W, k[over] - len(A)))
            i, k, ax, t = i[~over], k[~over], ax[~over], 2.0 * t[~over]
        found += [_lex_min(steps, X.shape[1])] if steps else []
    return found


def _lex_first(
    s: Sample, X: np.ndarray, S: np.ndarray, found: list
) -> list[Optional[tuple[float, PairPoint]]]:
    """Each row's lex-first crossing among the found ones and the exact-ray
    ones: the smallest witness (a, a*), ties to the ray, then the pair, then
    the resolvent point."""
    n, crossings = X.shape[1], [None] * len(X)
    for i, t, w, _ in zip(*_lex_min(found + _ray_crossings(s, X, S), n)):
        crossings[i] = (float(t), PairPoint(w[:n], w[n:]))
    return crossings


def _row_values(s: Sample, X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """fitz_rows' values alone: one table over every row, and no fiber."""
    tops, _ = _pair_table(s, X, S, np.arange(len(X)))
    terms, _ = _resolvent_terms(s, X, S)
    return np.where(terms > tops, terms, tops)


def _row_crossings(
    s: Sample, X: np.ndarray, S: np.ndarray
) -> list[Optional[tuple[float, PairPoint]]]:
    """fitz_rows' crossings alone: only the rows _unbounded_rows keeps build
    a table."""
    _, pairs = _pair_table(s, X, S, _unbounded_rows(s, X, S))
    _, resolvent = _resolvent_terms(s, X, S)
    return _lex_first(s, X, S, pairs + resolvent)


def fitz_rows(
    s: Sample, X: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, list[Optional[tuple[float, PairPoint]]]]:
    """Lower bounds on F_A at the rows (x, x*) of the float arrays (X, S) over
    the sampled graph of A, each with its threshold crossing (term, witness).

    A row's value is the largest affine term of the sample, raised by the term
    of the resolvent point of x + x* (a true graph point whose term always
    dominates the pairing). Its crossing is the lexicographically first graph
    point whose term passes inf_threshold, or None: a point ridden along an
    exact fiber ray at a sampled domain point, a sample pair or the resolvent
    point (ties in that order). Finite-graph samples have neither. A row's
    results are those it has alone: terms are summed in a fixed order,
    pairings are one BLAS dot per row, and a row whose resolvent has no
    closed form loses only its own resolvent term.

    The kernel has two halves, each a caller may run alone: the values
    (_row_values, which builds no fiber) and the crossings (_row_crossings,
    which builds a table only for the rows _unbounded_rows cannot clear, and
    rides the rays of the Sample's exact_rays). fitz_rows runs both on one
    table and one resolvent solve; neither rebuilds what the Sample keeps.
    """
    tops, pairs = _pair_table(s, X, S, np.arange(len(X)))
    terms, resolvent = _resolvent_terms(s, X, S)
    return np.where(terms > tops, terms, tops), _lex_first(s, X, S, pairs + resolvent)


def fitz_sampled(
    op: OperatorSpec,
    pt: PairPoint,
    wgrid: Grid,
    tol: ToleranceConfig = DEFAULT_TOL,
    sample: FiniteGraph | None = None,
) -> FitzValue:
    """fitz_at over the Minty sample of op on wgrid, or over the given graph's one Sample.on."""
    s = Sample.over(op, wgrid, tol) if sample is None else Sample.on(op, sample, tol, wgrid)
    return fitz_at(s, pt)


def fitz_at(s: Sample, pt: PairPoint) -> FitzValue:
    """Lower bound on F_A(pt) over the sampled graph of A: fitz_rows at the
    one row pt, InfiniteSuspected when that row has a threshold crossing."""
    (value,), (crossing,) = fitz_rows(s, pt.primal[None, :], pt.dual[None, :])
    return Finite(float(value)) if crossing is None else InfiniteSuspected(*crossing)


# ---------------------------------------------------------------------------
# Domain projection scan
# ---------------------------------------------------------------------------

def fitz_domain_projection(sample: Sample, xgrid: Grid) -> DomainScan:
    """Grid nodes x admitting some probe x* with a Finite fitz value.

    An affine operator (operators.affine_form: a linear map, or one shifted or
    p = 2-perturbed) takes the consistency probe x* = Mx + c, where F is the
    finite pairing, so every node is a member: dom A = X is in P_X dom F_A
    (Theorem 3.6), and the scan builds no fiber and probes nothing.
    Sampled operators probe the first 8 duals of sampled pairs within two spacings
    and the first 8 points of the fiber at the nearest sampled domain point
    a0, all in one fitz_rows call. An empty fiber at a0, or a positively
    aligned exact ray there (divergence evidence for every probe), excludes
    the node before its probes are built."""
    op, tol = sample.op, sample.tol
    if isinstance(op, GraphOp):
        raise VacuousForFiniteGraphError(
            "finite graphs have F finite everywhere; the scan is vacuous"
        )
    nodes = xgrid.nodes()
    if affine_form(op) is not None:
        return DomainScan(xgrid, nodes, "linear_consistency")

    g, dom = sample.graph, sample.domain
    # a0: the domain is lex-sorted, so the first point within 1e-13 of the
    # nearest is the lex-first nearest one
    i0 = np.zeros(len(nodes), dtype=int)
    for blk, d in _distance_blocks(dom, nodes):
        i0[blk] = np.argmax(d <= d.min(axis=1, keepdims=True) + 1e-13, axis=1)
    alive = np.zeros(len(nodes), dtype=bool)
    owners, probes = [np.zeros(0, dtype=int)], [np.zeros((0, xgrid.dim))]
    for i in np.unique(i0):
        f, at = sample.fibers[i], np.flatnonzero(i0 == i)
        if f.exact and len(f.rays):  # every probe diverges along an aligned ray
            at = at[~(rowwise_dot(nodes[at, None] - dom[i], f.rays) > tol.eq_tol).any(axis=1)]
        alive[at] = not f.is_empty
        owners.append(np.repeat(at, len(f.points[:8])))
        probes.append(np.tile(f.points[:8], (len(at), 1)))
    kept = np.flatnonzero(alive)
    for blk, d in _distance_blocks(g.primals, nodes[kept]):
        close = d <= 2.0 * sample.wgrid.spacing
        r, c = np.nonzero(close & (np.cumsum(close, axis=1) <= 8))
        owners.append(kept[blk][r])
        probes.append(g.duals[c])
    owners, probes = np.concatenate(owners), np.concatenate(probes)
    crossings = _row_crossings(sample, nodes[owners], probes)
    member = np.zeros(len(nodes), dtype=bool)
    member[owners[[c is None for c in crossings]]] = True
    return DomainScan(xgrid, nodes[member], "sampled_threshold")


# ---------------------------------------------------------------------------
# Inequality and shift-identity checks
# ---------------------------------------------------------------------------

def _nn_spacing_estimate(g: FiniteGraph) -> float:
    xs = np.sort(g.primals[:, 0])
    gaps = np.diff(xs)
    gaps = gaps[gaps > 1e-13]
    return float(np.median(gaps)) if len(gaps) else 0.0


def fitz_inequality_check(sample: Sample, X: np.ndarray, S: np.ndarray) -> Certificate:
    """F >= <x,x*> - eq_tol on the probe rows (x, x*) of (X, S), and F = <x,x*>
    within a spacing-scaled slack on sampled graph points. The documented
    failure mode is a non-maximal graph, where a monotonically-related gap
    point has F strictly below the pairing. Without probe rows only the
    graph-point equality is checked."""
    name = "fitz_inequality"
    graph_pts, tol = sample.graph, sample.tol
    lip = 1.0 + float(np.linalg.norm(graph_pts.duals, axis=1).max())
    slack = max(2.0 * _nn_spacing_estimate(graph_pts) * lip, 1e-9)
    gaps = rowwise_dot(X, S) - _row_values(sample, X, S)
    worst_gap = float(gaps.max()) if len(gaps) else -np.inf
    # graph-point equality: F - pairing = -min pairwise product, vectorized
    worst_eq = 0.0
    for _, prods in pairwise_product_blocks(
        graph_pts.primals, graph_pts.duals, graph_pts.self_products, graph_pts
    ):
        worst_eq = max(worst_eq, float(np.abs(prods.min(axis=1)).max()))
    witnesses = [
        ("worst_graph_equality_residual", worst_eq),
        ("graph_equality_slack", float(slack)),
        ("n_samples", float(len(X))),
    ]
    if len(gaps):
        i = int(gaps.argmax())
        witnesses.insert(0, ("worst_gap", worst_gap))
        witnesses.append(("worst_point", PairPoint(X[i], S[i])))
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
    lhs = float(_affine_terms(shift_graph(g, zstar), z[None, :], np.zeros((1, g.dim))).max())
    rhs = -float(np.dot(z, zstar)) + float(_affine_terms(g, z[None, :], zstar[None, :]).max())
    diff = abs(lhs - rhs)
    witnesses = [("abs_difference", diff), ("lhs", lhs), ("rhs", rhs)]
    if diff <= tol.eq_tol:
        return passed(name, "shifted and direct evaluations agree", witnesses)
    return failed(name, f"shift identity violated by {diff:.3e}", witnesses)
