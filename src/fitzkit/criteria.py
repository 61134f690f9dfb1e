"""Near-convexity criteria as executable checks.

Each check packages its verdict with the numeric witnesses (points,
quotients, separation data) that justify it. "Unbounded" is always a
schedule claim (monotone growth plus a final threshold crossing), never a
symbolic one. Witness search order is deterministic: domain points whose
fibers carry exact rays first (rays scaled analytically to the needed
magnitude), then point-valued fibers, then one round of wider/finer
resampling; ties break lexicographically.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .certificates import Certificate, QuotientTrace, Verdict, failed, not_applicable, passed
from .errors import NotSeparableError, ValidationError, ZOnDomainError
from .fitzpatrick import _blocks, fitz_at, fitz_domain_projection, fitz_rows, is_finite
from .operators import (
    DualityMapOp,
    FiniteGraph,
    GraphOp,
    OperatorSpec,
    Sample,
    _resolvent_rows,
    _subdiff_rows,
    affine_form,
    maximality_probe,
    membership_batch,
    perturb,
)
from .vecspace import (
    DEFAULT_TOL,
    Grid,
    PairPoint,
    ToleranceConfig,
    Vector,
    as_vector,
    dist_to_polytope,
    hausdorff,
    lexsort_rows,
    pair,
    rowwise_dot,
    separate,
)

_MARGIN_FACTOR = 1.001


def _default_wgrid(op: OperatorSpec, xgrid: Grid) -> Grid:
    """Sampling grid wide enough that Minty points cover the scan box.

    For an affine operator x -> Mx + c (operators.affine_form: a linear map,
    or one shifted or p = 2-perturbed) the needed base-point range
    w = (I+M)x + c over the box is exact (corner images); otherwise a
    2x-radius heuristic suffices for the desk-scale zoo (resolvents are
    nonexpansive and anchored near the origin)."""
    n, lin = xgrid.dim, affine_form(op)
    if lin is not None:
        import itertools

        corners = np.array(list(itertools.product(*zip(xgrid.lower, xgrid.upper))))
        images = corners @ (np.eye(n) + lin.M).T + lin.c
        lo = images.min(axis=0) - xgrid.spacing
        hi = images.max(axis=0) + xgrid.spacing
        return Grid(lo, hi, xgrid.spacing * 2.0, cap=xgrid.cap)
    r = float(max(np.abs(xgrid.lower).max(), np.abs(xgrid.upper).max()))
    half = 2.0 * max(r, 1.0)
    return Grid(-half * np.ones(n), half * np.ones(n), xgrid.spacing * 2.0, cap=xgrid.cap)


def _search_value_witness(
    op: OperatorSpec,
    candidates,
    z: Vector,
    needed: Callable[[Vector], float],
    tol: ToleranceConfig,
) -> Optional[tuple[Vector, Vector, float]]:
    """First (a, a*, <z-a, a*>) over Sample.candidates with <z-a, a*> strictly
    above needed(a); exact rays are scaled analytically to reach the target."""
    for a, f in candidates:
        d = z - a
        target = needed(a)
        goal = target * _MARGIN_FACTOR + 10.0 * tol.eq_tol
        vals = f.points @ d
        order = lexsort_rows(f.points)
        best_i = max(order.tolist(), key=lambda i: (vals[i],))
        best_val = float(vals[best_i])
        astar = None
        if best_val > goal:
            astar = f.points[best_i]
        elif f.exact and len(f.rays):
            slopes = f.rays @ d
            ray_order = lexsort_rows(f.rays)
            bi = max(ray_order.tolist(), key=lambda i: (slopes[i],))
            if slopes[bi] > tol.eq_tol:
                t = (goal - best_val) / float(slopes[bi])
                astar = f.points[best_i] + max(t, 0.0) * f.rays[bi]
        if astar is None:
            continue
        val = float(np.dot(d, astar))
        if val <= target:
            continue
        if not membership_batch(op, a[None, :], astar[None, :], tol)[0]:
            continue
        return a, astar, val
    return None


# ---------------------------------------------------------------------------
# sup quotient
# ---------------------------------------------------------------------------

def sup_quotient(
    sample: Sample, z: Vector, allow_z_in_domain: bool = False
) -> tuple[float, QuotientTrace]:
    """Estimate sup <z-a, a*> / ||z-a|| over the sampled graph and fiber rays.

    A positively-aligned exact ray certifies divergence: the estimate is the
    quotient at an analytic threshold crossing. Full-domain operators can
    waive the off-domain precondition with allow_z_in_domain.
    """
    g, tol = sample.graph, sample.tol
    z = as_vector(z, dim=g.dim)
    dists = np.linalg.norm(g.primals - z, axis=1)
    near = dists <= tol.eq_tol
    if np.any(near) and not allow_z_in_domain:
        raise ZOnDomainError("a sampled domain point coincides with z")
    keep = ~near
    if not np.any(keep):
        raise ZOnDomainError("no sampled domain point is separated from z")
    diffs = z - g.primals[keep]
    quots = np.einsum("ij,ij->i", diffs, g.duals[keep]) / dists[keep]
    # the running maximum over the sample, one entry per strict rise
    rises = np.flatnonzero(quots > np.r_[-np.inf, np.maximum.accumulate(quots)[:-1]])
    kept = np.flatnonzero(keep)
    entries = [
        (float(ordinal), float(quots[r]), g.pair(kept[r]))
        for ordinal, r in enumerate(rises, start=1)
    ]
    estimate = entries[-1][1]

    # ray divergence: quotient grows along any positively-aligned exact ray
    target_q = tol.inf_threshold * _MARGIN_FACTOR
    candidates = [
        (a, f) for a, f in sample.candidates if np.linalg.norm(a - z, axis=-1) > tol.eq_tol
    ]
    found = _search_value_witness(
        sample.op, candidates, z, lambda a: target_q * float(np.linalg.norm(z - a)), tol
    )
    if found is not None:
        a, astar, val = found
        q = val / float(np.linalg.norm(z - a))
        if q > estimate:
            entries.append((float(len(entries) + 1), q, pair(a, astar)))
            estimate = q
    return float(estimate), QuotientTrace(tuple(entries))


# ---------------------------------------------------------------------------
# near convexity / conv-domain criteria
# ---------------------------------------------------------------------------

def _quotient_schedule_run(sample: Sample, z: Vector, p: float, lambda_schedule):
    """Shared witness loop: for each lambda find (a, a* + lam*b*) violating
    monotone relatedness of (z, 0) to the perturbed graph, with the duality
    selection b* in J_p(a - z) enforced by fiber membership."""
    entries, extra_witnesses, missing = [], [], []
    schedule = sorted(float(lam) for lam in lambda_schedule)
    if any(lam <= 0 for lam in schedule):
        raise ValidationError("lambda schedule must be positive")
    op, tol = sample.op, sample.tol
    candidates = sample.candidates
    jp = DualityMapOp(p, z)
    # one widening/refining retry for sampled operators, on a fresh sample
    # whose candidates serve every later lambda
    widened = sample.wgrid is None
    for lam in schedule:
        def needed(a, lam=lam):
            return lam * float(np.linalg.norm(a - z)) ** p

        found = _search_value_witness(op, candidates, z, needed, tol)
        if found is None and not widened:
            widened = True
            try:
                candidates = Sample.over(op, sample.wgrid.scaled(2.0, 1.0), tol).candidates
                found = _search_value_witness(op, candidates, z, needed, tol)
            except ValidationError:
                found = None
        if found is None:
            missing.append(lam)
            continue
        a, astar, val = found
        bstar = _subdiff_rows(jp._fun, a[None, :], tol)[1][0]  # J_p(a - z)
        total = astar + lam * bstar
        violation = float(np.dot(z - a, total))
        if not (
            membership_batch(jp, a[None, :], bstar[None, :], tol)[0]
            and violation > tol.eq_tol
            and membership_batch(perturb(op, lam, p, z), a[None, :], total[None, :], tol)[0]
        ):
            missing.append(lam)
            continue
        quotient = val / float(np.linalg.norm(z - a))
        entries.append((lam, quotient, pair(a, astar)))
        extra_witnesses.append((f"violation_lambda_{lam:g}", violation))
    witnesses = [
        w for lam, q, pt in entries
        for w in ((f"quotient_lambda_{lam:g}", q), (f"witness_lambda_{lam:g}", pt))
    ]
    return entries, witnesses + extra_witnesses, missing


def _schedule_verdict(name, entries, missing, scale, witnesses, tol, bound_text, pass_text):
    """Pass when every lambda has a witness whose quotient exceeds
    lambda * scale and the quotients trend unbounded (strictly increasing,
    or past sqrt(inf_threshold) at the end)."""
    if missing:
        witnesses.insert(0, ("first_missing_lambda", float(missing[0])))
        return failed(name, f"no violation witness found for lambda={missing[0]:g}", witnesses)
    bound_fail = [(lam, q) for lam, q, _ in entries if q <= lam * scale - tol.eq_tol]
    if bound_fail:
        lam, q = bound_fail[0]
        witnesses.insert(0, ("failing_quotient", q))
        return failed(name, f"quotient {q:.6g} at lambda={lam:g} {bound_text}", witnesses)
    values = [q for _, q, _ in entries]
    unbounded = values[-1] >= np.sqrt(tol.inf_threshold)
    if not (unbounded or all(b > a for a, b in zip(values, values[1:]))):
        witnesses.insert(0, ("final_quotient", values[-1]))
        return failed(name, "quotient schedule is not unbounded-trending", witnesses)
    return passed(name, pass_text, witnesses)


def near_convexity_certificate(
    sample: Sample,
    z: Vector,
    p: float,
    lambda_schedule,
    strict: bool = False,
    probe_grid: Grid | None = None,
) -> Certificate:
    """For z off the sampled domain, certify that (z, 0) fails monotone
    relatedness to the perturbed graph at every scheduled lambda, with each
    quotient <z-a, a*>/||z-a|| exceeding lambda * alpha^(p-1).

    Pass additionally requires the quotient schedule to be unbounded-trending
    (strictly increasing, or final value past sqrt(inf_threshold)); the claim
    is budget-relative to the sampling grid."""
    name = "near_convexity"
    g, tol = sample.graph, sample.tol
    z = as_vector(z, dim=g.dim)
    alpha = float(np.linalg.norm(sample.domain - z, axis=1).min())
    if alpha <= tol.eq_tol:
        return not_applicable(
            name,
            "z lies within eq_tol of the sampled domain",
            [("domain_distance", alpha)],
        )
    entries, schedule_witnesses, missing = _quotient_schedule_run(sample, z, p, lambda_schedule)
    witnesses = [("alpha", alpha), ("p", float(p))] + schedule_witnesses
    if strict:
        if probe_grid is None:
            raise ValidationError("strict mode needs a probe grid")
        lam0 = min(float(lam) for lam in lambda_schedule)
        # lam0 J_p(a - z), single-valued: |a - z| >= alpha > eq_tol
        perturbed = perturb(sample.op, lam0, p, z)
        lam_bstar = _subdiff_rows(perturbed._jp, g.primals, tol)[1]
        surrogate = FiniteGraph.from_arrays(g.primals, g.duals + lam_bstar)
        evidence, _ = maximality_probe(Sample(perturbed, surrogate, tol), probe_grid)
        witnesses.append(("maximality_evidence_count", float(len(evidence))))
    return _schedule_verdict(
        name, entries, missing, alpha ** (p - 1.0), witnesses, tol,
        "does not exceed lambda*alpha^(p-1)",
        "every scheduled lambda yields a non-relatedness witness with quotient "
        "above lambda*alpha^(p-1) (budget-relative)",
    )


def conv_domain_certificate(
    sample: Sample, z: Vector, p: float, lambda_schedule
) -> Certificate:
    """Hull-gated variant: z must clear the convex hull of the sampled domain.

    Also verifies the finite-value bound chain on probe duals: any probe
    (z, z*) with a finite sampled fitz value must satisfy
    sup <z-a,a*>/||z-a|| <= ||z*|| - r_emp over the same sample."""
    name = "conv_domain"
    g, tol = sample.graph, sample.tol
    z = as_vector(z, dim=g.dim)
    hull_dist, _ = dist_to_polytope(z, sample.hull)
    if hull_dist <= tol.eq_tol:
        return not_applicable(
            name,
            "z lies within eq_tol of the sampled domain hull",
            [("hull_distance", hull_dist)],
        )
    entries, schedule_witnesses, missing = _quotient_schedule_run(sample, z, p, lambda_schedule)
    witnesses = [("hull_distance", hull_dist), ("p", float(p))] + schedule_witnesses

    # bound chain on finite probes
    diffs = z - g.primals
    dists = np.linalg.norm(diffs, axis=1)
    sup_pairs = float((np.einsum("ij,ij->i", diffs, g.duals) / dists).max())
    order = np.argsort(dists, kind="stable")
    probes = np.vstack([np.zeros(g.dim), g.duals[order[:3]]])
    _, crossings = fitz_rows(sample, np.broadcast_to(z, probes.shape), probes)
    witnesses.append(("sup_quotient_sampled", sup_pairs))
    finite = [zs for zs, crossing in zip(probes, crossings) if crossing is None]
    r_emps = [float((np.einsum("ij,ij->i", diffs, zs - g.duals) / dists).min()) for zs in finite]
    for i, (zs, r_emp) in enumerate(zip(finite, r_emps)):
        bound = float(np.linalg.norm(zs)) - r_emp + tol.eq_tol
        witnesses += [(f"probe_{i}_zstar", zs), (f"probe_{i}_r_emp", r_emp)]
        if sup_pairs > bound:
            witnesses.insert(0, ("bound_violation", sup_pairs - bound))
            return failed(
                name,
                "finite-probe bound chain violated (sup quotient exceeds ||z*|| - r)",
                witnesses,
            )
    if r_emps:
        witnesses.append(("r_emp", max(r_emps)))
    witnesses.append(("finite_probe_count", float(len(finite))))
    return _schedule_verdict(
        name, entries, missing, hull_dist ** (p - 1.0), witnesses, tol,
        "does not clear the hull-distance bound",
        "hull-gated witnesses found at every lambda; finite-probe bound chain holds",
    )


# ---------------------------------------------------------------------------
# lower-bound and (BR) checks
# ---------------------------------------------------------------------------

def simons_lower_bound_check(sample: Sample, zpair: PairPoint) -> Certificate:
    """Empirical lower bound r_emp = min <z-a, z*-a*>/||z-a|| over the graph,
    requiring a finite fitz value at zpair and inf ||z-a|| > 0.

    For sampled operators the bound must be stable under halving the grid
    spacing (relative change at most 10%); finite graphs are exact."""
    name = "simons_lower_bound"
    g, tol, wgrid = sample.graph, sample.tol, sample.wgrid
    sampled = not isinstance(sample.op, GraphOp)
    if sampled:
        fv = fitz_at(sample, zpair)
        if not is_finite(fv):
            return not_applicable(
                name,
                "fitz value at zpair is infinite-suspected",
                [("crossed_threshold", fv.crossed_threshold), ("witness", fv.witness)],
            )
    z, zs = zpair.primal, zpair.dual
    dists = np.linalg.norm(g.primals - z, axis=1)
    inf_f = float(dists.min())
    if inf_f <= tol.eq_tol:
        return not_applicable(
            name, "inf ||z-a|| is not bounded away from zero", [("inf_f", inf_f)]
        )
    r_vals = np.einsum("ij,ij->i", z - g.primals, zs - g.duals) / dists
    r_emp = float(r_vals.min())
    witnesses = [("r_emp", r_emp), ("inf_f", inf_f)]
    if sampled:
        try:
            refined = Grid(wgrid.lower, wgrid.upper, wgrid.spacing / 2.0, cap=wgrid.cap)
            g2 = Sample.over(sample.op, refined, tol).graph
            d2 = np.linalg.norm(g2.primals - z, axis=1)
            mask = d2 > tol.eq_tol
            r2 = float(
                (np.einsum("ij,ij->i", z - g2.primals[mask], zs - g2.duals[mask]) / d2[mask]).min()
            )
            change = abs(r_emp - r2) / max(1.0, abs(r_emp))
            witnesses.append(("refined_r_emp", r2))
            witnesses.append(("relative_change", change))
            if change > 0.10:
                return failed(
                    name,
                    f"lower bound unstable under refinement (change {change:.2%})",
                    witnesses,
                )
        except ValidationError:
            witnesses.append(("stability_skipped_budget", 1.0))
    return passed(name, "finite stable lower bound r_emp recorded", witnesses)


def _br_rows(sample: Sample, X: np.ndarray, S: np.ndarray, A: np.ndarray, B: np.ndarray):
    """br_check on each row (x, x*) of (X, S) with (alpha, beta) = (A[i], B[i]):
    each row's Verdict, and a function giving row i's certificate. The sample
    pairs are read a row block at a time, with a one-row call's sums; then each
    resolvent step is one batch, where a point with no closed form is no candidate."""
    g, tol, n = sample.graph, sample.tol, X.shape[1]
    inf_prod, score, P, D = np.empty(len(X)), np.empty(len(X)), np.empty_like(X), np.empty_like(X)
    for blk in _blocks(len(X), len(g)):
        dX, dS = X[blk, None] - g.primals, S[blk, None] - g.duals
        products = np.einsum("ij,ij->i", dX.reshape(-1, n), dS.reshape(-1, n))
        inf_prod[blk] = products.reshape(len(dX), -1).min(axis=1)
        scores = np.maximum(np.linalg.norm(dX, axis=2) / A[blk, None],
                            np.linalg.norm(dS, axis=2) / B[blk, None])
        i = scores.argmin(axis=1)  # first on ties
        score[blk], P[blk], D[blk] = scores[np.arange(len(i)), i], g.primals[i], g.duals[i]
    for lam in () if isinstance(sample.op, GraphOp) else (A / B, 1.0):
        W = X + np.reshape(lam, (-1, 1)) * S
        R = _resolvent_rows(sample.op, W, tol, lam)
        Rd, ok = (W - R) / np.reshape(lam, (-1, 1)), ~np.isnan(R).any(axis=1)
        inf_prod = np.minimum(inf_prod, np.where(ok, rowwise_dot(X - R, S - Rd), np.inf))
        r_score = np.maximum(np.linalg.norm(X - R, axis=1) / A, np.linalg.norm(S - Rd, axis=1) / B)
        take = ok & (r_score < score)
        score, P[take], D[take] = np.where(take, r_score, score), R[take], Rd[take]
    p_dist, d_dist = np.sqrt(rowwise_dot(X - P, X - P)), np.sqrt(rowwise_dot(S - D, S - D))
    verdicts = [Verdict.NOT_APPLICABLE if inactive else Verdict.PASS if near else Verdict.FAIL
                for inactive, near in zip(inf_prod <= -A * B + tol.eq_tol, (p_dist < A) & (d_dist < B))]

    def certificate(i: int) -> Certificate:
        alpha, beta, p, d = float(A[i]), float(B[i]), float(p_dist[i]), float(d_dist[i])
        witnesses = [("inf_product", float(inf_prod[i])), ("alpha", alpha), ("beta", beta)]
        if verdicts[i] is Verdict.NOT_APPLICABLE:
            why = "hypothesis fails: inf <x-a, x*-a*> does not exceed -alpha*beta"
            return not_applicable("br", why, witnesses)
        best = PairPoint(P[i], D[i])
        if verdicts[i] is Verdict.PASS:
            return passed("br", "approximate graph point found within (alpha, beta)",
                          [("witness_pair", best), *witnesses, ("primal_distance", p), ("dual_distance", d)])
        return failed("br", "no graph point within (alpha, beta) of the reference pair",
                      [("best_near_miss", best), *witnesses, ("near_miss_score", max(p / alpha, d / beta))])

    return verdicts, certificate


def br_check(sample: Sample, xpair: PairPoint, alpha: float, beta: float) -> Certificate:
    """Approximate-graph-point check: when inf <x-a, x*-a*> > -alpha*beta, a
    graph point within (alpha, beta) of (x, x*) must exist; alpha, beta > 0
    with a positive finite ratio alpha/beta. The candidate nearest in the
    (alpha, beta)-scaled max distance, first on ties, is sought over the
    sampled graph, then the resolvent points at step alpha/beta (a true graph
    point realizing the bound) and at step 1: the one-row case of _br_rows."""
    if not (alpha > 0 and beta > 0 and 0 < alpha / beta < np.inf):
        raise ValidationError("br check needs alpha, beta > 0 with a positive finite ratio alpha/beta")
    A, B = np.array([alpha], dtype=float), np.array([beta], dtype=float)
    _, certificate = _br_rows(sample, xpair.primal[None], xpair.dual[None], A, B)
    return certificate(0)


# ---------------------------------------------------------------------------
# blow-up witness sequence
# ---------------------------------------------------------------------------

def blowup_witness_sequence(
    sample: Sample, z: Vector, n_schedule
) -> tuple[QuotientTrace, Certificate]:
    """Separation-driven divergence: with (y0*, delta) separating z from the
    sampled-domain hull, each n must admit a graph point (b_n, b_n*) whose
    product <z-b_n, b_n*> exceeds n * <z-b_n, y0*> (hence n*delta)."""
    name = "blowup_witness"
    tol, hull = sample.tol, sample.hull
    z = as_vector(z, dim=sample.graph.dim)
    try:
        y0, delta = separate(z, hull, tol)
    except NotSeparableError:
        hull_dist = dist_to_polytope(z, hull)[0]
        return (
            QuotientTrace(()),
            not_applicable(
                name,
                "z is not separable from the sampled-domain hull",
                [("hull_distance", hull_dist)],
            ),
        )
    entries = []
    witnesses = [("delta", float(delta)), ("y0star", y0)]
    missing = []
    for n in sorted(float(v) for v in n_schedule):
        if n <= 0:
            raise ValidationError("n schedule must be positive")

        def needed(b, n=n):
            return n * float(np.dot(z - b, y0))

        found = _search_value_witness(sample.op, sample.candidates, z, needed, tol)
        if found is None:
            missing.append(n)
            continue
        b, bstar, val = found
        # non-relatedness to (z, n*y0): <z-b, n*y0 - b*> < 0 by construction
        assert val > n * float(np.dot(z - b, y0))
        if val <= n * delta - tol.eq_tol:
            missing.append(n)
            continue
        w = pair(b, bstar)
        entries.append((n, val, w))
        witnesses.append((f"product_n_{n:g}", val))
        witnesses.append((f"witness_n_{n:g}", w))
    trace = QuotientTrace(tuple(entries))
    if missing:
        witnesses.insert(0, ("first_missing_n", float(missing[0])))
        return trace, failed(
            name, f"no blow-up witness found for n={missing[0]:g}", witnesses
        )
    return trace, passed(
        name,
        "every scheduled n admits a witness with product above n*delta",
        witnesses,
    )


# ---------------------------------------------------------------------------
# domain-projection equality experiment
# ---------------------------------------------------------------------------

def theorem36_experiment(
    op: OperatorSpec,
    xgrid: Grid,
    tol: ToleranceConfig = DEFAULT_TOL,
    wgrid: Grid | None = None,
) -> tuple[float, Certificate]:
    """Compare the projected fitz domain against the sampled-domain hull on a
    grid; pass when the Hausdorff distance is within twice the grid spacing."""
    name = "theorem36"
    if wgrid is None:
        wgrid = _default_wgrid(op, xgrid)
    sample = Sample.over(op, wgrid, tol)
    scan = fitz_domain_projection(sample, xgrid)
    nodes = xgrid.nodes()
    hull_nodes = nodes[sample.hull.contains_batch(nodes, tol.eq_tol)]
    witnesses = [
        ("grid_spacing", xgrid.spacing),
        ("member_count", float(len(scan.member_points))),
        ("hull_node_count", float(len(hull_nodes))),
    ]
    if len(scan.member_points) == 0 or len(hull_nodes) == 0:
        return np.inf, failed(
            name, "domain does not intersect the grid box", witnesses
        )
    dist = hausdorff(scan.member_points, hull_nodes)
    witnesses.insert(0, ("hausdorff_distance", dist))
    limit = 2.0 * xgrid.spacing + tol.eq_tol
    if dist <= limit:
        return dist, passed(
            name,
            "projected fitz domain matches the sampled-domain hull within "
            "twice the grid spacing",
            witnesses,
        )
    return dist, failed(
        name,
        f"hausdorff distance {dist:.3e} exceeds twice the grid spacing",
        witnesses,
    )
