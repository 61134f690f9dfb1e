"""The readers of fitzkit.operators as they were before the normal form: one
recursion per reader through shifts and perturbations, each kind by its own
branch. The tests hold operators.op_dimension, cone_form, resolvent_batch,
_fiber and membership_batch to these, row by row (tests/test_operators.py,
"normal form"). Kernels that did not change (the box QP, the polytope's
facets, Fiber) are read from fitzkit."""

from __future__ import annotations

from typing import Optional

import numpy as np

from fitzkit.errors import NoClosedFormError, NotMaximalError, ValidationError
from fitzkit.operators import (
    DualityMapOp,
    Fiber,
    FunSum,
    GraphOp,
    LinearOp,
    NormPower,
    NormalConeOp,
    PerturbedOp,
    Quadratic,
    ShiftedOp,
    SubdiffOp,
    TranslatedNormPower,
    _box_qp_batch,
    _empty_fiber,
    _solve_rows,
    _support_gaps,
    unit_sphere_samples,
)
from fitzkit.vecspace import Box, Polytope, as_vector, project_onto_generated_set, rowwise_dot, rowwise_matmul


def _fun_dimension(fun) -> Optional[int]:
    if isinstance(fun, Quadratic):
        return fun.b.size
    if isinstance(fun, Box):
        return fun.dim
    if isinstance(fun, TranslatedNormPower):
        return fun.center.size
    if isinstance(fun, FunSum):
        for p in fun.parts:
            d = _fun_dimension(p)
            if d is not None:
                return d
    return None


def _radial_prox(nw: np.ndarray, c: float, p: float) -> np.ndarray:
    """Solve u + c*u^(p-1) = nw for u >= 0, elementwise (p > 1)."""
    lo = np.zeros_like(nw)
    hi = nw.copy()
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        f = mid + c * np.power(mid, p - 1.0) - nw
        too_big = f > 0
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    return 0.5 * (lo + hi)


def reference_op_dimension(op) -> Optional[int]:
    if isinstance(op, GraphOp):
        return op.graph.dim
    if isinstance(op, LinearOp):
        return op.M.shape[0]
    if isinstance(op, SubdiffOp):
        return _fun_dimension(op.fun)
    if isinstance(op, NormalConeOp):
        return op.region.dim
    if isinstance(op, DualityMapOp):
        return op.center.size
    d = reference_op_dimension(op.inner)
    if d is not None:
        return d
    return op.zstar.size if isinstance(op, ShiftedOp) else op.center.size


def _jp(op: PerturbedOp) -> TranslatedNormPower:
    return TranslatedNormPower(op.p, op.lam, op.center)


def _subdiff_of(op):
    """f with op = df: a subdifferential's function, a box cone's box, a
    duality map's |. - c|^p / p, a perturbed subdifferential's f + its term."""
    if isinstance(op, SubdiffOp):
        return op.fun
    if isinstance(op, NormalConeOp) and isinstance(op.region, Box):
        return op.region
    if isinstance(op, DualityMapOp):
        return TranslatedNormPower(op.p, 1.0, op.center)
    if isinstance(op, PerturbedOp):
        fun = _subdiff_of(op.inner)
        return None if fun is None else FunSum((fun, _jp(op)))
    return None


def _sum_exact_parts(fun: FunSum, dim: int):
    A = np.zeros((dim, dim))
    a = np.zeros(dim)
    boxes = []
    for part in fun.parts:
        if isinstance(part, Quadratic):
            A = A + part.Q
            a = a + part.b
        elif isinstance(part, NormPower) and part.p == 2.0:
            A = A + part.scale * np.eye(dim)
        elif isinstance(part, TranslatedNormPower) and part.p == 2.0:
            A = A + part.scale * np.eye(dim)
            a = a - part.scale * part.center
        elif isinstance(part, Box):
            boxes.append(part)
        else:
            return None
    if not boxes:
        return A, a, None
    lo = np.max([b.lo for b in boxes], axis=0)
    hi = np.min([b.hi for b in boxes], axis=0)
    return A, a, Box(lo, hi)


def reference_cone_form(op, n: int):
    if isinstance(op, LinearOp):
        return op.M, op.c, None
    if isinstance(op, ShiftedOp) or (isinstance(op, PerturbedOp) and op.p == 2.0):
        inner = reference_cone_form(op.inner, n)
        if inner is None:
            return None
        M, c, B = inner
        if isinstance(op, ShiftedOp):
            return M, c - op.zstar, B
        return M + op.lam * np.eye(n), c - op.lam * op.center, B
    if isinstance(op, NormalConeOp) and isinstance(op.region, Polytope):
        return np.zeros((n, n)), np.zeros(n), op.region
    fun = _subdiff_of(op)
    if fun is None:
        return None
    return _sum_exact_parts(fun if isinstance(fun, FunSum) else FunSum((fun,)), n)


def _fun_prox_batch(fun, W, step, tol):
    W = np.atleast_2d(np.asarray(W, dtype=float))
    (k, dim), s = W.shape, np.asarray(step)[..., None]
    if isinstance(fun, Quadratic):
        return _solve_rows(np.eye(dim) + s[..., None] * fun.Q, W - s * fun.b)
    if isinstance(fun, Box):
        return np.clip(W, fun.lo, fun.hi)
    if isinstance(fun, TranslatedNormPower):
        return _fun_prox_batch(NormPower(fun.p, fun.scale), W - fun.center, step, tol) + fun.center
    if isinstance(fun, NormPower):
        nw = np.linalg.norm(W, axis=1)
        c = step * fun.scale
        if fun.p == 1.0:
            u = np.maximum(0.0, nw - c)
        elif fun.p == 2.0:
            u = nw / (1.0 + c)
        else:
            u = _radial_prox(nw, c, fun.p)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(nw > 0, u / np.where(nw > 0, nw, 1.0), 0.0)
        return W * scale[:, None]
    exact = _sum_exact_parts(fun, dim)
    if exact is not None:
        A, a, box = exact
        H, G = np.eye(dim) + s[..., None] * A, W - s * a
        return _solve_rows(H, G) if box is None else _box_qp_batch(H, G, box.lo, box.hi)
    rows = [_dykstra_prox(fun, w, si, tol) for w, si in zip(W, np.broadcast_to(step, k))]
    return np.array(rows, dtype=float).reshape(W.shape)


def _dykstra_prox(fun: FunSum, w, step, tol):
    parts = fun.parts
    x = np.asarray(w, dtype=float).copy()
    corr = [np.zeros_like(x) for _ in parts]
    inner_tol = 1e-12 * max(1.0, float(np.linalg.norm(w)))
    cycles = max(10, tol.budget // max(1, len(parts)))
    converged = False
    for _ in range(min(cycles, 20_000)):
        x_prev = x.copy()
        corr_prev = [c.copy() for c in corr]
        for i, part in enumerate(parts):
            y = _fun_prox_batch(part, (x + corr[i])[None, :], step, tol)[0]
            corr[i] = x + corr[i] - y
            x = y
        change = float(np.linalg.norm(x - x_prev)) + sum(
            float(np.linalg.norm(c - cp)) for c, cp in zip(corr, corr_prev)
        )
        if change <= inner_tol:
            converged = True
            break
    if not converged:
        raise NoClosedFormError("composite prox did not converge within budget")
    resid = _subdiff_residuals(fun, x[None, :], ((np.asarray(w) - x) / step)[None, :], tol)[0]
    if resid > tol.eq_tol * max(1.0, float(np.linalg.norm(w))):
        raise NoClosedFormError(f"composite prox residual {resid:.2e} too large")
    return as_vector(x)


def reference_resolvent_batch(op, W, tol, step=1.0):
    W, s = np.atleast_2d(np.asarray(W, dtype=float)), np.asarray(step)[..., None]
    if isinstance(op, GraphOp):
        raise NotMaximalError("finite graphs have no resolvent (not maximal)")
    if isinstance(op, LinearOp):
        return _solve_rows(np.eye(op.M.shape[0]) + s[..., None] * op.M, W - s * op.c)
    if isinstance(op, PerturbedOp) and op.p == 2.0:
        den = 1.0 + s * op.lam
        return reference_resolvent_batch(op.inner, (W + s * op.lam * op.center) / den, tol, step / den[..., 0])
    fun = _subdiff_of(op)
    if fun is not None:
        return _fun_prox_batch(fun, W, step, tol)
    if isinstance(op, NormalConeOp):
        return op.region.project_batch(W)
    if isinstance(op, ShiftedOp):
        return reference_resolvent_batch(op.inner, W + s * op.zstar, tol, step)
    raise NoClosedFormError("perturbed resolvent reduces only for p=2 or subdifferential inners")


def _subdiff_rows(fun, X, tol):
    k, n = X.shape
    everywhere, none = np.ones(k, dtype=bool), np.zeros((k, n), dtype=bool)
    if isinstance(fun, Quadratic):
        return everywhere, rowwise_matmul(X, fun.Q.T) + fun.b, none, none, np.zeros(k)
    if isinstance(fun, Box):
        inside = np.all((X >= fun.lo - tol.eq_tol) & (X <= fun.hi + tol.eq_tol), axis=1)
        return inside, np.zeros((k, n)), X >= fun.hi - tol.eq_tol, X <= fun.lo + tol.eq_tol, np.zeros(k)
    if isinstance(fun, TranslatedNormPower):
        return _subdiff_rows(NormPower(fun.p, fun.scale), X - fun.center, tol)
    if isinstance(fun, NormPower):
        r = np.sqrt(rowwise_dot(X, X))
        at_ball = (fun.p == 1.0) & (r <= tol.eq_tol)
        smooth = (r > 0.0) & ~at_ball
        coef = np.zeros(k)
        coef[smooth] = fun.scale * r[smooth] ** (fun.p - 2.0)
        return everywhere, coef[:, None] * X, none, none, np.where(at_ball, fun.scale, 0.0)
    if isinstance(fun, FunSum):
        inside, offset, up, down, ball = everywhere, np.zeros((k, n)), none, none, np.zeros(k)
        for part in fun.parts:
            p_in, p_off, p_up, p_down, p_ball = _subdiff_rows(part, X, tol)
            inside, offset, ball = inside & p_in, offset + p_off, ball + p_ball
            up, down = up | p_up, down | p_down
        return inside, offset, up, down, ball
    raise ValidationError(f"unknown function spec {type(fun).__name__}")


def _subdiff_residuals(fun, X, S, tol):
    inside, offset, up, down, ball = _subdiff_rows(fun, X, tol)
    U = S - offset
    R = U - np.clip(U, np.where(down, -np.inf, 0.0), np.where(up, np.inf, 0.0))
    return np.where(inside, np.maximum(0.0, np.sqrt(rowwise_dot(R, R)) - ball), np.inf)


def _subdiff_fiber(fun, x, tol) -> Fiber:
    inside, offset, up, down, ball = _subdiff_rows(fun, x[None, :], tol)
    if not inside[0]:
        return _empty_fiber(x)
    n = x.size
    eye = np.eye(n)
    rays = np.hstack([eye, -eye]).reshape(2 * n, n)[np.hstack([up.T, down.T]).ravel()]
    if ball[0] == 0.0:
        return Fiber(x, offset, rays, exact=True)
    pts = offset + np.vstack([np.zeros((1, n)), ball[0] * unit_sphere_samples(n)])
    return Fiber(x, pts, rays, exact=False)


def _polytope_normal_fiber(region: Polytope, x, tol) -> Fiber:
    if not region.contains_batch(x[None, :], tol.eq_tol)[0]:
        return _empty_fiber(x)
    center, basis, comp, A, b, _ = region._facets
    n, scale = x.size, 1.0 + float(np.abs(region.vertices).max())
    active = np.abs(A @ ((x - center) @ basis) + b) <= tol.eq_tol * scale
    rays = np.vstack([np.stack([comp.T, -comp.T], axis=1).reshape(-1, n), (basis @ A[active].T).T])
    return Fiber(x, np.zeros((1, n)), rays, exact=True)


def reference_fiber(op, x, tol) -> Fiber:
    n = x.size
    if isinstance(op, GraphOp):
        mask = np.linalg.norm(op.graph.primals - x, axis=1) <= tol.eq_tol
        pts = op.graph.duals[mask]
        if len(pts) == 0:
            return _empty_fiber(x)
        return Fiber(x, pts, np.zeros((0, n)), exact=True)
    if isinstance(op, LinearOp):
        return Fiber(x, (op.M @ x + op.c)[None, :], np.zeros((0, n)), exact=True)
    fun = _subdiff_of(op)
    if fun is not None:
        return _subdiff_fiber(fun, x, tol)
    if isinstance(op, NormalConeOp):
        return _polytope_normal_fiber(op.region, x, tol)
    inner = reference_fiber(op.inner, x, tol)
    if inner.is_empty:
        return inner
    if isinstance(op, ShiftedOp):
        return Fiber(x, inner.points - op.zstar, inner.rays, inner.exact)
    jp = _subdiff_fiber(_jp(op), x, tol)
    pts = np.vstack([inner.points + b for b in jp.points])
    return Fiber(x, pts, inner.rays, inner.exact and jp.exact)


def reference_membership_batch(op, X, S, tol) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    slack = tol.eq_tol * np.maximum(1.0, np.linalg.norm(S, axis=1))
    if isinstance(op, GraphOp):
        g = op.graph
        return np.array([np.any(
            (np.linalg.norm(g.primals - x, axis=1) <= tol.eq_tol)
            & (np.linalg.norm(g.duals - v, axis=1) <= tol.eq_tol)
        ) for x, v in zip(X, S)], dtype=bool)
    if isinstance(op, LinearOp):
        return np.linalg.norm(rowwise_matmul(X, op.M.T) + op.c - S, axis=1) <= slack
    fun = _subdiff_of(op)
    if fun is not None:
        return _subdiff_residuals(fun, X, S, tol) <= slack
    if isinstance(op, NormalConeOp):
        V = op.region.vertices
        spread = np.maximum(V.max(axis=0) - X, X - V.min(axis=0)).max(axis=1)
        return op.region.contains_batch(X, tol.eq_tol) & (_support_gaps(V, X, S) <= slack * (1.0 + spread))
    if isinstance(op, ShiftedOp):
        return reference_membership_batch(op.inner, X, S + op.zstar, tol)
    _, J, _, _, radius = _subdiff_rows(_jp(op), X, tol)
    ball = radius > 0.0
    out = np.zeros(len(X), dtype=bool)
    out[~ball] = reference_membership_batch(op.inner, X[~ball], S[~ball] - J[~ball], tol)
    for i in np.flatnonzero(ball):
        inner = reference_fiber(op.inner, X[i], tol)
        groups = inner.points[:, None, :] if inner.exact else [inner.points]
        d = min((project_onto_generated_set(P, inner.rays, S[i])[1] for P in groups), default=np.inf)
        out[i] = d <= op.lam + slack[i]
    return out
