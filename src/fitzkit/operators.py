"""Operator zoo: finite graphs, monotone linear maps, subdifferentials, normal
cones, duality maps, and the shift/perturbation combinators, with Minty
resolvent sampling as the universal bridge to finite graphs.

Set-valued images ("fibers") carry an explicit ``exact`` flag: polyhedral
fibers (normal cones, box subdifferentials) are represented exactly as
points + cone(rays); the only nonpolyhedral fiber at desk scale, the unit
ball of the p=1 duality map at its center, is boundary-sampled and flagged
inexact, although membership against it is still tested exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoClosedFormError,
    NotMaximalError,
    ValidationError,
)
from .vecspace import (
    Box,
    DEFAULT_TOL,
    Grid,
    PairPoint,
    Polytope,
    ToleranceConfig,
    Vector,
    as_matrix,
    as_vector,
    dedupe_rows_within,
    project_onto_generated_set,
    rowwise_matmul,
)

_BALL_SAMPLES = 64


# ---------------------------------------------------------------------------
# Finite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class FiniteGraph:
    """Finitely many primal-dual pairs; the universal sampled representation.

    Row i of the read-only (k, n) arrays ``primals`` and ``duals`` is the pair
    (x_i, x_i*); ``pair(i)`` builds it as a PairPoint when a witness needs one.
    """

    primals: np.ndarray
    duals: np.ndarray
    self_products: np.ndarray = field(repr=False)

    def __init__(self, pairs):
        pairs = tuple(pairs)
        if len({p.dim for p in pairs}) > 1:
            raise DimensionMismatchError("graph pairs have mixed dimensions")
        self._store([p.primal for p in pairs], [p.dual for p in pairs])

    @classmethod
    def from_arrays(cls, primals: np.ndarray, duals: np.ndarray) -> "FiniteGraph":
        g = cls.__new__(cls)
        g._store(primals, duals)
        return g

    def _store(self, primals, duals):
        """The one validation every graph passes: nonempty, matching (k, n)
        shapes, finite, and no two pairs within DEFAULT_TOL.eq_tol."""
        X = np.array(primals, dtype=float, order="C")
        S = np.array(duals, dtype=float, order="C")
        if X.size == 0:
            raise ValidationError("finite graph must be nonempty")
        if X.ndim != 2 or X.shape != S.shape:
            raise DimensionMismatchError(
                f"graph primals {X.shape} and duals {S.shape} must share one (k, n) shape"
            )
        if not (np.isfinite(X).all() and np.isfinite(S).all()):
            raise ValidationError("graph pairs must be finite")
        if len(dedupe_rows_within(np.hstack([X, S]), DEFAULT_TOL.eq_tol)) < len(X):
            raise ValidationError("duplicate graph pairs within tolerance")
        d = np.einsum("ij,ij->i", X, S)
        for name, arr in (("primals", X), ("duals", S), ("self_products", d)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.primals.shape[1]

    def __len__(self):
        return len(self.primals)

    def pair(self, i: int) -> PairPoint:
        return PairPoint(self.primals[i], self.duals[i])

    @cached_property
    def pairs(self) -> tuple[PairPoint, ...]:
        """Every row as a PairPoint, built on first use."""
        return tuple(self.pair(i) for i in range(len(self)))


def pairwise_product_blocks(X: np.ndarray, S: np.ndarray, d: np.ndarray, g: FiniteGraph):
    """Yield (i0, P) over row blocks, P[i, j] = <X_i - a_j, S_i - a_j*> for
    rows i0 + i of (X, S) with self-pairings d and graph pairs (a_j, a_j*)."""
    k = len(X)
    block = max(1, min(k, 4_000_000 // max(len(g), 1) + 1))
    for i0 in range(0, k, block):
        i1 = min(k, i0 + block)
        yield i0, (
            d[i0:i1, None]
            + g.self_products[None, :]
            - X[i0:i1] @ g.duals.T
            - S[i0:i1] @ g.primals.T
        )


# ---------------------------------------------------------------------------
# Convex function specs (for subdifferential operators)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Quadratic:
    """f(x) = 0.5 x'Qx + b'x with Q symmetric PSD."""

    Q: np.ndarray
    b: Vector

    def __post_init__(self):
        q = as_matrix(self.Q)
        b = as_vector(self.b, dim=q.shape[0])
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValidationError("quadratic matrix must be symmetric")
        if np.linalg.eigvalsh(q).min() < -DEFAULT_TOL.rank_tol:
            raise ValidationError("quadratic matrix must be positive semidefinite")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class BoxIndicator:
    """Indicator of the box [lo, hi]."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        box = Box(self.lo, self.hi)
        object.__setattr__(self, "lo", box.lo)
        object.__setattr__(self, "hi", box.hi)

    @property
    def box(self) -> Box:
        return Box(self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class NormPower:
    """f(x) = scale * (1/p) ||x||^p, p >= 1."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if self.p < 1.0:
            raise ValidationError("norm power requires p >= 1")
        if self.scale <= 0:
            raise ValidationError("norm power scale must be positive")


@dataclass(frozen=True, eq=False)
class TranslatedNormPower:
    """f(x) = scale * (1/p) ||x - center||^p."""

    p: float
    scale: float
    center: Vector

    def __post_init__(self):
        NormPower(self.p, self.scale)
        object.__setattr__(self, "center", as_vector(self.center))


@dataclass(frozen=True, eq=False)
class FunSum:
    """Pointwise sum of function specs (proper: box domains must intersect)."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValidationError("empty function sum")
        boxes = [p.box for p in parts if isinstance(p, BoxIndicator)]
        if boxes:
            lo = np.max([b.lo for b in boxes], axis=0)
            hi = np.min([b.hi for b in boxes], axis=0)
            if np.any(lo > hi):
                raise ValidationError("function sum has empty domain (disjoint boxes)")
        object.__setattr__(self, "parts", parts)


FunSpec = Union[Quadratic, BoxIndicator, NormPower, TranslatedNormPower, FunSum]


def fun_dimension(fun: FunSpec) -> Optional[int]:
    if isinstance(fun, Quadratic):
        return fun.b.size
    if isinstance(fun, BoxIndicator):
        return fun.lo.size
    if isinstance(fun, TranslatedNormPower):
        return fun.center.size
    if isinstance(fun, FunSum):
        for p in fun.parts:
            d = fun_dimension(p)
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


def _box_qp_batch(
    H: np.ndarray, G: np.ndarray, lo: Vector | None, hi: Vector | None
) -> np.ndarray:
    """Minimize 0.5 x'Hx - g'x over the box, one row of G per problem.

    H is SPD; the (at most 3^n) active-bound patterns are enumerated in a
    fixed order, so the result is deterministic and exact.
    """
    k, n = G.shape
    if lo is None:
        return np.linalg.solve(H, G.T).T
    scale = max(1.0, float(np.abs(G).max(initial=0.0)), float(np.abs(H).max()))
    ktol = 1e-10 * scale
    X = np.zeros((k, n))
    done = np.zeros(k, dtype=bool)
    for pattern in itertools.product((0, 1, 2), repeat=n):
        free = [i for i, s in enumerate(pattern) if s == 0]
        fixed = [i for i, s in enumerate(pattern) if s != 0]
        xb = np.array([lo[i] if pattern[i] == 1 else hi[i] for i in fixed])
        cand = np.zeros((k, n))
        for idx, i in enumerate(fixed):
            cand[:, i] = xb[idx]
        if free:
            rhs = G[:, free] - (xb @ H[np.ix_(fixed, free)] if fixed else 0.0)
            sol = np.linalg.solve(H[np.ix_(free, free)], rhs.T).T
            cand[:, free] = sol
        grad = cand @ H - G
        valid = np.ones(k, dtype=bool)
        for i in free:
            valid &= (cand[:, i] >= lo[i] - ktol) & (cand[:, i] <= hi[i] + ktol)
        for i in fixed:
            if pattern[i] == 1:
                valid &= grad[:, i] >= -ktol
            else:
                valid &= grad[:, i] <= ktol
        fresh = valid & ~done
        if np.any(fresh):
            X[fresh] = cand[fresh]
            done |= fresh
        if done.all():
            break
    if not done.all():
        raise ValidationError("box quadratic subproblem left unresolved rows")
    return X


def _sum_exact_parts(fun: FunSum, dim: int):
    """Split a sum into (A, a, box) when it is quadratic-plus-box; else None."""
    A = np.zeros((dim, dim))
    a = np.zeros(dim)
    boxes: list[Box] = []
    for part in fun.parts:
        if isinstance(part, Quadratic):
            A = A + part.Q
            a = a + part.b
        elif isinstance(part, NormPower) and part.p == 2.0:
            A = A + part.scale * np.eye(dim)
        elif isinstance(part, TranslatedNormPower) and part.p == 2.0:
            A = A + part.scale * np.eye(dim)
            a = a - part.scale * part.center
        elif isinstance(part, BoxIndicator):
            boxes.append(part.box)
        else:
            return None
    if not boxes:
        return A, a, None
    lo = np.max([b.lo for b in boxes], axis=0)
    hi = np.min([b.hi for b in boxes], axis=0)
    return A, a, Box(lo, hi)


def fun_prox_batch(
    fun: FunSpec, W: np.ndarray, step: float, tol: ToleranceConfig
) -> np.ndarray:
    """prox_{step*f}(w) for each row w of W."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    k, dim = W.shape
    if isinstance(fun, Quadratic):
        H = np.eye(dim) + step * fun.Q
        return np.linalg.solve(H, (W - step * fun.b).T).T
    if isinstance(fun, BoxIndicator):
        return fun.box.project_batch(W)
    if isinstance(fun, TranslatedNormPower):
        inner = fun_prox_batch(NormPower(fun.p, fun.scale), W - fun.center, step, tol)
        return inner + fun.center
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
    if isinstance(fun, FunSum):
        exact = _sum_exact_parts(fun, dim)
        if exact is not None:
            A, a, box = exact
            H = np.eye(dim) + step * A
            G = W - step * a
            if box is None:
                return np.linalg.solve(H, G.T).T
            return _box_qp_batch(H, G, box.lo, box.hi)
        return np.array([_dykstra_prox(fun, w, step, tol) for w in W])
    raise ValidationError(f"unknown function spec {type(fun).__name__}")


def fun_prox(fun: FunSpec, w: Vector, step: float = 1.0, tol: ToleranceConfig = DEFAULT_TOL) -> Vector:
    return as_vector(fun_prox_batch(fun, as_vector(w)[None, :], step, tol)[0])


def _dykstra_prox(fun: FunSum, w: Vector, step: float, tol: ToleranceConfig) -> Vector:
    """Cyclic Dykstra iteration for prox of a sum; raises when the budget runs
    out before the iterates settle or the optimality residual fails."""
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
            y = fun_prox_batch(part, (x + corr[i])[None, :], step, tol)[0]
            corr[i] = x + corr[i] - y
            x = y
        # the primal can stall for whole cycles while corrections still move
        # (e.g. soft thresholds pinning x at a kink), so track both
        change = float(np.linalg.norm(x - x_prev)) + sum(
            float(np.linalg.norm(c - cp)) for c, cp in zip(corr, corr_prev)
        )
        if change <= inner_tol:
            converged = True
            break
    if not converged:
        raise NoClosedFormError("composite prox did not converge within budget")
    resid = _fun_membership_residual(fun, x, (np.asarray(w) - x) / step, tol)
    if resid > tol.eq_tol * max(1.0, float(np.linalg.norm(w))):
        raise NoClosedFormError(f"composite prox residual {resid:.2e} too large")
    return as_vector(x)


# --- subdifferential fibers -------------------------------------------------

@dataclass(frozen=True, eq=False)
class _SubFiber:
    """Internal decomposition of a subdifferential image: offset + cone + ball."""

    in_domain: bool
    offset: np.ndarray
    rays: np.ndarray
    ball: float


def _box_cone_rays(box: Box, x: Vector, tol: ToleranceConfig) -> Optional[np.ndarray]:
    """Generating rays of the box normal cone at x, or None when x is outside."""
    n = box.dim
    if not box.contains(x, tol.eq_tol):
        return None
    rays = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if x[i] >= box.hi[i] - tol.eq_tol:
            rays.append(e)
        if x[i] <= box.lo[i] + tol.eq_tol:
            rays.append(-e)
    return np.array(rays) if rays else np.zeros((0, n))


def _fun_subfiber(fun: FunSpec, x: Vector, tol: ToleranceConfig) -> _SubFiber:
    x = np.asarray(x, dtype=float)
    n = x.size
    empty = np.zeros((0, n))
    if isinstance(fun, Quadratic):
        return _SubFiber(True, fun.Q @ x + fun.b, empty, 0.0)
    if isinstance(fun, BoxIndicator):
        rays = _box_cone_rays(fun.box, x, tol)
        if rays is None:
            return _SubFiber(False, np.zeros(n), empty, 0.0)
        return _SubFiber(True, np.zeros(n), rays, 0.0)
    if isinstance(fun, TranslatedNormPower):
        sub = _fun_subfiber(NormPower(fun.p, fun.scale), x - fun.center, tol)
        return sub
    if isinstance(fun, NormPower):
        r = float(np.linalg.norm(x))
        if fun.p == 1.0 and r <= tol.eq_tol:
            return _SubFiber(True, np.zeros(n), empty, fun.scale)
        if r == 0.0:
            return _SubFiber(True, np.zeros(n), empty, 0.0)
        return _SubFiber(True, fun.scale * r ** (fun.p - 2.0) * x, empty, 0.0)
    if isinstance(fun, FunSum):
        offset = np.zeros(n)
        rays = [empty]
        ball = 0.0
        for part in fun.parts:
            sub = _fun_subfiber(part, x, tol)
            if not sub.in_domain:
                return _SubFiber(False, np.zeros(n), empty, 0.0)
            offset = offset + sub.offset
            rays.append(sub.rays)
            ball += sub.ball
        return _SubFiber(True, offset, np.vstack(rays), ball)
    raise ValidationError(f"unknown function spec {type(fun).__name__}")


def _cone_distance(u: np.ndarray, rays: np.ndarray) -> float:
    if len(rays) == 0:
        return float(np.linalg.norm(u))
    apex = np.zeros((1, u.size))
    _, d = project_onto_generated_set(apex, rays, u)
    return d


def _fun_membership_residual(fun: FunSpec, x: Vector, v: Vector, tol: ToleranceConfig) -> float:
    sub = _fun_subfiber(fun, x, tol)
    if not sub.in_domain:
        return float("inf")
    d = _cone_distance(np.asarray(v, dtype=float) - sub.offset, sub.rays)
    return max(0.0, d - sub.ball)


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Fiber:
    """Sampled or exact description of an operator image A(x)."""

    base: Vector
    points: np.ndarray
    rays: np.ndarray
    exact: bool

    def __post_init__(self):
        base = as_vector(self.base)
        pts = np.asarray(self.points, dtype=float).reshape(-1, base.size)
        rys = np.asarray(self.rays, dtype=float).reshape(-1, base.size)
        pts.setflags(write=False)
        rys.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "rays", rys)

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0 and self.rays.shape[0] == 0


def _empty_fiber(x: Vector) -> Fiber:
    x = as_vector(x)
    return Fiber(x, np.zeros((0, x.size)), np.zeros((0, x.size)), True)


def unit_sphere_samples(n: int, count: int = _BALL_SAMPLES) -> np.ndarray:
    """Deterministic sample of the unit sphere (lattices for n <= 3)."""
    if n == 1:
        return np.array([[-1.0], [1.0]])
    if n == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        # Fibonacci sphere
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        golden = np.pi * (1.0 + 5.0**0.5)
        theta = golden * i
        return np.stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)],
            axis=1,
        )
    rng = np.random.default_rng(12345)
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _duality_points(p: float, center: Vector, X: np.ndarray) -> np.ndarray:
    """Rows of the single-valued branch of J_p(x - center); zero at the center."""
    U = X - center
    R = np.linalg.norm(U, axis=1)[:, None]
    safe = np.where(R > 0, R, 1.0)
    return np.where(R > 0, U / safe if p == 1.0 else safe ** (p - 2.0) * U, 0.0)


def duality_map(p: float, center: Vector, x: Vector, samples: int = _BALL_SAMPLES) -> Fiber:
    """J_p(x - center) for the Euclidean norm.

    Single-valued away from the center (and everywhere for p > 1); at the
    center with p = 1 the image is the closed unit ball, returned
    boundary-sampled with exact=False.
    """
    if p < 1.0:
        raise ValidationError("duality map requires p >= 1")
    center = as_vector(center)
    x = as_vector(x, dim=center.size)
    n = x.size
    if p == 1.0 and np.all(x == center):
        pts = np.vstack([np.zeros((1, n)), unit_sphere_samples(n, samples)])
        return Fiber(x, pts, np.zeros((0, n)), exact=False)
    return Fiber(x, _duality_points(p, center, x[None, :]), np.zeros((0, n)), exact=True)


def duality_point(p: float, center: Vector, x: Vector) -> Vector:
    """The single-valued branch of J_p(x - center); requires x != center when p=1."""
    f = duality_map(p, center, x)
    if not f.exact or len(f.points) != 1:
        raise ValidationError("duality map is set-valued at this point")
    return as_vector(f.points[0])


# ---------------------------------------------------------------------------
# Operator specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphOp:
    graph: FiniteGraph


@dataclass(frozen=True, eq=False)
class LinearOp:
    """x -> {Mx + c}; monotone iff the symmetric part of M is PSD."""

    M: np.ndarray
    c: Vector

    def __post_init__(self):
        m = as_matrix(self.M)
        c = as_vector(self.c, dim=m.shape[0])
        sym = 0.5 * (m + m.T)
        if np.linalg.eigvalsh(sym).min() < -DEFAULT_TOL.rank_tol:
            raise ValidationError("linear operator not monotone")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class SubdiffOp:
    fun: FunSpec


@dataclass(frozen=True, eq=False)
class NormalConeOp:
    region: Union[Box, Polytope]


@dataclass(frozen=True, eq=False)
class DualityMapOp:
    p: float
    center: Vector

    def __post_init__(self):
        if self.p < 1.0:
            raise ValidationError("duality map requires p >= 1")
        object.__setattr__(self, "center", as_vector(self.center))


@dataclass(frozen=True, eq=False)
class ShiftedOp:
    """gra B = gra A - {(0, zstar)}: fibers are B(x) = A(x) - zstar."""

    inner: "OperatorSpec"
    zstar: Vector

    def __post_init__(self):
        z = as_vector(self.zstar)
        d = op_dimension(self.inner)
        if d is not None and z.size != d:
            raise DimensionMismatchError("shift vector dimension mismatch")
        object.__setattr__(self, "zstar", z)


@dataclass(frozen=True, eq=False)
class PerturbedOp:
    """A + lam * J_p(. - center), lam > 0."""

    inner: "OperatorSpec"
    lam: float
    p: float
    center: Vector

    def __post_init__(self):
        if self.lam <= 0:
            raise ValidationError("perturbation weight must be positive")
        if self.p < 1.0:
            raise ValidationError("perturbation requires p >= 1")
        c = as_vector(self.center)
        d = op_dimension(self.inner)
        if d is not None and c.size != d:
            raise DimensionMismatchError("perturbation center dimension mismatch")
        object.__setattr__(self, "center", c)


OperatorSpec = Union[
    GraphOp, LinearOp, SubdiffOp, NormalConeOp, DualityMapOp, ShiftedOp, PerturbedOp
]


def op_dimension(op: OperatorSpec) -> Optional[int]:
    if isinstance(op, GraphOp):
        return op.graph.dim
    if isinstance(op, LinearOp):
        return op.M.shape[0]
    if isinstance(op, SubdiffOp):
        return fun_dimension(op.fun)
    if isinstance(op, NormalConeOp):
        return op.region.dim
    if isinstance(op, DualityMapOp):
        return op.center.size
    if isinstance(op, (ShiftedOp, PerturbedOp)):
        d = op_dimension(op.inner)
        if d is not None:
            return d
        return op.zstar.size if isinstance(op, ShiftedOp) else op.center.size
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


# ---------------------------------------------------------------------------
# Resolvent (Minty parametrization)
# ---------------------------------------------------------------------------

def resolvent_batch(
    op: OperatorSpec, W: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, step: float = 1.0
) -> np.ndarray:
    """Rows x with w - x in step*A(x), one per row w of W."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if isinstance(op, GraphOp):
        raise NotMaximalError("finite graphs have no resolvent (not maximal)")
    if isinstance(op, LinearOp):
        n = op.M.shape[0]
        H = np.eye(n) + step * op.M
        return np.linalg.solve(H, (W - step * op.c).T).T
    if isinstance(op, SubdiffOp):
        return fun_prox_batch(op.fun, W, step, tol)
    if isinstance(op, NormalConeOp):
        if isinstance(op.region, Box):
            return op.region.project_batch(W)
        return np.array(
            [project_onto_generated_set(op.region.vertices, None, w)[0] for w in W]
        )
    if isinstance(op, DualityMapOp):
        return fun_prox_batch(TranslatedNormPower(op.p, 1.0, op.center), W, step, tol)
    if isinstance(op, ShiftedOp):
        return resolvent_batch(op.inner, W + step * op.zstar, tol, step)
    if isinstance(op, PerturbedOp):
        if op.p == 2.0:
            lam = op.lam
            den = 1.0 + step * lam
            return resolvent_batch(
                op.inner, (W + step * lam * op.center) / den, tol, step / den
            )
        fun = _as_funspec(op.inner)
        if fun is None:
            raise NoClosedFormError(
                "perturbed resolvent reduces only for p=2 or subdifferential inners"
            )
        total = FunSum((fun, TranslatedNormPower(op.p, op.lam, op.center)))
        return fun_prox_batch(total, W, step, tol)
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def _as_funspec(op: OperatorSpec) -> Optional[FunSpec]:
    if isinstance(op, SubdiffOp):
        return op.fun
    if isinstance(op, NormalConeOp) and isinstance(op.region, Box):
        return BoxIndicator(op.region.lo, op.region.hi)
    if isinstance(op, DualityMapOp):
        return TranslatedNormPower(op.p, 1.0, op.center)
    return None


def resolvent(
    op: OperatorSpec, w: Vector, tol: ToleranceConfig = DEFAULT_TOL, step: float = 1.0
) -> Vector:
    """The unique x with w - x in step*A(x)."""
    w = as_vector(w)
    return as_vector(resolvent_batch(op, w[None, :], tol, step)[0])


# ---------------------------------------------------------------------------
# Fibers and membership
# ---------------------------------------------------------------------------

def _region_normal_fiber(region: Union[Box, Polytope], x: Vector, tol: ToleranceConfig) -> Fiber:
    x = as_vector(x, dim=region.dim)
    n = x.size
    if isinstance(region, Box):
        rays = _box_cone_rays(region, x, tol)
        if rays is None:
            return _empty_fiber(x)
        return Fiber(x, np.zeros((1, n)), rays, exact=True)
    # polytope: facet normals of active facets, plus the lineality space of
    # the complement when the polytope is not full-dimensional
    if not region.contains(x, tol.eq_tol):
        return _empty_fiber(x)
    center, basis, comp, eqs = region._facet_data
    rays = [np.zeros((0, n))]
    for j in range(comp.shape[1]):
        rays.append(comp[:, j][None, :])
        rays.append(-comp[:, j][None, :])
    d = basis.shape[1]
    scale = 1.0 + float(np.abs(region.vertices).max())
    if d == 1:
        vals = (region.vertices - center) @ basis
        xv = float(((x - center) @ basis)[0])
        if xv >= vals.max() - tol.eq_tol * scale:
            rays.append(basis[:, 0][None, :])
        if xv <= vals.min() + tol.eq_tol * scale:
            rays.append(-basis[:, 0][None, :])
    elif d >= 2:
        coords = (x - center) @ basis
        resid = eqs[:, :-1] @ coords + eqs[:, -1]
        active = np.abs(resid) <= tol.eq_tol * scale
        if np.any(active):
            rays.append((basis @ eqs[active, :-1].T).T)
    return Fiber(x, np.zeros((1, n)), np.vstack(rays), exact=True)


def fiber(op: OperatorSpec, x: Vector, tol: ToleranceConfig = DEFAULT_TOL) -> Fiber:
    """The image set A(x), exact for polyhedral images."""
    x = as_vector(x)
    n = x.size
    if isinstance(op, GraphOp):
        mask = np.linalg.norm(op.graph.primals - x, axis=1) <= tol.eq_tol
        pts = op.graph.duals[mask]
        if len(pts) == 0:
            return _empty_fiber(x)
        return Fiber(x, pts, np.zeros((0, n)), exact=True)
    if isinstance(op, LinearOp):
        return Fiber(x, (op.M @ x + op.c)[None, :], np.zeros((0, n)), exact=True)
    if isinstance(op, SubdiffOp):
        sub = _fun_subfiber(op.fun, x, tol)
        if not sub.in_domain:
            return _empty_fiber(x)
        if sub.ball == 0.0:
            return Fiber(x, sub.offset[None, :], sub.rays, exact=True)
        pts = sub.offset + np.vstack(
            [np.zeros((1, n)), sub.ball * unit_sphere_samples(n)]
        )
        return Fiber(x, pts, sub.rays, exact=False)
    if isinstance(op, NormalConeOp):
        return _region_normal_fiber(op.region, x, tol)
    if isinstance(op, DualityMapOp):
        return duality_map(op.p, op.center, x)
    if isinstance(op, ShiftedOp):
        inner = fiber(op.inner, x, tol)
        if inner.is_empty:
            return inner
        return Fiber(x, inner.points - op.zstar, inner.rays, inner.exact)
    if isinstance(op, PerturbedOp):
        inner = fiber(op.inner, x, tol)
        if inner.is_empty:
            return inner
        jp = duality_map(op.p, op.center, x)
        if jp.exact:
            return Fiber(x, inner.points + op.lam * jp.points[0], inner.rays, inner.exact)
        pts = np.vstack([inner.points + op.lam * b for b in jp.points])
        return Fiber(x, pts, inner.rays, exact=False)
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def membership_batch(
    op: OperatorSpec, X: np.ndarray, S: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Mask of rows with S[i] in A(X[i]): exact for polyhedral images, else
    within slack = eq_tol * max(1, |S[i]|)."""
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
    if isinstance(op, SubdiffOp):
        return np.array([
            _fun_membership_residual(op.fun, x, v, tol) <= s for x, v, s in zip(X, S, slack)
        ], dtype=bool)
    if isinstance(op, NormalConeOp) and isinstance(op.region, Box):
        box = op.region
        inside = np.all((X >= box.lo - tol.eq_tol) & (X <= box.hi + tol.eq_tol), axis=1)
        up = (S > slack[:, None]) & ~(X >= box.hi - tol.eq_tol)
        down = (S < -slack[:, None]) & ~(X <= box.lo + tol.eq_tol)
        return inside & ~np.any(up | down, axis=1)
    if isinstance(op, NormalConeOp):
        V = op.region.vertices
        # (V - x) . v summed coordinate by coordinate, and max |V - x| from the
        # per-coordinate extremes of V: (k, m) and (k, n) arrays, never (k, m, n)
        gaps = sum((V[:, i] - X[:, i, None]) * S[:, i, None] for i in range(X.shape[1]))
        spread = np.maximum(V.max(axis=0) - X, X - V.min(axis=0)).max(axis=1)
        return op.region.contains_batch(X, tol.eq_tol) & (gaps.max(axis=1) <= slack * (1.0 + spread))
    if isinstance(op, DualityMapOp):
        ball = (op.p == 1.0) & (np.linalg.norm(X - op.center, axis=1) <= tol.eq_tol)
        J = _duality_points(op.p, op.center, X)
        return np.where(
            ball, np.linalg.norm(S, axis=1) <= 1.0 + tol.eq_tol, np.linalg.norm(S - J, axis=1) <= slack
        )
    if isinstance(op, ShiftedOp):
        return membership_batch(op.inner, X, S + op.zstar, tol)
    if isinstance(op, PerturbedOp):
        # J_1 at its center is the unit ball: test the distance to the inner fiber
        ball = (op.p == 1.0) & np.all(X == op.center, axis=1)
        out = np.zeros(len(X), dtype=bool)
        J = _duality_points(op.p, op.center, X[~ball])
        out[~ball] = membership_batch(op.inner, X[~ball], S[~ball] - op.lam * J, tol)
        for i in np.flatnonzero(ball):
            inner = fiber(op.inner, X[i], tol)
            if not inner.is_empty:
                _, d = project_onto_generated_set(inner.points, inner.rays, S[i])
                out[i] = d <= op.lam + slack[i]
        return out
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def membership(op: OperatorSpec, pt: PairPoint, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exact test of x* in A(x) for polyhedral images; tolerance-based otherwise."""
    return bool(membership_batch(op, pt.primal[None, :], pt.dual[None, :], tol)[0])


# ---------------------------------------------------------------------------
# Sampling and monotonicity checks
# ---------------------------------------------------------------------------

def graph_sample(
    op: OperatorSpec, wgrid: Grid, tol: ToleranceConfig = DEFAULT_TOL, verify: bool = True
) -> FiniteGraph:
    """Minty-sample the graph: pairs (x, w - x) over the grid of base points w.

    With verify, every deduplicated pair must pass ``membership_batch`` (the
    one membership rule, slack eq_tol * max(1, |x*|)) and the sampled graph
    must pass ``monotone_check``; the first failure raises ValidationError."""
    W = wgrid.nodes()
    X = resolvent_batch(op, W, tol)
    S = W - X
    rows = dedupe_rows_within(np.hstack([X, S]), tol.eq_tol)
    n = X.shape[1]
    Xd, Sd = rows[:, :n], rows[:, n:]
    if verify:
        ok = membership_batch(op, Xd, Sd, tol)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValidationError(
                f"sampled pair {bad} fails membership: "
                f"x={Xd[bad].tolist()} x*={Sd[bad].tolist()}"
            )
    g = FiniteGraph.from_arrays(Xd, Sd)
    if verify:
        witness = monotone_check(g, tol)
        if witness is not None:
            raise ValidationError(f"sampled graph is not monotone: {witness}")
    return g


def graph_of(
    op: OperatorSpec, wgrid: Grid | None, tol: ToleranceConfig = DEFAULT_TOL
) -> FiniteGraph:
    """The graph of a finite-graph operator, else its Minty sample over wgrid."""
    if isinstance(op, GraphOp):
        return op.graph
    if wgrid is None:
        raise ValidationError("sampled operators need a wgrid")
    return graph_sample(op, wgrid, tol)


def monotone_check(
    g: FiniteGraph, tol: ToleranceConfig = DEFAULT_TOL
) -> Optional[tuple[PairPoint, PairPoint]]:
    """None when all pairwise products are >= -eq_tol, else the first violating pair."""
    for i0, prods in pairwise_product_blocks(g.primals, g.duals, g.self_products, g):
        if (prods < -tol.eq_tol).any():  # argmax: first violation in row-major order
            i, j = np.unravel_index(int(np.argmax(prods < -tol.eq_tol)), prods.shape)
            return g.pair(int(i) + i0), g.pair(int(j))
    return None


def monotonically_related(
    pt: PairPoint, g: FiniteGraph, tol: ToleranceConfig = DEFAULT_TOL
) -> Optional[PairPoint]:
    """None when <x-y, x*-y*> >= -eq_tol against every graph pair, else a witness."""
    prods = np.einsum("ij,ij->i", pt.primal - g.primals, pt.dual - g.duals)
    bad = np.flatnonzero(prods < -tol.eq_tol)
    if len(bad) == 0:
        return None
    return g.pair(int(bad[0]))


def shift_operator(op: OperatorSpec, zstar: Vector) -> OperatorSpec:
    """Operator with fibers A(x) - zstar (graph shifted by (0, -zstar))."""
    zstar = as_vector(zstar)
    if np.all(zstar == 0.0):
        return op
    if isinstance(op, GraphOp):
        return GraphOp(shift_graph(op.graph, zstar))
    if isinstance(op, LinearOp):
        return LinearOp(op.M, op.c - zstar)
    if isinstance(op, ShiftedOp):
        return ShiftedOp(op.inner, op.zstar + zstar)
    return ShiftedOp(op, zstar)


def shift_graph(g: FiniteGraph, zstar: Vector) -> FiniteGraph:
    zstar = as_vector(zstar, dim=g.dim)
    return FiniteGraph.from_arrays(g.primals, g.duals - zstar)


def inverse_graph(g: FiniteGraph) -> FiniteGraph:
    """Graph of the inverse relation: every (x, x*) becomes (x*, x).

    Monotonicity is preserved (the pairwise products are symmetric in the
    swap), so range-side questions reduce to domain-side checks here."""
    return FiniteGraph.from_arrays(g.duals, g.primals)


def perturb(op: OperatorSpec, lam: float, p: float, center: Vector) -> PerturbedOp:
    """A + lam * J_p(. - center)."""
    return PerturbedOp(op, lam, p, as_vector(center))


def unique_domain_points(g: FiniteGraph, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Distinct sampled primal points, lexicographically sorted."""
    return dedupe_rows_within(g.primals, tol.eq_tol)


def maximality_probe(
    op: OperatorSpec,
    probe_grid: Grid,
    tol: ToleranceConfig = DEFAULT_TOL,
    surrogate: FiniteGraph | None = None,
    wgrid: Grid | None = None,
) -> list[PairPoint]:
    """Probe points monotonically related to the sampled graph yet failing
    membership; each is evidence against maximality of the surrogate. An empty
    list is consistent with (never proof of) maximality."""
    if surrogate is None:
        surrogate = graph_of(op, wgrid, tol)
    n = surrogate.dim
    if probe_grid.dim != 2 * n:
        raise DimensionMismatchError("probe grid must live in primal x dual space")
    nodes = probe_grid.nodes()
    Xp, Sp = nodes[:, :n], nodes[:, n:]
    dp = np.einsum("ij,ij->i", Xp, Sp)
    related = np.concatenate([
        prods.min(axis=1) >= -tol.eq_tol
        for _, prods in pairwise_product_blocks(Xp, Sp, dp, surrogate)
    ])
    Xr, Sr = Xp[related], Sp[related]
    failing = ~membership_batch(op, Xr, Sr, tol)
    return [PairPoint(x, v) for x, v in zip(Xr[failing], Sr[failing])]
