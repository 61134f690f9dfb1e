"""Euclidean substrate: vectors, polytopes, grids, tolerances, and separation.

Everything here is desk scale (dimensions up to ~4, vertex counts in the
hundreds) and pure: values are immutable after construction and all
operations are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NotSeparableError, ValidationError

Vector = np.ndarray

_LEX_TIE_EPS = 1e-13
_KD_MARGIN = 1e-6  # relative widening of the KD-tree radius; exact norms confirm


def as_vector(x, dim: int | None = None) -> Vector:
    """Coerce to an immutable 1-d float vector, rejecting NaN/Inf and dim mismatch."""
    arr = np.array(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector has non-finite coordinates")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.size}")
    arr.setflags(write=False)
    return arr


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected {dim}x{dim} matrix, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def dot(x: Vector, y: Vector) -> float:
    """Standard inner product; the only pairing used at desk scale."""
    x = as_vector(x)
    y = as_vector(y, dim=x.size)
    return float(np.dot(x, y))


def rowwise_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B summed in a fixed order, so each output row depends on its own input
    row alone; BLAS may pick another kernel, and other roundings, by row count."""
    out = A[:, :1] * B[0]
    for j in range(1, A.shape[1]):
        out = out + A[:, j : j + 1] * B[j]
    return out


def lexsort_rows(rows: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first coordinate is primary)."""
    rows = np.atleast_2d(rows)
    return np.lexsort(rows.T[::-1])


def lex_min_index(rows: np.ndarray, candidates: np.ndarray | None = None) -> int:
    rows = np.atleast_2d(rows)
    idx = np.arange(len(rows)) if candidates is None else np.asarray(candidates)
    order = lexsort_rows(rows[idx])
    return int(idx[order[0]])


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric policy: equality slack, infinity threshold, rank slack, budgets."""

    eq_tol: float = 1e-9
    inf_threshold: float = 1e8
    rank_tol: float = 1e-8
    budget: int = 100_000

    def __post_init__(self):
        for name in ("eq_tol", "inf_threshold", "rank_tol"):
            if not (getattr(self, name) > 0):
                raise ValidationError(f"{name} must be strictly positive")
        if self.budget < 1:
            raise ValidationError("budget must be a positive integer")
        if self.inf_threshold / self.eq_tol < 1e6:
            raise ValidationError("inf_threshold must dominate eq_tol (ratio >= 1e6)")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True, eq=False)
class PairPoint:
    """A primal-dual pair (x, x*); both live in the same dimension."""

    primal: Vector
    dual: Vector

    def __post_init__(self):
        p = as_vector(self.primal)
        d = as_vector(self.dual, dim=p.size)
        object.__setattr__(self, "primal", p)
        object.__setattr__(self, "dual", d)

    @property
    def dim(self) -> int:
        return self.primal.size

    def pairing(self) -> float:
        """<x, x*>."""
        return float(np.dot(self.primal, self.dual))

    def __repr__(self):
        return f"PairPoint({self.primal.tolist()}, {self.dual.tolist()})"


def pair(primal, dual) -> PairPoint:
    return PairPoint(as_vector(primal), as_vector(dual))


# ---------------------------------------------------------------------------
# Simplex/cone projection kernel
# ---------------------------------------------------------------------------

def _affine_subproblem(cols: np.ndarray, simplex_count: int, v: np.ndarray) -> np.ndarray:
    """Minimize ||v - cols.T @ u||^2 subject to sum(u[:simplex_count]) == 1.

    Solved through the KKT system with lstsq so that degenerate active sets
    (collinear vertices) still produce a valid optimizer.
    """
    a = len(cols)
    gram = cols @ cols.T
    rhs = cols @ v
    con = np.zeros(a)
    con[:simplex_count] = 1.0
    kkt = np.zeros((a + 1, a + 1))
    kkt[:a, :a] = 2.0 * gram
    kkt[:a, a] = con
    kkt[a, :a] = con
    b = np.concatenate([2.0 * rhs, [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, b, rcond=None)
    return sol[:a]


def project_onto_generated_set(
    points: np.ndarray,
    rays: np.ndarray | None,
    v: Vector,
) -> tuple[Vector, float]:
    """Project v onto conv(points) + cone(rays) by a primal active-set method.

    Returns (projection, distance). Exact up to machine precision at desk
    scale; raises ValidationError if the active-set loop fails to settle.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = as_vector(v, dim=pts.shape[1])
    if rays is None or len(rays) == 0:
        rys = np.zeros((0, pts.shape[1]))
    else:
        rys = np.atleast_2d(np.asarray(rays, dtype=float))
        norms = np.linalg.norm(rys, axis=1)
        if np.any(norms <= 0):
            raise ValidationError("zero ray direction")
        rys = rys / norms[:, None]

    k, m = len(pts), len(rys)
    scale = max(1.0, float(np.linalg.norm(v)), float(np.abs(pts).max(initial=0.0)))
    # point violations are products of two O(scale) vectors; ray violations
    # pair the residual with a unit ray, so their threshold is linear in scale
    opt_eps = 1e-11 * scale * scale
    ray_eps = 1e-11 * scale

    # start from the lexicographically-smallest nearest vertex
    d2 = np.einsum("ij,ij->i", pts - v, pts - v)
    near = np.flatnonzero(d2 <= d2.min() + _LEX_TIE_EPS)
    start = lex_min_index(pts, near)

    active_p: list[int] = [start]
    active_r: list[int] = []
    weights = np.array([1.0])

    max_iter = 100 * (k + m + 10)
    for _ in range(max_iter):
        cols = np.vstack([pts[active_p], rys[active_r]]) if active_r else pts[active_p]
        target = _affine_subproblem(cols, len(active_p), v)
        if target.min(initial=0.0) >= -1e-13:
            weights = np.clip(target, 0.0, None)
            sp = len(active_p)
            if sp:
                weights[:sp] = weights[:sp] / weights[:sp].sum()
            y = weights @ cols
            resid = v - y
            # KKT: entering point must beat the active level, entering ray
            # must have positive alignment with the residual.
            level = float((pts[active_p] @ resid).max())
            p_viol = pts @ resid - level
            r_viol = rys @ resid if m else np.zeros(0)
            for i in active_p:
                p_viol[i] = -np.inf
            for i in active_r:
                r_viol[i] = -np.inf
            best_p = int(np.argmax(p_viol)) if k else -1
            best_r = int(np.argmax(r_viol)) if m else -1
            vp = p_viol[best_p] if k else -np.inf
            vr = r_viol[best_r] if m else -np.inf
            if vp <= opt_eps and vr <= ray_eps:
                return as_vector(y), float(np.linalg.norm(resid))
            # enter the larger violation, a ray only past its own threshold
            if vr <= ray_eps or (vp > opt_eps and vp >= vr):
                active_p.append(best_p)
                weights = np.concatenate([weights[: len(active_p) - 1], [0.0], weights[len(active_p) - 1 :]])
            else:
                active_r.append(best_r)
                weights = np.concatenate([weights, [0.0]])
        else:
            # restore feasibility: move toward target until a variable hits zero
            cur = weights
            delta = target - cur
            blockers = np.flatnonzero(target < -1e-13)
            steps = cur[blockers] / (cur[blockers] - target[blockers])
            j = int(blockers[np.argmin(steps)])
            theta = float(steps.min())
            weights = cur + theta * delta
            weights[j] = 0.0
            sp = len(active_p)
            if j < sp:
                if sp == 1:
                    raise ValidationError("active-set degeneracy: cannot drop last vertex")
                del active_p[j]
            else:
                del active_r[j - sp]
            weights = np.delete(weights, j)
    raise ValidationError("projection active-set did not converge")


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

def dedupe_rows_within(rows: np.ndarray, tol: float) -> np.ndarray:
    """Lex-sort rows and drop any within tol of an earlier kept row.

    Sorted rows i < j are within tol when their Euclidean row norm is at most
    tol and x_i[0] >= x_j[0] - tol in floating point; the second test only
    matters within an ulp of tol, and keeps the result that of scanning a
    sorted first-coordinate window. Exact repeats of the previous row go
    first, a KD-tree lists candidate pairs within a slightly widened radius,
    both tests confirm them, and rows are kept greedily in sorted order."""
    rows = np.atleast_2d(rows)
    srt = rows[lexsort_rows(rows)]
    if len(srt) > 1:
        srt = srt[np.r_[True, np.any(srt[1:] != srt[:-1], axis=1)]]
    if len(srt) < 2:
        return srt
    from scipy.spatial import cKDTree

    i, j = cKDTree(srt).query_pairs(tol * (1.0 + _KD_MARGIN), output_type="ndarray").T
    close = (np.linalg.norm(srt[i] - srt[j], axis=1) <= tol) & (srt[i, 0] >= srt[j, 0] - tol)
    i, j = i[close], j[close]
    order = np.lexsort((i, j))
    i, j = i[order], j[order]
    keep = np.ones(len(srt), dtype=bool)
    starts = np.flatnonzero(np.r_[True, j[1:] != j[:-1]])
    for lo, hi in zip(starts, np.r_[starts[1:], len(j)]):
        if keep[i[lo:hi]].any():
            keep[j[lo]] = False
    return srt[keep]


def _affine_basis(pts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (center, basis of affine hull, basis of orthogonal complement)."""
    center = pts.mean(axis=0)
    centered = pts - center
    _, svals, vt = np.linalg.svd(centered, full_matrices=True)
    scale = max(1.0, float(np.abs(pts).max(initial=0.0)))
    thresh = max(tol, 1e-12 * scale)
    rank = int(np.sum(svals > thresh)) if svals.size else 0
    return center, vt[:rank].T, vt[rank:].T


def _extreme_candidates(pts: np.ndarray, tol: float) -> np.ndarray:
    """Cheap prefilter for extreme points (exact hull engine where possible)."""
    if len(pts) <= 2:
        return pts
    center, basis, _ = _affine_basis(pts, tol)
    d = basis.shape[1]
    if d == 0:
        return pts[:1]
    coords = (pts - center) @ basis
    if d == 1:
        lo = int(np.argmin(coords[:, 0]))
        hi = int(np.argmax(coords[:, 0]))
        return pts[[lo, hi]] if lo != hi else pts[[lo]]
    if len(pts) <= d + 1:
        return pts
    try:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(coords)
        return pts[np.sort(hull.vertices)]
    except Exception:
        return pts


def _minimal_vertices(pts: np.ndarray, tol: float) -> np.ndarray:
    pts = dedupe_rows_within(pts, tol)
    cand = _extreme_candidates(pts, tol)
    kept = [np.asarray(r, dtype=float) for r in cand]
    i = 0
    while len(kept) > 1 and i < len(kept):
        others = np.array(kept[:i] + kept[i + 1 :])
        _, dist = project_onto_generated_set(others, None, kept[i])
        if dist <= tol:
            del kept[i]
        else:
            i += 1
    out = np.array(kept)
    return out[lexsort_rows(out)]


@dataclass(frozen=True, eq=False)
class Polytope:
    """V-representation polytope; the vertex list is reduced to a minimal one
    (lexicographically sorted) at construction."""

    vertices: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vertices, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("polytope needs a nonempty list of vertices")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("polytope vertices must be finite")
        arr = _minimal_vertices(arr, DEFAULT_TOL.eq_tol)
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def _facet_data(self):
        """(center, basis, complement, equations) with equations in the reduced
        coordinates; equations is None when the reduced hull is 0/1 dimensional."""
        center, basis, comp = _affine_basis(self.vertices, DEFAULT_TOL.eq_tol)
        d = basis.shape[1]
        if d < 2:
            return center, basis, comp, None
        from scipy.spatial import ConvexHull

        coords = (self.vertices - center) @ basis
        hull = ConvexHull(coords)
        return center, basis, comp, hull.equations

    def contains_batch(self, xs: np.ndarray, tol: float) -> np.ndarray:
        """Vectorized membership mask (within tol) for a batch of points."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        center, basis, comp, eqs = self._facet_data
        centered = xs - center
        ok = np.ones(len(xs), dtype=bool)
        if comp.shape[1]:
            off = rowwise_matmul(centered, comp)
            ok &= np.max(np.abs(off), axis=1) <= tol
        d = basis.shape[1]
        if d == 0:
            return ok
        coords = rowwise_matmul(centered, basis)
        if d == 1:
            vals = (self.vertices - center) @ basis
            lo, hi = float(vals.min()), float(vals.max())
            ok &= (coords[:, 0] >= lo - tol) & (coords[:, 0] <= hi + tol)
            return ok
        resid = rowwise_matmul(coords, eqs[:, :-1].T) + eqs[:, -1]
        ok &= np.max(resid, axis=1) <= tol
        return ok

    def contains(self, x: Vector, tol: float) -> bool:
        return bool(self.contains_batch(as_vector(x, dim=self.dim)[None, :], tol)[0])

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()})"


def conv_hull(points) -> Polytope:
    """Minimal V-representation of the convex hull of finitely many points."""
    pts = [as_vector(p) for p in _iter_points(points)]
    if not pts:
        raise ValidationError("convex hull of an empty point set")
    dim = pts[0].size
    for p in pts:
        if p.size != dim:
            raise DimensionMismatchError("hull points have mixed dimensions")
    return Polytope(np.array(pts))


def _iter_points(points):
    if isinstance(points, Polytope):
        return list(points.vertices)
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 2:
        return list(arr)
    return list(points)


def dist_to_polytope(z: Vector, p: Polytope, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, Vector]:
    """Distance from z to the polytope and the unique nearest point."""
    z = as_vector(z, dim=p.dim)
    proj, dist = project_onto_generated_set(p.vertices, None, z)
    return dist, proj


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo, hi] (lo <= hi componentwise; equality allowed)."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, dim=lo.size)
        if np.any(lo > hi):
            raise ValidationError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def project_batch(self, ws: np.ndarray) -> np.ndarray:
        return np.clip(ws, self.lo, self.hi)

    def contains(self, x: Vector, tol: float) -> bool:
        x = as_vector(x, dim=self.dim)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def to_polytope(self) -> Polytope:
        corners = np.array(list(itertools.product(*zip(self.lo, self.hi))))
        return Polytope(corners)


def hausdorff(s, t) -> float:
    """Hausdorff distance between two finite point sets."""
    sa = np.atleast_2d(np.array([as_vector(p) for p in _iter_points(s)]))
    ta = np.atleast_2d(np.array([as_vector(p) for p in _iter_points(t)]))
    if sa.size == 0 or ta.size == 0:
        raise ValidationError("hausdorff of an empty point set")
    if sa.shape[1] != ta.shape[1]:
        raise DimensionMismatchError("point sets have mixed dimensions")
    d = np.linalg.norm(sa[:, None, :] - ta[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def separate(z: Vector, p: Polytope, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Vector, float]:
    """Unit functional y0* and margin delta with <y0*, z - b> > delta on all of P.

    Uses the projection direction: y0* = (z - proj)/||z - proj||, delta = dist/2.
    """
    z = as_vector(z, dim=p.dim)
    dist, proj = dist_to_polytope(z, p, tol)
    if dist <= tol.eq_tol:
        raise NotSeparableError(f"point at distance {dist:.3e} from the polytope")
    y0 = as_vector((z - proj) / dist)
    delta = dist / 2.0
    gaps = (z - p.vertices) @ y0
    if gaps.min() <= delta:
        raise ValidationError("separation margin failed on a vertex")
    return y0, delta


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform axis-aligned lattice with a hard cap on the node count."""

    lower: Vector
    upper: Vector
    spacing: float
    cap: int = field(default=DEFAULT_TOL.budget)

    def __post_init__(self):
        lo = as_vector(self.lower)
        hi = as_vector(self.upper, dim=lo.size)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "spacing", float(self.spacing))
        if self.spacing <= 0:
            raise ValidationError("grid spacing must be positive")
        if np.any(lo >= hi):
            raise ValidationError("grid requires lower < upper componentwise")
        if self.count > self.cap:
            raise ValidationError(f"grid has {self.count} nodes, exceeding cap {self.cap}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        axes = []
        for lo, hi in zip(self.lower, self.upper):
            m = int(np.floor((hi - lo) / self.spacing + 1e-9))
            axes.append(lo + self.spacing * np.arange(m + 1))
        return tuple(axes)

    @property
    def count(self) -> int:
        return int(np.prod([len(a) for a in self._axes]))

    def nodes(self) -> np.ndarray:
        """All lattice nodes in lexicographic order (first axis is primary)."""
        mesh = np.meshgrid(*self._axes, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=1)
        out.setflags(write=False)
        return out

    def scaled(self, extent: float = 2.0, coarsen: float = 2.0) -> "Grid":
        """Grid stretched about its center, with the spacing coarsened."""
        center = (self.lower + self.upper) / 2.0
        half = (self.upper - self.lower) / 2.0
        return Grid(center - extent * half, center + extent * half, self.spacing * coarsen, cap=self.cap)
