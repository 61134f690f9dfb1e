"""Euclidean substrate: vectors, polytopes, grids, tolerances, and separation.

Everything here is desk scale (dimensions up to ~4, vertex counts in the
hundreds) and pure: values are immutable after construction and all
operations are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NotSeparableError, ValidationError

Vector = np.ndarray

_LEX_TIE_EPS = 1e-13
_KD_MARGIN = 1e-6  # relative widening of the KD-tree radius; exact norms confirm
_FACE_SLACK = 1e-13  # optimality slack of Polytope.project_batch, per unit of row scale


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself, no longer writeable."""
    arr.setflags(write=False)
    return arr


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
    return read_only(arr)


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected {dim}x{dim} matrix, got {arr.shape}")
    return read_only(arr)


def dot(x: Vector, y: Vector) -> float:
    """Standard inner product; the only pairing used at desk scale."""
    x = as_vector(x)
    y = as_vector(y, dim=x.size)
    return float(np.dot(x, y))


def rowwise_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B summed in a fixed order, so each output row depends on its own input
    row alone; BLAS may pick another kernel, and other roundings, by row count.
    A (k, n, m) B gives row i its own matrix B[i]."""
    out = A[:, :1] * B[..., 0, :] if A.shape[1] else np.zeros((len(A), B.shape[-1]))
    for j in range(1, A.shape[1]):
        out += A[:, j : j + 1] * B[..., j, :]
    return out


def rowwise_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.dot of matching rows of A and B (leading axes broadcast): one BLAS
    dot per row, so each value has the rounding of its one-row np.dot."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def rounding_margin(C, n: int):
    """2 gamma_{2n+3} C plus 4n smallest subnormals, gamma_m = m u / (1 - m u)
    with unit roundoff u: the widening by which the exact gates turn C, an
    a-priori bound on the magnitudes of a sum of at most 2n + 2 products of
    n-vector entries, into a bound on what floats compute (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., §3.1). operators._gate_limit
    and the sampled kernel's _unbounded_rows say why it suffices for each."""
    m, u = 2 * n + 3, np.finfo(float).eps / 2
    return 2.0 * (m * u / (1.0 - m * u)) * C + 4 * n * np.finfo(float).smallest_subnormal


def lexsort_rows(rows: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first coordinate is primary)."""
    rows = np.atleast_2d(rows)
    return np.lexsort(rows.T[::-1])


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric policy: equality slack, infinity threshold, rank slack, budgets."""

    eq_tol: float = 1e-9
    inf_threshold: float = 1e8
    rank_tol: float = 1e-8
    budget: int = 100_000

    def __post_init__(self):
        for f in fields(self):  # each a positive Python scalar of its default's type
            try:
                value = type(f.default)(getattr(self, f.name))
            except (TypeError, ValueError, OverflowError) as e:
                raise ValidationError(f"{f.name}: {e}") from e
            if not 0 < value < math.inf:
                raise ValidationError(f"{f.name} must be finite and strictly positive")
            object.__setattr__(self, f.name, value)
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

    def __repr__(self):
        return f"PairPoint({self.primal.tolist()}, {self.dual.tolist()})"


def pair(primal, dual) -> PairPoint:
    return PairPoint(primal, dual)


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
    reach = max(1.0, float(np.abs(pts).max(initial=0.0)))
    scale = max(reach, float(np.linalg.norm(v)))
    # a point violation pairs the residual, O(scale), with a difference of two
    # points, O(reach); a ray violation pairs it with a unit ray. Both
    # thresholds are linear in scale: one quadratic in scale would accept a
    # far v's nearest vertex where its projection is inside an edge
    opt_eps = 1e-11 * scale * reach
    ray_eps = 1e-11 * scale

    # start from the lexicographically-smallest nearest vertex
    d2 = np.einsum("ij,ij->i", pts - v, pts - v)
    near = np.flatnonzero(d2 <= d2.min() + _LEX_TIE_EPS)
    start = int(near[lexsort_rows(pts[near])[0]])

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


def _flat_tol(pts: np.ndarray, tol: float) -> float:
    """The extent below which a direction of pts is flat: ``_affine_basis``
    drops it, and ``contains_batch`` holds points that far off it."""
    return max(tol, 1e-12 * max(1.0, float(np.abs(pts).max(initial=0.0))))


def _affine_basis(pts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (center, basis of affine hull, basis of orthogonal complement)."""
    center = pts.mean(axis=0)
    centered = pts - center
    # the complement needs every row of vt, which the thin form drops when k < n
    _, svals, vt = np.linalg.svd(centered, full_matrices=len(pts) < pts.shape[1])
    rank = int(np.sum(svals > _flat_tol(pts, tol))) if svals.size else 0
    return center, vt[:rank].T, vt[rank:].T


def _minimal_vertices(pts: np.ndarray, tol: float) -> np.ndarray:
    """The vertices of conv(pts), lexicographically sorted: after the tolerance
    dedupe, in the reduced coordinates of ``_affine_basis``, the two ends of a
    segment, every point when there are at most d + 1, else Qhull's vertex list
    (Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996)."""
    from scipy.spatial import ConvexHull

    pts = dedupe_rows_within(pts, tol)
    center, basis, _ = _affine_basis(pts, tol)
    coords = (pts - center) @ basis
    d = basis.shape[1]
    if d == 0:
        keep = [0]
    elif d == 1:
        keep = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
    elif len(pts) <= d + 1:
        keep = slice(None)
    else:
        keep = ConvexHull(coords).vertices
    out = pts[keep]
    return out[lexsort_rows(out)]


@dataclass(frozen=True, eq=False)
class Polytope:
    """A polytope as Qhull's table: its vertices (``_minimal_vertices``,
    lexicographically sorted) and, built on first use, its facets
    (``_facets``), which membership, projection and the normal cone all read."""

    vertices: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vertices, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("polytope needs a nonempty list of vertices")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", read_only(_minimal_vertices(arr, DEFAULT_TOL.eq_tol)))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def _facets(self):
        """(center, basis, comp, A, b, incident). center + span(basis) is the
        affine hull, comp spans its orthogonal complement, and A y + b <= 0 are
        the facets in the reduced coordinates y = (x - center) @ basis, with
        unit normals: none for a point, [[1], [-1]] for a segment, else Qhull's.
        Qhull splits a non-simplicial facet into coplanar simplices; they are
        merged to one row per vertex-incidence pattern, so each facet appears
        once. incident[i, j] says vertex i lies on facet j."""
        from scipy.spatial import ConvexHull

        V = self.vertices
        center, basis, comp = _affine_basis(V, DEFAULT_TOL.eq_tol)
        coords = (V - center) @ basis
        d = basis.shape[1]
        if d == 0:
            A, b = np.zeros((0, 0)), np.zeros(0)
        elif d == 1:
            A, b = np.array([[1.0], [-1.0]]), np.array([-coords.max(), coords.min()])
        else:
            eqs = ConvexHull(coords).equations
            A, b = eqs[:, :-1], eqs[:, -1]
        # a vertex sits on a facet up to rounding; a looser test would merge two
        # facets through a vertex that is only nearly flat, and lose both edges
        incident = np.abs(coords @ A.T + b) <= 1e-12 * (1.0 + float(np.abs(V).max()))
        _, first = np.unique(incident.T, axis=0, return_index=True)
        keep = np.sort(first)
        return center, basis, comp, A[keep], b[keep], incident[:, keep]

    @cached_property
    def _faces(self) -> tuple:
        """Each face once, points first, then by dimension: a point face is its
        vertex index, the whole polytope is None when it is full-dimensional,
        and any other face is (anchor, orthonormal basis) of its affine hull.
        A face is the intersection of at most d facets through one of its
        vertices, so the subsets of each vertex's facets in ``_facets`` find
        every face."""
        V = self.vertices
        _, basis, _, _, _, incident = self._facets
        d = basis.shape[1]
        found = {tuple(range(len(V)))}
        for row in incident:
            on = np.flatnonzero(row).tolist()
            for s in range(1, min(d, len(on)) + 1):
                for S in itertools.combinations(on, s):
                    found.add(tuple(np.flatnonzero(incident[:, list(S)].all(axis=1)).tolist()))
        faces = []
        for face in found:
            if len(face) == 1:
                faces.append((0, face, face[0]))
                continue
            anchor, fb, _ = _affine_basis(V[list(face)], DEFAULT_TOL.eq_tol)
            faces.append((fb.shape[1], face, None if fb.shape[1] == self.dim else (anchor, fb)))
        faces.sort(key=lambda f: f[:2])
        return tuple(place for _, _, place in faces)

    def project_batch(self, ws: np.ndarray) -> np.ndarray:
        """Nearest point of the polytope to each row of ws, by face enumeration.

        Each face, points first, projects all unresolved rows onto its affine
        hull at once; a row takes the first face where that point x is in the
        polytope and w - x is in its normal cone:
        a.y(x) + b <= slack for every facet, and
        <w - x, v - x> <= slack * (pad + |v - x|) for every vertex v,
        with slack = 1e-13 * max(1, |w|_inf, |V|_inf) for that row alone. A
        vertex x is exact, so its pad is 0; a computed x is off its face by
        rounding of order max(1, |V|_inf), its pad. No multiplier is solved
        for, so a thin normal cone costs no accuracy. A point face returns its
        vertex bit for bit and the full-dimensional interior returns w. Every
        product is a ``rowwise_matmul`` or a per-coordinate sum, so a row's
        result does not depend on its batch."""
        W = np.atleast_2d(np.asarray(ws, dtype=float))
        V = self.vertices
        center, basis, _, A, b, _ = self._facets
        reach = max(1.0, float(np.abs(V).max()))
        slack = _FACE_SLACK * np.maximum(np.abs(W).max(axis=1), reach)
        out = np.empty_like(W)
        todo = np.arange(len(W))
        for place in self._faces:
            w, tol = W[todo], slack[todo]
            ok = np.ones(len(todo), dtype=bool)
            pad = 0.0
            if isinstance(place, int):
                x = np.broadcast_to(V[place], w.shape)
            else:
                pad = reach
                if place is None:
                    x = w
                else:
                    anchor, fb = place
                    x = anchor + rowwise_matmul(rowwise_matmul(w - anchor, fb), fb.T)
                y = rowwise_matmul(x - center, basis)
                ok &= (rowwise_matmul(y, A.T) + b).max(axis=1) <= tol
            r = w - x
            to_v = [V[:, i] - x[:, i, None] for i in range(W.shape[1])]
            gap = sum(t * r[:, i, None] for i, t in enumerate(to_v))
            ok &= np.all(gap <= tol[:, None] * (pad + np.sqrt(sum(t * t for t in to_v))), axis=1)
            out[todo[ok]] = x[ok]
            todo = todo[~ok]
            if not len(todo):
                return out
        raise ValidationError(f"polytope projection left {len(todo)} rows unresolved")

    def contains_batch(self, xs: np.ndarray, tol: float) -> np.ndarray:
        """Rows within ``_flat_tol`` of the affine hull (along comp) and with
        max(A y + b) <= tol over the facets of ``_facets``; every product is a
        ``rowwise_matmul``, so a row's result does not depend on its batch."""
        center, basis, comp, A, b, _ = self._facets
        centered = np.atleast_2d(np.asarray(xs, dtype=float)) - center
        off = np.abs(rowwise_matmul(centered, comp)).max(axis=1, initial=0.0)
        out = (rowwise_matmul(rowwise_matmul(centered, basis), A.T) + b).max(axis=1, initial=-np.inf)
        return (off <= _flat_tol(self.vertices, tol)) & (out <= tol)

    def contains(self, x: Vector, tol: float) -> bool:
        return bool(self.contains_batch(as_vector(x, dim=self.dim)[None, :], tol)[0])

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()})"


def conv_hull(points) -> Polytope:
    """The convex hull of finitely many points (a flat list: points of R^1) as
    a ``Polytope``, validated as one array, not point by point."""
    try:
        arr = np.array(_iter_points(points), dtype=float)
    except ValueError:
        if len({np.size(p) for p in points}) > 1:
            raise DimensionMismatchError("hull points have mixed dimensions") from None
        raise
    if arr.size == 0:
        raise ValidationError("convex hull of an empty point set")
    if not np.isfinite(arr).all():
        raise ValidationError("vector has non-finite coordinates")
    return Polytope(arr[:, None] if arr.ndim == 1 else arr)


def _iter_points(points):
    arr = points.vertices if isinstance(points, Polytope) else np.asarray(points, dtype=float)
    return arr if arr.ndim == 2 else list(points)


def dist_to_polytope(z: Vector, p: Polytope) -> tuple[float, Vector]:
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

    def to_polytope(self) -> Polytope:
        corners = np.array(list(itertools.product(*zip(self.lo, self.hi))))
        return Polytope(corners)


def hausdorff(s, t) -> float:
    """Hausdorff distance between finite point sets (a flat list: points of R^1).
    Each point within a KD-tree nearest distance, widened by _KD_MARGIN, is measured
    again by the norm of the difference, so the value is the full distance table's."""
    from scipy.spatial import cKDTree

    sa, ta = (np.array(_iter_points(p), dtype=float) for p in (s, t))
    if sa.size == 0 or ta.size == 0:
        raise ValidationError("hausdorff of an empty point set")
    sa, ta = sa.reshape(len(sa), -1), ta.reshape(len(ta), -1)
    if not (np.isfinite(sa).all() and np.isfinite(ta).all()):
        raise ValidationError("vector has non-finite coordinates")
    if sa.shape[1] != ta.shape[1]:
        raise DimensionMismatchError("point sets have mixed dimensions")
    far = 0.0
    for a, b in ((sa, ta), (ta, sa)):
        tree = cKDTree(b)
        near = tree.query_ball_point(a, tree.query(a)[0] * (1.0 + _KD_MARGIN))
        counts = [len(js) for js in near]
        d = np.linalg.norm(np.repeat(a, counts, axis=0) - b[np.concatenate(near)], axis=1)
        far = max(far, np.minimum.reduceat(d, np.cumsum(counts) - counts).max())
    return float(far)


def separate(z: Vector, p: Polytope, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Vector, float]:
    """Unit functional y0* and margin delta with <y0*, z - b> > delta on all of P.

    Uses the projection direction: y0* = (z - proj)/||z - proj||, delta = dist/2.
    """
    z = as_vector(z, dim=p.dim)
    dist, proj = dist_to_polytope(z, p)
    if dist <= tol.eq_tol:
        raise NotSeparableError(f"point at distance {dist:.3e} from the polytope")
    y0 = as_vector((z - proj) / dist)
    delta = dist / 2.0
    gaps = (z - p.vertices) @ y0
    if gaps.min() <= delta:
        raise ValidationError("separation margin failed on a vertex")
    return y0, delta


def _compact_count(count) -> str:
    """count in full up to 12 digits, else in e-notation, or as a power of ten
    past the float range: str() of an int past 4300 digits raises."""
    if count < 10**12:
        return str(count)
    try:
        return f"{float(count):.2e}"
    except OverflowError:
        return f"10^{math.log10(count):.1f}"


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
        if not (0 < self.spacing < math.inf):
            raise ValidationError("grid spacing must be finite and positive")
        if np.any(lo >= hi):
            raise ValidationError("grid requires lower < upper componentwise")
        with np.errstate(over="ignore"):  # nodes per axis in Python ints (no wrap), or inf
            steps = np.floor((hi - lo) / self.spacing + 1e-9)
        object.__setattr__(self, "_lengths", tuple(int(m) + 1 if m < np.inf else m for m in steps))
        if self.count > self.cap:
            raise ValidationError(f"grid has {_compact_count(self.count)} nodes, exceeding cap {self.cap}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def count(self) -> int:
        return math.prod(self._lengths)

    def axes(self) -> tuple[np.ndarray, ...]:
        """The nodes' coordinates along each axis, lower + spacing * arange(m)."""
        return tuple(lo + self.spacing * np.arange(m) for lo, m in zip(self.lower, self._lengths))

    def nodes(self) -> np.ndarray:
        """All lattice nodes in lexicographic order (first axis is primary)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return read_only(np.stack([m.ravel() for m in mesh], axis=1))

    def scaled(self, extent: float = 2.0, coarsen: float = 2.0) -> "Grid":
        """Grid stretched about its center, with the spacing coarsened."""
        center = (self.lower + self.upper) / 2.0
        half = (self.upper - self.lower) / 2.0
        return Grid(center - extent * half, center + extent * half, self.spacing * coarsen, cap=self.cap)
