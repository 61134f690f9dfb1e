"""Operator zoo: finite graphs, monotone linear maps, subdifferentials, normal
cones, duality maps, and the shift/perturbation combinators, with Minty
resolvent sampling as the universal bridge to finite graphs.

Set-valued images ("fibers") carry an explicit ``exact`` flag: polyhedral
fibers (normal cones, box subdifferentials) are represented exactly as
points + cone(rays); the only nonpolyhedral fiber at desk scale, the ball of
the p=1 duality map within eq_tol of its center, is boundary-sampled and
flagged inexact, although membership against it is still tested exactly.

A box normal cone is the subdifferential of the box's indicator,
N_box = d(iota_box), the duality map is J_p(. - c) = d(|. - c|^p / p)
(Asplund), and A + lam J_p(. - c) = d(f + lam |. - c|^p / p) when A = df. So
``_subdiff_of`` names every subdifferential once, and ``fiber``,
``membership_batch`` and ``resolvent_batch`` read them all from one rule,
``_subdiff_rows``, which takes a ``Box`` as its indicator.

Points are rows of (k, n) float arrays; a ``PairPoint`` is built only for a
witness or at a one-point entry (``membership``, or ``fiber``, which alone
validates its point).

``graph_sample`` drops the pairs within eq_tol of an earlier one by the
tolerance dedupe, unless the grid's spacing proves that no two are that close;
then it only sorts them. With verify=True it passes every Minty sample through
two exact gates, neither sampled down: ``membership_batch`` tests x* in A(x)
for every pair, a subdifferential by a closed-form distance to its image, and
the monotonicity gate has two routes, each exact. Where A = M. + c + N_B
with B a box, a polytope or R^n (``cone_form``: linear maps, quadratic-plus-box
subdifferentials, box and polytope normal cones, J_2, and their shifts and
p = 2 perturbations), ``_residual_certificate`` bounds every pairwise product
from the rows' residuals s - Mx - c off the normal cone, in O(k n^2) work (and
O(k m) for a polytope of m vertices) and no k x k table. Otherwise, or when
that bound does not clear the threshold, ``monotone_check`` computes the upper
triangle of the pairwise products in cache-sized tiles, one matmul each, and
rescans the full square from the first row block it flags. Both test against
one threshold, ``_gate_limit``, widened by an a-priori rounding bound. Each
docstring says why the verdict, and the witness, are exact.
"""

from __future__ import annotations

import itertools
import weakref
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
    conv_hull,
    dedupe_rows_within,
    lexsort_rows,
    project_onto_generated_set,
    read_only,
    rounding_margin,
    rowwise_dot,
    rowwise_matmul,
)

_BALL_SAMPLES = 64
_GATE_TILE = 1 << 16  # floats in one tile of the monotonicity gate (512 KB)


# ---------------------------------------------------------------------------
# Finite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class FiniteGraph:
    """Finitely many primal-dual pairs; the universal sampled representation.

    Row i of the read-only (k, n) arrays ``primals`` and ``duals`` is the pair
    (x_i, x_i*); ``pair(i)`` builds it as a PairPoint when a witness needs one.
    ``from_arrays`` is the one constructor; ``_sample`` is ``Sample.on``'s slot.
    """

    primals: np.ndarray
    duals: np.ndarray
    self_products: np.ndarray = field(repr=False)
    _sample: Union["Sample", weakref.ref, None] = field(default=None, repr=False)

    @classmethod
    def from_arrays(cls, primals: np.ndarray, duals: np.ndarray) -> "FiniteGraph":
        return cls.__new__(cls)._store(primals, duals)

    def _store(self, primals, duals, deduped=False):
        """The one validation every graph passes: nonempty, matching (k, n) shapes,
        finite, and no two pairs within DEFAULT_TOL.eq_tol. Rows ``deduped`` at a
        tol >= DEFAULT_TOL.eq_tol skip that test, which they pass: graph_sample's
        come from ``dedupe_rows_within`` or are proven to be its output, and each
        of its two closeness tests only tightens as tol falls."""
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
        if not deduped and len(dedupe_rows_within(np.hstack([X, S]), DEFAULT_TOL.eq_tol)) < len(X):
            raise ValidationError("duplicate graph pairs within tolerance")
        d = np.einsum("ij,ij->i", X, S)
        for name, arr in (("primals", X), ("duals", S), ("self_products", d)):
            object.__setattr__(self, name, read_only(arr))
        return self

    @property
    def dim(self) -> int:
        return self.primals.shape[1]

    def __len__(self):
        return len(self.primals)

    def pair(self, i: int) -> PairPoint:
        return PairPoint(self.primals[i], self.duals[i])


def _block_rows(k: int, m: int) -> int:
    """Rows per block when k rows are paired with m graph pairs: about 4e6
    products a block."""
    return max(1, min(k, 4_000_000 // max(m, 1) + 1))


def pairwise_product_blocks(X: np.ndarray, S: np.ndarray, d: np.ndarray, g: FiniteGraph):
    """Yield (i0, P) over row blocks, P[i, j] = <X_i - a_j, S_i - a_j*> for
    rows i0 + i of (X, S) with self-pairings d and graph pairs (a_j, a_j*)."""
    k = len(X)
    block = _block_rows(k, len(g))
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
    """f(x) = 0.5 x'Qx + b'x with Q symmetric PSD; b is zeros by default."""

    Q: np.ndarray
    b: Optional[Vector] = None

    def __post_init__(self):
        q = as_matrix(self.Q)
        b = as_vector(np.zeros(len(q)) if self.b is None else self.b, dim=len(q))
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValidationError("quadratic matrix must be symmetric")
        if np.linalg.eigvalsh(q).min() < -DEFAULT_TOL.rank_tol:
            raise ValidationError("quadratic matrix must be positive semidefinite")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "b", b)


BoxIndicator = Box  # a box is read as its indicator wherever a function spec is expected


@dataclass(frozen=True, eq=False)
class NormPower:
    """f(x) = scale * (1/p) ||x||^p, p >= 1."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "scale", float(self.scale))
        if not 1.0 <= self.p < np.inf:
            raise ValidationError("norm power requires a finite p >= 1")
        if not 0 < self.scale < np.inf:
            raise ValidationError("norm power scale must be finite and positive")


@dataclass(frozen=True, eq=False)
class TranslatedNormPower:
    """f(x) = scale * (1/p) ||x - center||^p."""

    p: float
    scale: float
    center: Vector

    def __post_init__(self):
        NormPower.__post_init__(self)  # p and scale as a norm power's
        object.__setattr__(self, "center", as_vector(self.center))


@dataclass(frozen=True, eq=False)
class FunSum:
    """Pointwise sum of function specs (proper: box domains must intersect)."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValidationError("empty function sum")
        boxes = [p for p in parts if isinstance(p, Box)]
        if boxes:
            lo = np.max([b.lo for b in boxes], axis=0)
            hi = np.min([b.hi for b in boxes], axis=0)
            if np.any(lo > hi):
                raise ValidationError("function sum has empty domain (disjoint boxes)")
        object.__setattr__(self, "parts", parts)


FunSpec = Union[Quadratic, Box, NormPower, TranslatedNormPower, FunSum]


def fun_dimension(fun: FunSpec) -> Optional[int]:
    if isinstance(fun, Quadratic):
        return fun.b.size
    if isinstance(fun, Box):
        return fun.dim
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


def _solve_rows(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Row i solves H x = G[i], or H[i] x = G[i] for a (k, n, n) H. G as a
    stack of (n, 1) matrices broadcasts H and solves one right-hand side per
    row, so each row is its one-row result bit for bit, whatever its batch."""
    return np.linalg.solve(H, G[:, :, None])[:, :, 0]


def _box_qp_batch(H: np.ndarray, G: np.ndarray, lo: Vector, hi: Vector) -> np.ndarray:
    """Minimize 0.5 x'Hx - g'x over the box, one row of G per problem.

    H is SPD, (n, n) or one per row. Each block b of H (``_blocks``: the
    connected components of its nonzero pattern, while none has more than two
    coordinates) enumerates its own 3^|b| active-bound patterns in
    ``itertools.product`` order, and each row takes its first valid one, so
    the result is deterministic and exact. Each row's KKT slack scales with
    that whole row alone, so neither its batch nor its block moves it.

    Exactness. With H block diagonal, a pattern's candidate, its gradient and
    its validity test on block b read only the coordinates in b, up to added
    exact zeros: with at most two coordinates a block, each right-hand side
    sums at most one nonzero product, the LU solve pivots and eliminates
    within each block, and the gradient sums the block's terms in the whole
    box's order. So every value agrees, and a comparison does not see the
    sign of a zero: the valid patterns of the whole box are the product of
    the blocks' valid patterns, and the lexicographically first element of a
    product set is the product of its factors' first elements, so every row
    takes the pattern of the one enumeration of all 3^n patterns. Its bits
    agree too. In round to nearest, a - b is -0 only when a is -0 and b is +0,
    and a + b only when both are -0, so a running sum that does not start at
    -0 never becomes -0, whatever zeros it adds: each result has the same sign
    whichever zeros the other blocks add. The sums start at G's entries, so a
    row with a -0.0 in G takes the enumeration of the whole box. A dense H is
    one block and runs that enumeration."""
    k, n = G.shape
    scale = np.maximum(np.abs(G).max(axis=1, initial=1.0), np.abs(H).max(axis=(-2, -1)))
    X = np.zeros((k, n))
    blocks = _blocks(H)
    signed = (np.signbit(G) & (G == 0.0)).any(axis=1) & (len(blocks) > 1)  # rows with a -0.0
    for rows, parts in ((~signed, blocks), (signed, [np.arange(n)])):
        if rows.any():
            Hr = H[rows] if H.ndim == 3 else H
            for b in parts:
                X[np.ix_(rows, b)] = _box_qp_block(
                    Hr[..., b[:, None], b], G[np.ix_(rows, b)], lo[b], hi[b], 1e-10 * scale[rows])
    return X


def _blocks(H: np.ndarray) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of H, or of the union of
    the patterns of a stacked (k, n, n) H, as sorted indices by first index,
    when none has more than two coordinates; else the whole box as one block.
    Right-hand sides and gradients sum in one fixed order (``rowwise_matmul``),
    where added zeros change nothing, but the LU solve of a block of three or
    more would eliminate two or more nonzero products into one entry, and
    LAPACK may order that sum by the size of the matrix it factors."""
    n = H.shape[-1]
    link = (H != 0).reshape(-1, n, n).any(axis=0)
    link |= link.T | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # paths of up to 2^(bit length) >= n steps
        link = link @ link
    if link.sum(axis=1).max() > 2:
        return [np.arange(n)]
    return [np.flatnonzero(row) for i, row in enumerate(link) if not row[:i].any()]


def _box_qp_block(H: np.ndarray, G: np.ndarray, lo: Vector, hi: Vector, slack: np.ndarray) -> np.ndarray:
    """``_box_qp_batch`` on one block: every pattern of its box in order, each
    row's first valid one, with the rows' KKT slacks given."""
    k, n = G.shape
    X = np.zeros((k, n))
    todo = np.arange(k)  # rows no earlier pattern resolved; only these are solved
    for pattern in itertools.product((0, 1, 2), repeat=n):
        free = [i for i, s in enumerate(pattern) if s == 0]
        fixed = [i for i, s in enumerate(pattern) if s != 0]
        xb = np.array([lo[i] if pattern[i] == 1 else hi[i] for i in fixed])
        Gt, Ht, ktol = G[todo], H[todo] if H.ndim == 3 else H, slack[todo]
        cand = np.zeros((len(todo), n))
        for idx, i in enumerate(fixed):
            cand[:, i] = xb[idx]
        if free:
            rhs = Gt[:, free] - rowwise_matmul(cand[:, fixed], Ht[..., fixed, :][..., free])
            cand[:, free] = _solve_rows(Ht[..., free, :][..., free], rhs)
        grad = rowwise_matmul(cand, Ht) - Gt
        valid = np.ones(len(todo), dtype=bool)
        for i in free:
            valid &= (cand[:, i] >= lo[i] - ktol) & (cand[:, i] <= hi[i] + ktol)
        for i in fixed:
            if pattern[i] == 1:
                valid &= grad[:, i] >= -ktol
            else:
                valid &= grad[:, i] <= ktol
        X[todo[valid]] = cand[valid]
        todo = todo[~valid]
        if not len(todo):
            return X
    raise ValidationError("box quadratic subproblem left unresolved rows")


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
        elif isinstance(part, Box):
            boxes.append(part)
        else:
            return None
    if not boxes:
        return A, a, None
    lo = np.max([b.lo for b in boxes], axis=0)
    hi = np.min([b.hi for b in boxes], axis=0)
    return A, a, Box(lo, hi)


def fun_prox_batch(fun: FunSpec, W: np.ndarray, step, tol: ToleranceConfig) -> np.ndarray:
    """prox_{step*f}(w) for each row w of W, step a scalar or one per row: s puts
    row i's step on row i, and s[..., None] * H is one (n, n) H for a scalar."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    (k, dim), s = W.shape, np.asarray(step)[..., None]
    if isinstance(fun, Quadratic):
        return _solve_rows(np.eye(dim) + s[..., None] * fun.Q, W - s * fun.b)
    if isinstance(fun, Box):
        return np.clip(W, fun.lo, fun.hi)
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
            H, G = np.eye(dim) + s[..., None] * A, W - s * a
            return _solve_rows(H, G) if box is None else _box_qp_batch(H, G, box.lo, box.hi)
        rows = [_dykstra_prox(fun, w, si, tol) for w, si in zip(W, np.broadcast_to(step, k))]
        return np.array(rows, dtype=float).reshape(W.shape)  # (0, n) for no rows
    raise ValidationError(f"unknown function spec {type(fun).__name__}")


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
    resid = _subdiff_residuals(fun, x[None, :], ((np.asarray(w) - x) / step)[None, :], tol)[0]
    if resid > tol.eq_tol * max(1.0, float(np.linalg.norm(w))):
        raise NoClosedFormError(f"composite prox residual {resid:.2e} too large")
    return as_vector(x)


# --- subdifferentials --------------------------------------------------------

def _subdiff_rows(fun: FunSpec, X: np.ndarray, tol: ToleranceConfig):
    """The one subdifferential rule: df(X[i]) = offset + K + ball*B for every
    row, as arrays (inside, offset, up, down, ball), inside false outside dom f.
    K is generated by +e_j where up and -e_j where down: per coordinate the line
    when both are set, a half-line when one is, else {0}. A Box is its
    indicator, so N_box = d(iota_box) reads the same rows."""
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
        r = np.sqrt(rowwise_dot(X, X))  # np.linalg.norm's rounding, row by row
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


def _subdiff_residuals(fun: FunSpec, X: np.ndarray, S: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """dist(S[i], df(X[i])) per row, +inf outside dom f. The image is
    offset + K + ball*B with K a cone of signed axes: the distance to K is a
    per-coordinate clip, and dist(u, K + rB) = max(0, dist(u, K) - r)."""
    inside, offset, up, down, ball = _subdiff_rows(fun, X, tol)
    U = S - offset
    R = U - np.clip(U, np.where(down, -np.inf, 0.0), np.where(up, np.inf, 0.0))
    return np.where(inside, np.maximum(0.0, np.sqrt(rowwise_dot(R, R)) - ball), np.inf)


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
        object.__setattr__(self, "base", base)
        for name in ("points", "rays"):  # a copy: the caller's array stays the caller's
            rows = np.array(getattr(self, name), dtype=float).reshape(-1, base.size)
            object.__setattr__(self, name, read_only(rows))

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0 and self.rays.shape[0] == 0


def _empty_fiber(x: Vector) -> Fiber:
    return Fiber(x, np.zeros((0, x.size)), np.zeros((0, x.size)), True)


def unit_sphere_samples(n: int) -> np.ndarray:
    """Deterministic sample of the unit sphere (lattices for n <= 3)."""
    if n == 1:
        return np.array([[-1.0], [1.0]])
    if n == 2:
        ang = 2.0 * np.pi * np.arange(_BALL_SAMPLES) / _BALL_SAMPLES
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        # Fibonacci sphere
        i = np.arange(_BALL_SAMPLES) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / _BALL_SAMPLES)
        golden = np.pi * (1.0 + 5.0**0.5)
        theta = golden * i
        return np.stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)],
            axis=1,
        )
    rng = np.random.default_rng(12345)
    pts = rng.standard_normal((_BALL_SAMPLES, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Operator specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphOp:
    graph: FiniteGraph


@dataclass(frozen=True, eq=False)
class LinearOp:
    """x -> {Mx + c}; monotone iff the symmetric part of M is PSD; c is zeros by default."""

    M: np.ndarray
    c: Optional[Vector] = None

    def __post_init__(self):
        m = as_matrix(self.M)
        c = as_vector(np.zeros(len(m)) if self.c is None else self.c, dim=len(m))
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
    _fun: TranslatedNormPower = field(init=False, repr=False)  # |. - center|^p / p, built once

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not 1.0 <= self.p < np.inf:
            raise ValidationError("duality map requires a finite p >= 1")
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "_fun", TranslatedNormPower(self.p, 1.0, self.center))


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
    _jp: TranslatedNormPower = field(init=False, repr=False)  # lam |. - center|^p / p, built once
    _fun: Optional[FunSum] = field(init=False, repr=False)  # f + _jp when inner = df, else None

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "p", float(self.p))
        if not 0 < self.lam < np.inf:
            raise ValidationError("perturbation weight must be finite and positive")
        if not 1.0 <= self.p < np.inf:
            raise ValidationError("perturbation requires a finite p >= 1")
        c = as_vector(self.center)
        d = op_dimension(self.inner)
        if d is not None and c.size != d:
            raise DimensionMismatchError("perturbation center dimension mismatch")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "_jp", TranslatedNormPower(self.p, self.lam, c))
        fun = _subdiff_of(self.inner)
        object.__setattr__(self, "_fun", None if fun is None else FunSum((fun, self._jp)))


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


def affine_form(op: OperatorSpec) -> Optional[LinearOp]:
    """op as the one map x -> Mx + c it is, through any chain of shifts and
    p = 2 perturbations over a linear map: B - z* is (M, c - z*), and
    A + lam (. - center) = A + lam J_2(. - center) is (M + lam I, c - lam center).
    None for every other kind. Readers that need only the map (the domain
    scan, the default wgrid, the fitz command) take it; sampling does not."""
    if isinstance(op, LinearOp):
        return op
    wraps = isinstance(op, ShiftedOp) or (isinstance(op, PerturbedOp) and op.p == 2.0)
    inner = affine_form(op.inner) if wraps else None
    if inner is None:
        return None
    if isinstance(op, ShiftedOp):
        return LinearOp(inner.M, inner.c - op.zstar)
    return LinearOp(inner.M + op.lam * np.eye(len(inner.M)), inner.c - op.lam * op.center)


def cone_form(op: OperatorSpec, n: int) -> Optional[tuple[np.ndarray, np.ndarray, Union[Box, Polytope, None]]]:
    """(M, c, B) with A = M. + c + N_B on R^n, B a Box, a Polytope or None for
    R^n: a linear chain as ``affine_form`` reads it; a subdifferential whose
    function is quadratic plus box (``_sum_exact_parts``: quadratics, p = 2 norm
    powers, box indicators, so box normal cones and J_2 too); a polytope's
    normal cone, (0, 0, P); and, through any shift or p = 2 perturbation of
    these, (M, c - z*, B) and (M + lam I, c - lam center, B). None for every
    other kind. Only graph_sample's residual gate reads it."""
    form = affine_form(op)
    if form is not None:
        return form.M, form.c, None
    if isinstance(op, ShiftedOp) or (isinstance(op, PerturbedOp) and op.p == 2.0):
        inner = cone_form(op.inner, n)
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


# ---------------------------------------------------------------------------
# Resolvent (Minty parametrization)
# ---------------------------------------------------------------------------

def resolvent_batch(
    op: OperatorSpec, W: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, step=1.0
) -> np.ndarray:
    """Rows x with w - x in step*A(x), one per row w of W; a (k,) step gives row
    i its result alone at scalar step[i], bit for bit (see fun_prox_batch).
    Rows of the wrong width raise DimensionMismatchError."""
    W, s = np.atleast_2d(np.asarray(W, dtype=float)), np.asarray(step)[..., None]
    dim = op_dimension(op)
    if W.ndim != 2 or dim not in (None, W.shape[1]):
        raise DimensionMismatchError(f"base point shape {W.shape} does not match dimension {dim}")
    if isinstance(op, GraphOp):
        raise NotMaximalError("finite graphs have no resolvent (not maximal)")
    if isinstance(op, LinearOp):
        return _solve_rows(np.eye(op.M.shape[0]) + s[..., None] * op.M, W - s * op.c)
    if isinstance(op, PerturbedOp) and op.p == 2.0:
        den = 1.0 + s * op.lam
        return resolvent_batch(op.inner, (W + s * op.lam * op.center) / den, tol, step / den[..., 0])
    fun = _subdiff_of(op)
    if fun is not None:
        return fun_prox_batch(fun, W, step, tol)
    if isinstance(op, NormalConeOp):  # a polytope's; a box's is the clip of d(iota_box)
        return op.region.project_batch(W)
    if isinstance(op, ShiftedOp):
        return resolvent_batch(op.inner, W + s * op.zstar, tol, step)
    if isinstance(op, PerturbedOp):
        raise NoClosedFormError(
            "perturbed resolvent reduces only for p=2 or subdifferential inners"
        )
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def _resolvent_rows(op: OperatorSpec, W: np.ndarray, tol: ToleranceConfig, step=1.0) -> np.ndarray:
    """resolvent_batch of W, row by row once it fails, with a NaN row where
    a row alone has no closed form."""
    try:
        return resolvent_batch(op, W, tol, step)
    except NoClosedFormError:
        if len(W) == 1:
            return np.full(W.shape, np.nan)
        rows = zip(W, np.broadcast_to(step, len(W)))
        return np.vstack([_resolvent_rows(op, w[None, :], tol, s) for w, s in rows])


def resolvent(
    op: OperatorSpec, w: Vector, tol: ToleranceConfig = DEFAULT_TOL, step: float = 1.0
) -> Vector:
    """The unique x with w - x in step*A(x)."""
    w = as_vector(w)
    return as_vector(resolvent_batch(op, w[None, :], tol, step)[0])


# ---------------------------------------------------------------------------
# Fibers and membership
# ---------------------------------------------------------------------------

def _subdiff_of(op: OperatorSpec) -> Optional[FunSpec]:
    """f with op = df for ``_subdiff_rows``, the one place that names the
    subdifferentials: a subdifferential's function; the box of a box normal
    cone, N_box = d(iota_box); and the f that a duality map or a perturbed
    subdifferential built once as its _fun. None for any other op."""
    if isinstance(op, SubdiffOp):
        return op.fun
    if isinstance(op, NormalConeOp) and isinstance(op.region, Box):
        return op.region
    if isinstance(op, (DualityMapOp, PerturbedOp)):
        return op._fun
    return None


def _subdiff_fiber(fun: FunSpec, x: Vector, tol: ToleranceConfig) -> Fiber:
    """df(x) read off ``_subdiff_rows``: the offset, the rays +e_j where up then
    -e_j where down, coordinate by coordinate, and a nonzero ball as the offset
    plus a sampled sphere (exact=False)."""
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


def _polytope_normal_fiber(region: Polytope, x: Vector, tol: ToleranceConfig) -> Fiber:
    """N_P(x) from ``Polytope._facets``: the lines +-comp of the complement of
    P's affine hull, then the unit normal of each facet active at x, once."""
    if not region.contains_batch(x[None, :], tol.eq_tol)[0]:
        return _empty_fiber(x)
    center, basis, comp, A, b, _ = region._facets
    n, scale = x.size, 1.0 + float(np.abs(region.vertices).max())
    active = np.abs(A @ ((x - center) @ basis) + b) <= tol.eq_tol * scale
    rays = np.vstack([np.stack([comp.T, -comp.T], axis=1).reshape(-1, n), (basis @ A[active].T).T])
    return Fiber(x, np.zeros((1, n)), rays, exact=True)


def fiber(op: OperatorSpec, x: Vector, tol: ToleranceConfig = DEFAULT_TOL) -> Fiber:
    """The image set A(x), exact for polyhedral images; a point of the wrong
    width raises DimensionMismatchError. Only this entry validates x."""
    return _fiber(op, as_vector(x, dim=op_dimension(op)), tol)


def _fiber(op: OperatorSpec, x: np.ndarray, tol: ToleranceConfig) -> Fiber:
    """``fiber`` at a row x already checked. Every op ``_subdiff_of`` names
    comes from one rule, ``_subdiff_rows``; so does lam J_p in the fiber of any
    other perturbed op."""
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
    if isinstance(op, ShiftedOp):
        inner = _fiber(op.inner, x, tol)
        if inner.is_empty:
            return inner
        return Fiber(x, inner.points - op.zstar, inner.rays, inner.exact)
    if isinstance(op, PerturbedOp):
        inner = _fiber(op.inner, x, tol)
        if inner.is_empty:
            return inner
        jp = _subdiff_fiber(op._jp, x, tol)
        pts = np.vstack([inner.points + b for b in jp.points])
        return Fiber(x, pts, inner.rays, inner.exact and jp.exact)
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def membership_batch(
    op: OperatorSpec, X: np.ndarray, S: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Mask of rows with S[i] in A(X[i]) within slack = eq_tol * max(1, |S[i]|).

    Every op ``_subdiff_of`` names shares one rule: a box normal cone
    (N_box = d(iota_box)), a duality map (J_p(. - c) = d(|. - c|^p / p)) and a
    perturbed subdifferential are subdifferentials, and the Euclidean distance
    to the image is at most the slack. A
    subdifferential image is offset + K + ball*B, where every ray of the cone
    K is a signed coordinate axis at an active box bound. So K is, per
    coordinate, a line, a half-line or {0}; the distance to it is the norm of
    what a per-coordinate clip removes, which is the exact projection, and
    dist(u, K + rB) = max(0, dist(u, K) - r) for the closed convex cone K. No
    row is projected by an iterative solver, and none is sampled away. Rows
    of the wrong width raise DimensionMismatchError."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    dim = op_dimension(op)
    if X.ndim != 2 or X.shape != S.shape or dim not in (None, X.shape[1]):
        raise DimensionMismatchError(f"point shapes {X.shape} and {S.shape} do not match dimension {dim}")
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
        # max |V - x| from the per-coordinate extremes of V: a (k, n) array
        V = op.region.vertices
        spread = np.maximum(V.max(axis=0) - X, X - V.min(axis=0)).max(axis=1)
        return op.region.contains_batch(X, tol.eq_tol) & (_support_gaps(V, X, S) <= slack * (1.0 + spread))
    if isinstance(op, ShiftedOp):
        return membership_batch(op.inner, X, S + op.zstar, tol)
    if isinstance(op, PerturbedOp):
        # lam J_1 near its center is the ball lam*B: test the distance to the
        # inner fiber, the nearest of its points plus the cone when it is exact,
        # the hull of its ball-sampled points plus the cone when it is not
        _, J, _, _, radius = _subdiff_rows(op._jp, X, tol)
        ball = radius > 0.0
        out = np.zeros(len(X), dtype=bool)
        out[~ball] = membership_batch(op.inner, X[~ball], S[~ball] - J[~ball], tol)
        for i in np.flatnonzero(ball):
            inner = _fiber(op.inner, X[i], tol)
            groups = inner.points[:, None, :] if inner.exact else [inner.points]
            d = min((project_onto_generated_set(P, inner.rays, S[i])[1] for P in groups), default=np.inf)
            out[i] = d <= op.lam + slack[i]
        return out
    raise ValidationError(f"unknown operator spec {type(op).__name__}")


def _support_gaps(V: np.ndarray, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """max over the vertices v of <R_i, v - X_i>, row by row: sigma_C(R_i) -
    <R_i, X_i> for C = conv V, the support function less the row's own term,
    summed coordinate by coordinate, so a (k, m) array and never (k, m, n)."""
    return sum((V[:, i] - X[:, i, None]) * R[:, i, None] for i in range(X.shape[1])).max(axis=1)


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

    The pairs are ``dedupe_rows_within``'s at eq_tol, bit for bit: when
    ``_rows_separated`` proves that it would drop none, they are only sorted.
    With verify, every deduplicated pair must pass ``membership_batch`` (the
    one membership rule, slack eq_tol * max(1, |x*|)) and the sampled graph
    must pass ``monotone_check``; the first failure raises ValidationError.
    Where op has a ``cone_form`` (a box, polytope or R^n normal cone plus an
    affine map), ``_residual_certificate`` is tried first: it proves from the
    rows' residuals that monotone_check would return None, so the verdict is
    monotone_check's either way."""
    W = wgrid.nodes()
    X = resolvent_batch(op, W, tol)
    S = W - X
    rows = np.hstack([X, S])
    if _rows_separated(wgrid, S, tol.eq_tol):
        rows = rows[lexsort_rows(rows)]  # dedupe_rows_within's output: it would drop none
    else:
        rows = dedupe_rows_within(rows, tol.eq_tol)
    Xd, Sd = np.hsplit(rows, 2)
    if verify:
        ok = membership_batch(op, Xd, Sd, tol)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValidationError(
                f"sampled pair {bad} fails membership: "
                f"x={Xd[bad].tolist()} x*={Sd[bad].tolist()}"
            )
    g = FiniteGraph.__new__(FiniteGraph)._store(Xd, Sd, deduped=tol.eq_tol >= DEFAULT_TOL.eq_tol)
    if verify:
        witness = None if _residual_certificate(op, g, tol.eq_tol) else monotone_check(g, tol)
        if witness is not None:
            raise ValidationError(f"sampled graph is not monotone: {witness}")
    return g


def _rows_separated(wgrid: Grid, S: np.ndarray, eq_tol: float) -> bool:
    """True when no two Minty rows (x, s), s = fl(w - x), over the nodes w of
    wgrid lie within eq_tol, so ``dedupe_rows_within`` would drop none.

    Distinct nodes differ in some coordinate by at least gap, the least step of
    the per-axis floats of ``Grid.axes`` (a grid whose floats collide has gap
    0). The subtraction rounds each coordinate once, so x + s = w + e with
    |e| <= u |w - x| <= u/(1 - u) sqrt(n) max|s|, unit roundoff u = eps / 2.
    Rows within eq_tol have |dx| + |ds| <= sqrt(2) eq_tol, so their nodes would
    lie within (1 + u) bound of each other, bound = sqrt(2) eq_tol +
    eps sqrt(n) max|s|. gap > 2 bound rules such a pair out: the factor 2 also
    covers the rounding of the dedupe's norm test, of the gap's steps and of
    bound itself. A NaN or an overflow fails the test."""
    gap = min((np.diff(a).min() for a in wgrid.axes() if len(a) > 1), default=np.inf)
    eps = np.finfo(float).eps
    bound = np.sqrt(2.0) * eq_tol + eps * np.sqrt(S.shape[1]) * np.abs(S).max()
    return bool(gap > 2.0 * bound)


def monotone_check(
    g: FiniteGraph, tol: ToleranceConfig = DEFAULT_TOL
) -> Optional[tuple[PairPoint, PairPoint]]:
    """None when all pairwise products are >= -eq_tol, else the first violating
    pair in row-major order of the full k x k square of products
    P[i, j] = ((d_i + d_j) - x_i.x_j*) - x_i*.x_j of ``pairwise_product_blocks``,
    d_i = x_i.x_i*. graph_sample tries ``_residual_certificate`` first and
    calls this only where that declines. A tiled gate decides where the
    full-square scan starts.

    The gate computes, block by block of that scan's rows, only the columns
    j >= i0 of the block's first row i0, one cache-sized tile of columns per
    matmul into one buffer, each entry one dot product of length 2n + 2:

        Q[i, j] = [x_i*, x_i, -d_i, -1] . [x_j, x_j*, 1, d_j]   (about -P[i, j]).

    Exactness. P[i, j], P[j, i] and Q[i, j] each sum, in some order (a tile's
    GEMM shape may change it), the same 2n + 2 terms d_i, d_j, -x_ik x_jk*,
    -x_ik* x_jk (the d terms enter as exact products), whose exact sum T is
    symmetric in i and j. By the a-priori dot-product bound, which holds for
    any order (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    §3.1), each is within gamma_{2n+2} * C of T, gamma_m = m u / (1 - m u)
    with unit roundoff u, where C = 2 max|d| + 2 max|x| max|x*| bounds the sum
    of the terms' magnitudes by Cauchy-Schwarz. So P[i, j] < -eq_tol or
    P[j, i] < -eq_tol implies Q[i, j] > eq_tol - 2 gamma_{2n+2} C. A block is
    flagged when an entry exceeds eq_tol - margin, margin = 2 gamma_{2n+3} C plus
    4n smallest subnormals: the step from 2n + 2 to 2n + 3 covers the rounding
    of C and margin, the subnormals cover underflowed products, and the
    threshold is rounded down. A NaN entry flags too, and a bound that
    overflows flags the first block.

    A violation at (i, j) therefore flags a tile of the block holding row
    min(i, j). The gate returns that block's first row, whichever tile flags,
    and from it the full-square scan runs with its own row partition, on which
    BLAS rounding depends: the verdict and the witness are the full-square scan's."""
    X, S, d = g.primals, g.duals, g.self_products
    start = _first_flagged_row(X, S, d, tol.eq_tol)
    if start is None:
        return None
    for i0, prods in pairwise_product_blocks(X[start:], S[start:], d[start:], g):
        bad = prods < -tol.eq_tol
        if bad.any():  # argmax: first violation in row-major order
            i, j = np.unravel_index(int(np.argmax(bad)), prods.shape)
            return g.pair(start + i0 + int(i)), g.pair(int(j))
    return None


def _gate_limit(X: np.ndarray, S: np.ndarray, d: np.ndarray, eq_tol: float) -> Optional[float]:
    """eq_tol - margin rounded down, margin = ``rounding_margin(C, n)`` with
    C = 2 max|d| + 2 max|x| max|x*|, the one threshold of the residual
    certificate and of monotone_check's tiled gate; None when the margin is
    not finite.

    Rows whose exact products <x_i - x_j, x_i* - x_j*> are all at least
    -limit have every product P[i, j] of the full-square scan at least
    -eq_tol: the stored d_i are within gamma_n C / 2 of x_i.x_i*, and P[i, j]
    within gamma_{2n+2} C of the exact sum of its terms (monotone_check), so
    P[i, j] is within (gamma_n + gamma_{2n+2}) C of the exact product, plus
    2n subnormals for its 4n products' underflow; that lies below the margin."""
    C = 2.0 * np.abs(d).max() + 2.0 * np.linalg.norm(X, axis=1).max() * np.linalg.norm(S, axis=1).max()
    margin = rounding_margin(C, X.shape[1])
    return np.nextafter(eq_tol - margin, -np.inf) if np.isfinite(margin) else None


def _residual_certificate(op: OperatorSpec, g: FiniteGraph, eq_tol: float) -> bool:
    """True when op's ``cone_form`` proves from g's rows that the full-square
    scan of monotone_check finds no violation; graph_sample tries it before
    monotone_check. O(k n^2) work and a few (k, n) arrays, no k x k table.

    For A = M. + c + N_B with B a box or R^n (Minty, Duke Math. J. 29, 1962,
    parametrises its graph), write each row as s_i = M x_i + c + nu_i + e_i
    with nu_i in N_B(x_i). With d = x_i - x_j the exact product is

        <d, s_i - s_j> = <d, M d> + <d, nu_i - nu_j> + <d, e_i - e_j>
                       >= lam |d|^2 - 2 E |d|,

    where every x_i lies in B, so <nu_i, x_i - x_j> >= 0 by the definition of
    the normal cone, lam <= lambda_min(sym M) and E >= max |e_i|. Over
    |d| <= D, the primal diameter, that is at least -E^2 / lam when lam > 0,
    else -(|lam| D^2 + 2 D E). ``_residual_bound`` returns twice that bound.

    Exactness. B holds every x_i in floats, exactly. r_i = s_i - M x_i - c
    rounds to r'_i within gamma_{n+2} mag per coordinate, mag = max|s| +
    max_k sum_j |M_kj| max|x| + max|c|, a sum of n products and two terms
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1),
    plus n underflowed products, far below E's floor (below). nu_ik is
    min(r'_ik, 0) where x_ik is lo_k bit for bit, max(r'_ik, 0) where it is
    hi_k, both where lo_k = hi_k, else 0: a float vector in N_B(x_i), with
    r'_i - nu_i computed exactly, as a clip. (membership's active sets,
    widened by eq_tol, would not give a cone point.) So |e_i| <=
    sqrt(n) (max|r' - nu| + gamma_{n+2} mag). lam is eigvalsh's least
    eigenvalue of H = fl(sym M) less tau = 40 n^2 u |H|_F, rounded down: by
    Weyl's theorem that covers a backward error of the eigensolver up to
    16 n^2 u |H|_2 (Golub and Van Loan, Matrix Computations, §8.3, prove it
    of order u |H|_2), the rounding of H and that of tau. E and D are raised
    to at least 2^-300, and lam lowered to at most 2^300, or to at most
    -2^-300 when not positive; each change loosens the bound and keeps every
    product of these quantities normal, so each of the at most 2n + 22
    operations after the residuals rounds by a relative u, and twice the
    computed bound exceeds the exact one. The rows then have exact products
    at least -limit, so by ``_gate_limit`` every product the scan computes is
    at least -eq_tol. A NaN, an overflow, a row outside B or a None limit
    fails the test.

    A polytope C = conv V reads the bound through its support function
    sigma_C (Bauschke and Combettes, Convex Analysis and Monotone Operator
    Theory, 2nd ed., ch. 6 and 16). With r_i = s_i - M x_i - c, let
    rho_i = max_v <r_i, v - x_i>^+ = (sigma_C(r_i) - <r_i, x_i>)^+, the gap
    membership tests, and let every x_j lie within F of C, at y_j in C. Then
    <r_i, x_j - x_i> <= <r_i, y_j - x_i> + |r_i| F <= rho_i + |r_i| F, so

        <d, s_i - s_j> >= lam |d|^2 - (rho_i + rho_j) - (|r_i| + |r_j|) F
                       >= min(lam, 0) D^2 - 2 (rho + R F),

    rho = max rho_i and R = max |r_i|; no row need lie in C. F reads C's
    facet table (``Polytope._facets``), which is C as membership and the
    resolvent read it: y = (x - center) basis, center the vertex mean, has
    facet violation delta = max(A y + b)^+, and inner = min(-b) > 0 is the
    center's slack. As A (t y) + b <= t delta - (1 - t) inner, t y with
    t = inner / (inner + delta) lies in C, so dist(x, C) <= |(x - center) comp|
    + |x - center| delta / inner. Exactness. r'_i is within eta = sqrt(n)
    gamma_{n+2} mag of r_i as above, which moves rho_i by at most sqrt(n) Z eta,
    Z = max|V| + max|x|, and R by eta. The gap's n products of a rounded
    difference and its sum round by at most gamma_{n+2} n Z max|r'|. y, A y + b
    and (x - center) comp sum at most 2n products of a rounded difference and
    b, so each is within gamma_{2n+5} (2 |x - center| |basis| |A| + |b|) of its
    exact value, entrywise in absolute values, the step from 2n + 4 covering
    the rounding of that widening, which raises delta and the off-hull part.
    The factors of each product are raised to at least 2^-300 and the ratio of
    widening to inner is at least gamma, so the products stay normal and
    twice the computed bound exceeds the exact one as above. A table with no
    slack at its center declines; a thin C has a small inner and declines by
    itself unless its facet tests round finely enough."""
    bound = _residual_bound(op, g.primals, g.duals)
    if bound is None:
        return False
    limit = _gate_limit(g.primals, g.duals, g.self_products, eq_tol)
    return limit is not None and bool(bound <= limit)


def _residual_bound(op: OperatorSpec, X: np.ndarray, S: np.ndarray) -> Optional[float]:
    """Twice ``_residual_certificate``'s bound on minus the least exact product
    of the rows (X, S), or None when op has no cone form, a row lies outside a
    box B or a polytope's facet table has no slack at its center."""
    n = X.shape[1]
    form = cone_form(op, n)
    if form is None:
        return None
    M, c, B = form
    R = S - X @ M.T - c
    u, tiny = np.finfo(float).eps / 2, 2.0**-300
    gamma = (n + 2) * u / (1.0 - (n + 2) * u)
    mag = np.abs(S).max() + np.abs(M).sum(axis=1).max() * np.abs(X).max() + np.abs(c).max()
    H = 0.5 * (M + M.T)
    lam = np.nextafter(np.linalg.eigvalsh(H)[0] - 40 * n * n * u * np.linalg.norm(H), -np.inf)
    if lam > 0:
        bend = 0.0
    else:  # minus the least lam |d|^2 over |d| <= D
        D = np.maximum(np.linalg.norm(X.max(axis=0) - X.min(axis=0)), tiny)
        bend = -min(lam, -tiny) * D * D
    if isinstance(B, Polytope):
        slack = _support_slack(B, X, R, np.sqrt(n) * gamma * mag)
        return None if slack is None else float(2.0 * (2.0 * slack + bend))
    if B is not None:
        if not ((X >= B.lo) & (X <= B.hi)).all():
            return None
        R = np.where(X == B.lo, np.maximum(R, 0.0), R)
        R = np.where(X == B.hi, np.minimum(R, 0.0), R)
    E = np.maximum(np.sqrt(n) * (np.abs(R).max() + gamma * mag), tiny)
    if lam > 0:
        return float(2.0 * E * E / min(lam, 1.0 / tiny))
    return float(2.0 * (bend + 2.0 * D * E))


def _support_slack(C: Polytope, X: np.ndarray, R: np.ndarray, eta: float) -> Optional[float]:
    """rho + R F of ``_residual_certificate`` for the polytope C, each widened
    by its rounding as the proof there says, for rows X with residuals R
    within eta of their exact ones; None when C's facet table has no slack at
    its center."""
    n = X.shape[1]
    V = C.vertices
    center, basis, comp, A, b, _ = C._facets
    u, tiny = np.finfo(float).eps / 2, 2.0**-300
    inner = (-b).min(initial=np.inf)  # the center's slack to its nearest facet
    if not inner >= tiny:
        return None
    gamma_n2, gamma_2n5 = ((m * u / (1.0 - m * u)) for m in (n + 2, 2 * n + 5))
    r_max, eta = np.maximum(np.abs(R).max(), tiny), np.maximum(eta, tiny)
    Z = np.maximum(np.abs(V).max() + np.abs(X).max(), tiny)
    rho = np.maximum(_support_gaps(V, X, R).max(), 0.0) + gamma_n2 * n * Z * r_max + np.sqrt(n) * Z * eta
    centered = X - center
    reach = np.abs(centered) @ np.abs(basis)  # bounds |y| and the rounding of y, per coordinate
    delta = (centered @ basis @ A.T + b + gamma_2n5 * (2.0 * reach @ np.abs(A).T + np.abs(b))).max(axis=1, initial=0.0)
    off = np.linalg.norm(np.abs(centered @ comp) + gamma_2n5 * (np.abs(centered) @ np.abs(comp)), axis=1)
    F = np.maximum((off + np.linalg.norm(centered, axis=1) * (delta / inner)).max(), tiny)
    return rho + (np.sqrt(n) * r_max + eta) * F


def _first_flagged_row(X: np.ndarray, S: np.ndarray, d: np.ndarray, eq_tol: float) -> Optional[int]:
    """First row of the first block of monotone_check's gate holding an entry
    Q > eq_tol - margin, or None; each tile of Q stays in cache from matmul to max."""
    k = len(X)
    limit = _gate_limit(X, S, d, eq_tol)
    if limit is None:
        return 0
    ones = np.ones((k, 1))
    left = np.hstack([S, X, -d[:, None], -ones])
    right_t = np.vstack([X.T, S.T, ones.T, d[None, :]])
    rows = _block_rows(k, k)
    cols = _GATE_TILE // rows  # a block has at most 2000 rows
    buf = np.empty(rows * cols)
    for i0 in range(0, k, rows):
        i1 = min(k, i0 + rows)
        for j0 in range(i0, k, cols):
            Q = buf[: (i1 - i0) * min(cols, k - j0)].reshape(i1 - i0, -1)
            np.matmul(left[i0:i1], right_t[:, j0 : j0 + cols], out=Q)
            if not Q.max() <= limit:
                return i0
    return None


def shift_graph(g: FiniteGraph, zstar: Vector) -> FiniteGraph:
    zstar = as_vector(zstar, dim=g.dim)
    return FiniteGraph.from_arrays(g.primals, g.duals - zstar)


def perturb(op: OperatorSpec, lam: float, p: float, center: Vector) -> PerturbedOp:
    """A + lam * J_p(. - center)."""
    return PerturbedOp(op, lam, p, center)


def unique_domain_points(g: FiniteGraph, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Distinct sampled primal points, lexicographically sorted."""
    return dedupe_rows_within(g.primals, tol.eq_tol)


@dataclass(frozen=True, eq=False)
class Sample:
    """One graph of op and the read-only tables the checks derive from it, each
    built on first use, so a probe of the sampled kernel does only per-row work.
    wgrid is the Minty grid behind graph, None when the graph was given; the
    domain scan and the checks that resample (a widened or refined grid) need it."""

    op: OperatorSpec
    graph: FiniteGraph
    tol: ToleranceConfig = DEFAULT_TOL
    wgrid: Optional[Grid] = None

    @classmethod
    def on(cls, op: OperatorSpec, graph: FiniteGraph, tol: ToleranceConfig = DEFAULT_TOL,
           wgrid: Grid | None = None) -> "Sample":
        """The Sample of op on graph, built once: the graph's slot keeps the last one
        (weakly when ``over`` built it), reused while op and wgrid are the same
        objects and tol is equal. Ops, graphs and grids are frozen, arrays read-only."""
        s = graph._sample() if isinstance(graph._sample, weakref.ref) else graph._sample
        if s is None or s.op is not op or s.tol != tol or s.wgrid is not wgrid:
            s = cls(op, graph, tol, wgrid)
            object.__setattr__(graph, "_sample", s)
        return s

    @classmethod
    def over(
        cls, op: OperatorSpec, wgrid: Grid | None, tol: ToleranceConfig = DEFAULT_TOL
    ) -> "Sample":
        """The graph of a finite-graph operator, else its Minty sample over wgrid."""
        if isinstance(op, GraphOp):
            return cls.on(op, op.graph, tol)
        if wgrid is None:
            raise ValidationError("sampled operators need a wgrid")
        s = cls(op, graph_sample(op, wgrid, tol), tol, wgrid)
        object.__setattr__(s.graph, "_sample", weakref.ref(s))  # a strong one would make a cycle
        return s

    @cached_property
    def domain(self) -> np.ndarray:
        """Distinct sampled primal points, lexicographically sorted."""
        return read_only(unique_domain_points(self.graph, self.tol))

    @cached_property
    def hull(self) -> Polytope:
        return conv_hull(self.domain)

    @cached_property
    def fibers(self) -> tuple[Fiber, ...]:
        """A(a) for every domain point a, aligned with domain."""
        return tuple(_fiber(self.op, a, self.tol) for a in self.domain)

    @cached_property
    def candidates(self) -> tuple[tuple[Vector, Fiber], ...]:
        """Domain points with nonempty fibers in witness-search order:
        exact-ray fibers first, each group in lexicographic order."""
        rayful, plain = [], []
        for a, f in zip(self.domain, self.fibers):
            if not f.is_empty:
                (rayful if (f.exact and len(f.rays)) else plain).append((a, f))
        return tuple(rayful + plain)

    @cached_property
    def pair_order(self) -> np.ndarray:
        """Indices sorting the graph's pairs (a, a*) lexicographically."""
        return read_only(lexsort_rows(np.hstack([self.graph.primals, self.graph.duals])))

    @cached_property
    def exact_rays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(A, B, R, <A_k, B_k>): a row per ray r of an exact fiber A(a), in the
        order of the exact-ray head of candidates, with b the lex-first point
        of A(a). A finite graph has none."""
        fibers = () if isinstance(self.op, GraphOp) else zip(self.domain, self.fibers)
        rays = [(a, f.points[lexsort_rows(f.points)[0]], r) for a, f in fibers if f.exact for r in f.rays]
        ABR = read_only(np.array(rays, dtype=float).reshape(-1, 3, self.graph.dim).transpose(1, 0, 2).copy())
        return (*ABR, read_only(rowwise_dot(ABR[0], ABR[1])))


def maximality_probe(sample: Sample, probe_grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Probe points monotonically related to the sampled graph yet failing
    membership, as rows (X, S): evidence against maximality of the surrogate.
    No rows is consistent with (never proof of) maximality."""
    surrogate, tol = sample.graph, sample.tol
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
    failing = ~membership_batch(sample.op, Xr, Sr, tol)
    return Xr[failing], Sr[failing]
