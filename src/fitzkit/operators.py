"""Operator zoo: finite graphs, monotone linear maps, subdifferentials, normal
cones, duality maps, and the shift/perturbation combinators, with Minty
resolvent sampling as the universal bridge to finite graphs.

Set-valued images ("fibers") carry an explicit ``exact`` flag: polyhedral
fibers (normal cones, box subdifferentials) are represented exactly as
points + cone(rays); the only nonpolyhedral fiber at desk scale, the ball of
the p=1 duality map within eq_tol of its center, is boundary-sampled and
flagged inexact, although membership against it is still tested exactly.

Every kind but a finite graph is A = M. + c + sum_i lam_i J_{p_i}(. - m_i) +
N_B with B a box, a polytope or R^n: a box normal cone is d(iota_box), the
duality map is J_p(. - m) = d(|. - m|^p / p) (Asplund), d of a sum is the sum
of its parts' d's, and shifts and perturbations add to c, to M or to the
terms. Each op builds this normal form once, when it is made (``_normal_form``,
the one place that names the wrapper kinds), and ``op_dimension``,
``cone_form``, ``resolvent_batch``, ``fiber`` and ``membership_batch`` read it,
one branch per part of the form.

Points are rows of (k, n) float arrays; a ``PairPoint`` is built only for a
witness or at a one-point entry (``membership``, or ``fiber``, which alone
validates its point).

``graph_sample`` drops the pairs within eq_tol of an earlier one by the
tolerance dedupe, unless the grid's spacing proves that no two are that close;
then it only sorts them. With verify=True it passes every Minty sample through
two exact gates, neither sampled down: ``membership_batch`` tests x* in A(x)
for every pair, a subdifferential by a closed-form distance to its image, and
the monotonicity gate has two routes, each exact. Where A = M. + c + N_B
(``cone_form``: the form with no terms and no base), ``_residual_certificate``
bounds every pairwise product from the rows' residuals s - Mx - c off the
normal cone, in O(k n^2) work (and O(k m) for a polytope of m vertices) and no
k x k table. Otherwise, or when
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
from functools import cached_property, reduce
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
class _Spec:
    """An operator spec: its ``_normal_form`` is built once, when it is made."""

    _form: "_Form" = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_form", _normal_form(self))


@dataclass(frozen=True, eq=False)
class GraphOp(_Spec):
    graph: FiniteGraph


@dataclass(frozen=True, eq=False)
class LinearOp(_Spec):
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
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class SubdiffOp(_Spec):
    fun: FunSpec


@dataclass(frozen=True, eq=False)
class NormalConeOp(_Spec):
    region: Union[Box, Polytope]


@dataclass(frozen=True, eq=False)
class DualityMapOp(_Spec):
    p: float
    center: Vector

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not 1.0 <= self.p < np.inf:
            raise ValidationError("duality map requires a finite p >= 1")
        object.__setattr__(self, "center", as_vector(self.center))
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class ShiftedOp(_Spec):
    """gra B = gra A - {(0, zstar)}: fibers are B(x) = A(x) - zstar."""

    inner: "OperatorSpec"
    zstar: Vector

    def __post_init__(self):
        object.__setattr__(self, "zstar", as_vector(self.zstar))
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class PerturbedOp(_Spec):
    """A + lam * J_p(. - center), lam > 0."""

    inner: "OperatorSpec"
    lam: float
    p: float
    center: Vector

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "p", float(self.p))
        if not 0 < self.lam < np.inf:
            raise ValidationError("perturbation weight must be finite and positive")
        if not 1.0 <= self.p < np.inf:
            raise ValidationError("perturbation requires a finite p >= 1")
        object.__setattr__(self, "center", as_vector(self.center))
        super().__post_init__()


OperatorSpec = Union[
    GraphOp, LinearOp, SubdiffOp, NormalConeOp, DualityMapOp, ShiftedOp, PerturbedOp
]


# ---------------------------------------------------------------------------
# The normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Form:
    """An operator's normal form A = base + M. + c + sum_i lam_i J_{p_i}(. - m_i)
    + N_B, J_p(y) = |y|^(p-2) y. base is a FiniteGraph or None; M is None, a
    float mu for mu I (a bare norm power has no width) or a matrix; c is None
    or a vector; terms are the (lam, p, m), p != 2, in chain order, m None for
    0; B, a Box, a Polytope or None for R^n, is cl dom A when base is None. A
    part that is None adds no floating-point operation. Arrays are read-only;
    dim may be None."""

    dim: Optional[int]
    base: Optional[FiniteGraph] = None
    M: Union[None, float, np.ndarray] = None
    c: Optional[np.ndarray] = None
    terms: tuple = ()
    B: Union[Box, Polytope, None] = None


def _normal_form(spec) -> _Form:
    """The form of an operator or function spec, the one place that names the
    wrapper kinds; a wrapper reads its inner op's form. d of a sum of
    quadratics, norm powers and box indicators is the sum of their d's
    (Bauschke and Combettes, Convex Analysis and Monotone Operator Theory, 2nd
    ed., ch. 16), and cl dom A, the boxes' intersection, is closed and convex
    (Rockafellar, Math. Ann. 185, 1970). N_box = d(iota_box); lam J_p(. - m) =
    d(lam |. - m|^p / p) is a term, or lam I and -lam m at p = 2; a shift by z*
    adds -z* to c."""
    if isinstance(spec, ShiftedOp):
        return _plus(spec.inner._form, _Form(spec.zstar.size, c=read_only(-spec.zstar)))
    if isinstance(spec, (PerturbedOp, DualityMapOp, NormPower, TranslatedNormPower)):
        lam = spec.lam if isinstance(spec, PerturbedOp) else getattr(spec, "scale", 1.0)
        m = getattr(spec, "center", None)
        n = None if m is None else m.size
        if spec.p == 2.0:
            term = _Form(n, M=lam, c=None if m is None else read_only(-(lam * m)))
        else:
            term = _Form(n, terms=((lam, spec.p, m),))
        return _plus(spec.inner._form, term) if isinstance(spec, PerturbedOp) else term
    if isinstance(spec, GraphOp):
        return _Form(spec.graph.dim, base=spec.graph)
    if isinstance(spec, (LinearOp, Quadratic)):
        M, c = (spec.M, spec.c) if isinstance(spec, LinearOp) else (spec.Q, spec.b)
        return _Form(len(M), M=M, c=c)
    if isinstance(spec, (NormalConeOp, Box)):
        B = getattr(spec, "region", spec)
        return _Form(B.dim, B=B)
    if isinstance(spec, SubdiffOp):
        return _normal_form(spec.fun)
    if isinstance(spec, FunSum):
        return reduce(_plus, map(_normal_form, spec.parts))
    raise ValidationError(f"unknown spec {type(spec).__name__}")


def _plus(f: _Form, g: _Form) -> _Form:
    """The form of the sum of operators of forms f and g, at most one with a
    base: M's and c's add, f's first, with a mu I on a matrix's diagonal;
    terms join in order; boxes intersect. Their widths must agree."""
    if None not in (f.dim, g.dim) and f.dim != g.dim:
        raise DimensionMismatchError(f"a part of width {g.dim} added to an operator of width {f.dim}")

    def add(a, b):
        if a is None or b is None:
            return b if a is None else a
        if np.ndim(a) != np.ndim(b):
            return read_only(a * np.eye(len(b)) + b if np.ndim(a) == 0 else a + b * np.eye(len(a)))
        return read_only(a + b) if np.ndim(a) else a + b
    B = f.B if g.B is None else g.B if f.B is None else Box(np.maximum(f.B.lo, g.B.lo), np.minimum(f.B.hi, g.B.hi))
    base = f.base if f.base is not None else g.base
    return _Form(f.dim if f.dim is not None else g.dim, base, add(f.M, g.M), add(f.c, g.c), f.terms + g.terms, B)


def op_dimension(op: OperatorSpec) -> Optional[int]:
    return op._form.dim


def cone_form(op: OperatorSpec, n: int) -> Optional[tuple[np.ndarray, np.ndarray, Union[Box, Polytope, None]]]:
    """(M, c, B) with A = M. + c + N_B on R^n: op's normal form when it has no
    terms and no base, its missing parts zeros of width n; else None. With B
    None, A is the map x -> Mx + c on R^n, which the domain scan, theorem36
    and the fitz command read; graph_sample's residual gate reads every form."""
    f = op._form
    if f.terms or f.base is not None:
        return None
    M = np.zeros((n, n)) if f.M is None else f.M * np.eye(n) if np.ndim(f.M) == 0 else f.M
    return M, np.zeros(n) if f.c is None else f.c, f.B


# ---------------------------------------------------------------------------
# Resolvent (Minty parametrization)
# ---------------------------------------------------------------------------

def _unreduced(f: _Form) -> Optional[str]:
    """Why resolvent_batch has no reduction for the form's p != 2 terms, or
    None: Dykstra takes a prox per part, so M must be symmetric, and B's
    projection, a polytope's, is not paired with terms; a graph has none."""
    if not f.terms:
        return None
    if f.base is not None:
        return "its inner operator is a graph"
    if isinstance(f.B, Polytope):
        return "its inner operator is a polytope's normal cone"
    if np.ndim(f.M) == 2 and not np.allclose(f.M, f.M.T, atol=1e-12):
        return "its inner operator's linear part is not symmetric"
    return None


def resolvent_batch(
    op: OperatorSpec, W: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, step=1.0
) -> np.ndarray:
    """Rows x with w - x in step*A(x), one per row w of W; a (k,) step gives row
    i its result alone at scalar step[i], bit for bit (see ``_prox``).
    Rows of the wrong width raise DimensionMismatchError."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    f = op._form
    if W.ndim != 2 or f.dim not in (None, W.shape[1]):
        raise DimensionMismatchError(f"base point shape {W.shape} does not match dimension {f.dim}")
    if f.base is not None and not f.terms:
        raise NotMaximalError("finite graphs have no resolvent (not maximal)")
    why = _unreduced(f)
    if why is not None:
        raise NoClosedFormError(f"a p != 2 perturbation has no resolvent reduction: {why}")
    return _prox(f, W, step, tol)


def _prox(f: _Form, W: np.ndarray, step, tol: ToleranceConfig) -> np.ndarray:
    """The resolvent rows of a form ``_unreduced`` passes; s puts row i's step
    on row i. A matrix M with no terms is one linear solve, or the box QP in B.
    A scalar M and c fold into the point and the step: x + s (mu x + c + T x)
    = w iff x + s' T x = (w - s c) / (1 + s mu), s' = s / (1 + s mu); then B's
    projection, one term's radial prox, or Dykstra over the terms in chain
    order and then the rest of the form, so each iterate ends in B."""
    s = np.asarray(step)[..., None]
    if np.ndim(f.M) == 2:
        if not f.terms:
            H, G = np.eye(len(f.M)) + s[..., None] * f.M, W if f.c is None else W - s * f.c
            return _solve_rows(H, G) if f.B is None else _box_qp_batch(H, G, f.B.lo, f.B.hi)
        rest = [_Form(f.dim, M=f.M, c=f.c, B=f.B)]
    else:
        if f.c is not None:
            W = W - s * f.c
        if f.M is not None:
            den = 1.0 + s * f.M
            W, step = W / den, step / den[..., 0]
        if not f.terms:
            return W if f.B is None else f.B.project_batch(W)
        if len(f.terms) == 1 and f.B is None:
            return _norm_prox(W, step, *f.terms[0])
        f = _Form(f.dim, terms=f.terms, B=f.B)
        rest = [] if f.B is None else [_Form(f.dim, B=f.B)]
    parts = [_Form(f.dim, terms=(t,)) for t in f.terms] + rest
    rows = [_dykstra_prox(parts, f, w, si, tol) for w, si in zip(W, np.broadcast_to(step, len(W)))]
    return np.array(rows, dtype=float).reshape(W.shape)  # (0, n) for no rows


def _norm_prox(W: np.ndarray, step, lam: float, p: float, m: Optional[Vector]) -> np.ndarray:
    """prox of step * lam |. - m|^p / p at each row (p != 2): radial about m,
    where p > 1 bisects u + c u^(p-1) = |w| for u >= 0."""
    if m is not None:
        return _norm_prox(W - m, step, lam, p, None) + m
    nw = np.linalg.norm(W, axis=1)
    c = step * lam
    if p == 1.0:
        u = np.maximum(0.0, nw - c)
    else:
        lo, hi = np.zeros_like(nw), nw.copy()
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            too_big = mid + c * np.power(mid, p - 1.0) - nw > 0
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        u = 0.5 * (lo + hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(nw > 0, u / np.where(nw > 0, nw, 1.0), 0.0)
    return W * scale[:, None]


def _dykstra_prox(parts: list, f: _Form, w: Vector, step: float, tol: ToleranceConfig) -> Vector:
    """Cyclic Dykstra iteration for the resolvent of f at w, one ``_prox`` per
    part; raises when the budget runs out before the iterates settle or the
    optimality residual fails."""
    x = np.asarray(w, dtype=float).copy()
    corr = [np.zeros_like(x) for _ in parts]
    inner_tol = 1e-12 * max(1.0, float(np.linalg.norm(w)))
    cycles = max(10, tol.budget // max(1, len(parts)))
    for _ in range(min(cycles, 20_000)):
        x_prev = x.copy()
        corr_prev = [c.copy() for c in corr]
        for i, part in enumerate(parts):
            y = _prox(part, (x + corr[i])[None, :], step, tol)[0]
            corr[i] = x + corr[i] - y
            x = y
        # the primal can stall for whole cycles while corrections still move
        # (e.g. soft thresholds pinning x at a kink), so track both
        change = float(np.linalg.norm(x - x_prev)) + sum(
            float(np.linalg.norm(c - cp)) for c, cp in zip(corr, corr_prev)
        )
        if change <= inner_tol:
            break
    else:
        raise NoClosedFormError("composite prox did not converge within budget")
    resid = _residuals(f, x[None, :], ((np.asarray(w) - x) / step)[None, :], tol)[0]
    if resid > tol.eq_tol * max(1.0, float(np.linalg.norm(w))):
        raise NoClosedFormError(f"composite prox residual {resid:.2e} too large")
    return as_vector(x)


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

def _norm_rows(lam: float, p: float, m: Optional[Vector], X: np.ndarray, tol: ToleranceConfig):
    """(lam J_p(x - m), radius) at each row x: J_p(y) = |y|^(p-2) y, and lam
    where p = 1 and |y| <= eq_tol, where the image is the ball lam B about the
    value 0, else 0."""
    Y = X if m is None else X - m
    r = np.sqrt(rowwise_dot(Y, Y))  # np.linalg.norm's rounding, row by row
    at_ball = (p == 1.0) & (r <= tol.eq_tol)
    smooth = (r > 0.0) & ~at_ball
    coef = np.zeros(len(X))
    coef[smooth] = lam * r[smooth] ** (p - 2.0)
    return coef[:, None] * Y, np.where(at_ball, lam, 0.0)


def _offset(f: _Form, X: np.ndarray, tol: ToleranceConfig):
    """(offset, ball) at the rows X: M x + c plus the terms' values, None when
    the form has none of these, and the summed radii of the terms' balls."""
    offset = None if f.M is None else f.M * X if np.ndim(f.M) == 0 else rowwise_matmul(X, f.M.T)
    if f.c is not None:
        offset = np.broadcast_to(f.c, X.shape) if offset is None else offset + f.c
    ball = np.zeros(len(X))
    for term in f.terms:
        J, radius = _norm_rows(*term, X, tol)
        offset, ball = J if offset is None else offset + J, ball + radius
    return offset, ball


def _residuals(f: _Form, X: np.ndarray, S: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """dist(S[i], A(X[i])) per row for a form with no base and a box or no B,
    +inf outside B. The image is offset + N_B(x) + ball*B, N_B(x) generated by
    +e_j where x_j is at hi_j and -e_j where at lo_j (within eq_tol): the
    distance to it is a per-coordinate clip, and dist(u, K + rB) =
    max(0, dist(u, K) - r)."""
    offset, ball = _offset(f, X, tol)
    R, inside = (S if offset is None else S - offset), True
    if f.B is not None:
        inside, down, up = f.B.contains_batch(X, tol.eq_tol), X <= f.B.lo + tol.eq_tol, X >= f.B.hi - tol.eq_tol
        R = R - np.clip(R, np.where(down, -np.inf, 0.0), np.where(up, np.inf, 0.0))
    return np.where(inside, np.maximum(0.0, np.sqrt(rowwise_dot(R, R)) - ball), np.inf)


def _cone_rays(B: Union[Box, Polytope], x: Vector, tol: ToleranceConfig):
    """(x in B, the rays of N_B(x)). A box's are +e_j where up then -e_j where
    down, coordinate by coordinate; a polytope's, from ``Polytope._facets``,
    the lines +-comp of the complement of its affine hull, then the unit normal
    of each facet active at x, once."""
    n, inside = x.size, B.contains_batch(x[None, :], tol.eq_tol)[0]
    if isinstance(B, Box):
        up, down = x >= B.hi - tol.eq_tol, x <= B.lo + tol.eq_tol
        return inside, np.hstack([np.eye(n), -np.eye(n)]).reshape(2 * n, n)[np.stack([up, down], axis=1).ravel()]
    center, basis, comp, A, b, _ = B._facets
    active = np.abs(A @ ((x - center) @ basis) + b) <= tol.eq_tol * (1.0 + float(np.abs(B.vertices).max()))
    return inside, np.vstack([np.stack([comp.T, -comp.T], axis=1).reshape(-1, n), (basis @ A[active].T).T])


def _image(f: _Form, x: Vector, tol: ToleranceConfig):
    """(points, rays, ball) with A(x) = points + cone(rays) + ball*B: the
    offset, plus each dual of the base's pairs within eq_tol of x, and the
    rays of N_B(x); no points outside dom A."""
    n = x.size
    offset, ball = _offset(f, x[None, :], tol)
    points, rays = (np.zeros((1, n)) if offset is None else offset), np.zeros((0, n))
    if f.base is not None:
        duals = f.base.duals[np.linalg.norm(f.base.primals - x, axis=1) <= tol.eq_tol]
        points = duals if offset is None else duals + offset
    elif f.B is not None:
        inside, rays = _cone_rays(f.B, x, tol)
        points = points if inside else points[:0]
    return points, rays, ball[0]


def fiber(op: OperatorSpec, x: Vector, tol: ToleranceConfig = DEFAULT_TOL) -> Fiber:
    """The image set A(x), exact for polyhedral images; a point of the wrong
    width raises DimensionMismatchError. Only this entry validates x."""
    return _fiber(op, as_vector(x, dim=op_dimension(op)), tol)


def _fiber(op: OperatorSpec, x: np.ndarray, tol: ToleranceConfig) -> Fiber:
    """``fiber`` at a row x already checked: ``_image``'s points and rays, each
    point plus a sampled sphere where the ball is not {0} (exact=False)."""
    points, rays, ball = _image(op._form, x, tol)
    if not len(points):
        return _empty_fiber(x)
    if ball == 0.0:
        return Fiber(x, points, rays, exact=True)
    disc = ball * np.vstack([np.zeros((1, x.size)), unit_sphere_samples(x.size)])
    return Fiber(x, np.vstack([points + b for b in disc]), rays, exact=False)


def membership_batch(
    op: OperatorSpec, X: np.ndarray, S: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Mask of rows with S[i] in A(X[i]) within slack = eq_tol * max(1, |S[i]|).

    With no base and a box or no B, ``_residuals`` gives the exact Euclidean
    distance to the image. A polytope's cone tests the support gap of
    U = S - offset (``_support_gaps``), a base its pairs within eq_tol of
    (x, u); where a term's ball is not {0} these rows project S onto
    ``_image``'s points and rays, to within the radius plus the slack. No row
    is sampled away. Rows of the wrong width raise DimensionMismatchError."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    f = op._form
    if X.ndim != 2 or X.shape != S.shape or f.dim not in (None, X.shape[1]):
        raise DimensionMismatchError(f"point shapes {X.shape} and {S.shape} do not match dimension {f.dim}")
    slack = tol.eq_tol * np.maximum(1.0, np.linalg.norm(S, axis=1))
    if f.base is None and not isinstance(f.B, Polytope):
        return _residuals(f, X, S, tol) <= slack
    offset, ball = _offset(f, X, tol)
    U = S if offset is None else S - offset
    if f.base is None:
        # max |V - x| from the per-coordinate extremes of V: a (k, n) array
        V = f.B.vertices
        spread = np.maximum(V.max(axis=0) - X, X - V.min(axis=0)).max(axis=1)
        out = f.B.contains_batch(X, tol.eq_tol) & (_support_gaps(V, X, U) <= slack * (1.0 + spread))
    else:
        g = f.base
        out = np.array([np.any(
            (np.linalg.norm(g.primals - x, axis=1) <= tol.eq_tol)
            & (np.linalg.norm(g.duals - u, axis=1) <= tol.eq_tol)
        ) for x, u in zip(X, U)], dtype=bool)
    for i in np.flatnonzero(ball > 0.0):
        points, rays, _ = _image(f, X[i], tol)
        d = min((project_onto_generated_set(P[None, :], rays, S[i])[1] for P in points), default=np.inf)
        out[i] = d <= ball[i] + slack[i]
    return out


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
