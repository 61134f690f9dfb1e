import dataclasses
import functools
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fitzkit.errors import (
    DimensionMismatchError,
    NoClosedFormError,
    NotMaximalError,
    ValidationError,
)
from fitzkit.operators import (
    BoxIndicator,
    DualityMapOp,
    Fiber,
    FiniteGraph,
    FunSum,
    GraphOp,
    LinearOp,
    NormPower,
    NormalConeOp,
    PerturbedOp,
    Quadratic,
    Sample,
    ShiftedOp,
    SubdiffOp,
    TranslatedNormPower,
    cone_form,
    fiber,
    graph_sample,
    maximality_probe,
    membership,
    membership_batch,
    monotone_check,
    op_dimension,
    perturb,
    resolvent,
    resolvent_batch,
    shift_graph,
    unique_domain_points,
)
from fitzkit import operators, vecspace
from fitzkit.fitzpatrick import _crossed, _ridden, fitz_rows
from fitzkit.vecspace import (
    Box,
    DEFAULT_TOL,
    Grid,
    PairPoint,
    Polytope,
    ToleranceConfig,
    pair,
    project_onto_generated_set,
)

SEED = 20260809


def graph_of(*pts):
    return FiniteGraph.from_arrays([p for p, _ in pts], [d for _, d in pts])


def count_calls(monkeypatch, name, *modules):
    """One list that grows by one on each call of name in any of modules."""
    calls = []
    for module in modules:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw))
    return calls


CONE01 = NormalConeOp(Box([0.0], [1.0]))
CONE01_2 = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0]))
IDENT = LinearOp(np.eye(1), np.zeros(1))
IDENT2 = LinearOp(np.eye(2), np.zeros(2))


# --------------------------------------------------------------------------
# construction invariants
# --------------------------------------------------------------------------

def test_linear_monotonicity_rejected():
    with pytest.raises(ValidationError, match="not monotone"):
        LinearOp([[-1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    # skew is fine
    LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])


def test_quadratic_psd_rejected():
    with pytest.raises(ValidationError):
        Quadratic([[-1.0]], [0.0])


def test_graph_duplicate_rejected():
    with pytest.raises(ValidationError):
        graph_of(([0.0], [0.0]), ([0.0], [0.0]))
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    assert len(g) == 2


@pytest.mark.parametrize("gap", [0.0, 0.5 * DEFAULT_TOL.eq_tol, DEFAULT_TOL.eq_tol])
def test_both_graph_constructors_reject_duplicates_within_eq_tol(gap):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [gap, 0.0]])
    S = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="duplicate"):
        FiniteGraph.from_arrays(X, S)
    X[2, 0] = 2.0 * DEFAULT_TOL.eq_tol
    assert len(FiniteGraph.from_arrays(X, S)) == 3


def test_graph_arrays_are_read_only_and_pairs_built_on_demand():
    X = np.array([[0.0, 1.0], [2.0, 3.0]])
    S = np.asfortranarray([[1.0, 0.0], [0.0, 1.0]])
    g = FiniteGraph.from_arrays(X, S)
    X[0, 0] = 9.0  # the graph holds its own copy
    for arr in (g.primals, g.duals, g.self_products):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert g.primals[0].tolist() == [0.0, 1.0] and g.self_products.tolist() == [0.0, 3.0]
    assert g.pair(1).primal.tolist() == [2.0, 3.0] and g.pair(1).dual.tolist() == [0.0, 1.0]
    assert [g.pair(i).dual.tolist() for i in range(len(g))] == g.duals.tolist()
    for bad, err in (
        ((np.zeros((0, 2)), np.zeros((0, 2))), ValidationError),
        ((X, S[:, :1]), DimensionMismatchError),
        ((np.array([[np.nan, 0.0]]), np.zeros((1, 2))), ValidationError),
    ):
        with pytest.raises(err):
            FiniteGraph.from_arrays(*bad)


def test_graph_sample_builds_no_pair_points(monkeypatch):
    built = []
    original = PairPoint.__post_init__
    monkeypatch.setattr(PairPoint, "__post_init__", lambda self: built.append(1) or original(self))
    g = graph_sample(CONE01_2, Grid([-1.0, -1.0], [2.0, 2.0], 0.25))
    assert len(g) > 0 and built == []


def test_funsum_disjoint_boxes_rejected():
    with pytest.raises(ValidationError):
        FunSum((BoxIndicator([0.0], [1.0]), BoxIndicator([2.0], [3.0])))


def test_perturbed_requires_positive_lambda():
    with pytest.raises(ValidationError):
        PerturbedOp(IDENT, 0.0, 2.0, [0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_operator_scalars_must_be_finite(bad):
    for build in (lambda: NormPower(bad), lambda: NormPower(2.0, bad), lambda: DualityMapOp(bad, [0.0]),
                  lambda: TranslatedNormPower(bad, 1.0, [0.0]), lambda: PerturbedOp(IDENT, bad, 2.0, [0.0]),
                  lambda: PerturbedOp(IDENT, 1.0, bad, [0.0])):
        with pytest.raises(ValidationError, match="finite"):
            build()


# --------------------------------------------------------------------------
# resolvent
# --------------------------------------------------------------------------

def test_resolvent_worked_examples():
    assert resolvent(IDENT2, [2.0, 2.0]) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert resolvent(CONE01_2, [2.0, 0.5]) == pytest.approx([1.0, 0.5], abs=1e-12)
    half_sq = SubdiffOp(Quadratic([[1.0]], [0.0]))
    assert resolvent(half_sq, [4.0]) == pytest.approx([2.0], abs=1e-12)


def test_resolvent_graph_not_maximal():
    with pytest.raises(NotMaximalError):
        resolvent(GraphOp(graph_of(([0.0], [0.0]))), [1.0])


@pytest.mark.parametrize("op", [
    IDENT2,
    CONE01_2,
    NormalConeOp(Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    SubdiffOp(Quadratic(np.eye(2))),
    DualityMapOp(2.0, [0.0, 0.0]),
    ShiftedOp(CONE01_2, [1.0, 1.0]),
], ids=["linear", "box-cone", "polytope-cone", "quadratic", "J_2", "shifted-cone"])
def test_resolvent_batch_of_rows_of_the_wrong_width_raises_dimension_mismatch(op):
    # a box cone's clip broadcast (k, 3) rows against its 2-d bounds into a
    # bare numpy ValueError
    for W in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatchError):
            resolvent_batch(op, W)
    assert resolvent_batch(op, np.zeros((4, 2))).shape == (4, 2)


def test_resolvent_fixed_point_identity():
    rng = np.random.default_rng(SEED)
    ops = [
        IDENT2,
        CONE01_2,
        SubdiffOp(Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.1, -0.2])),
        SubdiffOp(NormPower(1.0, 0.7)),
        SubdiffOp(NormPower(3.0, 1.0)),
        SubdiffOp(FunSum((Quadratic([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
                          BoxIndicator([0.0, 0.0], [1.0, 1.0])))),
        DualityMapOp(2.0, [0.5, -0.5]),
        ShiftedOp(IDENT2, [1.0, -1.0]),
        PerturbedOp(CONE01_2, 2.0, 2.0, [0.5, 0.5]),
    ]
    for op in ops:
        for _ in range(25):
            w = rng.uniform(-3, 3, size=2)
            x = resolvent(op, w)
            s = w - x
            assert membership(op, pair(x, s), DEFAULT_TOL), (op, w)
            # Minty fixed point: resolvent(x + x*) == x
            assert resolvent(op, x + s) == pytest.approx(x, abs=1e-8)


def test_box_qp_row_does_not_depend_on_its_batch():
    # 0.5|x|^2 plus the indicator of [0,1]^2: a far row in the same batch must
    # not widen the KKT slack of a near one and admit a wrong active set
    quadbox = SubdiffOp(FunSum((Quadratic(np.eye(2), np.zeros(2)),
                                BoxIndicator([0.0, 0.0], [1.0, 1.0]))))
    w = np.array([2.0 + 2e-8, 1.0])
    assert resolvent(quadbox, w).tolist() == [1.0, 0.5]
    x = resolvent_batch(quadbox, np.array([w, [1e4, 0.0]]))[0]
    assert x.tolist() == [1.0, 0.5]
    assert membership(quadbox, pair(x, w - x))


def box_qp_enumeration_reference(H, G, lo, hi):
    """The box QP over all 3^n active-bound patterns of the whole box, in
    itertools.product order, each row taking its first valid pattern, with
    each row's KKT slack 1e-10 max(1, max|G_i|, max|H|); right-hand sides
    and gradients are summed row by row in a fixed order."""
    k, n = G.shape
    scale = np.maximum(np.abs(G).max(axis=1, initial=1.0), np.abs(H).max(axis=(-2, -1)))
    X = np.zeros((k, n))
    todo = np.arange(k)
    for pattern in itertools.product((0, 1, 2), repeat=n):
        free = [i for i, s in enumerate(pattern) if s == 0]
        fixed = [i for i, s in enumerate(pattern) if s != 0]
        xb = np.array([lo[i] if pattern[i] == 1 else hi[i] for i in fixed])
        Gt, Ht, ktol = G[todo], H[todo] if H.ndim == 3 else H, 1e-10 * scale[todo]
        cand = np.zeros((len(todo), n))
        for idx, i in enumerate(fixed):
            cand[:, i] = xb[idx]
        if free:
            rhs = Gt[:, free] - vecspace.rowwise_matmul(cand[:, fixed], Ht[..., fixed, :][..., free])
            cand[:, free] = np.linalg.solve(Ht[..., free, :][..., free], rhs[:, :, None])[:, :, 0]
        grad = vecspace.rowwise_matmul(cand, Ht) - Gt
        valid = np.ones(len(todo), dtype=bool)
        for i in free:
            valid &= (cand[:, i] >= lo[i] - ktol) & (cand[:, i] <= hi[i] + ktol)
        for i in fixed:
            valid &= grad[:, i] >= -ktol if pattern[i] == 1 else grad[:, i] <= ktol
        X[todo[valid]] = cand[valid]
        todo = todo[~valid]
        if not len(todo):
            return X
    raise ValidationError("box quadratic subproblem left unresolved rows")


@st.composite
def box_qps(draw):
    """(H, G, lo, hi) for n = 1 to 4: H diagonal, block diagonal on the
    interleaved blocks {0, 2} and {1, 3} or on {0, .., n - 2} and {n - 1}, or
    dense SPD, maybe one per row as a step per row makes it; some coordinates
    with lo = hi; entries of G within a few KKT slacks of h lo and h hi, and
    some -0.0 and 0.0."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(-1.0, 1.0, (n, n))
    H = A @ A.T + 0.1 * np.eye(n)
    shape = draw(st.sampled_from(("diagonal", "interleaved", "leading", "dense")))
    if shape != "dense":
        label = {"diagonal": np.arange(n), "interleaved": np.arange(n) % 2, "leading": np.arange(n) == n - 1}[shape]
        H = np.where(np.equal.outer(label, label), H, 0.0)
    if draw(st.booleans()):
        H = np.eye(n) + rng.uniform(0.05, 20.0, k)[:, None, None] * H
    lo = rng.uniform(-1.0, 0.5, n) * (rng.random(n) > 0.3)
    hi = lo + rng.uniform(0.0, 1.5, n) * (rng.random(n) > 0.25)
    G = rng.uniform(-4.0, 4.0, (k, n))
    ktol = 1e-10 * np.maximum(np.abs(G).max(axis=1), np.abs(H).max(axis=(-2, -1)))[:, None]
    h = np.diagonal(H, axis1=-2, axis2=-1)
    edge = h * np.where(rng.random((k, n)) < 0.5, lo, hi) + rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], (k, n)) * ktol
    G = np.where(rng.random((k, n)) < 0.4, edge, G)
    G = np.where(rng.random((k, n)) < 0.15, rng.choice([-0.0, 0.0], (k, n)), G)
    return H, G, lo, hi


@settings(max_examples=300, deadline=None)
@given(box_qps())
@example(case=(  # blocks {0, 1, 2} and {3}: a right-hand side of the first sums two nonzero products
    np.array([[0.761, 0.275, 0.082, 0.0], [0.275, 1.237, 0.618, 0.0], [0.082, 0.618, 1.219, 0.0], [0.0, 0.0, 0.0, 2.43]]),
    np.array([[2.1, 2.29, 3.99, 2.64]]), np.array([0.41, 0.16, 0.48, 0.1]), np.array([1.27, 1.06, 1.14, 1.13])))
def test_box_qp_equals_the_enumeration_of_the_whole_box(case):
    # per block of H, bit for bit, signed zeros included
    H, G, lo, hi = case
    try:
        ref = box_qp_enumeration_reference(H, G, lo, hi)
    except ValidationError:
        with pytest.raises(ValidationError):
            operators._box_qp_batch(H, G, lo, hi)
        return
    assert operators._box_qp_batch(H, G, lo, hi).tobytes() == ref.tobytes()


def test_box_qp_solves_each_block_of_h_apart(monkeypatch):
    # the 3-d dense-sample quadbox, H = 2I: one solve per coordinate, where the
    # enumeration of the whole box made 19
    solves = count_calls(monkeypatch, "_solve_rows", operators)
    g = graph_sample(DENSE_SAMPLE_FAMILIES["quadbox"](3), Grid([-2.0] * 3, [3.0] * 3, 0.25))
    assert len(g) == 21**3 and len(solves) <= 3


def test_prox_sum_exact_vs_dykstra():
    # quadratic + box has an exact path; compare against Dykstra by disguising
    # the quadratic as a p=2 norm power plus a non-exact part with zero weight
    quad = Quadratic([[1.0, 0.2], [0.2, 2.0]], [0.3, -0.1])
    box = BoxIndicator([-0.5, -0.5], [0.5, 0.5])
    exact = SubdiffOp(FunSum((quad, box)))
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        w = rng.uniform(-2, 2, size=2)
        x = resolvent(exact, w)
        # KKT: w - x - (Qx + b) must sit in the box normal cone at x
        u = w - x - (quad.Q @ x + quad.b)
        assert membership(NormalConeOp(Box([-0.5, -0.5], [0.5, 0.5])), pair(x, u), DEFAULT_TOL)


def test_dykstra_path_with_norm_term():
    fun = FunSum((Quadratic([[1.0]], [0.0]), NormPower(1.0, 0.5)))
    w = np.array([2.0])
    x = resolvent(SubdiffOp(fun), w, step=1.0)
    # subgradient: w - x = x + 0.5*sign(x) -> 2 = 2x + 0.5 -> x = 0.75
    assert x == pytest.approx([0.75], abs=1e-6)


def test_dykstra_budget_exhaustion():
    from fitzkit.vecspace import ToleranceConfig

    tiny = ToleranceConfig(budget=2)
    fun = FunSum((Quadratic([[1.0]], [0.0]), NormPower(1.5, 1.0)))
    with pytest.raises(NoClosedFormError):
        resolvent(SubdiffOp(fun), np.array([2.0]), tiny, step=1.0)


# --------------------------------------------------------------------------
# graph_sample
# --------------------------------------------------------------------------

def test_graph_sample_worked_examples():
    g = graph_sample(CONE01, Grid([-1.0], [2.0], 1.5))
    # w in {-1, 0.5, 2} -> pairs ((0,-1), (0.5,0), (1,1))
    rows = {(round(p.primal[0], 9), round(p.dual[0], 9)) for p in map(g.pair, range(len(g)))}
    assert rows == {(0.0, -1.0), (0.5, 0.0), (1.0, 1.0)}

    g = graph_sample(IDENT, Grid([0.0], [2.0], 2.0))
    rows = {(p.primal[0], p.dual[0]) for p in map(g.pair, range(len(g)))}
    assert rows == {(0.0, 0.0), (1.0, 1.0)}

    half_sq = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(half_sq, Grid([-2.0], [2.0], 2.0))
    rows = {(p.primal[0], p.dual[0]) for p in map(g.pair, range(len(g)))}
    assert rows == {(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)}


def test_graph_sample_monotone():
    ops = [CONE01_2, IDENT2, LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])]
    for op in ops:
        g = graph_sample(op, Grid([-2.0, -2.0], [2.0, 2.0], 0.5))
        assert monotone_check(g) is None


DENSE_SAMPLE_FAMILIES = {  # the benchmark's dense-sample operators on R^n
    "box": lambda n: NormalConeOp(Box(np.zeros(n), np.ones(n))),
    "simplex": lambda n: NormalConeOp(Polytope(np.vstack([np.zeros(n), np.eye(n)]))),
    "identity": lambda n: LinearOp(np.eye(n), np.zeros(n)),
    "quadbox": lambda n: SubdiffOp(
        FunSum((Quadratic(np.eye(n), np.zeros(n)), BoxIndicator(np.zeros(n), np.ones(n))))
    ),
}


@pytest.mark.parametrize("family", DENSE_SAMPLE_FAMILIES)
@pytest.mark.parametrize("n, spacing", [(2, 0.25), (3, 0.5)])
def test_graph_sample_dedupes_once_and_its_rows_pass_the_graph_dedupe(monkeypatch, family, n, spacing):
    # the grid's spacing proves the rows apart, so graph_sample sorts them in
    # place of the dedupe, and the result is the dedupe's bit for bit
    dedupes = count_calls(monkeypatch, "dedupe_rows_within", operators)
    op, grid = DENSE_SAMPLE_FAMILIES[family](n), Grid([-2.0] * n, [3.0] * n, spacing)
    g = graph_sample(op, grid)
    assert dedupes == []
    W = grid.nodes()
    X = resolvent_batch(op, W)
    ref = vecspace.dedupe_rows_within(np.hstack([X, W - X]), DEFAULT_TOL.eq_tol)
    rows = np.hstack([g.primals, g.duals])
    assert rows.shape == ref.shape and rows.tobytes() == ref.tobytes()
    h = FiniteGraph.from_arrays(g.primals, g.duals)
    assert dedupes == [1]
    for a, b in ((g.primals, h.primals), (g.duals, h.duals), (g.self_products, h.self_products)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "grid, dedupes, drops",
    [
        (Grid([1e16], [1e16 + 64.0], 1.0), [1], True),  # 65 nodes on 33 floats: gap 0
        (Grid([0.0], [4e-8], 1.4e-9), [1], True),  # identity rows within eq_tol
        (Grid([0.0], [4e-8], 2.8e-9), [1], False),  # apart, yet below 2 sqrt(2) eq_tol
        (Grid([0.0], [4e-8], 2.9e-9), [], False),  # past the bound: proven apart
        (Grid([-2.0, 0.0], [3.0, 1.0], 0.5), [], False),
    ],
)
def test_graph_sample_falls_back_to_the_dedupe_unless_the_grid_proves_rows_apart(monkeypatch, grid, dedupes, drops):
    op = IDENT if grid.dim == 1 else IDENT2
    calls = count_calls(monkeypatch, "dedupe_rows_within", operators)
    W = grid.nodes()
    X = resolvent_batch(op, W)
    ref = vecspace.dedupe_rows_within(np.hstack([X, W - X]), DEFAULT_TOL.eq_tol)
    g = graph_sample(op, grid, verify=False)
    assert calls == dedupes
    rows = np.hstack([g.primals, g.duals])
    assert rows.shape == ref.shape and rows.tobytes() == ref.tobytes()
    assert (len(g) < grid.count) == drops


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_sample_separation_fails_on_a_nan_or_an_overflow(bad):
    grid = Grid([0.0, 0.0], [1.0, 1.0], 0.5)
    S = np.ones((grid.count, 2))
    assert operators._rows_separated(grid, S, DEFAULT_TOL.eq_tol)
    S[3, 1] = bad
    assert not operators._rows_separated(grid, S, DEFAULT_TOL.eq_tol)


def test_graph_sample_below_the_default_tolerance_keeps_the_graph_dedupe():
    # identity rows 7e-10 apart: distinct at eq_tol 1e-10, duplicates at the
    # graph's own 1e-9
    fine = ToleranceConfig(eq_tol=1e-10)
    with pytest.raises(ValidationError, match="duplicate graph pairs within tolerance"):
        graph_sample(IDENT, Grid([0.0], [5e-9], 1e-9), fine)


# --------------------------------------------------------------------------
# fiber / membership
# --------------------------------------------------------------------------

def test_fiber_worked_examples():
    f = fiber(CONE01, [1.0])
    assert f.exact
    assert f.points.tolist() == [[0.0]]
    assert f.rays.tolist() == [[1.0]]

    f = fiber(CONE01, [2.0])
    assert f.is_empty

    f = fiber(LinearOp(np.eye(1), np.zeros(1)), [3.0])
    assert f.exact and f.points.tolist() == [[3.0]] and len(f.rays) == 0


def test_fiber_polytope_normal_cone():
    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    op = NormalConeOp(tri)
    # at the hypotenuse midpoint the cone is the outward facet normal
    f = fiber(op, [0.5, 0.5])
    assert f.exact and len(f.rays) == 1
    r = f.rays[0] / np.linalg.norm(f.rays[0])
    assert r == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)], abs=1e-9)
    # interior: just {0}
    f = fiber(op, [0.2, 0.2])
    assert f.exact and len(f.rays) == 0 and f.points.tolist() == [[0.0, 0.0]]
    # vertex: two facet normals
    f = fiber(op, [0.0, 1.0])
    assert len(f.rays) == 2
    # membership in H-form agrees
    assert membership(op, pair([0.5, 0.5], [2.0, 2.0]))
    assert not membership(op, pair([0.5, 0.5], [2.0, -2.0]))


def test_fiber_degenerate_polytope_has_lines():
    seg = Polytope([[0.0, 0.0], [1.0, 1.0]])
    f = fiber(NormalConeOp(seg), [0.5, 0.5])
    # interior of a segment in the plane: normal cone is the orthogonal line
    assert f.exact and len(f.rays) == 2
    for r in f.rays:
        assert abs(np.dot(r, [1.0, 1.0])) <= 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_polytope_normal_cone_lists_each_facet_normal_once(n):
    # Qhull splits each square facet of the cube into coplanar simplices; the
    # fiber lists each facet's normal once: n rays at a vertex, one on a facet
    op = NormalConeOp(Box([0.0] * n, [1.0] * n).to_polytope())
    f = fiber(op, [1.0] * n)
    axes = np.argmax(f.rays, axis=1)
    assert f.exact and sorted(axes.tolist()) == list(range(n))
    assert np.abs(f.rays - np.eye(n)[axes]).max() <= 1e-12
    f = fiber(op, [1.0] + [0.5] * (n - 1))
    assert len(f.rays) == 1 and np.abs(f.rays[0] - np.eye(n)[0]).max() <= 1e-12


def test_perturbed_graph_membership_is_the_distance_to_the_nearest_fiber_point():
    # A(0) = {-1, 1}, so A(0) + 0.1B = [-1.1, -0.9] u [0.9, 1.1] does not hold 0,
    # which the hull of the inner fiber's points, [-1, 1], holds
    op = PerturbedOp(GraphOp(graph_of(([0.0], [-1.0]), ([0.0], [1.0]))), 0.1, 1.0, [0.0])
    assert not membership(op, pair([0.0], [0.0]))
    assert [membership(op, pair([0.0], [v])) for v in (-1.1, -0.95, 0.9, 1.05)] == [True] * 4
    assert not membership(op, pair([0.0], [1.11]))


def test_membership_worked_examples():
    assert membership(CONE01, pair([0.5], [0.0]))
    assert not membership(CONE01, pair([0.5], [1.0]))
    assert membership(LinearOp(np.eye(1), np.zeros(1)), pair([2.0], [2.0]))


def test_membership_scales_with_dual_magnitude():
    # ray-scaled duals must still test as members despite float noise
    assert membership(CONE01, pair([1.0], [1e9]))
    assert not membership(CONE01, pair([1.0], [-1e9]))


QUADBOX2 = SubdiffOp(
    FunSum((Quadratic(np.eye(2), np.zeros(2)), BoxIndicator([0.0, 0.0], [1.0, 1.0])))
)
# a quadratic coupling all four coordinates (diagonally dominant, so SPD) and
# a box whose bounds are not powers of 2, so a bound times an entry of H rounds
QUADBOX4 = SubdiffOp(FunSum((
    Quadratic([[2.0, 0.5, 0.3, 0.1], [0.5, 1.5, 0.2, 0.4], [0.3, 0.2, 1.8, 0.6], [0.1, 0.4, 0.6, 1.2]],
              [0.1, -0.2, 0.3, -0.1]),
    BoxIndicator([-0.3] * 4, [0.4] * 4))))


@pytest.mark.parametrize("op", [QUADBOX2, CONE01_2], ids=["quadbox", "box_cone"])
@pytest.mark.parametrize("mag", [1e3, 1e9, 1e11, 1.954e11, 1e12])
def test_membership_along_huge_cone_rays(op, mag):
    # at the corner (0, 1) both fibers hold offset + t*e_1 for every t >= 0;
    # the projection must not accept the cone apex under a residual of |x*|
    assert membership(op, pair([0.0, 1.0], [0.0, mag]))
    assert not membership(op, pair([0.0, 1.0], [mag, mag]))


def fiber_reference(fun, x, tol=DEFAULT_TOL):
    """The per-point subdifferential rule that preceded the one batch rule,
    as (in_domain, offset, rays, ball): a box's rays are +e_i then -e_i at
    each active bound, coordinate by coordinate, and a sum's rays are its
    parts' rays, part by part, duplicates kept."""
    x = np.asarray(x, dtype=float)
    n = x.size
    empty = np.zeros((0, n))
    if isinstance(fun, Quadratic):
        return True, fun.Q @ x + fun.b, empty, 0.0
    if isinstance(fun, BoxIndicator):
        if not (np.all(x >= fun.lo - tol.eq_tol) and np.all(x <= fun.hi + tol.eq_tol)):
            return False, np.zeros(n), empty, 0.0
        rays = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            if x[i] >= fun.hi[i] - tol.eq_tol:
                rays.append(e)
            if x[i] <= fun.lo[i] + tol.eq_tol:
                rays.append(-e)
        return True, np.zeros(n), np.array(rays) if rays else empty, 0.0
    if isinstance(fun, TranslatedNormPower):
        return fiber_reference(NormPower(fun.p, fun.scale), x - fun.center, tol)
    if isinstance(fun, NormPower):
        r = float(np.linalg.norm(x))
        if fun.p == 2.0:  # the normal form's linear part: no norm, which can underflow
            return True, fun.scale * x, empty, 0.0
        if fun.p == 1.0 and r <= tol.eq_tol:
            return True, np.zeros(n), empty, fun.scale
        if r == 0.0:
            return True, np.zeros(n), empty, 0.0
        # the power of a one-element array, as the batch rule takes it: numpy
        # takes r ** -1.0 as a reciprocal, libm pow on a float can differ in the last bit
        return True, fun.scale * (np.array([r]) ** (fun.p - 2.0))[0] * x, empty, 0.0
    if isinstance(fun, FunSum):  # a box adds no offset, and the sum starts at its first term
        offset, rays, ball = None, [empty], 0.0
        for part in fun.parts:
            inside, p_off, p_rays, p_ball = fiber_reference(part, x, tol)
            if not inside:
                return False, np.zeros(n), empty, 0.0
            if not isinstance(part, BoxIndicator):
                offset = p_off if offset is None else offset + p_off
            ball = ball + p_ball
            rays.append(p_rays)
        return True, np.zeros(n) if offset is None else offset, np.vstack(rays), ball
    raise AssertionError(type(fun).__name__)


def subdiff_residual_reference(fun, x, v, tol=DEFAULT_TOL):
    """The one-row residual that preceded the closed-form batch rule: the
    distance from v to the fiber decomposition offset + cone(rays) + ball,
    the cone distance by the active-set projection."""
    inside, offset, rays, ball = fiber_reference(fun, x, tol)
    if not inside:
        return float("inf")
    u = np.asarray(v, dtype=float) - offset
    if len(rays) == 0:
        d = float(np.linalg.norm(u))
    else:
        _, d = project_onto_generated_set(np.zeros((1, u.size)), rays, u)
    return max(0.0, d - ball)


def _subdiff_fun(op):
    """The function f with op = df, else None: a box cone read as its box
    indicator, J_p(. - c) as |. - c|^p / p, and A + lam J_p(. - c) as
    f + lam |. - c|^p / p when A = df."""
    if isinstance(op, SubdiffOp):
        return op.fun
    if isinstance(op, NormalConeOp) and isinstance(op.region, Box):
        return BoxIndicator(op.region.lo, op.region.hi)
    if isinstance(op, DualityMapOp):
        return TranslatedNormPower(op.p, 1.0, op.center)
    if isinstance(op, PerturbedOp) and _subdiff_fun(op.inner) is not None:
        return FunSum((_subdiff_fun(op.inner), TranslatedNormPower(op.p, op.lam, op.center)))
    return None


def scalar_membership_reference(op, pt, tol=DEFAULT_TOL, slack=None):
    """The one-pair membership rule that preceded membership_batch, one
    family per branch, kept as the oracle the batch must agree with. The
    slack is the pair's own, eq_tol * max(1, |x*|), through shifts and
    perturbations too."""
    x, v = pt.primal, pt.dual
    if slack is None:
        slack = tol.eq_tol * max(1.0, float(np.linalg.norm(v)))
    if isinstance(op, GraphOp):
        dp = np.linalg.norm(op.graph.primals - x, axis=1)
        dd = np.linalg.norm(op.graph.duals - v, axis=1)
        return bool(np.any((dp <= tol.eq_tol) & (dd <= tol.eq_tol)))
    if isinstance(op, LinearOp):
        return bool(np.linalg.norm(op.M @ x + op.c - v) <= slack)
    if _subdiff_fun(op) is not None:  # N_box, J_p and perturbed df are subdifferentials
        return subdiff_residual_reference(_subdiff_fun(op), x, v, tol) <= slack
    if isinstance(op, NormalConeOp):
        if not op.region.contains(x, tol.eq_tol):
            return False
        gaps = (op.region.vertices - x) @ v
        return bool(gaps.max() <= slack * (1.0 + float(np.abs(op.region.vertices - x).max())))
    if isinstance(op, ShiftedOp):
        return scalar_membership_reference(op.inner, PairPoint(x, v + op.zstar), tol, slack)
    if isinstance(op, PerturbedOp):
        _, jp, _, ball = fiber_reference(TranslatedNormPower(op.p, op.lam, op.center), x, tol)
        if ball == 0.0:
            return scalar_membership_reference(op.inner, PairPoint(x, v - jp), tol, slack)
        inner = fiber(op.inner, x, tol)
        if inner.is_empty:
            return False
        # an exact fiber is each of its points plus the cone; a ball-sampled
        # one is the hull of its points plus the cone
        groups = [q[None, :] for q in inner.points] if inner.exact else [inner.points]
        return bool(min(project_onto_generated_set(P, inner.rays, v)[1] for P in groups) <= op.lam + slack)
    raise AssertionError(type(op).__name__)


SIMPLEX2 = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# (operator, notable primal points: vertices, face midpoints, centers)
MEMBERSHIP_KINDS = {
    "graph": (GraphOp(graph_of(([0.0, 0.0], [0.0, 0.0]), ([1.0, 0.5], [1.0, 0.5]),
                               ([1.0, 0.5], [2.0, 0.5]))),
              [[0.0, 0.0], [1.0, 0.5]]),
    "linear_skew": (LinearOp([[1.0, -2.0], [2.0, 0.5]], [0.3, -0.1]), [[0.0, 0.0]]),
    "quadbox": (QUADBOX2, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.5], [0.5, 1.0]]),
    "l1_norm": (SubdiffOp(NormPower(1.0, 0.7)), [[0.0, 0.0]]),
    "box_cone": (CONE01_2, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.5], [1.0, 0.25]]),
    "simplex_cone": (NormalConeOp(SIMPLEX2),
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.0]]),
    "segment_cone": (NormalConeOp(Polytope([[0.0, 0.0], [1.0, 1.0]])),
                     [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]),
    "j1": (DualityMapOp(1.0, [0.5, -0.5]), [[0.5, -0.5]]),
    "j3": (DualityMapOp(3.0, [0.5, -0.5]), [[0.5, -0.5]]),
    "shifted_cone": (ShiftedOp(CONE01_2, [1.0, -1.0]), [[1.0, 0.0], [0.0, 1.0]]),
    "perturbed_p1": (PerturbedOp(CONE01_2, 0.5, 1.0, [0.5, 0.5]), [[0.5, 0.5], [1.0, 0.5]]),
    "perturbed_p2": (PerturbedOp(NormalConeOp(SIMPLEX2), 2.0, 2.0, [0.2, 0.2]),
                     [[0.0, 0.0], [0.2, 0.2], [0.5, 0.5]]),
    # the box [0.5, 1] x [0, 0.5] as two boxes: duplicate rays at shared bounds
    "two_boxes": (SubdiffOp(FunSum((BoxIndicator([0.0, 0.0], [1.0, 1.0]),
                                    BoxIndicator([0.5, -1.0], [2.0, 0.5])))),
                  [[0.5, 0.0], [1.0, 0.5], [0.5, 0.25], [0.75, 0.5], [1.0, 1.0]]),
    # a ball and rays in one fiber at the origin
    "l1_box": (SubdiffOp(FunSum((NormPower(1.0, 0.7), BoxIndicator([-1.0, 0.0], [1.0, 1.0])))),
               [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]),
    "sq_box": (SubdiffOp(FunSum((NormPower(2.0, 1.5), BoxIndicator([0.0, 0.0], [1.0, 1.0])))),
               [[0.0, 0.0], [1.0, 1.0], [0.0, 0.5], [0.5, 1.0]]),
    "tsq_box": (SubdiffOp(FunSum((TranslatedNormPower(2.0, 0.5, [0.25, 2.0]),
                                  BoxIndicator([0.0, 0.0], [1.0, 1.0])))),
                [[0.25, 1.0], [1.0, 1.0], [0.0, 0.0], [0.5, 0.5]]),
    # A(0) holds two points: A(0) + 0.5B is two disks, not their hull
    "perturbed_graph": (PerturbedOp(GraphOp(graph_of(([0.0, 0.0], [-1.0, 0.0]), ([0.0, 0.0], [1.0, 0.0]),
                                                     ([1.0, 0.5], [1.0, 0.5]))), 0.5, 1.0, [0.0, 0.0]),
                        [[0.0, 0.0], [1.0, 0.5]]),
    # lo = hi in the second coordinate: the fiber holds the whole line along e_2
    "flat_box": (SubdiffOp(BoxIndicator([0.0, 0.5], [1.0, 0.5])),
                 [[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]]),
}

_coord = st.floats(-3.0, 3.0, allow_nan=False)
_row = st.tuples(
    st.sampled_from(("resolvent", "nudged", "notable", "random")),
    st.tuples(_coord, _coord),
    st.tuples(_coord, _coord),
    st.integers(0, 9),
)


def _membership_row(op, notable, mode, a, b, k):
    a, b = np.array(a), np.array(b)
    if mode == "random":
        return a, b
    if mode == "notable":
        x = np.array(notable[k % len(notable)], dtype=float)
        norm_b = np.linalg.norm(b)
        if k % 2 or norm_b == 0.0:
            return x, b * (k + 1) / 3.0
        # duals of norm 1 +- a fraction of eq_tol: the edge of the J_1 unit ball
        return x, b / norm_b * (1.0 + (k - 4) * 0.4 * DEFAULT_TOL.eq_tol)
    if isinstance(op, GraphOp):
        x, v = op.graph.primals[k % len(op.graph)], op.graph.duals[k % len(op.graph)]
    elif isinstance(op, PerturbedOp) and isinstance(op.inner, GraphOp):  # no resolvent: a fiber point
        x = op.inner.graph.primals[k % len(op.inner.graph)]
        pts = fiber(op, x).points
        v = pts[k % len(pts)]
    else:
        x = resolvent(op, a)
        v = a - x
    if mode == "nudged":  # moves of a few eq_tol in both coordinates
        x = x + DEFAULT_TOL.eq_tol * b
        v = v + DEFAULT_TOL.eq_tol * b[::-1] * (k - 4.5)
    return x, v


@settings(max_examples=60, deadline=None)
@given(st.lists(_row, min_size=1, max_size=6))
@pytest.mark.parametrize("kind", sorted(MEMBERSHIP_KINDS))
def test_membership_batch_agrees_with_scalar_reference(kind, rows):
    op, notable = MEMBERSHIP_KINDS[kind]
    pts = [_membership_row(op, notable, *r) for r in rows]
    X = np.array([x for x, _ in pts])
    S = np.array([v for _, v in pts])
    mask = membership_batch(op, X, S, DEFAULT_TOL)
    expected = [scalar_membership_reference(op, PairPoint(x, v)) for x, v in pts]
    assert mask.dtype == bool and mask.tolist() == expected
    assert [membership(op, PairPoint(x, v)) for x, v in pts] == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(_row, min_size=1, max_size=6))
# rows where libm pow(r, -1.0) on a float and numpy's reciprocal differ in the last bit
@example([("random", (-2.6071667711797866, 0.704913578938807), (0.0, 0.0), 0)])
@example([("nudged", (2.0, 0.8984539142953087), (0.0, -2.3943778778004106), 0)])
@pytest.mark.parametrize(
    "kind", sorted(k for k, (op, _) in MEMBERSHIP_KINDS.items() if _subdiff_fun(op) is not None)
)
def test_fiber_agrees_with_the_per_point_reference(kind, rows):
    # points bit for bit; rays in order and sign bit, except that a ray two
    # boxes share now appears once
    op, notable = MEMBERSHIP_KINDS[kind]
    for r in rows:
        x, _ = _membership_row(op, notable, *r)
        f = fiber(op, x)
        inside, offset, rays, ball = fiber_reference(_subdiff_fun(op), x)
        if not inside:
            assert f.is_empty and f.exact
            continue
        n = x.size
        points = offset[None, :] if ball == 0.0 else offset + np.vstack(
            [np.zeros((1, n)), ball * operators.unit_sphere_samples(n)]
        )
        assert f.exact == (ball == 0.0)
        assert f.points.shape == points.shape and f.points.tobytes() == points.tobytes()
        if kind == "two_boxes":
            assert {r.tobytes() for r in f.rays} == {r.tobytes() for r in rays}
        else:
            assert f.rays.shape == rays.shape and f.rays.tobytes() == rays.tobytes()


def test_box_cone_membership_is_the_box_indicator_subdifferential():
    # N_box = d(iota_box). In the interior the image is {0}; (9e-10, 9e-10) is
    # within eq_tol of it coordinate by coordinate, but 1.27e-9 away from it
    pt = pair([0.5, 0.5], [9e-10, 9e-10])
    indicator = SubdiffOp(BoxIndicator([0.0, 0.0], [1.0, 1.0]))
    assert not membership(CONE01_2, pt)
    assert membership(CONE01_2, pt) == membership(indicator, pt)
    assert membership(CONE01_2, pair([0.5, 0.5], [7e-10, 7e-10]))


PERTURBED_BOX_CONE = PerturbedOp(NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), 0.5, 1.0, [0.5, 0.5])


def test_j1_within_eq_tol_of_its_center_is_the_ball():
    # 0 < |x - c| <= eq_tol: the fiber is the ball sample, as membership and
    # d(s|x|) already read it, not the single point J_1(x - c)
    j1 = DualityMapOp(1.0, [0.0, 0.0])
    f = fiber(j1, [5e-10, 0.0])
    assert not f.exact and len(f.points) == 1 + len(operators.unit_sphere_samples(2))
    assert membership(j1, pair([5e-10, 0.0], [0.0, 0.3]))
    pt = pair([0.5 + 5e-10, 0.5], [0.0, 0.3])
    assert not fiber(PERTURBED_BOX_CONE, pt.primal).exact
    assert membership(PERTURBED_BOX_CONE, pt)


def test_perturbed_subdifferential_slack_is_taken_from_the_dual():
    # distance 1.03e-9 to the fiber; the slack eq_tol * |x*| is 1.27e-9, the
    # inner's eq_tol * max(1, |x* - lam J|) would be 1e-9
    x = [0.23449497327021834, 0.9999999999999866]
    v = [-0.23449497177021833, 1.2499999932500134]
    assert membership(PERTURBED_BOX_CONE, pair(x, v))


def test_j1_fiber_point_is_the_reciprocal_norm_times_x():
    f = fiber(DualityMapOp(1.0, [0.0, 0.0]), [3.0, 4.0])
    assert f.points.tolist() == [[0.6000000000000001, 0.8]]


_nudge = st.integers(-3, 3).map(lambda m: m * 0.9 * DEFAULT_TOL.eq_tol)


@st.composite
def _box_and_rows(draw):
    """A box in R^1..R^3 (some sides flat) and rows at its bounds, at its
    middle or outside it, a few eq_tol off, with duals of a few eq_tol (each
    coordinate inside the slack, the row not always) or of order one."""
    n = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(st.sampled_from((0.0, 0.5, 2.0)), min_size=n, max_size=n)))
    k = draw(st.integers(1, 6))
    X, S = np.zeros((k, n)), np.zeros((k, n))
    for i in range(k):
        for j in range(n):
            mid = 0.5 * (lo[j] + hi[j])
            X[i, j] = draw(st.sampled_from((lo[j], hi[j], mid, mid, hi[j] + 1.0))) + draw(_nudge)
            S[i, j] = draw(st.one_of(_nudge, _nudge, _coord))
    return lo, hi, X, S


@settings(max_examples=200, deadline=None)
@given(_box_and_rows())
@example((np.zeros(2), np.ones(2), np.array([[0.5, 0.5]]), np.array([[9e-10, 9e-10]])))
def test_box_cone_and_box_indicator_subdifferential_agree(case):
    lo, hi, X, S = case
    cone, indicator = NormalConeOp(Box(lo, hi)), SubdiffOp(BoxIndicator(lo, hi))
    assert membership_batch(cone, X, S).tolist() == membership_batch(indicator, X, S).tolist()
    for x in X:
        a, b = fiber(cone, x), fiber(indicator, x)
        assert a.exact == b.exact
        assert a.points.shape == b.points.shape and a.points.tobytes() == b.points.tobytes()
        assert a.rays.shape == b.rays.shape and a.rays.tobytes() == b.rays.tobytes()


def _rows_alone(f, W, steps=None):
    """f on each row of W alone (with its step, when steps are given), stacked;
    None when a row raises NoClosedFormError."""
    try:
        if steps is None:
            return np.vstack([f(w[None, :]) for w in W])
        return np.vstack([f(w[None, :], s) for w, s in zip(W, steps)])
    except NoClosedFormError:
        return None


@functools.cache
def _kind_sample(kind):
    """The kind's Minty sample on a small grid (its graph for a finite graph);
    None when the operator has no resolvent or the sample fails."""
    op, _ = MEMBERSHIP_KINDS[kind]
    wgrid = None if isinstance(op, GraphOp) else Grid([-2.0, -2.0], [3.0, 3.0], 0.5)
    try:
        return Sample.over(op, wgrid)
    except (NoClosedFormError, ValidationError):
        return None


def test_resolvent_rows_is_nan_only_on_a_row_with_no_closed_form():
    # the Dykstra row w = (-0.70056108, -0.95166421) does not converge at step
    # 1; among rows that do, it alone becomes NaN, and the others keep the
    # results they have alone
    op = SubdiffOp(FunSum((NormPower(1.0, 0.7), BoxIndicator([-1.0, 0.0], [1.0, 1.0]))))
    W = np.array([[0.3, 0.2], [-0.70056108, -0.95166421], [1.5, -2.0], [-2.0, 0.5]])
    with pytest.raises(NoClosedFormError):
        resolvent_batch(op, W[1:2])
    R = operators._resolvent_rows(op, W, DEFAULT_TOL)
    assert np.isnan(R[1]).all() and not np.isnan(R[[0, 2, 3]]).any()
    for i in (0, 2, 3):
        assert R[i].tobytes() == resolvent_batch(op, W[i : i + 1])[0].tobytes()


_steps = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(st.lists(_row, min_size=2, max_size=8), st.sampled_from((1.0, 1e4, 1e8)), _steps)
# rows whose QUADBOX4 right-hand sides sum two fixed terms over a stacked H
@example([("random", (1.52, 0.23), (-1.02, 1.73), 0), ("random", (-1.18, -0.28), (-2.2, -0.58), 0)],
         1.0, [4.11, 5.28])
@pytest.mark.parametrize("kind", sorted(MEMBERSHIP_KINDS))
def test_batch_rows_equal_rows_computed_alone(kind, rows, scale, step_list):
    # membership_batch, resolvent_batch, fitz_rows, the scan's crossing mask and
    # _box_qp_batch give each row of a batch its one-row result bit for bit,
    # whatever the other rows, with rows scaled out to |x| ~ 1e8; and a row
    # with its own step s_i (a stacked H in _box_qp_batch) is the scalar-step
    # call on that row alone with step s_i
    op, notable = MEMBERSHIP_KINDS[kind]
    pts = [_membership_row(op, notable, *r) for r in rows]
    X = scale * np.array([x for x, _ in pts])
    S = scale * np.array([v for _, v in pts])
    alone = [bool(membership_batch(op, x[None, :], v[None, :])[0]) for x, v in zip(X, S)]
    assert membership_batch(op, X, S).tolist() == alone
    sample = _kind_sample(kind)
    if sample is not None:  # values bit for bit, crossings (term and witness) equal
        values, crossings = fitz_rows(sample, X, S)
        mask = _ridden(sample, X) | _crossed(sample, X, S)
        assert mask.tolist() == [c is not None for c in crossings]
        for i in range(len(X)):
            (value,), (crossing,) = fitz_rows(sample, X[i : i + 1], S[i : i + 1])
            assert values[i : i + 1].tobytes() == np.array([value]).tobytes()
            one = _ridden(sample, X[i : i + 1]) | _crossed(sample, X[i : i + 1], S[i : i + 1])
            assert one.tolist() == [mask[i]] == [crossing is not None]
            if crossing is not None:
                (t, w), (t_all, w_all) = crossing, crossings[i]
                assert t == t_all and w.primal.tobytes() == w_all.primal.tobytes()
                assert w.dual.tobytes() == w_all.dual.tobytes()
    if isinstance(op, GraphOp):
        return
    W = np.vstack([X + S, scale * np.array([a for _, a, _, _ in rows]),
                   scale * np.array([a for _, _, a, _ in rows])])
    steps = np.resize(step_list, len(W))
    # quadbox also runs QUADBOX4 on its rows side by side, where a right-hand
    # side sums two fixed terms
    for op, W in [(op, W)] + [(QUADBOX4, np.hstack([W, W[::-1]]))] * (kind == "quadbox"):
        n = W.shape[1]
        form = cone_form(op, n)
        if form is not None and isinstance(form[2], Box):  # A = M. + c + N_box: the box QP
            A, a, box = form
            H, G = np.eye(n) + A, W - a
            alone = np.vstack([operators._box_qp_batch(H, g[None, :], box.lo, box.hi) for g in G])
            assert operators._box_qp_batch(H, G, box.lo, box.hi).tobytes() == alone.tobytes()
            Hs, Gs = np.eye(n) + steps[:, None, None] * A, W - steps[:, None] * a
            alone = np.vstack([operators._box_qp_batch(np.eye(n) + s * A, (w - s * a)[None, :], box.lo, box.hi)
                               for w, s in zip(W, steps)])
            assert operators._box_qp_batch(Hs, Gs, box.lo, box.hi).tobytes() == alone.tobytes()
        for step, alone in ((1.0, _rows_alone(lambda w: resolvent_batch(op, w), W)),
                            (steps, _rows_alone(lambda w, s: resolvent_batch(op, w, step=s), W, steps))):
            if alone is None:
                with pytest.raises(NoClosedFormError):
                    resolvent_batch(op, W, step=step)
            else:
                assert resolvent_batch(op, W, step=step).tobytes() == alone.tobytes()
        # the row-wise fallback: each row alone with its step, NaN where it has none
        alone = [_rows_alone(lambda w, s: resolvent_batch(op, w, step=s), w[None, :], [s]) for w, s in zip(W, steps)]
        alone = np.vstack([np.full((1, n), np.nan) if a is None else a for a in alone])
        assert operators._resolvent_rows(op, W, DEFAULT_TOL, steps).tobytes() == alone.tobytes()


@pytest.mark.parametrize("kind", sorted(MEMBERSHIP_KINDS))
def test_point_of_wrong_width_raises_dimension_mismatch(kind):
    op, _ = MEMBERSHIP_KINDS[kind]
    x = np.zeros(3)
    calls = (lambda: fiber(op, x), lambda: membership(op, pair(x, x)),
             lambda: membership_batch(op, x[None], x[None]))
    if op_dimension(op) is None:  # a norm power lives in every dimension
        for call in calls:
            call()
        return
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()


def test_membership_batch_rejects_unequal_point_shapes():
    with pytest.raises(DimensionMismatchError):
        membership_batch(SubdiffOp(NormPower(1.0, 0.7)), np.zeros((2, 2)), np.zeros((2, 3)))


def test_graph_sample_gate_uses_the_membership_slack(monkeypatch):
    # one resolvent row is moved so that its residual sits between the
    # membership slack eq_tol*max(1,|x*|) and the looser 10*eq_tol*(1+|x*|)
    real = operators.resolvent_batch
    grid = Grid([-2.0, -2.0], [2.0, 2.0], 0.5)
    shift = np.array([2.5e-9, 0.0])

    def nudged(op, W, tol=DEFAULT_TOL, step=1.0):
        X = real(op, W, tol, step).copy()
        X[0] += shift
        return X

    X = nudged(IDENT2, grid.nodes())
    x, v = X[0], grid.nodes()[0] - X[0]
    resid = np.linalg.norm(x - v)
    norm_v = np.linalg.norm(v)
    assert DEFAULT_TOL.eq_tol * max(1.0, norm_v) < resid < 10 * DEFAULT_TOL.eq_tol * (1 + norm_v)
    assert not membership(IDENT2, PairPoint(x, v))
    monkeypatch.setattr(operators, "resolvent_batch", nudged)
    with pytest.raises(ValidationError, match="fails membership"):
        graph_sample(IDENT2, grid)


def test_quadbox_sample_gate_makes_no_projection(monkeypatch):
    # the membership gate of a quadratic-plus-box sum is a per-coordinate clip
    calls = count_calls(monkeypatch, "project_onto_generated_set", operators, vecspace)
    quadbox = SubdiffOp(FunSum((Quadratic(np.eye(2), np.zeros(2)), BoxIndicator([0.0, 0.0], [1.0, 1.0]))))
    g = graph_sample(quadbox, Grid([-2.0, -2.0], [3.0, 3.0], 0.05), verify=True)
    assert len(g) == 10201 and calls == []


def test_simplex_cone_sample_makes_no_projection(monkeypatch):
    # the resolvent of a polytope normal cone is one batched face enumeration;
    # the Polytope constructor's own vertex pruning runs before the count
    simplex = NormalConeOp(Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    calls = count_calls(monkeypatch, "project_onto_generated_set", operators, vecspace)
    grid = Grid([-2.0, -2.0], [3.0, 3.0], 0.05)
    g = graph_sample(simplex, grid, verify=True)
    assert calls == [] and len(g) == grid.count
    # sort-based closed form: clip at 0, or shift onto sum(x) = 1 and clip
    W = grid.nodes()
    ref = np.maximum(W, 0.0)
    over = ref.sum(axis=1) > 1.0
    u = -np.sort(-W[over], axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    rho = np.count_nonzero(u - css / np.arange(1, 3) > 0, axis=1)
    ref[over] = np.maximum(W[over] - (css[np.arange(len(u)), rho - 1] / rho)[:, None], 0.0)
    assert np.abs(resolvent_batch(simplex, W) - ref).max() <= 1e-15


# --------------------------------------------------------------------------
# duality map
# --------------------------------------------------------------------------

def test_duality_map_worked_examples():
    f = fiber(DualityMapOp(2.0, [0.0, 0.0]), [3.0, 4.0])
    assert f.exact and f.points.tolist() == [[3.0, 4.0]]

    f = fiber(DualityMapOp(1.0, [0.0, 0.0]), [3.0, 4.0])
    assert f.exact
    assert f.points[0] == pytest.approx([0.6, 0.8], abs=1e-12)

    f = fiber(DualityMapOp(1.0, [0.0, 0.0]), [0.0, 0.0])
    assert not f.exact
    assert np.all(np.linalg.norm(f.points, axis=1) <= 1.0 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=2),
    st.sampled_from([1.0, 2.0, 3.0]),
)
def test_duality_map_monotone(xl, yl, p):
    x, y = np.array(xl), np.array(yl)
    fx = fiber(DualityMapOp(p, np.zeros(2)), x)
    fy = fiber(DualityMapOp(p, np.zeros(2)), y)
    if fx.exact and fy.exact:
        prod = float(np.dot(x - y, fx.points[0] - fy.points[0]))
        assert prod >= -1e-9


def test_j1_bounded_range():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=3)
        f = fiber(DualityMapOp(1.0, np.zeros(3)), x)
        assert np.all(np.linalg.norm(f.points, axis=1) <= 1.0 + 1e-9)


# --------------------------------------------------------------------------
# shift / perturb
# --------------------------------------------------------------------------

def test_shift_worked_examples():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    shifted = shift_graph(g, [1.0])
    rows = {(p.primal[0], p.dual[0]) for p in map(shifted.pair, range(len(shifted)))}
    assert rows == {(0.0, -1.0), (1.0, 0.0)}
    assert fiber(ShiftedOp(CONE01, [2.0]), [1.0]).points.tolist() == [[-2.0]]


def test_shift_preserves_monotone_products():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        X = rng.uniform(-1, 1, size=(6, 2))
        g = FiniteGraph.from_arrays(X, X @ np.array([[2.0, 0.3], [0.3, 1.0]]))
        z = rng.uniform(-1, 1, size=2)
        assert (monotone_check(g) is None) == (monotone_check(shift_graph(g, z)) is None)


def test_perturb_worked_examples():
    op = perturb(IDENT, 1.0, 2.0, [0.0])
    f = fiber(op, [3.0])
    assert f.points.tolist() == [[6.0]]  # x + 1*x

    op = perturb(CONE01, 1.0, 1.0, [2.0])
    f = fiber(op, [0.5])
    assert f.exact and f.points.tolist() == [[-1.0]]  # N={0}, J1(0.5-2) = -1


def test_perturb_p2_sampled_graph_matches_translation():
    lam, center = 3.0, np.array([0.5, -0.5])
    inner = IDENT2
    grid = Grid([-2.0, -2.0], [2.0, 2.0], 1.0)
    outer = perturb(inner, lam, 2.0, center)
    g = graph_sample(outer, grid)
    for p in map(g.pair, range(len(g))):
        inner_dual = p.primal  # identity
        expected = inner_dual + lam * (p.primal - center)
        assert p.dual == pytest.approx(expected, abs=1e-9)


def test_perturbed_p1_resolvent_reduces_for_subdiff():
    op = perturb(CONE01, 1.0, 1.0, [2.0])
    x = resolvent(op, np.array([0.0]))
    s = np.array([0.0]) - x
    assert membership(op, pair(x, s), DEFAULT_TOL)


# --------------------------------------------------------------------------
# cone normal form
# --------------------------------------------------------------------------

@st.composite
def cone_chains(draw):
    """(op, M, c, B): a random A = M. + c + N_B of a kind cone_form reads (a
    linear map, a quadratic, a quadratic plus a box, a box normal cone, J_2, a
    polytope normal cone), wrapped in up to three shifts and p = 2
    perturbations, with the form that chain has, composed by hand. Some box
    coordinates have lo = hi; the polytope is a point, a segment, a triangle
    (in R^2 or R^3) or the simplex conv{0, e_i}."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, K = rng.uniform(-1.0, 1.0, (2, n, n))
    Q = draw(st.sampled_from([0.0, 1.0])) * A @ A.T
    Q = 0.5 * (Q + Q.T)
    b = rng.uniform(-1.0, 1.0, n)
    lo = rng.uniform(-1.0, 0.5, n)
    box = Box(lo, lo + rng.uniform(0.25, 1.5, n) * (rng.random(n) > 0.2))
    zeros = (np.zeros((n, n)), np.zeros(n))
    kind = draw(st.sampled_from(("linear", "quadratic", "quadbox", "cone", "J2", "polytope")))
    if kind == "polytope":
        shape = draw(st.sampled_from(("point", "segment", "triangle", "simplex")))
        P = Polytope({"point": lambda: rng.uniform(-1.0, 1.0, (1, n)),
                      "segment": lambda: rng.uniform(-1.0, 1.0, (2, n)),
                      "triangle": lambda: rng.uniform(-1.0, 1.0, (3, n)) if n > 1 else [[-0.5], [0.5]],
                      "simplex": lambda: np.vstack([np.zeros(n), np.eye(n)]) + lo}[shape]())
        op, M, c, B = NormalConeOp(P), *zeros, P
    else:
        op, M, c, B = {
            "linear": (LinearOp(Q + K - K.T, b), Q + K - K.T, b, None),
            "quadratic": (SubdiffOp(Quadratic(Q, b)), Q, b, None),
            "quadbox": (SubdiffOp(FunSum((Quadratic(Q, b), box))), Q, b, box),
            "cone": (NormalConeOp(box), *zeros, box),
            "J2": (DualityMapOp(2.0, b), np.eye(n), -b, None),
        }[kind]
    for _ in range(draw(st.integers(0, 3))):
        v = rng.uniform(-2.0, 2.0, n)
        if draw(st.booleans()):
            op, c = ShiftedOp(op, v), c - v
        else:
            lam = draw(st.sampled_from([0.25, 1.0, 3.0]))
            op, M, c = PerturbedOp(op, lam, 2.0, v), M + lam * np.eye(n), c - lam * v
    return op, M, c, B


def normal_cone_points(rng, B, n, k):
    """k rows x of B, each coordinate interior, at lo or at hi, and a nu in
    N_B(x) per row (any sign where lo = hi); x in [-3, 3]^n and nu = 0 for R^n.
    For a polytope, x is a vertex, a point of a facet or of the whole, and nu
    a sum of the unit normals of the facets it lies on, with any part off the
    affine hull."""
    if B is None:
        return rng.uniform(-3.0, 3.0, (k, n)), np.zeros((k, n))
    if isinstance(B, Polytope):
        center, basis, comp, A, b, incident = B._facets
        V, normals = B.vertices, A @ basis.T
        X, nu = np.empty((k, n)), comp @ rng.uniform(-3.0, 3.0, (comp.shape[1], k))
        for i in range(k):
            on = rng.integers(0, len(normals) + 1)  # a facet, or none: the whole
            face = incident[:, on] if on < len(normals) else np.ones(len(V), dtype=bool)
            if rng.random() < 0.3:  # a vertex of that face, on each facet through it
                face = np.arange(len(V)) == rng.choice(np.flatnonzero(face))
            facets = incident[face].all(axis=0)
            X[i] = rng.dirichlet(np.ones(face.sum())) @ V[face]
            nu[:, i] += rng.uniform(0.0, 5.0, facets.sum()) @ normals[facets]
        return X, nu.T
    X = rng.uniform(B.lo, B.hi, (k, n))
    at = rng.integers(0, 3, (k, n))
    X = np.where(at == 1, B.lo, np.where(at == 2, B.hi, X))
    m_lo, m_hi = rng.uniform(0.0, 5.0, (2, k, n))
    return X, np.where(X == B.hi, m_hi, 0.0) - np.where(X == B.lo, m_lo, 0.0)


@settings(max_examples=80, deadline=None)
@given(cone_chains(), st.integers(0, 2**32 - 1))
def test_cone_form_is_the_form_of_every_shift_and_p2_chain(case, seed):
    """The form of a chain is the one composed by hand, and every
    (x, Mx + c + nu) with x in B and nu in N_B(x) is a member of the chain's
    graph. Where B is None the chain is the map x -> Mx + c: its resolvent rows
    equal the map's within eq_tol times their scale."""
    op, M, c, B = case
    n = len(c)
    Mf, cf, Bf = cone_form(op, n)
    assert np.allclose(Mf, M, rtol=0.0, atol=1e-12) and np.allclose(cf, c, rtol=0.0, atol=1e-12)
    assert (Bf is None) == (B is None)
    if isinstance(B, Polytope):
        assert Bf is B
    elif B is not None:
        assert np.array_equal(Bf.lo, B.lo) and np.array_equal(Bf.hi, B.hi)
    rng = np.random.default_rng(seed)
    X, nu = normal_cone_points(rng, Bf, n, 30)
    assert membership_batch(op, X, X @ Mf.T + cf + nu).all()
    if Bf is None:
        W = rng.uniform(-3.0, 3.0, (20, n))
        got, want = resolvent_batch(LinearOp(Mf, cf), W), resolvent_batch(op, W)
        scale = 1.0 + np.abs(W).max() + np.abs(M).max() + np.abs(c).max()
        assert np.abs(got - want).max() <= DEFAULT_TOL.eq_tol * scale


@pytest.mark.parametrize("op, cone", [
    (IDENT2, None),
    (SubdiffOp(Quadratic(np.eye(2), np.zeros(2))), None),
    (DualityMapOp(2.0, [0.0, 0.0]), None),
    (CONE01_2, Box),
    (NormalConeOp(Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), Polytope),
    (PerturbedOp(CONE01_2, 2.0, 2.0, [0.5, 0.5]), Box),
    (ShiftedOp(CONE01_2, [1.0, 1.0]), Box),
    (SubdiffOp(FunSum((Quadratic(np.eye(2), np.zeros(2)), BoxIndicator([0.0, 0.0], [1.0, 1.0])))), Box),
], ids=["linear", "quadratic", "duality-map", "box-cone", "polytope-cone", "p2-perturbed-cone",
        "shifted-cone", "quad-box-sum"])
def test_cone_form_has_no_cone_exactly_where_the_domain_is_the_whole_space(op, cone):
    """B is None for a map x -> Mx + c (a linear map, a quadratic's
    subdifferential, J_2), which the affine readers take; a normal cone, or a
    sum with a box, keeps its region."""
    M, c, B = cone_form(op, 2)
    assert B is None if cone is None else isinstance(B, cone)
    if isinstance(op, LinearOp):
        assert M is op.M and c is op.c


@pytest.mark.parametrize("op", [
    PerturbedOp(IDENT2, 1.0, 1.0, [0.0, 0.0]),
    PerturbedOp(IDENT2, 1.0, 3.0, [0.5, 0.0]),
    ShiftedOp(PerturbedOp(IDENT2, 2.0, 1.5, [0.0, 0.0]), [1.0, 0.0]),
    PerturbedOp(CONE01_2, 2.0, 3.0, [0.5, 0.5]),
    ShiftedOp(PerturbedOp(SubdiffOp(Quadratic(np.eye(2))), 2.0, 1.5, [0.0, 0.0]), [1.0, 0.0]),
    SubdiffOp(NormPower(1.0)),
    SubdiffOp(FunSum((Quadratic(np.eye(2)), NormPower(3.0), BoxIndicator([0.0, 0.0], [1.0, 1.0])))),
    DualityMapOp(1.5, [0.0, 0.0]),
    GraphOp(graph_of(([0.0, 0.0], [0.0, 0.0]), ([1.0, 1.0], [1.0, 1.0]))),
], ids=["p1-perturbed", "p3-perturbed", "shifted-p1.5", "p3-perturbed-cone",
        "shifted-p1.5-quadratic", "p1-norm", "p3-norm-in-sum", "J_1.5", "graph"])
def test_cone_form_is_none_for_every_other_kind(op):
    assert cone_form(op, 2) is None


# --------------------------------------------------------------------------
# monotone checks
# --------------------------------------------------------------------------

def test_monotone_check_worked_examples():
    assert monotone_check(graph_of(([0.0], [0.0]), ([1.0], [1.0]))) is None

    g = graph_of(([0.0], [0.0]), ([1.0], [-1.0]))
    w = monotone_check(g)
    assert w is not None
    prod = float(np.dot(w[0].primal - w[1].primal, w[0].dual - w[1].dual))
    assert prod == pytest.approx(-1.0)

    g = graph_of(([0.0, 0.0], [0.0, 1.0]), ([1.0, 0.0], [-1.0, 0.0]))
    w = monotone_check(g)
    assert w is not None
    prod = float(np.dot(w[0].primal - w[1].primal, w[0].dual - w[1].dual))
    assert prod == pytest.approx(-1.0)

    # the witness is the first violating (i, j) in row-major order
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        X, S = rng.uniform(-1.0, 1.0, size=(2, 9, 2))
        first = next(
            (i, j)
            for i in range(9)
            for j in range(9)
            if np.dot(X[i] - X[j], S[i] - S[j]) < -DEFAULT_TOL.eq_tol
        )
        w = monotone_check(FiniteGraph.from_arrays(X, S))
        assert np.array_equal(w[0].primal, X[first[0]])
        assert np.array_equal(w[1].primal, X[first[1]])


def full_square_monotone_reference(g, tol=DEFAULT_TOL):
    """The full-square scan that preceded the triangle gate: the first (i, j)
    in row-major order with P[i, j] < -eq_tol, or None."""
    for i0, prods in operators.pairwise_product_blocks(g.primals, g.duals, g.self_products, g):
        bad = prods < -tol.eq_tol
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), prods.shape)
            return int(i) + i0, int(j)
    return None


def witness_rows(g, w):
    """monotone_check's witness as graph row indices (graph rows are distinct)."""
    if w is None:
        return None
    return tuple(
        int(np.flatnonzero((g.primals == p.primal).all(axis=1) & (g.duals == p.dual).all(axis=1))[0])
        for p in w
    )


def planted_graph(n, k, seed, rows=None, t=0.0, R=100.0):
    """k pairs of the identity on random points of a lattice in [0, 1]^n.
    Rows (r, s), when given, hold p = (R e_1, R e_1 + eta e_2) and
    q = (R e_2, a e_1 + R e_2), whose products with the lattice are positive.
    Their product A - b - c, A = d_p + d_q = 2R^2, b = R a, c = R eta, is
    -eq_tol - t ulp(A). The full-square scan sums it as (A - b) - c in row r
    and as (A - c) - b in row s; with c off the ulp grid of A the two round
    apart. t=None picks eta and a so that one sum is below -eq_tol and the
    other is not, and puts the first in the later row: the first violation
    then lies in the lower triangle."""
    rng = np.random.default_rng(seed)
    m = int(np.ceil(k ** (1.0 / n)))
    X = np.stack(np.unravel_index(rng.permutation(m**n)[:k], (m,) * n), axis=1) / (m - 1)
    return plant(X, X.copy(), rng, rows, t, R)


def plant(X, S, rng, rows=None, t=0.0, R=100.0):
    """The graph (X, S) with rows (r, s) replaced by planted_graph's pair."""
    n = X.shape[1]
    if rows is not None:
        r, s = rows
        A, e = 2.0 * R * R, DEFAULT_TOL.eq_tol
        for _ in range(10_000):
            eta = rng.uniform(1e-6, 1e-4)
            a = (A - R * eta + e + (t or 0.0) * np.spacing(A)) / R
            a += np.spacing(a) * rng.integers(-2, 3)
            p_rs, p_sr = (A - R * a) - R * eta, (A - R * eta) - R * a
            if t is not None or (p_rs < -e) != (p_sr < -e):
                break
        else:
            raise AssertionError("no planted product rounds apart across -eq_tol")
        if t is None and (p_rs < -e) == (r < s):  # the violating sum to the later row
            r, s = s, r
        e1, e2 = np.eye(n)[:2]
        X[r], S[r] = R * e1, R * e1 + eta * e2
        X[s], S[s] = R * e2, a * e1 + R * e2
    return FiniteGraph.from_arrays(X, S)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 3),
    k=st.integers(2001, 2600),
    seed=st.integers(0, 2**32 - 1),
    rows=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    t=st.none() | st.floats(-2.0, 2.0) | st.integers(-40, 40) | st.sampled_from((-1e5, 1e5)),
    R=st.sampled_from((10.0, 100.0, 1000.0)),
)
def test_monotone_check_is_the_full_square_scan(n, k, seed, rows, t, R):
    # k above one block of rows, so a flagged block may start mid-graph. The
    # planted product sits within a few ulps of -eq_tol, where the two sums
    # round apart (t=None: the violation shows first in the lower triangle),
    # 1 to 40 ulps above it, inside the gate's margin (a flag without a
    # violation), or clearly past it on either side.
    if rows is not None:
        r, s = int(rows[0] * (k - 1)), int(rows[1] * (k - 1))
        rows = (r, s) if r != s else None
    g = planted_graph(n, k, seed, rows, t, R)
    assert witness_rows(g, monotone_check(g)) == full_square_monotone_reference(g)


@pytest.mark.parametrize("rows", [(1950, 2050), (2050, 1950)])
def test_monotone_check_finds_a_violation_first_in_the_lower_triangle(monkeypatch, rows):
    # one sum of the planted product is below -eq_tol and its mirror is not,
    # the first in the later row, both rows past the first block: only the
    # row-major scan of the full square, restarted mid-graph, returns it
    rechecks = count_calls(monkeypatch, "pairwise_product_blocks", operators)
    k = 2100
    assert operators._block_rows(k, k) < min(rows)
    g = planted_graph(2, k, SEED, rows, t=None)
    ref = full_square_monotone_reference(g)
    assert ref == (max(rows), min(rows))
    rechecks.clear()
    assert witness_rows(g, monotone_check(g)) == ref
    assert rechecks == [1]


def test_monotone_check_rechecks_a_flag_without_a_violation(monkeypatch):
    # 8 ulps above -eq_tol: past the rounding of either scan order, inside the margin
    rechecks = count_calls(monkeypatch, "pairwise_product_blocks", operators)
    g = planted_graph(2, 2100, SEED, (1950, 2050), -8)
    assert full_square_monotone_reference(g) is None
    rechecks.clear()
    assert monotone_check(g) is None
    assert rechecks == [1]


def test_monotone_check_on_a_monotone_graph_makes_no_full_square_scan(monkeypatch):
    rechecks = count_calls(monkeypatch, "pairwise_product_blocks", operators)
    W = Grid([-2.0, -2.0], [3.0, 3.0], 0.05).nodes()
    g = FiniteGraph.from_arrays(W, W)
    assert len(g) == 10201
    assert monotone_check(g) is None and rechecks == []


@pytest.mark.parametrize("t", [None, 0.0, -8])
@pytest.mark.parametrize(
    "rows, tile", [((100, 1000), "later"), ((2090, 100), "last"), ((2095, 2080), "last")]
)
def test_monotone_check_rescans_once_from_a_flag_in_any_column_tile(monkeypatch, rows, tile, t):
    # the gate walks the columns j >= i0 of each row block in tiles; a flag in
    # a later tile, or in the last, partial one, still starts the full-square
    # scan at the block's first row i0
    k = 2100
    block = operators._block_rows(k, k)
    cols = operators._GATE_TILE // block
    i0 = min(rows) // block * block
    # the first planted entry of the block: column min(rows) when both rows
    # are in it (row max(rows) of the block), else column max(rows)
    col = min(rows) if max(rows) < i0 + block else max(rows)
    last = (k - 1 - i0) // cols
    if tile == "later":
        assert 0 < (col - i0) // cols < last
    else:
        assert (col - i0) // cols == last and (k - i0) % cols
    g = planted_graph(2, k, SEED, rows, t)
    assert operators._first_flagged_row(g.primals, g.duals, g.self_products, DEFAULT_TOL.eq_tol) == i0
    rechecks = count_calls(monkeypatch, "pairwise_product_blocks", operators)
    ref = full_square_monotone_reference(g)
    rechecks.clear()
    assert witness_rows(g, monotone_check(g)) == ref
    assert rechecks == [1]


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(("box", "simplex")),
    n=st.integers(2, 3),
    spacing=st.floats(0.1, 0.3),
    shift=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    rows=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    t=st.none() | st.floats(-2.0, 2.0) | st.integers(-40, 40) | st.sampled_from((-1e5, 1e5)),
    R=st.sampled_from((10.0, 100.0, 1000.0)),
    copies=st.integers(0, 3),
)
@example(family="box", n=2, spacing=0.1, shift=0.5, seed=SEED, rows=(0.3, 0.7), t=None, R=100.0, copies=2)
@example(family="box", n=2, spacing=0.1, shift=0.5, seed=SEED, rows=(0.7, 0.3), t=0.0, R=100.0, copies=0)
@example(family="simplex", n=2, spacing=0.1, shift=0.5, seed=SEED, rows=(0.3, 0.7), t=-8, R=100.0, copies=1)
@example(family="simplex", n=3, spacing=0.1, shift=0.5, seed=SEED, rows=(0.3, 0.7), t=1e5, R=10.0, copies=0)
def test_monotone_check_keeps_the_full_square_verdict_on_repeated_primals(
        family, n, spacing, shift, seed, rows, t, R, copies):
    # a normal-cone sample repeats each boundary point across many rows; a
    # planted product sits within a few ulps of -eq_tol, inside the margin, or
    # clearly past it on either side. Copies of each planted primal, next to
    # it, carry duals R j e further out along it, whose products are all
    # larger: only a group's least product may decide
    h = spacing if n == 2 else 3.0 * spacing
    grid = Grid([-2.0 + shift * h] * n, [3.0] * n, h)
    g = graph_sample(DENSE_SAMPLE_FAMILIES[family](n), grid, verify=False)
    k = len(g)
    if rows is not None:
        r, s = int(rows[0] * (k - 1)), int(rows[1] * (k - 1))
        rows = (r, s) if r != s else None
    g = plant(g.primals.copy(), g.duals.copy(), np.random.default_rng(seed), rows, t, R)
    if rows is not None and copies:
        X, S = g.primals, g.duals
        for i in sorted(rows, reverse=True):
            j = np.arange(1, copies + 1)[:, None]
            X = np.insert(X, i + 1, np.repeat(X[i : i + 1], copies, axis=0), axis=0)
            S = np.insert(S, i + 1, S[i] + j * X[i], axis=0)
        g = FiniteGraph.from_arrays(X, S)
    assert witness_rows(g, monotone_check(g)) == full_square_monotone_reference(g)


def test_monotone_check_flags_a_row_just_off_a_repeated_primal():
    # a row 1e-4 off a box corner's primal, next to its rows, with product
    # -1e-7 against one of them: read as that corner's primal, its products
    # with the corner's rows would be about +1e-4
    g = graph_sample(CONE01_2, Grid([-2.0, -2.0], [3.0, 3.0], 0.1), verify=False)
    X, S = g.primals, g.duals
    i = int(np.flatnonzero((X == 1.0).all(axis=1) & (S[:, 0] > 0.5))[0])
    e1 = np.array([1.0, 0.0])
    g = FiniteGraph.from_arrays(np.insert(X, i + 1, X[i] + 1e-4 * e1, axis=0),
                                np.insert(S, i + 1, S[i] - 1e-3 * e1, axis=0))
    ref = full_square_monotone_reference(g)
    assert ref is not None and witness_rows(g, monotone_check(g)) == ref


@pytest.mark.parametrize("family", sorted(DENSE_SAMPLE_FAMILIES))
@pytest.mark.parametrize("spacing", [0.05, 0.1])
def test_monotone_check_decides_the_dense_samples_in_one_tiled_gate(monkeypatch, family, spacing):
    # a monotone graph passed to monotone_check directly, many rows to a
    # primal in the cone families, is decided by one tiled gate and no rescan
    g = graph_sample(DENSE_SAMPLE_FAMILIES[family](2), Grid([-2.0, -2.0], [3.0, 3.0], spacing), verify=False)
    flags = count_calls(monkeypatch, "_first_flagged_row", operators)
    rescans = count_calls(monkeypatch, "pairwise_product_blocks", operators)
    assert monotone_check(g) is None and flags == [1] and rescans == []


def traced_peak(f):
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", DENSE_SAMPLE_FAMILIES)
@pytest.mark.parametrize("n, spacing", [(2, 0.05), (3, 0.25)])
def test_monotone_check_stays_under_8_mib_on_the_dense_samples(family, n, spacing):
    g = graph_sample(DENSE_SAMPLE_FAMILIES[family](n), Grid([-2.0] * n, [3.0] * n, spacing), verify=False)
    out, peak = traced_peak(lambda: monotone_check(g))
    assert out is None and peak < 8 * 2**20


def test_monotone_check_gate_allocates_cache_sized_tiles():
    # the untiled gate wrote one 4e6-float (32 MB) buffer per row block
    W = Grid([-2.0, -2.0], [3.0, 3.0], 0.05).nodes()
    g = FiniteGraph.from_arrays(W, W)
    tracemalloc.start()
    try:
        assert monotone_check(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --------------------------------------------------------------------------
# residual certificate
# --------------------------------------------------------------------------

def sampled_gate(op, g, tol=DEFAULT_TOL):
    """graph_sample's gate on the graph g of op: the residual certificate, then
    monotone_check where it declines."""
    return None if operators._residual_certificate(op, g, tol.eq_tol) else monotone_check(g, tol)


@settings(max_examples=60, deadline=None)
@given(
    case=cone_chains(),
    seed=st.integers(0, 2**32 - 1),
    f=st.sampled_from((0.0, 1e-3, 0.5, 0.9, 1.1, 2.0, 1e3)),
    limit_sized=st.booleans(),
    rows=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    t=st.none() | st.floats(-2.0, 2.0) | st.integers(-40, 40),
    mirror=st.booleans(),
)
def test_residual_certificate_keeps_the_full_square_verdict(case, seed, f, limit_sized, rows, t, mirror):
    # a cone-form sample with an error planted in every dual, about +-limit
    # in size or sized so that the certificate's bound is f times the limit;
    # with it maybe planted_graph's pair (a product within a few ulps of
    # -eq_tol) and one dual mirrored through M x + c (its normal-cone part
    # turned to the wrong side). Where the certificate passes, the full-square
    # scan finds nothing; where it declines, monotone_check decides
    op, M, c, B = case
    n = len(c)
    g = graph_sample(op, Grid([-3.0] * n, [3.0] * n, 0.5 if n < 3 else 0.75), verify=False)
    X, S, k = g.primals.copy(), g.duals.copy(), len(g)
    rng = np.random.default_rng(seed)
    lam = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
    D = np.linalg.norm(X.max(axis=0) - X.min(axis=0))
    limit = 1e-9
    E = limit if limit_sized else (np.sqrt(f * limit * lam / 2.0) if lam > 1e-6 else f * limit / (4.0 * max(D, 1e-3)))
    Z = rng.uniform(-1.0, 1.0, (k, n))
    S += E * Z / np.maximum(np.linalg.norm(Z, axis=1), 1e-12)[:, None]
    if mirror:
        i = int(rng.integers(k))
        S[i] = 2.0 * (M @ X[i] + c) - S[i]
    if rows is not None and n >= 2:
        r, s = int(rows[0] * (k - 1)), int(rows[1] * (k - 1))
        if r != s:
            g = plant(X, S, rng, (r, s), t)
            X, S = g.primals.copy(), g.duals.copy()
    g = FiniteGraph.from_arrays(X, S)
    ref = full_square_monotone_reference(g)
    if operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol):
        assert ref is None
    assert witness_rows(g, sampled_gate(op, g)) == ref


@pytest.mark.parametrize("delta", [-0.6, -0.5, -1e-3, 1e-3, 0.5])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_residual_certificate_on_pairs_that_meet_its_bound(lam, delta):
    # two rows of x -> lam x whose exact product is the least the bound
    # allows, -(1 + delta) eq_tol: -2 D E at lam = 0 (D = 1, errors +-E along
    # d), -E^2 / lam at lam = 1 (x = 0 and x = E/lam). The certificate passes
    # only where twice the bound is within the limit, so never on a violation
    e = DEFAULT_TOL.eq_tol * (1.0 + delta)
    if lam == 0.0:
        X, S = [[0.0], [1.0]], [[e / 2.0], [-e / 2.0]]
    else:
        E = np.sqrt(e * lam)
        X, S = [[0.0], [E / lam]], [[E], [0.0]]
    op, g = LinearOp([[lam]]), FiniteGraph.from_arrays(X, S)
    ref = full_square_monotone_reference(g)
    assert (ref is not None) == (delta > 0)
    assert operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol) == (delta < -0.5)
    assert witness_rows(g, sampled_gate(op, g)) == ref


def test_residual_certificate_reads_errors_of_either_sign():
    # errors 0 and -1.5 eq_tol on x -> 0: every residual is <= 0, and the
    # product is -1.5 eq_tol
    op, g = LinearOp([[0.0]]), FiniteGraph.from_arrays([[0.0], [1.0]], [[0.0], [-1.5e-9]])
    assert not operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol)
    assert witness_rows(g, sampled_gate(op, g)) == full_square_monotone_reference(g) == (0, 1)


@pytest.mark.parametrize("op", [
    LinearOp(np.array([[0.0, 2.0], [-2.0, 0.0]]), [0.5, -1.0]),
    SubdiffOp(FunSum((Quadratic(np.diag([1.0, 0.0])), BoxIndicator([0.0, 0.0], [1.0, 1.0])))),
], ids=["skew", "singular-quadratic-box"])
def test_residual_certificate_passes_where_sym_m_is_singular(monkeypatch, op):
    # lambda_min(sym M) = 0: the bound is |lam| D^2 + 2 D E, lam only the
    # eigensolver's error term
    g = graph_sample(op, Grid([-2.0, -2.0], [3.0, 3.0], 0.1), verify=False)
    bound = operators._residual_bound(op, g.primals, g.duals)
    assert 0.0 < bound < 1e-12
    checks = count_calls(monkeypatch, "monotone_check", operators)
    assert graph_sample(op, Grid([-2.0, -2.0], [3.0, 3.0], 0.1)).primals.shape == g.primals.shape
    assert checks == []


def test_residual_certificate_declines_a_row_one_ulp_outside_the_box():
    g = graph_sample(CONE01_2, Grid([-2.0, -2.0], [3.0, 3.0], 0.1), verify=False)
    assert operators._residual_certificate(CONE01_2, g, DEFAULT_TOL.eq_tol)
    X = g.primals.copy()
    i = int(np.flatnonzero(X[:, 0] == 0.0)[0])
    X[i, 0] = np.nextafter(0.0, -1.0)
    h = FiniteGraph.from_arrays(X, g.duals)
    assert operators._residual_bound(CONE01_2, h.primals, h.duals) is None
    assert not operators._residual_certificate(CONE01_2, h, DEFAULT_TOL.eq_tol)
    assert sampled_gate(CONE01_2, h) is None and full_square_monotone_reference(h) is None


POLYTOPE_CONES = {  # polytope normal cones, lower-dimensional ones, and wrapped simplex cones
    "triangle": NormalConeOp(Polytope([[0.0, 0.0], [2.0, 0.5], [0.5, 1.5]])),
    "segment": NormalConeOp(Polytope([[0.0, 0.0], [1.0, 1.0]])),
    "point": NormalConeOp(Polytope([[0.5, -0.5]])),
    "shifted-simplex": ShiftedOp(DENSE_SAMPLE_FAMILIES["simplex"](2), [0.5, -1.0]),
    "p2-perturbed-simplex": PerturbedOp(DENSE_SAMPLE_FAMILIES["simplex"](2), 0.5, 2.0, [1.0, 0.5]),
    "simplex-3d": DENSE_SAMPLE_FAMILIES["simplex"](3),
}


def polytope_cone_sample(name):
    op = POLYTOPE_CONES[name]
    n = op_dimension(op)
    return op, graph_sample(op, Grid([-2.0] * n, [3.0] * n, 0.25 if n == 2 else 0.5), verify=False)


@pytest.mark.parametrize("name", POLYTOPE_CONES)
@pytest.mark.parametrize("rows, t, mirror", [
    (None, 0.0, False), ((0.3, 0.7), None, False), ((0.7, 0.3), -8, False),
    ((0.2, 0.9), 1e5, False), (None, 0.0, True),
])
def test_residual_certificate_keeps_the_full_square_verdict_on_polytope_cones(name, rows, t, mirror):
    # the sample as drawn passes the certificate. Planted: planted_graph's
    # pair, whose product rounds apart across -eq_tol (t = None), sits 8 ulps
    # above it, inside the margin, or far past it; or one dual mirrored
    # through M x + c and stretched by 1.5, its normal-cone part turned to the
    # wrong side (any side is a normal of a point). The outcome and the
    # witness are the full-square scan's
    op, g = polytope_cone_sample(name)
    if rows is None and not mirror:
        assert operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol)
    X, S, k = g.primals.copy(), g.duals.copy(), len(g)
    rng = np.random.default_rng(SEED)
    if mirror:
        M, c, _ = cone_form(op, X.shape[1])
        R = S - X @ M.T - c
        i = int(np.argmin(R.sum(axis=1)))
        S[i] -= 2.5 * R[i]
    if rows is not None:
        planted = plant(X, S, rng, (int(rows[0] * (k - 1)), int(rows[1] * (k - 1))), t)
        X, S = planted.primals.copy(), planted.duals.copy()
    h = FiniteGraph.from_arrays(X, S)
    ref = full_square_monotone_reference(h)
    assert (ref is not None) == (mirror and name != "point" or t is None or t == 1e5)
    if operators._residual_certificate(op, h, DEFAULT_TOL.eq_tol):
        assert ref is None
    assert witness_rows(h, sampled_gate(op, h)) == ref


@pytest.mark.parametrize("delta", [-0.6, -0.5, -1e-3, 1e-3, 0.5])
def test_residual_certificate_on_polytope_pairs_that_meet_its_bound(delta):
    # rows at the ends of the segment [0, 1] with residuals +-e on the wrong
    # side: rho_i = e each, F about 1e-15, and the exact product is -2 e =
    # -(rho_1 + rho_2) = -(1 + delta) eq_tol. The certificate passes only
    # where twice the bound is within the limit, so never on a violation
    e = DEFAULT_TOL.eq_tol * (1.0 + delta) / 2.0
    op, g = NormalConeOp(Polytope([[0.0], [1.0]])), FiniteGraph.from_arrays([[0.0], [1.0]], [[e], [-e]])
    ref = full_square_monotone_reference(g)
    assert (ref is not None) == (delta > 0)
    assert operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol) == (delta < -0.5)
    assert witness_rows(g, sampled_gate(op, g)) == ref


def test_residual_certificate_declines_a_row_pushed_off_the_polytope():
    # a vertex row of the triangle moved 1e-6 out along its facet's normal:
    # F grows to about 1e-6 and the bound past the limit; monotone_check
    # decides, as before the certificate
    op, g = polytope_cone_sample("triangle")
    X = g.primals.copy()
    i = int(np.flatnonzero((X == [2.0, 0.5]).all(axis=1))[0])
    X[i] += 1e-6 * np.array([1.0, 1.5]) / np.hypot(1.0, 1.5)
    h = FiniteGraph.from_arrays(X, g.duals)
    limit = operators._gate_limit(h.primals, h.duals, h.self_products, DEFAULT_TOL.eq_tol)
    assert operators._residual_bound(op, h.primals, h.duals) > limit
    assert not operators._residual_certificate(op, h, DEFAULT_TOL.eq_tol)
    assert witness_rows(h, sampled_gate(op, h)) == full_square_monotone_reference(h)


def test_residual_certificate_declines_a_near_flat_triangle(monkeypatch):
    # the thinnest triangle Polytope keeps two-dimensional (inradius about
    # 7e-10; below eq_tol it is a segment), tilted off the axes so that its
    # facet tests round at about 1e-16 against a center slack of 5e-10: F is
    # about 1e-6, and monotone_check decides
    op = NormalConeOp(Polytope([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5 + 2e-9]]))
    assert len(op.region.vertices) == 3
    g = graph_sample(op, Grid([-2.0, -2.0], [3.0, 3.0], 0.25), verify=False)
    assert not operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol)
    checks = count_calls(monkeypatch, "monotone_check", operators)
    assert graph_sample(op, Grid([-2.0, -2.0], [3.0, 3.0], 0.25)).primals.shape == g.primals.shape
    assert checks == [1]


RESIDUAL_FAMILIES = ("box", "simplex", "identity", "quadbox")


@pytest.mark.parametrize("family", RESIDUAL_FAMILIES)
@pytest.mark.parametrize("n, spacing", [(2, 0.05), (3, 0.25)])
def test_graph_sample_takes_the_residual_route_on_the_dense_samples(monkeypatch, family, n, spacing):
    # every dense-sample graph, the simplex cone's too, builds no tiled gate
    flags = count_calls(monkeypatch, "_first_flagged_row", operators)
    g = graph_sample(DENSE_SAMPLE_FAMILIES[family](n), Grid([-2.0] * n, [3.0] * n, spacing))
    assert len(g) > 1000 and flags == []


@pytest.mark.parametrize("family", RESIDUAL_FAMILIES)
@pytest.mark.parametrize("n, spacing", [(2, 0.05), (3, 0.25)])
def test_residual_certificate_stays_under_8_mib_on_the_dense_samples(family, n, spacing):
    op = DENSE_SAMPLE_FAMILIES[family](n)
    g = graph_sample(op, Grid([-2.0] * n, [3.0] * n, spacing), verify=False)
    out, peak = traced_peak(lambda: operators._residual_certificate(op, g, DEFAULT_TOL.eq_tol))
    assert out and peak < 8 * 2**20


def test_residual_certificate_declines_where_the_limit_is_none_or_below_its_bound(monkeypatch):
    g = graph_sample(IDENT2, Grid([-2.0, -2.0], [3.0, 3.0], 0.1), verify=False)
    bound = operators._residual_bound(IDENT2, g.primals, g.duals)
    for limit, passes in ((None, False), (np.nextafter(bound, -np.inf), False), (bound, True)):
        monkeypatch.setattr(operators, "_gate_limit", lambda *a, limit=limit: limit)
        assert operators._residual_certificate(IDENT2, g, DEFAULT_TOL.eq_tol) is passes


@pytest.mark.parametrize("x0", [1e4, 1e5])
def test_residual_certificate_declines_far_from_the_origin(monkeypatch, x0):
    # the identity's rows at 1e4 and 1e5 have a gate limit below zero: the
    # certificate declines and monotone_check decides, as before it
    g = graph_sample(IDENT, Grid([x0], [x0 + 1.0], 0.01), verify=False)
    limit = operators._gate_limit(g.primals, g.duals, g.self_products, DEFAULT_TOL.eq_tol)
    assert limit < 0.0 < operators._residual_bound(IDENT, g.primals, g.duals)
    assert not operators._residual_certificate(IDENT, g, DEFAULT_TOL.eq_tol)
    checks = count_calls(monkeypatch, "monotone_check", operators)
    graph_sample(IDENT, Grid([x0], [x0 + 1.0], 0.01))
    assert checks == [1]


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="ROADMAP item 14: the gate's expanded product rounds in proportion to |x| |x*|")
def test_graph_sample_passes_the_identity_at_1e6():
    graph_sample(IDENT, Grid([1e6], [1e6 + 1.0], 0.01))


# --------------------------------------------------------------------------
# maximality probe
# --------------------------------------------------------------------------

def test_maximality_probe_finds_gap():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    probe = Grid([0.25, 0.25], [0.75, 0.75], 0.25)
    X, S = maximality_probe(Sample.over(GraphOp(g), None), probe)
    found = {(round(x[0], 6), round(s[0], 6)) for x, s in zip(X, S)}
    assert (0.5, 0.5) in found


def test_maximality_probe_identity_empty():
    wgrid = Grid([-2.0], [2.0], 0.05)
    probe = Grid([-1.0, -1.0], [1.0, 1.0], 0.1)
    X, S = maximality_probe(Sample.over(IDENT, wgrid), probe)
    assert X.shape == S.shape == (0, 1)


def test_maximality_probe_empty_grid_region():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    # a probe box fully off-graph but unrelated: all probes have a negative
    # product against some graph point, so nothing is returned
    probe = Grid([5.0, -9.0], [6.0, -8.0], 0.5)
    X, S = maximality_probe(Sample.over(GraphOp(g), None), probe)
    assert X.shape == S.shape == (0, 1)


# --------------------------------------------------------------------------
# misc
# --------------------------------------------------------------------------

def test_unique_domain_points():
    g = graph_sample(CONE01, Grid([-2.0], [3.0], 0.5))
    dom = unique_domain_points(g)
    assert dom[0].tolist() == [0.0] and dom[-1].tolist() == [1.0]
    assert len(dom) == len(np.unique(np.round(dom, 9)))


def test_norm_power_prox_general_p():
    fun = NormPower(3.0, 1.0)
    w = np.array([2.0, 0.0])
    x = resolvent(SubdiffOp(fun), w, step=1.0)
    # u + u^2 = 2 -> u = 1
    assert x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_translated_norm_power_prox():
    fun = TranslatedNormPower(2.0, 1.0, [1.0])
    x = resolvent(SubdiffOp(fun), np.array([3.0]), step=1.0)
    # minimize .5(x-3)^2 + .5(x-1)^2 -> x = 2
    assert x == pytest.approx([2.0], abs=1e-12)


def test_fiber_samples_all_members():
    # every sampled dual value in a fiber must pass membership at its base
    ops_and_points = [
        (SubdiffOp(NormPower(1.0, 1.0)), [0.0, 0.0]),          # unit ball fiber
        (DualityMapOp(1.0, [1.0, 1.0]), [1.0, 1.0]),           # ball at center
        (perturb(CONE01_2, 0.5, 1.0, [0.5, 0.5]), [1.0, 1.0]),  # cone + scaled ball
        (CONE01_2, [1.0, 0.5]),                                # face normal cone
        (ShiftedOp(CONE01_2, [0.3, -0.3]), [1.0, 0.5]),
    ]
    for op, x in ops_and_points:
        f = fiber(op, x)
        assert not f.is_empty
        for v in f.points:
            assert membership(op, pair(x, v), DEFAULT_TOL), (op, x, v)
        # ray points scale to members too
        for r in f.rays:
            for t in (0.5, 10.0, 1e6):
                v = f.points[0] + t * r
                assert membership(op, pair(x, v), DEFAULT_TOL)


def test_fiber_exact_flags():
    assert fiber(CONE01_2, [1.0, 1.0]).exact
    assert fiber(SubdiffOp(Quadratic(np.eye(2), np.zeros(2))), [0.3, 0.1]).exact
    assert not fiber(DualityMapOp(1.0, [0.0]), [0.0]).exact
    assert not fiber(SubdiffOp(NormPower(1.0, 2.0)), [0.0]).exact


def test_fiber_keeps_a_copy_of_the_arrays_it_is_given():
    """Writing into the caller's arrays afterwards leaves the fiber as built."""
    points, rays = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    f = Fiber(np.zeros(2), points, rays, True)
    points[0, 0], rays[0, 1] = 5.0, 7.0
    assert f.points.tolist() == [[0.0, 0.0]] and f.rays.tolist() == [[1.0, 0.0]]
    assert not np.shares_memory(points, f.points) and not np.shares_memory(rays, f.rays)
    assert not f.points.flags.writeable and not f.rays.flags.writeable


def test_dykstra_escapes_kink_stall():
    # prox of x^2/2 + 0.5*||x|| at 0.5 < ||w|| < 1: the radial optimality
    # condition 2u + 0.5 = ||w|| gives the reference; a naive primal-only
    # stopping rule stalls at the origin for whole cycles before escaping
    fun = FunSum((Quadratic(np.eye(2), np.zeros(2)), NormPower(1.0, 0.5)))
    w = np.array([0.26830398, -0.56167267])
    x = resolvent(SubdiffOp(fun), w, step=1.0)
    nw = np.linalg.norm(w)
    ref = (nw - 0.5) / 2.0 * w / nw
    assert x == pytest.approx(ref, abs=1e-9)


def test_every_operator_kind_is_frozen_with_read_only_arrays():
    """``Sample.on`` keys a graph's Sample on the identity of op and wgrid. That
    is sound only while nothing reachable from them can change: every kind,
    built through its public constructor from lists and from arrays its caller
    keeps writeable (0-d ones for scalars too), must hold frozen dataclasses,
    tuples, Python scalars and read-only arrays that share no memory with
    those given arrays."""
    given_arrays = []

    def kept(x):
        arr = np.array(x, dtype=float)
        given_arrays.append(arr)
        return arr

    box = Box([0.0, 0.0], kept([1.0, 1.0]))
    quad = Quadratic(kept([[2.0, 0.0], [0.0, 1.0]]), [0.5, -0.5])
    kinds = [
        GraphOp(FiniteGraph.from_arrays(kept([[0.0, 0.0], [1.0, 1.0]]), [[0.0, 0.0], [1.0, 1.0]])),
        LinearOp([[1.0, 0.0], [0.0, 1.0]], kept([0.0, 1.0])),
        SubdiffOp(quad),
        SubdiffOp(FunSum([quad, box, NormPower(kept(1.5), kept(2.0)),
                          TranslatedNormPower(kept(1.0), kept(0.5), kept([0.1, 0.2]))])),
        NormalConeOp(box),
        NormalConeOp(Polytope(kept([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))),
        NormalConeOp(vecspace.conv_hull([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])),
        DualityMapOp(kept(1.0), kept([0.5, -0.25])),
        ShiftedOp(NormalConeOp(box), kept([0.5, 0.5])),
        perturb(SubdiffOp(quad), kept(0.5), kept(2.0), kept([0.0, 0.0])),
        PerturbedOp(LinearOp(np.eye(2), [0.0, 0.0]), 0.5, 1.0, [1.0, 1.0]),
    ]
    grid = Grid(kept([-1.0, -1.0]), [2.0, 2.0], kept(0.5))
    tol = ToleranceConfig(eq_tol=kept(1e-6), budget=kept(1000))
    samples = [Sample.over(kinds[0], None), Sample.over(kinds[4], grid, tol)]
    seen = set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            assert not obj.flags.writeable, path
            assert not any(np.shares_memory(obj, arr) for arr in given_arrays), path
        elif dataclasses.is_dataclass(obj):
            assert type(obj).__dataclass_params__.frozen, path
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}")
        elif isinstance(obj, tuple):
            for i, item in enumerate(obj):
                walk(item, f"{path}[{i}]")
        elif isinstance(obj, weakref.ref):
            walk(obj(), f"{path}()")
        else:
            assert obj is None or isinstance(obj, (int, float)), (path, type(obj))

    for obj in kinds + samples:
        walk(obj, type(obj).__name__)
    assert samples[0].graph._sample is samples[0]
    # and every table a Sample caches for later probes: domain, fibers,
    # candidates, hull, pair order and the exact-ray table, views included
    tables = [name for name, attr in vars(Sample).items() if isinstance(attr, functools.cached_property)]
    assert {"domain", "fibers", "candidates", "pair_order", "exact_rays"} <= set(tables)
    for s in samples:
        for name in tables:
            walk(getattr(s, name), f"Sample.{name}")
    assert len(samples[1].exact_rays[0]) > 0
    for table in samples[1].exact_rays + (samples[1].domain, samples[1].pair_order):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def test_sample_over_is_reused_by_on_and_leaves_no_reference_cycle():
    """A graph Sample.over samples refers back to its Sample weakly: Sample.on
    finds the Sample while its caller holds it, and dropping it frees both by
    reference counting, with the cycle collector off."""
    op, wgrid = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), Grid([-1.0, -1.0], [2.0, 2.0], 0.5)
    s = Sample.over(op, wgrid)
    assert s.fibers and Sample.on(op, s.graph, DEFAULT_TOL, wgrid) is s
    graph = weakref.ref(s.graph)
    gc.disable()
    try:
        del s
        assert graph() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# the normal form
# --------------------------------------------------------------------------

SYM2 = np.array([[2.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("op", [
    PerturbedOp(LinearOp(SYM2, [0.3, -0.2]), 0.5, 3.0, [0.25, 0.0]),
    PerturbedOp(PerturbedOp(LinearOp(SYM2), 1.0, 2.0, [0.5, 0.5]), 0.5, 1.0, [0.0, 0.0]),
    PerturbedOp(ShiftedOp(SubdiffOp(Quadratic(SYM2)), [1.0, -0.5]), 0.5, 1.5, [0.0, 0.5]),
    PerturbedOp(ShiftedOp(NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])), [0.5, 0.5]), 0.5, 3.0, [0.0, 0.0]),
    PerturbedOp(ShiftedOp(DualityMapOp(3.0, [0.5, 0.0]), [1.0, 0.0]), 1.0, 1.0, [0.0, 0.0]),
], ids=["p3-symmetric-linear", "p1-p2-perturbed-linear", "p1.5-shifted-quadratic", "p3-shifted-box-cone",
        "p1-shifted-J3"])
def test_perturbations_the_recursions_refused_now_resolve(op):
    """A p != 2 perturbation of a symmetric linear map or of a shifted op had
    no resolvent reduction; on the normal form c and mu I fold into the point
    and the step, and Dykstra takes a symmetric M as a quadratic's gradient.
    The verified sample passes membership and the monotonicity gate."""
    assert len(graph_sample(op, Grid([-2.0, -2.0], [2.0, 2.0], 1.0), verify=True)) > 0


@pytest.mark.parametrize("op, why", [
    (PerturbedOp(LinearOp([[1.0, -1.0], [1.0, 1.0]]), 0.5, 3.0, [0.0, 0.0]), "linear part is not symmetric"),
    (PerturbedOp(NormalConeOp(SIMPLEX2), 0.5, 1.0, [0.0, 0.0]), "polytope's normal cone"),
    (PerturbedOp(ShiftedOp(GraphOp(graph_of(([0.0, 0.0], [0.0, 0.0]))), [1.0, 0.0]), 0.5, 3.0, [0.0, 0.0]),
     "is a graph"),
], ids=["skew-linear", "polytope-cone", "shifted-graph"])
def test_perturbations_with_no_reduction_still_raise(op, why):
    with pytest.raises(NoClosedFormError, match=why):
        resolvent_batch(op, np.zeros((1, 2)))


def test_only_the_normal_form_names_the_wrapper_kinds():
    """No isinstance on ShiftedOp, PerturbedOp or DualityMapOp in the package
    outside operators._normal_form: every reader takes the normal form, so the
    per-reader recursions through the wrappers cannot grow back one by one."""
    import ast
    import pathlib

    wrappers = {"ShiftedOp", "PerturbedOp", "DualityMapOp"}
    outside, inside = [], 0
    for path in sorted(pathlib.Path(operators.__file__).parent.glob("*.py")):
        stack = []

        class Finder(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                stack.append(node.name)
                self.generic_visit(node)
                stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node):
                nonlocal inside
                if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
                    named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                    if named & wrappers:
                        if path.name == "operators.py" and stack[:1] == ["_normal_form"]:
                            inside += 1
                        else:
                            outside.append(f"{path.name}:{node.lineno}")
                self.generic_visit(node)

        Finder().visit(ast.parse(path.read_text()))
    assert outside == [] and inside > 0


_CHAIN_KINDS = ("graph", "linear", "skew", "quadratic", "quadbox", "norm", "norm2", "normbox", "translated",
                "quadnorm", "box_cone", "polytope_cone", "J_p", "J_2")
_P2_FOLDED = {"norm2", "J_2"}  # a p = 2 norm is M = s I, c = -s m in the form, not a radial map
_C_FREE = {"graph", "norm", "translated", "box_cone", "polytope_cone", "J_p"}


@st.composite
def any_chains(draw):
    """(op, kind, wrappers): a random op of every kind, bare and summed norm
    powers among them, wrapped in up to three shifts and perturbations with
    p in {1, 1.5, 2, 3}, a perturbation over a graph included."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, K = rng.uniform(-1.0, 1.0, (2, n, n))
    Q, b, m = A @ A.T, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    lo = rng.uniform(-1.0, 0.5, n)
    box = Box(lo, lo + rng.uniform(0.25, 1.5, n))
    p, s = draw(st.sampled_from((1.0, 1.5, 3.0))), draw(st.sampled_from((0.5, 0.7, 2.0)))
    kind = draw(st.sampled_from(_CHAIN_KINDS))
    op = {
        "graph": lambda: GraphOp(graph_of((np.zeros(n), np.zeros(n)), (np.ones(n), np.ones(n)))),
        "linear": lambda: LinearOp(Q, b),
        "skew": lambda: LinearOp(Q + K - K.T, b),
        "quadratic": lambda: SubdiffOp(Quadratic(Q, b)),
        "quadbox": lambda: SubdiffOp(FunSum((Quadratic(Q, b), box))),
        "norm": lambda: SubdiffOp(NormPower(p, s)),
        "norm2": lambda: SubdiffOp(NormPower(2.0, s)),
        "normbox": lambda: SubdiffOp(FunSum((NormPower(p, s), box))),
        "translated": lambda: SubdiffOp(TranslatedNormPower(p, s, m)),
        "quadnorm": lambda: SubdiffOp(FunSum((Quadratic(Q, b), NormPower(p, s)))),
        "box_cone": lambda: NormalConeOp(box),
        "polytope_cone": lambda: NormalConeOp(Polytope(rng.uniform(-1.0, 1.0, (3, n)) if n > 1 else [[-0.5], [0.5]])),
        "J_p": lambda: DualityMapOp(p, m),
        "J_2": lambda: DualityMapOp(2.0, m),
    }[kind]()
    wrappers = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            op = ShiftedOp(op, rng.uniform(-2.0, 2.0, n))
            wrappers.append("S")
        else:
            q = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0)))
            op = PerturbedOp(op, draw(st.sampled_from((0.25, 0.3, 1.0, 3.0))), q, rng.uniform(-1.0, 1.0, n))
            wrappers.append(f"P{q:g}")
    return op, kind, wrappers


def _agree(got, want, scale, exact):
    """got is want bit for bit, or, where the form reorders the arithmetic,
    within the reader's slack eq_tol * max(1, |row|)."""
    assert got.shape == want.shape
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert (np.abs(got - want) <= DEFAULT_TOL.eq_tol * np.maximum(1.0, scale)).all()


@settings(max_examples=120, deadline=None)
@given(any_chains(), st.integers(0, 2**32 - 1))
def test_the_normal_form_readers_agree_with_the_recursions(case, seed):
    """op_dimension, cone_form, resolvent_batch (one step and per-row steps),
    _fiber and membership_batch against the recursions they replace
    (tests/reference_operators.py). A bare kind, and a single shift of a kind
    with no c, perform the same operations and agree bit for bit; so does
    every cone form. A chain or a p = 2 norm reorders its sums and agrees
    within the slack, and so does a linear map's fiber point, which is now
    membership's row-by-row product. Where the form needs Dykstra its rows
    are checked against membership alone; where the recursion had no
    reduction and the form has one, likewise."""
    from reference_operators import (
        reference_cone_form, reference_fiber, reference_membership_batch, reference_op_dimension,
        reference_resolvent_batch,
    )

    op, kind, wrappers = case
    tol, f = ToleranceConfig(budget=200), op._form
    n = op_dimension(op) or 2
    assert op_dimension(op) == reference_op_dimension(op)
    exact = kind not in _P2_FOLDED and (not wrappers or (wrappers == ["S"] and kind in _C_FREE))
    got, want = cone_form(op, n), reference_cone_form(op, n)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert (got[2] is None) == (want[2] is None)
    rng = np.random.default_rng(seed)
    W, steps = rng.uniform(-3.0, 3.0, (3, n)), rng.uniform(0.2, 3.0, 3)
    dykstra = len(f.terms) > 1 or (f.terms and (f.B is not None or np.ndim(f.M) == 2))
    X = None
    for step in (1.0, steps):
        try:
            R = resolvent_batch(op, W, tol, step)
        except (NoClosedFormError, NotMaximalError) as e:
            if not dykstra:
                with pytest.raises(type(e)):
                    reference_resolvent_batch(op, W, tol, step)
            continue
        s = np.reshape(step, (-1, 1))
        assert membership_batch(op, R, (W - R) / s, tol).all()
        X = R if X is None else X
        if not dykstra:
            try:
                want = reference_resolvent_batch(op, W, tol, step)
            except NoClosedFormError:  # a shape the recursion refused
                continue
            _agree(R, want, np.abs(W).max(axis=1, keepdims=True), exact)
    if X is None:
        X = rng.uniform(-1.0, 1.0, (3, n))
    for x in X:
        a, b = operators._fiber(op, x, tol), reference_fiber(op, x, tol)
        assert a.exact == b.exact and a.rays.tobytes() == b.rays.tobytes()
        _agree(a.points, b.points, np.abs(b.points).max(axis=1, keepdims=True),
               exact and kind not in ("linear", "skew"))
    S = W - X
    for T in (S, S + 0.1 * rng.standard_normal(S.shape)):
        assert membership_batch(op, X, T, tol).tolist() == reference_membership_batch(op, X, T, tol).tolist()
