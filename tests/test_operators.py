import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fitzkit.errors import (
    DimensionMismatchError,
    NoClosedFormError,
    NotMaximalError,
    ValidationError,
)
from fitzkit.operators import (
    BoxIndicator,
    DualityMapOp,
    FiniteGraph,
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
    _fun_membership_residual,
    duality_map,
    duality_point,
    fiber,
    fun_prox,
    graph_sample,
    maximality_probe,
    membership,
    membership_batch,
    monotone_check,
    monotonically_related,
    perturb,
    resolvent,
    shift_operator,
    unique_domain_points,
)
from fitzkit import operators
from fitzkit.vecspace import (
    Box,
    DEFAULT_TOL,
    Grid,
    PairPoint,
    Polytope,
    pair,
    project_onto_generated_set,
)

SEED = 20260809


def graph_of(*pts):
    return FiniteGraph(tuple(pair(p, d) for p, d in pts))


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
    with pytest.raises(ValidationError, match="duplicate"):
        FiniteGraph(pair(x, s) for x, s in zip(X, S))
    X[2, 0] = 2.0 * DEFAULT_TOL.eq_tol
    assert len(FiniteGraph.from_arrays(X, S)) == 3
    assert len(FiniteGraph(pair(x, s) for x, s in zip(X, S))) == 3


def test_graph_arrays_are_read_only_and_pairs_built_on_demand():
    X = np.array([[0.0, 1.0], [2.0, 3.0]])
    S = np.asfortranarray([[1.0, 0.0], [0.0, 1.0]])
    g = FiniteGraph.from_arrays(X, S)
    X[0, 0] = 9.0  # the graph holds its own copy
    for arr in (g.primals, g.duals, g.self_products):
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert g.primals[0].tolist() == [0.0, 1.0] and g.self_products.tolist() == [0.0, 3.0]
    assert g.pair(1).primal.tolist() == [2.0, 3.0] and g.pair(1).dual.tolist() == [0.0, 1.0]
    assert [p.primal.tolist() for p in g.pairs] == g.primals.tolist()
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
    x = fun_prox(fun, w)
    # subgradient: w - x = x + 0.5*sign(x) -> 2 = 2x + 0.5 -> x = 0.75
    assert x == pytest.approx([0.75], abs=1e-6)


def test_dykstra_budget_exhaustion():
    from fitzkit.vecspace import ToleranceConfig

    tiny = ToleranceConfig(budget=2)
    fun = FunSum((Quadratic([[1.0]], [0.0]), NormPower(1.5, 1.0)))
    with pytest.raises(NoClosedFormError):
        fun_prox(fun, np.array([2.0]), 1.0, tiny)


# --------------------------------------------------------------------------
# graph_sample
# --------------------------------------------------------------------------

def test_graph_sample_worked_examples():
    g = graph_sample(CONE01, Grid([-1.0], [2.0], 1.5))
    # w in {-1, 0.5, 2} -> pairs ((0,-1), (0.5,0), (1,1))
    rows = {(round(p.primal[0], 9), round(p.dual[0], 9)) for p in g.pairs}
    assert rows == {(0.0, -1.0), (0.5, 0.0), (1.0, 1.0)}

    g = graph_sample(IDENT, Grid([0.0], [2.0], 2.0))
    rows = {(p.primal[0], p.dual[0]) for p in g.pairs}
    assert rows == {(0.0, 0.0), (1.0, 1.0)}

    half_sq = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(half_sq, Grid([-2.0], [2.0], 2.0))
    rows = {(p.primal[0], p.dual[0]) for p in g.pairs}
    assert rows == {(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)}


def test_graph_sample_monotone():
    ops = [CONE01_2, IDENT2, LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])]
    for op in ops:
        g = graph_sample(op, Grid([-2.0, -2.0], [2.0, 2.0], 0.5))
        assert monotone_check(g) is None


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


@pytest.mark.parametrize("op", [QUADBOX2, CONE01_2], ids=["quadbox", "box_cone"])
@pytest.mark.parametrize("mag", [1e3, 1e9, 1e11, 1.954e11, 1e12])
def test_membership_along_huge_cone_rays(op, mag):
    # at the corner (0, 1) both fibers hold offset + t*e_1 for every t >= 0;
    # the projection must not accept the cone apex under a residual of |x*|
    assert membership(op, pair([0.0, 1.0], [0.0, mag]))
    assert not membership(op, pair([0.0, 1.0], [mag, mag]))


def scalar_membership_reference(op, pt, tol=DEFAULT_TOL):
    """The one-pair membership rule that preceded membership_batch, one
    family per branch, kept as the oracle the batch must agree with."""
    x, v = pt.primal, pt.dual
    slack = tol.eq_tol * max(1.0, float(np.linalg.norm(v)))
    if isinstance(op, GraphOp):
        dp = np.linalg.norm(op.graph.primals - x, axis=1)
        dd = np.linalg.norm(op.graph.duals - v, axis=1)
        return bool(np.any((dp <= tol.eq_tol) & (dd <= tol.eq_tol)))
    if isinstance(op, LinearOp):
        return bool(np.linalg.norm(op.M @ x + op.c - v) <= slack)
    if isinstance(op, SubdiffOp):
        return _fun_membership_residual(op.fun, x, v, tol) <= slack
    if isinstance(op, NormalConeOp):
        if isinstance(op.region, Box):
            box = op.region
            if not box.contains(x, tol.eq_tol):
                return False
            for i in range(box.dim):
                hi_active = x[i] >= box.hi[i] - tol.eq_tol
                lo_active = x[i] <= box.lo[i] + tol.eq_tol
                if v[i] > slack and not hi_active:
                    return False
                if v[i] < -slack and not lo_active:
                    return False
            return True
        if not op.region.contains(x, tol.eq_tol):
            return False
        gaps = (op.region.vertices - x) @ v
        return bool(gaps.max() <= slack * (1.0 + float(np.abs(op.region.vertices - x).max())))
    if isinstance(op, DualityMapOp):
        r = float(np.linalg.norm(x - op.center))
        if op.p == 1.0 and r <= tol.eq_tol:
            return bool(np.linalg.norm(v) <= 1.0 + tol.eq_tol)
        return bool(np.linalg.norm(v - duality_point(op.p, op.center, x)) <= slack)
    if isinstance(op, ShiftedOp):
        return scalar_membership_reference(op.inner, PairPoint(x, v + op.zstar), tol)
    if isinstance(op, PerturbedOp):
        jp = duality_map(op.p, op.center, x)
        if jp.exact:
            return scalar_membership_reference(
                op.inner, PairPoint(x, v - op.lam * jp.points[0]), tol
            )
        inner = fiber(op.inner, x, tol)
        if inner.is_empty:
            return False
        _, d = project_onto_generated_set(inner.points, inner.rays, v)
        return bool(d <= op.lam + slack)
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


# --------------------------------------------------------------------------
# duality map
# --------------------------------------------------------------------------

def test_duality_map_worked_examples():
    f = duality_map(2.0, [0.0, 0.0], [3.0, 4.0])
    assert f.exact and f.points.tolist() == [[3.0, 4.0]]

    f = duality_map(1.0, [0.0, 0.0], [3.0, 4.0])
    assert f.exact
    assert f.points[0] == pytest.approx([0.6, 0.8], abs=1e-12)

    f = duality_map(1.0, [0.0, 0.0], [0.0, 0.0])
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
    fx = duality_map(p, np.zeros(2), x)
    fy = duality_map(p, np.zeros(2), y)
    if fx.exact and fy.exact:
        prod = float(np.dot(x - y, fx.points[0] - fy.points[0]))
        assert prod >= -1e-9


def test_j1_bounded_range():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=3)
        f = duality_map(1.0, np.zeros(3), x)
        assert np.all(np.linalg.norm(f.points, axis=1) <= 1.0 + 1e-9)


# --------------------------------------------------------------------------
# shift / perturb
# --------------------------------------------------------------------------

def test_shift_worked_examples():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    shifted = shift_operator(GraphOp(g), [1.0])
    rows = {(p.primal[0], p.dual[0]) for p in shifted.graph.pairs}
    assert rows == {(0.0, -1.0), (1.0, 0.0)}

    op = CONE01
    assert shift_operator(op, [0.0]) is op

    lin = shift_operator(LinearOp(np.eye(1), np.zeros(1)), [2.0])
    assert isinstance(lin, LinearOp)
    assert lin.c.tolist() == [-2.0]


def test_shift_preserves_monotone_products():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        X = rng.uniform(-1, 1, size=(6, 2))
        g = FiniteGraph.from_arrays(X, X @ np.array([[2.0, 0.3], [0.3, 1.0]]))
        z = rng.uniform(-1, 1, size=2)
        shifted = shift_operator(GraphOp(g), z)
        assert (monotone_check(g) is None) == (monotone_check(shifted.graph) is None)


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
    for p in g.pairs:
        inner_dual = p.primal  # identity
        expected = inner_dual + lam * (p.primal - center)
        assert p.dual == pytest.approx(expected, abs=1e-9)


def test_perturbed_p1_resolvent_reduces_for_subdiff():
    op = perturb(CONE01, 1.0, 1.0, [2.0])
    x = resolvent(op, np.array([0.0]))
    s = np.array([0.0]) - x
    assert membership(op, pair(x, s), DEFAULT_TOL)


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


def test_monotonically_related_worked_examples():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    assert monotonically_related(pair([0.5], [0.5]), g) is None
    assert monotonically_related(pair([0.0], [1.0]), graph_of(([0.0], [0.0]))) is None
    w = monotonically_related(pair([2.0], [-1.0]), g)
    assert w is not None
    prod = float((2.0 - w.primal[0]) * (-1.0 - w.dual[0]))
    assert prod == pytest.approx(-2.0)


# --------------------------------------------------------------------------
# maximality probe
# --------------------------------------------------------------------------

def test_maximality_probe_finds_gap():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    probe = Grid([0.25, 0.25], [0.75, 0.75], 0.25)
    out = maximality_probe(GraphOp(g), probe)
    found = {(round(p.primal[0], 6), round(p.dual[0], 6)) for p in out}
    assert (0.5, 0.5) in found


def test_maximality_probe_identity_empty():
    wgrid = Grid([-2.0], [2.0], 0.05)
    probe = Grid([-1.0, -1.0], [1.0, 1.0], 0.1)
    out = maximality_probe(IDENT, probe, wgrid=wgrid)
    assert out == []


def test_maximality_probe_empty_grid_region():
    g = graph_of(([0.0], [0.0]), ([1.0], [1.0]))
    # a probe box fully off-graph but unrelated: all probes have a negative
    # product against some graph point, so nothing is returned
    probe = Grid([5.0, -9.0], [6.0, -8.0], 0.5)
    assert maximality_probe(GraphOp(g), probe) == []


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
    x = fun_prox(fun, w)
    # u + u^2 = 2 -> u = 1
    assert x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_translated_norm_power_prox():
    fun = TranslatedNormPower(2.0, 1.0, [1.0])
    x = fun_prox(fun, np.array([3.0]))
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


def test_dykstra_escapes_kink_stall():
    # prox of x^2/2 + 0.5*||x|| at 0.5 < ||w|| < 1: the radial optimality
    # condition 2u + 0.5 = ||w|| gives the reference; a naive primal-only
    # stopping rule stalls at the origin for whole cycles before escaping
    fun = FunSum((Quadratic(np.eye(2), np.zeros(2)), NormPower(1.0, 0.5)))
    w = np.array([0.26830398, -0.56167267])
    x = fun_prox(fun, w)
    nw = np.linalg.norm(w)
    ref = (nw - 0.5) / 2.0 * w / nw
    assert x == pytest.approx(ref, abs=1e-9)


def test_inverse_graph_symmetry():
    from fitzkit.operators import inverse_graph
    from fitzkit.criteria import br_check, simons_lower_bound_check
    from fitzkit.certificates import Verdict

    rng = np.random.default_rng(SEED + 9)
    # range-side questions reduce to domain-side ones on the swapped graph
    for _ in range(20):
        X = rng.uniform(-2, 2, size=(8, 2))
        q = rng.uniform(-1, 1, size=(2, 2))
        g = FiniteGraph.from_arrays(X, X @ (q @ q.T))
        gi = inverse_graph(g)
        assert (monotone_check(g) is None) == (monotone_check(gi) is None)
        assert inverse_graph(gi).primals == pytest.approx(g.primals)
    # a range point far from ran A behaves like a domain point far from dom A
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(op, Grid([-2.0], [2.0], 0.25))
    gi = inverse_graph(g)
    cert = simons_lower_bound_check(gi, pair([3.0], [1.0]))
    assert cert.verdict is Verdict.PASS
    cert = br_check(GraphOp(gi), pair([1.0], [1.0]), 0.3, 0.3)
    assert cert.verdict is Verdict.PASS
