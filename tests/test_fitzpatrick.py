import itertools
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fitzkit.criteria
import fitzkit.fitzpatrick
import fitzkit.operators
import fitzkit.vecspace
from fitzkit.certificates import Verdict
from fitzkit.criteria import _default_wgrid, theorem36_experiment
from fitzkit.errors import NoClosedFormError, VacuousForFiniteGraphError, ValidationError
from fitzkit.fitzpatrick import (
    Finite,
    InfiniteSuspected,
    fitz_at,
    fitz_domain_projection,
    fitz_finite,
    fitz_inequality_check,
    fitz_linear,
    fitz_rows,
    fitz_sampled,
    is_finite,
    shift_identity_check,
)
from fitzkit.fitzpatrick import _affine_terms, _blocks, _crossed, _resolvent_terms, _ridden
from fitzkit.harness import load_scenario
from fitzkit.operators import (
    BoxIndicator,
    DualityMapOp,
    FiniteGraph,
    FunSum,
    GraphOp,
    LinearOp,
    NormalConeOp,
    Quadratic,
    Sample,
    SubdiffOp,
    cone_form,
    graph_sample,
    membership,
    membership_batch,
)
from fitzkit.vecspace import Box, DEFAULT_TOL, Grid, PairPoint, Polytope, ToleranceConfig, lexsort_rows, pair, rowwise_dot

SEED = 20260809
SKEW = LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
IDENT2 = LinearOp(np.eye(2), np.zeros(2))
CONE01 = NormalConeOp(Box([0.0], [1.0]))


def graph_of(*pts):
    return FiniteGraph.from_arrays([p for p, _ in pts], [d for _, d in pts])


TWO_POINT = graph_of(([0.0], [0.0]), ([1.0], [1.0]))


def brute_force_linear_fitz(M, c, x, xs, box=6.0, steps=241):
    """Independent oracle: dense grid supremum of the affine terms."""
    M, c = np.asarray(M, float), np.asarray(c, float)
    axes = [np.linspace(-box, box, steps)] * len(c)
    best = -np.inf
    for a in itertools.product(*axes):
        a = np.array(a)
        astar = M @ a + c
        best = max(best, float(x @ astar + a @ np.asarray(xs) - a @ astar))
    return best


# --------------------------------------------------------------------------
# fitz_finite
# --------------------------------------------------------------------------

def test_fitz_finite_worked_examples():
    assert fitz_finite(TWO_POINT, pair([2.0], [1.0])) == 2.0  # max{0, 2+1-1}
    assert fitz_finite(TWO_POINT, pair([1.0], [1.0])) == 1.0
    assert fitz_finite(graph_of(([0.0], [0.0])), pair([7.0], [-3.0])) == 0.0


# --------------------------------------------------------------------------
# fitz_linear
# --------------------------------------------------------------------------

def test_fitz_linear_worked_examples():
    v = fitz_linear(np.eye(2), np.zeros(2), pair([1.0, 0.0], [1.0, 0.0]))
    assert isinstance(v, Finite) and v.value == pytest.approx(1.0, abs=1e-12)

    v = fitz_linear(SKEW.M, SKEW.c, pair([1.0, 0.0], [0.0, 1.0]))
    assert isinstance(v, Finite) and v.value == pytest.approx(0.0, abs=1e-12)

    v = fitz_linear(SKEW.M, SKEW.c, pair([1.0, 0.0], [0.0, 0.0]))
    assert isinstance(v, InfiniteSuspected)
    assert v.crossed_threshold > DEFAULT_TOL.inf_threshold
    # the witness really is a graph point achieving the reported term
    a, astar = v.witness.primal, v.witness.dual
    assert astar == pytest.approx(SKEW.M @ a, abs=1e-6)


def test_fitz_linear_identity_closed_form():
    rng = np.random.default_rng(SEED)
    for n in (2, 3):
        for _ in range(50):
            x = rng.uniform(-2, 2, size=n)
            xs = rng.uniform(-2, 2, size=n)
            v = fitz_linear(np.eye(n), np.zeros(n), pair(x, xs))
            assert isinstance(v, Finite)
            assert v.value == pytest.approx(0.25 * np.linalg.norm(x + xs) ** 2, abs=1e-9)


def test_fitz_linear_against_brute_force():
    rng = np.random.default_rng(SEED + 1)
    M = np.array([[1.5, 0.3], [0.3, 0.8]])
    c = np.array([0.2, -0.4])
    x, xs = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    v = fitz_linear(M, c, pair(x, xs))
    ref = brute_force_linear_fitz(M, c, x, xs)
    assert isinstance(v, Finite)
    # grid sup is a lower bound with O(h^2) slack
    assert ref <= v.value + 1e-9
    assert v.value - ref <= 5e-3


def test_fitz_linear_small_eigenvalue_is_finite_not_infinite():
    # F = <x,c> + <s, Ms^+ s>/4 with every eigenvalue positive, however small:
    # 1e-9 I at s = (2e-8, 0) gives (2e-8)^2 / (4e-9) = 1e-7
    v = fitz_linear(1e-9 * np.eye(2), np.zeros(2), pair([10.0, 0.0], [1e-8, 0.0]))
    assert isinstance(v, Finite) and v.value == pytest.approx(1e-7, rel=1e-9)
    # diag(1, 1e-9) at s = (0, 0.01): 0.01^2 / (4e-9) = 25000
    v = fitz_linear(np.diag([1.0, 1e-9]), np.zeros(2), pair([0.0, 0.0], [0.0, 0.01]))
    assert isinstance(v, Finite) and v.value == pytest.approx(25000.0, rel=1e-9)


EPS = np.finfo(float).eps


def eigen_split(M, c, x, xs):
    """The eigenvalues of Ms = (M + M')/2 and the coefficients of
    s = M'x + x* - c on its eigenvectors, by np.linalg.eigh."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return vals, vecs.T @ (M.T @ x + xs - c)


def separable_value(M, c, x, xs):
    """F_A for A = M . + c, one eigenvector of Ms at a time: <x,c> plus
    coefficient^2 / (4 eigenvalue) over the positive eigenvalues, infinite
    when s has a component along a zero eigenvalue."""
    vals, coef = eigen_split(M, c, x, xs)
    null = vals <= 1e-14  # eigh resolves a zero eigenvalue to about eps |Ms|
    if np.any(np.abs(coef[null]) > 1e-12):
        return np.inf
    return float(x @ c + 0.25 * np.sum(coef[~null] ** 2 / vals[~null]))


@st.composite
def psd_linear_cases(draw):
    """(M, c, x, x*): M = Q diag(eigenvalues) Q' plus an optional skew part,
    with eigenvalues 0, in (0, rank_tol] or moderate. x* puts s = M'x + x* - c
    on the moderate eigenvectors, plus either nothing, a coefficient on one
    small or zero eigenvector, or one on each of them."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["zero", "small", "moderate"]), min_size=n, max_size=n))
    lams = np.array([0.0 if k == "zero" else 10.0 ** rng.uniform(-11, -8) if k == "small"
                     else rng.uniform(0.1, 3.0) for k in kinds])
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    K = rng.uniform(-1.0, 1.0, size=(n, n)) * draw(st.booleans())
    M = Q @ np.diag(lams) @ Q.T + 0.5 * (K - K.T)
    c, x = rng.uniform(-1.0, 1.0, n), rng.uniform(-2.0, 2.0, n)
    coef = np.where(lams > DEFAULT_TOL.rank_tol, rng.uniform(-2.0, 2.0, n), 0.0)
    rest = np.flatnonzero(lams <= DEFAULT_TOL.rank_tol)
    on = rest[: draw(st.sampled_from([0, 1, len(rest)]))]
    coef[on] = rng.choice([-1.0, 1.0], len(on)) * 10.0 ** rng.uniform(-6.0, 0.0, len(on))
    return M, c, x, Q @ coef - M.T @ x + c


def resolution(M, lam):
    """Relative accuracy of a value that divides by the eigenvalue lam of Ms:
    eigh and the term's own sums resolve lam to about eps |M|."""
    return 1e-9 + 64.0 * EPS * np.linalg.norm(M, 2) / lam


@settings(max_examples=300, deadline=None)
@given(psd_linear_cases(), st.sampled_from([DEFAULT_TOL.inf_threshold, 10.0, 1.0]))
def test_fitz_linear_against_the_separable_value(case, threshold):
    # thresholds of 10 and 1 put many in-range values above inf_threshold
    M, c, x, xs = case
    v = fitz_linear(M, c, pair(x, xs), ToleranceConfig(inf_threshold=threshold))
    exact = separable_value(M, c, x, xs)
    vals, coef = eigen_split(M, c, x, xs)
    small = vals[(vals > 1e-14) & (vals <= DEFAULT_TOL.rank_tol)]
    slack = resolution(M, small.min(initial=1.0))
    if isinstance(v, InfiniteSuspected):  # a crossing with a graph-point witness
        assert v.crossed_threshold > threshold
        a, astar = v.witness.primal, v.witness.dual
        assert np.array_equal(astar, M @ a + c)
        assert x @ astar + a @ xs - a @ astar == pytest.approx(v.crossed_threshold, rel=1e-12)
        # a graph point's term bounds F from below
        assert v.crossed_threshold <= exact + slack * abs(v.crossed_threshold)
        return
    assert v.value <= threshold  # a Finite value never passes inf_threshold
    assert v.value <= exact + slack * max(1.0, abs(v.value))
    off = vals <= DEFAULT_TOL.rank_tol
    carriers = vals[off][np.abs(coef[off]) > 1e-12]
    if exact < np.inf and len(carriers) <= 1:  # one eigenvector carries s off range
        assert v.value == pytest.approx(exact, rel=resolution(M, carriers.min(initial=1.0)), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(psd_linear_cases())
def test_fitz_linear_equals_the_pairing_on_graph_points(case):
    M, c, x, _ = case
    pairing = float(x @ (M @ x + c))
    v = fitz_linear(M, c, pair(x, M @ x + c))
    assert isinstance(v, Finite)
    # Ms^+ drops the eigenvalues at or below rank_tol, which hold at most
    # rank_tol |x|^2 of the pairing
    slack = DEFAULT_TOL.eq_tol * max(1.0, abs(pairing)) + DEFAULT_TOL.rank_tol * float(x @ x)
    assert v.value == pytest.approx(pairing, abs=slack)


# --------------------------------------------------------------------------
# fitz_sampled
# --------------------------------------------------------------------------

def test_sampled_equals_finite_on_graph_specs():
    rng = np.random.default_rng(SEED + 2)
    wgrid = Grid([-1.0], [1.0], 0.5)
    for _ in range(50):
        k = rng.integers(2, 20)
        xs = np.sort(rng.uniform(-2, 2, size=k))
        ss = np.sort(rng.uniform(-2, 2, size=k))
        try:
            g = FiniteGraph.from_arrays(xs[:, None], ss[:, None])
        except Exception:
            continue
        p = pair(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        v = fitz_sampled(GraphOp(g), p, wgrid)
        assert isinstance(v, Finite)
        assert v.value == fitz_finite(g, p)  # bit-equal enumeration


def test_sampled_linear_matches_closed_form():
    grid = Grid([-4.0, -4.0], [4.0, 4.0], 0.1)
    v = fitz_sampled(IDENT2, pair([1.0, 1.0], [1.0, 1.0]), grid)
    assert isinstance(v, Finite)
    assert v.value == pytest.approx(2.0, abs=1e-3)


def test_sampled_normal_cone_diverges():
    grid = Grid([-1.0], [2.0], 0.1)
    v = fitz_sampled(CONE01, pair([2.0], [0.0]), grid)
    assert isinstance(v, InfiniteSuspected)
    assert v.crossed_threshold > DEFAULT_TOL.inf_threshold
    assert v.witness.primal == pytest.approx([1.0], abs=1e-9)


def test_sampled_monotone_in_grid():
    # enlarging the sample never decreases the finite value
    coarse = Grid([-2.0, -2.0], [2.0, 2.0], 1.0)
    fine = Grid([-2.0, -2.0], [2.0, 2.0], 0.25)
    p = pair([0.7, -0.3], [0.4, 0.9])
    v1 = fitz_sampled(IDENT2, p, coarse)
    v2 = fitz_sampled(IDENT2, p, fine)
    assert is_finite(v1) and is_finite(v2)
    assert v2.value >= v1.value - 1e-12


# one graph, evaluated over two ops, two tolerances and two grids in any order:
# the Sample the graph keeps (Sample.on) must never show in a result
SHARED_GRID = Grid([-1.0, -1.0], [2.0, 2.0], 0.25)
SHARED_OPS = (
    NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])),
    NormalConeOp(Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
)
SHARED_GRAPH = graph_sample(SHARED_OPS[0], SHARED_GRID)
SHARED_TOLS = (DEFAULT_TOL, ToleranceConfig(eq_tol=1e-6, inf_threshold=1e3))
SHARED_GRIDS = (SHARED_GRID, Grid([-1.0, -1.0], [2.0, 2.0], 0.25))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(want, Finite):
        assert float(got.value).hex() == float(want.value).hex()
    else:
        assert float(got.crossed_threshold).hex() == float(want.crossed_threshold).hex()
        assert got.witness.primal.tobytes() == want.witness.primal.tobytes()
        assert got.witness.dual.tobytes() == want.witness.dual.tobytes()


@settings(max_examples=30, deadline=None)
@given(calls=st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
              st.lists(st.floats(-1.5, 2.5), min_size=2, max_size=2),
              st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)),
    min_size=1, max_size=8,
))
def test_fitz_sampled_on_a_shared_graph_equals_a_fresh_sample(calls):
    for o, t, w, x, xs in calls:
        op, tol, grid, pt = SHARED_OPS[o], SHARED_TOLS[t], SHARED_GRIDS[w], pair(x, xs)
        assert_same_bits(fitz_sampled(op, pt, grid, tol, sample=SHARED_GRAPH),
                         fitz_at(Sample(op, SHARED_GRAPH, tol, grid), pt))


def test_fitz_sampled_builds_one_graphs_domain_and_fibers_once(monkeypatch):
    """16 probes on one graph: one domain scan and one fiber per domain point."""
    op = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0]))
    g = graph_sample(op, SHARED_GRID)
    domain = fitzkit.operators.unique_domain_points(g)
    calls = {"_fiber": 0, "unique_domain_points": 0}
    for name in calls:
        real = getattr(fitzkit.operators, name)

        def counting(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(fitzkit.operators, name, counting)
    probes = itertools.product([-0.5, 0.25, 0.75, 1.5], [-1.0, 0.5, 2.0, 3.0])
    for x0, s0 in probes:
        fitz_sampled(op, pair([x0, 1.0 - x0], [s0, -s0]), SHARED_GRID, sample=g)
    assert calls == {"_fiber": len(domain), "unique_domain_points": 1}
    assert 1 < len(domain) < len(g)


# --------------------------------------------------------------------------
# fitz_rows against closed forms (Bauschke, McLaren & Sendov 2006)
# --------------------------------------------------------------------------

J1_CENTER = np.array([0.5, -0.25])
CLOSED_FORMS = {
    # N_C for the unit box C: F = iota_C(x) + sigma_C(x*)
    "box_cone": (
        NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])),
        lambda x, xs: float(np.maximum(xs, 0.0).sum())
        if np.all((x >= 0.0) & (x <= 1.0)) else np.inf,
    ),
    # skew M: F = sup_a <a, x* - Mx>, 0 on the graph and +inf off it. Exact,
    # unlike fitz_linear, whose range test takes |s| <= rank_tol as in range
    "skew": (SKEW, lambda x, xs: 0.0 if np.array_equal(xs, SKEW.M @ x) else np.inf),
    "linear": (LinearOp([[2.0, 0.5], [-0.5, 1.0]], [0.25, -0.5]), None),
    # the subdifferential of 0.5|x|^2: F = |x + x*|^2 / 4
    "half_sq": (
        SubdiffOp(Quadratic(np.eye(2), np.zeros(2))),
        lambda x, xs: 0.25 * float((x + xs) @ (x + xs)),
    ),
    # J_1(. - c): F = |x - c| + <c, x*> + iota(|x*| <= 1)
    "j1": (
        DualityMapOp(1.0, J1_CENTER),
        lambda x, xs: float(np.linalg.norm(x - J1_CENTER) + J1_CENTER @ xs)
        if np.linalg.norm(xs) <= 1.0 else np.inf,
    ),
}


@lru_cache(maxsize=None)
def closed_form_sample(name):
    return Sample.over(CLOSED_FORMS[name][0], Grid([-3.0, -3.0], [3.0, 3.0], 0.25))


def closed_form(name, x, xs):
    op, oracle = CLOSED_FORMS[name]
    if oracle is None:  # linear operators: fitz_linear
        v = fitz_linear(op.M, op.c, pair(x, xs))
        return v.value if is_finite(v) else np.inf
    return oracle(x, xs)


coords = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(np.array)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORMS)), x=coords, xs=coords)
def test_fitz_at_is_bounded_by_the_closed_form(name, x, xs):
    v = fitz_at(closed_form_sample(name), pair(x, xs))
    oracle = closed_form(name, x, xs)
    if is_finite(v):
        assert v.value <= oracle + DEFAULT_TOL.eq_tol
    else:  # "infinite" is a crossing the closed form confirms
        assert oracle == np.inf
        assert v.crossed_threshold > DEFAULT_TOL.inf_threshold


def same_result(value, crossing, v):
    """fitz_rows' (value, crossing) of one row is fitz_at's v, bit for bit."""
    if crossing is None:
        return is_finite(v) and float(value).hex() == v.value.hex()
    t, w = crossing
    return (
        not is_finite(v)
        and t.hex() == v.crossed_threshold.hex()
        and w.primal.tolist() == v.witness.primal.tolist()
        and w.dual.tolist() == v.witness.dual.tolist()
    )


QUADBOX2 = SubdiffOp(FunSum((Quadratic(np.eye(2), np.zeros(2)), BoxIndicator([0.0, 0.0], [1.0, 1.0]))))
ROW_SAMPLES = [
    NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])),
    NormalConeOp(Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    QUADBOX2,
    DualityMapOp(1.0, [0.0, 0.0]),
    IDENT2,
]


REFINED = {"box_cone": CLOSED_FORMS["box_cone"][0], "quadbox": QUADBOX2,
           "half_sq": CLOSED_FORMS["half_sq"][0]}


@lru_cache(maxsize=None)
def refinement_sample(name, spacing):
    return Sample.over(REFINED[name], Grid([-3.0, -3.0], [3.0, 3.0], spacing))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(REFINED)), x=coords, xs=coords)
def test_fitz_at_never_decreases_under_nested_refinement(name, x, xs):
    # halving the spacing of an aligned grid keeps every node, so the sample
    # only grows: a crossing stays a crossing, and a value never falls
    pt = pair(x, xs)
    values = [fitz_at(refinement_sample(name, h), pt) for h in (1.0, 0.5, 0.25)]
    for coarse, fine in zip(values, values[1:]):
        if not is_finite(coarse):
            assert not is_finite(fine)
        elif is_finite(fine):
            assert fine.value >= coarse.value - DEFAULT_TOL.eq_tol


@pytest.mark.parametrize("op", ROW_SAMPLES, ids=["box", "triangle", "quadbox", "j1", "ident"])
def test_fitz_rows_row_is_its_one_row_call(op):
    rng = np.random.default_rng(SEED + 5)
    s = Sample.over(op, Grid([-2.0, -2.0], [3.0, 3.0], 0.25))
    # the last two rows: x + x* = (2 + 2e-8, 1), whose quadbox resolvent is
    # (1, 0.5) alone, and a far row
    X = np.vstack([rng.uniform(-1.5, 2.5, (40, 2)), [[1.0, 0.5], [1e4, 0.0]]])
    S = np.vstack([rng.uniform(-2.0, 2.0, (40, 2)), [[1.0 + 2e-8, 0.5], [0.0, 0.0]]])
    values, crossings = fitz_rows(s, X, S)
    assert len(values) == len(crossings) == len(X)
    for i in range(len(X)):
        assert same_result(values[i], crossings[i], fitz_at(s, pair(X[i], S[i]))), i


def test_fitz_rows_crossing_is_the_lex_first_witness():
    # a sample out of lex order, with two pairs far up the [0, 1] cone's ray at 1
    g = FiniteGraph.from_arrays(np.array([[1.0], [1.0], [0.0]]), np.array([[2e9], [1e9], [0.0]]))
    _, (ridden, paired) = fitz_rows(Sample(CONE01, g), np.array([[2.0], [1.0]]),
                                    np.array([[0.0], [1e9]]))
    # at (2, 0) both pairs cross, but the ray ridden to the target precedes them
    assert ridden[1].primal.tolist() == [1.0]
    assert ridden[1].dual.tolist() == [DEFAULT_TOL.inf_threshold * 1.001]
    # at (1, 1e9) no ray ascends: the lex-first of the crossing pairs (1, 2e9),
    # (1, 1e9) and the resolvent point (1, 1e9)
    assert paired == (1e9, paired[1]) and paired[1].dual.tolist() == [1e9]


@pytest.mark.parametrize("dim", [1, 3])
def test_fitz_rows_rejects_points_of_another_dimension(dim):
    # the pair and resolvent mask too, whose bound clears these rows before any table
    for rows in (fitz_rows, _crossed):
        with pytest.raises(ValidationError, match="dimension"):
            rows(closed_form_sample("box_cone"), np.zeros((2, dim)), np.ones((2, dim)))


def test_fitz_rows_failing_resolvent_drops_only_its_row(monkeypatch):
    real = fitzkit.operators.resolvent_batch  # behind the row-wise fallback

    def no_closed_form_far_out(op, W, tol, step):
        if np.any(np.abs(W) > 100.0):
            raise NoClosedFormError("no closed form far out")
        return real(op, W, tol, step)

    s = Sample.over(IDENT2, Grid([-2.0, -2.0], [2.0, 2.0], 0.5))
    X, S = np.array([[0.3, -0.2], [500.0, 0.0]]), np.array([[0.1, 0.4], [0.0, 0.0]])
    alone = fitz_at(s, pair(X[0], S[0]))
    monkeypatch.setattr(fitzkit.operators, "resolvent_batch", no_closed_form_far_out)
    values, crossings = fitz_rows(s, X, S)
    assert values[0] == alone.value == pytest.approx(0.25 * np.sum((X[0] + S[0]) ** 2))
    assert values[1] == fitz_finite(s.graph, pair(X[1], S[1]))  # sample terms only
    assert crossings == [None, None]


# --------------------------------------------------------------------------
# domain projection
# --------------------------------------------------------------------------

SCENARIOS = Path(fitzkit.operators.__file__).parent / "scenarios"


def in_unit_interval(nodes):
    return np.all((nodes >= -1e-9) & (nodes <= 1.0 + 1e-9), axis=1)


def in_triangle(nodes):
    return np.all(nodes >= -1e-9, axis=1) & (nodes.sum(axis=1) <= 1.0 + 1e-9)


@pytest.mark.parametrize(
    "scenario, target, in_c, count",
    [
        ("paper-suite", "cone01", in_unit_interval, 21),
        ("paper-suite", "halfsq_box", in_unit_interval, 21),
        ("operator-zoo", "cone_box2", in_unit_interval, 121),
        ("operator-zoo", "tri_cone", in_triangle, 66),
        ("paper-suite", "ident", None, 81),
        ("operator-zoo", "skew", None, 961),
        ("operator-zoo", "shifted_ident", None, 961),
    ],
)
def test_domain_projection_is_the_grid_in_the_domain(scenario, target, in_c, count):
    """theorem36's scan of each bundled target: exactly the grid nodes in
    the closed domain C, or every node when the domain is the whole space."""
    cfg = load_scenario(SCENARIOS / f"{scenario}.json")
    op = cfg.operators[target]
    xgrid = cfg.grids["scan" if scenario == "paper-suite" else "scan2"]
    scan = fitz_domain_projection(Sample.over(op, _default_wgrid(op, xgrid)), xgrid)
    nodes = xgrid.nodes()
    expected = nodes if in_c is None else nodes[in_c(nodes)]
    assert len(expected) == count
    assert np.array_equal(scan.member_points, expected)


# --------------------------------------------------------------------------
# domain projection
# --------------------------------------------------------------------------

def test_domain_projection_normal_cone():
    xgrid = Grid([-1.0], [3.0], 0.05)
    scan = fitz_domain_projection(Sample.over(CONE01, xgrid.scaled(2.0, 2.0)), xgrid)
    members = scan.member_points[:, 0]
    assert scan.method == "sampled_threshold"
    assert members.min() == pytest.approx(0.0, abs=1e-9)
    assert members.max() == pytest.approx(1.0, abs=1e-9)
    assert len(members) == 21  # the [0,1] lattice at 0.05


def test_domain_projection_one_fiber_call_per_node(monkeypatch):
    calls = []
    real_fiber = fitzkit.operators.fiber

    def counting_fiber(*args, **kwargs):
        calls.append(args[1])
        return real_fiber(*args, **kwargs)

    monkeypatch.setattr(fitzkit.operators, "fiber", counting_fiber)
    xgrid = Grid([-1.0, -1.0], [2.0, 2.0], 0.25)
    cone = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0]))
    scan = fitz_domain_projection(Sample.over(cone, xgrid.scaled(2.0, 2.0)), xgrid)
    assert len(scan.member_points) == 25  # the [0,1]^2 lattice at 0.25
    assert len(calls) <= xgrid.count


def test_domain_projection_linear_identity_all_nodes():
    grid = Grid([-1.0, -1.0], [1.0, 1.0], 0.5)
    scan = fitz_domain_projection(Sample.over(IDENT2, grid.scaled(2.0, 2.0)), grid)
    assert scan.method == "linear_consistency"
    assert len(scan.member_points) == grid.count


def test_domain_projection_small_eigenvalues_mark_every_node():
    # A = 1e-9 I: dom A = X, and F is finite at (x, Ax) however small A is
    grid = Grid([-10.0, -10.0], [10.0, 10.0], 0.5)
    _, cert = theorem36_experiment(LinearOp(1e-9 * np.eye(2)), grid)
    assert cert.verdict is Verdict.PASS
    assert cert.witness("member_count") == cert.witness("hull_node_count") == grid.count == 1681


def test_domain_projection_skew_marks_every_node():
    # regression guard: dom F_A is thin but its projection covers X
    grid = Grid([-1.0, -1.0], [1.0, 1.0], 0.5)
    scan = fitz_domain_projection(Sample.over(SKEW, grid.scaled(2.0, 2.0)), grid)
    assert len(scan.member_points) == grid.count


def test_domain_projection_without_a_wgrid_is_refused():
    """A sampled operator's scan reaches two wgrid spacings for its probes:
    on a Sample.on a given graph without a wgrid it raises ValidationError
    naming the wgrid. An affine operator's scan needs none."""
    xgrid, wgrid = Grid([-1.0, -1.0], [1.0, 1.0], 0.5), Grid([-2.0, -2.0], [2.0, 2.0], 0.5)
    op = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValidationError, match="wgrid"):
        fitz_domain_projection(Sample.on(op, graph_sample(op, wgrid)), xgrid)
    scan = fitz_domain_projection(Sample.on(IDENT2, graph_sample(IDENT2, wgrid)), xgrid)
    assert len(scan.member_points) == xgrid.count


def test_domain_projection_rejects_graphs():
    with pytest.raises(VacuousForFiniteGraphError):
        fitz_domain_projection(Sample.over(GraphOp(TWO_POINT), None), Grid([-1.0], [1.0], 0.5))


GATE_THRESHOLDS = (0.1, 2.0, 10.0, 50.0)


# a graph whose bound a row attains: the pair ((1, 0), (-1, 0)) has the
# largest |a_1| and |a*_1| and d = -max |d|, so at x = -t e1, x* = t e1 its
# term 2t + 1 is B exactly. Sampled under the identity, whose fibers have no
# ray, the pair's crossing is the row's only one
TIGHT_GRAPH = graph_of(([1.0, 0.0], [-1.0, 0.0]), ([0.0, 0.0], [0.0, 0.0]), ([0.5, 0.5], [0.25, -0.5]))


@lru_cache(maxsize=None)
def gate_sample(i, threshold):
    """The Minty sample of ROW_SAMPLES[i], or the identity's sample on
    TIGHT_GRAPH for i = len(ROW_SAMPLES), at a small inf_threshold."""
    tol, grid = ToleranceConfig(eq_tol=1e-7, inf_threshold=threshold), Grid([-2.0, -2.0], [3.0, 3.0], 0.5)
    if i == len(ROW_SAMPLES):
        return Sample(IDENT2, TIGHT_GRAPH, tol, grid)
    return Sample.over(ROW_SAMPLES[i], grid, tol)


def crossing_mask(s, X, S):
    """The scan's mask: rows that ride an exact ray, or cross at a sample pair
    or the resolvent point."""
    return _ridden(s, X) | _crossed(s, X, S)


def same_crossings(got, want):
    """Both crossing lists hold None at the same rows and, elsewhere, the
    same term and witness bit for bit."""
    assert [c is None for c in got] == [c is None for c in want]
    for c, w in zip(got, want):
        if c is not None:
            assert c[0].hex() == w[0].hex()
            assert c[1].primal.tobytes() == w[1].primal.tobytes()
            assert c[1].dual.tobytes() == w[1].dual.tobytes()
    return True


@st.composite
def gate_cases(draw):
    """(sample, X, S, xgrid) on a sample with a small inf_threshold, so that
    sample pairs cross. The rows are uniform draws and rows (t a_j*, t a_j)
    along a sample pair (on TIGHT_GRAPH, some at B_i itself), each scaled so
    that the gate's bound B_i sits within 16 ulps of inf_threshold, plus the
    uniform draws unscaled."""
    s = gate_sample(draw(st.integers(0, len(ROW_SAMPLES))), draw(st.sampled_from(GATE_THRESHOLDS)))
    g, threshold = s.graph, s.tol.inf_threshold
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, S = rng.uniform(-3.0, 3.0, (2, 12, 2))
    j = rng.integers(len(g), size=12)
    X, S = np.vstack([X, g.duals[j]]), np.vstack([S, g.primals[j]])
    linear = np.abs(X) @ np.abs(g.duals).max(axis=0) + np.abs(S) @ np.abs(g.primals).max(axis=0)
    reach = max(threshold - np.abs(g.self_products).max(), 0.0)
    scale = reach / np.where(linear > 0, linear, 1.0) * (1.0 + EPS * rng.integers(-16, 17, len(X)))
    X, S = np.vstack([X * scale[:, None], X[:12]]), np.vstack([S * scale[:, None], S[:12]])
    lo = draw(st.lists(st.floats(-2.0, 0.0), min_size=2, max_size=2))
    xgrid = Grid(lo, [v + 3.0 for v in lo], draw(st.sampled_from([0.25, 0.5, 0.75])))
    return s, X, S, xgrid


@settings(max_examples=60, deadline=None)
@given(gate_cases())
def test_crossing_mask_equals_fitz_rows_crossings(case):
    """The scan's mask, which tabulates only the rows the bound cannot clear
    and rides no ray, is fitz_rows' crossings' not-None pattern, and so is
    every mask the domain scan reads; its member set is the one full
    crossings give on every node, the ones it drops as ridden too."""
    s, X, S, xgrid = case
    want = [c is not None for c in fitz_rows(s, X, S)[1]]
    assert crossing_mask(s, X, S).tolist() == want
    real = fitzkit.fitzpatrick._crossed

    def checked(s, X, S):  # the scan's probe rows ride no ray
        hit = real(s, X, S)
        assert hit.tolist() == [c is not None for c in fitz_rows(s, X, S)[1]]
        return hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitzkit.fitzpatrick, "_crossed", checked)
        scan = fitz_domain_projection(s, xgrid)
        mp.setattr(fitzkit.fitzpatrick, "_ridden", lambda s, X: np.zeros(len(X), dtype=bool))
        mp.setattr(fitzkit.fitzpatrick, "_crossed",
                   lambda s, X, S: np.array([c is not None for c in fitz_rows(s, X, S)[1]], dtype=bool))
        full = fitz_domain_projection(s, xgrid)
    assert np.array_equal(scan.member_points, full.member_points)


def test_domain_scan_builds_no_pair_table(monkeypatch):
    """Every bundled theorem36 scan is decided without a table: the bound
    clears each probe row. With inf_threshold at 1 the same scans do send
    rows, so the count sees them."""
    targets = [(cfg, check) for name in ("paper-suite", "operator-zoo", "expected-failures")
               for cfg in [load_scenario(SCENARIOS / f"{name}.json")]
               for check in cfg.checks if check.check == "theorem36"]
    assert len(targets) == 8
    sent, real = [], fitzkit.fitzpatrick._affine_terms
    monkeypatch.setattr(fitzkit.fitzpatrick, "_affine_terms",
                        lambda g, X, S: sent.append(len(X)) or real(g, X, S))
    for cfg, check in targets:
        op, xgrid = cfg.operators[check.target], cfg.grids[check.params["xgrid"]]
        wgrid = cfg.grids.get(check.params.get("wgrid")) or _default_wgrid(op, xgrid)
        assert cfg.tolerances == DEFAULT_TOL
        fitz_domain_projection(Sample.over(op, wgrid, cfg.tolerances), xgrid)
        assert sum(sent) == 0, check.target
        form = cone_form(op, xgrid.dim)
        if form is None or form[2] is not None:  # the affine scan probes nothing
            fitz_domain_projection(Sample.over(op, wgrid, ToleranceConfig(inf_threshold=1.0)), xgrid)
            assert sum(sent) > 0, check.target
            sent.clear()


def test_shifted_identity_scan_builds_no_fiber(monkeypatch):
    """operator-zoo's shifted_ident, B(x) = x - z*, is affine: its theorem36
    scan marks every node without a fiber or a crossings probe."""
    cfg = load_scenario(SCENARIOS / "operator-zoo.json")
    op = cfg.operators["shifted_ident"]
    fibers, crossings = [], []
    real_fiber = fitzkit.operators._fiber
    monkeypatch.setattr(fitzkit.operators, "_fiber", lambda *a: fibers.append(1) or real_fiber(*a))
    for name in ("_ridden", "_crossed"):
        real = getattr(fitzkit.fitzpatrick, name)
        monkeypatch.setattr(fitzkit.fitzpatrick, name, lambda *a, real=real: crossings.append(1) or real(*a))
    _, cert = theorem36_experiment(op, cfg.grids["scan2"], cfg.tolerances)
    assert cert.verdict is Verdict.PASS and cert.witness("member_count") == 961
    assert (len(fibers), len(crossings)) == (0, 0)


@pytest.mark.parametrize("rows, width", [(140, 2), (93, 1), (5000, 7), (300, 1681), (10, 70000)])
def test_blocks_hold_at_most_two_to_the_sixteen_entries(rows, width):
    """Every block holds at most 2^16 entries, or one row, and a table that
    fits in 2^16 entries is one block."""
    blocks = list(_blocks(rows, width))
    assert [r for b in blocks for r in range(rows)[b]] == list(range(rows))
    assert all(len(range(rows)[b]) * width <= 2**16 or b.stop - b.start == 1 for b in blocks)
    assert len(blocks) == 1 or rows * width > 2**16


# --------------------------------------------------------------------------
# The crossings half against the collect-all reference
# --------------------------------------------------------------------------

def ray_crossings_reference(s, X, S):
    """The exact-ray crossings as they were found before the Sample kept a
    ray table: the rows (a, b, r) rebuilt from Sample.candidates on every
    call, and every crossing of every doubling step kept. The first step is
    t >= 0, so that a witness lies on its ray, in the graph."""
    tol = s.tol
    head = itertools.takewhile(lambda c: c[1].exact and len(c[1].rays), (
        s.candidates if not isinstance(s.op, GraphOp) and len(X) else ()))
    rays = [(a, f.points[lexsort_rows(f.points)[0]], r) for a, f in head for r in f.rays]
    A, B, R = np.array(rays, dtype=float).reshape(-1, 3, s.graph.dim).transpose(1, 0, 2)
    found = []
    target = tol.inf_threshold * 1.001
    for blk in _blocks(len(X), len(A)) if len(A) else ():
        Xb, Sb = X[blk], S[blk]
        slope = rowwise_dot(Xb[:, None] - A, R)
        i, k = np.nonzero(slope > tol.eq_tol)
        ax = rowwise_dot(Sb[i], A[k])
        t = np.maximum((target - (rowwise_dot(Xb[i], B[k]) + ax - rowwise_dot(A[k], B[k]))) / slope[i, k], 0.0)
        for _ in range(9):
            if not len(i):
                break
            astar = B[k] + t[:, None] * R[k]
            terms = rowwise_dot(Xb[i], astar) + ax - rowwise_dot(A[k], astar)
            over = terms > tol.inf_threshold
            W = np.hstack([A[k], astar])
            found.append((i[over] + blk.start, terms[over], W[over], k[over] - len(A)))
            i, k, ax, t = i[~over], k[~over], ax[~over], 2.0 * t[~over]
    return found


def pair_crossings_reference(s, X, S):
    """Each row's lex-first crossing sample pair, the graph lexsorted anew in
    every block."""
    g, found = s.graph, []
    for blk in [] if isinstance(s.op, GraphOp) else _blocks(len(X), len(g)):
        T = _affine_terms(g, X[blk], S[blk])
        over = T > s.tol.inf_threshold
        hit = np.flatnonzero(over.any(axis=1))
        order = lexsort_rows(np.hstack([g.primals, g.duals]))
        j = order[over[hit][:, order].argmax(axis=1)]
        W = np.hstack([g.primals[j], g.duals[j]])
        found.append((np.arange(len(X))[blk][hit], T[hit, j], W, np.zeros(len(hit))))
    return found


def crossings_reference(s, X, S):
    """Each row's lex-first crossing, every crossing of every row collected
    first and lexsorted at once: rays, then pairs, then the resolvent point."""
    n = X.shape[1]
    none = (np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 2 * n)), np.zeros(0))
    found = pair_crossings_reference(s, X, S) + _resolvent_terms(s, X, S)[1]
    found += ray_crossings_reference(s, X, S)
    rows, terms, W, rank = (np.concatenate(part) for part in zip(none, *found))
    first = np.lexsort((rank, *W.T[::-1], rows))
    first = first[np.diff(rows[first], prepend=-1) != 0]
    crossings = [None] * len(X)
    for i, t, w in zip(rows[first], terms[first], W[first]):
        crossings[i] = (float(t), PairPoint(w[:n], w[n:]))
    return crossings


def quad_box(n):
    """The subdifferential of x'Qx / 2 + the indicator of [-1, 1]^n, Q = 2I + 0.3 11'."""
    Q = 2.0 * np.eye(n) + 0.3
    return SubdiffOp(FunSum((Quadratic(Q, np.zeros(n)), BoxIndicator([-1.0] * n, [1.0] * n))))


ORACLE_SAMPLES = [(op, Grid([-2.0, -2.0], [3.0, 3.0], 0.5)) for op in ROW_SAMPLES] + [
    (NormalConeOp(Box([-1.0] * 3, [1.0] * 3)), Grid([-2.0] * 3, [2.0] * 3, 1.0)),
    (quad_box(4), Grid([-6.0] * 4, [6.0] * 4, 3.0)),
]


@lru_cache(maxsize=None)
def oracle_sample(i, threshold):
    op, grid = ORACLE_SAMPLES[i]
    return Sample.over(op, grid, ToleranceConfig(eq_tol=1e-7, inf_threshold=threshold))


@st.composite
def oracle_cases(draw):
    """(sample, X, S, far): uniform rows, and rows along sample pairs, over
    more than one _blocks slice of the exact-ray table whenever it has rays;
    and a sixth as many far rows (X, S), out to a few 1e6. A far row is x =
    a + 1e6 p + delta r at a ray (a, b, r) of the table, p orthogonal to r,
    so that its slope delta |r|^2 is near eq_tol and the proof's point of
    _rides passes the target point, with x* scaled by up to 1e6 (without
    rays, x is scaled too)."""
    s = oracle_sample(draw(st.integers(0, len(ORACLE_SAMPLES) - 1)), draw(st.sampled_from([2.0, 50.0, 1e8])))
    A, _, R, _ = s.exact_rays
    step = next(_blocks(1, len(A))).stop if len(A) else 20
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n = draw(st.integers(step + 1, 3 * step)), s.graph.dim
    X, S = rng.uniform(-3.0, 3.0, (2, k, n))
    j = rng.integers(len(s.graph), size=k // 3)
    X[: k // 3] = s.graph.primals[j] + rng.uniform(-0.5, 0.5, (k // 3, n))
    S[: k // 3] = s.graph.duals[j] * rng.uniform(0.5, 4.0, (k // 3, 1))
    m = k // 6
    scale = 10.0 ** rng.uniform(0.0, 6.0, (2, m, 1))
    far = X[-m:] * scale[0]
    if len(A):
        i = rng.integers(len(A), size=m)
        p = X[-m:] - rowwise_dot(X[-m:], R[i])[:, None] * R[i] / rowwise_dot(R[i], R[i])[:, None]
        delta = s.tol.eq_tol * 10.0 ** rng.uniform(-0.5, 2.0, (m, 1))
        far = A[i] + 1e6 * p + delta * R[i] / rowwise_dot(R[i], R[i])[:, None]
    return s, X, S, (far, S[-m:] * scale[1])


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
def test_crossings_equal_the_collect_all_reference(case):
    """fitz_rows, which reads the Sample's ray table and pair order, rides
    each ray once and keeps one crossing per row and block, gives the
    collect-all reference's crossings bit for bit: None at the same rows, and
    elsewhere the same term and witness bytes. On the far rows too, where
    fitz_rows may take the proof's point along a ray the reference doubles
    along, fitz_rows' crossings and the scan's mask, which rides no ray, have
    the reference's not-None pattern row for row."""
    s, X, S, (Xfar, Sfar) = case
    k, X, S = len(X), np.vstack([X, Xfar]), np.vstack([S, Sfar])
    want, got = crossings_reference(s, X, S), fitz_rows(s, X, S)[1]
    assert same_crossings(got[:k], want[:k])
    assert crossing_mask(s, X, S).tolist() == [c is not None for c in want] == [c is not None for c in got]


def test_ray_crossing_witness_lies_on_its_ray():
    """At x = (3, 0.5), x* = (1.1e8, 0) the term at the fiber point b = 0 of
    a = (1, 0) already passes the target, so t0 < 0 along the ray e_1. The
    crossing there takes t = 0, not the point ((1, 0), (-4.95e6, 0)) behind
    the ray, and the lex-first crossing is then the sample pair ((1, 0), (0, -1))."""
    s = Sample.over(NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), Grid([-1.0, -1.0], [2.0, 2.0], 0.25))
    value = fitz_at(s, pair([3.0, 0.5], [1.1e8, 0.0]))
    assert isinstance(value, InfiniteSuspected)
    assert membership(s.op, value.witness)
    assert value.witness.primal.tolist() == [1.0, 0.0] and value.witness.dual.tolist() == [0.0, -1.0]


@settings(max_examples=12, deadline=None)
@given(oracle_cases())
def test_every_crossing_witness_lies_in_the_graph(case):
    """Every crossing fitz_rows returns, along a ray, at a sample pair or at a
    resolvent point, is a pair of the operator's graph."""
    s, X, S, (Xfar, Sfar) = case
    witnesses = [c[1] for c in fitz_rows(s, np.vstack([X, Xfar]), np.vstack([S, Sfar]))[1] if c is not None]
    if witnesses:
        P, D = np.array([w.primal for w in witnesses]), np.array([w.dual for w in witnesses])
        assert membership_batch(s.op, P, D, s.tol).all()


def test_four_dimensional_quad_box_scan_memory_is_bounded():
    """The n = 4 quad+box theorem36 scan on [-1.5, 1.5]^4 at spacing 0.5 keeps
    its tracemalloc peak under 64 MiB; collecting every ray crossing before
    the pick took it to 201 MiB. A regression gate, not a figure to refit."""
    xgrid = Grid([-1.5] * 4, [1.5] * 4, 0.5)
    tracemalloc.start()
    try:
        _, cert = theorem36_experiment(quad_box(4), xgrid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    assert cert.verdict is Verdict.PASS


@pytest.mark.parametrize("n, spacing", [(3, 0.25), (4, 0.5)])
def test_quad_box_scan_rides_no_ray(monkeypatch, n, spacing):
    """The quad+box theorem36 scan on [-1.5, 1.5]^n marks the grid nodes in
    [-1, 1]^n, and it rides no ray, picks no lex-first crossing and builds
    no witness: the nodes that ride an exact ray are dropped before any
    probe, and the probes read a mask."""
    calls, scans = [], []
    for name in ("_ray_crossings", "_lex_min", "PairPoint"):
        real = getattr(fitzkit.fitzpatrick, name)
        monkeypatch.setattr(fitzkit.fitzpatrick, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    real_scan = fitzkit.criteria.fitz_domain_projection
    monkeypatch.setattr(fitzkit.criteria, "fitz_domain_projection",
                        lambda *a: scans.append(real_scan(*a)) or scans[-1])
    xgrid = Grid([-1.5] * n, [1.5] * n, spacing)
    _, cert = theorem36_experiment(quad_box(n), xgrid)
    nodes = xgrid.nodes()
    assert np.array_equal(scans[0].member_points, nodes[np.all(np.abs(nodes) <= 1.0 + 1e-9, axis=1)])
    assert calls == [] and cert.verdict is Verdict.PASS


def test_warm_fitz_at_makes_no_lexsort_per_ray(monkeypatch):
    """A second fitz_at on a box-cone Sample reads the Sample's ray table and
    pair order: its lexsort_rows count does not grow with the exact rays."""
    calls, real = [], fitzkit.vecspace.lexsort_rows
    for module in (fitzkit.vecspace, fitzkit.operators, fitzkit.fitzpatrick):
        monkeypatch.setattr(module, "lexsort_rows", lambda rows: calls.append(1) or real(rows), raising=False)
    op, pt, counts = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), pair([2.0, 0.5], [1.0, 1.0]), []
    for spacing in (0.5, 0.125):
        s = Sample.over(op, Grid([-2.0, -2.0], [3.0, 3.0], spacing))
        first = fitz_at(s, pt)
        assert len(calls) > 0  # the first probe builds the table
        calls.clear()
        assert_same_bits(fitz_at(s, pt), first)
        counts.append((len(s.exact_rays[0]), len(calls)))
        calls.clear()
    (rays_coarse, coarse), (rays_fine, fine) = counts
    assert rays_coarse < rays_fine and coarse == fine == 0


# --------------------------------------------------------------------------
# inequality check
# --------------------------------------------------------------------------

def test_inequality_check_passes_on_maximal_sampled():
    rng = np.random.default_rng(SEED + 3)
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(op, Grid([-4.0], [4.0], 0.1))
    XS = rng.uniform(-2, 2, size=(300, 2, 1))  # x then x* for each point
    cert = fitz_inequality_check(Sample(op, g), XS[:, 0], XS[:, 1])
    assert cert.verdict is Verdict.PASS
    assert cert.witness("worst_gap") <= DEFAULT_TOL.eq_tol


def test_inequality_check_documented_failure():
    op = GraphOp(TWO_POINT)
    cert = fitz_inequality_check(Sample(op, TWO_POINT), np.array([[0.5]]), np.array([[0.5]]))
    assert cert.verdict is Verdict.FAIL
    assert cert.witness("gap") == pytest.approx(0.25, abs=1e-12)


def test_inequality_check_builds_no_fiber(monkeypatch):
    """Its values are fitz_rows' values, bit for bit, and they need no fiber:
    only fitz_rows' ray crossings read Sample.candidates."""
    built = []
    real_fiber = fitzkit.operators._fiber
    monkeypatch.setattr(fitzkit.operators, "_fiber", lambda *a: built.append(a) or real_fiber(*a))
    rng = np.random.default_rng(SEED + 5)
    X, S = rng.uniform(-2, 3, size=(2, 200, 2))
    sample = Sample.over(NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), Grid([-2.0, -2.0], [3.0, 3.0], 0.25))
    cert = fitz_inequality_check(sample, X, S)
    assert built == []
    values, _ = fitz_rows(sample, X, S)
    assert len(built) == len(sample.domain)  # the ray half built them
    assert np.array_equal(fitzkit.fitzpatrick._row_values(sample, X, S), values)
    assert cert.witness("worst_gap") == float((np.einsum("ij,ij->i", X, S) - values).max())


def test_inequality_equality_on_graph_points():
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(op, Grid([-2.0], [2.0], 0.25))
    cert = fitz_inequality_check(Sample(op, g), np.zeros((0, 1)), np.zeros((0, 1)))
    assert cert.verdict is Verdict.PASS
    assert cert.witness("worst_graph_equality_residual") <= 1e-12


# --------------------------------------------------------------------------
# shift identity
# --------------------------------------------------------------------------

def test_shift_identity_worked_example():
    cert = shift_identity_check(TWO_POINT, [2.0], [1.0])
    assert cert.verdict is Verdict.PASS
    assert cert.witness("lhs") == pytest.approx(0.0, abs=1e-12)
    assert cert.witness("rhs") == pytest.approx(0.0, abs=1e-12)


def test_shift_identity_zero_shift():
    cert = shift_identity_check(TWO_POINT, [3.0], [0.0])
    assert cert.verdict is Verdict.PASS
    assert cert.witness("abs_difference") == 0.0


def test_shift_identity_random_graphs():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 20))
        X = rng.uniform(-2, 2, size=(k, n))
        Q = rng.uniform(-1, 1, size=(n, n))
        Q = Q @ Q.T
        g = FiniteGraph.from_arrays(X, X @ Q)
        z = rng.uniform(-2, 2, size=n)
        zs = rng.uniform(-2, 2, size=n)
        cert = shift_identity_check(g, z, zs)
        assert cert.verdict is Verdict.PASS
        assert cert.witness("abs_difference") <= 1e-12
