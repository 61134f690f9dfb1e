import itertools

import numpy as np
import pytest

import fitzkit.operators
from fitzkit.certificates import Verdict
from fitzkit.errors import VacuousForFiniteGraphError
from fitzkit.fitzpatrick import (
    Finite,
    InfiniteSuspected,
    fitz_domain_projection,
    fitz_finite,
    fitz_inequality_check,
    fitz_linear,
    fitz_sampled,
    is_finite,
    shift_identity_check,
)
from fitzkit.operators import (
    BoxIndicator,
    FiniteGraph,
    GraphOp,
    LinearOp,
    NormalConeOp,
    Quadratic,
    Sample,
    SubdiffOp,
    graph_sample,
)
from fitzkit.vecspace import Box, DEFAULT_TOL, Grid, pair

SEED = 20260809
SKEW = LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
IDENT2 = LinearOp(np.eye(2), np.zeros(2))
CONE01 = NormalConeOp(Box([0.0], [1.0]))


def graph_of(*pts):
    return FiniteGraph(tuple(pair(p, d) for p, d in pts))


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


def test_domain_projection_skew_marks_every_node():
    # regression guard: dom F_A is thin but its projection covers X
    grid = Grid([-1.0, -1.0], [1.0, 1.0], 0.5)
    scan = fitz_domain_projection(Sample.over(SKEW, grid.scaled(2.0, 2.0)), grid)
    assert len(scan.member_points) == grid.count


def test_domain_projection_rejects_graphs():
    with pytest.raises(VacuousForFiniteGraphError):
        fitz_domain_projection(Sample.over(GraphOp(TWO_POINT), None), Grid([-1.0], [1.0], 0.5))


# --------------------------------------------------------------------------
# inequality check
# --------------------------------------------------------------------------

def test_inequality_check_passes_on_maximal_sampled():
    rng = np.random.default_rng(SEED + 3)
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(op, Grid([-4.0], [4.0], 0.1))
    pts = [pair(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(300)]
    cert = fitz_inequality_check(op, pts, g)
    assert cert.verdict is Verdict.PASS
    assert cert.witness("worst_gap") <= DEFAULT_TOL.eq_tol


def test_inequality_check_documented_failure():
    op = GraphOp(TWO_POINT)
    cert = fitz_inequality_check(op, [pair([0.5], [0.5])], TWO_POINT)
    assert cert.verdict is Verdict.FAIL
    assert cert.witness("gap") == pytest.approx(0.25, abs=1e-12)


def test_inequality_equality_on_graph_points():
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    g = graph_sample(op, Grid([-2.0], [2.0], 0.25))
    cert = fitz_inequality_check(op, [], g)
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
