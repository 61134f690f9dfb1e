"""Edge cases: degenerate ranks, nested combinators, honest failure paths,
and the upper end of desk-scale dimensions."""

import json

import numpy as np
import pytest

from fitzkit.certificates import Verdict
from fitzkit.cli import main
from fitzkit.criteria import br_check, near_convexity_certificate
from fitzkit.errors import ValidationError
from fitzkit.fitzpatrick import Finite, InfiniteSuspected, fitz_linear
from fitzkit.harness import scenario_from_dict
from fitzkit.operators import (
    DualityMapOp,
    FiniteGraph,
    GraphOp,
    LinearOp,
    NormalConeOp,
    PerturbedOp,
    Sample,
    ShiftedOp,
    fiber,
    graph_sample,
    membership,
    monotone_check,
    resolvent,
)
from fitzkit.vecspace import Box, DEFAULT_TOL, Grid, Polytope, conv_hull, dist_to_polytope, pair


def test_fitz_linear_rank_deficient():
    # M = diag(1, 0): the dual coordinate along the kernel must vanish for a
    # finite value; otherwise the supremum rides the kernel direction
    m = np.diag([1.0, 0.0])
    v = fitz_linear(m, np.zeros(2), pair([1.0, 1.0], [2.0, 0.0]))
    assert isinstance(v, Finite)
    # sup over a of 3*a1 - a1^2 = 9/4, hand maximum at a1 = 3/2
    assert v.value == pytest.approx(2.25, abs=1e-12)

    v = fitz_linear(m, np.zeros(2), pair([1.0, 1.0], [2.0, 1.0]))
    assert isinstance(v, InfiniteSuspected)
    assert v.crossed_threshold > DEFAULT_TOL.inf_threshold
    a, astar = v.witness.primal, v.witness.dual
    assert astar == pytest.approx(m @ a, abs=1e-6)


def test_nested_shift_perturb_resolvent():
    inner = ShiftedOp(NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), [0.5, -0.5])
    op = PerturbedOp(inner, 3.0, 2.0, [0.2, 0.2])
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.uniform(-3, 3, size=2)
        x = resolvent(op, w)
        assert membership(op, pair(x, w - x), DEFAULT_TOL)
        assert resolvent(op, x + (w - x)) == pytest.approx(x, abs=1e-9)


def test_near_convexity_fail_on_bounded_graph():
    g = FiniteGraph.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])
    cert = near_convexity_certificate(
        Sample.over(GraphOp(g), Grid([-1.0], [2.0], 0.5)), [2.0], 1.0, [0.5, 100.0]
    )
    assert cert.verdict is Verdict.FAIL
    assert cert.witness("first_missing_lambda") == 100.0


def test_br_fail_on_sparse_graph():
    g = FiniteGraph.from_arrays([[0.0], [2.0]], [[0.0], [2.0]])
    cert = br_check(Sample.over(GraphOp(g), None), pair([1.0], [1.0]), 0.5, 0.5)
    assert cert.verdict is Verdict.FAIL
    assert cert.witness("near_miss_score") == pytest.approx(2.0)


def test_four_dimensional_smoke():
    box = Box([0.0] * 4, [1.0] * 4)
    op = NormalConeOp(box)
    w = np.array([2.0, -1.0, 0.5, 3.0])
    x = resolvent(op, w)
    assert x == pytest.approx([1.0, 0.0, 0.5, 1.0], abs=1e-12)
    f = fiber(op, x)
    assert f.exact and len(f.rays) == 3
    assert membership(op, pair(x, w - x), DEFAULT_TOL)
    ball = fiber(DualityMapOp(1.0, np.zeros(4)), np.zeros(4))
    assert not ball.exact
    assert np.all(np.linalg.norm(ball.points, axis=1) <= 1.0 + 1e-9)
    g = graph_sample(op, Grid([-1.0] * 4, [2.0] * 4, 1.0))
    assert monotone_check(g) is None


def test_singleton_polytope_normal_cone_is_everything():
    p = Polytope([[0.5, 0.5]])
    op = NormalConeOp(p)
    f = fiber(op, [0.5, 0.5])
    assert f.exact and len(f.rays) == 4  # +/- each complement basis vector
    assert membership(op, pair([0.5, 0.5], [100.0, -50.0]), DEFAULT_TOL)
    assert fiber(op, [0.6, 0.5]).is_empty


def test_hull_and_projection_in_r4():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(12, 4))
    hull = conv_hull(pts)
    z = rng.uniform(1.5, 2.0, size=4)
    d, proj = dist_to_polytope(z, hull)
    assert d > 0
    assert hull.contains(proj, 1e-8)
    # projection optimality: the residual separates z from every vertex
    r = z - proj
    assert np.all((hull.vertices - proj) @ r <= 1e-8)


def test_scenario_unknown_check_rejected():
    raw = {
        "dimension": 1,
        "operators": {"a": {"kind": "linear", "matrix": [[1.0]]}},
        "grids": {},
        "checks": [{"check": "no_such_check", "target": "a", "params": {}}],
    }
    with pytest.raises(ValidationError, match="unknown check"):
        scenario_from_dict(raw)


def test_scenario_unresolved_grid_rejected():
    raw = {
        "dimension": 1,
        "operators": {"a": {"kind": "linear", "matrix": [[1.0]]}},
        "grids": {},
        "checks": [
            {"check": "theorem36", "target": "a", "params": {"xgrid": "ghost"}}
        ],
    }
    with pytest.raises(ValidationError, match="unresolved grid"):
        scenario_from_dict(raw)


def test_cli_fitz_sampled_requires_wgrid(capsys):
    op = json.dumps({"kind": "normal_cone", "box": {"lo": [0.0], "hi": [1.0]}})
    code = main(["fitz", "--operator", op, "--x", "2.0", "--xstar", "0.0"])
    assert code == 2
    assert "wgrid" in capsys.readouterr().err


def test_graph_sample_respects_grid_cap():
    with pytest.raises(ValidationError, match="cap"):
        Grid([-1.0, -1.0], [1.0, 1.0], 0.001, cap=10_000)
