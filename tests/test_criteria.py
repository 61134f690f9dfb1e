import numpy as np
import pytest

import fitzkit.operators
from fitzkit.certificates import Verdict
from fitzkit.errors import ZOnDomainError
from fitzkit.criteria import (
    blowup_witness_sequence,
    br_check,
    conv_domain_certificate,
    near_convexity_certificate,
    simons_lower_bound_check,
    sup_quotient,
    theorem36_experiment,
)
from fitzkit.operators import (
    BoxIndicator,
    FiniteGraph,
    FunSum,
    GraphOp,
    LinearOp,
    NormalConeOp,
    Quadratic,
    Sample,
    SubdiffOp,
    graph_sample,
    unique_domain_points,
)
from fitzkit.vecspace import Box, DEFAULT_TOL, Grid, pair, separate, conv_hull

CONE01 = NormalConeOp(Box([0.0], [1.0]))
CONE01_2 = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0]))
IDENT = LinearOp(np.eye(1), np.zeros(1))
SKEW = LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
TWO_POINT = FiniteGraph.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])

WGRID_1D = Grid([-2.0], [3.0], 0.1)


# --------------------------------------------------------------------------
# sup_quotient
# --------------------------------------------------------------------------

def test_sup_quotient_cone_diverges():
    est, trace = sup_quotient(Sample.over(CONE01, WGRID_1D), [2.0])
    assert est >= DEFAULT_TOL.inf_threshold
    last = trace.entries[-1]
    assert last[2].primal == pytest.approx([1.0], abs=1e-9)
    # the recorded witness reproduces the quotient
    a, astar = last[2].primal, last[2].dual
    q = float((2.0 - a[0]) * astar[0]) / abs(2.0 - a[0])
    assert q == pytest.approx(last[1], rel=1e-12)


def test_sup_quotient_linear_bounded():
    est, _ = sup_quotient(
        Sample.over(IDENT, Grid([-20.0], [20.0], 0.1)), [5.0], allow_z_in_domain=True
    )
    assert 4.9 <= est <= 5.1


def test_sup_quotient_inside_cone_nonpositive():
    est, _ = sup_quotient(Sample.over(CONE01, WGRID_1D), [0.5], allow_z_in_domain=True)
    assert est <= 1e-9


def test_sup_quotient_z_on_domain_raises():
    with pytest.raises(ZOnDomainError):
        sup_quotient(Sample.over(IDENT, Grid([-2.0], [2.0], 0.5)), [0.0])


# --------------------------------------------------------------------------
# near-convexity certificate
# --------------------------------------------------------------------------

def test_near_convexity_cone_p1():
    cert = near_convexity_certificate(
        Sample.over(CONE01, WGRID_1D), [2.0], 1.0, [1.0, 10.0, 100.0]
    )
    assert cert.verdict is Verdict.PASS
    alpha = cert.witness("alpha")
    assert alpha == pytest.approx(1.0, abs=1e-9)
    for lam in (1.0, 10.0, 100.0):
        q = cert.witness(f"quotient_lambda_{lam:g}")
        assert q > lam * alpha ** 0.0 - 1e-9
        # witness pair re-verifies the recorded quotient
        w = cert.witness(f"witness_lambda_{lam:g}")
        rq = float(np.dot(2.0 - w.primal, w.dual)) / abs(2.0 - w.primal[0])
        assert rq == pytest.approx(q, rel=1e-12)


def test_near_convexity_fibers_built_once_per_candidate(monkeypatch):
    """The candidate fibers are derived once and searched for every lambda."""
    calls = []
    real_fiber = fitzkit.operators._fiber  # Sample.fibers calls the core on rows it holds

    def counting_fiber(*args, **kwargs):
        calls.append(args[1])
        return real_fiber(*args, **kwargs)

    monkeypatch.setattr(fitzkit.operators, "_fiber", counting_fiber)
    cert = near_convexity_certificate(
        Sample.over(CONE01, WGRID_1D), [2.0], 1.0, [1.0, 10.0, 100.0]
    )
    assert cert.verdict is Verdict.PASS
    assert len(calls) == len(unique_domain_points(graph_sample(CONE01, WGRID_1D)))


def test_near_convexity_full_domain_not_applicable():
    cert = near_convexity_certificate(
        Sample.over(IDENT, Grid([-2.0], [2.0], 0.5)), [0.0], 2.0, [1.0]
    )
    assert cert.verdict is Verdict.NOT_APPLICABLE


def test_near_convexity_box2_p2():
    wgrid = Grid([-2.0, -2.0], [3.0, 3.0], 0.25)
    cert = near_convexity_certificate(Sample.over(CONE01_2, wgrid), [2.0, 2.0], 2.0, [10.0])
    assert cert.verdict is Verdict.PASS
    alpha = cert.witness("alpha")
    assert alpha == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert cert.witness("quotient_lambda_10") > 10.0 * np.sqrt(2.0) - 1e-9


def test_near_convexity_strict_mode_records_probe():
    probe = Grid([-1.0, -1.0], [1.0, 1.0], 0.5)
    cert = near_convexity_certificate(
        Sample.over(CONE01, WGRID_1D), [2.0], 2.0, [1.0, 10.0], strict=True, probe_grid=probe
    )
    assert cert.verdict is Verdict.PASS
    assert cert.witness("maximality_evidence_count") >= 0.0


# --------------------------------------------------------------------------
# conv-domain certificate
# --------------------------------------------------------------------------

def test_conv_domain_two_point_graph_bound_chain():
    cert = conv_domain_certificate(Sample.over(GraphOp(TWO_POINT), WGRID_1D), [2.0], 1.0, [0.5])
    assert cert.verdict is Verdict.PASS
    assert cert.witness("r_emp") == pytest.approx(0.0, abs=1e-12)
    assert cert.witness("sup_quotient_sampled") == pytest.approx(1.0, abs=1e-12)
    assert cert.witness("hull_distance") == pytest.approx(1.0, abs=1e-9)


def test_conv_domain_cone_passes():
    cert = conv_domain_certificate(
        Sample.over(CONE01, WGRID_1D), [2.0], 1.0, [1.0, 10.0, 100.0]
    )
    assert cert.verdict is Verdict.PASS


def test_conv_domain_one_fiber_call_per_domain_point(monkeypatch):
    """The schedule's candidates and the bound chain's probes read one fiber
    table."""
    calls = []
    real_fiber = fitzkit.operators._fiber  # Sample.fibers calls the core on rows it holds

    def counting_fiber(*args, **kwargs):
        calls.append(args[1])
        return real_fiber(*args, **kwargs)

    sample = Sample.over(CONE01, WGRID_1D)
    monkeypatch.setattr(fitzkit.operators, "_fiber", counting_fiber)
    cert = conv_domain_certificate(sample, [2.0], 1.0, [1.0, 10.0, 100.0])
    assert cert.verdict is Verdict.PASS
    assert len(calls) == len(sample.domain) == 11


def test_conv_domain_inside_hull_not_applicable():
    cert = conv_domain_certificate(Sample.over(CONE01, WGRID_1D), [0.5], 1.0, [1.0])
    assert cert.verdict is Verdict.NOT_APPLICABLE


# --------------------------------------------------------------------------
# lower-bound check
# --------------------------------------------------------------------------

def test_simons_lower_bound_two_point():
    cert = simons_lower_bound_check(Sample.over(GraphOp(TWO_POINT), None), pair([2.0], [1.0]))
    assert cert.verdict is Verdict.PASS
    assert cert.witness("r_emp") == pytest.approx(0.0, abs=1e-12)


def test_simons_lower_bound_related_pair_nonnegative():
    cert = simons_lower_bound_check(Sample.over(GraphOp(TWO_POINT), None), pair([2.0], [3.0]))
    assert cert.verdict is Verdict.PASS
    assert cert.witness("r_emp") >= 0.0


def test_simons_lower_bound_cone_infinite_not_applicable():
    cert = simons_lower_bound_check(Sample.over(CONE01, WGRID_1D), pair([2.0], [0.0]))
    assert cert.verdict is Verdict.NOT_APPLICABLE


def test_simons_lower_bound_sampled_stability():
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    cert = simons_lower_bound_check(
        Sample.over(op, Grid([-4.0], [4.0], 0.2)), pair([3.0], [1.0])
    )
    assert cert.verdict is Verdict.PASS
    assert cert.witness("relative_change") <= 0.10


# --------------------------------------------------------------------------
# br check
# --------------------------------------------------------------------------

def test_br_identity_worked_example():
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    cert = br_check(Sample.over(op, Grid([-4.0], [4.0], 0.1)), pair([1.0], [0.0]), 0.6, 0.6)
    assert cert.verdict is Verdict.PASS
    w = cert.witness("witness_pair")
    assert np.linalg.norm(w.primal - 1.0) < 0.6
    assert np.linalg.norm(w.dual - 0.0) < 0.6
    assert cert.witness("inf_product") == pytest.approx(-0.25, abs=1e-6)


def test_br_on_graph_point_trivial():
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    cert = br_check(Sample.over(op, Grid([-4.0], [4.0], 0.1)), pair([1.0], [1.0]), 0.3, 0.3)
    assert cert.verdict is Verdict.PASS
    w = cert.witness("witness_pair")
    assert np.linalg.norm(w.primal - 1.0) < 1e-6


def test_br_hypothesis_fails_not_applicable():
    op = SubdiffOp(Quadratic([[1.0]], [0.0]))
    cert = br_check(Sample.over(op, Grid([-4.0], [4.0], 0.1)), pair([1.0], [0.0]), 0.1, 0.1)
    assert cert.verdict is Verdict.NOT_APPLICABLE
    assert cert.witness("inf_product") <= -0.01


# --------------------------------------------------------------------------
# blow-up witnesses
# --------------------------------------------------------------------------

def test_blowup_cone_1d():
    trace, cert = blowup_witness_sequence(Sample.over(CONE01, WGRID_1D), [2.0], [1, 10, 100])
    assert cert.verdict is Verdict.PASS
    assert cert.witness("delta") == pytest.approx(0.5, abs=1e-12)
    # delta matches separate's margin exactly
    g = graph_sample(CONE01, WGRID_1D)
    from fitzkit.operators import unique_domain_points

    hull = conv_hull(unique_domain_points(g))
    _, delta = separate([2.0], hull)
    assert cert.witness("delta") == delta
    for n, val, w in trace.entries:
        assert val > n * 0.5 - 1e-9


def test_blowup_linear_inside_hull_not_applicable():
    trace, cert = blowup_witness_sequence(
        Sample.over(IDENT, Grid([-10.0], [10.0], 0.5)), [3.0], [1, 5]
    )
    assert cert.verdict is Verdict.NOT_APPLICABLE
    assert trace.entries == ()


def test_blowup_box2():
    wgrid = Grid([-2.0, -2.0], [3.0, 3.0], 0.25)
    trace, cert = blowup_witness_sequence(Sample.over(CONE01_2, wgrid), [2.0, 0.5], [1, 5])
    assert cert.verdict is Verdict.PASS
    assert cert.witness("delta") == pytest.approx(0.5, abs=1e-12)
    y0 = cert.witness("y0star")
    assert y0 == pytest.approx([1.0, 0.0], abs=1e-9)
    for n, val, _ in trace.entries:
        assert val > n * 0.5 - 1e-9


def test_blowup_superlinear_trend():
    trace, cert = blowup_witness_sequence(Sample.over(CONE01, WGRID_1D), [2.0], [1, 10, 100])
    vals = trace.values()
    ns = trace.params()
    assert vals[-1] / vals[0] >= 0.5 * ns[-1] / ns[0]


# --------------------------------------------------------------------------
# domain-projection equality experiment
# --------------------------------------------------------------------------

def test_theorem36_cone_1d():
    dist, cert = theorem36_experiment(CONE01, Grid([-1.0], [3.0], 0.05))
    assert cert.verdict is Verdict.PASS
    assert dist <= 0.1 + 1e-9


def test_theorem36_linear_identity():
    dist, cert = theorem36_experiment(IDENT, Grid([-1.0], [1.0], 0.05))
    assert cert.verdict is Verdict.PASS
    assert dist <= 0.1 + 1e-9


def test_theorem36_skew():
    dist, cert = theorem36_experiment(SKEW, Grid([-1.0, -1.0], [1.0, 1.0], 0.1))
    assert cert.verdict is Verdict.PASS
    assert dist <= 0.2 + 1e-9


def test_theorem36_subdiff_quad_plus_box():
    op = SubdiffOp(FunSum((Quadratic([[1.0]], [0.0]), BoxIndicator([0.0], [1.0]))))
    dist, cert = theorem36_experiment(op, Grid([-1.0], [3.0], 0.05))
    assert cert.verdict is Verdict.PASS
    assert dist <= 0.1 + 1e-9


def test_corollary_families_hull_adds_nothing():
    # full-domain linear, affine graph, and subdifferential families: the
    # domain-projection experiment passes and the sampled-domain hull adds
    # nothing beyond the sampled domain itself
    from fitzkit.operators import unique_domain_points
    from fitzkit.vecspace import hausdorff

    cases = [
        (LinearOp(np.eye(2), np.zeros(2)), Grid([-1.0, -1.0], [1.0, 1.0], 0.1)),
        (LinearOp([[1.0, 0.0], [0.0, 2.0]], [0.5, -0.5]), Grid([-1.0, -1.0], [1.0, 1.0], 0.1)),
        (SubdiffOp(Quadratic([[1.0]], [0.2])), Grid([-1.0], [1.0], 0.05)),
        (
            SubdiffOp(FunSum((Quadratic([[1.0]], [0.0]), BoxIndicator([0.0], [1.0])))),
            Grid([-1.0], [2.0], 0.05),
        ),
    ]
    for op, xgrid in cases:
        dist, cert = theorem36_experiment(op, xgrid)
        assert cert.verdict is Verdict.PASS
        from fitzkit.criteria import _default_wgrid

        g = graph_sample(op, _default_wgrid(op, xgrid))
        dom = unique_domain_points(g)
        hull = conv_hull(dom)
        nodes = xgrid.nodes()
        hull_nodes = nodes[hull.contains_batch(nodes, 1e-9)]
        in_box = dom[
            np.all((dom >= xgrid.lower - 1e-9) & (dom <= xgrid.upper + 1e-9), axis=1)
        ]
        assert hausdorff(in_box, hull_nodes) <= 2.0 * xgrid.spacing + 1e-9


def test_near_convexity_fractional_p():
    cert = near_convexity_certificate(
        Sample.over(CONE01, WGRID_1D), [2.0], 1.5, [1.0, 10.0, 100.0]
    )
    assert cert.verdict is Verdict.PASS
    alpha = cert.witness("alpha")
    for lam in (1.0, 10.0, 100.0):
        assert cert.witness(f"quotient_lambda_{lam:g}") > lam * alpha ** 0.5 - 1e-9


def test_theorem36_domain_outside_grid_fails():
    far_cone = NormalConeOp(Box([10.0], [11.0]))
    dist, cert = theorem36_experiment(far_cone, Grid([-1.0], [1.0], 0.25))
    assert cert.verdict is Verdict.FAIL
    assert not np.isfinite(dist)
