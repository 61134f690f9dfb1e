import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fitzkit.operators
from fitzkit.certificates import Verdict, failed, not_applicable, passed
from fitzkit.errors import NoClosedFormError, NotMaximalError, ValidationError, ZOnDomainError
from fitzkit.harness import CheckSpec, ScenarioConfig, _br, _Run
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
    NormPower,
    PerturbedOp,
    Quadratic,
    Sample,
    ShiftedOp,
    SubdiffOp,
    _resolvent_rows,
    graph_sample,
    resolvent_batch,
    unique_domain_points,
)
from fitzkit.vecspace import (
    Box, DEFAULT_TOL, Grid, PairPoint, Polytope, conv_hull, pair, rowwise_dot, separate,
)

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


def _br_check_oracle(sample, xpair, alpha, beta):
    """The one-trial reference for br: two one-row resolvent solves, each
    point found stacked under the graph, and one einsum and argmin over all."""
    g, tol = sample.graph, sample.tol
    x, xs = xpair.primal, xpair.dual
    P, D = g.primals, g.duals
    for lam in (alpha / beta, 1.0):
        try:
            b = resolvent_batch(sample.op, (x + lam * xs)[None, :], tol, step=lam)
        except (NotMaximalError, NoClosedFormError):
            continue
        P, D = np.vstack([P, b]), np.vstack([D, (x + lam * xs - b) / lam])
    k = len(g)
    inf_est = float(np.einsum("ij,ij->i", x - P[:k], xs - D[:k]).min())
    inf_est = min(inf_est, float(rowwise_dot(x - P[k:], xs - D[k:]).min(initial=np.inf)))
    witnesses = [("inf_product", inf_est), ("alpha", float(alpha)), ("beta", float(beta))]
    if inf_est <= -alpha * beta + tol.eq_tol:
        return not_applicable(
            "br", "hypothesis fails: inf <x-a, x*-a*> does not exceed -alpha*beta", witnesses
        )
    scores = np.maximum(
        np.linalg.norm(x - P, axis=1) / alpha, np.linalg.norm(xs - D, axis=1) / beta
    )
    i = int(np.argmin(scores))
    best = PairPoint(P[i], D[i])
    primal_dist = float(np.linalg.norm(x - best.primal))
    dual_dist = float(np.linalg.norm(xs - best.dual))
    if primal_dist < alpha and dual_dist < beta:
        witnesses.insert(0, ("witness_pair", best))
        witnesses.append(("primal_distance", primal_dist))
        witnesses.append(("dual_distance", dual_dist))
        return passed("br", "approximate graph point found within (alpha, beta)", witnesses)
    witnesses.insert(0, ("best_near_miss", best))
    witnesses.append(("near_miss_score", max(primal_dist / alpha, dual_dist / beta)))
    return failed("br", "no graph point within (alpha, beta) of the reference pair", witnesses)


def _br_trials_oracle(sample, rng, trials, lo, hi):
    """The reference loop for br's randomized trials: x, x*, alpha, beta drawn
    per trial, one trial checked at a time, the first failure reported."""
    n_pass = 0
    for _ in range(trials):
        x, xs = rng.uniform(lo, hi), rng.uniform(lo, hi)
        alpha, beta = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))
        cert = _br_check_oracle(sample, pair(x, xs), alpha, beta)
        if cert.verdict is Verdict.FAIL:
            trial = [("trial_x", x), ("trial_alpha", alpha), ("trial_beta", beta)]
            why = "a randomized trial with active hypothesis failed"
            return failed("br", why, list(cert.witnesses) + trial)
        n_pass += cert.verdict is Verdict.PASS
    counts = [("activated_trials", float(n_pass)), ("inactive_trials", float(trials - n_pass))]
    return passed("br", "all activated randomized trials passed", counts)


def _witness_bytes(v):
    if isinstance(v, PairPoint):
        return v.primal.tobytes() + b"|" + v.dual.tobytes()
    return np.asarray(v, dtype=float).tobytes()


def assert_same_certificate(a, b):
    assert (a.verdict, a.check_name, a.narrative) == (b.verdict, b.check_name, b.narrative)
    assert [k for k, _ in a.witnesses] == [k for k, _ in b.witnesses]
    for (label, va), (_, vb) in zip(a.witnesses, b.witnesses):
        assert isinstance(va, PairPoint) == isinstance(vb, PairPoint), label
        assert _witness_bytes(va) == _witness_bytes(vb), label


def _simplex(n):
    return Polytope(np.vstack([np.zeros(n), np.eye(n)]))


# Targets in n = 1..4 that reach every branch of a per-row resolvent step.
# "sparse" is a two-pair graph whose trials fail; "l1_box" (2-d only) runs
# Dykstra with a budget too small for some rows, so their resolvent points
# are missing.
BR_TARGETS = {
    "linear": lambda n: LinearOp(np.eye(n) + np.triu(np.ones((n, n)), 1) - np.tril(np.ones((n, n)), -1)),
    "quadbox": lambda n: SubdiffOp(FunSum((
        Quadratic(2.0 * np.eye(n) + 0.3 * np.ones((n, n))), BoxIndicator(-np.ones(n), np.ones(n))))),
    "norm3": lambda n: SubdiffOp(NormPower(3.0, 0.5)),
    "shifted": lambda n: ShiftedOp(LinearOp(2.0 * np.eye(n)), np.full(n, 0.5)),
    "perturbed": lambda n: PerturbedOp(NormalConeOp(Box(np.zeros(n), np.ones(n))), 0.5, 2.0, np.full(n, 0.2)),
    "simplex_cone": lambda n: NormalConeOp(_simplex(n)),
    "sparse": lambda n: GraphOp(FiniteGraph.from_arrays([np.zeros(n), np.full(n, 2.0)], [np.zeros(n), np.full(n, 2.0)])),
    "l1_box": lambda n: SubdiffOp(FunSum((NormPower(1.0, 0.7), BoxIndicator([-1.0, 0.0], [1.0, 1.0])))),
}


@functools.cache
def _br_sample(kind, n):
    op = BR_TARGETS[kind](n)
    wgrid = Grid(-2.0 * np.ones(n), 2.0 * np.ones(n), (0.1, 0.25, 0.5, 1.0)[n - 1])
    s = Sample.over(op, None if isinstance(op, GraphOp) else wgrid)
    if kind == "l1_box":
        return op, Sample(op, s.graph, replace(DEFAULT_TOL, budget=60), wgrid)
    return op, s


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(BR_TARGETS)),
    st.integers(1, 4),
    st.integers(0, 40),
    st.integers(0, 2**32),
    st.sampled_from((0.5, 1.5, 3.0)),
)
def test_br_trials_batch_equals_the_per_trial_oracle(kind, n, trials, seed, half):
    # the batched _br certificate is the per-trial loop's, witness for
    # witness as bytes: the verdict, the counts, and a failure's witnesses
    if kind == "l1_box":
        n = 2
    op, sample = _br_sample(kind, n)
    lo, hi = [-half] * n, [half] * n
    cfg = ScenarioConfig(n, 0, sample.tol, {"t": op}, {}, ())
    spec = CheckSpec("br", "t", {"trials": trials, "box_lo": lo, "box_hi": hi, "wgrid": "w"})
    run = _Run(cfg, spec, np.random.default_rng(seed), {("t", "w"): sample})
    want = _br_trials_oracle(sample, np.random.default_rng(seed), trials, lo, hi)
    assert_same_certificate(_br(run), want)


def test_br_trials_reach_fail_and_missing_resolvents():
    # the property above reaches a failing trial and trials whose resolvent
    # point has no closed form
    op, sample = _br_sample("sparse", 2)
    assert _br_trials_oracle(sample, np.random.default_rng(0), 20, [-1.5] * 2, [1.5] * 2).verdict is Verdict.FAIL
    op, sample = _br_sample("l1_box", 2)
    W = np.random.default_rng(0).uniform(-1.5, 1.5, (40, 2))
    missing = np.isnan(_resolvent_rows(op, W, sample.tol)).any(axis=1)
    assert 0 < missing.sum() < len(W)


def test_br_check_masks_a_resolvent_point_with_no_closed_form():
    # x + x* is the Dykstra row that does not converge at step 1: that row's
    # resolvent point is no candidate, as the one-trial oracle skips it
    op = SubdiffOp(FunSum((NormPower(1.0, 0.7), BoxIndicator([-1.0, 0.0], [1.0, 1.0]))))
    sample = Sample.over(op, Grid([-2.0, -2.0], [2.0, 2.0], 0.5))
    w = np.array([-0.70056108, -0.95166421])
    assert np.isnan(_resolvent_rows(op, w[None, :], sample.tol)).all()
    for x, alpha, beta in (([-0.5, -0.5], 0.7, 0.3), ([0.0, 0.0], 0.4, 0.9), ([-0.7, 0.0], 0.2, 0.2)):
        xp = pair(x, w - np.array(x))
        assert_same_certificate(br_check(sample, xp, alpha, beta), _br_check_oracle(sample, xp, alpha, beta))


@pytest.mark.parametrize("alpha, beta", [(1e-200, 1e200), (1e200, 1e-200), (0.0, 1.0), (1.0, 0.0), (1.0, -1.0),
                                         (np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0)])
def test_br_check_refuses_a_ratio_that_is_not_positive_and_finite(alpha, beta):
    with pytest.raises(ValidationError, match="br check"):
        br_check(Sample.over(IDENT, Grid([-1.0], [1.0], 0.5)), pair([1.0], [0.5]), alpha, beta)


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
