"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fitzkit.certificates import Verdict
from fitzkit.criteria import (
    blowup_witness_sequence,
    br_check,
    near_convexity_certificate,
    sup_quotient,
    theorem36_experiment,
)
from fitzkit.fitzpatrick import (
    Finite,
    fitz_finite,
    fitz_inequality_check,
    fitz_linear,
    fitz_sampled,
    shift_identity_check,
)
from fitzkit.harness import load_scenario, render_report, report_to_dict, run_suite
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
from fitzkit.vecspace import Box, Grid, conv_hull, pair, separate

SEED = 20260809
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "fitzkit" / "scenarios"


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def random_monotone_graph(rng, max_points=20, max_dim=3):
    n = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(2, max_points + 1))
    q = rng.uniform(-1, 1, size=(n, n))
    q = q @ q.T
    b = rng.uniform(-1, 1, size=n)
    X = rng.uniform(-2, 2, size=(k, n))
    return FiniteGraph.from_arrays(X, X @ q + b)


# --------------------------------------------------------------------------

def test_criterion_1_identity_closed_form():
    with criterion(1, "fitz_linear(I,0) equals ||x+x*||^2/4 at 1e-9 on 100 seeded points"):
        rng = np.random.default_rng(SEED)
        for n in (2, 3):
            for _ in range(100):
                x = rng.uniform(-3, 3, size=n)
                xs = rng.uniform(-3, 3, size=n)
                v = fitz_linear(np.eye(n), np.zeros(n), pair(x, xs))
                assert isinstance(v, Finite)
                oracle = 0.25 * float(np.linalg.norm(x + xs) ** 2)
                assert abs(v.value - oracle) <= 1e-9


def test_criterion_2_finite_graph_oracle_equivalence():
    with criterion(2, "fitz_sampled equals fitz_finite exactly on 100 random graphs"):
        rng = np.random.default_rng(SEED + 1)
        wgrid = Grid([-1.0], [1.0], 0.5)
        count = 0
        while count < 100:
            try:
                g = random_monotone_graph(rng)
            except Exception:
                continue
            count += 1
            p = pair(rng.uniform(-2, 2, g.dim), rng.uniform(-2, 2, g.dim))
            v = fitz_sampled(GraphOp(g), p, wgrid)
            assert isinstance(v, Finite)
            assert v.value == fitz_finite(g, p)


def test_criterion_3_fitzpatrick_inequality_suite():
    with criterion(3, "F >= pairing - 1e-9 on 1000 probes; equality on graph points"):
        rng = np.random.default_rng(SEED + 2)
        cases = [
            (SubdiffOp(Quadratic(np.eye(2), np.zeros(2))), Grid([-3.0, -3.0], [3.0, 3.0], 0.25)),
            (SubdiffOp(Quadratic(np.eye(3), np.zeros(3))), Grid([-2.0] * 3, [2.0] * 3, 0.5)),
            (
                SubdiffOp(
                    FunSum(
                        (
                            Quadratic(np.eye(2), np.zeros(2)),
                            BoxIndicator([0.0, 0.0], [1.0, 1.0]),
                        )
                    )
                ),
                Grid([-2.0, -2.0], [3.0, 3.0], 0.25),
            ),
            (NormalConeOp(Box([0.0], [1.0])), Grid([-2.0], [3.0], 0.1)),
            (NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), Grid([-2.0, -2.0], [3.0, 3.0], 0.25)),
            (NormalConeOp(Box([0.0] * 3, [1.0] * 3)), Grid([-2.0] * 3, [2.0] * 3, 0.5)),
        ]
        for op, wgrid in cases:
            n = wgrid.dim
            g = graph_sample(op, wgrid)
            XS = rng.uniform(-2, 2, size=(1000, 2, n))  # x then x* for each point
            cert = fitz_inequality_check(Sample(op, g), XS[:, 0], XS[:, 1])
            assert cert.verdict is Verdict.PASS, cert.narrative
            assert cert.witness("worst_gap") <= 1e-9
            slack = cert.witness("graph_equality_slack")
            assert cert.witness("worst_graph_equality_residual") <= slack


def test_criterion_4_shift_identity_exact():
    with criterion(4, "shift identity exact to 1e-12 on 1000 random instances"):
        rng = np.random.default_rng(SEED + 3)
        done = 0
        while done < 1000:
            try:
                g = random_monotone_graph(rng)
            except Exception:
                continue
            done += 1
            z = rng.uniform(-2, 2, g.dim)
            zs = rng.uniform(-2, 2, g.dim)
            cert = shift_identity_check(g, z, zs)
            assert cert.witness("abs_difference") <= 1e-12


def test_criterion_5_domain_projection_equality():
    instances = [
        ("normal cone [0,1]", NormalConeOp(Box([0.0], [1.0])), Grid([-1.0], [3.0], 0.05)),
        (
            "normal cone [0,1]^2",
            NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])),
            Grid([-1.0, -1.0], [2.0, 2.0], 0.05),
        ),
        ("identity", LinearOp(np.eye(2), np.zeros(2)), Grid([-1.0, -1.0], [1.0, 1.0], 0.05)),
        (
            "skew rotation",
            LinearOp([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]),
            Grid([-1.0, -1.0], [1.0, 1.0], 0.05),
        ),
        (
            "subdiff(x^2/2 + box indicator)",
            SubdiffOp(FunSum((Quadratic([[1.0]], [0.0]), BoxIndicator([0.0], [1.0])))),
            Grid([-1.0], [3.0], 0.05),
        ),
    ]
    with criterion(5, "projected fitz domain matches hull within 0.1 on five operators"):
        for label, op, xgrid in instances:
            dist, cert = theorem36_experiment(op, xgrid)
            assert cert.verdict is Verdict.PASS, (label, cert.narrative)
            assert dist <= 2 * xgrid.spacing + 1e-9, label


def test_criterion_6_blowup_quotients():
    cone = NormalConeOp(Box([0.0], [1.0]))
    with criterion(6, "sup quotient crosses 1e8 outside, <=1e-9 inside, ~5 for the identity"):
        est, _ = sup_quotient(Sample.over(cone, Grid([-2.0], [3.0], 0.1)), [2.0])
        assert est >= 1e8
        est, _ = sup_quotient(
            Sample.over(cone, Grid([-2.0], [3.0], 0.1)), [0.5], allow_z_in_domain=True
        )
        assert est <= 1e-9
        ident = LinearOp(np.eye(1), np.zeros(1))
        est, _ = sup_quotient(
            Sample.over(ident, Grid([-20.0], [20.0], 0.1)), [5.0], allow_z_in_domain=True
        )
        assert 4.9 <= est <= 5.1


def test_criterion_7_perturbation_quotient_chain():
    schedule = [1.0, 10.0, 100.0, 1000.0]
    with criterion(7, "every quotient exceeds lambda*alpha^(p-1) - 1e-9 on both instances"):
        cone1 = NormalConeOp(Box([0.0], [1.0]))
        for p in (1.0, 2.0):
            cert = near_convexity_certificate(
                Sample.over(cone1, Grid([-2.0], [3.0], 0.1)), [2.0], p, schedule
            )
            assert cert.verdict is Verdict.PASS, cert.narrative
            alpha = cert.witness("alpha")
            for lam in schedule:
                q = cert.witness(f"quotient_lambda_{lam:g}")
                assert q > lam * alpha ** (p - 1.0) - 1e-9
        cone2 = NormalConeOp(Box([0.0, 0.0], [1.0, 1.0]))
        cert = near_convexity_certificate(
            Sample.over(cone2, Grid([-2.0, -2.0], [3.0, 3.0], 0.25)), [2.0, 2.0], 2.0, schedule
        )
        assert cert.verdict is Verdict.PASS, cert.narrative
        alpha = cert.witness("alpha")
        assert alpha == pytest.approx(np.sqrt(2.0), abs=1e-9)
        for lam in schedule:
            q = cert.witness(f"quotient_lambda_{lam:g}")
            assert q > lam * alpha - 1e-9


def test_criterion_8_witness_sequence():
    schedule = [1, 10, 100]
    cases = [
        (NormalConeOp(Box([0.0], [1.0])), [2.0], Grid([-2.0], [3.0], 0.1)),
        (
            NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])),
            [2.0, 0.5],
            Grid([-2.0, -2.0], [3.0, 3.0], 0.25),
        ),
    ]
    with criterion(8, "products exceed n*delta on both cones; delta equals the separation margin"):
        for op, z, wgrid in cases:
            trace, cert = blowup_witness_sequence(Sample.over(op, wgrid), z, schedule)
            assert cert.verdict is Verdict.PASS, cert.narrative
            g = graph_sample(op, wgrid)
            hull = conv_hull(unique_domain_points(g))
            _, delta_ref = separate(z, hull)
            assert cert.witness("delta") == delta_ref
            for n, val, _ in trace.entries:
                assert val > n * delta_ref - 1e-9


def test_criterion_9_br_suite():
    with criterion(9, "1000 randomized trials pass when the hypothesis activates"):
        rng = np.random.default_rng(SEED + 4)
        pool = []
        for n in (1, 2, 3):
            q = rng.uniform(-1, 1, size=(n, n))
            q = q @ q.T + 0.2 * np.eye(n)
            op = SubdiffOp(Quadratic(q, rng.uniform(-0.5, 0.5, n)))
            wgrid = Grid([-3.0] * n, [3.0] * n, {1: 0.1, 2: 0.25, 3: 0.5}[n])
            pool.append((op, wgrid, Sample.over(op, wgrid)))
        box_op = SubdiffOp(
            FunSum((Quadratic(np.eye(2), np.zeros(2)), BoxIndicator([0.0, 0.0], [1.0, 1.0])))
        )
        box_grid = Grid([-2.0, -2.0], [3.0, 3.0], 0.25)
        pool.append((box_op, box_grid, Sample.over(box_op, box_grid)))
        activated = inactive = 0
        for _ in range(1000):
            op, wgrid, sample = pool[int(rng.integers(len(pool)))]
            n = wgrid.dim
            xp = pair(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
            alpha = float(rng.uniform(0.05, 1.0))
            beta = float(rng.uniform(0.05, 1.0))
            cert = br_check(sample, xp, alpha, beta)
            assert cert.verdict is not Verdict.FAIL, cert.narrative
            if cert.verdict is Verdict.PASS:
                activated += 1
            else:
                inactive += 1
        assert activated > 0
        # the pinned inactive instance: alpha=beta=0.1 against inf=-0.25
        ident = SubdiffOp(Quadratic([[1.0]], [0.0]))
        cert = br_check(Sample.over(ident, Grid([-4.0], [4.0], 0.1)), pair([1.0], [0.0]), 0.1, 0.1)
        assert cert.verdict is Verdict.NOT_APPLICABLE
        assert cert.witness("inf_product") == pytest.approx(-0.25, abs=1e-6)


def test_criterion_10_documented_expected_failure():
    with criterion(10, "non-maximal two-point graph fails with gap 0.25 +/- 1e-12"):
        g = FiniteGraph.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])
        cert = fitz_inequality_check(Sample(GraphOp(g), g), np.array([[0.5]]), np.array([[0.5]]))
        assert cert.verdict is Verdict.FAIL
        assert abs(cert.witness("gap") - 0.25) <= 1e-12


def test_criterion_11_report_determinism():
    with criterion(11, "paper-suite JSON reports byte-identical modulo timing"):
        cfg = load_scenario(SCENARIO_DIR / "paper-suite.json")
        texts = []
        for _ in range(2):
            report = run_suite(cfg)
            payload = json.loads(render_report(report, "json"))
            del payload["timing"]
            texts.append(json.dumps(payload, indent=2, sort_keys=True))
        assert texts[0].encode() == texts[1].encode()
        # and the suite itself is all-pass
        assert report_to_dict(run_suite(cfg))["summary"]["fail"] == 0
