import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fitzkit.errors import DimensionMismatchError, NotSeparableError, ValidationError
from fitzkit.operators import NormalConeOp, resolvent
from fitzkit.vecspace import (
    Box,
    DEFAULT_TOL,
    Grid,
    Polytope,
    ToleranceConfig,
    _affine_basis,
    as_vector,
    conv_hull,
    dedupe_rows_within,
    dist_to_polytope,
    dot,
    hausdorff,
    lexsort_rows,
    project_onto_generated_set,
    separate,
)

RNG_SEED = 20260809


def coords(n, lo=-3.0, hi=3.0):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)


# --------------------------------------------------------------------------
# dot
# --------------------------------------------------------------------------

def test_dot_hand_values():
    assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert dot([2.0], [1.0]) == 2.0
    # hand sum: 3 + 4 + 3
    assert dot([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 10.0


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot([1.0, 2.0], [1.0])


@settings(max_examples=200, deadline=None)
@given(coords(3), coords(3), coords(3), st.floats(-2, 2, allow_nan=False))
def test_dot_symmetric_bilinear(x, y, z, a):
    x, y, z = map(np.array, (x, y, z))
    assert dot(x, y) == pytest.approx(dot(y, x), abs=1e-9)
    assert dot(a * x + y, z) == pytest.approx(a * dot(x, z) + dot(y, z), abs=1e-9)


# --------------------------------------------------------------------------
# projection / distance: oracles
# --------------------------------------------------------------------------

def brute_force_distance(z, vertices, samples=200_000, seed=RNG_SEED):
    """Dense Dirichlet sampling of the hull: an independent projection oracle."""
    rng = np.random.default_rng(seed)
    v = np.atleast_2d(vertices)
    w = rng.dirichlet(np.ones(len(v)), size=samples)
    pts = w @ v
    d = np.linalg.norm(pts - np.asarray(z), axis=1)
    return float(d.min())


def test_dist_worked_examples():
    seg = conv_hull([[0.0], [1.0]])
    d, proj = dist_to_polytope([2.0], seg)
    assert d == pytest.approx(1.0, abs=1e-12)
    assert proj == pytest.approx([1.0], abs=1e-12)

    d, proj = dist_to_polytope([0.5], seg)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert proj == pytest.approx([0.5], abs=1e-12)

    square = Box([0.0, 0.0], [1.0, 1.0]).to_polytope()
    d, proj = dist_to_polytope([2.0, 2.0], square)
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert proj == pytest.approx([1.0, 1.0], abs=1e-12)


def test_dist_zero_iff_member():
    square = Box([0.0, 0.0], [1.0, 1.0]).to_polytope()
    inside = [0.3, 0.9]
    outside = [1.2, 0.5]
    d_in, _ = dist_to_polytope(inside, square)
    d_out, _ = dist_to_polytope(outside, square)
    assert d_in <= 1e-9
    assert d_out == pytest.approx(0.2, abs=1e-12)


def test_dist_against_dense_sampling_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 3):
        for _ in range(5):
            verts = rng.uniform(-1, 1, size=(6, n))
            z = rng.uniform(-2, 2, size=n)
            p = conv_hull(verts)
            d, proj = dist_to_polytope(z, p)
            d_bf = brute_force_distance(z, verts)
            # sampling can only overestimate the true distance
            assert d <= d_bf + 1e-6
            assert d >= d_bf - 0.15 * max(d_bf, 0.05)
            # projection lies in the hull and achieves the distance
            assert p.contains(proj, 1e-8)
            assert np.linalg.norm(z - proj) == pytest.approx(d, abs=1e-12)


def test_dist_against_cvxpy_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(RNG_SEED + 1)
    for n in (2, 3, 4):
        verts = rng.uniform(-1, 1, size=(8, n))
        z = rng.uniform(-2, 2, size=n)
        w = cvxpy.Variable(len(verts), nonneg=True)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum_squares(verts.T @ w - z)), [cvxpy.sum(w) == 1]
        )
        prob.solve()
        d_ref = float(np.sqrt(max(prob.value, 0.0)))
        d, _ = dist_to_polytope(z, conv_hull(verts))
        assert d == pytest.approx(d_ref, abs=1e-5)


def test_dist_against_face_enumeration():
    # the cvxpy oracle's sibling that runs without cvxpy: Wolfe's nearest-point
    # method (dist_to_polytope) against the facet table (Polytope.project_batch)
    rng = np.random.default_rng(RNG_SEED + 11)
    for n in (2, 3, 4):
        for _ in range(30):
            hull = conv_hull(rng.uniform(-1, 1, size=(8, n)))
            Z = rng.uniform(-2, 2, size=(1, n))
            d, proj = dist_to_polytope(Z[0], hull)
            ref = hull.project_batch(Z)[0]
            assert np.abs(proj - ref).max() <= 1e-12
            assert d == pytest.approx(np.linalg.norm(Z[0] - ref), abs=1e-12)


def test_dist_against_nnls_oracle_on_far_simplex_rows():
    # the simplex constraint as a heavily weighted row: nnls solves
    # [V^T; M 1^T] u ~ [w; M] with u >= 0. Each far row projects into the
    # relative interior of an axis face, where that row is not in tension
    # with the rest, so the weight costs the oracle no accuracy; on a face
    # off the axes nnls's own active-set tolerance fails at |w| ~ 1e8
    from scipy.optimize import nnls

    big = 1e8
    rows = {
        2: [[0.5, -big], [-1.002 * big, 0.75], [0.25, 0.25]],
        3: [[0.2, 0.3, -big], [-big, 0.4, 0.35], [0.1, -big, -big]],
    }
    for n, ws in rows.items():
        verts = np.vstack([np.zeros(n), np.eye(n)])
        simplex = Polytope(verts)
        W = np.array(ws)
        kernel = simplex.project_batch(W)
        for w, x in zip(W, kernel):
            u, _ = nnls(np.vstack([verts.T, big * np.ones(len(verts))]), np.r_[w, big])
            ref = u @ verts
            tol = 1e-12 * max(1.0, np.abs(w).max())
            assert np.abs(x - ref).max() <= tol
            assert np.abs(project_onto_generated_set(verts, None, w)[0] - ref).max() <= tol


PROJECTION_CASES = {
    "point": [[0.5, -1.5, 2.0]],
    "segment2": [[0.0, 0.0], [1.0, 2.0]],
    "segment3": [[1.0, 0.0, -1.0], [0.0, 2.0, 1.0]],
    "triangle3": [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 1.0]],
    # the apex lies on 4 facets
    "pyramid": [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "tri_cone": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
}


@st.composite
def polytope_with_rows(draw):
    """A polytope, base points W and {row: vertex} for rows that project onto
    a vertex. W holds the vertices, points on segments between vertices,
    inside and near the polytope, far out to |w| ~ 1e8, and v + t*c for the
    vertex v that maximises <c, .> by a margin, which projects onto v."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cloud2", "cloud3", *PROJECTION_CASES]))
    if kind.startswith("cloud"):
        verts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 9)), int(kind[-1])))
    else:
        verts = np.array(PROJECTION_CASES[kind])
    p = Polytope(verts)
    V = p.vertices
    k, n = V.shape
    pick = lambda m: V[rng.integers(0, k, m)]
    t = rng.uniform(0.0, 1.0, (6, 1))
    bary = rng.dirichlet(np.ones(k), 4)
    far = 10.0 ** rng.uniform(2.0, 8.0, (6, 1)) * rng.normal(size=(6, n))
    rows = [*V, *(t * pick(6) + (1 - t) * pick(6)), *(bary @ V), *(bary @ V + rng.normal(size=(4, n))), *(far + pick(6))]
    at_vertex = {i: i for i in range(k)}
    for scale in (1e-3, 1.0, 1e4, 1.002e8):
        c = rng.normal(size=n)
        heights = V @ c
        top = int(np.argmax(heights))
        if k == 1 or np.sort(heights)[-2] < heights[top] - 1e-3 * np.linalg.norm(c):
            at_vertex[len(rows)] = top
            rows.append(V[top] + scale * c)
    return p, np.array(rows), at_vertex


@settings(max_examples=30, deadline=None)
@given(polytope_with_rows())
def test_polytope_projection_batch_matches_active_set_loop(case):
    p, W, at_vertex = case
    X = p.project_batch(W)
    for w, x in zip(W, X):
        ref, _ = project_onto_generated_set(p.vertices, None, w)
        assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(w).max())
        assert x.tobytes() == resolvent(NormalConeOp(p), w).tobytes()
    for i, j in at_vertex.items():
        assert X[i].tobytes() == p.vertices[j].tobytes()


def test_polytope_projection_batch_worked_examples():
    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    W = np.array([[0.2, 0.3], [2.0, -1.0], [1.0, 1.0], [-1.0, 0.5], [1.002e8 - 1.0, 1.002e8]])
    X = tri.project_batch(W)
    assert X == pytest.approx(np.array([[0.2, 0.3], [1.0, 0.0], [0.5, 0.5], [0.0, 0.5], [0.0, 1.0]]), abs=1e-15)
    # vertex rows are the vertex itself, however far their base point
    assert X[1].tolist() == [1.0, 0.0] and X[4].tolist() == [0.0, 1.0]
    assert Polytope([[2.0, 3.0]]).project_batch([[0.0, 0.0], [5.0, 5.0]]).tolist() == [[2.0, 3.0]] * 2
    seg = Polytope([[0.0, 0.0], [2.0, 2.0]])
    assert seg.project_batch([[3.0, 3.0], [-1.0, 0.0], [2.0, 0.0]]).tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    # this row projects onto an edge 3e-4 from its end vertex: the computed
    # point is off the edge by rounding, which the normal-cone slack must cover
    poly = Polytope([
        [-0.8735816351405075, -0.5434536311131846], [-0.8321206017156983, 0.09513261456302224],
        [-0.7718306185774226, 0.24701136710309402], [0.09112654063400494, -0.8118593624390786],
        [0.25319706171556744, 0.7366506922307812], [0.46227540599181394, -0.8504208796869386],
        [0.7046326226473028, -0.2409956149944903], [0.9518194931941404, 0.83415941161218],
    ])
    w = np.array([-0.07750430104397663, 1.4282333251041863])
    x = poly.project_batch(w[None])[0]
    assert np.abs(x - project_onto_generated_set(poly.vertices, None, w)[0]).max() <= 1e-15


def test_polytope_projection_batch_has_no_fallback_for_an_unresolved_row(monkeypatch):
    # a negative slack rejects every face a row off the vertices could take
    from fitzkit import vecspace

    monkeypatch.setattr(vecspace, "_FACE_SLACK", -1.0)
    with pytest.raises(ValidationError, match="unresolved"):
        Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).project_batch([[0.2, 0.3]])


@st.composite
def polytope_with_law_rows(draw):
    """A polytope in R^1..R^4 (a random cloud, a cloud on a flat, a point, a
    segment in R^3 or a triangle in R^3) and rows at its vertices, at the
    midpoints of vertex pairs and facets, near it and out to |x| ~ 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cloud", "flat", "point", "segment3", "triangle3"]))
    if kind in PROJECTION_CASES:
        verts = np.array(PROJECTION_CASES[kind])
    else:
        n = draw(st.integers(1, 4) if kind == "cloud" else st.integers(2, 4))
        verts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 12)), n))
        if kind == "flat":
            verts[:, -1] = verts[:, :-1] @ rng.normal(size=n - 1)
    p = Polytope(verts)
    V, incident = p.vertices, p._facets[-1]
    k, n = V.shape
    pick = lambda m: V[rng.integers(0, k, m)]
    facets = [V[incident[:, j]].mean(axis=0) for j in range(incident.shape[1])]
    far = 10.0 ** rng.uniform(0.0, 8.0, (6, 1)) * rng.normal(size=(6, n))
    rows = np.vstack([V, (pick(6) + pick(6)) / 2.0, *facets, pick(4) + 1e-9 * rng.normal(size=(4, n)), far + pick(6)])
    return p, rows[rng.permutation(len(rows))]


@settings(max_examples=60, deadline=None)
@given(polytope_with_law_rows())
def test_polytope_kernels_give_each_row_its_one_row_result(case):
    p, W = case
    for kernel in (p.project_batch, lambda X: p.contains_batch(X, 1e-9)):
        alone = np.concatenate([kernel(w[None, :]) for w in W])
        assert kernel(W).tobytes() == alone.tobytes()


def test_projection_with_rays():
    # cone([1,0]) shifted to the point (0,0) plus segment to (0,1)
    points = np.array([[0.0, 0.0], [0.0, 1.0]])
    rays = np.array([[1.0, 0.0]])
    y, d = project_onto_generated_set(points, rays, [2.0, 2.0])
    assert y == pytest.approx([2.0, 1.0], abs=1e-9)
    assert d == pytest.approx(1.0, abs=1e-9)
    # inside the generated set
    y, d = project_onto_generated_set(points, rays, [5.0, 0.5])
    assert d <= 1e-9


# --------------------------------------------------------------------------
# convex hull
# --------------------------------------------------------------------------

def test_hull_worked_examples():
    p = conv_hull([[0.0], [1.0], [0.5]])
    assert p.vertices.tolist() == [[0.0], [1.0]]

    p = conv_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
    assert p.vertices.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    p = conv_hull([[3.0]])
    assert p.vertices.tolist() == [[3.0]]


def test_hull_minimality():
    rng = np.random.default_rng(RNG_SEED)
    pts = rng.uniform(-1, 1, size=(12, 2))
    hull = conv_hull(pts)
    verts = hull.vertices
    for i in range(len(verts)):
        others = np.delete(verts, i, axis=0)
        _, d = project_onto_generated_set(others, None, verts[i])
        assert d > 1e-9


def test_hull_idempotent():
    rng = np.random.default_rng(RNG_SEED + 2)
    for n in (1, 2, 3):
        pts = rng.uniform(-1, 1, size=(9, n))
        h1 = conv_hull(pts)
        h2 = conv_hull(h1.vertices)
        assert np.array_equal(h1.vertices, h2.vertices)


def test_hull_at_large_coordinates():
    # the active-set vertex prune that preceded Qhull's vertex list raised
    # "cannot drop last vertex" here; (-5618.5, -1789.7) is 6.0 inside an edge
    pts = [[-7319.0, -7407.5], [-5618.5, -1789.7], [2760.3, -9561.2], [-3633.8, 4811.9], [7728.4, -4412.7]]
    p = conv_hull(pts)
    assert p.vertices.tolist() == [[-7319.0, -7407.5], [-3633.8, 4811.9], [2760.3, -9561.2], [7728.4, -4412.7]]
    assert p.contains_batch(pts, 1e-9 * 1e4).all() and p.contains(pts[1], 0.0)
    # 1 outside and 1 inside the midpoint of the edge that point faces
    assert not p.contains([-5476.4 - 0.957, -1297.8 + 0.289], 0.0)
    assert p.contains([-5476.4 + 0.957, -1297.8 - 0.289], 0.0)


@st.composite
def clouds(draw):
    """k points in R^1..R^4 at a scale of 1 to 1e8: uniform, on a lattice, or
    on a random affine flat of lower dimension; with the containment slack
    1e-9 * max(1, |pts|_inf)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.integers(0, 8))
    pts = rng.uniform(-1.0, 1.0, size=(k, n))
    if draw(st.booleans()):
        pts = np.round(2.0 * pts) / 2.0
    flat = draw(st.integers(0, n - 1))
    if flat:
        pts[:, n - flat:] = pts[:, : n - flat] @ rng.normal(size=(n - flat, flat)) + rng.normal(size=flat)
    return scale * pts, 1e-9 * max(1.0, scale * np.abs(pts).max())


@settings(max_examples=300, deadline=None)
@given(clouds())
# two points 5e-9 apart at 1e4: the basis reads them as one point, flat along
# e_1 up to 1e-12 * 1e4, and contains_batch at eq_tol holds both
@example((np.array([[1e4, 0.0], [1e4 + 5e-9, 0.0]]), DEFAULT_TOL.eq_tol))
def test_hull_builds_and_holds_its_points_at_every_scale(case):
    pts, tol = case
    assert conv_hull(pts).contains_batch(pts, tol).all()


def test_hull_vertex_rule_on_nearly_degenerate_clouds():
    tri = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    # on an edge, 2.5e-10 inside one, or inside: not a vertex
    for q in ([0.5, 0.0], [0.5, 0.5], [0.5, 2.5e-10], [0.25, 0.25]):
        assert conv_hull(tri + [q]).vertices.tolist() == tri
    # 5e-10 outside an edge: a vertex of Qhull's list (the prune that preceded
    # it dropped any point within eq_tol of the hull of the others)
    assert conv_hull(tri + [[0.5, -5e-10]]).vertices.tolist() == [tri[0], tri[1], [0.5, -5e-10], tri[2]]
    # collinear points in R^3: the two ends
    line = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0]]
    assert conv_hull(line).vertices.tolist() == [line[0], line[2]]
    # a point in a facet of a tetrahedron, or on an edge: not a vertex; 5e-10 outside the facet: a vertex
    tet = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    for q in ([0.25, 0.25, 0.0], [0.5, 0.0, 0.5]):
        assert conv_hull(tet + [q]).vertices.tolist() == tet
    assert [0.25, 0.25, -5e-10] in conv_hull(tet + [[0.25, 0.25, -5e-10]]).vertices.tolist()


def test_thin_svd_is_the_full_svd_bit_for_bit():
    # _affine_basis takes the thin SVD when k >= n: s and vt must be those of
    # the full SVD, whose k x k U it skips, for full-rank, rank-deficient and
    # lattice inputs (a 2601-node grid: U holds 54 MB)
    rng = np.random.default_rng(RNG_SEED + 7)
    cases = [Grid([-2.0, -2.0], [3.0, 3.0], 0.1).nodes()]
    for t in range(60):
        n = 1 + t % 4
        pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(n, 400)), n))
        if t % 3 == 1:
            pts[:, -1] = 2.0 * pts[:, 0]
        if t % 3 == 2:
            pts = np.round(4.0 * pts) / 4.0
        cases.append(pts)
    for pts in cases:
        centered = pts - pts.mean(axis=0)
        _, s_full, vt_full = np.linalg.svd(centered, full_matrices=True)
        _, s_thin, vt_thin = np.linalg.svd(centered, full_matrices=False)
        assert s_thin.tobytes() == s_full.tobytes()
        assert vt_thin.tobytes() == vt_full.tobytes()


def test_affine_basis_of_fewer_points_than_dimensions_keeps_the_complement():
    center, basis, comp = _affine_basis(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), 1e-9)
    assert basis.shape == (3, 1) and comp.shape == (3, 2)
    assert np.allclose(np.hstack([basis, comp]).T @ np.hstack([basis, comp]), np.eye(3))


def test_hull_empty_rejected():
    with pytest.raises(ValidationError):
        conv_hull([])


@pytest.mark.parametrize("points, error", [
    ([[0.0, 0.0], [1.0, 0.0, 0.0]], DimensionMismatchError),
    ([np.zeros(2), np.ones(3)], DimensionMismatchError),
    ([[0.0, 0.0], [float("nan"), 1.0]], ValidationError),
    ([[0.0, 0.0], [1.0, float("inf")]], ValidationError),
    ([], ValidationError),
    (np.zeros((0, 2)), ValidationError),
], ids=["mixed-widths", "mixed-width-arrays", "nan", "inf", "empty-list", "empty-array"])
def test_hull_rejects_bad_points(points, error):
    with pytest.raises(error):
        conv_hull(points)


# --------------------------------------------------------------------------
# hausdorff
# --------------------------------------------------------------------------

def test_hausdorff_worked_examples():
    assert hausdorff([[0.0], [1.0]], [[0.0], [1.0]]) == 0.0
    assert hausdorff([[0.0]], [[3.0]]) == 3.0
    assert hausdorff([[0.0], [1.0]], [[0.0], [1.0], [1.5]]) == pytest.approx(0.5)


def dense_hausdorff(a, b):
    """The full distance table that preceded the KD-tree search."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def test_hausdorff_is_the_full_distance_table():
    rng = np.random.default_rng(RNG_SEED)
    sq = Grid([-1.0, -1.0], [1.0, 1.0], 0.1).nodes()
    cube = Grid([0.0] * 3, [1.0] * 3, 0.125).nodes()
    cases = [
        (sq, sq),
        (sq, sq[::7] + 0.05),  # four nearest neighbours tie for most points
        (sq[rng.permutation(len(sq))[:40]], sq),
        (cube, cube[::5] + rng.uniform(-0.1, 0.1, size=(len(cube[::5]), 3))),
        (rng.uniform(-3.0, 3.0, size=(60, 4)), rng.uniform(-3.0, 3.0, size=(35, 4))),
        (np.array([[0.0], [1.0]]), np.array([[0.5], [2.5], [-0.25]])),
    ]
    for a, b in cases:
        assert hausdorff(a, b) == dense_hausdorff(a, b)
        assert hausdorff(b, a) == dense_hausdorff(b, a)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coords(2), min_size=1, max_size=5),
    st.lists(coords(2), min_size=1, max_size=5),
    st.lists(coords(2), min_size=1, max_size=5),
)
def test_hausdorff_pseudometric(a, b, c):
    a, b, c = np.array(a), np.array(b), np.array(c)
    dab, dba = hausdorff(a, b), hausdorff(b, a)
    assert dab == pytest.approx(dba, abs=1e-12)
    assert hausdorff(a, c) <= dab + hausdorff(b, c) + 1e-9


# --------------------------------------------------------------------------
# separation
# --------------------------------------------------------------------------

def test_separate_worked_examples():
    seg = conv_hull([[0.0], [1.0]])
    y0, delta = separate([2.0], seg)
    assert y0 == pytest.approx([1.0], abs=1e-12)
    assert delta == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(NotSeparableError):
        separate([0.5], seg)

    square = Box([0.0, 0.0], [1.0, 1.0]).to_polytope()
    y0, delta = separate([2.0, 0.5], square)
    assert y0 == pytest.approx([1.0, 0.0], abs=1e-12)
    assert delta == pytest.approx(0.5, abs=1e-12)


def test_separate_strict_on_vertices():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(20):
        verts = rng.uniform(-1, 1, size=(5, 3))
        z = rng.uniform(1.5, 3.0, size=3)
        p = conv_hull(verts)
        y0, delta = separate(z, p)
        assert np.linalg.norm(y0) == pytest.approx(1.0, abs=1e-9)
        assert np.all((z - p.vertices) @ y0 > delta)


# --------------------------------------------------------------------------
# tolerances, grids, polytope membership
# --------------------------------------------------------------------------

def test_tolerance_validation():
    with pytest.raises(ValidationError):
        ToleranceConfig(eq_tol=-1.0)
    with pytest.raises(ValidationError):
        ToleranceConfig(eq_tol=1.0, inf_threshold=10.0)
    cfg = ToleranceConfig()
    assert cfg.eq_tol == 1e-9 and cfg.inf_threshold == 1e8
    assert cfg.rank_tol == 1e-8 and cfg.budget == 100_000


@pytest.mark.parametrize("field", ["eq_tol", "inf_threshold", "rank_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        ToleranceConfig(**{field: value})


@pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
def test_grid_spacing_must_be_finite(spacing):
    with pytest.raises(ValidationError, match="spacing must be finite"):
        Grid([0.0], [1.0], spacing)


def test_grid_nodes_and_cap():
    g = Grid([0.0], [1.0], 0.25)
    assert g.nodes().tolist() == [[0.0], [0.25], [0.5], [0.75], [1.0]]
    g2 = Grid([0.0, 0.0], [1.0, 1.0], 0.5)
    nodes = g2.nodes()
    assert nodes.shape == (9, 2)
    # lexicographic: first axis primary
    assert nodes[0].tolist() == [0.0, 0.0]
    assert nodes[1].tolist() == [0.0, 0.5]
    with pytest.raises(ValidationError):
        Grid([0.0, 0.0], [1.0, 1.0], 1e-4, cap=1000)
    with pytest.raises(ValidationError):
        Grid([1.0], [0.0], 0.1)
    # 1001^7 and 101^10 nodes: an int64 product of the axis lengths wraps negative
    for lo, hi, h in (([0.0] * 7, [1.0] * 7, 1e-3), ([0.0] * 10, [1.0] * 10, 0.01)):
        with pytest.raises(ValidationError, match="cap"):
            Grid(lo, hi, h)


def test_grid_names_an_oversize_count_compactly():
    with pytest.raises(ValidationError, match=r"^grid has 2.00e\+300 nodes, exceeding cap 100000$"):
        Grid([-1.0], [1.0], 1e-300)
    # (2e300)^15 nodes: str() of the count would pass Python's 4300-digit limit
    with pytest.raises(ValidationError, match=r"^grid has 10\^4504.5 nodes, exceeding cap 100000$"):
        Grid(-np.ones(15), np.ones(15), 1e-300)


def test_grid_axes_are_the_coordinates_of_its_nodes():
    g = Grid([-2.0, 0.1, 5.0], [3.0, 0.7, 5.5], 0.3)
    axes = g.axes()
    assert [len(a) for a in axes] == [17, 3, 2]
    nodes = g.nodes()
    assert len(nodes) == g.count == 17 * 3 * 2
    for i, a in enumerate(axes):
        assert np.unique(nodes[:, i]).tobytes() == a.tobytes()


def test_polytope_contains_batch_degenerate():
    seg = conv_hull([[0.0, 0.0], [1.0, 1.0]])
    xs = np.array([[0.5, 0.5], [0.5, 0.6], [2.0, 2.0]])
    mask = seg.contains_batch(xs, 1e-9)
    assert mask.tolist() == [True, False, False]


def test_vector_validation():
    with pytest.raises(ValidationError):
        as_vector([np.nan])
    with pytest.raises(ValidationError):
        as_vector([[1.0, 2.0]])


def test_projection_with_rays_against_cvxpy():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(RNG_SEED + 7)
    for n in (2, 3, 4):
        for _ in range(8):
            pts = rng.uniform(-1, 1, size=(5, n))
            rays = rng.uniform(-1, 1, size=(3, n))
            v = rng.uniform(-3, 3, size=n)
            y, d = project_onto_generated_set(pts, rays, v)
            w = cvxpy.Variable(5, nonneg=True)
            t = cvxpy.Variable(3, nonneg=True)
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.sum_squares(pts.T @ w + rays.T @ t - v)),
                [cvxpy.sum(w) == 1],
            )
            prob.solve()
            d_ref = float(np.sqrt(max(prob.value, 0.0)))
            assert d == pytest.approx(d_ref, abs=2e-5)
            # independent KKT check: the residual cannot improve along any
            # generator direction
            r = v - y
            assert np.all(rays @ r <= 1e-7)
            level = float((pts @ r).max())
            active = pts @ r >= level - 1e-9
            assert np.any(active)


def test_projection_with_rays_against_slsqp():
    # the cvxpy oracle's sibling that runs without cvxpy: the same program,
    # min |P'w + R't - v|^2 over w >= 0 summing to 1 and t >= 0, by SLSQP
    from scipy.optimize import minimize

    rng = np.random.default_rng(RNG_SEED + 12)
    for n in (2, 3, 4):
        for _ in range(10):
            pts = rng.uniform(-1, 1, size=(5, n))
            rays = rng.uniform(-1, 1, size=(3, n))
            v = rng.uniform(-3, 3, size=n)
            y, d = project_onto_generated_set(pts, rays, v)
            gen = np.vstack([pts, rays])
            res = minimize(
                lambda u: float(np.sum((u @ gen - v) ** 2)), np.r_[np.full(5, 0.2), np.zeros(3)],
                jac=lambda u: 2.0 * gen @ (u @ gen - v), method="SLSQP", bounds=[(0, None)] * 8,
                constraints=[{"type": "eq", "fun": lambda u: u[:5].sum() - 1.0}],
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert res.success
            d_ref = float(np.linalg.norm(res.x @ gen - v))
            assert d == pytest.approx(d_ref, abs=1e-6)
            assert np.linalg.norm(y - v) == pytest.approx(d, abs=1e-12)


# --------------------------------------------------------------------------
# tolerance dedupe: the windowed loop it replaced is the reference
# --------------------------------------------------------------------------

def windowed_dedupe_reference(rows, tol):
    """Lex-sort rows and drop any within tol of an earlier kept row, comparing
    each row against the kept rows whose first coordinates lie within tol."""
    rows = np.atleast_2d(rows)
    srt = rows[lexsort_rows(rows)]
    col0 = srt[:, 0]
    kept_idx = []
    for i in range(len(srt)):
        lo = int(np.searchsorted(col0, col0[i] - tol, side="left"))
        cand = kept_idx[bisect.bisect_left(kept_idx, lo):]
        if cand and np.any(np.linalg.norm(srt[cand] - srt[i], axis=1) <= tol):
            continue
        kept_idx.append(i)
    return srt[np.array(kept_idx)]


@st.composite
def rows_with_near_duplicates(draw):
    """Rows with planted exact repeats, copies offset along one axis by tol
    and its neighbouring floats, and clusters of points within ~tol."""
    n = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.25]))
    coord = st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([0.0, 1.0, -2.5]))
    base = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=12))
    rows = [np.array(r) for r in base]
    edge = (np.nextafter(tol, 0.0), tol, np.nextafter(tol, np.inf))
    for r in list(rows):
        for kind in draw(st.lists(st.sampled_from(["repeat", "edge", "cluster"]), max_size=4)):
            if kind == "repeat":
                rows.append(r.copy())
            elif kind == "edge":
                axis = draw(st.integers(0, n - 1))
                step = draw(st.sampled_from(edge)) * draw(st.sampled_from([1.0, -1.0]))
                rows.append(r + step * np.eye(n)[axis])
            else:
                u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
                rows.append(r + tol * u)
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows)[list(order)], tol


@settings(max_examples=200, deadline=None)
@given(rows_with_near_duplicates())
def test_dedupe_matches_windowed_reference(case):
    rows, tol = case
    got = dedupe_rows_within(rows, tol)
    assert np.array_equal(got, windowed_dedupe_reference(rows, tol))


def test_dedupe_worked_examples():
    rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5e-9, 0.0], [2e-9, 0.0]])
    assert dedupe_rows_within(rows, 1e-9).tolist() == [[0.0, 0.0], [2e-9, 0.0], [1.0, 0.0]]
    # greedy in sorted order: b is dropped for a, so c (within tol of b only) stays
    chain = np.array([[0.0], [0.8], [1.6]])
    assert dedupe_rows_within(chain, 1.0).tolist() == [[0.0], [1.6]]
    # a grid collapsed onto few points keeps one row per point
    collapsed = np.repeat(np.array([[0.0, 1.0], [1.0, 0.0]]), 500, axis=0)
    assert dedupe_rows_within(collapsed, 1e-9).tolist() == [[0.0, 1.0], [1.0, 0.0]]
