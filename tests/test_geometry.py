import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from refsde.geometry import (
    MAX_ACTIVE_SETS,
    Ball,
    Box,
    HalfLine,
    NormalDirection,
    Polyhedron,
    domain_from_spec,
    sample_points,
)

SQ2 = np.sqrt(0.5)


def quadrant():
    return Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0])


def all_domains():
    return [
        HalfLine(0.0),
        Box(lower=[-1.0, 0.0], upper=[2.0, np.inf]),
        Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0], [SQ2, SQ2]],
                   offsets=[0.0, 0.0, 3.0 * SQ2]),
        Ball(center=[0.5, -0.5], radius=1.5),
    ]


# -- construction and validation ------------------------------------------

def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Box(lower=[0.0, 1.0], upper=[1.0, 1.0])


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball(center=[0.0], radius=0.0)


def test_polyhedron_rejects_non_unit_normals():
    with pytest.raises(ValueError, match="unit"):
        Polyhedron(normals=[[2.0, 0.0]], offsets=[1.0])


def test_polyhedron_rejects_empty_interior():
    # x <= 0 and x >= 1: empty set.
    with pytest.raises(ValueError, match="interior"):
        Polyhedron(normals=[[1.0], [-1.0]], offsets=[0.0, -1.0])
    # x <= 0 and x >= 0: single point, no interior.
    with pytest.raises(ValueError, match="interior"):
        Polyhedron(normals=[[1.0], [-1.0]], offsets=[0.0, 0.0])


def wedge(half_angle):
    """Symmetric wedge ``|y| <= tan(half_angle) x`` with its apex at 0."""
    s, c = np.sin(half_angle), np.cos(half_angle)
    return Polyhedron(normals=[[-s, c], [-s, -c]], offsets=[0.0, 0.0])


@pytest.mark.parametrize("half_angle", [0.01, 0.05, 0.3, 0.5])
def test_polyhedron_accepts_symmetric_wedges(half_angle):
    dom = wedge(half_angle)
    assert np.all(dom.slack(dom.interior_point()) > 0.0)


def test_polyhedron_rejects_too_many_active_sets():
    def polygon(m):
        theta = 2.0 * np.pi * np.arange(m) / m
        return Polyhedron(normals=np.stack([np.cos(theta), np.sin(theta)], 1),
                          offsets=np.ones(m))
    # 44 faces: 44 + C(44, 2) = 990 candidate sets; 45 faces: 1035.
    assert MAX_ACTIVE_SETS == 1024
    polygon(44)
    with pytest.raises(ValueError, match="active sets"):
        polygon(45)


def test_interior_point_is_strictly_inside():
    for dom in all_domains():
        anchor = dom.interior_point()
        assert dom.contains(anchor, 0.0)
        assert dom.boundary_distance(anchor) > 1e-6


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension"):
        quadrant().project(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="dimension"):
        HalfLine(0.0).distance(np.array([1.0, 2.0]))


def test_normal_direction_validates_unit_length():
    with pytest.raises(ValueError):
        NormalDirection(vector=np.array([1.0, 1.0]), anchor=np.zeros(2))


# -- contains --------------------------------------------------------------

def test_contains_examples():
    assert HalfLine(0.0).contains(np.array([0.0]), 0.0)
    assert not Ball(center=[0.0, 0.0], radius=1.0).contains(
        np.array([0.0, 2.0]), 0.0)
    assert quadrant().contains(np.array([-1e-10, 0.0]), 1e-9)


def test_contains_batched():
    dom = Ball(center=[0.0, 0.0], radius=1.0)
    pts = np.array([[0.0, 0.5], [0.0, 2.0], [1.0, 0.0]])
    assert list(dom.contains(pts, 0.0)) == [True, False, True]


# -- project ----------------------------------------------------------------

def test_project_halfline():
    assert HalfLine(0.0).project(np.array([-1.0]))[0] == 0.0


def test_project_ball_radial():
    got = Ball(center=[0.0, 0.0], radius=1.0).project(np.array([2.0, 0.0]))
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-15)


def test_project_quadrant_corner_against_grid_search():
    x = np.array([-1.0, -2.0])
    # Independent oracle: exhaustive search over a fine grid of the
    # quadrant patch [0, 3]^2.
    g = np.linspace(0.0, 3.0, 301)
    cand = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    best = cand[np.argmin(np.linalg.norm(cand - x, axis=1))]
    np.testing.assert_allclose(best, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(quadrant().project(x), [0.0, 0.0], atol=1e-12)


def test_project_inside_points_unchanged():
    for dom in all_domains():
        pts = sample_points(dom, 50, seed=1, interior=True)
        np.testing.assert_array_equal(dom.project(pts), pts)


def test_project_quadrant_is_componentwise_maximum_bitwise():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((9, 400, 2))
    x[0, :3] = [[0.0, -1.0], [-2.0, 0.0], [0.0, 0.0]]
    np.testing.assert_array_equal(quadrant().project(x), np.maximum(x, 0.0))
    for row in x[:, 0]:
        np.testing.assert_array_equal(quadrant().project(row),
                                      np.maximum(row, 0.0))


def test_project_acute_wedge_is_fast_and_variational():
    dom = wedge(0.01)
    x = np.random.default_rng(11).standard_normal((2000, 2))
    start = time.perf_counter()
    px = dom.project(x)
    elapsed = time.perf_counter() - start
    # Milliseconds in practice; the wide margin keeps timing noise out.
    assert elapsed < 1.0
    assert np.min(dom.slack(px)) >= -1e-12
    np.testing.assert_allclose(dom.project(px), px, rtol=0.0, atol=1e-12)
    members = sample_points(dom, 200, seed=12)
    gap = x - px
    assert np.max(members @ gap.T - np.sum(px * gap, axis=-1)) <= 1e-9


# -- dist -------------------------------------------------------------------

def test_dist_examples():
    assert HalfLine(0.0).distance(np.array([-3.0])) == 3.0
    assert Ball(center=[0.0, 0.0], radius=1.0).distance(
        np.array([0.0, 0.0])) == 0.0
    assert quadrant().distance(np.array([-3.0, -4.0])) == pytest.approx(
        5.0, abs=1e-12)


def test_dist_against_componentwise_box_formula():
    dom = Box(lower=[-1.0, 0.0], upper=[2.0, np.inf])
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((2000, 2)) * 3.0
    over = np.maximum(pts - dom.upper, 0.0)   # infinite bound contributes 0
    under = np.maximum(dom.lower - pts, 0.0)
    direct = np.sqrt(np.sum(over ** 2 + under ** 2, axis=-1))
    np.testing.assert_allclose(dom.distance(pts), direct, atol=1e-12)


def test_dist_against_single_halfspace_formula():
    a = np.array([SQ2, SQ2])
    dom = Polyhedron(normals=[a], offsets=[1.0])
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((2000, 2)) * 3.0
    direct = np.maximum(pts @ a - 1.0, 0.0)
    np.testing.assert_allclose(dom.distance(pts), direct, atol=1e-12)


# -- normal_at ---------------------------------------------------------------

def test_normal_halfline():
    n = HalfLine(0.0).normal_at(np.array([-2.0]))
    assert n.vector[0] == 1.0
    assert n.anchor[0] == 0.0


def test_normal_ball():
    n = Ball(center=[0.0, 0.0], radius=1.0).normal_at(np.array([0.0, 3.0]))
    np.testing.assert_allclose(n.vector, [0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(n.anchor, [0.0, 1.0], atol=1e-15)


def test_normal_quadrant_corner_supports_whole_domain():
    n = quadrant().normal_at(np.array([-1.0, -1.0]))
    np.testing.assert_allclose(n.vector, [SQ2, SQ2], atol=1e-12)
    rng = np.random.default_rng(5)
    y = np.abs(rng.standard_normal((10_000, 2))) * 3.0
    inner = (y - n.anchor) @ n.vector
    assert inner.min() >= -1e-12


def test_normal_rejects_interior_point():
    with pytest.raises(ValueError, match="normal"):
        Ball(center=[0.0, 0.0], radius=1.0).normal_at(np.array([0.1, 0.0]))


# -- variational properties ---------------------------------------------------

@pytest.mark.parametrize("dom_index", range(4))
def test_projection_properties(dom_index):
    dom = all_domains()[dom_index]
    rng = np.random.default_rng(100 + dom_index)
    x = rng.standard_normal((10_000, dom.dim)) * 4.0
    y = rng.standard_normal((10_000, dom.dim)) * 4.0
    px, py = dom.project(x), dom.project(y)

    # Idempotence.
    assert np.max(np.linalg.norm(dom.project(px) - px, axis=-1)) <= 1e-10
    # Nonexpansiveness with constant one.
    excess = np.linalg.norm(px - py, axis=-1) - np.linalg.norm(x - y, axis=-1)
    assert np.max(excess) <= 1e-10
    # Variational inequality against sampled members of the domain.
    members = sample_points(dom, 200, seed=dom_index)
    gap = x - px                       # (N, d)
    inner = members @ gap.T - np.sum(px * gap, axis=-1)
    assert np.max(inner) <= 1e-9
    # Distance is the projection gap by construction.
    np.testing.assert_array_equal(dom.distance(x),
                                  np.linalg.norm(gap, axis=-1))


@st.composite
def polyhedra(draw):
    """Random polyhedra in d = 2 and 3 around a known interior point.

    Optionally adds axis-aligned faces, an acute wedge (two faces whose
    normals are nearly opposite) and a redundant face (a copy of another
    face shifted outward). Sets of at most d distinct normals are kept at
    least 0.01 from linear dependence, so the projection's rounding stays
    far below the tolerances checked.
    """
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    normals = list(rng.standard_normal((draw(st.integers(1, 5)), d)))
    if draw(st.booleans()):
        normals += list(np.vstack([np.eye(d), -np.eye(d)])[
            rng.permutation(2 * d)[:draw(st.integers(1, d))]])
    if draw(st.booleans()):
        alpha = draw(st.floats(0.01, 0.3))
        u, v = np.linalg.qr(rng.standard_normal((d, 2)))[0].T
        normals += [-np.sin(alpha) * u + np.cos(alpha) * v,
                    -np.sin(alpha) * u - np.cos(alpha) * v]
    normals = np.array([a / np.linalg.norm(a) for a in normals])
    center = rng.standard_normal(d)
    offsets = normals @ center + rng.uniform(0.05, 2.0, size=len(normals))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(normals) - 1))
        normals = np.vstack([normals, normals[i]])
        offsets = np.append(offsets, offsets[i] + rng.uniform(0.0, 1.0))
    distinct = np.unique(normals, axis=0)
    for k in range(2, min(d, len(distinct)) + 1):
        for rows in itertools.combinations(range(len(distinct)), k):
            sigma = np.linalg.svd(distinct[list(rows)], compute_uv=False)
            assume(sigma[-1] >= 0.01)
    dom = Polyhedron(normals=normals, offsets=offsets)
    x = center + 3.0 * rng.standard_normal((200, d))
    y = center + 3.0 * rng.standard_normal((200, d))
    return dom, x, y


def kkt_projection(normals, offsets, x, tol=1e-9):
    """Reference projection by the KKT conditions, one point at a time.

    Tries every set of at most d faces with linearly independent normals
    and keeps a candidate that is feasible and has nonnegative multipliers
    (both up to ``tol``); all such candidates are the projection.
    """
    m, d = normals.shape
    if np.all(normals @ x <= offsets):
        return x
    for k in range(1, min(m, d) + 1):
        for rows in itertools.combinations(range(m), k):
            a = normals[list(rows)]
            if np.linalg.matrix_rank(a) < k:
                continue
            lam = np.linalg.solve(a @ a.T, a @ x - offsets[list(rows)])
            p = x - a.T @ lam
            if np.all(lam >= -tol) and np.all(normals @ p - offsets <= tol):
                return p
    raise AssertionError("no KKT point found")


@settings(max_examples=60, deadline=None)
@given(polyhedra())
def test_polyhedron_projection_properties_random(case):
    dom, x, y = case
    px, py = dom.project(x), dom.project(y)
    scale = 1.0 + np.max(np.abs(x))
    # Feasibility.
    assert np.min(dom.slack(px)) >= -1e-12 * scale
    # Idempotence.
    assert np.max(np.abs(dom.project(px) - px)) <= 1e-12 * scale
    # Nonexpansiveness.
    excess = np.linalg.norm(px - py, axis=-1) - np.linalg.norm(x - y, axis=-1)
    assert np.max(excess) <= 1e-10
    # Variational inequality against sampled members of the domain.
    members = sample_points(dom, 200, seed=0)
    gap = x - px
    assert np.max(members @ gap.T - np.sum(px * gap, axis=-1)) <= 1e-9 * scale
    # Agreement with the KKT reference.
    for i in range(20):
        ref = kkt_projection(dom.normals, dom.offsets, x[i])
        np.testing.assert_allclose(px[i], ref, rtol=0.0, atol=1e-9 * scale)
    # Rows do not depend on their batch.
    for i in range(0, 200, 37):
        np.testing.assert_array_equal(dom.project(x[i]), px[i])
    np.testing.assert_array_equal(dom.project(x[:7]), px[:7])
    np.testing.assert_array_equal(dom.project(x.reshape(10, 20, -1)),
                                  px.reshape(10, 20, -1))


def test_sample_points_inside():
    for dom in all_domains():
        pts = sample_points(dom, 500, seed=8)
        assert np.all(dom.contains(pts, 1e-9))
        inner = sample_points(dom, 500, seed=9, interior=True)
        assert np.all(dom.contains(inner, 1e-9))


def test_sample_points_reach_the_wedge_apex():
    # The interior anchor of the 0.01-rad wedge lies 50 units from its
    # apex, so a cloud centred there never probes the apex.
    dom = wedge(0.01)
    members = sample_points(dom, 2000, seed=3)
    assert np.min(dom.slack(members)) >= -1e-12
    assert np.min(np.linalg.norm(members, axis=-1)) <= 1.0


# -- config construction -------------------------------------------------------

def test_domain_from_spec_roundtrip():
    dom = domain_from_spec({"type": "ball", "center": [0.0, 1.0],
                            "radius": 2.0})
    assert isinstance(dom, Ball) and dom.radius == 2.0
    with pytest.raises(ValueError, match="unknown keys"):
        domain_from_spec({"type": "halfline", "lower": 0.0, "slope": 1})
    with pytest.raises(ValueError, match="missing"):
        domain_from_spec({"type": "box", "lower": [0.0]})
    with pytest.raises(ValueError, match="unknown domain type"):
        domain_from_spec({"type": "simplex"})
