import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracle import ball_boundary_distance, ball_project

from refsde import geometry
from refsde.geometry import (
    MAX_ACTIVE_SETS,
    Ball,
    Box,
    HalfLine,
    Polyhedron,
    domain_from_spec,
    row_norm,
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


def test_rejection_counts_only_faces_on_coupled_coordinates():
    # A 45-gon on coordinates 1 and 2 next to coordinate 0 clipped to
    # [-1, 1]: 47 faces in dimension 3, of which 45 stay faces.
    theta = 2.0 * np.pi * np.arange(45) / 45
    gon = np.stack([np.zeros(45), np.cos(theta), np.sin(theta)], 1)
    with pytest.raises(ValueError, match="45 faces on 2 coupled coordinates "
                       "has 1035 candidate active sets"):
        Polyhedron(normals=np.vstack([gon, [[1.0, 0.0, 0.0],
                                            [-1.0, 0.0, 0.0]]]),
                   offsets=np.ones(47))


def test_box_polyhedron_in_six_dimensions_matches_box():
    # 12 coordinate faces on free coordinates: clipped, so none of the
    # sum_{k<=6} C(12, k) = 2,509 candidate active sets is enumerated.
    lower = np.array([-1.0, 0.0, -2.5, 0.3, -0.7, 1.0])
    upper = lower + np.array([2.0, 0.5, 1.0, 3.0, 0.2, 4.0])
    eye = np.eye(6)
    dom = Polyhedron(normals=np.vstack([eye, -eye]),
                     offsets=np.concatenate([upper, -lower]))
    assert dom._active_sets == []
    box = Box(lower=lower, upper=upper)
    x = 3.0 * np.random.default_rng(13).standard_normal((500, 6))
    x[0], x[1] = lower, upper
    assert dom.project(x).tobytes() == box.project(x).tobytes()
    assert dom.project(x[7]).tobytes() == box.project(x[7]).tobytes()
    assert np.all(dom.slack(dom.interior_point()) > 0.0)


def test_quadrant_enumerates_no_active_sets(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("the quadrant needs no linear algebra")
    for name in ("matrix_rank", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    dom = quadrant()
    assert dom._active_sets == [] and dom._faces == []
    np.testing.assert_array_equal(dom.interior_point(), [0.5, 0.5])
    # Feasible rows come back bitwise, a -0.0 on the bound included.
    x = np.array([[-0.0, 1.0], [-1.0, -0.0], [2.0, -3.0]])
    assert dom.project(x).tobytes() == np.array(
        [[-0.0, 1.0], [0.0, -0.0], [2.0, 0.0]]).tobytes()


def test_coordinate_faces_on_coupled_coordinates_stay_faces():
    # Coordinate 0 carries only coordinate faces (one of them redundant),
    # so it is clipped to [0, 2]; the diagonal face couples coordinates 1
    # and 2, so their coordinate faces stay faces.
    dom = Polyhedron(normals=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                              [0.0, 0.0, -1.0], [0.0, SQ2, SQ2],
                              [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                     offsets=[0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    assert dom._runs == [(slice(0, 1), 0.0, 2.0)]
    assert dom._faces == [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
                          [0.0, SQ2, SQ2]]
    assert len(dom._active_sets) == 6  # 3 single faces and 3 pairs
    px = dom.project(np.array([3.0, 2.0, 2.0]))
    np.testing.assert_allclose(px, [2.0, SQ2, SQ2], atol=1e-15)
    triangle = all_domains()[2]
    assert triangle._runs == [] and len(triangle._faces) == 3


def signed_runs(runs):
    """``runs`` with each bound as its hex string, so that zeros keep their
    sign in a comparison."""
    return [(cols, lo.hex(), hi.hex()) for cols, lo, hi in runs]


@pytest.mark.parametrize("runs, expected", [
    # Half-line: one bounded coordinate, so one run over all of them.
    (HalfLine(0.0)._runs, [(Ellipsis, 0.0, np.inf)]),
    # Quadrant: equal bounds on adjacent coordinates merge into one run.
    (quadrant()._runs, [(Ellipsis, 0.0, np.inf)]),
    # Three adjacent coordinates with three different bound pairs.
    (Box([0.0, -1.0, -np.inf], [2.0, 0.0, 0.0])._runs,
     [(slice(0, 1), 0.0, 2.0), (slice(1, 2), -1.0, 0.0),
      (slice(2, 3), -np.inf, 0.0)]),
    # Bounds that differ only in the sign of a zero are not bitwise equal,
    # so they stay separate runs. A Box's faces turn both zeros into +0.0,
    # so these runs are built from the bound arrays themselves.
    (geometry._runs(np.array([0.0, -0.0]), np.array([1.0, 1.0])),
     [(slice(0, 1), 0.0, 1.0), (slice(1, 2), -0.0, 1.0)]),
    (geometry._runs(np.array([-1.0, -1.0]), np.array([0.0, -0.0])),
     [(slice(0, 1), -1.0, 0.0), (slice(1, 2), -1.0, -0.0)]),
], ids=["halfline", "quadrant", "box3d", "signed-lower", "signed-upper"])
def test_runs_table(runs, expected):
    assert signed_runs(runs) == signed_runs(expected)


# A half-line or a box, and the polyhedron of the faces it is made of.
WRITTEN_OUT = [
    (HalfLine(0.0), Polyhedron(normals=[[-1.0]], offsets=[0.0])),
    (HalfLine(-0.75), Polyhedron(normals=[[-1.0]], offsets=[0.75])),
    (Box(lower=[0.0], upper=[2.0]),
     Polyhedron(normals=[[-1.0], [1.0]], offsets=[0.0, 2.0])),
    (Box(lower=[0.0, -1.0, -np.inf], upper=[2.0, 0.0, 0.0]),
     Polyhedron(normals=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                         [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                offsets=[0.0, 1.0, 2.0, 0.0, 0.0])),
]


def test_halfline_and_box_are_polyhedra_of_their_bounds():
    for cls in (HalfLine, Box):
        assert issubclass(cls, Polyhedron)
        for name in ("project", "boundary_distance", "interior_point"):
            assert name not in vars(cls), (cls, name)
    rng = np.random.default_rng(17)
    for dom, poly in WRITTEN_OUT:
        np.testing.assert_array_equal(dom.normals, poly.normals)
        np.testing.assert_array_equal(dom.offsets, poly.offsets)
        x = 2.0 * rng.standard_normal((7, 60, dom.dim))
        flat = x.reshape(-1, dom.dim)
        flat[::5] = dom.project(flat[::5] * 4.0)  # rows on the bounds
        flat[rng.random(flat.shape) < 0.2] = -0.0
        flat[rng.random(flat.shape) < 0.2] = 0.0
        for op in ("project", "distance", "boundary_distance"):
            got = getattr(dom, op)(x)
            assert got.tobytes() == getattr(poly, op)(x).tobytes(), op
            assert getattr(dom, op)(flat[3]).tobytes() == got.reshape(
                len(flat), -1)[3].tobytes(), op


def test_halfline_keeps_a_negative_zero_on_its_bound():
    got = HalfLine(0.0).project(np.array([-0.0]))
    assert got.tobytes() == np.array([-0.0]).tobytes()
    x = np.array([[-0.0], [0.0], [-1.0], [0.5]])
    assert HalfLine(0.0).project(x).tobytes() == np.array(
        [[-0.0], [0.0], [0.0], [0.5]]).tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda: HalfLine(np.nan), "finite"),
    (lambda: HalfLine(np.inf), "finite"),
    (lambda: HalfLine(-np.inf), "finite"),
    (lambda: Box(lower=[np.nan], upper=[1.0]), "lower_i < upper_i"),
    (lambda: Box(lower=[0.0], upper=[np.nan]), "lower_i < upper_i"),
    (lambda: Box(lower=[1.0, 0.0], upper=[0.0, 1.0]), "lower_i < upper_i"),
    (lambda: Box(lower=[1.0], upper=[1.0]), "lower_i < upper_i"),
    (lambda: Box(lower=[np.inf], upper=[np.inf]), "lower_i < upper_i"),
    (lambda: Box(lower=[-np.inf], upper=[-np.inf]), "lower_i < upper_i"),
    (lambda: Box(lower=[0.0, 1.0], upper=[1.0]), "1-d arrays"),
    (lambda: Box(lower=[[0.0]], upper=[[1.0]]), "1-d arrays"),
    (lambda: Box(lower=[], upper=[]), "d >= 1"),
    # One ulp wide: no float lies strictly inside.
    (lambda: Box(lower=[1.0], upper=[1.0 + 2.0 ** -52]), "empty interior"),
], ids=["halfline-nan", "halfline-inf", "halfline-minus-inf", "box-nan-lower",
        "box-nan-upper", "box-inverted", "box-flat", "box-plus-inf",
        "box-minus-inf", "box-lengths", "box-2d-bounds", "box-no-axes",
        "box-one-ulp"])
def test_halfline_and_box_reject_bad_bounds(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("lower, upper", [
    ([-np.inf], [np.inf]),                   # R^1: no faces at all
    ([-np.inf, -np.inf], [np.inf, np.inf]),  # R^2
    ([-np.inf, 0.0], [np.inf, np.inf]),
    ([0.0, -np.inf], [1.0, 3.0]),
    ([0.0], [1e-9]),                         # thin
    ([1.0], [1.0 + 2.0 ** -51]),             # two ulps wide
    ([1e9], [1e9 + 1.0]),                    # far from the origin
    ([-1e308], [1e308]),
    ([1.7e308], [np.inf]),                   # lower + eps overflows
], ids=["R1", "R2", "upper-half-plane", "slab", "thin", "two-ulps", "far",
        "huge", "near-max"])
def test_box_accepts_every_nonempty_box(lower, upper):
    dom = Box(lower=lower, upper=upper)
    assert dom.dim == len(lower)
    anchor = dom.interior_point()
    assert np.all((anchor > dom.lower) & (anchor < dom.upper))
    x = np.array([lower, upper]) * 0.5 + 3.0
    assert dom.project(x).tobytes() == np.clip(x, lower, upper).tobytes()


def test_polyhedron_without_faces_is_the_whole_space():
    dom = Polyhedron(normals=np.empty((0, 2)), offsets=np.empty(0))
    x = np.array([[-1e300, 0.0], [3.0, -0.0]])
    assert dom.project(x) is x
    np.testing.assert_array_equal(dom.boundary_distance(x), [np.inf, np.inf])
    np.testing.assert_array_equal(dom.interior_point(), [0.0, 0.0])


def test_halfline_anchor_is_the_first_certified_margin():
    # Half the scale max(1, |lower|) inside the bound.
    np.testing.assert_array_equal(HalfLine(0.0).interior_point(), [0.5])
    np.testing.assert_array_equal(HalfLine(3.0).interior_point(), [4.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make, anchor", [
    (lambda: HalfLine(1.7e308), 1.7e308 + 1.7e308 / 32),
    (lambda: Box([1.7e308], [np.inf]), 1.7e308 + 1.7e308 / 32),
    (lambda: Box([-np.inf], [-1.7e308]), -1.7e308 - 1.7e308 / 32),
], ids=["halfline", "box-above", "box-below"])
def test_bounds_near_the_largest_float_do_not_overflow(make, anchor):
    # Margins of 1/2, 1/4, 1/8 and 1/16 of the scale 1.7e308 would move the
    # bound past the largest float; the first that does not is certified.
    np.testing.assert_array_equal(make().interior_point(), [anchor])


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


# The offsets (3, -4) and (-2, 3, 6) have the integer lengths 5 and 7, and
# the dyadic centres add and subtract exactly, so those points lie exactly
# on the sphere.
BALL_CASES = pytest.mark.parametrize("center, radius, on_sphere, shape", [
    ([0.5, -0.25], 5.0, [3.0, -4.0], (9, 400, 2)),
    ([0.5, -0.25, 1.75], 7.0, [-2.0, 3.0, 6.0], (400, 3)),
])


def ball_points(center, radius, on_sphere, shape):
    """Uniform points around the ball, every 7th row exactly on its sphere."""
    ball = Ball(center=center, radius=radius)
    rng = np.random.default_rng(8)
    x = ball.center + rng.uniform(-2.0 * radius, 2.0 * radius, shape)
    flat = x.reshape(-1, ball.dim)
    flat[::7] = ball.center + np.array(on_sphere)
    return ball, x, flat


@BALL_CASES
def test_ball_projection_by_columns_matches_broadcast_bitwise(
        center, radius, on_sphere, shape):
    ball, x, flat = ball_points(center, radius, on_sphere, shape)
    assert ball.project(x).tobytes() == ball_project(ball, x).tobytes()
    r = row_norm(flat - ball.center)
    for where in (r < radius, r == radius, r > radius):
        point = flat[np.argmax(where)]
        assert where.any() and point.shape == (ball.dim,)
        assert ball.project(point).tobytes() == \
            ball_project(ball, point).tobytes()


@BALL_CASES
def test_ball_boundary_distance_by_columns_matches_broadcast_bitwise(
        center, radius, on_sphere, shape):
    ball, x, flat = ball_points(center, radius, on_sphere, shape)
    got = ball.boundary_distance(x)
    assert got.tobytes() == ball_boundary_distance(ball, x).tobytes()
    assert np.all(got.reshape(-1)[::7] == 0.0)  # the points on the sphere
    for point in flat[:20]:
        assert ball.boundary_distance(point).tobytes() == \
            ball_boundary_distance(ball, point).tobytes()


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


@pytest.mark.parametrize("dom", [
    quadrant(),
    # Coordinate 0 in [0, 2], coordinate 1 in [-1, 0], coordinate 2 >= 0.
    Polyhedron(normals=[[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
               offsets=[0.0, 2.0, 0.0, 1.0, 0.0]),
    # Coordinates 0 and 1 clipped to [0, 1]; a triangle couples 2 and 3.
    Polyhedron(normals=[[-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                        [0.0, 0.0, SQ2, SQ2]],
               offsets=[0.0, 1.0, 0.0, 1.0, 0.0, 0.0, SQ2]),
], ids=["quadrant", "box3d", "product4d"])
def test_clipped_zeros_keep_their_sign_whatever_the_batch(dom):
    # Signed zeros on zero bounds, scattered over positions and strides of
    # a level batch: each row's bits equal its projection on its own.
    rng = np.random.default_rng(30 + dom.dim)
    x = rng.standard_normal((9, 400, dom.dim))
    flat = x.reshape(-1, dom.dim)
    flat[rng.integers(0, len(flat), 600), rng.integers(0, dom.dim, 600)] = -0.0
    flat[rng.integers(0, len(flat), 200), rng.integers(0, dom.dim, 200)] = 0.0
    flat[::7] = -0.0
    flat[3::11, 0] = -0.0
    wide = np.repeat(x, 2, axis=1)[:, ::2]  # a strided view of the same rows
    rows = np.stack([dom.project(row) for row in flat]).reshape(x.shape)
    assert dom.project(x).tobytes() == rows.tobytes()
    assert dom.project(wide).tobytes() == rows.tobytes()
    for j in np.flatnonzero(np.isfinite(dom._lower) | np.isfinite(dom._upper)):
        lo, hi = dom._lower[j], dom._upper[j]
        on = flat[:, j] == 0.0
        assert np.array_equal(np.signbit(rows.reshape(flat.shape)[on, j]),
                              np.signbit(flat[on, j]))
        # Exterior coordinates land exactly on their bound.
        col = rows.reshape(flat.shape)[:, j]
        assert np.all(col[flat[:, j] < lo] == lo)
        assert np.all(col[flat[:, j] > hi] == hi)


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

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_row_norm_matches_numpy_norm_bitwise(d):
    rng = np.random.default_rng(20 + d)
    v = rng.standard_normal((9, 40, d)) \
        * 10.0 ** rng.integers(-170, 170, size=(9, 40, d))
    v[0, 0] = 0.0
    v[0, 1] = -0.0
    v[0, 2, -1] = np.inf
    v[0, 3, 0] = -np.inf
    v[0, 4, -1] = np.nan
    v[0, 5] = np.nan
    v[0, 6, 0], v[0, 6, -1] = np.inf, np.nan
    with np.errstate(over="ignore", under="ignore"):
        assert row_norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()
        for row in v[0, :8]:
            assert row_norm(row).tobytes() == np.linalg.norm(row).tobytes()

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
    face shifted outward). Half of the draws are products: the random
    faces and the wedge are zero on a random nonempty set of coordinates,
    which carry only coordinate faces, some of them redundant, so the
    projection clips them. Sets of distinct normals of the other faces, up
    to the number of coordinates they touch, are kept at least 0.01 from
    linear dependence, so the projection's rounding stays far below the
    tolerances checked.
    """
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    free = []
    if draw(st.booleans()):
        # One free coordinate leaves two coupled ones in d = 3; with one
        # coupled coordinate its faces are coordinate faces too.
        free = sorted(rng.permutation(d)[:draw(st.sampled_from([1, d]))])
    coupled = [j for j in range(d) if j not in free]
    normals = []
    if coupled:
        normals = list(rng.standard_normal((draw(st.integers(1, 5)), d)))
        for a in normals:
            a[free] = 0.0
    if draw(st.booleans()):
        normals += list(np.vstack([np.eye(d), -np.eye(d)])[
            rng.permutation(2 * d)[:draw(st.integers(1, d))]])
    if len(coupled) >= 2 and draw(st.booleans()):
        alpha = draw(st.floats(0.01, 0.3))
        q = np.zeros((d, 2))
        q[coupled] = np.linalg.qr(rng.standard_normal((len(coupled), 2)))[0]
        u, v = q.T
        normals += [-np.sin(alpha) * u + np.cos(alpha) * v,
                    -np.sin(alpha) * u - np.cos(alpha) * v]
    center = rng.standard_normal(d)
    if normals:
        normals = np.array([a / np.linalg.norm(a) for a in normals])
        offsets = normals @ center + rng.uniform(0.05, 2.0, size=len(normals))
    else:
        normals, offsets = np.empty((0, d)), np.empty(0)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(normals) - 1)) if len(normals) else None
        if i is not None:
            normals = np.vstack([normals, normals[i]])
            offsets = np.append(offsets, offsets[i] + rng.uniform(0.0, 1.0))
    # Faces on free coordinates are clipped; the others live in the
    # coupled coordinates and meet in sets of at most len(coupled).
    distinct = np.unique(normals, axis=0)
    distinct = distinct[np.all(distinct[:, free] == 0.0, axis=1)][:, coupled]
    for k in range(2, min(len(coupled), len(distinct)) + 1):
        for rows in itertools.combinations(range(len(distinct)), k):
            sigma = np.linalg.svd(distinct[list(rows)], compute_uv=False)
            assume(sigma[-1] >= 0.01)
    for j in free:
        for sign in (1.0, -1.0):
            for _ in range(draw(st.integers(0, 2))):
                e = np.zeros(d)
                e[j] = sign
                normals = np.vstack([normals, e])
                offsets = np.append(offsets, sign * center[j]
                                    + rng.uniform(0.05, 2.0))
    assume(len(normals) > 0)
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

DOMAIN_SPECS = {
    "halfline": (HalfLine, {"lower": 0.5}),
    "box": (Box, {"lower": [0.0, -np.inf], "upper": [2.0, 1.0]}),
    "polyhedron": (Polyhedron, {"normals": [[-1.0, 0.0], [0.0, -1.0]],
                                "offsets": [0.0, 0.0]}),
    "ball": (Ball, {"center": [0.0, 1.0], "radius": 2.0}),
}


def test_domain_from_spec_roundtrip():
    for kind, (cls, fields) in DOMAIN_SPECS.items():
        dom = domain_from_spec({"type": kind, **fields})
        assert type(dom) is cls
        for key, value in fields.items():
            np.testing.assert_array_equal(getattr(dom, key), value)
        with pytest.raises(ValueError, match="unknown keys"):
            domain_from_spec({"type": kind, **fields, "slope": 1})
        for key in fields:
            spec = {"type": kind, **fields}
            del spec[key]
            with pytest.raises(ValueError, match="missing"):
                domain_from_spec(spec)
    # A numeric string radius is read as a float.
    dom = domain_from_spec({"type": "ball", "center": [0.0, 1.0],
                            "radius": "2.0"})
    assert isinstance(dom, Ball) and dom.radius == 2.0
    with pytest.raises(ValueError, match="unknown domain type"):
        domain_from_spec({"type": "simplex"})
