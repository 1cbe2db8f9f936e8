import numpy as np
import pytest
from oracle import coarsen, penalized_loop

from refsde.brownian import TimeGrid, sample_increments, sample_path
from refsde.coefficients import CoefficientField, euler_update, \
    make_coefficients
from refsde.errors import IntegrationError
from refsde.geometry import Ball, HalfLine, Polyhedron
from refsde.penalized import (
    euler_penalized,
    euler_step,
    splitting_penalized,
    splitting_step,
)


def zero_field(dim):
    return CoefficientField(
        name="zero", dim=dim,
        diffusion=lambda t, x: ((0.0,) * dim,) * dim,
        drift=lambda t, x: (0.0,) * dim)


def quadrant():
    return Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0])


def dense_field(sigma, drift):
    """A field whose entries are the coordinates of fixed arrays."""
    d = sigma.shape[-1]
    return CoefficientField(
        name="dense", dim=d,
        diffusion=lambda t, x: tuple(tuple(sigma[..., i, j] for j in range(d))
                                     for i in range(d)),
        drift=lambda t, x: tuple(drift[..., i] for i in range(d)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_euler_update_matches_einsum(d):
    rng = np.random.default_rng(d)
    vec = rng.standard_normal((400, d))
    x = np.zeros((9, 400, d))
    for sigma in (rng.standard_normal((9, 400, d, d)),   # the sweep's shapes
                  rng.standard_normal((d, d))):          # a constant field
        drift = rng.standard_normal(sigma.shape[:-1])
        got = euler_update(dense_field(sigma, drift), 0.0, x, vec, 0.5)
        want = np.einsum("...ij,...j->...i", sigma, vec) + 0.5 * drift
        if d <= 2:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


# -- explicit scheme ----------------------------------------------------------

def test_euler_quiescent_inside():
    grid = TimeGrid(1.0, 16)
    path = sample_path(grid, 0, 0)
    traj = euler_penalized(HalfLine(0.0), zero_field(1), path,
                           np.array([0.0]), 8.0)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.penalty == 0.0)
    assert traj.max_dist == 0.0


def test_euler_single_step_arithmetic():
    # With n*h = 1 one step cancels the excursion exactly.
    x_next, dk = euler_step(HalfLine(0.0), zero_field(1), 0.0,
                            np.array([-0.2]), np.zeros(1), 0.1, 10.0)
    assert x_next[0] == 0.0
    assert dk[0] == pytest.approx(0.2, abs=1e-15)


def test_euler_stability_guard():
    grid = TimeGrid(1.0, 16)  # h = 1/16
    path = sample_path(grid, 0, 0)
    with pytest.raises(ValueError, match="unstable"):
        euler_penalized(HalfLine(0.0), zero_field(1), path,
                        np.array([0.0]), 17.0)


def test_x0_outside_rejected():
    grid = TimeGrid(1.0, 16)
    path = sample_path(grid, 0, 0)
    with pytest.raises(ValueError, match="closure"):
        euler_penalized(HalfLine(0.0), zero_field(1), path,
                        np.array([-1.0]), 4.0)


def test_blowup_reports_step_index():
    grid = TimeGrid(1.0, 16)
    path = sample_path(grid, 0, 0)
    explode = CoefficientField(
        name="explode", dim=1,
        diffusion=lambda t, x: ((0.0,),),
        drift=lambda t, x: (x[..., 0] ** 3 * 1e8,))
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as err:
        euler_penalized(HalfLine(0.0), explode, path, np.array([5.0]), 1.0)
    assert err.value.step_index is not None
    assert (err.value.level, err.value.path_index) == (1.0, 0)
    assert "level n = 1, path 0" in str(err.value)


def test_euler_penalty_has_no_negative_zero():
    # Inside the domain the explicit step's penalty increment is -0.0;
    # accumulated from a zero start, the penalty holds +0.0 there.
    grid = TimeGrid(1.0, 64)
    path = sample_path(grid, 3, 0)
    traj = euler_penalized(HalfLine(0.0), make_coefficients("ou1d"), path,
                           np.array([2.0]), 8.0)
    zeros = traj.penalty == 0.0
    assert zeros[0, 0] and zeros.sum() > 1
    assert not np.any(np.signbit(traj.penalty[zeros]))


@pytest.mark.parametrize("scheme", ["euler", "splitting"])
@pytest.mark.parametrize("domain, name, x0", [
    (HalfLine(0.0), "ou1d", [0.0]),
    (quadrant(), "quadrant2d", [0.5, 0.0]),
    (Ball(center=[0.0, 0.0], radius=1.0), "quadrant2d", [0.0, 0.0]),
])
def test_per_path_functions_match_a_plain_loop_bitwise(scheme, domain, name,
                                                       x0):
    coeffs = make_coefficients(name)
    path = sample_path(TimeGrid.from_log2(1.0, 8), 17, 2, dim=domain.dim)
    run = euler_penalized if scheme == "euler" else splitting_penalized
    for level in (4.0, 256.0):
        traj = run(domain, coeffs, path, np.array(x0), level)
        states, penalty, max_dist = penalized_loop(domain, coeffs, path, x0,
                                                   level, scheme)
        assert traj.states.tobytes() == states.tobytes()
        assert traj.penalty.tobytes() == penalty.tobytes()
        assert traj.max_dist == max_dist
        assert (traj.scheme, traj.level, traj.grid) == (scheme, level,
                                                        path.grid)


# -- exponential relaxation ----------------------------------------------------
# With zero coefficients and a zero increment the splitting step is the pure
# relaxation of the penalty flow over one step of length h.

def relax(domain, x, level, h):
    return splitting_step(domain, zero_field(domain.dim), 0.0, x,
                          np.zeros(domain.dim), h, level)[0]


def test_relax_fixes_domain_points():
    dom = Ball(center=[0.0, 0.0], radius=1.0)
    x = np.array([0.3, -0.4])
    np.testing.assert_array_equal(relax(dom, x, 100.0, 1.0), x)


def test_relax_halfline_closed_form():
    # One call relaxes a column of levels, as the sweep does.
    levels = np.array([1.0, 2.0, 3.0])[:, None]
    got = relax(HalfLine(0.0), np.array([-1.0]), levels, 1.0)
    assert got.shape == (3, 1)
    assert got[0, 0] == pytest.approx(-0.36787944117144233, abs=1e-15)
    np.testing.assert_allclose(got[:, 0], -np.exp(-levels[:, 0]),
                               rtol=0.0, atol=1e-15)


def test_relax_exponential_contraction():
    dom = HalfLine(0.0)
    out = relax(dom, np.array([-2.0]), 10.0, 5.0)  # n * h = 50
    assert abs(out[0] - 0.0) <= 2.0 * np.exp(-50.0)


# -- splitting scheme -----------------------------------------------------------

def test_splitting_quiescent_inside():
    grid = TimeGrid(1.0, 16)
    path = sample_path(grid, 0, 0)
    traj = splitting_penalized(HalfLine(0.0), zero_field(1), path,
                               np.array([0.5]), 1e6)
    assert np.all(traj.states == 0.5)
    assert np.all(traj.penalty == 0.0)


def test_splitting_single_step_matches_relaxation():
    x_next, dk = splitting_step(HalfLine(0.0), zero_field(1), 0.0,
                                np.array([-1.0]), np.zeros(1), 1.0, 1.0)
    assert x_next[0] == pytest.approx(-np.exp(-1.0), abs=1e-15)
    assert dk[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-15)


def test_schemes_agree_at_first_order_in_h():
    # Fixed level, refined grids sharing one Brownian motion: the sup gap
    # between the explicit and splitting schemes shrinks linearly in h.
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    x0 = np.array([0.0])
    fine = TimeGrid.from_log2(1.0, 12)
    level = 64.0
    gaps = {10: [], 11: [], 12: []}
    for i in range(12):
        pf = sample_path(fine, 11, i)
        for m in gaps:
            p = coarsen(pf, 2 ** (12 - m))
            te = euler_penalized(domain, coeffs, p, x0, level)
            ts = splitting_penalized(domain, coeffs, p, x0, level)
            gaps[m].append(np.max(np.abs(te.states - ts.states)))
    mean = {m: np.mean(v) for m, v in gaps.items()}
    assert 1.6 < mean[10] / mean[11] < 2.4
    assert 1.6 < mean[11] / mean[12] < 2.4


def test_penalty_only_distance_nonincreasing():
    # Pure relaxation dynamics from an excursion: both schemes contract.
    domain = Ball(center=[0.0, 0.0], radius=1.0)
    field = zero_field(2)
    for step_fn, nh in [(euler_step, 1.0), (splitting_step, 4.0)]:
        x = np.array([3.0, -1.5])
        dists = [float(domain.distance(x))]
        for _ in range(30):
            x = step_fn(domain, field, 0.0, x, np.zeros(2), nh, 1.0)[0]
            dists.append(float(domain.distance(x)))
        assert np.all(np.diff(dists) <= 1e-15)


# -- penalty process invariants --------------------------------------------------

def _penalty_directions(domain, traj, scheme):
    """Per step: (penalty increment, anchor point the penalty acted on)."""
    dk = np.diff(traj.penalty, axis=0)
    if scheme == "euler":
        anchors = traj.states[:-1]
    else:
        anchors = traj.states[1:] - dk  # post-diffusion, pre-relaxation
    return dk, anchors


@pytest.mark.parametrize("scheme", ["euler", "splitting"])
def test_penalty_increments_point_at_projection(scheme):
    domain = quadrant()
    coeffs = make_coefficients("quadrant2d")
    grid = TimeGrid(1.0, 2 ** 10)
    path = sample_path(grid, 21, 0, dim=2)
    level = 512.0
    run = euler_penalized if scheme == "euler" else splitting_penalized
    traj = run(domain, coeffs, path, np.array([0.0, 0.0]), level)
    dk, anchors = _penalty_directions(domain, traj, scheme)
    dist = domain.distance(anchors)
    moving = dist > 1e-12
    assert np.any(moving)
    target = domain.project(anchors[moving]) - anchors[moving]
    cos = np.sum(dk[moving] * target, axis=-1) / (
        np.linalg.norm(dk[moving], axis=-1)
        * np.linalg.norm(target, axis=-1))
    assert np.min(cos) >= 1.0 - 1e-9
    # Steps with the anchor inside contribute exactly zero.
    inside = dist == 0.0
    assert np.all(dk[inside] == 0.0)


def test_boundary_distance_stats():
    # The trajectory's sup distance is the sup over its own states.
    domain = quadrant()
    coeffs = make_coefficients("quadrant2d")
    path = sample_path(TimeGrid(1.0, 2 ** 8), 3, 0, dim=2)
    for run in (euler_penalized, splitting_penalized):
        traj = run(domain, coeffs, path, np.array([0.0, 0.0]), 16.0)
        assert traj.max_dist > 0.0
        assert traj.max_dist == np.max(domain.distance(traj.states))


def test_deeper_penalization_reduces_excursions():
    # Shared paths: mean sup distance shrinks monotonically with the level.
    from refsde.rates import boundary_distance_sweep
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    grid = TimeGrid.from_log2(1.0, 12)
    tables = boundary_distance_sweep(domain, coeffs, np.array([0.0]), grid,
                                     [64, 256, 1024], 200, 314,
                                     p_list=[1.0, 2.0])
    for p in (1.0, 2.0):
        errs = tables[p].errors
        assert errs[2] < errs[1] < errs[0]


def test_moment_stability_across_levels():
    # Fourth-moment estimate of the running sup stays within a narrow band
    # over a wide range of levels (shared paths).
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    grid = TimeGrid.from_log2(1.0, 13)
    inc = sample_increments(grid, 5, range(200), 1)
    vals = []
    for n in [2 ** k for k in range(4, 13)]:
        x = np.full((200, 1), 0.5)
        sup = np.full(200, 0.5)
        for k in range(grid.steps):
            x, _ = splitting_step(domain, coeffs, k * grid.step, x,
                                  inc[:, k], grid.step, float(n))
            np.maximum(sup, np.abs(x[:, 0]), out=sup)
        vals.append(np.mean(sup ** 4))
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 0.25
