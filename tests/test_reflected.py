import numpy as np
import pytest
from oracle import reference_loop

from refsde.brownian import TimeGrid, sample_path
from refsde.coefficients import CoefficientField, make_coefficients
from refsde.geometry import Ball, HalfLine, Polyhedron
from refsde.penalized import euler_penalized, splitting_penalized
from refsde.reflected import (
    ReflectedTrajectory,
    projected_euler,
    skorokhod_map_halfline,
    verify_skorokhod,
)


def zero_field(dim):
    return CoefficientField(
        name="zero", dim=dim,
        diffusion=lambda t, x: ((0.0,) * dim,) * dim,
        drift=lambda t, x: (0.0,) * dim)


# -- one-sided reflection map ---------------------------------------------------

def test_map_running_max_formula():
    grid = TimeGrid(1.0, 2)
    traj = skorokhod_map_halfline(np.array([0.0, -1.0, -0.5]), 0.0, grid)
    np.testing.assert_array_equal(traj.states[:, 0], [0.0, 0.0, 0.5])
    np.testing.assert_array_equal(traj.regulator[:, 0], [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(traj.variation, [0.0, 1.0, 1.0])


def test_map_noop_when_driver_stays_above():
    grid = TimeGrid(1.0, 4)
    y = np.array([1.0, 2.0, 0.5, 3.0, 0.1])
    traj = skorokhod_map_halfline(y, 0.0, grid)
    np.testing.assert_array_equal(traj.states[:, 0], y)
    assert np.all(traj.regulator == 0.0)


def test_map_longer_driver():
    traj = skorokhod_map_halfline(np.array([1.0, -2.0, -3.0, 0.0]), 0.0,
                                  grid=None)
    np.testing.assert_array_equal(traj.states[:, 0], [1.0, 0.0, 0.0, 3.0])
    np.testing.assert_array_equal(traj.regulator[:, 0], [0.0, 2.0, 3.0, 3.0])


def test_map_rejects_bad_start():
    with pytest.raises(ValueError, match="start"):
        skorokhod_map_halfline(np.array([-1.0, 0.0, 0.0]), 0.0, None)


def test_map_regulator_is_minimal():
    # Brute-force lower envelope: the smallest nondecreasing K with
    # K_0 = 0 keeping Y + K above the bound, built by forward recursion.
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(2, 64))
        y = np.concatenate([[rng.uniform(0.0, 1.0)],
                            rng.standard_normal(m).cumsum()])
        y[0] = abs(y[0])
        y[1:] += y[0]
        traj = skorokhod_map_halfline(y, 0.0, grid=None)
        k_min = [0.0]
        for j in range(1, len(y)):
            k_min.append(max(k_min[-1], -y[j]))
        np.testing.assert_allclose(traj.regulator[:, 0], k_min, atol=0.0)
        assert np.all(np.diff(traj.variation) >= 0.0)
        assert np.all(traj.states >= 0.0)


def test_map_monotone_coupling():
    # Raising the driver never increases the regulator; the reflected
    # state is monotone when the raise is itself nondecreasing in time
    # (a pointwise-but-transient raise can lower later states, since the
    # smaller driver picks up a larger regulator push early on).
    rng = np.random.default_rng(13)
    for _ in range(20):
        y = np.concatenate([[0.2], 0.2 + rng.standard_normal(31).cumsum()])
        bump = np.concatenate([[0.0], rng.uniform(0.0, 0.2, size=31)])
        a = skorokhod_map_halfline(y, 0.0, None)
        b = skorokhod_map_halfline(y + np.cumsum(bump), 0.0, None)
        assert np.all(b.states >= a.states - 1e-12)
        c = skorokhod_map_halfline(y + bump, 0.0, None)
        assert np.all(c.regulator <= a.regulator + 1e-12)


# -- projected Euler --------------------------------------------------------------

def test_projected_euler_quiescent():
    grid = TimeGrid(1.0, 16)
    path = sample_path(grid, 1, 0, dim=2)
    dom = Ball(center=[0.0, 0.0], radius=1.0)
    traj = projected_euler(dom, zero_field(2), path, np.array([0.2, 0.2]))
    assert np.all(traj.states == 0.2)
    assert np.all(traj.regulator == 0.0)


@pytest.mark.parametrize("domain, name, x0", [
    (HalfLine(0.0), "ou1d", [0.0]),
    (Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0]),
     "quadrant2d", [0.0, 0.0]),
    (Ball(center=[0.0, 0.0], radius=1.0), "quadrant2d", [0.5, 0.0]),
])
def test_projected_euler_matches_a_plain_loop_bitwise(domain, name, x0):
    coeffs = make_coefficients(name)
    # On the ball, BLAS's single-vector norm differs from ``row_norm`` in
    # the last bit on a few of these steps, so the oracle pins which one
    # the variation uses.
    path = sample_path(TimeGrid.from_log2(1.0, 10), 3, 1, dim=domain.dim)
    traj = projected_euler(domain, coeffs, path, np.array(x0))
    want = reference_loop(domain, coeffs, path, x0)
    got = (traj.states, traj.regulator, traj.variation, traj.driver)
    for field, expected in zip(got, want):
        assert field.shape == expected.shape
        assert field.tobytes() == expected.tobytes()
    assert traj.grid == path.grid and traj.domain is domain


def test_per_path_functions_reject_dimension_mismatches():
    # A 1-d path, or a 1-d coefficient field, on the 2-d quadrant.
    quad = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0])
    grid = TimeGrid(1.0, 64)
    x0 = np.array([0.0, 0.0])
    cases = [(make_coefficients("quadrant2d"), sample_path(grid, 3, 0),
              "path and domain"),
             (make_coefficients("ou1d"), sample_path(grid, 3, 0, dim=2),
              "coefficient and domain")]
    for coeffs, path, message in cases:
        for run in (lambda: euler_penalized(quad, coeffs, path, x0, 16.0),
                    lambda: splitting_penalized(quad, coeffs, path, x0, 16.0),
                    lambda: projected_euler(quad, coeffs, path, x0)):
            with pytest.raises(ValueError, match=message):
                run()


def test_projected_euler_matches_halfline_map():
    # On the half-line the projection recursion and the running-max map
    # are the same construction, up to accumulation roundoff.
    grid = TimeGrid.from_log2(1.0, 10)
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    for i in range(5):
        path = sample_path(grid, 2024, i)
        ref = projected_euler(domain, coeffs, path, np.array([0.0]))
        mapped = skorokhod_map_halfline(ref.driver[:, 0], 0.0, grid)
        assert np.max(np.abs(ref.states - mapped.states)) <= 1e-12


def test_projected_euler_stays_inside_with_monotone_variation():
    grid = TimeGrid.from_log2(1.0, 12)
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    traj = projected_euler(domain, coeffs, sample_path(grid, 3, 7),
                           np.array([0.0]))
    assert np.all(traj.states >= 0.0)
    assert np.all(np.diff(traj.variation) >= 0.0)
    assert np.any(traj.variation > 0.0)


# -- contract verification ----------------------------------------------------------

def test_verify_passes_on_map_output():
    rng = np.random.default_rng(14)
    y = np.concatenate([[0.0], rng.standard_normal(255).cumsum() * 0.1])
    traj = skorokhod_map_halfline(y, 0.0, None)
    rep = verify_skorokhod(traj)
    assert rep.containment_violation <= 1e-10
    assert rep.flatness_violation <= 1e-12
    assert rep.direction_violation <= 1e-9
    assert rep.decomposition_residual <= 1e-10


@pytest.mark.parametrize("domain,coeffs_name,x0", [
    (Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0]),
     "quadrant2d", [0.0, 0.0]),
    (Ball(center=[0.0, 0.0], radius=1.0), "quadrant2d", [0.0, 0.0]),
])
def test_verify_passes_on_projected_euler(domain, coeffs_name, x0):
    grid = TimeGrid.from_log2(1.0, 12)
    coeffs = make_coefficients(coeffs_name)
    traj = projected_euler(domain, coeffs, sample_path(grid, 8, 1, dim=2),
                           np.array(x0))
    rep = verify_skorokhod(traj, num_samples=1000, seed=5)
    assert rep.containment_violation <= 1e-10
    assert rep.flatness_violation <= 1e-12
    assert rep.direction_violation <= 1e-9
    assert rep.decomposition_residual <= 1e-12


def test_verify_flags_planted_defects():
    rng = np.random.default_rng(15)
    y = np.concatenate([[0.5], 0.5 + rng.standard_normal(127).cumsum() * 0.2])
    traj = skorokhod_map_halfline(y, 0.0, None)

    # Regulator mass away from the boundary.
    k_bad = traj.regulator.copy()
    interior = int(np.argmax(traj.states[1:, 0] > 0.3)) + 1
    k_bad[interior:] += 0.1
    var_bad = traj.variation.copy()
    var_bad[interior:] += 0.1
    corrupted = ReflectedTrajectory(
        grid=traj.grid, domain=traj.domain, states=traj.states,
        regulator=k_bad, variation=var_bad, driver=traj.driver)
    rep = verify_skorokhod(corrupted)
    assert rep.flatness_violation >= 0.1
    assert rep.decomposition_residual >= 0.1

    # State pushed outside the domain.
    x_bad = traj.states.copy()
    x_bad[interior] = -0.2
    rep2 = verify_skorokhod(ReflectedTrajectory(
        grid=traj.grid, domain=traj.domain, states=x_bad,
        regulator=traj.regulator, variation=traj.variation,
        driver=traj.driver))
    assert rep2.containment_violation >= 0.2

    # Regulator increment pointing out of the domain at a boundary step.
    push = int(np.argmax(np.diff(traj.variation) > 0.0)) + 1
    k_flip = traj.regulator.copy()
    k_flip[push:] -= 2.0 * (traj.regulator[push] - traj.regulator[push - 1])
    rep3 = verify_skorokhod(ReflectedTrajectory(
        grid=traj.grid, domain=traj.domain, states=traj.states,
        regulator=k_flip, variation=traj.variation, driver=traj.driver))
    assert rep3.direction_violation > 0.1


def test_verify_rejects_grid_mismatch():
    y = np.array([0.0, -1.0, -0.5])
    traj = skorokhod_map_halfline(y, 0.0, TimeGrid(1.0, 2))
    with pytest.raises(ValueError, match="mismatch"):
        verify_skorokhod(traj, driver=np.zeros((5, 1)))
