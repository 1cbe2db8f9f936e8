"""Reference solutions of the reflected SDE and Skorokhod-contract checks.

The reflected process decomposes as ``X = Y + K`` where ``Y`` is the
unconstrained driver and ``K`` the regulator: ``X`` stays in the domain
closure, ``K`` has bounded variation, points along inward normals, and
grows only while ``X`` sits on the boundary.

Two constructions are provided. ``skorokhod_map_halfline`` is the exact
discrete one-sided reflection (running-maximum formula) for a half-line.
``projected_euler`` projects every Euler update back onto the domain and
records the projection displacements as the regulator; it is a recorded
one-path run of the step loop ``rates._lockstep``, which steps the sweeps'
reference too. On a half-line it coincides with the running-maximum
construction applied to its own realized driver, which is used as a
cross-validation oracle.

``verify_skorokhod`` turns the contract into four nonnegative diagnostics
so that any trajectory claiming to solve the problem can be audited.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import TimeGrid
from .coefficients import euler_update
from .geometry import ConvexDomain, HalfLine, row_norm, sample_points
from . import tolerances as tol

__all__ = [
    "ReflectedTrajectory",
    "SkorokhodReport",
    "skorokhod_map_halfline",
    "projected_euler",
    "verify_skorokhod",
]


@dataclass(frozen=True)
class ReflectedTrajectory:
    grid: Optional[TimeGrid]
    domain: ConvexDomain
    states: np.ndarray      # (M+1, d), inside the domain closure
    regulator: np.ndarray   # (M+1, d), cumulative K
    variation: np.ndarray   # (M+1,), cumulative |K|, nondecreasing
    driver: np.ndarray      # (M+1, d), cumulative unconstrained input Y


@dataclass(frozen=True)
class SkorokhodReport:
    """Nonnegative contract diagnostics; all near zero for a valid solution.

    containment_violation: max distance of the states to the domain closure.
    flatness_violation: regulator variation accrued while the state was
        farther than ``tolerances.BOUNDARY_TOL`` from the boundary.
    direction_violation: worst violation of the inward-normal inequality
        ``<y - X_k, dK_k / |dK_k|> >= 0`` over sampled domain points, for
        steps with ``|dK_k| > tolerances.FLATNESS_TOL`` (unit length scale).
    decomposition_residual: max of ``|X_k - driver_k - K_k|``.
    """

    containment_violation: float
    flatness_violation: float
    direction_violation: float
    decomposition_residual: float


def skorokhod_map_halfline(driver, lower_bound, grid=None):
    """Exact one-sided reflection of a discrete driver above ``lower_bound``.

    ``X_k = Y_k + max(0, max_{j<=k}(a - Y_j))`` and ``K = X - Y``; the
    regulator is the smallest nondecreasing process keeping ``X >= a``.
    The map works on any discrete driver; ``grid`` is metadata and may be
    omitted.
    """
    y = np.asarray(driver, dtype=float)
    if y.ndim != 1:
        raise ValueError("driver must be a 1-d array of path values")
    if grid is not None and y.shape[0] != grid.steps + 1:
        raise ValueError("driver length must match the grid")
    if y[0] < lower_bound:
        raise ValueError("driver must start inside the half-line")
    deficit = np.maximum.accumulate(np.maximum(lower_bound - y, 0.0))
    x = y + deficit
    return ReflectedTrajectory(
        grid=grid,
        domain=HalfLine(lower=lower_bound),
        states=x[:, None],
        regulator=deficit[:, None],
        variation=deficit.copy(),
        driver=y[:, None],
    )


def projected_euler_step(domain, coeffs, t, x, dw, h, *, out=None):
    """One projected Euler update, returning (next state, driver increment);
    ``out`` is as for ``penalized.euler_step``."""
    dy = euler_update(coeffs, t, x, dw, h)
    return domain.project(x + dy, out=out), dy


def projected_euler(domain, coeffs, path, x0):
    """Reference reflected trajectory: project each Euler update back.

    A one-path run of the sweep's step loop with the reference alone. The
    regulator collects the projection displacements; the realized driver
    (initial point plus accumulated unconstrained increments) is stored so
    the Skorokhod contract can be verified against it.
    """
    from .rates import _lockstep  # rates imports this module
    inc = path.increments[:, None]
    # No levels, so the scheme is never used. The state is copied: the next
    # step overwrites the one the loop yields.
    run = [(x[0].copy(), dy[0]) for _, _, x, dy in _lockstep(
        domain, coeffs, x0, path.grid, [], 1, "splitting", path.grid.steps,
        [(inc, inc)], increments=True)]
    states, dy = map(np.array, zip(*run))
    driver = np.cumsum(dy, axis=0)
    dk = states[1:] - (states[:-1] + dy[1:])
    regulator = np.cumsum(np.concatenate([np.zeros_like(dk[:1]), dk]), axis=0)
    variation = np.cumsum(np.concatenate([[0.0], row_norm(dk)]))
    return ReflectedTrajectory(grid=path.grid, domain=domain, states=states,
                               regulator=regulator, variation=variation,
                               driver=driver)


def verify_skorokhod(traj, driver=None, num_samples=1000, seed=7):
    """Audit a trajectory against the Skorokhod-problem contract.

    ``driver`` defaults to the trajectory's stored driver. The variation
    increment over a step is attributed to the step's endpoint state (the
    point placed on the boundary by the reflection). Direction violations
    are measured against ``num_samples`` strictly interior points drawn
    deterministically from ``seed``.
    """
    domain = traj.domain
    x = traj.states
    k_proc = traj.regulator
    if driver is None:
        driver = traj.driver
    driver = np.asarray(driver, dtype=float)
    if driver.shape != x.shape:
        raise ValueError("driver and states have mismatched grids")

    containment = float(np.max(domain.distance(x)))
    decomposition = float(np.max(row_norm(x - driver - k_proc)))

    dk = np.diff(k_proc, axis=0)                      # (M, d)
    dk_norm = row_norm(dk)
    dvar = np.diff(traj.variation)
    off_boundary = domain.boundary_distance(x[1:]) > tol.BOUNDARY_TOL
    flatness = float(np.sum(dvar[off_boundary]))

    moving = dk_norm > tol.FLATNESS_TOL
    direction = 0.0
    if np.any(moving):
        pts = sample_points(domain, num_samples, seed, interior=True)
        anchors = x[1:][moving]
        dirs = dk[moving] / dk_norm[moving][:, None]
        chunk = max(1, 2 ** 22 // num_samples)
        for lo in range(0, anchors.shape[0], chunk):
            a = anchors[lo:lo + chunk]
            u = dirs[lo:lo + chunk]
            # <y - x, u> for all sampled y: (pts @ u.T) - rowwise <x, u>
            inner = pts @ u.T - np.sum(a * u, axis=-1)
            worst = -float(np.min(inner))
            direction = max(direction, worst)
        direction = max(0.0, direction)

    return SkorokhodReport(
        containment_violation=containment,
        flatness_violation=flatness,
        direction_violation=direction,
        decomposition_residual=decomposition,
    )
