"""Time stepping for the penalized SDE.

Two schemes integrate the state pulled back toward the domain by the drift
term ``-n (x - project(x))``:

* ``euler_penalized`` treats the penalty explicitly. The update is stable
  only for ``n * h <= 1``; violating the guard is a hard error rather than
  a silent clamp, because silent instability corrupts rate plots.
* ``splitting_penalized`` composes a diffusion sub-step with the exact
  exponential relaxation of the penalty flow. It has no stability
  restriction, so penalization levels far beyond ``1/h`` are usable; it is
  the recommended default. As ``n`` grows at fixed ``h`` the step
  degenerates to projecting the diffusion update.

Both return the trajectory together with the accumulated penalty process
(the running integral of the penalty drift) and the sup of the distance to
the domain along the path. Step kernels are shape-agnostic over leading
batch axes, and ``level`` may be an array that broadcasts against them; the
per-path functions here drive them with a single point, and the sweep in
``rates`` drives them with one ``(levels, paths, d)`` array.
"""

from dataclasses import dataclass

import numpy as np

from .brownian import TimeGrid
from .errors import IntegrationError
from . import tolerances as tol

__all__ = [
    "PenalizedTrajectory",
    "euler_penalized",
    "splitting_penalized",
]


@dataclass(frozen=True)
class PenalizedTrajectory:
    grid: TimeGrid
    states: np.ndarray    # (M+1, d)
    penalty: np.ndarray   # (M+1, d), cumulative
    max_dist: float       # sup over grid of distance to the domain
    scheme: str
    level: float


def _matvec(sigma, vec):
    """``sigma @ vec`` over broadcast leading axes, one column at a time.

    Much cheaper than a broadcast ``einsum`` over tiny trailing axes; each
    row sums in column order, so the result does not depend on the batch.
    """
    out = sigma[..., :, 0] * vec[..., None, 0]
    for j in range(1, vec.shape[-1]):
        out = out + sigma[..., :, j] * vec[..., None, j]
    return out


def euler_step(domain, coeffs, t, x, dw, h, level):
    """One explicit step; returns (next state, penalty increment)."""
    pen = (level * h) * (x - domain.project(x))
    x_next = x + _matvec(coeffs.diffusion(t, x), dw) + h * coeffs.drift(t, x) - pen
    return x_next, -pen


def splitting_step(domain, coeffs, t, x, dw, h, level):
    """Diffusion sub-step followed by exponential penalty relaxation.

    Returns (next state, penalty increment). The relaxation solves the
    penalty flow ``dz/dt = -n (z - project(z))`` exactly over the step:
    projection onto a convex set is constant along the ray from the
    post-diffusion point ``y`` to its projection, so the flow stays on that
    ray and its gap to the anchor contracts by ``exp(-n h)``.
    """
    y = x + _matvec(coeffs.diffusion(t, x), dw) + h * coeffs.drift(t, x)
    p = domain.project(y)
    z = p + (y - p) * np.exp(-level * h)
    return z, z - y


def euler_penalized(domain, coeffs, path, x0, level):
    """Integrate the penalized SDE with the explicit scheme along ``path``."""
    h = path.grid.step
    if level * h > 1.0 + 1e-12:
        raise ValueError(
            f"explicit penalization is unstable for n*h = {level * h:.4g} > 1; "
            "reduce n, refine the grid, or use the splitting scheme"
        )
    return _integrate(domain, coeffs, path, x0, level, "euler")


def splitting_penalized(domain, coeffs, path, x0, level):
    """Integrate the penalized SDE with the splitting scheme along ``path``."""
    return _integrate(domain, coeffs, path, x0, level, "splitting")


def _integrate(domain, coeffs, path, x0, level, scheme):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.dim,):
        raise ValueError(f"x0 must have shape ({domain.dim},)")
    if not domain.contains(x0, tol.MEMBERSHIP_TOL):
        raise ValueError("x0 must lie in the domain closure")
    if coeffs.dim != domain.dim:
        raise ValueError("coefficient and domain dimensions differ")
    grid = path.grid
    if path.dim != domain.dim:
        raise ValueError("path and domain dimensions differ")

    m, d = grid.steps, domain.dim
    h = grid.step
    states = np.empty((m + 1, d))
    penalty = np.zeros((m + 1, d))
    states[0] = x0
    x = x0
    max_dist = 0.0
    for k in range(m):
        t = k * h
        dw = path.increments[k]
        max_dist = max(max_dist, float(domain.distance(x)))
        if scheme == "euler":
            x, dk = euler_step(domain, coeffs, t, x, dw, h, level)
        else:
            x, dk = splitting_step(domain, coeffs, t, x, dw, h, level)
        if not np.all(np.isfinite(x)):
            raise IntegrationError(
                f"non-finite state at step {k + 1} (n = {level})",
                step_index=k + 1, level=level,
            )
        states[k + 1] = x
        penalty[k + 1] = penalty[k] + dk
    max_dist = max(max_dist, float(domain.distance(x)))
    return PenalizedTrajectory(grid=grid, states=states, penalty=penalty,
                               max_dist=max_dist, scheme=scheme, level=level)
