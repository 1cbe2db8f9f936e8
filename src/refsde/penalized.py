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

Both return a ``PenalizedTrajectory`` of a recorded ``rates._lockstep``
run. Step kernels are shape-agnostic over leading batch axes, and
``level`` may be an array that broadcasts against them. Their part
``x + sigma dW + h b`` is ``coefficients.euler_update``.
"""

from dataclasses import dataclass

import numpy as np

from .brownian import TimeGrid
from .coefficients import euler_update

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


def euler_step(domain, coeffs, t, x, dw, h, level, *, penalty=True,
               out=None):
    """One explicit step; returns (next state, penalty increment).

    With ``penalty=False`` the increment is not computed and is None.
    ``out``, as for a ufunc, receives the next state, with the same bits; it
    may be ``x`` itself, which is read in full before it is written.
    """
    pen = (level * h) * (x - domain.project(x))
    x_next = np.subtract(euler_update(coeffs, t, x, dw, h, base=x), pen,
                         out=out)
    return x_next, -pen if penalty else None


def splitting_step(domain, coeffs, t, x, dw, h, level, *, decay=None,
                   penalty=True, out=None):
    """Diffusion sub-step followed by exponential penalty relaxation.

    Returns (next state, penalty increment). The relaxation solves the
    penalty flow ``dz/dt = -n (z - project(z))`` exactly over the step:
    projection onto a convex set is constant along the ray from the
    post-diffusion point ``y`` to its projection, so the flow stays on that
    ray and its gap to the anchor contracts by ``exp(-n h)``. ``decay`` is
    that factor, ``np.exp(-level * h)`` or the same values broadcast to the
    state's shape, when the caller has it already. ``penalty`` and ``out``
    are as for ``euler_step``.
    """
    y = euler_update(coeffs, t, x, dw, h, base=x)
    p = domain.project(y)
    if decay is None:
        decay = np.exp(-level * h)
    z = np.multiply(np.subtract(y, p, out=out), decay, out=out)
    z += p  # in place: IEEE addition commutes
    return z, z - y if penalty else None


def euler_penalized(domain, coeffs, path, x0, level):
    """Integrate the penalized SDE with the explicit scheme along ``path``."""
    return _record(domain, coeffs, path, x0, level, "euler")


def splitting_penalized(domain, coeffs, path, x0, level):
    """Integrate the penalized SDE with the splitting scheme along ``path``."""
    return _record(domain, coeffs, path, x0, level, "splitting")


def _record(domain, coeffs, path, x0, level, scheme):
    """A one-path, one-level run of the sweep's step loop, recorded."""
    from .rates import _lockstep  # rates imports this module
    inc = path.increments[:, None]
    # Copied: the next step overwrites the state the loop yields.
    run = [(x[0, 0].copy(), dk[0, 0]) for x, dk, _, _ in _lockstep(
        domain, coeffs, x0, path.grid, [level], 1, scheme, None,
        [(inc, inc)], increments=True)]
    states, dk = map(np.array, zip(*run))
    # Summed from the zero first row, as 0.0 + dk: the -0.0 increments of
    # steps inside the domain accumulate to +0.0, not -0.0.
    penalty = np.cumsum(dk, axis=0)
    max_dist = float(np.max(domain.distance(states)))
    return PenalizedTrajectory(grid=path.grid, states=states, penalty=penalty,
                               max_dist=max_dist, scheme=scheme, level=level)
