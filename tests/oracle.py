"""Plain reference implementations that the library is tested against.

``refsde.rates._lockstep`` advances batches of levels and paths, and both the
sweeps and the per-path integrators run through it. ``penalized_loop`` and
``reference_loop`` call the step kernels on one ``(d,)`` point with a scalar
level, one grid step at a time, and accumulate each field step by step as it
is defined. They do not guard against non-finite states. ``coarsen`` restricts
a path to a coarser grid, and ``ball_project`` and ``ball_boundary_distance``
are the ball's projection and boundary distance as broadcasts over the last
axis. ``field_arrays`` assembles a field's entries
into a ``(..., d, d)`` diffusion matrix and a ``(..., d)`` drift, and
``matrix_update`` is the Euler update as the broadcast matrix expression
``x + sigma @ dw + h b``, whose bits ``coefficients.euler_update`` must keep.
"""

import numpy as np

from refsde.brownian import BrownianPath, TimeGrid, halve_increments
from refsde.geometry import row_norm
from refsde.penalized import euler_step, splitting_step
from refsde.reflected import projected_euler_step


def penalized_loop(domain, coeffs, path, x0, level, scheme="splitting"):
    """States ``(M+1, d)``, cumulative penalty and sup distance of a level."""
    step = {"euler": euler_step, "splitting": splitting_step}[scheme]
    h = path.grid.step
    x = np.asarray(x0, dtype=float)
    states = [x]
    penalty = [np.zeros_like(x)]
    for k, dw in enumerate(path.increments):
        x, dk = step(domain, coeffs, k * h, x, dw, h, level)
        states.append(x)
        penalty.append(penalty[-1] + dk)
    max_dist = max(float(domain.distance(x)) for x in states)
    return np.array(states), np.array(penalty), max_dist


def reference_loop(domain, coeffs, path, x0):
    """States, regulator, variation and driver of the projected Euler
    reference."""
    h = path.grid.step
    x = np.asarray(x0, dtype=float)
    states, driver = [x], [x]
    regulator, variation = [np.zeros_like(x)], [0.0]
    for k, dw in enumerate(path.increments):
        x_next, dy = projected_euler_step(domain, coeffs, k * h, x, dw, h)
        dk = x_next - (x + dy)
        states.append(x_next)
        driver.append(driver[-1] + dy)
        regulator.append(regulator[-1] + dk)
        variation.append(variation[-1] + row_norm(dk))
        x = x_next
    return (np.array(states), np.array(regulator), np.array(variation),
            np.array(driver))


def coarsen(path, factor):
    """The same Brownian path on a grid coarser by the power of two
    ``factor``: its increments are the dyadic block sums of ``path``'s."""
    return BrownianPath(
        grid=TimeGrid(path.grid.horizon, path.grid.steps // factor),
        increments=halve_increments(path.increments, factor),
        master_seed=path.master_seed, path_index=path.path_index)


def ball_project(ball, x):
    """Projection onto ``ball`` as whole-array operations over ``(..., d)``."""
    delta = x - ball.center
    r = row_norm(delta)
    outside = r > ball.radius
    if not np.any(outside):
        return x
    safe_r = np.where(outside, r, 1.0)
    scaled = ball.center + delta * (ball.radius / safe_r)[..., None]
    return np.where(outside[..., None], scaled, x)


def ball_boundary_distance(ball, x):
    """``|R - |x - c||`` as one broadcast over the last axis."""
    return np.abs(ball.radius - row_norm(x - ball.center))


def field_arrays(field, t, x):
    """The diffusion as ``(..., d, d)`` and the drift as ``(..., d)``."""
    batch = np.shape(x)[:-1]
    sigma = np.array([[np.broadcast_to(e, batch) for e in row]
                      for row in field.diffusion(t, x)], dtype=float)
    drift = np.array([np.broadcast_to(e, batch) for e in field.drift(t, x)],
                     dtype=float)
    return np.moveaxis(sigma, (0, 1), (-2, -1)), np.moveaxis(drift, 0, -1)


def matvec(sigma, vec):
    """``sigma @ vec`` over broadcast leading axes, one column at a time."""
    out = sigma[..., :, 0] * vec[..., None, 0]
    for j in range(1, vec.shape[-1]):
        out = out + sigma[..., :, j] * vec[..., None, j]
    return out


def matrix_update(field, t, x, dw, h, base=None):
    """``base + sigma dw + h b`` through the matrix, or ``sigma dw + h b``."""
    sigma, drift = field_arrays(field, t, x)
    m = matvec(sigma, dw)
    return (m if base is None else base + m) + h * drift
