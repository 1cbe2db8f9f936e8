"""Plain per-point stepping loops: the oracle for the library's step loop.

``refsde.rates._lockstep`` advances batches of levels and paths, and both the
sweeps and the per-path integrators run through it. These loops call the
step kernels on one ``(d,)`` point with a scalar level, one grid step at a
time, and accumulate each field step by step as it is defined. They do not
guard against non-finite states.
"""

import numpy as np

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
