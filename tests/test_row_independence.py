"""Row independence: a batched call gives the bytes of row-by-row calls.

Every domain operation and step kernel acts row by row, so a row's result
does not depend on its batch, its position in it or the batch's strides.
The sweep relies on it, and so do the per-path integrators, which are
one-path runs of the sweep's step loop.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from refsde.coefficients import CATALOG, make_coefficients
from refsde.geometry import Ball, Box, HalfLine, Polyhedron
from refsde.penalized import euler_step, splitting_step
from refsde.reflected import projected_euler_step

SQ2 = np.sqrt(0.5)

DOMAINS = {
    "halfline": HalfLine(0.0),
    "halfline-shifted": HalfLine(-0.75),
    "box1d": Box(lower=[0.0], upper=[2.0]),
    "box2d": Box(lower=[0.0, -1.0], upper=[2.0, np.inf]),
    "box2d-positive": Box(lower=[0.5, 0.5], upper=[2.0, 2.0]),
    "box3d": Box(lower=[0.0, -1.0, -np.inf], upper=[2.0, 0.0, 0.0]),
    "quadrant": Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                           offsets=[0.0, 0.0]),
    "triangle": Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0], [SQ2, SQ2]],
                           offsets=[0.0, 0.0, 3.0 * SQ2]),
    "wedge": Polyhedron(normals=[[-np.sin(0.3), np.cos(0.3)],
                                 [-np.sin(0.3), -np.cos(0.3)]],
                        offsets=[0.0, 0.0]),
    # Coordinate 0 clipped to [0, 1]; a triangle couples 1 and 2.
    "product3d": Polyhedron(normals=[[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                     [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
                                     [0.0, SQ2, SQ2]],
                            offsets=[0.0, 1.0, 0.0, 0.0, SQ2]),
    "ball": Ball(center=[0.5, -0.5], radius=1.5),
    "ball-origin": Ball(center=[0.0, 0.0], radius=1.0),
}

KERNELS = ("euler_step", "splitting_step", "projected_euler_step")


def signed_batch(rng, domain, shape):
    """A ``shape + (d,)`` batch of interior, exterior and boundary rows with
    ``+0.0`` and ``-0.0`` entries at scattered positions."""
    d = domain.dim
    x = rng.standard_normal(shape + (d,)) * rng.choice([0.01, 1.0, 4.0])
    flat = x.reshape(-1, d)
    n = len(flat)
    on_boundary = rng.random(n) < 0.25
    far = 3.0 * rng.standard_normal((n, d))
    flat[on_boundary] = domain.project(far)[on_boundary]
    zeros = rng.random(flat.shape) < 0.2
    flat[zeros] = np.where(rng.random(flat.shape) < 0.5, -0.0, 0.0)[zeros]
    flat[rng.random(n) < 0.05] = -0.0
    return x


def strided(x):
    """The rows of ``x`` as a view whose last two axes are not contiguous."""
    wide = np.zeros(x.shape[:-2] + (2 * x.shape[-2], x.shape[-1] + 1))
    view = wide[..., ::2, :x.shape[-1]]
    view[...] = x
    return view


def assert_rows(batched, row_results):
    want = np.stack([np.asarray(r) for r in row_results])
    got = np.asarray(batched)
    assert got.shape[got.ndim - want.ndim + 1:] == want.shape[1:]
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(DOMAINS)),
       seed=st.integers(0, 2 ** 32 - 1),
       t=st.sampled_from([0.0, 0.5]),
       h=st.sampled_from([2.0 ** -12, 2.0 ** -4]))
def test_batches_give_the_bytes_of_row_by_row_calls(name, seed, t, h):
    domain = DOMAINS[name]
    rng = np.random.default_rng(seed)
    levels = rng.choice([4.0, 64.0, 512.0, 1e5], size=3)
    x = signed_batch(rng, domain, (3, 17))
    rows = x.reshape(-1, domain.dim)
    for batch in (x, strided(x)):
        for op in (domain.project, domain.distance, domain.boundary_distance):
            assert_rows(op(batch), [op(row) for row in rows])

    dw = signed_batch(rng, domain, (17,)) * np.sqrt(h)
    column = levels[:, None, None]
    for entry in CATALOG:
        coeffs = make_coefficients(entry)
        if coeffs.dim != domain.dim:
            continue
        for kernel in KERNELS:
            for batch, inc in ((x, dw), (strided(x), strided(dw[None])[0])):
                if kernel == "projected_euler_step":
                    out = projected_euler_step(domain, coeffs, t, batch[0],
                                               inc, h)
                    singles = [projected_euler_step(domain, coeffs, t,
                                                    x[0, p], dw[p], h)
                               for p in range(x.shape[1])]
                else:
                    step = {"euler_step": euler_step,
                            "splitting_step": splitting_step}[kernel]
                    out = step(domain, coeffs, t, batch, inc, h, column)
                    singles = [step(domain, coeffs, t, x[li, p], dw[p], h,
                                    float(n))
                               for li, n in enumerate(levels)
                               for p in range(x.shape[1])]
                for i in range(2):
                    assert_rows(out[i], [s[i] for s in singles])
