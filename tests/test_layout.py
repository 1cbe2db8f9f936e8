"""The step engine's memory layout: coordinate-major, with the same bits.

``rates._lockstep`` keeps its ``(..., d)`` states in ``(d, ...)`` memory, so
every coordinate is one contiguous plane, and ``_sample_block`` fills its
``(steps, P, d)`` increment blocks the same way. Elementwise operations give
each element the same bits whatever the strides, so the projections and the
step kernels must return, for coordinate-major inputs, the bytes they return
for the same values in C order; and the layout must survive every step.
The loop writes each step's states in place, through the ``out=`` forms of
``project``, the kernels and ``row_norm_sq``, which must give the bytes of
the allocating calls.
"""

import numpy as np
import pytest

from refsde import rates
from refsde.brownian import TimeGrid
from refsde.coefficients import CoefficientField, make_coefficients
from refsde.geometry import Ball, Box, HalfLine, Polyhedron, row_norm_sq
from refsde.penalized import euler_step, splitting_step
from refsde.reflected import projected_euler_step

SQ2 = np.sqrt(0.5)

DOMAINS = {
    "halfline": HalfLine(0.0),
    "box1d": Box(lower=[0.0], upper=[2.0]),
    "box3d": Box(lower=[0.0, -np.inf, -1.0], upper=[1.0, 2.0, np.inf]),
    "quadrant": Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                           offsets=[0.0, 0.0]),
    "product4d": Polyhedron(
        normals=[[-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                 [0.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                 [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                 [0.0, 0.0, SQ2, SQ2]],
        offsets=[0.0, 1.0, 0.0, 1.0, 0.0, 0.0, SQ2]),
    "triangle": Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0], [SQ2, SQ2]],
                           offsets=[0.0, 0.0, 3.0 * SQ2]),
    "ball": Ball(center=[0.5, -0.5], radius=1.5),
}

# Each catalog entry with a domain of its dimension.
ENTRIES = {"ou1d": "halfline", "gbm-box": "ball",
           "quadrant2d": "quadrant", "schmidt1d": "box1d"}


def coordinate_major(rng, shape, scale=1.0):
    """Normal values of ``shape`` in ``(d, ...)`` memory, with +-0.0 and 1.0
    planted on whole rows and on single entries."""
    d = shape[-1]
    x = np.moveaxis(scale * rng.standard_normal((d,) + shape[:-1]), 0, -1)
    flat = x.reshape(-1, d)  # a view: the leading axes merge
    n = flat.shape[0]
    for value in (0.0, -0.0, 1.0):
        flat[rng.integers(0, n, n // 8), rng.integers(0, d, n // 8)] = value
    flat[::7] = -0.0
    flat[3::11] = 0.0
    assert np.moveaxis(x, -1, 0).flags.c_contiguous
    return x


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_project_bytes_do_not_depend_on_the_layout(name):
    dom = DOMAINS[name]
    x = coordinate_major(np.random.default_rng(len(name)), (9, 400, dom.dim),
                         scale=1.5)
    c_order = np.ascontiguousarray(x)
    want = dom.project(c_order)
    assert dom.project(x).tobytes() == want.tobytes()
    assert dom.project(x[4]).tobytes() == want[4].tobytes()
    assert dom.project(x[4, 9]).tobytes() == want[4, 9].tobytes()


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_step_kernel_bytes_do_not_depend_on_the_layout(name):
    dom, coeffs = DOMAINS[ENTRIES[name]], make_coefficients(name)
    rng = np.random.default_rng(40 + len(name))
    x = coordinate_major(rng, (9, 400, dom.dim))
    dw = coordinate_major(rng, (400, dom.dim), scale=0.05)
    level = np.array([16.0 * 2 ** k for k in range(9)])[:, None, None]
    h, h_euler = 2.0 ** -10, 2.0 ** -14  # n h <= 1/4 for the explicit step
    decay = np.exp(-level * h)

    def outputs(x, dw):
        return [*splitting_step(dom, coeffs, 0.5, x, dw, h, level),
                *splitting_step(dom, coeffs, 0.5, x, dw, h, level,
                                decay=decay, penalty=False)[:1],
                *euler_step(dom, coeffs, 0.5, x, dw, h_euler, level),
                *projected_euler_step(dom, coeffs, 0.5, x[3], dw, h),
                *projected_euler_step(dom, coeffs, 0.5, x[3, 5], dw[5], h)]

    got = outputs(x, dw)
    want = outputs(np.ascontiguousarray(x), np.ascontiguousarray(dw))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def layouts(x):
    """``x`` in coordinate-major and in C-ordered memory."""
    return {"coordinate-major": x, "c-order": np.ascontiguousarray(x)}


@pytest.mark.parametrize("layout", ["coordinate-major", "c-order"])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_project_out_holds_the_bytes_of_the_allocating_call(name, layout):
    dom = DOMAINS[name]
    rng = np.random.default_rng(7 + len(name))
    x = layouts(coordinate_major(rng, (9, 400, dom.dim), scale=1.5))[layout]
    inside = dom.project(x)  # every point inside: the no-op path
    for batch in (x, inside, x[4], x[4, 9]):
        want = dom.project(batch).tobytes()
        for buf in layouts(np.full_like(batch, np.nan)).values():
            assert dom.project(batch, out=buf) is buf
            assert buf.tobytes() == want


@pytest.mark.parametrize("layout", ["coordinate-major", "c-order"])
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_step_kernels_out_match_the_allocating_calls(name, layout):
    dom, coeffs = DOMAINS[ENTRIES[name]], make_coefficients(name)
    rng = np.random.default_rng(60 + len(name))
    x = layouts(coordinate_major(rng, (9, 400, dom.dim)))[layout]
    dw = layouts(coordinate_major(rng, (400, dom.dim), scale=0.05))[layout]
    level = np.array([16.0 * 2 ** k for k in range(9)])[:, None, None]
    h, h_euler = 2.0 ** -10, 2.0 ** -14
    decay = np.exp(-level * h)
    full = np.empty_like(x)
    full[...] = decay
    calls = [
        (lambda x, **kw: splitting_step(dom, coeffs, 0.5, x, dw, h, level,
                                        **kw), x),
        (lambda x, **kw: splitting_step(dom, coeffs, 0.5, x, dw, h, level,
                                        decay=full, **kw), x),
        (lambda x, **kw: euler_step(dom, coeffs, 0.5, x, dw, h_euler, level,
                                    **kw), x),
        (lambda x, **kw: projected_euler_step(dom, coeffs, 0.5, x, dw, h,
                                              **kw), x[3]),
    ]
    for call, arg in calls:
        want = [a.tobytes() for a in call(arg)]
        buf = np.full_like(arg, np.nan)
        state, inc = call(arg, out=buf)
        assert state is buf and [buf.tobytes(), inc.tobytes()] == want
        own = arg.copy(order="K")  # in place, as the step loop calls them
        state, inc = call(own, out=own)
        assert state is own and [own.tobytes(), inc.tobytes()] == want


@pytest.mark.parametrize("d", [1, 2, 4])
def test_row_norm_sq_out_matches_the_allocating_call(d):
    v = coordinate_major(np.random.default_rng(d), (9, 400, d))
    for batch in layouts(v).values():
        want = row_norm_sq(batch).tobytes()
        buf = np.full(batch.shape[:-1], np.nan)
        assert row_norm_sq(batch, out=buf) is buf
        assert buf.tobytes() == want


def identity_field(dim):
    return CoefficientField(
        name="identity", dim=dim,
        diffusion=lambda t, x: tuple(tuple(float(i == j) for j in range(dim))
                                     for i in range(dim)),
        drift=lambda t, x: tuple(-0.5 * x[..., i] for i in range(dim)))


@pytest.mark.parametrize("dom, coeffs", [
    (DOMAINS["quadrant"], make_coefficients("quadrant2d")),
    (DOMAINS["box3d"], identity_field(3)),
], ids=["quadrant2d", "box3d"])
def test_lockstep_states_stay_coordinate_major(dom, coeffs):
    grid = TimeGrid.from_log2(1.0, 5)
    x0 = dom.interior_point()
    blocks = rates._increment_blocks(grid, 2 * grid.steps, 3, range(50),
                                     dom.dim, rates._BLOCK_WORDS)
    run = rates._lockstep(dom, coeffs, x0, grid, [16, 64, 256], 50,
                          "splitting", 2 * grid.steps, blocks)
    first = None
    for x, _, x_ref, _ in run:
        assert x.shape == (3, 50, dom.dim) and x_ref.shape == (50, dom.dim)
        assert np.moveaxis(x, -1, 0).flags.c_contiguous
        assert np.moveaxis(x_ref, -1, 0).flags.c_contiguous
        # Written in place: the same level and reference arrays every step.
        first = first or (x, x_ref)
        assert x is first[0] and x_ref is first[1]
    res = rates._sweep_paths(dom, coeffs, x0, grid, [16, 64, 256], 50, 3,
                             "splitting", 2 * grid.steps,
                             sup_err=rates._sup_err, sup_dist=rates._sup_dist)
    assert res.terminal.flags.c_contiguous
    assert res.ref_terminal.flags.c_contiguous
