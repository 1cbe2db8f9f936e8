"""Results do not depend on which OpenBLAS or numpy SIMD kernels run.

OpenBLAS picks its kernels for the host CPU at start-up, and
``OPENBLAS_CORETYPE`` overrides that choice. A value computed through BLAS
can change in its last bits from one core type to another: a single-vector
``np.linalg.norm`` goes through ``ddot``, and ``np.polyfit`` through LAPACK.
numpy likewise dispatches its ufuncs to the best SIMD level of the CPU, and
``NPY_DISABLE_CPU_FEATURES`` turns levels off: its AVX-512 (``X86_V4``)
``np.log`` differs in the last bit from the other levels on a few inputs.
Its AVX-512 ``power`` likewise differs on a few percent of inputs for
exponents other than 1 and 2. These tests run the projected-Euler variation
on a ball, rate fits and pooled L^p norms in child interpreters under
several core types and SIMD levels and compare their bytes. The children
also evaluate the whole-array calls of the coordinate-major step engine,
``quadrant2d``'s ``sin`` and ``cos`` and the slab clips of a box, on
coordinate-major and C-ordered states, next to the per-column calls on
strided columns, which must all give the same bytes at every SIMD level.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refsde.rates import REGRESSORS, ErrorRow, ErrorTable, fit_rate

ROOT = Path(__file__).resolve().parents[1]

# None keeps the kernels OpenBLAS picks for this host.
CORETYPES = (None, "Haswell", "Sandybridge", "SkylakeX")
# numpy SIMD levels to turn off, through NPY_DISABLE_CPU_FEATURES.
SIMD_OFF = ("X86_V4", "X86_V4 X86_V3")

LEVELS = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]

# With this seed, numpy's AVX-512 log of one error of ``noisy_table`` is one
# ulp away from its log at the lower SIMD levels.
LOG_DISPATCH_SEED = 213

# Moment orders whose powers numpy's AVX-512 ``power`` rounds differently
# from its lower SIMD levels on a few percent of inputs.
POOLED_P = (1.5, 3.0, 4.0, 8.0)


def noisy_table(seed=3):
    """A rate table near slope 0.53 with a few percent of noise.

    Built with scalar ``math`` functions, so that its bits are the same
    under every SIMD level.
    """
    z = np.random.default_rng(seed).standard_normal(len(LEVELS)).tolist()
    return ErrorTable(rows=tuple(
        ErrorRow(level=n, num_paths=400,
                 error=0.3 * (math.log(n) / n) ** 0.53 * math.exp(0.05 * v),
                 stderr=0.0, p=2.0)
        for n, v in zip(LEVELS, z)))


CHILD = """
import hashlib, json
import numpy as np
from test_blas_dispatch import LOG_DISPATCH_SEED, POOLED_P, noisy_table
from refsde.brownian import TimeGrid, sample_path
from refsde.coefficients import make_coefficients
from refsde.geometry import Ball, Box
from refsde.rates import _tables, fit_rate
from refsde.reflected import projected_euler

ball = Ball(center=[0.0, 0.0], radius=1.0)
coeffs = make_coefficients("quadrant2d")
grid = TimeGrid.from_log2(1.0, 10)
variation = hashlib.sha256()
for i in range(5):
    traj = projected_euler(ball, coeffs, sample_path(grid, 5, i, dim=2),
                           np.array([0.5, 0.0]))
    variation.update(traj.variation.tobytes())
fits = [fit_rate(noisy_table(seed), reg) for seed in (3, LOG_DISPATCH_SEED)
        for reg in ("ln_n_over_n", "inverse_n")]
# Sup-like values from the bit generator's uniform doubles, which do not
# depend on the SIMD level.
sups = np.random.default_rng(11).random((4, 2000)) * 3.0
pooled = _tables([16, 32, 64, 128], sups, 2000, POOLED_P)
# Two coordinates in (2, N) memory, with signed zeros and NaN planted.
planes = np.random.default_rng(12).standard_normal((2, 4000)) * 2.0
planes[:, ::9], planes[:, 4::9] = -0.0, 0.0
planes[0, 2::17], planes[1, 5::23] = np.nan, np.nan
boxes = [Box(lower=[0.0, 0.0], upper=[np.inf, np.inf]),
         Box(lower=[-np.inf, -np.inf], upper=[0.0, 0.0]),
         Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])]
layout = {}
for name, x in (("coordinate_major", planes.T),
                ("c_order", np.ascontiguousarray(planes.T))):
    (_, s1), (s0, _) = coeffs.diffusion(0.0, x)
    out = [s1, s0, *coeffs.drift(0.0, x)] + [box.project(x) for box in boxes]
    layout[name] = hashlib.sha256(b"".join(a.tobytes() for a in out))
x = np.ascontiguousarray(planes.T)  # each x[..., j] a strided column
cols = [x[..., 1], x[..., 0]]
out = ([0.1 * np.sin(c) for c in cols] + [0.5 * np.cos(c) for c in cols]
       + [np.stack([f(c) for c in cols[::-1]], axis=-1) for f in (
           lambda c: np.maximum(0.0, c), lambda c: np.minimum(0.0, c),
           lambda c: np.clip(c, -1.0, 1.0))])
layout["columns"] = hashlib.sha256(b"".join(a.tobytes() for a in out))
print(json.dumps({
    "layout": {name: h.hexdigest() for name, h in layout.items()},
    "variation": variation.hexdigest(),
    "fit": [[f.slope.hex(), f.intercept.hex(), f.residual_rms.hex()]
            for f in fits],
    "pooled": [[r.error.hex(), r.stderr.hex()]
               for p in POOLED_P for r in pooled[p].rows]}))
"""


def run_child(coretype=None, simd_off=None):
    """The child's result, with the dispatch variables set for it alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    for name, value in (("OPENBLAS_CORETYPE", coretype),
                        ("NPY_DISABLE_CPU_FEATURES", simd_off)):
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def per_coretype():
    return {core: run_child(coretype=core) for core in CORETYPES}


@pytest.fixture(scope="module")
def per_simd_level():
    return {off: run_child(simd_off=off) for off in SIMD_OFF}


def test_projected_euler_variation_is_independent_of_the_blas_kernels(
        per_coretype):
    want = per_coretype[None]["variation"]
    for core in CORETYPES[1:]:
        assert per_coretype[core]["variation"] == want, core


def test_rate_fit_is_independent_of_the_blas_kernels(per_coretype):
    want = per_coretype[None]["fit"]
    for core in CORETYPES[1:]:
        assert per_coretype[core]["fit"] == want, core


def test_rate_fit_is_independent_of_the_simd_level(per_coretype,
                                                   per_simd_level):
    want = per_coretype[None]["fit"]
    for off in SIMD_OFF:
        assert per_simd_level[off]["fit"] == want, off


def test_pooled_norm_is_independent_of_the_simd_level(per_coretype,
                                                      per_simd_level):
    want = per_coretype[None]["pooled"]
    for off in SIMD_OFF:
        assert per_simd_level[off]["pooled"] == want, off


def test_whole_array_calls_match_columns_at_every_simd_level(
        per_coretype, per_simd_level):
    want = per_coretype[None]["layout"]
    assert len(set(want.values())) == 1, want
    for off in SIMD_OFF:
        assert per_simd_level[off]["layout"] == want, off


def test_rate_fit_agrees_with_polyfit():
    table = noisy_table()
    for reg in ("ln_n_over_n", "inverse_n"):
        fit = fit_rate(table, reg)
        r = np.log([REGRESSORS[reg](n) for n in table.levels])
        e = np.log(table.errors)
        slope, intercept = np.polyfit(r, e, 1)
        rms = np.sqrt(np.mean((e - (slope * r + intercept)) ** 2))
        np.testing.assert_allclose([fit.slope, fit.intercept, fit.residual_rms],
                                   [slope, intercept, rms],
                                   rtol=0.0, atol=1e-12)
