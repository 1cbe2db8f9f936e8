"""Results do not depend on which OpenBLAS or numpy SIMD kernels run.

OpenBLAS picks its kernels for the host CPU at start-up, and
``OPENBLAS_CORETYPE`` overrides that choice. A value computed through BLAS
can change in its last bits from one core type to another: a single-vector
``np.linalg.norm`` goes through ``ddot``, and ``np.polyfit`` through LAPACK.
numpy likewise dispatches its ufuncs to the best SIMD level of the CPU, and
``NPY_DISABLE_CPU_FEATURES`` turns levels off: its AVX-512 (``X86_V4``)
``np.log`` differs in the last bit from the other levels on a few inputs.
These tests run the projected-Euler variation on a ball and rate fits in
child interpreters under several core types and SIMD levels and compare
their bytes.
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


def noisy_table(seed=3):
    """A rate table near slope 0.53 with a few percent of noise.

    Built with scalar ``math`` functions, so that its bits are the same
    under every SIMD level.
    """
    z = np.random.default_rng(seed).standard_normal(len(LEVELS)).tolist()
    return ErrorTable(rows=tuple(
        ErrorRow(level=n, num_paths=400, h_fine=2.0 ** -16,
                 error=0.3 * (math.log(n) / n) ** 0.53 * math.exp(0.05 * v),
                 stderr=0.0, p=2.0)
        for n, v in zip(LEVELS, z)))


CHILD = """
import hashlib, json
import numpy as np
from test_blas_dispatch import LOG_DISPATCH_SEED, noisy_table
from refsde.brownian import TimeGrid, sample_path
from refsde.coefficients import make_coefficients
from refsde.geometry import Ball
from refsde.rates import fit_rate
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
print(json.dumps({
    "variation": variation.hexdigest(),
    "fit": [[f.slope.hex(), f.intercept.hex(), f.residual_rms.hex()]
            for f in fits]}))
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
