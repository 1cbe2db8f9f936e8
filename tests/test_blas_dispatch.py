"""Results do not depend on which OpenBLAS kernels run.

OpenBLAS picks its kernels for the host CPU at start-up, and
``OPENBLAS_CORETYPE`` overrides that choice. A value computed through BLAS
can change in its last bits from one core type to another: a single-vector
``np.linalg.norm`` goes through ``ddot``, and ``np.polyfit`` through LAPACK.
These tests run the projected-Euler variation on a ball and a rate fit in
child interpreters under several core types and compare their bytes.
"""

import json
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

LEVELS = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]


def noisy_table():
    """A rate table near slope 0.53 with a few percent of noise."""
    n = np.array(LEVELS, dtype=float)
    noise = np.exp(0.05 * np.random.default_rng(3).standard_normal(len(n)))
    errors = 0.3 * (np.log(n) / n) ** 0.53 * noise
    return ErrorTable(rows=tuple(
        ErrorRow(level=int(k), num_paths=400, h_fine=2.0 ** -16,
                 error=float(e), stderr=0.0, p=2.0)
        for k, e in zip(LEVELS, errors)))


CHILD = """
import hashlib, json
import numpy as np
from test_blas_dispatch import noisy_table
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
fits = [fit_rate(noisy_table(), reg) for reg in ("ln_n_over_n", "inverse_n")]
print(json.dumps({
    "variation": variation.hexdigest(),
    "fit": [[f.slope.hex(), f.intercept.hex(), f.residual_rms.hex()]
            for f in fits]}))
"""


@pytest.fixture(scope="module")
def per_coretype():
    out = {}
    for core in CORETYPES:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        out[core] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_projected_euler_variation_is_independent_of_the_blas_kernels(
        per_coretype):
    want = per_coretype[None]["variation"]
    for core in CORETYPES[1:]:
        assert per_coretype[core]["variation"] == want, core


def test_rate_fit_is_independent_of_the_blas_kernels(per_coretype):
    want = per_coretype[None]["fit"]
    for core in CORETYPES[1:]:
        assert per_coretype[core]["fit"] == want, core


def test_rate_fit_agrees_with_polyfit():
    table = noisy_table()
    for reg in ("ln_n_over_n", "inverse_n"):
        fit = fit_rate(table, reg)
        r = np.log(REGRESSORS[reg](table.levels))
        e = np.log(table.errors)
        slope, intercept = np.polyfit(r, e, 1)
        rms = np.sqrt(np.mean((e - (slope * r + intercept)) ** 2))
        np.testing.assert_allclose([fit.slope, fit.intercept, fit.residual_rms],
                                   [slope, intercept, rms],
                                   rtol=0.0, atol=1e-12)
