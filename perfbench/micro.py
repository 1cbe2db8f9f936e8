"""Layer microbenchmarks: best-of-N throughput of refsde's kernels.

    python3 perfbench/micro.py --seed 20260808 --budget 4

Each case calls one public function on a batch of 1, 400 or 3600 rows and
reports the best rows per second over repeated timed loops, as
``<module>.<function>.<case>.b<batch>.rows_per_s``. A row is a point for the
domain, coefficient and step kernels and a path for the Brownian kernels
(64 steps for ``sample_increments`` and ``halve_increments``, 256 for
``brownian_modulus_table``). Inputs come from ``--seed``. A case whose
function no longer exists reads 0 and is listed under ``absent``. Prints one
JSON line; ``perfbench/run.py`` runs it in a fresh interpreter.
"""

import argparse
import json
import time

import numpy as np

BATCHES = (1, 400, 3600)
STEP = 1.0 / 4096       # the workloads' grid step
LEVEL = 256.0           # a mid-sweep penalization level; n * STEP < 1
REPEATS = 5

_QUADRANT = ([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
# The acceptance suite's triangle: x >= 0, y >= 0, x + y <= 3.
_TRIANGLE = ([[-1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]],
             [0.0, 0.0, 3.0 * np.sqrt(0.5)])
# (domain factory, a boundary point): inputs scatter around the boundary
# point, so batches mix interior and exterior rows.
DOMAINS = {
    "halfline": (lambda g: g.HalfLine(0.0), [0.0]),
    "box": (lambda g: g.Box([0.0], [2.0]), [0.0]),
    "ball": (lambda g: g.Ball([0.0, 0.0], 1.0), [1.0, 0.0]),
    "quadrant": (lambda g: g.Polyhedron(*_QUADRANT), [0.0, 0.0]),
    "triangle": (lambda g: g.Polyhedron(*_TRIANGLE), [0.0, 0.0]),
}
# Step-kernel cases: (domain, coefficient catalog entry) of a workload.
PAIRS = {"halfline": "ou1d", "quadrant": "quadrant2d", "box": "schmidt1d"}
CATALOG_ENTRIES = ("ou1d", "gbm-box", "quadrant2d", "schmidt1d")


def _points(rng, center, batch, spread=0.5):
    center = np.asarray(center, dtype=float)
    return center + spread * rng.standard_normal((batch, center.shape[0]))


def _domain(name):
    import refsde.geometry as geometry
    factory, center = DOMAINS[name]
    return factory(geometry), center


def _project(name):
    def make(rng, batch):
        domain, center = _domain(name)
        x = _points(rng, center, batch)
        project = domain.project
        return lambda: project(x)
    return make


def _step(kernel, name):
    def make(rng, batch):
        import refsde.coefficients as coefficients
        import refsde.penalized as penalized
        import refsde.reflected as reflected
        domain, center = _domain(name)
        coeffs = coefficients.make_coefficients(PAIRS[name])
        x = domain.project(_points(rng, center, batch))
        dw = np.sqrt(STEP) * rng.standard_normal(x.shape)
        if kernel == "projected_euler_step":
            fn = reflected.projected_euler_step
            return lambda: fn(domain, coeffs, 0.0, x, dw, STEP)
        fn = getattr(penalized, kernel)
        return lambda: fn(domain, coeffs, 0.0, x, dw, STEP, LEVEL)
    return make


def _coefficient_pair(entry):
    def make(rng, batch):
        import refsde.coefficients as coefficients
        coeffs = coefficients.make_coefficients(entry)
        x = rng.uniform(0.0, 2.0, size=(batch, coeffs.dim))
        drift, diffusion = coeffs.drift, coeffs.diffusion
        return lambda: (drift(0.0, x), diffusion(0.0, x))
    return make


def _sample_increments(seed):
    def make(rng, batch):
        import refsde.brownian as brownian
        grid = brownian.TimeGrid.from_log2(1.0, 6)
        paths = range(batch)
        fn = brownian.sample_increments
        return lambda: fn(grid, seed, paths, 1)
    return make


def _halve_increments(rng, batch):
    import refsde.brownian as brownian
    inc = np.sqrt(1.0 / 64) * rng.standard_normal((batch, 64, 1))
    fn = brownian.halve_increments
    return lambda: fn(inc, 4)


def _modulus_table(seed):
    def make(rng, batch):
        import refsde.brownian as brownian
        import refsde.rates as rates
        grid = brownian.TimeGrid.from_log2(1.0, 8)
        fn = rates.brownian_modulus_table
        return lambda: fn(grid, [4, 8, 16, 32], batch, seed)
    return make


def cases(seed):
    """``(case name, make(rng, batch) -> zero-argument callable)`` pairs."""
    out = [(f"geometry.project.{name}", _project(name)) for name in DOMAINS]
    out.append(("brownian.sample_increments.m64", _sample_increments(seed)))
    out.append(("brownian.halve_increments.m64f4", _halve_increments))
    out += [(f"coefficients.drift_diffusion.{entry}", _coefficient_pair(entry))
            for entry in CATALOG_ENTRIES]
    out += [("penalized.splitting_step.halfline",
             _step("splitting_step", "halfline")),
            ("penalized.splitting_step.quadrant",
             _step("splitting_step", "quadrant")),
            ("penalized.euler_step.halfline", _step("euler_step", "halfline")),
            ("reflected.projected_euler_step.quadrant",
             _step("projected_euler_step", "quadrant")),
            ("reflected.projected_euler_step.box",
             _step("projected_euler_step", "box"))]
    out.append(("rates.brownian_modulus_table.m256", _modulus_table(seed)))
    return out


def metric_names():
    return [f"{case}.b{batch}.rows_per_s"
            for case, _ in cases(0) for batch in BATCHES]


def best_rate(fn, rows, budget):
    """Rows per second of the fastest timed loop of ``fn``.

    The loop length doubles until one loop takes a tenth of ``budget``; then
    loops repeat, up to ``REPEATS``, while ``budget`` lasts, and at least
    three loops are timed.
    """
    deadline = time.perf_counter() + budget
    fn()
    number = 1
    while True:
        elapsed = _loop(fn, number)
        if elapsed >= budget / 10:
            break
        number *= 2
    times = [elapsed]
    while len(times) < REPEATS and (len(times) < 3
                                    or time.perf_counter() < deadline):
        times.append(_loop(fn, number))
    return rows * number / min(times)


def _loop(fn, number):
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def run(seed, budget):
    rng = np.random.default_rng(seed)
    all_cases = cases(seed)
    per_case = budget / (len(all_cases) * len(BATCHES))
    metrics, absent = {}, []
    for case, make in all_cases:
        for batch in BATCHES:
            name = f"{case}.b{batch}.rows_per_s"
            try:
                fn = make(rng, batch)
            except (ImportError, AttributeError, KeyError):
                absent.append(name)
                metrics[name] = 0.0
                continue
            metrics[name] = best_rate(fn, batch, per_case)
    return metrics, absent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=4.0,
                        help="seconds to spend, split evenly over the cases")
    args = parser.parse_args()
    import scipy
    metrics, absent = run(args.seed, args.budget)
    print(json.dumps({"metrics": metrics, "absent": absent,
                      "versions": {"numpy": np.__version__,
                                   "scipy": scipy.__version__}}))


if __name__ == "__main__":
    main()
