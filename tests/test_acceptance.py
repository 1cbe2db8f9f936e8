"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance, printing a PASS/FAIL
line (visible with ``pytest -s``). The heavy criteria integrate hundreds
of paths on a 2^16 grid and take a few minutes total.
"""

import numpy as np
import pytest

from refsde.brownian import TimeGrid, sample_increments, sample_path
from refsde.cli import parse_config, run
from refsde.coefficients import make_coefficients
from refsde.geometry import Ball, Box, HalfLine, Polyhedron, sample_points
from refsde.rates import (
    _sup_dist,
    _sup_err,
    _sweep_paths,
    brownian_modulus_table,
    error_tables,
    fit_rate,
    monotone_decreasing,
    strong_error_sweep,
    weak_compare,
    weak_rows,
)
from refsde.reflected import (
    ReflectedTrajectory,
    projected_euler,
    projected_euler_step,
    skorokhod_map_halfline,
    verify_skorokhod,
)

SEED = 20260808
LEVELS = tuple(2 ** k for k in range(4, 13))
FINE = TimeGrid.from_log2(1.0, 16)


def report(number, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict} criterion {number} ({label}): {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def quadrant():
    return Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0])


@pytest.fixture(scope="module")
def halfline_sweep():
    """Criterion 1's sup distances and criterion 2's half-line sup gaps,
    from one sweep: both integrate the same levels along the same paths.
    ``test_rates`` checks that its two folds give the public sweeps' bits."""
    return _sweep_paths(
        HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]), FINE,
        LEVELS, 400, SEED, "splitting", FINE.steps, sup_dist=_sup_dist,
        sup_err=_sup_err)


def test_criterion_1_boundary_distance_rate(halfline_sweep):
    res = halfline_sweep
    table = error_tables(res.levels, res.sup_dist, p_list=[2.0])[2.0]
    fit = fit_rate(table, "ln_n_over_n")
    decreasing = monotone_decreasing(table, sigmas=2.0)
    report(1, "boundary-distance rate",
           fit.slope >= 0.40 and decreasing,
           f"slope {fit.slope:.4f} (need >= 0.40), "
           f"decreasing net 2 SE: {decreasing}")


def test_criterion_2_polyhedral_strong_rate(halfline_sweep):
    cases = [
        ("half-line", halfline_sweep),
        ("quadrant", strong_error_sweep(
            quadrant(), make_coefficients("quadrant2d"), np.array([0.0, 0.0]),
            FINE, LEVELS, 400, SEED, scheme="splitting",
            reference_steps=FINE.steps)),
    ]
    details, ok = [], True
    for label, res in cases:
        table = error_tables(res.levels, res.sup_err, p_list=[2.0])[2.0]
        fit = fit_rate(table, "ln_n_over_n")
        decreasing = monotone_decreasing(table, sigmas=2.0)
        ok &= 0.35 <= fit.slope <= 0.70 and decreasing
        details.append(f"{label}: slope {fit.slope:.4f} in [0.35, 0.70], "
                       f"decreasing {decreasing}")
    report(2, "polyhedral strong rate", ok, "; ".join(details))


def test_criterion_3_general_domain_strong_rate():
    res = strong_error_sweep(
        Ball(center=[0.0, 0.0], radius=1.0),
        make_coefficients("quadrant2d"), np.array([0.0, 0.0]), FINE,
        LEVELS, 400, SEED, scheme="splitting",
        reference_steps=FINE.steps)
    table = error_tables(res.levels, res.sup_err, p_list=[2.0])[2.0]
    fit = fit_rate(table, "ln_n_over_n")
    decreasing = monotone_decreasing(table, sigmas=2.0)
    report(3, "general-domain strong rate",
           fit.slope >= 0.20 and decreasing,
           f"slope {fit.slope:.4f} (need >= 0.20), decreasing {decreasing}")


def test_criterion_4_skorokhod_oracle_cross_validation():
    grid = TimeGrid.from_log2(1.0, 14)
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    num_paths = 100
    h = grid.step

    # Lockstep over all paths: projected Euler against the incremental
    # running-maximum reflection of its own realized driver.
    inc = sample_increments(grid, SEED, range(num_paths), 1)
    x = np.zeros((num_paths, 1))
    driver = np.zeros(num_paths)
    deficit = np.zeros(num_paths)
    worst = 0.0
    for k in range(grid.steps):
        x, dy = projected_euler_step(domain, coeffs, k * h, x, inc[:, k], h)
        driver = driver + dy[:, 0]
        np.maximum(deficit, -driver, out=deficit)
        worst = max(worst, float(np.max(np.abs(x[:, 0]
                                               - (driver + deficit)))))

    # Spot check: the per-path constructions agree to the same tolerance.
    spot_ok = True
    for i in range(3):
        path = sample_path(grid, SEED, i)
        ref = projected_euler(domain, coeffs, path, np.array([0.0]))
        mapped = skorokhod_map_halfline(ref.driver[:, 0], 0.0, grid)
        spot_gap = float(np.max(np.abs(ref.states - mapped.states)))
        spot_ok &= spot_gap <= 1e-12

    report(4, "Skorokhod oracle cross-validation",
           worst <= 1e-12 and spot_ok,
           f"max pointwise gap {worst:.3e} over {num_paths} paths "
           f"(need <= 1e-12)")


def test_criterion_5_skorokhod_contract_suite():
    ok = True
    details = []

    # Half-line map output on random drivers.
    rng = np.random.default_rng(SEED)
    worst = np.zeros(4)
    for _ in range(50):
        y = np.concatenate([[0.0], rng.standard_normal(256).cumsum() * 0.1])
        rep = verify_skorokhod(skorokhod_map_halfline(y, 0.0, None),
                               num_samples=1000, seed=3)
        worst = np.maximum(worst, [rep.containment_violation,
                                   rep.flatness_violation,
                                   rep.direction_violation,
                                   rep.decomposition_residual])
    ok &= (worst[0] <= 1e-10 and worst[1] <= 1e-12 and worst[2] <= 1e-9
           and worst[3] <= 1e-10)
    details.append(f"map worst (cont, flat, dir, decomp) = "
                   f"({worst[0]:.1e}, {worst[1]:.1e}, {worst[2]:.1e}, "
                   f"{worst[3]:.1e})")

    # Projected Euler references on a polyhedron and a ball.
    grid = TimeGrid.from_log2(1.0, 12)
    for label, domain in [("quadrant", quadrant()),
                          ("ball", Ball(center=[0.0, 0.0], radius=1.0))]:
        coeffs = make_coefficients("quadrant2d")
        for i in range(3):
            traj = projected_euler(domain, coeffs,
                                   sample_path(grid, SEED + 1, i, dim=2),
                                   np.array([0.0, 0.0]))
            rep = verify_skorokhod(traj, num_samples=1000, seed=11)
            ok &= (rep.containment_violation <= 1e-10
                   and rep.flatness_violation <= 1e-12
                   and rep.direction_violation <= 1e-9)
        details.append(f"{label} reference passes")

    # Planted defects are rejected.
    y = np.concatenate([[0.5], 0.5 + rng.standard_normal(127).cumsum() * 0.2])
    clean = skorokhod_map_halfline(y, 0.0, None)
    idx = int(np.argmax(clean.states[1:, 0] > 0.3)) + 1
    k_bad = clean.regulator.copy()
    k_bad[idx:] += 0.1
    v_bad = clean.variation.copy()
    v_bad[idx:] += 0.1
    rep = verify_skorokhod(ReflectedTrajectory(
        grid=None, domain=clean.domain, states=clean.states,
        regulator=k_bad, variation=v_bad, driver=clean.driver))
    ok &= rep.flatness_violation >= 0.1
    x_bad = clean.states.copy()
    x_bad[idx] = -0.2
    rep = verify_skorokhod(ReflectedTrajectory(
        grid=None, domain=clean.domain, states=x_bad,
        regulator=clean.regulator, variation=clean.variation,
        driver=clean.driver))
    ok &= rep.containment_violation >= 0.2
    push = int(np.argmax(np.diff(clean.variation) > 0.0)) + 1
    k_flip = clean.regulator.copy()
    k_flip[push:] -= 2.0 * (clean.regulator[push] - clean.regulator[push - 1])
    rep = verify_skorokhod(ReflectedTrajectory(
        grid=None, domain=clean.domain, states=clean.states,
        regulator=k_flip, variation=clean.variation, driver=clean.driver))
    ok &= rep.direction_violation > 0.1
    details.append("planted defects rejected")

    report(5, "Skorokhod contract suite", ok, "; ".join(details))


def test_criterion_6_geometry_property_suite():
    domains = [
        HalfLine(0.0),
        Box(lower=[-1.0, 0.0], upper=[2.0, np.inf]),
        Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0],
                            [np.sqrt(0.5), np.sqrt(0.5)]],
                   offsets=[0.0, 0.0, 3.0 * np.sqrt(0.5)]),
        Ball(center=[0.5, -0.5], radius=1.5),
    ]
    ok = True
    worst_idem = worst_exp = worst_vi = 0.0
    for j, dom in enumerate(domains):
        rng = np.random.default_rng(SEED + j)
        x = rng.standard_normal((10_000, dom.dim)) * 4.0
        y = rng.standard_normal((10_000, dom.dim)) * 4.0
        px, py = dom.project(x), dom.project(y)
        idem = float(np.max(np.linalg.norm(dom.project(px) - px, axis=-1)))
        exp = float(np.max(np.linalg.norm(px - py, axis=-1)
                           - np.linalg.norm(x - y, axis=-1)))
        members = sample_points(dom, 200, seed=j)
        gap = x - px
        vi = float(np.max(members @ gap.T - np.sum(px * gap, axis=-1)))
        worst_idem = max(worst_idem, idem)
        worst_exp = max(worst_exp, exp)
        worst_vi = max(worst_vi, vi)
    ok = worst_idem <= 1e-10 and worst_exp <= 1e-10 and worst_vi <= 1e-9
    report(6, "geometry property suite", ok,
           f"idempotence {worst_idem:.1e} (<=1e-10), nonexpansive excess "
           f"{worst_exp:.1e} (<=1e-10), variational {worst_vi:.1e} (<=1e-9)")


def test_criterion_7_modulus_of_continuity_rate():
    table = brownian_modulus_table(FINE, LEVELS, 400, SEED, p=2.0)
    fit = fit_rate(table, "ln_n_over_n")
    report(7, "Brownian modulus rate", 0.40 <= fit.slope <= 0.60,
           f"slope {fit.slope:.4f} (need in [0.40, 0.60])")


def test_criterion_8_weak_convergence_probe():
    rows = weak_rows(weak_compare(
        Box(lower=[0.0], upper=[2.0]), make_coefficients("schmidt1d"),
        np.array([0.9]), FINE, [16, 64, 256, 1024], 2000, SEED,
        scheme="splitting", reference_steps=FINE.steps), "cdf")
    first, last = rows[0].value, rows[-1].value
    factor = first / last if last > 0 else np.inf
    report(8, "weak-convergence probe", factor >= 2.0,
           f"CDF distance {first:.4f} at n=16 vs {last:.4f} at n=1024, "
           f"factor {factor:.2f} (need >= 2)")


def _acceptance_config(kind, **overrides):
    cfg = {
        "domain": {"type": "halfline", "lower": 0.0},
        "coefficients": {"name": "ou1d", "kappa": 1.0, "sigma0": 1.0},
        "x0": [0.0],
        "horizon_T": 1.0,
        "log2_fine_steps": 16,
        "master_seed": SEED,
        "num_paths": 400,
        "n_list": list(LEVELS),
        "scheme": "splitting",
        "p_list": [2],
    }
    cfg.update(overrides)
    return parse_config(cfg, kind)


def test_criterion_9_determinism(tmp_path):
    ok = True
    details = []

    # The full-size criterion-1 configuration, run twice through the CLI.
    cfg = _acceptance_config("dist-rate")
    run(cfg, str(tmp_path / "a"))
    run(cfg, str(tmp_path / "b"))
    for name in ("errors.csv", "rate_report.json", "manifest.json"):
        ok &= (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    details.append("dist-rate config bitwise reproducible at full size")

    # Reduced-size strong-rate and weak-compare runs; per-path results do
    # not depend on batch composition, so reproducibility at reduced size
    # exercises the same reduction machinery.
    strong = _acceptance_config(
        "strong-rate", log2_fine_steps=12, num_paths=60,
        reference={"scheme": "projected_euler", "log2_steps": 12})
    run(strong, str(tmp_path / "s1"))
    run(strong, str(tmp_path / "s2"))
    ok &= (tmp_path / "s1" / "errors.csv").read_bytes() == \
        (tmp_path / "s2" / "errors.csv").read_bytes()

    weak = _acceptance_config(
        "weak-compare", log2_fine_steps=12, num_paths=100,
        domain={"type": "box", "lower": [0.0], "upper": [2.0]},
        coefficients={"name": "schmidt1d"}, x0=[0.9],
        n_list=[16, 256], functional="cdf")
    run(weak, str(tmp_path / "w1"))
    run(weak, str(tmp_path / "w2"))
    ok &= (tmp_path / "w1" / "errors.csv").read_bytes() == \
        (tmp_path / "w2" / "errors.csv").read_bytes()
    details.append("strong-rate and weak-compare reproducible")

    report(9, "determinism", ok, "; ".join(details))
