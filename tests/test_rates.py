import os
import pickle
import re
import signal
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import coarsen, penalized_loop, reference_loop

from refsde.brownian import (TimeGrid, halve_increments, sample_increments,
                             sample_path)
from refsde.coefficients import CoefficientField, make_coefficients
from refsde.errors import IntegrationError, RateFitError
from refsde.geometry import Ball, Box, HalfLine, Polyhedron, row_norm
from refsde.penalized import splitting_penalized
from refsde import brownian, rates
from refsde.rates import (
    ErrorRow,
    ErrorTable,
    boundary_distance_sweep,
    brownian_modulus_table,
    error_tables,
    fit_rate,
    monotone_decreasing,
    strong_error_sweep,
    weak_compare,
    weak_rows,
    _sup_dist,
    _sup_err,
    _sweep_paths,
)
from refsde.reflected import projected_euler, skorokhod_map_halfline


def zero_field(dim):
    return CoefficientField(
        name="zero", dim=dim,
        diffusion=lambda t, x: ((0.0,) * dim,) * dim,
        drift=lambda t, x: (0.0,) * dim)


def table_from(levels, errors, stderr=0.0, p=2.0):
    rows = tuple(
        ErrorRow(level=int(n), num_paths=100, error=float(e), stderr=stderr,
                 p=p)
        for n, e in zip(levels, errors))
    return ErrorTable(rows=rows)


# -- tables and fits -----------------------------------------------------------

def test_error_table_validation():
    with pytest.raises(ValueError, match="increasing"):
        table_from([16, 8], [1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        table_from([8, 16], [-1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        table_from([8, 16], [1.0, 2.0], stderr=np.inf)


@pytest.mark.parametrize("error", [np.nan, np.inf, -np.inf])
def test_error_table_rejects_a_non_finite_error(error):
    # A NaN error passed the sign check and gave fit_rate a NaN slope; an
    # infinite one made it fail inside math.fsum.
    with pytest.raises(ValueError,
                       match="^errors must be finite and nonnegative$"):
        table_from([8, 16], [1.0, error])


@pytest.mark.parametrize("sups, p", [
    ([6.69e32, 1.0], 8),   # finite powers whose squared deviations overflow
    ([1e300, 1.0], 8),     # a power that overflows math.pow
    ([1e200, 1.0], 2),     # a square that overflows numpy's power
    ([np.inf, 1.0], 1),
], ids=["variance", "math-pow", "square", "inf-sup"])
def test_tables_raise_rate_fit_error_where_a_pooled_norm_overflows(sups, p):
    # The first level stays finite; the second names itself and p, with
    # no overflow warning on the way.
    good = [1.0, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RateFitError, match=f"at n = 32, p = {p}$"):
            error_tables([16, 32], np.array([good, sups]), [p])
        table = error_tables([16], np.array([good]), [p])[p]
    assert (table.rows[0].error, table.rows[0].stderr) == \
        rates._pooled_norm(np.array(good), p)


def test_error_tables_reject_sups_of_the_wrong_shape():
    # One row per level and at least one path: unchecked, an extra row
    # would be ignored and an empty one reported as an overflow.
    for sups in (np.ones((3, 4)), np.ones((2, 0)), np.ones(2)):
        with pytest.raises(ValueError, match="sups must be"):
            error_tables([16, 32], sups)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_error_tables_stderr_is_the_delta_method(p):
    # Written out here, not through _pooled_norm: the mean of v = sup^p
    # has standard error sd(v) / sqrt(P), and the delta method for
    # mean^(1/p) divides it by p * mean^((p - 1) / p). The means are not
    # 1, so dropping the exponent's (p - 1) changes every value.
    sups = np.array([[0.5, 1.5, 2.0, 3.25, 0.75],
                     [0.1, 0.4, 0.2, 0.3, 0.25]])
    (table,) = error_tables([8, 16], sups, [p]).values()
    for row, s in zip(table.rows, sups):
        v = s ** p
        mean = v.mean()
        assert row.error == pytest.approx(mean ** (1 / p), rel=1e-13)
        assert row.stderr == pytest.approx(
            v.std(ddof=1) / np.sqrt(v.size) / (p * mean ** ((p - 1) / p)),
            rel=1e-12)


def test_fit_rate_recovers_exact_exponents():
    n = np.array([2.0 ** k for k in range(4, 13)])
    for beta in (0.5, 0.25):
        tab = table_from(n, (np.log(n) / n) ** beta)
        fit = fit_rate(tab, "ln_n_over_n")
        assert fit.slope == pytest.approx(beta, abs=1e-12)
        assert fit.residual_rms <= 1e-12
    tab = table_from(n, 2.0 / n)
    fit = fit_rate(tab, "inverse_n")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_power_law_against_closed_form():
    # Independent oracle: the least-squares slope of log(c n^{-1/2})
    # against log(log(n)/n), computed from explicit covariance sums.
    n = np.array([2.0 ** k for k in range(4, 13)])
    errors = 3.7 * n ** -0.5
    r = np.log(np.log(n) / n)
    e = np.log(errors)
    slope_oracle = np.sum((r - r.mean()) * (e - e.mean())) \
        / np.sum((r - r.mean()) ** 2)
    fit = fit_rate(table_from(n, errors), "ln_n_over_n")
    assert fit.slope == pytest.approx(slope_oracle, abs=1e-12)
    assert fit.slope == pytest.approx(0.618834357499639, abs=1e-12)
    fit2 = fit_rate(table_from(n, errors), "inverse_n")
    assert fit2.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_band_and_errors():
    n = np.array([16.0, 32.0, 64.0, 128.0])
    tab = table_from(n, (np.log(n) / n) ** 0.5)
    fit = fit_rate(tab, band=(0.4, 0.7))
    assert fit.passed is True
    fit = fit_rate(tab, band=(0.6, None))
    assert fit.passed is False
    with pytest.raises(ValueError, match="4 rows"):
        fit_rate(table_from([2, 4, 8], [1, 1, 1]))
    with pytest.raises(ValueError, match="positive"):
        fit_rate(table_from(n, [1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="regressor"):
        fit_rate(tab, "n_cubed")


def test_fit_rate_rejects_levels_where_the_regressor_vanishes():
    # ln(n)/n is 0 at n = 1, whose log is -inf; 1/n is positive there.
    n = np.array([1.0, 2.0, 4.0, 8.0])
    tab = table_from(n, 1.0 / n)
    with pytest.raises(ValueError, match=r"ln_n_over_n .* n = \[1\]"):
        fit_rate(tab, "ln_n_over_n")
    assert fit_rate(tab, "inverse_n").slope == pytest.approx(1.0)


def test_monotone_decreasing_with_slack():
    tab = table_from([2, 4, 8, 16], [4.0, 3.0, 2.0, 1.0], stderr=0.0)
    assert monotone_decreasing(tab)
    bumpy = table_from([2, 4, 8, 16], [4.0, 3.0, 3.05, 1.0], stderr=0.1)
    assert monotone_decreasing(bumpy)        # within 2 se slack
    assert not monotone_decreasing(bumpy, sigmas=0.1)


# -- pathwise error -------------------------------------------------------------

def test_sup_norm_triangle_inequality():
    rng = np.random.default_rng(2)
    a, b, c = rng.standard_normal((3, 65, 2))
    sup = lambda u, v: np.max(np.linalg.norm(u - v, axis=-1))
    assert sup(a, c) <= sup(a, b) + sup(b, c) + 1e-15


# -- modulus of continuity -------------------------------------------------------

# Windows of 2 and 4 samples fill the sparse table exactly (rem == 0); the
# other three need a second, overlapping lookup (rem != 0).
WINDOWS = [1, 3, 17, 64, 128]


def naive_window_ranges(vals, windows):
    """Largest |v[t + k] - v[t]| over 1 <= k <= w, per path."""
    return [np.max([np.max(np.abs(vals[:, k:] - vals[:, :-k]), axis=1)
                    for k in range(1, w + 1)], axis=0)
            for w in windows]


def test_modulus_constant_and_linear():
    const = np.full((2, 129), 3.25)
    for got in rates._window_ranges(const, WINDOWS):
        assert np.all(got == 0.0)
    line = np.arange(129) * 0.25  # exact in binary
    for w, got in zip(WINDOWS, rates._window_ranges(line[None, :], WINDOWS)):
        assert got.tolist() == [0.25 * w]


def test_modulus_against_naive_scan():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((3, 129)).cumsum(axis=1)
    got = rates._window_ranges(vals, WINDOWS)
    want = naive_window_ranges(vals, WINDOWS)
    for g, w in zip(got, want):
        assert g.shape == (3,) and np.all(g == w)


def test_brownian_modulus_table_samples_within_the_block_budget(monkeypatch):
    # 64 paths on 2^10 steps, sampled _BLOCK_WORDS increments at a time,
    # and one whole path when the budget holds none: the running sums and
    # the sparse tables take about five budgets, and numpy's fixed 64 KiB
    # ufunc buffers add up to two more at budgets this small (5.9-7.2 in
    # all), never 64 paths at once. Rows are independent, so the table's
    # bytes do not depend on the chunk.
    grid = TimeGrid.from_log2(1.0, 10)
    args = (grid, [4, 16, 64, 256], 64, 7)
    want = brownian_modulus_table(*args)
    for words in (1, 3 * grid.steps + 5, 2 ** 13):
        monkeypatch.setattr(rates, "_BLOCK_WORDS", words)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = brownian_modulus_table(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * max(words, grid.steps), words
        assert got.errors.tobytes() == want.errors.tobytes()
        assert got.stderrs.tobytes() == want.stderrs.tobytes()


def test_brownian_modulus_table_rejects_non_integral_levels():
    grid = TimeGrid.from_log2(1.0, 6)
    with pytest.raises(ValueError,
                       match="^level n = 4.7 is not a positive integer$"):
        brownian_modulus_table(grid, [2, 4.7, 8, 16], 3, 3)
    # Unchecked, n = 0 divided by zero and n = -4 was "too coarse".
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"^level n = {n} is not a"):
            brownian_modulus_table(grid, [n, 8], 3, 3)
    table = brownian_modulus_table(grid, [2.0, 4.0, 8.0, 16.0], 3, 3)
    assert table.levels.tolist() == [2, 4, 8, 16]


def test_brownian_modulus_slope_smoke():
    grid = TimeGrid.from_log2(1.0, 12)
    tab = brownian_modulus_table(grid, [2 ** k for k in range(4, 11)],
                                 64, 99)
    fit = fit_rate(tab)
    assert 0.3 < fit.slope < 0.75
    assert monotone_decreasing(tab)


# -- sweeps -----------------------------------------------------------------------

# The per-path oracle for the sweep is a plain loop over single points
# (``tests/oracle.py``), not the per-path integrators, which run through the
# sweep's own step loop.

def check_sweep_against_oracle(domain, coeffs, x0, levels, num_paths, seed,
                               scheme="splitting", log2_steps=8):
    """The sweep's sups and terminal states against the per-point loops.

    The sweep keeps running maxima of squared norms and roots them at the
    end; the oracle takes the maximum of ``domain.distance`` and
    ``row_norm`` at every step. They must agree bitwise. Returns the
    sweep's result and the oracle's level states ``(P, L, M + 1, d)``.
    """
    grid = TimeGrid.from_log2(1.0, log2_steps)
    x0 = np.array(x0, dtype=float)
    res = _sweep_paths(domain, coeffs, x0, grid, levels, num_paths, seed,
                       scheme, ref_steps=grid.steps, sup_err=_sup_err,
                       sup_dist=_sup_dist)
    states = np.empty((num_paths, len(levels), grid.steps + 1, domain.dim))
    max_dist = np.empty((len(levels), num_paths))
    for pi in range(num_paths):
        path = sample_path(grid, seed, pi, dim=domain.dim)
        ref = reference_loop(domain, coeffs, path, x0)[0]
        for li, n in enumerate(levels):
            states[pi, li], _, max_dist[li, pi] = penalized_loop(
                domain, coeffs, path, x0, n, scheme)
            sup = max(float(row_norm(a - b))
                      for a, b in zip(states[pi, li], ref))
            assert res.sup_err[li, pi] == sup
            assert np.array_equal(res.terminal[li, pi], states[pi, li, -1])
        assert np.array_equal(res.ref_terminal[pi], ref[-1])
    np.testing.assert_array_equal(res.sup_dist.view(np.uint64),
                                  max_dist.view(np.uint64))
    return res, states


def test_sweep_matches_per_path_api_bitwise():
    check_sweep_against_oracle(HalfLine(0.0), make_coefficients("ou1d"),
                               [0.0], [16.0, 64.0], 6, 42)


def test_sweep_matches_per_path_api_polyhedron():
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])
    check_sweep_against_oracle(domain, make_coefficients("quadrant2d"),
                               [0.0, 0.0], [64.0], 4, 9)


SQ2 = np.sqrt(0.5)

# Small domains, so that every path leaves them and the sups are not 0.
SWEEP_DOMAINS = {
    "halfline": (HalfLine(0.0), "ou1d", [0.0]),
    "box": (Box(lower=[0.0], upper=[0.5]), "schmidt1d", [0.25]),
    "quadrant": (Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                            offsets=[0.0, 0.0]), "quadrant2d", [0.0, 0.0]),
    "triangle": (Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0], [SQ2, SQ2]],
                            offsets=[0.0, 0.0, 0.5 * SQ2]),
                 "quadrant2d", [0.1, 0.1]),
    "ball": (Ball(center=[0.5, -0.5], radius=0.5), "quadrant2d",
             [0.5, -0.5]),
}


@pytest.mark.parametrize("scheme", ["euler", "splitting"])
@pytest.mark.parametrize("name", sorted(SWEEP_DOMAINS))
def test_sweep_matches_per_path_api_every_domain(name, scheme):
    # n h = 1 at the top level, the largest the explicit scheme allows.
    domain, coeffs, x0 = SWEEP_DOMAINS[name]
    check_sweep_against_oracle(domain, make_coefficients(coeffs), x0,
                               [16.0, 256.0], 3, 17, scheme)


@pytest.mark.parametrize("name", ["halfline", "quadrant"])
def test_two_fold_sweep_matches_the_one_fold_sweeps_bitwise(name):
    # One sweep with both folds, as acceptance criteria 1 and 2 share, on
    # the running-extremes and the per-step distance fold: a same-grid
    # reference leaves the levels' increments as they are.
    domain, coeffs, x0 = SWEEP_DOMAINS[name]
    grid = TimeGrid.from_log2(1.0, 6)
    args = (domain, make_coefficients(coeffs), np.array(x0), grid,
            [16, 64, 256], 20, 7)
    both = _sweep_paths(*args, "splitting", ref_steps=grid.steps,
                        sup_dist=_sup_dist, sup_err=_sup_err)
    dist, err = boundary_distance_sweep(*args), strong_error_sweep(*args)
    assert both.sup_dist.tobytes() == dist.sup_dist.tobytes()
    assert both.sup_err.tobytes() == err.sup_err.tobytes()
    assert both.terminal.tobytes() == dist.terminal.tobytes()
    assert both.ref_terminal.tobytes() == err.ref_terminal.tobytes()


# -- sup distance from running extremes -----------------------------------------

def dist_project_calls(domain, coeffs, x0, monkeypatch):
    """The ``project`` calls that the sup distance adds to a sweep."""
    calls = []
    project = type(domain).project

    def counting(self, x, out=None):
        calls.append(x.shape)
        return project(self, x, out)

    monkeypatch.setattr(type(domain), "project", counting)
    grid = TimeGrid.from_log2(1.0, 5)
    counts = []
    for folds in ({}, {"sup_dist": _sup_dist}):
        del calls[:]
        _sweep_paths(domain, coeffs, np.array(x0), grid, [8.0, 32.0], 3, 5,
                     "splitting", ref_steps=None, **folds)
        counts.append(len(calls))
    return counts[1] - counts[0]


# name: (domain, coefficients, x0, distance project calls per sweep on a
# 2^5 grid; None for the per-step fold, once per grid time)
CLIP_DOMAINS = {
    "halfline": (HalfLine(-0.75), "ou1d", [-0.75], 1),
    "box-both-sides": (Box(lower=[0.0], upper=[0.3]), "schmidt1d", [0.1], 2),
    "negative-zero": (HalfLine(0.0), "ou1d", [-0.0], 1),
    "upper-only": (Box(lower=[-np.inf], upper=[0.1]), "ou1d", [0.0], 1),
    "two-faces": (Polyhedron(normals=[[1.0], [-1.0]], offsets=[0.2, 0.1]),
                  "ou1d", [0.0], 2),
    "faceless": (Polyhedron(normals=np.zeros((0, 1)), offsets=np.zeros(0)),
                 "ou1d", [0.0], 0),
    # Not exactly -1, so the normal stays a face, on the per-step path.
    "near-unit-normal": (Polyhedron(normals=[[-1.0 + 1e-12]],
                                    offsets=[0.0]), "ou1d", [0.0], None),
    "ball-1d": (Ball(center=[0.0], radius=0.2), "ou1d", [0.0], None),
}


@pytest.mark.parametrize("scheme", ["euler", "splitting"])
@pytest.mark.parametrize("name", sorted(CLIP_DOMAINS))
def test_one_dimensional_sup_distance_matches_oracle(name, scheme):
    domain, coeffs, x0, _ = CLIP_DOMAINS[name]
    res, states = check_sweep_against_oracle(
        domain, make_coefficients(coeffs), x0, [16.0, 256.0], 6, 23, scheme)
    if name == "faceless":
        assert not np.any(res.sup_dist.view(np.uint64))  # all +0.0
    else:  # some path leaves at every level
        assert np.all(np.any(res.sup_dist > 0.0, axis=1))
    if name == "box-both-sides":
        # Some path leaves below and some above, at every level.
        assert np.all(np.any(states.min(axis=2) < 0.0, axis=0))
        assert np.all(np.any(states.max(axis=2) > 0.3, axis=0))


@pytest.mark.parametrize("name", sorted(CLIP_DOMAINS))
def test_clip_domains_project_once_per_bound(name, monkeypatch):
    # An interval folds its distances once per finite bound at the end;
    # every other domain once per grid time (2^5 steps and time 0).
    domain, coeffs, x0, calls = CLIP_DOMAINS[name]
    got = dist_project_calls(domain, make_coefficients(coeffs), x0,
                             monkeypatch)
    assert got == (2 ** 5 + 1 if calls is None else calls)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-1.0, 0.5), width=st.floats(0.01, 1.0),
       finite=st.sampled_from([(True, True), (True, False), (False, True),
                               (False, False)]),
       u=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 64 - 1),
       scheme=st.sampled_from(["euler", "splitting"]))
def test_interval_sup_distance_matches_oracle(a, width, finite, u, seed,
                                              scheme):
    # x0 = a + u * width rounds into [a, a + width], inside every interval.
    lo = a if finite[0] else -np.inf
    hi = a + width if finite[1] else np.inf
    check_sweep_against_oracle(Box(lower=[lo], upper=[hi]),
                               make_coefficients("ou1d"), [a + u * width],
                               [8.0, 32.0], 3, seed, scheme, log2_steps=5)


@pytest.mark.parametrize("scheme", ["euler", "splitting"])
def test_sweep_guard_passes_finite_states_whose_sum_overflows(scheme):
    # Every state stays at 1e308: finite, though their sum overflows. The
    # guard must neither raise nor warn.
    grid = TimeGrid.from_log2(1.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _sweep_paths(HalfLine(0.0), zero_field(1), np.array([1e308]),
                           grid, [4.0, 16.0], 5, 3, scheme,
                           ref_steps=grid.steps, sup_err=_sup_err,
                           sup_dist=_sup_dist)
    assert np.all(res.terminal == 1e308)
    assert np.all(res.ref_terminal == 1e308)
    assert np.all(res.sup_err == 0.0) and np.all(res.sup_dist == 0.0)


def test_sweep_refined_reference_matches_per_path_api_bitwise():
    # Reference on a 4x finer grid: the penalized schemes step on block
    # sums of the fine increments and are compared at every 4th state.
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    grid = TimeGrid.from_log2(1.0, 6)
    fine = TimeGrid.from_log2(1.0, 8)
    period = fine.steps // grid.steps
    x0 = np.array([0.0])
    levels = [16.0, 256.0]
    res = _sweep_paths(domain, coeffs, x0, grid, levels, 5, 31, "splitting",
                       ref_steps=fine.steps, sup_err=_sup_err)
    for pi in range(5):
        path = sample_path(fine, 31, pi)
        ref = reference_loop(domain, coeffs, path, x0)[0]
        np.testing.assert_array_equal(res.ref_terminal[pi], ref[-1])
        for li, n in enumerate(levels):
            states = penalized_loop(domain, coeffs, coarsen(path, period),
                                    x0, n)[0]
            sup = np.max(np.linalg.norm(states - ref[::period], axis=-1))
            assert res.sup_err[li, pi] == sup


def test_lockstep_computes_increments_only_when_asked():
    # With a 4x refined reference a grid step's driver increment is the sum
    # of 4 sub-step increments, which the sweeps drop: unasked, neither it
    # nor the penalty increment is computed, and the states keep their bits.
    grid = TimeGrid.from_log2(1.0, 4)
    args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]), grid,
            [16.0, 256.0], 3, "splitting", 4 * grid.steps)

    def run(increments):
        # Snapshots: the next step overwrites the states the loop yields.
        blocks = rates._increment_blocks(grid, 4 * grid.steps, 11, range(3),
                                         1, rates._BLOCK_WORDS)
        return [(x.copy(), dk, x_ref.copy(), dy) for x, dk, x_ref, dy in
                rates._lockstep(*args, blocks, increments=increments)]

    off, on = run(False), run(True)
    assert len(off) == len(on) == grid.steps + 1
    for (x, dk, x_ref, dy), (x_on, dk_on, x_ref_on, dy_on) in zip(off, on):
        assert dk is None and dy is None
        assert dk_on.shape == x_on.shape and dy_on.shape == x_ref_on.shape
        assert x.tobytes() == x_on.tobytes()
        assert x_ref.tobytes() == x_ref_on.tobytes()


@pytest.fixture
def deadline():
    """Fail a split test that stalls instead of hanging: this process waits
    for the worker's result until the worker exits."""
    def stalled(signum, frame):
        raise TimeoutError("the split sweep stalled")
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def spare_cpu(monkeypatch, spare):
    """Split the sweeps (``spare``) or run them in one process, on any host."""
    if spare and not hasattr(os, "fork"):
        pytest.skip("the split needs os.fork")
    monkeypatch.setattr(rates, "_spare_cpu", lambda: spare)


@pytest.mark.parametrize("block_words", [1, 120])
def test_sweep_block_boundaries_do_not_change_bits(monkeypatch, deadline,
                                                   block_words):
    # d = 2 with a 4x refined reference, so the levels step on block sums
    # that differ from the reference's fine increments. With 5 paths the
    # budget of 120 words gives blocks of 3 steps and a partial last block
    # of 2 of the 32 steps in one process; split, half the budget gives
    # the 3 lower paths blocks of 2 steps and the 2 upper ones blocks of 3
    # and a last one of 2. A budget of 1 word gives one step per block.
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])
    coeffs = make_coefficients("quadrant2d")
    grid = TimeGrid.from_log2(1.0, 5)
    x0 = np.array([0.0, 0.0])
    args = (domain, coeffs, x0, grid, [16.0, 256.0], 5, 13, "splitting")
    kw = dict(ref_steps=4 * grid.steps, sup_err=_sup_err, sup_dist=_sup_dist)
    assert rates._BLOCK_WORDS >= 5 * 2 * 4 * grid.steps
    spare_cpu(monkeypatch, False)
    whole = _sweep_paths(*args, **kw)
    monkeypatch.setattr(rates, "_BLOCK_WORDS", block_words)
    for spare in (False, True):
        spare_cpu(monkeypatch, spare)
        blocked = _sweep_paths(*args, **kw)
        for key in ("sup_err", "sup_dist", "terminal", "ref_terminal"):
            b, w = getattr(blocked, key), getattr(whole, key)
            assert b.shape == w.shape and b.tobytes() == w.tobytes()


# Paths per sampler tile in the tests below.
_TILE = 32


def checked_blocks(blocks, num_paths, d, factor):
    """The pairs of ``blocks``, each checked for its layout and shapes."""
    out = list(blocks)
    for inc, inc_f in out:
        # (steps, P, d) views of (steps, d, P) memory: each step's
        # increments are one contiguous plane per coordinate.
        assert np.moveaxis(inc, -1, 1).flags.c_contiguous
        assert np.moveaxis(inc_f, -1, 1).flags.c_contiguous
        assert inc_f.shape == (factor * inc.shape[0], num_paths, d)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("num_paths", [1, _TILE - 1, _TILE + 1, 2 * _TILE + 3])
@pytest.mark.parametrize("factor", [1, 2, 4])
def test_increment_blocks_match_whole_path_sampling(monkeypatch, factor,
                                                    num_paths, d):
    # Blocks of 6 of the 16 coarse steps for all the paths, and of 3 for
    # the upper paths alone with half that budget per path, as a split
    # sweep's worker plans them; the last block partial. Sampled in tiles
    # of _TILE paths of 3 steps, so the path counts lie on both sides of
    # one tile. The block at step 3 starts at fine word 3 * factor * d,
    # which is not a multiple of 4 for factors 1 and 2 and odd d (and for
    # factor 1, d = 2), and the upper paths start past path 0.
    grid = TimeGrid.from_log2(1.0, 4)
    finest = TimeGrid(1.0, factor * grid.steps)
    monkeypatch.setattr(brownian, "_TILE_WORDS", _TILE * 3 * factor * d)
    whole = sample_increments(finest, 17, range(num_paths), d)
    upper = range(num_paths // 2, num_paths)
    for paths, steps, lengths in ((range(num_paths), 6, [6, 6, 4]),
                                  (upper, 3, [3] * 5 + [1])):
        blocks = checked_blocks(rates._increment_blocks(
            grid, finest.steps, 17, paths, d,
            steps * len(paths) * d * factor), len(paths), d, factor)
        assert [inc.shape for inc, _ in blocks] == [
            (s, len(paths), d) for s in lengths]
        want = whole[paths.start:]
        fine = np.concatenate([inc_f for _, inc_f in blocks])
        coarse = np.concatenate([inc for inc, _ in blocks])
        assert fine.tobytes() == want.transpose(1, 0, 2).tobytes()
        assert coarse.tobytes() == (
            halve_increments(want, factor).transpose(1, 0, 2).tobytes())


@pytest.mark.parametrize("most,lengths", [
    (10, [8, 8]), (7, [6, 6, 4]), (5, [4, 4, 4, 4])], ids=["10", "7", "5"])
def test_increment_blocks_are_balanced(most, lengths):
    # 16 coarse steps where ``most`` fit: the fewest blocks, of one length
    # but a shorter last one (greedy blocks of ``most`` steps leave a short
    # tail: 10 + 6, 7 + 7 + 2, 5 + 5 + 5 + 1), with the whole-path bytes,
    # for all the paths and for the upper ones alone.
    grid = TimeGrid.from_log2(1.0, 4)
    num_paths, d, factor = 3, 2, 2
    whole = sample_increments(TimeGrid(1.0, factor * grid.steps), 17,
                              range(num_paths), d)
    for paths in (range(num_paths), range(2, num_paths)):
        blocks = list(rates._increment_blocks(
            grid, factor * grid.steps, 17, paths, d,
            most * len(paths) * d * factor))
        assert [inc.shape[0] for inc, _ in blocks] == lengths
        fine = np.concatenate([inc_f for _, inc_f in blocks])
        assert fine.tobytes() == (
            whole[paths.start:].transpose(1, 0, 2).tobytes())


@pytest.mark.parametrize("factor", [1, 4])
@pytest.mark.parametrize("draw_steps,log2_steps,lengths", [
    (None, 10, {1: [512] * 2, 4: [128] * 8}),
    (7, 4, {1: [6, 6, 4], 4: [6, 6, 4]})], ids=["module-cap", "balanced"])
def test_increment_blocks_cap_each_path_draw(monkeypatch, factor, draw_steps,
                                             log2_steps, lengths):
    # d = 2, for the upper half of 5 paths with half of _BLOCK_WORDS, as a
    # split sweep's worker plans them. That budget holds all of these
    # paths' increments, so only the per-path draw cap binds: the fewest
    # blocks of at most _DRAW_WORDS // (d * factor) coarse steps, one length
    # but a shorter last one. The module's cap of 2^10 words gives 1,024
    # coarse steps 2 blocks at factor 1 and 8 at factor 4; a cap of 7 coarse
    # steps gives 16 steps 6 + 6 + 4, not 7 + 7 + 2. The bytes are those of
    # whole-path sampling.
    d, num_paths = 2, 5
    upper = range(-(-num_paths // 2), num_paths)
    grid = TimeGrid.from_log2(1.0, log2_steps)
    finest = TimeGrid(1.0, factor * grid.steps)
    if draw_steps is not None:
        monkeypatch.setattr(rates, "_DRAW_WORDS", draw_steps * d * factor)
    words = rates._BLOCK_WORDS // 2
    assert len(upper) * d * finest.steps <= words
    blocks = checked_blocks(rates._increment_blocks(
        grid, finest.steps, 17, upper, d, words), len(upper), d, factor)
    assert [inc.shape[0] for inc, _ in blocks] == lengths[factor]
    whole = sample_increments(finest, 17, range(num_paths), d)[upper.start:]
    fine = np.concatenate([inc_f for _, inc_f in blocks])
    coarse = np.concatenate([inc for inc, _ in blocks])
    assert fine.tobytes() == whole.transpose(1, 0, 2).tobytes()
    assert coarse.tobytes() == (
        halve_increments(whole, factor).transpose(1, 0, 2).tobytes())


@pytest.mark.parametrize("factor", [None, 2])
def test_one_increment_block_in_flight(monkeypatch, deadline, factor):
    # 512 paths on 2^10 steps, in blocks of 2^17 fine words (1 MiB): at
    # least 4 blocks. Each block must be garbage by the time the first tile
    # of the next one is sampled, so the sweep's allocations peak at one
    # block pair plus a tile's sampling, well below two blocks. Split, this
    # process sweeps the lower 256 paths in blocks of half the budget, and
    # the worker's allocations are its own.
    grid = TimeGrid.from_log2(1.0, 10)
    num_paths, block_words = 512, 2 ** 17
    monkeypatch.setattr(rates, "_BLOCK_WORDS", block_words)
    live, alive_at_sampling = [], []
    increment_blocks = rates._increment_blocks

    def recorded_blocks(*args):
        for pair in increment_blocks(*args):
            live.extend(weakref.ref(a) for a in pair)
            yield pair
            del pair

    def counted_sampler(*args, **kwargs):
        alive_at_sampling.append(sum(r() is not None for r in live))
        return sample_increments(*args, **kwargs)

    monkeypatch.setattr(rates, "_increment_blocks", recorded_blocks)
    monkeypatch.setattr(rates, "sample_increments", counted_sampler)
    ref_steps = None if factor is None else factor * grid.steps

    def traced_sweep(spare):
        spare_cpu(monkeypatch, spare)
        del live[:], alive_at_sampling[:]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _sweep_paths(HalfLine(0.0), make_coefficients("ou1d"),
                         np.array([0.0]), grid, [16.0, 256.0], num_paths, 5,
                         "splitting", ref_steps=ref_steps,
                         **({"sup_dist": _sup_dist} if factor is None
                            else {"sup_err": _sup_err}))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    block_bytes = 8 * block_words
    sums_bytes = 0 if factor is None else block_bytes // factor
    tile_bytes = 16 * brownian._TILE_WORDS  # the sampler's words, uniforms
    for spare in (False, True):
        peak = traced_sweep(spare)
        assert len(live) // 2 >= 4
        assert alive_at_sampling and max(alive_at_sampling) == 0
        # The fine block and the levels' block sums (a separate array only
        # with a refined reference), both half as large where this process
        # sweeps half the paths, one tile's buffers and an eighth of a block
        # for the states and the folds.
        assert peak <= ((block_bytes + sums_bytes) // (1 + spare)
                        + tile_bytes + block_bytes // 8)


def forked_pids(monkeypatch):
    """The pids ``os.fork`` returns to this process from now on."""
    pids, fork = [], os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("blocks", [2, 3, 5])
@pytest.mark.parametrize("num_paths", [_TILE - 1, _TILE + 1])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("factor", [1, 2, 4])
def test_ring_blocks_match_whole_path_sampling(monkeypatch, factor, d,
                                               num_paths, blocks):
    # Blocks planned against half the budget, as each half of a split sweep
    # plans them (and the two-slot sampler ring before it), here for the
    # upper half of the paths, sampled in tiles of _TILE paths. 32 coarse
    # steps where budgets of 22 and 14 steps give 3 and 5 blocks (11 + 11 +
    # 10, 7 + 7 + 7 + 7 + 4); 2 steps where one fills the budget are 2.
    log2_steps, budget = {2: (1, 1), 3: (5, 22), 5: (5, 14)}[blocks]
    grid = TimeGrid.from_log2(1.0, log2_steps)
    finest = TimeGrid(1.0, factor * grid.steps)
    upper = range(-(-num_paths // 2), num_paths)
    monkeypatch.setattr(brownian, "_TILE_WORDS", _TILE * 3 * factor * d)
    got = checked_blocks(rates._increment_blocks(
        grid, finest.steps, 17, upper, d,
        budget * len(upper) * d * factor // 2), len(upper), d, factor)
    assert len(got) == blocks
    whole = sample_increments(finest, 17, range(num_paths), d)[upper.start:]
    fine = np.concatenate([inc_f for _, inc_f in got])
    coarse = np.concatenate([inc for inc, _ in got])
    assert fine.tobytes() == whole.transpose(1, 0, 2).tobytes()
    assert coarse.tobytes() == (
        halve_increments(whole, factor).transpose(1, 0, 2).tobytes())


QUADRANT = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]], offsets=[0.0, 0.0])


@pytest.mark.parametrize("num_paths", [2, 3, 7])
@pytest.mark.parametrize("kind,factor", [
    ("dist", 1), ("strong", 1), ("strong", 2), ("strong", 4), ("weak", 1),
    ("weak", 2), ("weak", 4)])
def test_split_sweeps_match_the_one_process_sweep(monkeypatch, deadline,
                                                  kind, factor, num_paths):
    # Every field bytewise, with halves of several blocks: 32 steps where
    # half the budget holds 16 coarse steps of one path, so 2 to 8 blocks
    # per half. The distance sweep runs on the half-line, whose sup
    # distance is folded from running extremes; the others on the
    # quadrant, d = 2.
    grid = TimeGrid.from_log2(1.0, 5)
    if kind == "dist":
        args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]))
        sweep, kw = boundary_distance_sweep, {}
    else:
        args = (QUADRANT, make_coefficients("quadrant2d"),
                np.array([0.0, 0.5]))
        sweep = {"strong": strong_error_sweep, "weak": weak_compare}[kind]
        kw = {"reference_steps": factor * grid.steps}
    monkeypatch.setattr(rates, "_BLOCK_WORDS", 2 * 16 * factor * args[0].dim)
    args += (grid, [4.0, 64.0, 1024.0], num_paths, 11)
    pids = forked_pids(monkeypatch)
    spare_cpu(monkeypatch, False)
    one = sweep(*args, **kw)
    assert pids == []
    spare_cpu(monkeypatch, True)
    split = sweep(*args, **kw)
    assert len(pids) == 1
    assert_reaped(pids[0])
    assert split.levels == one.levels
    present = {"dist": ("terminal", "sup_dist"),
               "strong": ("terminal", "ref_terminal", "sup_err"),
               "weak": ("terminal", "ref_terminal")}[kind]
    for key in ("terminal", "ref_terminal", "sup_dist", "sup_err"):
        a, b = getattr(split, key), getattr(one, key)
        assert (a is not None) == (b is not None) == (key in present), key
        if a is not None:
            assert a.flags.c_contiguous, key
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), key


def late_blowup(paths, seen):
    """Unit diffusion; on batches of ``paths`` paths, the drift turns
    infinite from time 1/2 on. The set ``seen`` collects the batch sizes."""
    def drift(t, x):
        seen.add(x.shape[-2])
        return (np.inf if t >= 0.5 and x.shape[-2] == paths else 0.0,)
    return CoefficientField(name="late-blowup", dim=1,
                            diffusion=lambda t, x: ((1.0,),), drift=drift)


def assert_same_sweep(got, want):
    """Every field of two ``SweepResult``s bytewise."""
    assert got.levels == want.levels
    for key in ("terminal", "ref_terminal", "sup_dist", "sup_err"):
        a, b = getattr(got, key), getattr(want, key)
        assert (a is None) == (b is None), key
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), key


def test_no_sampler_outlives_a_sweep(monkeypatch, deadline):
    # The forked worker, which samples and sweeps the upper half of the
    # paths, is reaped after a whole sweep and after a failure in either
    # half. Three paths split 2 + 1, so a drift that blows up on batches of
    # 1 or 2 paths fails only the worker's half or only this process's,
    # and never the one-process sweep of all 3 paths that the split then
    # falls back to: its bytes, with one fork per sweep. On batches of 0
    # paths it never blows up, and nothing falls back.
    grid = TimeGrid.from_log2(1.0, 5)
    monkeypatch.setattr(rates, "_BLOCK_WORDS", 8)
    pids = forked_pids(monkeypatch)
    args = (np.array([0.0]), grid, [16.0, 256.0], 3, 5, "splitting", None)
    for batch in (None, 0, 2, 1):
        seen = set()
        coeffs = (make_coefficients("ou1d") if batch is None
                  else late_blowup(batch, seen))
        spare_cpu(monkeypatch, False)
        one = _sweep_paths(HalfLine(0.0), coeffs, *args, sup_dist=_sup_dist)
        spare_cpu(monkeypatch, True)
        seen.clear()
        forks = len(pids)
        with np.errstate(invalid="ignore"):
            res = _sweep_paths(HalfLine(0.0), coeffs, *args,
                               sup_dist=_sup_dist)
        assert np.all(res.sup_dist >= 0.0) and res.sup_dist.shape == (2, 3)
        assert_same_sweep(res, one)
        assert len(pids) == forks + 1
        assert_reaped(pids[-1])
        if batch is not None:
            # This process's half, then all 3 paths where a half failed.
            assert seen == ({2} if batch == 0 else {2, 3})


def test_a_failing_sampler_surfaces_in_the_parent(monkeypatch, deadline):
    # A sampler that fails only on the worker's block 2 (steps 8 to 11 of
    # its one path) leaves the worker without a result: the sweep falls
    # back to one process, whose sampler calls do not fail, with its bytes.
    # One that fails for every caller at step 8 raises its own MemoryError
    # here, as the one-process sweep does. Each time the worker is reaped.
    grid = TimeGrid.from_log2(1.0, 5)
    monkeypatch.setattr(rates, "_BLOCK_WORDS", 8)
    pids = forked_pids(monkeypatch)
    args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]), grid,
            [16.0], 3, 5)
    spare_cpu(monkeypatch, False)
    one = boundary_distance_sweep(*args)

    def failing_for(worker_only):
        def failing(grid, seed, paths, *args, step_lo=0, **kwargs):
            if step_lo == 8 and (list(paths) == [2] or not worker_only):
                raise MemoryError("no room for block 2")
            return sample_increments(grid, seed, paths, *args,
                                     step_lo=step_lo, **kwargs)
        return failing

    monkeypatch.setattr(rates, "sample_increments", failing_for(True))
    spare_cpu(monkeypatch, True)
    assert_same_sweep(boundary_distance_sweep(*args), one)
    assert len(pids) == 1
    assert_reaped(pids[0])
    monkeypatch.setattr(rates, "sample_increments", failing_for(False))
    for spare in (False, True):
        spare_cpu(monkeypatch, spare)
        with pytest.raises(MemoryError, match="^no room for block 2$") as err:
            boundary_distance_sweep(*args)
        assert type(err.value) is MemoryError
    assert len(pids) == 2
    assert_reaped(pids[1])


@pytest.mark.parametrize("kept", [0, 40], ids=["empty", "truncated"])
def test_a_worker_cut_short_mid_result_falls_back(monkeypatch, deadline,
                                                  kept):
    # The worker writes only the first ``kept`` bytes of its pickled
    # result, as one killed while it writes would: this process finds no
    # whole result and sweeps all the paths itself, with the one-process
    # bytes and one fork, and the worker is reaped.
    args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]),
            TimeGrid.from_log2(1.0, 5), [16.0, 256.0], 3, 5)
    pids = forked_pids(monkeypatch)
    spare_cpu(monkeypatch, False)
    one = boundary_distance_sweep(*args)
    monkeypatch.setattr(pickle, "dump", lambda obj, file: file.write(
        pickle.dumps(obj)[:kept]))
    spare_cpu(monkeypatch, True)
    assert_same_sweep(boundary_distance_sweep(*args), one)
    assert len(pids) == 1
    assert_reaped(pids[0])


def test_no_fork_beside_another_thread(monkeypatch, deadline):
    # The child of a multi-threaded fork may make only async-signal-safe
    # calls, so while a second thread is alive a sweep runs in one process,
    # even where two CPUs are free, with the one-process bytes. Once that
    # thread is gone, the same sweep splits again.
    if not hasattr(os, "fork"):
        pytest.skip("the split needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]),
            TimeGrid.from_log2(1.0, 5), [16.0, 256.0], 2, 5)
    pids = forked_pids(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(20.0,))
    other.start()
    try:
        assert threading.active_count() >= 2
        threaded = boundary_distance_sweep(*args)
    finally:
        release.set()
        other.join(20.0)
    assert not other.is_alive()
    assert pids == []
    assert_same_sweep(boundary_distance_sweep(*args), threaded)
    assert len(pids) == 1
    assert_reaped(pids[0])
    spare_cpu(monkeypatch, False)
    assert_same_sweep(boundary_distance_sweep(*args), threaded)


@pytest.mark.parametrize("bad, message", [
    ({"master_seed": 2 ** 64},
     "master_seed must fit in an unsigned 64-bit integer"),
    ({"x0": np.array([-1.0])}, "x0 must lie in the domain closure"),
    ({"x0": np.array([np.inf])}, "x0 must be finite"),
    ({"levels": [16.0, 4.0]},
     "levels must be nonempty, positive and strictly increasing"),
    ({"scheme": "implicit"}, "unknown scheme 'implicit'"),
    ({"reference_steps": 16}, "reference grid must refine the sweep grid"),
], ids=["seed", "outside", "non-finite", "levels", "scheme", "reference"])
def test_the_split_checks_its_inputs_before_it_forks(monkeypatch, bad,
                                                     message):
    # An input error is raised in this process, with its own type and
    # message, and nothing is forked.
    spare_cpu(monkeypatch, True)
    pids = forked_pids(monkeypatch)
    args = dict(domain=HalfLine(0.0), coeffs=make_coefficients("ou1d"),
                x0=np.array([0.0]), grid=TimeGrid.from_log2(1.0, 5),
                levels=[4.0, 16.0], num_paths=3, master_seed=5,
                scheme="splitting", reference_steps=None)
    args.update(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        strong_error_sweep(**args)
    assert pids == []


def test_sweep_rejects_a_non_finite_x0_before_any_warning(monkeypatch):
    # Unchecked, the membership test computed inf - inf and warned before
    # its ValueError. Warnings are errors here, and nothing is forked.
    spare_cpu(monkeypatch, True)
    pids = forked_pids(monkeypatch)
    args = (HalfLine(0.0), make_coefficients("ou1d"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0 in (np.inf, -np.inf, np.nan):
            for sweep in (boundary_distance_sweep, strong_error_sweep,
                          weak_compare):
                with pytest.raises(ValueError, match="^x0 must be finite$"):
                    sweep(*args, np.array([x0]), TimeGrid.from_log2(1.0, 4),
                          [4, 16], 3, 1)
    assert pids == []


def test_split_sweep_raises_the_earlier_failure_in_loop_order(monkeypatch,
                                                              deadline):
    # The drift explodes on states exactly at 0, which the deep level hits
    # on some paths. Of 7 paths split 4 + 3, both halves have bad rows, and
    # the worker's is the earlier: the split sweep raises it, with a global
    # path index, as the one-process sweep does.
    domain = HalfLine(0.0)
    coeffs = CoefficientField(
        name="explode-at-zero", dim=1,
        diffusion=lambda t, x: ((1.0,),),
        drift=lambda t, x: (np.where(x[..., 0] == 0.0, np.inf, 0.0),))
    grid = TimeGrid.from_log2(1.0, 4)
    x0 = np.array([0.25])
    levels = [4.0, 16384.0]
    num_paths, cut, seed = 7, 4, 3
    first = []
    with np.errstate(invalid="ignore"):
        for pi in range(num_paths):
            states = penalized_loop(domain, coeffs,
                                    sample_path(grid, seed, pi), x0,
                                    levels[1])[0]
            bad = ~np.isfinite(states).all(axis=-1)
            if bad.any():
                first.append((int(np.argmax(bad)), pi))
        assert min(first)[1] >= cut and any(pi < cut for _, pi in first)
        errors = []
        for spare in (False, True):
            spare_cpu(monkeypatch, spare)
            with pytest.raises(IntegrationError) as err:
                _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                             seed, "splitting", None, sup_dist=_sup_dist)
            errors.append(err.value)
    one, split = errors
    assert (one.step_index, one.path_index) == min(first)
    for field in ("step_index", "path_index", "level"):
        assert getattr(split, field) == getattr(one, field), field
    assert str(split) == str(one)


def test_sweep_rows_independent_of_batch_quadrant():
    # The projection gathers the exterior rows of each batch, so a path's
    # result must not depend on which other paths share the batch.
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])
    coeffs = make_coefficients("quadrant2d")
    grid = TimeGrid.from_log2(1.0, 7)
    x0 = np.array([0.0, 0.0])
    kw = dict(ref_steps=grid.steps, sup_err=_sup_err, sup_dist=_sup_dist)
    small = _sweep_paths(domain, coeffs, x0, grid, [16.0, 256.0], 3, 7,
                         "splitting", **kw)
    large = _sweep_paths(domain, coeffs, x0, grid, [16.0, 256.0], 10, 7,
                         "splitting", **kw)
    for key in ("sup_err", "sup_dist", "terminal"):
        np.testing.assert_array_equal(getattr(small, key),
                                      getattr(large, key)[:, :3])
    np.testing.assert_array_equal(small.ref_terminal,
                                  large.ref_terminal[:3])


def test_sweep_non_finite_guard_names_first_bad_row():
    # The drift explodes on states exactly at 0. Only the deep level, whose
    # relaxation factor exp(-n h) underflows to 0, lands there (one step
    # after its path leaves the half-line), so the first bad row is found
    # in the second level. The per-point loop is the oracle for its position.
    domain = HalfLine(0.0)
    coeffs = CoefficientField(
        name="explode-at-zero", dim=1,
        diffusion=lambda t, x: ((1.0,),),
        drift=lambda t, x: (np.where(x[..., 0] == 0.0, np.inf, 0.0),))
    grid = TimeGrid.from_log2(1.0, 4)
    x0 = np.array([0.25])
    levels = [4.0, 16384.0]
    num_paths = 6
    first = []
    with np.errstate(invalid="ignore"):
        for li, n in enumerate(levels):
            for pi in range(num_paths):
                states = penalized_loop(domain, coeffs,
                                        sample_path(grid, 5, pi), x0, n)[0]
                bad = ~np.isfinite(states).all(axis=-1)
                if bad.any():
                    first.append((int(np.argmax(bad)), li, pi))
        step, li, pi = min(first)
        assert li == 1 and pi > 0
        with pytest.raises(IntegrationError) as err:
            _sweep_paths(domain, coeffs, x0, grid, levels, num_paths, 5,
                         "splitting", ref_steps=None, sup_dist=_sup_dist)
    assert err.value.step_index == step
    assert err.value.level == levels[li]
    assert err.value.path_index == pi


def test_sweep_non_finite_guard_names_first_bad_row_2d():
    # The same on the quadrant, whose level states are (L, P, 2) views of
    # (2, L, P) memory, with a 2x refined reference alongside. The drift
    # explodes on states with a coordinate exactly at 0, except on the
    # reference's (P, 2) batch, so only the deepest level blows up.
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])

    def drift(t, x):
        hit = (x[..., 0] == 0.0) | (x[..., 1] == 0.0)
        b = np.where(hit & (x.ndim != 2), np.inf, 0.0)
        return (b, b)

    coeffs = CoefficientField(name="explode-on-axes", dim=2,
                              diffusion=lambda t, x: ((1.0, 0.0), (0.0, 1.0)),
                              drift=drift)
    grid = TimeGrid.from_log2(1.0, 4)
    fine = TimeGrid.from_log2(1.0, 5)
    x0 = np.array([0.25, 0.5])
    levels = [4.0, 64.0, 16384.0]
    num_paths = 6
    first = []
    with np.errstate(invalid="ignore"):
        for li, n in enumerate(levels):
            for pi in range(num_paths):
                path = coarsen(sample_path(fine, 5, pi, 2), 2)
                states = penalized_loop(domain, coeffs, path, x0, n)[0]
                bad = ~np.isfinite(states).all(axis=-1)
                if bad.any():
                    first.append((int(np.argmax(bad)), li, pi))
        step, li, pi = min(first)
        assert li == 2 and pi > 0
        with pytest.raises(IntegrationError, match="level n = 16384") as err:
            _sweep_paths(domain, coeffs, x0, grid, levels, num_paths, 5,
                         "splitting", ref_steps=fine.steps,
                         sup_err=_sup_err, sup_dist=_sup_dist)
    assert err.value.step_index == step
    assert err.value.level == levels[li]
    assert err.value.path_index == pi


@pytest.mark.parametrize("ref_steps, first_bad", [(None, 129), (1024, 513)])
def test_sweep_guards_the_reference_state(ref_steps, first_bad):
    # The drift is +inf on the reference's (P, d) batch from t = 0.5 on,
    # and the ou1d drift on the levels' (L, P, d) batch, so only the
    # reference blows up. Unguarded, weak_compare returned a CDF distance
    # of 1.0 and strong_error_sweep failed on non-finite standard errors.
    ou = make_coefficients("ou1d")

    def drift(t, x):
        (b,) = ou.drift(t, x)
        return (b + (np.inf if x.ndim == 2 and t >= 0.5 else 0.0),)

    coeffs = CoefficientField(name="reference-blowup", dim=1,
                              diffusion=ou.diffusion, drift=drift)
    grid = TimeGrid.from_log2(1.0, 8)
    args = (HalfLine(0.0), coeffs)
    x0 = np.array([0.5])
    levels = [16, 64, 256, 1024]
    with pytest.raises(IntegrationError, match="reference") as err:
        strong_error_sweep(*args, x0, grid, levels, 50, 3,
                           reference_steps=ref_steps)
    assert (err.value.step_index, err.value.path_index) == (first_bad, 0)
    with pytest.raises(IntegrationError, match="reference") as err:
        weak_compare(*args, x0, grid, levels, 50, 3,
                     reference_steps=ref_steps)
    assert (err.value.step_index, err.value.path_index) == (first_bad, 0)


@pytest.mark.parametrize("num_paths", [0, -3])
def test_sweeps_reject_fewer_than_one_path(num_paths):
    # Checked before anything is allocated or reduced, so neither numpy's
    # errors nor a pooled-norm overflow stand in for the real cause.
    grid = TimeGrid.from_log2(1.0, 4)
    args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]), grid,
            [4, 16], num_paths, 3)
    for sweep in (boundary_distance_sweep, strong_error_sweep, weak_compare):
        with pytest.raises(ValueError, match="^num_paths must be >= 1$"):
            sweep(*args)
    with pytest.raises(ValueError, match="^num_paths must be >= 1$"):
        brownian_modulus_table(grid, [2, 4], num_paths, 3)


@pytest.mark.parametrize("levels", [[-8, 0, 4], [-40], [0.0], [np.nan, 4]])
def test_sweeps_reject_non_positive_levels(levels):
    # Unchecked, a negative level is a penalty that pushes outward: the
    # sweeps returned a sup error of 477 at n = -8 and sup distances of
    # 1.2e16 at n = -40, with no error. The per-path integrators run the
    # same step loop, so they refuse the first level too.
    domain, coeffs, x0 = HalfLine(0.0), make_coefficients("ou1d"), [0.0]
    grid = TimeGrid(1.0, 64)
    for sweep in (boundary_distance_sweep, strong_error_sweep, weak_compare):
        with pytest.raises(ValueError, match="positive"):
            sweep(domain, coeffs, np.array(x0), grid, levels, 20, 1)
    with pytest.raises(ValueError, match="positive"):
        splitting_penalized(domain, coeffs, sample_path(grid, 1, 0), x0,
                            levels[0])


def test_error_tables_reject_non_integral_levels():
    # Truncated, these labelled the rows 16 and 32, and fit_rate fitted
    # at the wrong n.
    sups = np.ones((4, 3))
    with pytest.raises(ValueError,
                       match="^level n = 16.5 is not a positive integer$"):
        error_tables([16.5, 32.7, 64, 128], sups)
    (table,) = error_tables([16.0, 32.0, 64.0, 128.0], sups).values()
    assert [row.level for row in table.rows] == [16, 32, 64, 128]


def test_weak_rows_reject_non_integral_levels():
    args = (HalfLine(0.0), make_coefficients("ou1d"), np.array([0.0]),
            TimeGrid.from_log2(1.0, 4))
    res = weak_compare(*args, [4.0, 16.5], 3, 3)
    with pytest.raises(ValueError,
                       match="^level n = 16.5 is not a positive integer$"):
        weak_rows(res, "mean")
    rows = weak_rows(weak_compare(*args, [4.0, 16.0], 3, 3), "mean")
    assert [row.level for row in rows] == [4, 16]


def test_weak_rows_need_a_reference():
    grid = TimeGrid.from_log2(1.0, 4)
    res = boundary_distance_sweep(HalfLine(0.0), make_coefficients("ou1d"),
                                  np.array([0.0]), grid, [4, 16], 2, 3)
    assert res.ref_terminal is None and res.sup_err is None
    with pytest.raises(ValueError, match="reference"):
        weak_rows(res, "mean")


def test_sweep_euler_guard():
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    grid = TimeGrid.from_log2(1.0, 4)  # h = 1/16
    with pytest.raises(ValueError, match="unstable"):
        strong_error_sweep(domain, coeffs, np.array([0.0]), grid, [8, 32],
                           4, 0, scheme="euler")


def test_halfline_map_reference_matches_projected_euler():
    # The sweep's projected-Euler reference, against the running-maximum
    # reflection of each path's realized driver.
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    grid = TimeGrid.from_log2(1.0, 10)
    x0 = np.array([0.0])
    levels = [64, 1024]
    res = _sweep_paths(domain, coeffs, x0, grid, levels, 12, 11,
                       "splitting", ref_steps=grid.steps, sup_err=_sup_err)
    for pi in range(12):
        path = sample_path(grid, 11, pi)
        driver = reference_loop(domain, coeffs, path, x0)[3][:, 0]
        mapped = skorokhod_map_halfline(driver, 0.0, grid).states
        for li, n in enumerate(levels):
            states = penalized_loop(domain, coeffs, path, x0, n)[0]
            sup = np.max(np.abs(states - mapped))
            assert abs(res.sup_err[li, pi] - sup) <= 1e-12
    # Deeper penalization tracks the reflected reference more closely.
    res = strong_error_sweep(domain, coeffs, x0, grid, levels, 60, 11)
    tables = error_tables(res.levels, res.sup_err)
    assert tables[2.0].errors[1] < tables[2.0].errors[0]


def test_weak_compare_quiescent_matches_exactly():
    domain = HalfLine(0.0)
    grid = TimeGrid.from_log2(1.0, 6)
    res = weak_compare(domain, zero_field(1), np.array([0.5]), grid, [4, 16],
                       8, 3)
    rows = weak_rows(res, "cdf")
    assert all(r.value == 0.0 for r in rows)
    rows = weak_rows(res, "mean")
    assert all(r.value == 0.0 for r in rows)


def test_weak_compare_mean_shrinks_with_level():
    domain = HalfLine(0.0)
    coeffs = make_coefficients("ou1d")
    grid = TimeGrid.from_log2(1.0, 12)
    rows = weak_rows(weak_compare(domain, coeffs, np.array([0.0]), grid,
                                  [16, 64, 256, 1024], 400, 17), "mean")
    values = [r.value for r in rows]
    assert values[-1] < values[0]
    assert values[2] < values[0]


# Values of the d = 2 run below, as computed before the sweeps kept their
# states coordinate-major. A (P, d) terminal in (d, P) memory would switch
# the mean over paths to numpy's pairwise summation and move these bits.
WEAK_PINS = {
    "mean": ["0x1.88b94e788175ep-2", "0x1.34a0fd100954cp-3",
             "0x1.f1fc0ec8c3a39p-5", "0x1.7b7df4e454e49p-6"],
    "second_moment": ["0x1.99823023d24cbp+0", "0x1.a09e7ae46cf74p-2",
                      "0x1.2003d5fb06c60p-3", "0x1.bd0fc98c22160p-5"],
}


@pytest.mark.parametrize("functional", sorted(WEAK_PINS))
def test_weak_reductions_are_pinned(functional):
    res = weak_compare(Box(lower=[0.0, 0.0], upper=[2.0, 2.0]),
                       make_coefficients("gbm-box", sigma0=1.5),
                       np.array([0.1, 1.9]), TimeGrid.from_log2(1.0, 8),
                       [4, 16, 64, 256], 300, 11, reference_steps=512)
    rows = weak_rows(res, functional)
    assert [r.value.hex() for r in rows] == WEAK_PINS[functional]


def test_weak_compare_validates_functional():
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])
    grid = TimeGrid.from_log2(1.0, 4)
    res = weak_compare(domain, make_coefficients("quadrant2d"),
                       np.array([0.0, 0.0]), grid, [4], 2, 0)
    with pytest.raises(ValueError, match="dimension 1"):
        weak_rows(res, "cdf")
    res = weak_compare(HalfLine(0.0), make_coefficients("ou1d"),
                       np.array([0.0]), grid, [4], 2, 0)
    with pytest.raises(ValueError, match="functional"):
        weak_rows(res, "median")
