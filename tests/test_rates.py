import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from oracle import coarsen, penalized_loop, reference_loop

from refsde.brownian import (TimeGrid, halve_increments, sample_increments,
                             sample_path)
from refsde.coefficients import CoefficientField, make_coefficients
from refsde.errors import IntegrationError, RateFitError
from refsde.geometry import Ball, Box, HalfLine, Polyhedron, row_norm
from refsde.penalized import splitting_penalized
from refsde import rates
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
                               scheme="splitting"):
    """The sweep's sups and terminal states against the per-point loops.

    The sweep keeps running maxima of squared norms and roots them at the
    end; the oracle takes the maximum of ``domain.distance`` and
    ``row_norm`` at every step. They must agree bitwise.
    """
    grid = TimeGrid.from_log2(1.0, 8)
    x0 = np.array(x0, dtype=float)
    res = _sweep_paths(domain, coeffs, x0, grid, levels, num_paths, seed,
                       scheme, ref_steps=grid.steps, want_err=True,
                       want_dist=True)
    for pi in range(num_paths):
        path = sample_path(grid, seed, pi, dim=domain.dim)
        ref = reference_loop(domain, coeffs, path, x0)[0]
        for li, n in enumerate(levels):
            states, _, max_dist = penalized_loop(domain, coeffs, path, x0, n,
                                                 scheme)
            sup = max(float(row_norm(a - b)) for a, b in zip(states, ref))
            assert res.sup_err[li, pi] == sup
            assert res.sup_dist[li, pi] == max_dist
            assert np.array_equal(res.terminal[li, pi], states[-1])
        assert np.array_equal(res.ref_terminal[pi], ref[-1])


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


@pytest.mark.parametrize("scheme", ["euler", "splitting"])
def test_sweep_guard_passes_finite_states_whose_sum_overflows(scheme):
    # Every state stays at 1e308: finite, though their sum overflows. The
    # guard must neither raise nor warn.
    grid = TimeGrid.from_log2(1.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _sweep_paths(HalfLine(0.0), zero_field(1), np.array([1e308]),
                           grid, [4.0, 16.0], 5, 3, scheme,
                           ref_steps=grid.steps, want_err=True,
                           want_dist=True)
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
                       ref_steps=fine.steps, want_err=True, want_dist=False)
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
        blocks = rates._increment_blocks(grid, 4 * grid.steps, 11, 3, 1)
        return [(x.copy(), dk, x_ref.copy(), dy) for x, dk, x_ref, dy in
                rates._lockstep(*args, blocks, increments=increments)]

    off, on = run(False), run(True)
    assert len(off) == len(on) == grid.steps + 1
    for (x, dk, x_ref, dy), (x_on, dk_on, x_ref_on, dy_on) in zip(off, on):
        assert dk is None and dy is None
        assert dk_on.shape == x_on.shape and dy_on.shape == x_ref_on.shape
        assert x.tobytes() == x_on.tobytes()
        assert x_ref.tobytes() == x_ref_on.tobytes()


@pytest.mark.parametrize("block_words", [1, 120])
def test_sweep_block_boundaries_do_not_change_bits(monkeypatch, block_words):
    # d = 2 with a 4x refined reference, so the levels step on block sums
    # that differ from the reference's fine increments. With 5 paths the
    # budget of 120 words gives blocks of 3 steps and a partial last block
    # of 2 of the 32 steps; a budget of 1 word gives one step per block.
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])
    coeffs = make_coefficients("quadrant2d")
    grid = TimeGrid.from_log2(1.0, 5)
    x0 = np.array([0.0, 0.0])
    args = (domain, coeffs, x0, grid, [16.0, 256.0], 5, 13, "splitting")
    kw = dict(ref_steps=4 * grid.steps, want_err=True, want_dist=True)
    assert rates._BLOCK_WORDS >= 5 * 2 * 4 * grid.steps
    whole = _sweep_paths(*args, **kw)
    monkeypatch.setattr(rates, "_BLOCK_WORDS", block_words)
    blocked = _sweep_paths(*args, **kw)
    for key in ("sup_err", "sup_dist", "terminal", "ref_terminal"):
        b, w = getattr(blocked, key), getattr(whole, key)
        assert b.shape == w.shape and b.tobytes() == w.tobytes()


_TILE = rates._TILE_PATHS


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("num_paths", [1, _TILE - 1, _TILE + 1, 2 * _TILE + 3])
@pytest.mark.parametrize("factor", [1, 2, 4])
def test_increment_blocks_match_whole_path_sampling(monkeypatch, factor,
                                                    num_paths, d):
    # Blocks of 3 of the 16 coarse steps, the last one partial. The block
    # at step 3 starts at fine word 3 * factor * d, which is not a multiple
    # of 4 for factors 1 and 2 and odd d (and for factor 1, d = 2).
    grid = TimeGrid.from_log2(1.0, 4)
    finest = TimeGrid(1.0, factor * grid.steps)
    monkeypatch.setattr(rates, "_BLOCK_WORDS", 3 * num_paths * d * factor)
    blocks = list(rates._increment_blocks(grid, finest.steps, 17, num_paths,
                                          d))
    assert [inc.shape for inc, _ in blocks] == (
        [(3, num_paths, d)] * 5 + [(1, num_paths, d)])
    for inc, inc_f in blocks:
        # (steps, P, d) views of (steps, d, P) memory: each step's increments
        # are one contiguous plane per coordinate.
        assert np.moveaxis(inc, -1, 1).flags.c_contiguous
        assert np.moveaxis(inc_f, -1, 1).flags.c_contiguous
        assert inc_f.shape == (factor * inc.shape[0], num_paths, d)
    whole = sample_increments(finest, 17, range(num_paths), d)
    fine = np.concatenate([inc_f for _, inc_f in blocks])
    coarse = np.concatenate([inc for inc, _ in blocks])
    assert fine.tobytes() == whole.transpose(1, 0, 2).tobytes()
    assert coarse.tobytes() == (
        halve_increments(whole, factor).transpose(1, 0, 2).tobytes())


@pytest.mark.parametrize("factor", [None, 2])
def test_one_increment_block_in_flight(monkeypatch, factor):
    # 512 paths on 2^10 steps, in blocks of 2^17 fine words (1 MiB): at
    # least 4 blocks. Each block must be garbage by the time the first tile
    # of the next one is sampled, so the sweep's allocations peak at one
    # block pair plus a tile's sampling, well below two blocks.
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
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _sweep_paths(HalfLine(0.0), make_coefficients("ou1d"),
                     np.array([0.0]), grid, [16.0, 256.0], num_paths, 5,
                     "splitting", ref_steps=ref_steps,
                     want_err=factor is not None, want_dist=factor is None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(live) // 2 >= 4
    assert alive_at_sampling and max(alive_at_sampling) == 0
    # The fine block, the levels' block sums (a separate array only with a
    # refined reference) and half a block of slack.
    block_bytes = 8 * block_words
    sums_bytes = 0 if factor is None else block_bytes // factor
    assert peak <= block_bytes + sums_bytes + block_bytes // 2


def test_sweep_rows_independent_of_batch_quadrant():
    # The projection gathers the exterior rows of each batch, so a path's
    # result must not depend on which other paths share the batch.
    domain = Polyhedron(normals=[[-1.0, 0.0], [0.0, -1.0]],
                        offsets=[0.0, 0.0])
    coeffs = make_coefficients("quadrant2d")
    grid = TimeGrid.from_log2(1.0, 7)
    x0 = np.array([0.0, 0.0])
    kw = dict(ref_steps=grid.steps, want_err=True, want_dist=True)
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
                         "splitting", ref_steps=None, want_err=False,
                         want_dist=True)
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
                         "splitting", ref_steps=fine.steps, want_err=True,
                         want_dist=True)
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
                       "splitting", ref_steps=grid.steps, want_err=True,
                       want_dist=False)
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
