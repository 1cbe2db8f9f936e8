import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from refsde.brownian import (
    BrownianPath,
    TimeGrid,
    coarsen,
    halve_increments,
    sample_increments,
    sample_path,
)


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        TimeGrid(1.0, 3)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    g = TimeGrid.from_log2(2.0, 5)
    assert g.steps == 32 and g.step * g.steps == g.horizon


def test_grid_times_and_coarsen():
    g = TimeGrid(1.0, 8)
    np.testing.assert_allclose(g.times(), np.arange(9) / 8.0)
    assert g.coarsened(4).steps == 2
    with pytest.raises(ValueError):
        g.coarsened(3)
    with pytest.raises(ValueError):
        g.coarsened(16)


def test_sampling_is_deterministic():
    g = TimeGrid(1.0, 64)
    a = sample_path(g, 7, 3, dim=2)
    b = sample_path(g, 7, 3, dim=2)
    np.testing.assert_array_equal(a.increments, b.increments)
    c = sample_path(g, 7, 4, dim=2)
    assert not np.array_equal(a.increments, c.increments)
    d = sample_path(g, 8, 3, dim=2)
    assert not np.array_equal(a.increments, d.increments)


def test_batch_rows_match_single_paths():
    g = TimeGrid(1.0, 128)
    batch = sample_increments(g, 11, [0, 2, 9], dim=2)
    for row, idx in enumerate([0, 2, 9]):
        np.testing.assert_array_equal(
            batch[row], sample_path(g, 11, idx, dim=2).increments)


def test_step_range_matches_full_stream():
    g = TimeGrid(1.0, 1024)
    full = sample_increments(g, 77, [0, 5], dim=2)
    part = sample_increments(g, 77, [0, 5], dim=2, step_lo=101, step_hi=613)
    np.testing.assert_array_equal(full[:, 101:613], part)


def fresh_philox_increments(grid, seed, paths, dim, step_lo, step_hi):
    """Oracle: a fresh Philox per path and an out-of-place transform."""
    block, offset = divmod(step_lo * dim, 4)
    count = (step_hi - step_lo) * dim
    rows = []
    for p in paths:
        key = np.array([seed, p], dtype=np.uint64)
        gen = np.random.Philox(key=key, counter=[block, 0, 0, 0])
        raw = gen.random_raw(offset + count)[offset:]
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        rows.append(ndtri(u) * np.sqrt(grid.step))
    return np.array(rows).reshape(len(paths), step_hi - step_lo, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sampler_matches_fresh_philox_per_path(dim):
    # One re-keyed generator per call must give the words of a fresh
    # generator per path. Start steps 0-3 put the first word at every
    # offset step_lo * dim % 4 that the dimension allows (all of 0-3 for
    # dims 1 and 3); the seeds alternate, so state leaking from one call
    # into the next would show.
    g = TimeGrid(1.0, 64)
    paths = [9, 0, 2]
    for step_lo in range(4):
        step_hi = step_lo + 13
        for seed in (11, 2 ** 64 - 1, 11):
            got = sample_increments(g, seed, paths, dim, step_lo=step_lo,
                                    step_hi=step_hi)
            want = fresh_philox_increments(g, seed, paths, dim, step_lo,
                                           step_hi)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_pooled_moments_within_clt_bands():
    g = TimeGrid(1.0, 2 ** 16)
    inc = sample_increments(g, 2024, range(16), dim=1).ravel()
    n = inc.size
    assert n >= 10 ** 6
    h = g.step
    assert abs(inc.mean()) <= 4.0 * np.sqrt(h / n)
    assert abs(inc.var() - h) <= 0.01 * h


def test_increment_normality_flagged_not_failed():
    g = TimeGrid(1.0, 2 ** 14)
    inc = sample_increments(g, 99, range(8), dim=1).ravel()
    stat = kstest(inc / np.sqrt(g.step), "norm").statistic
    critical = 1.628 / np.sqrt(inc.size)  # 1% level
    if stat >= critical:
        warnings.warn(f"increment KS statistic {stat:.2e} above the 1% "
                      f"critical value {critical:.2e}")


def test_coarsen_identity_and_block_sums():
    g = TimeGrid(1.0, 4)
    p = BrownianPath(grid=g, increments=np.array(
        [[1.0], [2.0], [3.0], [4.0]]), master_seed=0, path_index=0)
    assert coarsen(p, 1) is p
    np.testing.assert_array_equal(coarsen(p, 2).increments, [[3.0], [7.0]])
    with pytest.raises(ValueError):
        coarsen(p, 3)
    with pytest.raises(ValueError):
        coarsen(p, 8)


def test_coarsen_composes_bitwise():
    g = TimeGrid(1.0, 256)
    p = sample_path(g, 5, 1, dim=3)
    twice = coarsen(coarsen(p, 2), 2)
    once = coarsen(p, 4)
    np.testing.assert_array_equal(twice.increments, once.increments)
    assert once.grid.steps == 64
    assert once.master_seed == p.master_seed and once.path_index == p.path_index


def test_partial_sums_shared_times_exact():
    g = TimeGrid(1.0, 512)
    p = sample_path(g, 31, 4, dim=2)
    fine_vals = p.values()
    assert np.all(fine_vals[0] == 0.0)
    for factor in (2, 8, 64):
        coarse_vals = coarsen(p, factor).values()
        np.testing.assert_array_equal(fine_vals[::factor], coarse_vals)


def test_values_against_plain_cumsum():
    # The tree order differs from a running sum only by rounding.
    g = TimeGrid(1.0, 256)
    p = sample_path(g, 12, 0)
    plain = np.concatenate([np.zeros((1, 1)),
                            np.cumsum(p.increments, axis=0)])
    np.testing.assert_allclose(p.values(), plain, atol=1e-13)


def test_halve_increments_batched():
    inc = np.arange(24, dtype=float).reshape(2, 6, 2)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 6)
    out = halve_increments(inc, 2)
    np.testing.assert_array_equal(out, inc[:, 0::2] + inc[:, 1::2])


def test_invalid_inputs():
    g = TimeGrid(1.0, 16)
    with pytest.raises(ValueError):
        sample_increments(g, -1, [0])
    with pytest.raises(ValueError):
        sample_increments(g, 0, [-2])
    with pytest.raises(ValueError):
        sample_increments(g, 0, [0], dim=0)
    with pytest.raises(ValueError):
        sample_increments(g, 0, [0], step_lo=10, step_hi=5)
    with pytest.raises(ValueError, match="shape"):
        BrownianPath(grid=g, increments=np.zeros((4, 1)),
                     master_seed=0, path_index=0)
