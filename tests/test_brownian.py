import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from refsde import brownian
from refsde.brownian import (
    BrownianPath,
    TimeGrid,
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


def test_grid_rejects_a_step_count_that_is_not_integral():
    # int(4.5) is 4, a power of two: the grid must not truncate silently.
    with pytest.raises(ValueError, match="power of two"):
        TimeGrid(1.0, 4.5)
    assert TimeGrid(1.0, 4.0).steps == 4


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


def test_step_bounds_may_be_any_integral_number():
    # An integral float or numpy scalar is the same bound as its int, for
    # either end; a non-integral one, or one that is not a number, is an
    # error, never truncated or parsed.
    g = TimeGrid(1.0, 16)
    want = sample_increments(g, 3, [0, 4], 2, step_lo=3, step_hi=11)
    for lo, hi in ((3.0, 11), (3, 11.0), (np.int64(3), np.float64(11.0))):
        got = sample_increments(g, 3, [0, 4], 2, step_lo=lo, step_hi=hi)
        assert got.tobytes() == want.tobytes()
    for lo, hi in ((0, 2.5), (0.5, 4), (np.nan, 4), (0, np.inf), ("3", 4)):
        with pytest.raises(ValueError, match="must be integral"):
            sample_increments(g, 3, [0], step_lo=lo, step_hi=hi)


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


# Paths per tile in the tests below, which size ``_TILE_WORDS`` to it.
_TILE = 32


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("num_paths", [1, _TILE - 1, _TILE + 1, 2 * _TILE + 3])
def test_sampler_out_gives_the_allocating_bytes(monkeypatch, num_paths, dim):
    # ``out`` C-ordered and as the (P, steps, d) view of (steps, d, P)
    # memory that a sweep block passes; step 5 starts at word 5 * dim,
    # which is not a multiple of 4 for any of these dims. Tiles of _TILE
    # paths of 26 steps, so the path counts lie on both sides of one tile.
    monkeypatch.setattr(brownian, "_TILE_WORDS", _TILE * 26 * dim)
    g = TimeGrid(1.0, 64)
    paths = range(3, 3 + num_paths)
    want = sample_increments(g, 29, paths, dim, step_lo=5, step_hi=31)
    shape = (num_paths, 26, dim)
    for out in (np.empty(shape), np.empty((26, dim, num_paths)).transpose(
            2, 0, 1)):
        got = sample_increments(g, 29, paths, dim, step_lo=5, step_hi=31,
                                out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="shape"):
        sample_increments(g, 29, paths, dim, step_lo=5, step_hi=31,
                          out=np.empty((num_paths, 26, dim + 1)))


@pytest.mark.parametrize("tile", [1, 3, 32])
def test_sampler_bytes_do_not_depend_on_the_tile(monkeypatch, tile):
    g = TimeGrid(1.0, 64)
    paths = [70, 0, 5, 2, 9, 64, 1]
    want = fresh_philox_increments(g, 41, paths, 3, 3, 50)
    monkeypatch.setattr(brownian, "_TILE_WORDS", tile * 47 * 3)
    got = sample_increments(g, 41, paths, 3, step_lo=3, step_hi=50)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps,dim,num_paths", [
    (1024, 2, 40),   # 8 paths of 2,046 words per tile
    (1024, 3, 5),    # one tile of 5 paths
    (8192, 3, 3),    # a path of 24,573 words is its own tile
])
def test_sampler_tiles_stay_within_their_word_budget(monkeypatch, steps, dim,
                                                      num_paths):
    # No inverse-CDF tile exceeds _TILE_WORDS words, or one path where a
    # path alone is larger; the tiles cover every word once.
    sizes = []

    def recorded_ndtri(z, out):
        sizes.append(z.size)
        return ndtri(z, out=out)

    monkeypatch.setattr(brownian, "ndtri", recorded_ndtri)
    g = TimeGrid(1.0, steps)
    got = sample_increments(g, 5, range(num_paths), dim, step_lo=1)
    words = (steps - 1) * dim
    assert max(sizes) <= max(brownian._TILE_WORDS, words)
    assert sum(sizes) == num_paths * words
    want = fresh_philox_increments(g, 5, range(num_paths), dim, 1, steps)
    assert got.tobytes() == want.tobytes()


def test_concurrent_pipelined_calls_keep_their_bits(monkeypatch):
    # Four callers on two cores, one path per tile and a short switch
    # interval: the calls' tiles interleave often, and no generator state
    # or tile buffer passes between them.
    g = TimeGrid(1.0, 64)
    paths = list(range(9))
    want = {seed: fresh_philox_increments(g, seed, paths, 2, 1, 40).tobytes()
            for seed in range(4)}
    monkeypatch.setattr(brownian, "_TILE_WORDS", 1)
    got = {}

    def caller(seed):
        for _ in range(20):
            inc = sample_increments(g, seed, paths, 2, step_lo=1, step_hi=40)
            got.setdefault(seed, set()).add(inc.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,))
                   for seed in want]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {seed: {b} for seed, b in want.items()}


def test_sampler_starts_no_thread(monkeypatch):
    # Three tiles, drawn and mapped one after the other in the calling
    # thread: no other thread runs the inverse CDF.
    tile = brownian._TILE_WORDS // (256 * 2)
    callers = []

    def recorded_ndtri(z, out):
        callers.append(threading.get_ident())
        return ndtri(z, out=out)

    monkeypatch.setattr(brownian, "ndtri", recorded_ndtri)
    before = threading.active_count()
    sample_increments(TimeGrid(1.0, 256), 3, range(2 * tile + 1), 2)
    assert threading.active_count() == before
    assert callers == [threading.get_ident()] * 3


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


def test_coarsen_composes_bitwise():
    g = TimeGrid(1.0, 256)
    x = sample_path(g, 5, 1, dim=3).increments
    twice = halve_increments(halve_increments(x, 2), 2)
    once = halve_increments(x, 4)
    assert once.shape == (64, 3)
    assert twice.tobytes() == once.tobytes()


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
