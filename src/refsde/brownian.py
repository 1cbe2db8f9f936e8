"""Deterministic Brownian increments on dyadic grids.

Increments are produced by a counter-based generator (Philox) keyed by
``(master_seed, path_index)``, with the counter enumerating
``(step, coordinate)``; raw 64-bit words are mapped to normals through the
inverse CDF. The value at any slot is therefore a pure function of the key
and counter: paths are generable independently, in parallel, and in any
order, and the same ``(master_seed, path_index, grid)`` always reproduces
the same increments bitwise. Because the stream depends on nothing but key
and counter, one generator per call is re-keyed for each path, which gives
the words a fresh generator would; no entropy is ever drawn.

Block sums for coarsening are computed by repeated pairwise halving. This
fixed dyadic tree makes ``coarsen(coarsen(p, 2), 2)`` bitwise identical to
``coarsen(p, 4)``, and makes partial sums along the dyadic decomposition
(see ``BrownianPath.values``) agree bitwise between a path and any of its
coarsenings at shared grid times.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["TimeGrid", "BrownianPath", "sample_path", "sample_increments", "coarsen"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with a power-of-two number of steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        m = int(self.steps)
        if m < 1 or (m & (m - 1)) != 0:
            raise ValueError("steps must be a power of two")
        object.__setattr__(self, "steps", m)
        if abs(self.step * m - self.horizon) > 1e-12 * self.horizon:
            raise ValueError("grid step does not reproduce the horizon")

    @property
    def step(self):
        return self.horizon / self.steps

    def times(self):
        return np.arange(self.steps + 1) * self.step

    def coarsened(self, factor):
        factor = _check_factor(factor, self.steps)
        return TimeGrid(self.horizon, self.steps // factor)

    @classmethod
    def from_log2(cls, horizon, log2_steps):
        return cls(horizon, 1 << int(log2_steps))


@dataclass(frozen=True)
class BrownianPath:
    """Increments of one d-dimensional Brownian path on a dyadic grid."""

    grid: TimeGrid
    increments: np.ndarray  # (M, d)
    master_seed: int
    path_index: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[0] != self.grid.steps:
            raise ValueError("increments must have shape (steps, dim)")
        object.__setattr__(self, "increments", inc)

    @property
    def dim(self):
        return self.increments.shape[1]

    def values(self):
        """Path values W_{t_k}, shape (M+1, d), with W_0 = 0.

        Each partial sum is assembled from the dyadic block sums of the
        increments, added coarsest-block first. Coarsening a path never
        changes the values at surviving grid times, bitwise.
        """
        return _tree_values(self.increments)


def sample_path(grid, master_seed, path_index, dim=1):
    """Generate one Brownian path; N(0, h) increments, reproducible bitwise."""
    inc = sample_increments(grid, master_seed, [path_index], dim)[0]
    return BrownianPath(grid=grid, increments=inc,
                        master_seed=int(master_seed), path_index=int(path_index))


def sample_increments(grid, master_seed, path_indices, dim=1, step_lo=0,
                      step_hi=None):
    """Increments for several paths at once, shape (len(paths), steps, d).

    Row p is bitwise identical to the corresponding slice of
    ``sample_path(grid, master_seed, path_indices[p], dim).increments``;
    ``step_lo``/``step_hi`` select a step range without generating the rest
    of the path (the counter is offset into each path's stream). The result
    is a pure function of the arguments: one Philox generator is re-keyed
    to ``(master_seed, p)`` for each path, with its counter at the range's
    first 4-word block and an empty buffer, so no state passes between
    paths or calls. The uniform and normal transforms run in place on one
    C-contiguous float64 buffer, which is returned.
    """
    master_seed = int(master_seed)
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    idx = [int(i) for i in path_indices]
    if any(i < 0 for i in idx):
        raise ValueError("path indices must be nonnegative")
    step_hi = grid.steps if step_hi is None else int(step_hi)
    if not 0 <= step_lo <= step_hi <= grid.steps:
        raise ValueError("invalid step range")
    n_steps = step_hi - step_lo
    word_lo = step_lo * dim
    count = n_steps * dim
    block, offset = divmod(word_lo, 4)
    raw = np.empty((len(idx), count), dtype=np.uint64)
    key = np.array([master_seed, 0], dtype=_U64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.array([block, 0, 0, 0], dtype=_U64),
                       "key": key},
             "buffer": np.zeros(4, dtype=_U64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    gen = np.random.Philox(0)  # a fixed seed: the state below replaces it
    for row, p in enumerate(idx):
        key[1] = p
        gen.state = state
        raw[row] = gen.random_raw(offset + count)[offset:]
    # 53-bit mantissa uniform in (0, 1), then inverse normal CDF.
    raw >>= _U64(11)
    z = raw.astype(np.float64)
    del raw
    z += 0.5
    z *= 2.0 ** -53
    ndtri(z, out=z)
    z *= np.sqrt(grid.step)
    return z.reshape(len(idx), n_steps, dim)


def coarsen(path, factor):
    """Same Brownian motion restricted to a grid coarser by ``factor``.

    Increments are summed in dyadic blocks (repeated pairwise halving), so
    coarsening composes bitwise: coarsen by 2 twice equals coarsen by 4.
    """
    factor = _check_factor(factor, path.grid.steps)
    if factor == 1:
        return path
    return BrownianPath(
        grid=path.grid.coarsened(factor),
        increments=halve_increments(path.increments, factor),
        master_seed=path.master_seed,
        path_index=path.path_index,
    )


def halve_increments(increments, factor):
    """Pairwise block sums along the time axis of an (..., M, d) array."""
    out = increments
    f = factor
    while f > 1:
        out = out[..., 0::2, :] + out[..., 1::2, :]
        f //= 2
    return out


def _check_factor(factor, steps):
    f = int(factor)
    if f < 1 or (f & (f - 1)) != 0:
        raise ValueError("factor must be a power of two")
    if steps % f != 0:
        raise ValueError("factor must divide the number of steps")
    return f


def _tree_values(increments):
    """Prefix sums assembled from dyadic block sums, coarsest block first."""
    m, d = increments.shape[-2], increments.shape[-1]
    levels = [increments]
    while levels[-1].shape[-2] > 1:
        prev = levels[-1]
        levels.append(prev[..., 0::2, :] + prev[..., 1::2, :])
    out = np.zeros(increments.shape[:-2] + (m + 1, d))
    idx = np.arange(m + 1)
    pos = np.zeros(m + 1, dtype=np.int64)
    for k in range(len(levels) - 1, -1, -1):
        size = 1 << k
        mask = (idx & size) != 0
        if not np.any(mask):
            continue
        node = pos[mask] >> k
        out[..., mask, :] = out[..., mask, :] + levels[k][..., node, :]
        pos[mask] += size
    return out
