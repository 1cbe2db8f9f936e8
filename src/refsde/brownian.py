"""Deterministic Brownian increments on dyadic grids.

Increments are produced by a counter-based generator (Philox) keyed by
``(master_seed, path_index)``, with the counter enumerating
``(step, coordinate)``; raw 64-bit words are mapped to normals through the
inverse CDF. The value at any slot is therefore a pure function of the key
and counter: paths are generable independently, in parallel, and in any
order, and the same ``(master_seed, path_index, grid)`` always reproduces
the same increments bitwise; ``sample_increments`` states how one call
re-keys its generator per path and works through its paths in tiles.

``halve_increments`` forms block sums over a fixed dyadic tree (repeated
pairwise halving), so halving by 2 twice equals halving by 4 bitwise.
"""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["TimeGrid", "BrownianPath", "sample_path", "sample_increments"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
# Words per tile of ``sample_increments`` (128 KiB of uniforms, rounded down
# to whole paths, at least one); no bit depends on it.
_TILE_WORDS = 2 ** 14


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
        if m != self.steps or m < 1 or (m & (m - 1)) != 0:
            raise ValueError("steps must be a power of two")
        object.__setattr__(self, "steps", m)
        if abs(self.step * m - self.horizon) > 1e-12 * self.horizon:
            raise ValueError("grid step does not reproduce the horizon")

    @property
    def step(self):
        return self.horizon / self.steps

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


def sample_path(grid, master_seed, path_index, dim=1):
    """Generate one Brownian path; N(0, h) increments, reproducible bitwise."""
    inc = sample_increments(grid, master_seed, [path_index], dim)[0]
    return BrownianPath(grid=grid, increments=inc,
                        master_seed=int(master_seed), path_index=int(path_index))


def sample_increments(grid, master_seed, path_indices, dim=1, step_lo=0,
                      step_hi=None, out=None):
    """Increments for several paths at once, shape (len(paths), steps, d).

    Row p is bitwise identical to the corresponding slice of
    ``sample_path(grid, master_seed, path_indices[p], dim).increments``;
    ``step_lo``/``step_hi`` select a step range without generating the rest
    of the path (the counter is offset into each path's stream); a bound
    may be any integral number, and a non-integral one raises ``ValueError``.
    The result is a pure function of the arguments: one Philox generator is
    re-keyed to ``(master_seed, p)`` for each path, with its counter at the
    range's first 4-word block and an empty buffer, so no state passes
    between paths or calls. The paths are drawn, mapped through the inverse
    CDF and stored one tile at a time, in one tile's buffers, a tile being
    as many whole paths as fit in ``_TILE_WORDS`` words, and at least one.
    The result is ``out`` (any layout) or a C array.
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
    bounds = (step_lo, grid.steps if step_hi is None else step_hi)
    if not all(isinstance(v, numbers.Integral) or (
            isinstance(v, numbers.Real) and float(v).is_integer())
               for v in bounds):
        raise ValueError(f"step_lo and step_hi must be integral, not {bounds}")
    step_lo, step_hi = (int(v) for v in bounds)
    if not 0 <= step_lo <= step_hi <= grid.steps:
        raise ValueError("invalid step range")
    n_steps = step_hi - step_lo
    shape = (len(idx), n_steps, dim)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, not {out.shape}")
    count = n_steps * dim
    block, offset = divmod(step_lo * dim, 4)
    key = np.array([master_seed, 0], dtype=_U64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.array([block, 0, 0, 0], dtype=_U64),
                       "key": key},
             "buffer": np.zeros(4, dtype=_U64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    gen = np.random.Philox(0)  # a fixed seed: the state below replaces it

    tile = max(1, _TILE_WORDS // max(1, count))
    raw = np.empty((min(tile, len(idx)), count), dtype=_U64)
    z = np.empty(raw.shape)
    for p0 in range(0, len(idx), tile):
        paths = idx[p0:p0 + tile]
        r, u = raw[:len(paths)], z[:len(paths)]
        for row, p in enumerate(paths):
            key[1] = p
            gen.state = state
            r[row] = gen.random_raw(offset + count)[offset:]
        # 53-bit mantissa uniform in (0, 1), for the inverse normal CDF.
        r >>= _U64(11)
        u[...] = r
        u += 0.5
        u *= 2.0 ** -53
        ndtri(u, out=u)
        u *= np.sqrt(grid.step)
        out[p0:p0 + len(paths)] = u.reshape(len(paths), n_steps, dim)
    return out


def halve_increments(increments, factor):
    """Pairwise block sums along the time axis of an (..., M, d) array."""
    out = increments
    f = factor
    while f > 1:
        out = out[..., 0::2, :] + out[..., 1::2, :]
        f //= 2
    return out
