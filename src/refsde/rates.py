"""Monte Carlo sweeps across penalization levels, their reductions and fits.

The sweeps integrate every requested penalization level, and the
projected-Euler reference where one is needed, along shared Brownian paths
(common random numbers) in the one step loop, ``_lockstep``, which the
per-path integrators of ``penalized`` and ``reflected`` run too. Every
operation acts row by row, so a path's result does not depend on which
other paths or levels share the batch (a one-path run gives the bytes of
its row in a sweep), and outputs are bitwise reproducible for a given
configuration. A sweep returns per-path data, a ``SweepResult``, which its
caller reduces with ``error_tables`` or ``weak_rows``.

Errors are pooled as ``(mean over paths of sup^p)^(1/p)``; the bias of the
root is accepted and the reported standard error is propagated to the same
scale. Rate fits regress ``log(error)`` on the log of a regressor of the
penalization level; both the ``log(n)/n`` scale and the plain ``1/n``
scale are available because the two are empirically hard to distinguish at
desk scale.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import (_TILE_PATHS, TimeGrid, halve_increments,
                       sample_increments)
from .errors import IntegrationError, RateFitError
from .geometry import row_norm, row_norm_sq
from .penalized import euler_step, splitting_step
from .reflected import projected_euler_step
from . import tolerances as tol

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "RateReport",
    "WeakRow",
    "SweepResult",
    "fit_rate",
    "monotone_decreasing",
    "boundary_distance_sweep",
    "strong_error_sweep",
    "weak_compare",
    "error_tables",
    "weak_rows",
    "brownian_modulus_table",
    "REGRESSORS",
    "WEAK_FUNCTIONALS",
]


# ---------------------------------------------------------------------------
# Tables and fits.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorRow:
    level: int
    num_paths: int
    error: float
    stderr: float
    p: float


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple

    def __post_init__(self):
        levels = [r.level for r in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if any(r.error < 0 for r in self.rows):
            raise ValueError("errors must be nonnegative")
        if any(not np.isfinite(r.stderr) for r in self.rows):
            raise ValueError("standard errors must be finite")

    @property
    def levels(self):
        return np.array([r.level for r in self.rows], dtype=float)

    @property
    def errors(self):
        return np.array([r.error for r in self.rows])

    @property
    def stderrs(self):
        return np.array([r.stderr for r in self.rows])


REGRESSORS = {
    "ln_n_over_n": lambda n: math.log(n) / n,
    "inverse_n": lambda n: 1.0 / n,
}


@dataclass(frozen=True)
class RateReport:
    table: ErrorTable
    regressor: str
    slope: float
    intercept: float
    residual_rms: float
    band: Optional[tuple] = None
    passed: Optional[bool] = None


def fit_rate(table, regressor="ln_n_over_n", band=None):
    """Least-squares fit of log(error) against log(regressor(n)).

    Requires at least four rows, strictly positive errors and a positive
    regressor (the log is degenerate otherwise; a zero error raises
    ``RateFitError`` naming its levels). ``band = (lo, hi)`` with ``None``
    for an open side attaches a pass/fail verdict for the slope.
    """
    if regressor not in REGRESSORS:
        raise ValueError(f"unknown regressor {regressor!r}")
    if len(table.rows) < 4:
        raise ValueError("rate fit needs at least 4 rows")
    errors = table.errors
    if np.any(errors <= 0):
        zero = ", ".join(str(row.level) for row in table.rows
                         if row.error <= 0)
        raise RateFitError(
            f"rate fit needs strictly positive errors; the error is 0 at "
            f"n = {zero}")
    bad = [x.level for x in table.rows if REGRESSORS[regressor](x.level) <= 0]
    if bad:
        raise ValueError(f"regressor {regressor} is not positive at n = {bad}")
    # Scalar logs and closed-form least squares on centred regressors, with
    # exactly rounded sums: neither numpy's SIMD log nor LAPACK, so the bits
    # do not depend on the CPU dispatch or the BLAS kernels.
    r = [math.log(REGRESSORS[regressor](n)) for n in table.levels.tolist()]
    e = [math.log(v) for v in errors.tolist()]
    count = len(r)
    r_mean, e_mean = math.fsum(r) / count, math.fsum(e) / count
    dr = [v - r_mean for v in r]
    slope = (math.fsum(a * (b - e_mean) for a, b in zip(dr, e))
             / math.fsum(a * a for a in dr))
    intercept = e_mean - slope * r_mean
    resid = [b - (slope * a + intercept) for a, b in zip(r, e)]
    report_band = None if band is None else tuple(band)
    passed = None
    if report_band is not None:
        lo, hi = report_band
        passed = bool((lo is None or slope >= lo)
                      and (hi is None or slope <= hi))
    return RateReport(
        table=table, regressor=regressor, slope=slope, intercept=intercept,
        residual_rms=math.sqrt(math.fsum(v * v for v in resid) / count),
        band=report_band, passed=passed,
    )


def monotone_decreasing(table, sigmas=2.0):
    """True when errors decrease across rows, net of ``sigmas`` standard errors.

    Each consecutive pair may violate strict decrease by at most
    ``sigmas * (se_i + se_{i+1})``.
    """
    e, s = table.errors, table.stderrs
    slack = sigmas * (s[:-1] + s[1:])
    return bool(np.all(e[1:] - e[:-1] < slack))


# ---------------------------------------------------------------------------
# Modulus of continuity.
# ---------------------------------------------------------------------------

def _window_ranges(vals, windows):
    """Max minus min over sliding windows of ``w + 1`` samples, per path.

    ``vals`` has shape (paths, n_times); ``windows`` is an ascending list
    of span sizes ``w``. Returns one (paths,) array of sup ranges per
    window. Uses doubling sparse tables, built once and harvested as each
    requested window size is reached.
    """
    out = []
    tmax = vals
    tmin = vals
    size = 1
    for w in windows:
        length = w + 1
        while size * 2 <= length:
            tmax = np.maximum(tmax[:, :-size], tmax[:, size:])
            tmin = np.minimum(tmin[:, :-size], tmin[:, size:])
            size *= 2
        rem = length - size
        if rem == 0:
            rng = tmax - tmin
        else:
            n_out = vals.shape[1] - w
            rng = (np.maximum(tmax[:, :n_out], tmax[:, rem:rem + n_out])
                   - np.minimum(tmin[:, :n_out], tmin[:, rem:rem + n_out]))
        out.append(np.max(rng, axis=1))
    return out


# Paths per sampling chunk of ``brownian_modulus_table``; rows are
# independent, so the chunk size changes only the memory footprint.
_MODULUS_CHUNK_PATHS = 64


def brownian_modulus_table(grid, levels, num_paths, master_seed, p=2.0):
    """Pooled L^p norm of the Brownian modulus at scales 1/n, per level."""
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    levels = [int(n) for n in levels]
    windows = []
    for n in levels:
        w = int(np.floor(1.0 / (n * grid.step) * (1 + 1e-12)))
        if w < 1:
            raise ValueError(f"grid too coarse for level {n}")
        windows.append(w)
    order = np.argsort(windows)  # ascending windows for the shared tables
    sups = np.empty((len(levels), num_paths))
    for lo in range(0, num_paths, _MODULUS_CHUNK_PATHS):
        hi = min(lo + _MODULUS_CHUNK_PATHS, num_paths)
        inc = sample_increments(grid, master_seed, range(lo, hi), 1)[..., 0]
        w_vals = np.concatenate(
            [np.zeros((hi - lo, 1)), np.cumsum(inc, axis=1)], axis=1)
        ranges = _window_ranges(w_vals, [windows[i] for i in order])
        for pos, i in enumerate(order):
            sups[i, lo:hi] = ranges[pos]
    return error_tables(levels, sups, [p])[p]


# ---------------------------------------------------------------------------
# Lockstep sweep engine.
# ---------------------------------------------------------------------------

# Fine increment words (paths x steps x d) sampled per time block.
_BLOCK_WORDS = 2 ** 20


@dataclass(frozen=True)
class WeakRow:
    level: int
    num_paths: int
    functional: str
    value: float


@dataclass(frozen=True)
class SweepResult:
    """The per-path data of one sweep, None where it was not computed. The
    terminal states are in C order: numpy sums a mean over paths in order
    there, but pairwise along a contiguous axis."""

    levels: tuple
    sup_dist: Optional[np.ndarray]      # (L, P) sup boundary distances
    sup_err: Optional[np.ndarray]       # (L, P) sup gaps to the reference
    terminal: np.ndarray                # (L, P, d)
    ref_terminal: Optional[np.ndarray]  # (P, d), None without a reference


def _lockstep(domain, coeffs, x0, grid, levels, num_paths, scheme, ref_steps,
              blocks, *, increments=False):
    """The one step loop: advance the levels and the reference in lockstep.

    One kernel call per grid step advances the ``(L, P, d)`` states of all
    levels, with the level as an ``(L, 1, 1)`` column and the ``(P, d)``
    increment broadcast over it. The projected-Euler reference, if
    ``ref_steps`` is given, takes ``factor = ref_steps / grid.steps``
    sub-steps per grid step on its ``(P, d)`` states; ``levels`` may then be
    empty. ``blocks`` yields time-major increments: ``(s, P, d)`` for the
    levels' next ``s`` steps and ``(s * factor, P, d)`` for the reference.
    The states are coordinate-major, views of ``(d, L, P)`` and ``(d, P)``
    memory, so every ``x[..., j]`` a kernel reads is one contiguous plane;
    the kernels' elementwise results keep that layout, with the bits of
    C-ordered arrays.

    Yields ``(x, dk, x_ref, dy)`` at every grid time, the first after the
    input checks: the level states with the step's penalty increments, and
    the reference state (None without one) with its driver increment over
    the step. At time 0 the increments are the initial values, 0 and
    ``x0``, so their running sums are the penalty and the driver. They are
    fresh arrays, computed only with ``increments=True`` (else None).
    ``x`` and ``x_ref`` are the same two arrays at every yield, which the
    kernels overwrite in place through their ``out=``: a caller that keeps
    a state copies it. Each step ends with one ``_guard`` call per state
    array. The splitting decay ``exp(-n h)`` is computed once per sweep, by
    the kernel's own numpy call on the same ``(L, 1, 1)`` array, so it has
    the bits a per-step evaluation had, and copied once to the shape and
    layout of ``x``, so that the kernel's multiply is elementwise.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.dim,):
        raise ValueError(f"x0 must have shape ({domain.dim},)")
    if not domain.contains(x0, tol.MEMBERSHIP_TOL):
        raise ValueError("x0 must lie in the domain closure")
    if coeffs.dim != domain.dim:
        raise ValueError("coefficient and domain dimensions differ")
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    levels = [float(n) for n in levels]
    if (not (levels or ref_steps)
            or any(b <= a for a, b in zip(levels, levels[1:]))):
        raise ValueError("levels must be nonempty and strictly increasing")
    h = grid.step
    level = np.array(levels)[:, None, None]
    kw = {"penalty": increments}
    if scheme == "euler":
        bad = [n for n in levels if n * h > 1.0 + 1e-12]
        if bad:
            raise ValueError(
                f"explicit scheme is unstable for n*h > 1 at levels {bad}; "
                "use the splitting scheme or refine the grid"
            )
        step = euler_step
    elif scheme == "splitting":
        step = splitting_step
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    factor = 1
    if ref_steps is not None:
        ref_steps = int(ref_steps)
        if ref_steps < grid.steps or ref_steps % grid.steps != 0:
            raise ValueError("reference grid must refine the sweep grid")
        factor = ref_steps // grid.steps
        h_ref = TimeGrid(grid.horizon, ref_steps).step

    d = domain.dim
    x = np.moveaxis(np.broadcast_to(x0[:, None, None], (
        d, len(levels), num_paths)).copy(), 0, -1)
    x_ref = (None if ref_steps is None else np.moveaxis(
        np.broadcast_to(x0[:, None], (d, num_paths)).copy(), 0, -1))
    if scheme == "splitting":
        kw["decay"] = np.empty_like(x)
        kw["decay"][...] = np.exp(-level * h)
    dk = dy = None
    if increments:
        dk = np.zeros_like(x)
        dy = None if x_ref is None else x_ref.copy()
    yield x, dk, x_ref, dy
    k = 0
    for inc, inc_ref in blocks:
        if inc.shape[-1] != d:
            raise ValueError("path and domain dimensions differ")
        for i in range(inc.shape[0]):
            t = k * h
            if x_ref is not None:
                for j in range(factor):
                    _, dy_j = projected_euler_step(
                        domain, coeffs, t + j * h_ref, x_ref,
                        inc_ref[i * factor + j], h_ref, out=x_ref)
                    _guard(x_ref, k * factor + j + 1)
                    if increments:
                        dy = dy_j if j == 0 else dy + dy_j
            if levels:
                _, dk = step(domain, coeffs, t, x, inc[i], h, level, out=x,
                             **kw)
                _guard(x, k + 1, levels)
            k += 1
            yield x, dk, x_ref, dy
        # Dropped before the next block is sampled: one block in flight.
        del inc, inc_ref


def _increment_blocks(grid, ref_steps, master_seed, num_paths, d):
    """Sampled increment pairs for ``_lockstep``: fine increments for the
    reference and their ``factor``-step sums for the levels, time-major
    ``(steps, P, d)`` blocks in ``(steps, d, P)`` memory, so that every step
    reads a contiguous ``(P, d)`` slab, one plane per coordinate. A block is
    as many whole coarse steps as fit in ``_BLOCK_WORDS`` fine words, and at
    least one, so the sums match a whole-path generation bitwise. It is
    filled in place by one ``sample_increments`` call, and ``_lockstep``
    drops it before the next is sampled. So the increments take one block
    of at most ``max(_BLOCK_WORDS, P * d * factor)`` fine words (8 MiB
    unless a coarse step alone is larger), its sums and two sampling tiles
    of ``_TILE_PATHS`` paths, however many steps there are."""
    m = grid.steps
    finest = TimeGrid(grid.horizon, ref_steps or m)
    factor = finest.steps // m
    block = max(1, _BLOCK_WORDS // max(1, num_paths * d * factor))
    for b0 in range(0, m, block):
        # Yielded straight from the call, so the suspended generator holds
        # no reference to the block.
        yield _sample_block(finest, master_seed, num_paths, d, factor,
                            b0, min(b0 + block, m))


def _sample_block(finest, master_seed, num_paths, d, factor, b0, b1):
    """The pair of ``_increment_blocks`` for coarse steps ``b0:b1``, from
    one ``sample_increments`` call; the sums are taken one tile at a time."""
    fine = np.empty(((b1 - b0) * factor, d, num_paths)).transpose(2, 0, 1)
    sample_increments(finest, master_seed, range(num_paths), d,
                      step_lo=b0 * factor, step_hi=b1 * factor, out=fine)
    if factor == 1:
        return (fine.transpose(1, 0, 2),) * 2
    coarse = np.empty((b1 - b0, d, num_paths)).transpose(2, 0, 1)
    for p0 in range(0, num_paths, _TILE_PATHS):
        tile = slice(p0, p0 + _TILE_PATHS)
        coarse[tile] = halve_increments(fine[tile], factor)
    return coarse.transpose(1, 0, 2), fine.transpose(1, 0, 2)


def _sweep_paths(domain, coeffs, x0, grid, levels, num_paths, master_seed,
                 scheme, ref_steps, want_err, want_dist):
    """Integrate all levels (and the reference) along shared paths.

    Feeds ``_lockstep`` with sampled increments and returns a
    ``SweepResult``. Per grid step, besides ``_lockstep``'s states, this
    computes only the squared distances ``row_norm_sq(x - project(x))`` and
    squared errors ``row_norm_sq(x - x_ref)`` asked for, and folds them into
    running maxima; no penalty increments. The gaps go through one scratch
    array in the states' layout, which ``project`` writes as its ``out``,
    and their squared norms through one ``(L, P)`` array.
    """
    blocks = _increment_blocks(grid, ref_steps, master_seed, num_paths,
                               domain.dim)
    steps = _lockstep(domain, coeffs, x0, grid, levels, num_paths, scheme,
                      ref_steps, blocks)
    first = next(steps)  # the input checks, before anything is allocated
    shape = (len(levels), num_paths)
    sq_err = np.zeros(shape) if want_err else None
    sq_dist = np.zeros(shape) if want_dist else None
    if want_err or want_dist:
        gap = np.moveaxis(np.empty((domain.dim,) + shape), 0, -1)
        sq = np.empty(shape)
    for x, _, x_ref, _ in itertools.chain([first], steps):
        if want_dist:
            np.subtract(x, domain.project(x, out=gap), out=gap)
            np.maximum(sq_dist, row_norm_sq(gap, out=sq), out=sq_dist)
        if want_err:
            np.subtract(x, x_ref, out=gap)
            np.maximum(sq_err, row_norm_sq(gap, out=sq), out=sq_err)
    return SweepResult(
        levels=tuple(levels),
        sup_dist=np.sqrt(sq_dist) if want_dist else None,
        sup_err=np.sqrt(sq_err) if want_err else None,
        terminal=x.copy(order="C"),
        ref_terminal=None if x_ref is None else x_ref.copy(order="C"))


def _guard(x, step, levels=None):
    """Raise ``IntegrationError`` if ``x`` is not finite: the ``(P, d)``
    reference after fine step ``step``, or with ``levels`` the ``(L, P, d)``
    level states after grid step ``step``.

    ``np.vdot`` of ``x.ravel("K")``, a view of coordinate-major memory, is
    one reduction with no temporary, finite unless an entry is not finite or
    the sum of squares overflows; only then does the exact test run. Unlike
    ``x.sum()`` it does not warn on overflow, so it needs no ``np.errstate``.
    """
    v = x.ravel("K")
    if math.isfinite(np.vdot(v, v)) or np.isfinite(x).all():
        return
    # Row-major order over (level, path): the first bad row is the one a
    # level-by-level loop would have hit first.
    row = int(np.argmin(np.isfinite(x).all(axis=-1)))
    if levels is None:
        raise IntegrationError(
            f"non-finite reference state at step {step}, path {row}",
            step_index=step, path_index=row)
    li, pi = divmod(row, x.shape[-2])
    n = levels[li]
    raise IntegrationError(
        f"non-finite state at step {step}, level n = {n:g}, path {pi}",
        step_index=step, path_index=pi, level=n)


def _pooled_norm(sups, p):
    """(mean of sup^p)^(1/p) and its delta-method standard error.

    For p = 1 and p = 2, numpy's ``**`` is a copy and an exact square. For
    other p it is numpy's SIMD ``power``, whose last bits depend on the
    CPU dispatch, so each value is raised with ``math.pow`` instead.
    """
    if p in (1, 2):
        v = sups ** p
    else:
        v = np.array([math.pow(s, p) for s in sups.tolist()])
    n = v.shape[0]
    mean = float(np.sum(v) / n)
    if n > 1:
        var = float(np.sum((v - mean) ** 2) / (n - 1))
        se_mean = np.sqrt(var / n)
    else:
        se_mean = 0.0
    if mean <= 0.0:
        return 0.0, 0.0
    err = mean ** (1.0 / p)
    return err, float(se_mean / (p * mean ** ((p - 1.0) / p)))


def error_tables(levels, sups, p_list=(2.0,)):
    """One ``ErrorTable`` per p of the pooled norms of ``sups`` ``(L, P)``.

    Raises ``RateFitError`` naming n and p where a pooled norm or its
    standard error overflows; numpy's overflow warnings are silenced, since
    the error says it.
    """
    if sups.ndim != 2 or sups.shape[0] != len(levels) or sups.shape[1] < 1:
        raise ValueError("sups must be (levels, paths), with a path or more")
    tables = {}
    for p in p_list:
        rows = []
        for i, n in enumerate(levels):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    err, se = _pooled_norm(sups[i], p)
            except OverflowError:  # from math.pow
                err = se = math.inf
            if not (math.isfinite(err) and math.isfinite(se)):
                raise RateFitError(
                    f"the pooled error overflows at n = {n:g}, p = {p:g}")
            rows.append(ErrorRow(level=int(n), num_paths=sups.shape[1],
                                 error=err, stderr=se, p=p))
        tables[p] = ErrorTable(rows=tuple(rows))
    return tables


def boundary_distance_sweep(domain, coeffs, x0, grid, levels, num_paths,
                            master_seed, scheme="splitting"):
    """Per-path sup distances ``sup_dist`` of the penalized process to the
    domain."""
    return _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                        master_seed, scheme, ref_steps=None, want_err=False,
                        want_dist=True)


def strong_error_sweep(domain, coeffs, x0, grid, levels, num_paths,
                       master_seed, scheme="splitting", reference_steps=None):
    """Per-path sup gaps ``sup_err`` to the projected-Euler reference."""
    return _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                        master_seed, scheme,
                        ref_steps=reference_steps or grid.steps,
                        want_err=True, want_dist=False)


def weak_compare(domain, coeffs, x0, grid, levels, num_paths, master_seed,
                 scheme="splitting", reference_steps=None):
    """Terminal states of the levels and of the projected-Euler reference."""
    return _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                        master_seed, scheme,
                        ref_steps=reference_steps or grid.steps,
                        want_err=False, want_dist=False)


WEAK_FUNCTIONALS = ("mean", "second_moment", "cdf")


def weak_rows(result, functional):
    """Distance of a terminal-value functional to the reference, per level.

    Functionals: ``mean`` (norm of the mean difference), ``second_moment``
    (absolute difference of mean squared norms) and ``cdf`` (two-sample
    sup distance of the empirical CDFs, one-dimensional only).
    """
    if functional not in WEAK_FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    terminal, ref_terminal = result.terminal, result.ref_terminal
    if ref_terminal is None:
        raise ValueError("weak_rows needs a sweep with a reference")
    if functional == "cdf" and terminal.shape[-1] != 1:
        raise ValueError("the CDF distance requires dimension 1")
    rows = []
    for i, n in enumerate(result.levels):
        if functional == "mean":
            value = float(row_norm(
                terminal[i].mean(axis=0) - ref_terminal.mean(axis=0)))
        elif functional == "second_moment":
            value = float(abs(np.mean(np.sum(terminal[i] ** 2, axis=-1))
                              - np.mean(np.sum(ref_terminal ** 2, axis=-1))))
        else:
            value = _cdf_distance(terminal[i][:, 0], ref_terminal[:, 0])
        rows.append(WeakRow(level=int(n), num_paths=terminal.shape[1],
                            functional=functional, value=value))
    return tuple(rows)


def _cdf_distance(a, b):
    a = np.sort(a)
    b = np.sort(b)
    grid_pts = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid_pts, side="right") / a.shape[0]
    cdf_b = np.searchsorted(b, grid_pts, side="right") / b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))
