"""Monte Carlo sweeps across penalization levels, their reductions and fits.

The sweeps integrate every requested penalization level, and the
projected-Euler reference where one is needed, along shared Brownian paths
(common random numbers) in the one step loop, ``_lockstep``, which the
per-path integrators of ``penalized`` and ``reflected`` run too. Every
operation acts row by row, so a path's result does not depend on which
other paths or levels share the batch (a one-path run gives the bytes of
its row in a sweep, and a sweep may split its paths between two
processes), and outputs are bitwise reproducible for a given
configuration. A sweep returns per-path data, a ``SweepResult``, which its
caller reduces with ``error_tables`` or ``weak_rows``.

Errors are pooled as ``(mean over paths of sup^p)^(1/p)``, the bias of the
root accepted. Rate fits offer both the ``log(n)/n`` and the plain ``1/n``
regressor, because the two are empirically hard to distinguish at desk scale.
"""

import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import TimeGrid, halve_increments, sample_increments
from .errors import IntegrationError, RateFitError
from .geometry import Polyhedron, row_norm, row_norm_sq
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

# Increment words (paths x steps x d) sampled at once: per time block of a
# sweep, per path chunk of ``brownian_modulus_table``.
_BLOCK_WORDS = 2 ** 20


# ---------------------------------------------------------------------------
# Tables and fits.
# ---------------------------------------------------------------------------

def _level(n):
    """The level ``n`` as an int; ``ValueError`` unless a positive integer."""
    if not (float(n).is_integer() and n > 0):
        raise ValueError(f"level n = {n} is not a positive integer")
    return int(n)


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
        if any(not (np.isfinite(r.error) and r.error >= 0) for r in self.rows):
            raise ValueError("errors must be finite and nonnegative")
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
    passed = None
    if band is not None:
        lo, hi = band = tuple(band)
        passed = bool((lo is None or slope >= lo)
                      and (hi is None or slope <= hi))
    return RateReport(
        table=table, regressor=regressor, slope=slope, intercept=intercept,
        residual_rms=math.sqrt(math.fsum(v * v for v in resid) / count),
        band=band, passed=passed,
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
        # At rem = 0 both lookups are the whole table: max(a, a) is a.
        rem, n_out = length - size, vals.shape[1] - w
        rng = np.maximum(tmax[:, :n_out], tmax[:, rem:rem + n_out])
        rng -= np.minimum(tmin[:, :n_out], tmin[:, rem:rem + n_out])
        out.append(np.max(rng, axis=1))
    return out


def brownian_modulus_table(grid, levels, num_paths, master_seed, p=2.0):
    """Pooled L^p norm of the Brownian modulus at scales 1/n, per level.

    Paths are sampled in chunks of ``_BLOCK_WORDS // grid.steps`` (at least
    one) into one zero-prefixed ``(chunk, steps + 1)`` buffer, which holds
    their running sums in place and serves every chunk. Besides it, a
    chunk keeps the sampler's tiles while it samples, then in
    ``_window_ranges`` the current maximum and minimum tables and at most
    two more arrays of up to one budget each: a table being doubled, the
    previous window's range, the new range or its minimum term. That is
    about five budgets at the peak, however many paths or steps there are.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    levels = [_level(n) for n in levels]
    windows = []
    for n in levels:
        w = int(np.floor(1.0 / (n * grid.step)))
        if w < 1:
            raise ValueError(f"grid too coarse for level {n}")
        windows.append(w)
    order = np.argsort(windows)  # ascending windows for the shared tables
    sups = np.empty((len(levels), num_paths))
    # Rows are independent, so the chunk moves no bit.
    chunk = min(num_paths, max(1, _BLOCK_WORDS // grid.steps))
    buf = np.zeros((chunk, grid.steps + 1))
    for lo in range(0, num_paths, chunk):
        hi = min(lo + chunk, num_paths)
        w_vals = buf[:hi - lo]
        sums = w_vals[:, 1:]
        sample_increments(grid, master_seed, range(lo, hi), 1,
                          out=sums[..., None])
        np.cumsum(sums, axis=1, out=sums)
        sups[order, lo:hi] = _window_ranges(w_vals,
                                            [windows[i] for i in order])
    return error_tables(levels, sups, [p])[p]


# ---------------------------------------------------------------------------
# Lockstep sweep engine.
# ---------------------------------------------------------------------------

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
    terminal: np.ndarray                # (L, P, d)
    ref_terminal: Optional[np.ndarray]  # (P, d), None without a reference
    sup_dist: Optional[np.ndarray] = None  # (L, P) sup boundary distances
    sup_err: Optional[np.ndarray] = None   # (L, P) sup gaps to the reference


def _lockstep(domain, coeffs, x0, grid, levels, num_paths, scheme, ref_steps,
              blocks, *, increments=False):
    """The one step loop: advance the levels and the reference in lockstep.

    One kernel call per grid step advances the ``(L, P, d)`` states of all
    levels, with the level as an ``(L, 1, 1)`` column and the ``(P, d)``
    increment broadcast over it. The projected-Euler reference, if
    ``ref_steps`` is given, takes ``factor = ref_steps / grid.steps``
    sub-steps per grid step on its ``(P, d)`` states; ``levels`` may then be
    empty. ``blocks`` yields time-major increments: ``(s, P, d)`` for the
    levels' next ``s`` steps and ``(s * factor, P, d)`` for the reference,
    each pair read only until the next is requested.
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
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if not domain.contains(x0, tol.MEMBERSHIP_TOL):
        raise ValueError("x0 must lie in the domain closure")
    if coeffs.dim != domain.dim:
        raise ValueError("coefficient and domain dimensions differ")
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    levels = [float(n) for n in levels]
    if (not (levels or ref_steps)
            or any(not b > a for a, b in zip([0.0] + levels, levels))):
        raise ValueError(
            "levels must be nonempty, positive and strictly increasing")
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
        # Dropped before the next block is requested: one block is in flight.
        del inc, inc_ref


def _increment_blocks(grid, ref_steps, master_seed, paths, d, words):
    """Sampled increment pairs for ``_lockstep``: fine increments for the
    reference and their ``factor``-step sums for the levels, of the paths
    ``paths`` (a range), time-major ``(steps, P, d)`` blocks in
    ``(steps, d, P)`` memory, so that every step reads a contiguous
    ``(P, d)`` slab, one plane per coordinate. The ``m`` coarse steps go
    into the fewest blocks that fit in ``words`` fine words (a block holds
    at least one coarse step), all of one length but a shorter last one:
    4,096 steps where 2,621 fit give 2,048 + 2,048, not 2,621 + 1,475. The
    sums match a whole-path generation bitwise. ``_lockstep`` drops a block
    before the next is sampled, so the increments take one block of at
    most ``max(words, P * d * factor)`` fine words (8 MiB at
    ``_BLOCK_WORDS`` unless a coarse step alone is larger), its sums, a
    sampler tile and, while the sums are formed, at factor 4 or more one
    halving of half a block, however many steps there are."""
    m = grid.steps
    finest = TimeGrid(grid.horizon, ref_steps or m)
    factor = finest.steps // m
    most = max(1, words // max(1, len(paths) * d * factor))
    blocks = -(-m // most)  # ceil(m / most): the fewest that fit
    block = -(-m // blocks)  # at most ``most``, and gives ``blocks`` blocks
    # Each block is yielded straight from the call, so the suspended
    # generator holds no reference to it.
    yield from (_sample_block(finest, master_seed, paths, d, factor, b0,
                              min(b0 + block, m)) for b0 in range(0, m, block))


def _spare_cpu():
    """True where a forked worker can sweep beside this process: the host
    has ``os.fork``, and this process may run on more than one CPU."""
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    return hasattr(os, "fork") and len(cpus) > 1


def _sample_block(finest, master_seed, paths, d, factor, b0, b1):
    """The pair of ``_increment_blocks`` for coarse steps ``b0:b1``, from
    one ``sample_increments`` call into a new block, which fills it in tiles
    of whole paths of at most ``brownian._TILE_WORDS`` words where a path
    fits; the sums keep the block's memory order, and at factor 1 they are
    the fine block itself."""
    fine = np.empty(((b1 - b0) * factor, d, len(paths))).transpose(0, 2, 1)
    by_path = fine.transpose(1, 0, 2)  # the sampler's (P, steps, d) axes
    sample_increments(finest, master_seed, paths, d, step_lo=b0 * factor,
                      step_hi=b1 * factor, out=by_path)
    return halve_increments(by_path, factor).transpose(1, 0, 2), fine


def _sweep_paths(domain, coeffs, x0, grid, levels, num_paths, master_seed,
                 scheme, ref_steps, **folds):
    """Integrate all levels (and the reference) along shared sampled paths,
    without penalty increments, into a ``SweepResult`` whose fields named by
    the keywords hold their ``folds``' results. A fold ``fold(domain, first)
    -> (step, result)`` is built once from ``_lockstep``'s first yield, after
    the input checks; ``step`` receives every yield unchanged, from time 0
    on, and ``result()`` runs once, at the end.

    Where ``_spare_cpu()`` and there are two paths or more, the input and
    sampler checks run in this process first, so their errors keep their
    type, and then ``_split`` sweeps the paths in two halves, each in blocks
    planned against half of ``_BLOCK_WORDS``, so the two processes together
    hold one budget. The halves' fields are joined along the path axis.
    Rows are independent and Philox is keyed per path, so the bits are
    those of the one-process sweep, which one-CPU processes, hosts without
    ``os.fork`` and one-path sweeps run. It is also the one fallback: if
    either half fails, the sweep is redone here in one process, which
    raises the one-process error.
    """
    def sweep(paths, words):
        run = _lockstep(domain, coeffs, x0, grid, levels, len(paths), scheme,
                        ref_steps, _increment_blocks(
                            grid, ref_steps, master_seed, paths, domain.dim,
                            words))
        first = next(run)  # the input checks, before anything is allocated
        running = {name: fold(domain, first) for name, fold in folds.items()}
        for y in itertools.chain([first], run):
            for step, _ in running.values():
                step(y)
        x, _, x_ref, _ = first  # overwritten in place: the final states
        return dict(
            terminal=x.copy(order="C"),
            ref_terminal=None if x_ref is None else x_ref.copy(order="C"),
            **{name: result() for name, (_, result) in running.items()})

    halves = None
    if num_paths >= 2 and _spare_cpu():
        next(_lockstep(domain, coeffs, x0, grid, levels, num_paths, scheme,
                       ref_steps, ()))
        sample_increments(grid, master_seed, (), domain.dim)
        halves = _split(lambda paths: sweep(paths, _BLOCK_WORDS // 2),
                        num_paths)
    if halves is None:
        fields = sweep(range(num_paths), _BLOCK_WORDS)
    else:
        lower, upper = halves
        fields = {name: None if a is None else np.concatenate(
            (a, upper[name]), axis=0 if name == "ref_terminal" else 1)
            for name, a in lower.items()}
    return SweepResult(levels=tuple(levels), **fields)


def _split(sweep, num_paths):
    """Run ``sweep(range(cut))`` in this process and ``sweep(range(cut,
    num_paths))`` in a forked worker, where ``cut = ceil(num_paths / 2)``,
    and return both results, or None if this half raises an ``Exception``
    or the worker sends no whole result; the caller then redoes the work in
    one process. The worker sends its result back pickled over a pipe and
    leaves only by ``os._exit``; the ``finally`` kills and reaps it, at once
    when this half fails."""
    cut = -(-num_paths // 2)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the worker: it sweeps its half and never splits again
        try:
            os.close(r)
            out = sweep(range(cut, num_paths))
            with open(w, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            return sweep(range(cut)), pickle.load(pipe)
    except Exception:  # this half's error, or an empty or truncated result
        return None
    finally:
        os.kill(pid, signal.SIGKILL)  # a no-op on an exited worker
        os.waitpid(pid, 0)


def _sup_fold(first, gap):
    """A fold of per-path sups over the grid times: ``gap(y, out)`` writes
    a yield's gaps into ``out``, in the level states' layout, and ``step``
    folds their ``row_norm_sq`` into a running maximum that ``result`` roots.
    """
    sq_max, sq = np.zeros(first[0].shape[:-1]), np.empty(first[0].shape[:-1])
    out = np.empty_like(first[0])

    def step(y):
        np.maximum(sq_max, row_norm_sq(gap(y, out), out=sq), out=sq_max)
    return step, lambda: np.sqrt(sq_max)


def _sup_err(domain, first):
    """The fold of the sup gaps ``|x - x_ref|`` to the reference."""
    return _sup_fold(first, lambda y, out: np.subtract(y[0], y[2], out=out))


def _sup_dist(domain, first):
    """The fold of the sup distances ``|x - project(x)|`` to the domain.

    On a one-dimensional polyhedron that is a plain clip (no remaining
    faces), a step only folds the state into a running minimum per finite
    lower bound and a running maximum per finite upper bound; the distances
    are folded from these once, at the end, with the same bits: outside a
    bound the gap ``fl(x - b)`` is monotone in ``x`` and ``fl(g * g)`` in
    ``|g|``, inside it is exactly ``+0.0``, so the largest squared gap is at
    an extreme, and ``_guard`` keeps NaN out. A ball's closed form is not
    monotone in floating point, so it keeps the per-step fold, as d >= 2 does.
    """
    fold, root = _sup_fold(first, lambda y, out: np.subtract(
        y[0], domain.project(y[0], out=out), out=out))
    if not (isinstance(domain, Polyhedron) and domain.dim == 1
            and not domain._faces):
        return fold, root
    extremes = [(extreme, first[0].copy()) for extreme, bound in (
        (np.minimum, domain._lower[0]), (np.maximum, domain._upper[0]))
        if math.isfinite(bound)]

    def step(y):
        for extreme, ext in extremes:
            extreme(ext, y[0], out=ext)

    def result():
        for _, ext in extremes:
            fold((ext,))  # a yield with the extremes as its states
        return root()
    return step, result


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
    return mean ** (1.0 / p), float(se_mean / (p * mean ** ((p - 1.0) / p)))


def error_tables(levels, sups, p_list=(2.0,)):
    """One ``ErrorTable`` per p of the pooled norms of ``sups`` ``(L, P)``.

    Raises ``RateFitError`` naming n and p where a pooled norm or its
    standard error overflows; numpy's overflow warnings are silenced, since
    the error says it, and ``ValueError`` for a p repeated in ``p_list``.
    """
    if sups.ndim != 2 or sups.shape[0] != len(levels) or sups.shape[1] < 1:
        raise ValueError("sups must be (levels, paths), with a path or more")
    tables = {}
    for p in p_list:
        if p in tables:
            raise ValueError(f"p_list repeats p = {p:g}")
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
            rows.append(ErrorRow(level=_level(n), num_paths=sups.shape[1],
                                 error=err, stderr=se, p=p))
        tables[p] = ErrorTable(rows=tuple(rows))
    return tables


def boundary_distance_sweep(domain, coeffs, x0, grid, levels, num_paths,
                            master_seed, scheme="splitting"):
    """Per-path sup distances ``sup_dist`` of the penalized process to the
    domain."""
    return _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                        master_seed, scheme, None, sup_dist=_sup_dist)


def strong_error_sweep(domain, coeffs, x0, grid, levels, num_paths,
                       master_seed, scheme="splitting", reference_steps=None):
    """Per-path sup gaps ``sup_err`` to the projected-Euler reference."""
    return _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                        master_seed, scheme,
                        reference_steps or grid.steps, sup_err=_sup_err)


def weak_compare(domain, coeffs, x0, grid, levels, num_paths, master_seed,
                 scheme="splitting", reference_steps=None):
    """Terminal states of the levels and of the projected-Euler reference."""
    return _sweep_paths(domain, coeffs, x0, grid, levels, num_paths,
                        master_seed, scheme, reference_steps or grid.steps)


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
        rows.append(WeakRow(level=_level(n), num_paths=terminal.shape[1],
                            functional=functional, value=value))
    return tuple(rows)


def _cdf_distance(a, b):
    a, b = np.sort(a), np.sort(b)
    grid_pts = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid_pts, side="right") / a.shape[0]
    cdf_b = np.searchsorted(b, grid_pts, side="right") / b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))
