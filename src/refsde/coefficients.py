"""Drift/diffusion coefficient pairs, a small named catalog, the Euler
update they drive, and sampling-based diagnostics for linear growth and
Lipschitz continuity.

A coefficient field packages two pure callables that return coordinate
entries: ``diffusion(t, x)`` returns sigma as d rows of d entries, and
``drift(t, x)`` returns d entries. Each entry is a float or an array that
broadcasts against ``x[..., 0]``, for ``x`` of shape ``(..., d)``.
``euler_update`` is the step path's only reader of this format; the
diagnostics assemble the ``(..., d, d)`` matrix and measure its size in the
Frobenius norm.

The growth/Lipschitz checks certify declared constants on a sampled box
only; the hypotheses themselves are global and the coefficients are opaque
callables, so the reports record the box that was probed.
"""

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import tolerances as tol

__all__ = [
    "CoefficientField",
    "CATALOG",
    "GrowthReport",
    "LipschitzReport",
    "make_coefficients",
    "euler_update",
    "check_linear_growth",
    "check_lipschitz",
]


@dataclass(frozen=True)
class CoefficientField:
    name: str
    dim: int
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    drift: Callable[[float, np.ndarray], np.ndarray]
    growth_constant: Optional[float] = None
    lipschitz_constant: Optional[float] = None


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of a sampled linear-growth check."""

    passed: bool
    max_ratio: float
    constant: float
    box_radius: float
    samples: int
    violating_point: Optional[tuple] = None  # (t, x)


@dataclass(frozen=True)
class LipschitzReport:
    """Outcome of a sampled Lipschitz check."""

    passed: bool
    max_quotient: float
    constant: float
    box_radius: float
    samples: int
    violating_pair: Optional[tuple] = None  # (t, x, y)


# ---------------------------------------------------------------------------
# Catalog entries. All are autonomous; t is threaded through regardless.
# ---------------------------------------------------------------------------

def _ou_diffusion(sigma0, t, x):
    return ((sigma0,),)


def _ou_drift(kappa, t, x):
    return (-kappa * x[..., 0],)


def _clipped_diag_diffusion(sigma0, cap, t, x):
    diag = sigma0 * np.clip(x, -cap, cap)
    d = x.shape[-1]
    return tuple(tuple(diag[..., i] if i == j else 0.0 for j in range(d))
                 for i in range(d))


def _linear_drift(mu, t, x):
    return tuple(mu * x[..., i] for i in range(x.shape[-1]))


def _sin_coupled_diffusion(amplitude, t, x):
    s = np.sin(x)  # one call on the whole state, then two planes
    return ((1.0, amplitude * s[..., 1]), (amplitude * s[..., 0], 1.0))


def _cos_drift(scale, t, x):
    c = np.cos(x)
    return (scale * c[..., 1], scale * c[..., 0])


def _two_level_diffusion(low, high, threshold, t, x):
    return ((np.where(x[..., 0] < threshold, low, high),),)


def _zero_drift(t, x):
    return (0.0,)


def _build_ou1d(kappa=1.0, sigma0=1.0):
    return CoefficientField(
        name="ou1d",
        dim=1,
        diffusion=partial(_ou_diffusion, float(sigma0)),
        drift=partial(_ou_drift, float(kappa)),
        growth_constant=max(sigma0 ** 2, kappa ** 2),
        lipschitz_constant=kappa ** 2,
    )


def _build_gbm_box(mu=0.05, sigma0=0.3, cap=10.0):
    return CoefficientField(
        name="gbm-box",
        dim=2,
        diffusion=partial(_clipped_diag_diffusion, float(sigma0), float(cap)),
        drift=partial(_linear_drift, float(mu)),
        growth_constant=sigma0 ** 2 + mu ** 2,
        lipschitz_constant=sigma0 ** 2 + mu ** 2,
    )


def _build_quadrant2d(amplitude=0.1, drift_scale=0.5):
    # Frobenius bound: |sigma|^2 <= 2 + 2*amplitude^2, |b|^2 <= 2*drift_scale^2.
    growth = 2.0 + 2.0 * amplitude ** 2 + 2.0 * drift_scale ** 2
    return CoefficientField(
        name="quadrant2d",
        dim=2,
        diffusion=partial(_sin_coupled_diffusion, float(amplitude)),
        drift=partial(_cos_drift, float(drift_scale)),
        growth_constant=growth,
        lipschitz_constant=amplitude ** 2 + drift_scale ** 2,
    )


def _build_schmidt1d(sigma_low=1.0, sigma_high=2.0, threshold=1.0):
    return CoefficientField(
        name="schmidt1d",
        dim=1,
        diffusion=partial(_two_level_diffusion, float(sigma_low),
                          float(sigma_high), float(threshold)),
        drift=_zero_drift,
        growth_constant=max(sigma_low, sigma_high) ** 2,
        lipschitz_constant=None,
    )


# Each builder's signature declares the entry's parameters and defaults.
CATALOG = {
    "ou1d": _build_ou1d,
    "gbm-box": _build_gbm_box,
    "quadrant2d": _build_quadrant2d,
    "schmidt1d": _build_schmidt1d,
}


def make_coefficients(name, **params):
    """Instantiate a catalog entry by name with optional parameter overrides."""
    if name not in CATALOG:
        raise ValueError(f"unknown coefficient catalog entry {name!r}")
    build = CATALOG[name]
    unknown = set(params) - set(inspect.signature(build).parameters)
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    return build(**params)


def euler_update(field_, t, x, dw, h, base=None):
    """``base + sigma(t, x) dw + h b(t, x)``, one output coordinate at a time.

    Coordinate i is ``(base_i + m_i) + h b_i``, or ``m_i + h b_i`` without
    ``base``, with ``m_i = sigma_i0 dw_0 + sigma_i1 dw_1 + ...`` in j order.
    Zero and unit entries stay multiplied, so the bits are the broadcast
    matrix expression's. For d = 1 the result is a view of the one column,
    else of a ``(d, ...)`` buffer: coordinate-major whatever the inputs are.
    """
    b, rows = field_.drift(t, x), field_.diffusion(t, x)
    out = None
    for i, row in enumerate(rows):
        m = row[0] * dw[..., 0]
        for j in range(1, len(row)):
            m = m + row[j] * dw[..., j]
        if base is not None:
            m = base[..., i] + m
        hb = h * b[i]
        if len(rows) == 1:
            return (m + hb)[..., None]
        if out is None:
            shape = m.shape
            if getattr(hb, "shape", shape) != shape:  # a wider drift
                shape = np.broadcast(m, hb).shape
            out = np.empty((len(rows),) + shape)
        np.add(m, hb, out=out[i, ...])  # out[i] is no view for a (d,) point
    return out.transpose(*range(1, out.ndim), 0)


# ---------------------------------------------------------------------------
# Sampled-hypothesis diagnostics.
# ---------------------------------------------------------------------------

def _eval_field(field_, t, x):
    """Sigma as a ``(..., d, d)`` array and the drift as ``(..., d)``."""
    d = field_.dim
    sig, b = np.empty(x.shape + (d,)), np.empty(x.shape)
    rows, drift = field_.diffusion(t, x), field_.drift(t, x)
    for i in range(d):
        b[..., i] = drift[i]
        for j in range(d):
            sig[..., i, j] = rows[i][j]
    if not np.all(np.isfinite(sig)) or not np.all(np.isfinite(b)):
        bad = np.argmax(~(np.all(np.isfinite(sig), axis=(-2, -1))
                          & np.all(np.isfinite(b), axis=-1)))
        raise ValueError(
            f"non-finite coefficient output at t={t}, x={x.reshape(-1, d)[bad]}"
        )
    return sig, b


def _probe(field_, quotient, constant, samples, box_radius, rng_seed, what):
    """The sampled maximum of ``quotient(t, x, rng)``, its witness
    ``(t, *points)`` (None if it passes) and the shared report fields.

    One generator draws 16 times, then ``ceil(samples / 16)`` uniform
    points ``x`` in the box per time, before ``quotient`` draws from it;
    ``quotient`` returns the quotients and a tuple of the point arrays of
    their rows, if any. A constant of 0 is valid, for constant coefficients.
    """
    if constant < 0:
        raise ValueError(f"{what} constant must be nonnegative")
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    t_values = rng.uniform(0.0, 1.0, size=16)
    per_t = -(-samples // len(t_values))
    top, worst, kept = -np.inf, None, 0
    for t in t_values:
        x = rng.uniform(-box_radius, box_radius, size=(per_t, field_.dim))
        q, points = quotient(float(t), x, rng)
        kept += q.size
        if not q.size:
            continue
        k = int(np.argmax(q))
        if q[k] > top:
            top = float(q[k])
            worst = (float(t),) + tuple(p[k].copy() for p in points)
    if not kept:
        raise ValueError(f"no {what} pair above the 1e-6 * box_radius floor")
    passed = top <= constant * (1.0 + tol.COEFFICIENT_SLACK)
    return top, None if passed else worst, dict(
        passed=passed, constant=float(constant),
        box_radius=float(box_radius), samples=samples)


def check_linear_growth(field_, constant, samples=10_000, box_radius=10.0,
                        rng_seed=0):
    """Probe (|sigma|^2 + |b|^2) / (1 + |x|^2) on a sampled box.

    Passes when the sampled maximum is at most ``constant`` (with relative
    slack 1e-9). Time is sampled from a small set of values in [0, 1].
    """
    def quotient(t, x, rng):
        sig, b = _eval_field(field_, t, x)
        return (np.sum(sig ** 2, axis=(-2, -1)) + np.sum(b ** 2, axis=-1)) \
            / (1.0 + np.sum(x ** 2, axis=-1)), (x,)

    top, worst, common = _probe(field_, quotient, constant, samples,
                                box_radius, rng_seed, "growth")
    return GrowthReport(max_ratio=top, violating_point=worst, **common)


def check_lipschitz(field_, constant, samples=10_000, box_radius=10.0,
                    rng_seed=0):
    """Probe the squared-difference quotient on sampled point pairs.

    A third of the pairs are independent uniforms; the rest are small
    perturbations at two scales, so straddling pairs around a
    discontinuity are found. Pairs closer than ``1e-6 * box_radius`` are
    discarded: below that the quotient is dominated by floating-point
    cancellation rather than the coefficients. As a consequence a declared
    constant far above the sampling resolution can pass spuriously; the
    report records the box and sample count that were actually probed.
    """
    floor_sq = (1e-6 * box_radius) ** 2

    def quotient(t, x, rng):
        y = np.empty_like(x)
        third = len(x) // 3
        y[:third] = rng.uniform(-box_radius, box_radius, size=(third, field_.dim))
        y[third:2 * third] = x[third:2 * third] \
            + 1e-3 * box_radius * rng.standard_normal((third, field_.dim))
        y[2 * third:] = x[2 * third:] \
            + 1e-5 * box_radius * rng.standard_normal((len(x) - 2 * third, field_.dim))
        gap = np.sum((x - y) ** 2, axis=-1)
        keep = gap > floor_sq
        x, y, gap = x[keep], y[keep], gap[keep]
        sig_x, b_x = _eval_field(field_, t, x)
        sig_y, b_y = _eval_field(field_, t, y)
        return (np.sum((sig_x - sig_y) ** 2, axis=(-2, -1))
                + np.sum((b_x - b_y) ** 2, axis=-1)) / gap, (x, y)

    top, worst, common = _probe(field_, quotient, constant, samples,
                                box_radius, rng_seed, "Lipschitz")
    return LipschitzReport(max_quotient=top, violating_pair=worst, **common)
