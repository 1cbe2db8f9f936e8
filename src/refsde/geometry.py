"""Convex domains with metric projection and distance.

Two projections cover every domain: a polyhedron, the intersection of
halfspaces with unit outward normals, and a euclidean ball. The
one-dimensional half-line and the axis-aligned box (infinite bounds
allowed) are polyhedra whose faces are their finite bounds.

All operations accept a single point of shape ``(d,)`` or a batch of shape
``(..., d)`` and return results with matching leading axes. Domain objects
are immutable after construction and safe to share across workers; every
operation is pure.

Every projection is exact, with no iteration and no stopping rule: the
ball has a closed form, and a polyhedron clips its coordinate faces as
scalar bounds and picks the KKT point of the rest among precomputed active
sets (see ``Polyhedron``, ``_split_faces`` and ``_project``).
"""

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import tolerances as tol

__all__ = [
    "ConvexDomain",
    "HalfLine",
    "Box",
    "Polyhedron",
    "Ball",
    "sample_points",
    "domain_from_spec",
]


class ConvexDomain:
    """Base class for closed convex domains in R^d with nonempty interior."""

    dim: int

    # -- operations ------------------------------------------------------

    def project(self, x, out=None):
        """Nearest point of the domain closure to ``x`` (shape ``(..., d)``).

        ``out``, as for a ufunc, is an array of ``x``'s shape that receives
        the result and is returned, with the bytes the allocating call
        returns; it must not overlap ``x``. Points inside are returned
        bitwise unchanged, without ``out`` as ``x`` itself if all are.
        """
        raise NotImplementedError

    def distance(self, x):
        """Euclidean distance ``|x - project(x)|`` to the domain closure."""
        x = np.asarray(x, dtype=float)  # project checks the dimension
        return row_norm(x - self.project(x))

    def contains(self, x, tolerance=0.0):
        """True where ``distance(x) <= tolerance``."""
        if tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        return self.distance(x) <= tolerance

    def boundary_distance(self, x):
        """Distance from ``x`` to the domain boundary.

        For interior points this is the margin to the nearest face
        (supporting halfspace for polyhedra, ``|r - |x - c||`` for balls);
        for exterior points it coincides with ``distance``.
        """
        raise NotImplementedError

    def interior_point(self):
        """A strictly interior point, found/validated at construction."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(
                f"dimension mismatch: expected trailing axis {self.dim}, "
                f"got shape {x.shape}"
            )
        return x


@dataclass(frozen=True)
class Polyhedron(ConvexDomain):
    """Intersection of halfspaces ``<a_i, x> <= c_i`` with unit normals a_i.

    Construction checks that every normal has unit length (within
    ``UNIT_VECTOR_TOL``), turns the coordinate faces on free coordinates
    into scalar bounds (see ``_split_faces``), so a box or an orthant needs
    no active sets, precomputes the candidate active sets of the remaining
    faces (at most ``MAX_ACTIVE_SETS``) and checks that the interior is
    nonempty (see ``_find_interior_point``); a failed check raises
    ``ValueError``. Without faces, the polyhedron is R^d.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        c = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if (a.ndim != 2 or c.ndim != 1 or a.shape[0] != c.shape[0]
                or a.shape[1] == 0):
            raise ValueError("normals must be (m, d >= 1), offsets (m,)")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(c)):
            raise ValueError("polyhedron data must be finite")
        norms = row_norm(a)
        if np.any(np.abs(norms - 1.0) > tol.UNIT_VECTOR_TOL):
            raise ValueError("polyhedron normals must be unit vectors")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", c)
        object.__setattr__(self, "dim", a.shape[1])
        lower, upper, rest, coupled = _split_faces(a, c)
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "_upper", upper)
        object.__setattr__(self, "_runs", _runs(lower, upper))
        object.__setattr__(self, "_rest", rest)
        object.__setattr__(self, "_faces", a[rest].tolist())
        object.__setattr__(self, "_bounds", c[rest].tolist())
        object.__setattr__(self, "_active_sets",
                           _active_sets(a[rest], coupled))
        object.__setattr__(self, "_anchor", self._find_interior_point())

    def slack(self, x):
        """Per-constraint margins ``c_i - <a_i, x>``, shape ``(..., m)``."""
        x = self._check_point(x)
        # einsum keeps the reduction order independent of the batch shape,
        # unlike matmul, so batched and single-point calls agree bitwise.
        return self.offsets - np.einsum("...d,md->...m", x, self.normals)

    def project(self, x, out=None):
        return _project(self._check_point(x), self._runs, self._faces,
                        self._bounds, self._active_sets, out)

    def boundary_distance(self, x):
        margin = np.min(self.slack(x), axis=-1, initial=np.inf)
        return np.where(margin >= 0.0, margin, self.distance(x))

    def interior_point(self):
        return self._anchor.copy()

    def _find_interior_point(self):
        """Find a strictly interior point or reject the polyhedron.

        Sweeps a geometric sequence of margins eps and projects the origin
        onto the shrunk constraints ``<a_i, x> <= c_i - eps``, with the
        bounds of free coordinates moved inward by eps or to their
        midpoint, whichever is nearer; the first result whose every slack
        is positive, and exceeds ``eps / 2`` on the remaining faces,
        certifies nonempty interior. A shrunk set that is empty yields no
        such point, so the sweep goes on to the next margin.
        """
        scale = max(1.0, float(np.max(np.abs(self.offsets), initial=0.0)))
        origin = np.zeros(self.dim)
        half = 0.5 * self._upper - 0.5 * self._lower
        top = np.finfo(float).max
        eps = 0.5 * scale
        while eps >= tol.INTERIOR_MARGIN_FLOOR * scale:
            shrink = np.minimum(eps, half)
            # A bound that would move past the largest float has an empty
            # shrunk interval; the margin is skipped before it overflows.
            if (np.all(self._lower <= top - shrink)
                    and np.all(self._upper >= shrink - top)):
                x = _project(origin, _runs(self._lower + shrink,
                                           self._upper - shrink),
                             self._faces, [c - eps for c in self._bounds],
                             self._active_sets)
                if np.all(self.slack(x)
                          > np.where(self._rest, 0.5 * eps, 0.0)):
                    return x
            eps *= 0.5
        raise ValueError(
            "polyhedron has empty interior: no strictly feasible point found"
        )


@dataclass(frozen=True)
class HalfLine(Polyhedron):
    """The interval [lower, infinity) in R^1: the face ``-x <= -lower``."""

    normals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    lower: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        if not np.isfinite(self.lower):
            raise ValueError("half-line lower bound must be finite")
        object.__setattr__(self, "normals", np.array([[-1.0]]))
        object.__setattr__(self, "offsets", np.array([0.0 - self.lower]))
        super().__post_init__()


@dataclass(frozen=True)
class Box(Polyhedron):
    """Axis-aligned box; individual bounds may be -inf or +inf.

    Its faces are ``-x_j <= -lower_j`` and ``x_j <= upper_j`` for the
    finite bounds.
    """

    normals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < up):
            raise ValueError("box requires lower_i < upper_i on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        eye = np.eye(lo.shape[0])
        below, above = np.isfinite(lo), np.isfinite(up)
        object.__setattr__(self, "normals",
                           np.vstack([-eye[below], eye[above]]))
        object.__setattr__(self, "offsets",
                           np.concatenate([0.0 - lo[below], up[above] + 0.0]))
        super().__post_init__()


@dataclass(frozen=True)
class Ball(ConvexDomain):
    """Closed euclidean ball of strictly positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("ball center must be a finite 1-d point")
        r = float(self.radius)
        if not (np.isfinite(r) and r > 0):
            raise ValueError("ball radius must be strictly positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self):
        return self.center.shape[0]

    def _offsets(self, x):
        # x - center and its row_norm by columns, with the broadcast's bits.
        delta = [x[..., j] - c for j, c in enumerate(self.center)]
        r_sq = sum((d_j * d_j for d_j in delta[1:]), delta[0] * delta[0])
        return delta, np.sqrt(r_sq)

    def project(self, x, out=None):
        x = self._check_point(x)
        delta, r = self._offsets(x)
        outside = r > self.radius
        if not np.any(outside):
            return x if out is None else _copy(x, out)
        scale = self.radius / np.where(outside, r, 1.0)
        if out is None:
            out = np.empty_like(x)
        for j, (c, d_j) in enumerate(zip(self.center, delta)):
            out[..., j] = np.where(outside, c + d_j * scale, x[..., j])
        return out

    def boundary_distance(self, x):
        _, r = self._offsets(self._check_point(x))
        return np.abs(self.radius - r)

    def interior_point(self):
        return self.center.copy()


# ---------------------------------------------------------------------------
# Exact projection onto polyhedra.
# ---------------------------------------------------------------------------

# Largest number of candidate active sets, sum_{1<=k<=d} C(m, k), that a
# Polyhedron may have: every projection of an exterior batch evaluates each.
# Faces clipped on free coordinates do not count.
MAX_ACTIVE_SETS = 1024


def row_norm(v):
    """Euclidean norm over the last axis of ``v``, summed in column order.

    Numpy's ``norm(v, axis=-1)`` runs a short inner loop once per row; this
    takes one whole-column pass per coordinate instead, and a row's result
    does not depend on its batch. It equals ``norm(v, axis=-1)`` bitwise
    for d <= 7, where numpy also sums in order (not pairwise).
    """
    return np.sqrt(row_norm_sq(v))


def row_norm_sq(v, out=None):
    """Squared ``row_norm``: the column-order sum of squares it roots.

    A sweep keeps running maxima of these and roots them once at the end:
    ``sqrt`` is correctly rounded and monotone, so the root of a maximum is
    the maximum of the roots, bit for bit. ``out``, an array of shape
    ``v.shape[:-1]``, receives the sums as for a ufunc, with the same bits.
    """
    sq = np.multiply(v[..., 0], v[..., 0], out=out)
    for j in range(1, v.shape[-1]):
        sq = np.add(sq, v[..., j] * v[..., j], out=out)
    return sq


def _split_faces(normals, offsets):
    """Turn the coordinate faces on free coordinates into scalar bounds.

    A coordinate face has one nonzero normal entry, equal to +-1.0; a
    coordinate is free when every face touching it is a coordinate face.
    On a free coordinate j, ``+e_j`` with offset c is the upper bound c and
    ``-e_j`` the lower bound -c, and repeated faces keep the tightest.
    Returns the bounds ``(lower, upper)``, each ``(d,)`` and infinite where
    nothing bounds a free coordinate and on every coupled coordinate, the
    mask of the remaining faces and the indices of the coupled (not free)
    coordinates, the only ones the remaining faces touch.
    """
    d = normals.shape[1]
    nonzero = normals != 0.0
    on_axis = (nonzero.sum(axis=1) == 1) & (np.abs(normals).max(axis=1) == 1.0)
    free = ~np.any(nonzero[~on_axis], axis=0)
    axis = np.argmax(nonzero, axis=1)
    clipped = on_axis & free[axis]
    lower = np.full(d, -np.inf)
    upper = np.full(d, np.inf)
    for j, a, c in zip(axis[clipped], normals[clipped], offsets[clipped]):
        # A zero bound is +0.0, as the face formula x - (x - c) gives.
        if a[j] > 0.0:
            upper[j] = min(upper[j], c + 0.0)
        else:
            lower[j] = max(lower[j], 0.0 - c)
    return lower, upper, ~clipped, np.flatnonzero(~free)


def _runs(lower, upper):
    """The coordinates with a finite bound in ``lower`` or ``upper``, as
    maximal runs of adjacent coordinates with bitwise equal bounds,
    ``(slice, lo, hi)``; a run over every coordinate is
    ``(Ellipsis, lo, hi)``."""
    runs = []
    for j in np.flatnonzero(np.isfinite(lower) | np.isfinite(upper)).tolist():
        lo, hi = float(lower[j]), float(upper[j])
        same = runs and runs[-1][0].stop == j and (
            runs[-1][1].hex(), runs[-1][2].hex()) == (lo.hex(), hi.hex())
        start = runs.pop()[0].start if same else j
        runs.append((slice(start, j + 1), lo, hi))
    if len(runs) == 1 and runs[0][0] == slice(0, len(lower)):
        return [(Ellipsis,) + runs[0][1:]]
    return runs


def _copy(x, out):
    np.copyto(out, x)
    return out


def _clip_columns(x, runs, out=None):
    """``x`` with each run of columns clipped as one slab to its scalar
    bounds, or ``x`` itself if there are none; a copy keeps its layout. Scalar
    bounds keep a value inside them bit for bit, ``-0.0`` included, whatever
    the batch; array bounds can return a zero bound's ``-0.0`` as ``+0.0``.
    With ``out`` the result is written there instead (see ``project``)."""
    if not runs:
        return x if out is None else _copy(x, out)
    cols, lo, hi = runs[0]
    if cols is Ellipsis:
        return _clip(x, lo, hi, out)
    out = np.copy(x) if out is None else _copy(x, out)
    for cols, lo, hi in runs:
        _clip(x[..., cols], lo, hi, out[..., cols])
    return out


def _clip(col, lo, hi, out=None):
    """``clip(col, lo, hi)`` in one ufunc call that keeps the memory order of
    ``col``, a column or a slab, or writes into ``out``. A one-sided bound
    goes through ``maximum`` or ``minimum`` with the bound first, which gives
    ``clip``'s bits (a tie keeps the column's ``-0.0``) without its Python
    wrapper."""
    if hi == math.inf:
        return np.maximum(lo, col, out=out)
    if lo == -math.inf:
        return np.minimum(hi, col, out=out)
    return np.clip(col, lo, hi, out=out)


def _active_sets(normals, coupled):
    """Candidate active sets of the faces ``normals`` ``(m, d)``, which touch
    only the ``coupled`` coordinates.

    Returns ``(rows, ginv, pinv)`` for every linearly independent set S of
    at most ``len(coupled)`` faces (rank decided at ``ACTIVE_SET_RANK_RTOL``),
    by size then index order: the face indices, the rows of ``G_S^-1 =
    (A_S A_S^T)^-1`` and the rows of the pseudo-inverse ``A_S^T G_S^-1``
    (``d`` lists of ``|S|`` entries, all zero on the other coordinates), as
    Python floats.
    """
    d = normals.shape[1]
    sub = normals[:, coupled]
    m, k_max = sub.shape
    count = sum(math.comb(m, k) for k in range(1, min(m, k_max) + 1))
    if count > MAX_ACTIVE_SETS:
        raise ValueError(
            f"polyhedron with {m} faces on {k_max} coupled coordinates has "
            f"{count} candidate active sets; at most {MAX_ACTIVE_SETS} are "
            "supported"
        )
    sets = []
    for k in range(1, min(m, k_max) + 1):
        for rows in itertools.combinations(range(m), k):
            a_s = sub[list(rows)]
            if np.linalg.matrix_rank(a_s, rtol=tol.ACTIVE_SET_RANK_RTOL) < k:
                continue
            ginv = np.linalg.inv(a_s @ a_s.T)
            pinv = np.zeros((d, k))
            # From the SVD: no G_S^-1 rounding.
            pinv[coupled] = np.linalg.pinv(a_s)
            sets.append((rows, ginv.tolist(), pinv.tolist()))
    return sets


def _combine(coeffs, terms):
    """``sum_k coeffs[k] * terms[k]`` in index order, or None if all are 0.

    Zero coefficients, common on axis-aligned faces, are skipped; that is
    exact except for the sign of a zero sum.
    """
    out = None
    for a, t in zip(coeffs, terms):
        if a != 0.0:
            out = a * t if out is None else out + a * t
    return out


def _project(x, runs, faces, offsets, active_sets, out=None):
    """Metric projection of ``x`` ``(..., d)`` onto a polyhedron: the
    product of the intervals ``runs`` and of the remaining ``faces`` on
    orthogonal coordinates (see ``_split_faces``), so each clipped column
    goes through ``_clip_columns`` and the rest through the candidates below.

    For an exterior point, each candidate S gives ``r_S = A_S x - c_S``,
    multipliers ``lam_S = G_S^-1 r_S`` and the point ``p_S = x - A_S^T
    lam_S``, formed with the pseudo-inverse as ``x - (A_S^T G_S^-1) r_S``.
    A candidate with ``lam_S >= 0`` is dual feasible with dual value
    ``|x - p_S|^2 / 2 = <lam_S, r_S> / 2``, and the KKT point is one of
    them, so by weak duality the largest value marks the projection: no
    iteration and no feasibility tolerance. All operations act row by row
    on coordinate columns, so a point's result does not depend on its
    batch; feasible points are returned bitwise unchanged, as ``x`` itself
    unless ``out`` is given. With ``out`` the clips write into it, so ``x``
    is ``out`` from then on, and the candidates scatter their points there.
    """
    x = _clip_columns(x, runs, out)
    if not faces:
        return x
    cols = [x[..., j] for j in range(x.shape[-1])]
    res = []
    outside = False
    for a, c in zip(faces, offsets):
        r = _combine(a, cols) - c
        res.append(r)
        outside = outside | (r > 0.0)
    if not np.any(outside):
        return x
    # Only the exterior rows go through the candidates.
    rows_out = np.flatnonzero(outside)
    cols = [col.ravel()[rows_out] for col in cols]
    res = [r.ravel()[rows_out] for r in res]
    best = -1.0
    p = list(cols)
    for rows, ginv, pinv in active_sets:
        r = [res[i] for i in rows]
        lam = [_combine(g, r) for g in ginv]
        ok = lam[0] >= 0.0
        value = lam[0] * r[0]
        for lam_k, r_k in zip(lam[1:], r[1:]):
            ok = ok & (lam_k >= 0.0)
            value = value + lam_k * r_k
        better = ok & (value > best)
        if not np.any(better):
            continue
        best = np.where(better, value, best)
        for j, m_j in enumerate(pinv):
            q = _combine(m_j, r)
            if q is None:
                if p[j] is cols[j]:
                    continue  # p_S keeps x_j, as every row still does
                p[j] = np.where(better, cols[j], p[j])
            else:
                p[j] = np.where(better, cols[j] - q, p[j])
    if out is None:
        out = np.copy(x)  # scattered back by columns, in any layout
    for j, p_j in enumerate(p):
        out[..., j][outside] = p_j
    return out


# ---------------------------------------------------------------------------
# Point sampling and config construction.
# ---------------------------------------------------------------------------

def sample_points(domain, count, seed, spread=2.0, interior=False):
    """Deterministic sample of points of the domain closure.

    Projections of gaussian samples centered at the projection of the
    origin, a point of the closure, so that the cloud reaches the corners
    near it (the interior anchor of an acute wedge lies far from its apex);
    with ``interior=True`` the points are pulled strictly inside by a
    uniform shrink toward the interior anchor.
    """
    rng = np.random.default_rng(seed)
    centre = domain.project(np.zeros(domain.dim))
    z = centre + spread * rng.standard_normal((count, domain.dim))
    pts = domain.project(z)
    if interior:
        anchor = domain.interior_point()
        u = rng.uniform(0.0, 0.999, size=count)
        pts = anchor + u[:, None] * (pts - anchor)
    return pts


_DOMAIN_TYPES = {"halfline": HalfLine, "box": Box, "polyhedron": Polyhedron,
                 "ball": Ball}


def domain_from_spec(spec):
    """A domain from its config mapping: a ``type`` and its class's fields."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("domain spec must be a mapping with a 'type' key")
    kind = spec["type"]
    if kind not in _DOMAIN_TYPES:
        raise ValueError(f"unknown domain type {kind!r}")
    cls = _DOMAIN_TYPES[kind]
    known = {f.name for f in fields(cls) if f.init}
    extra = set(spec) - known - {"type"}
    if extra:
        raise ValueError(f"unknown keys in domain spec: {sorted(extra)}")
    missing = known - set(spec)
    if missing:
        raise ValueError(f"domain spec missing keys: {sorted(missing)}")
    return cls(**{key: spec[key] for key in known})
