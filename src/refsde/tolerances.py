"""Centralized numeric tolerances.

Keeping them in one place makes the verification suite's thresholds
auditable. Most are fixed: ``UNIT_VECTOR_TOL``, ``INTERIOR_MARGIN_FLOOR``,
``ACTIVE_SET_RANK_RTOL`` and ``NORMAL_MIN_DIST`` (domain construction and
``normal_at`` in ``geometry``), ``MEMBERSHIP_TOL`` (starting-point
checks) and ``COEFFICIENT_SLACK`` (``check_linear_growth`` and
``check_lipschitz``) are read where they are used, and no argument
overrides them. ``BOUNDARY_TOL`` and ``FLATNESS_TOL`` are defaults:
``reflected.verify_skorokhod`` accepts ``boundary_tol`` and ``flat_tol``
in their place.
"""

# Construction-time validation.
UNIT_VECTOR_TOL = 1e-12
INTERIOR_MARGIN_FLOOR = 1e-8

# Polyhedral faces whose normals have a smallest singular value below this
# (relative to the largest) count as linearly dependent. It is about
# sqrt(machine epsilon): past it the multipliers of the active set carry
# relative rounding errors of order one, so the set's candidate is useless.
ACTIVE_SET_RANK_RTOL = 1.5e-8

# Inward normals are undefined closer to the domain than this.
NORMAL_MIN_DIST = 1e-12

# Skorokhod-contract verification.
BOUNDARY_TOL = 1e-9
FLATNESS_TOL = 1e-12

# Membership test used when validating starting points.
MEMBERSHIP_TOL = 1e-12

# Relative slack applied to declared coefficient constants.
COEFFICIENT_SLACK = 1e-9
