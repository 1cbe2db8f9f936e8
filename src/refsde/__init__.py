"""Reflected diffusions on convex domains via penalization.

The package simulates diffusions constrained to a convex domain by
replacing the reflection with a strong drift back toward the domain,
produces reference reflected trajectories, verifies the Skorokhod-problem
contract, and measures empirical convergence rates of the penalized
approximation against the ``log(n)/n`` scale.
"""

__version__ = "0.1.0"

from .brownian import BrownianPath, TimeGrid, coarsen, sample_increments, \
    sample_path
from .coefficients import CATALOG, CoefficientField, GrowthReport, \
    LipschitzReport, check_linear_growth, check_lipschitz, make_coefficients
from .errors import ConfigError, IntegrationError, RateFitError
from .geometry import Ball, Box, ConvexDomain, HalfLine, NormalDirection, \
    Polyhedron, domain_from_spec, sample_points
from .penalized import PenalizedTrajectory, euler_penalized, \
    splitting_penalized
from .rates import ErrorRow, ErrorTable, RateReport, WeakRow, \
    boundary_distance_sweep, brownian_modulus_table, fit_rate, lp_sup_error, \
    modulus_of_continuity, monotone_decreasing, strong_error_sweep, \
    weak_compare
from .reflected import ReflectedTrajectory, SkorokhodReport, projected_euler, \
    skorokhod_map_halfline, verify_skorokhod

__all__ = [
    "__version__",
    "BrownianPath", "TimeGrid", "coarsen", "sample_increments", "sample_path",
    "CATALOG", "CoefficientField", "GrowthReport", "LipschitzReport",
    "check_linear_growth", "check_lipschitz", "make_coefficients",
    "ConfigError", "IntegrationError", "RateFitError",
    "Ball", "Box", "ConvexDomain", "HalfLine", "NormalDirection",
    "Polyhedron", "domain_from_spec", "sample_points",
    "PenalizedTrajectory", "euler_penalized", "splitting_penalized",
    "ErrorRow", "ErrorTable", "RateReport", "WeakRow",
    "boundary_distance_sweep", "brownian_modulus_table", "fit_rate",
    "lp_sup_error", "modulus_of_continuity", "monotone_decreasing",
    "strong_error_sweep", "weak_compare",
    "ReflectedTrajectory", "SkorokhodReport", "projected_euler",
    "skorokhod_map_halfline", "verify_skorokhod",
]
