"""The documented public surface: the README's example and ``__all__``."""

import importlib
import re
from pathlib import Path

import refsde

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "__version__",
    "BrownianPath", "TimeGrid", "sample_increments", "sample_path",
    "CATALOG", "CoefficientField", "GrowthReport", "LipschitzReport",
    "check_linear_growth", "check_lipschitz", "make_coefficients",
    "ConfigError", "IntegrationError", "RateFitError",
    "Ball", "Box", "ConvexDomain", "HalfLine", "Polyhedron",
    "domain_from_spec", "sample_points",
    "PenalizedTrajectory", "euler_penalized", "splitting_penalized",
    "ErrorRow", "ErrorTable", "RateReport", "SweepResult", "WeakRow",
    "boundary_distance_sweep", "brownian_modulus_table", "error_tables",
    "fit_rate", "monotone_decreasing", "strong_error_sweep", "weak_compare",
    "weak_rows",
    "ReflectedTrajectory", "SkorokhodReport", "projected_euler",
    "skorokhod_map_halfline", "verify_skorokhod",
]

SUBMODULES = ["brownian", "coefficients", "geometry", "penalized", "rates",
              "reflected"]


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    max_dist, sup_error = map(float, capsys.readouterr().out.split())
    assert 0.0 <= max_dist and 0.0 < sup_error < 1.0


def test_public_names_are_pinned_and_resolve():
    assert refsde.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(refsde, name), name
    for mod in SUBMODULES:
        module = importlib.import_module(f"refsde.{mod}")
        for name in module.__all__:
            assert hasattr(module, name), (mod, name)
