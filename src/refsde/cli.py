"""Batch experiment front-end.

Subcommands ``validate``, ``dist-rate``, ``strong-rate`` and
``weak-compare`` each read one JSON config, run the experiment and write
artifacts into the output directory:

* ``errors.csv``: the per-level table (rate kinds: n, num_paths, p, error,
  stderr; weak-compare: n, num_paths, functional, value).
* ``rate_report.json`` (rate kinds): slope fits against both regressors,
  the pass band, and monotonicity flags.
* ``weak_report.json`` (weak-compare): first/last values and decrease
  factor. ``validation_report.json`` (validate): per-check outcomes.
* ``manifest.json``: config echo, seed, config hash and artifact hashes.

Configs are parsed fail-closed: unknown keys anywhere and malformed values
are rejected. All floating point is serialized with 17 significant digits
and reductions run in a fixed order, so re-running a config reproduces
every artifact bitwise.

Exit codes: 0 success, 2 invalid config, 3 numerical failure.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .brownian import TimeGrid
from .coefficients import check_linear_growth, check_lipschitz, \
    make_coefficients
from .errors import ConfigError, IntegrationError, RateFitError
from .geometry import Ball, domain_from_spec, row_norm, sample_points
from .rates import REGRESSORS, WEAK_FUNCTIONALS, boundary_distance_sweep, \
    error_tables, fit_rate, monotone_decreasing, strong_error_sweep, \
    weak_compare, weak_rows
from . import tolerances as tol

_COMMON_KEYS = {"kind", "domain", "coefficients", "x0", "horizon_T",
                "log2_fine_steps", "master_seed", "num_paths"}
_SWEEP_KEYS = {"n_list", "scheme", "p_list"}
_KEYS_BY_KIND = {
    "validate": _COMMON_KEYS,
    "dist-rate": _COMMON_KEYS | _SWEEP_KEYS | {"regressor", "slope_band"},
    "strong-rate": _COMMON_KEYS | _SWEEP_KEYS
        | {"reference", "regressor", "slope_band"},
    "weak-compare": _COMMON_KEYS | _SWEEP_KEYS | {"reference", "functional"},
}
KINDS = tuple(_KEYS_BY_KIND)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    raw: dict
    domain: object
    coefficients: object
    x0: np.ndarray
    grid: TimeGrid
    master_seed: int
    num_paths: int
    n_list: tuple = ()
    scheme: str = "splitting"
    p_list: tuple = (2.0,)
    reference_steps: Optional[int] = None
    functional: str = "cdf"
    regressor: str = "ln_n_over_n"
    slope_band: Optional[tuple] = None


def load_config(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, and integers too long for Python to read.
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(raw, kind)


def _convert(value, cast, what):
    """``cast(value)``, or a ConfigError naming ``what`` when that fails."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} is malformed: {value!r}") from exc
    if cast is int and out != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return out


def _has_bool(value):
    """True when a JSON boolean occurs anywhere in ``value``."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def parse_config(raw, kind):
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    allowed = _KEYS_BY_KIND[kind]
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" in raw and raw["kind"] != kind:
        raise ConfigError(
            f"config kind {raw['kind']!r} does not match subcommand {kind!r}")
    # No config value is boolean, and Python would read true as 1.
    booleans = sorted(key for key, value in raw.items() if _has_bool(value))
    if booleans:
        raise ConfigError(f"booleans are not valid config values: {booleans}")
    missing = _COMMON_KEYS - {"kind"} - set(raw)
    if kind != "validate":
        missing |= {"n_list", "scheme"} - set(raw)
    if missing:
        raise ConfigError(f"config missing keys: {sorted(missing)}")

    try:
        domain = domain_from_spec(raw["domain"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid domain: {exc}") from exc

    coeff_spec = raw["coefficients"]
    if not isinstance(coeff_spec, dict) or "name" not in coeff_spec:
        raise ConfigError("coefficients must be a mapping with a 'name' key")
    name = coeff_spec["name"]
    params = {k: v for k, v in coeff_spec.items() if k != "name"}
    # JSON's Infinity and NaN parse as floats; no parameter may take them.
    non_finite = sorted(k for k, v in params.items()
                        if isinstance(v, float) and not math.isfinite(v))
    if non_finite:
        raise ConfigError(f"coefficients {name!r}: parameters must be "
                          f"finite: {non_finite}")
    try:
        coeffs = make_coefficients(name, **params)
    except (TypeError, ValueError, OverflowError) as exc:
        # Names, not values: the repr of a huge integer raises.
        raise ConfigError(f"invalid coefficients {name!r} with parameters "
                          f"{sorted(params)}: {exc}") from exc
    if coeffs.dim != domain.dim:
        raise ConfigError(
            f"coefficient dimension {coeffs.dim} does not match domain "
            f"dimension {domain.dim}")

    x0 = np.atleast_1d(_convert(raw["x0"],
                                lambda v: np.asarray(v, dtype=float), "x0"))
    if x0.shape != (domain.dim,):
        raise ConfigError(f"x0 must have {domain.dim} coordinates")
    if not np.all(np.isfinite(x0)):
        raise ConfigError("x0 must be finite")
    if not domain.contains(x0, tol.MEMBERSHIP_TOL):
        raise ConfigError("x0 must lie in the domain closure")

    horizon = _convert(raw["horizon_T"], float, "horizon_T")
    log2_steps = _convert(raw["log2_fine_steps"], int, "log2_fine_steps")
    if not 0 <= log2_steps <= 30:
        raise ConfigError("log2_fine_steps must be between 0 and 30")
    try:
        grid = TimeGrid.from_log2(horizon, log2_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    master_seed = _convert(raw["master_seed"], int, "master_seed")
    if not 0 <= master_seed < 2 ** 64:
        raise ConfigError("master_seed must be an unsigned 64-bit integer")
    num_paths = _convert(raw["num_paths"], int, "num_paths")
    if num_paths < 1:
        raise ConfigError("num_paths must be >= 1")

    cfg = dict(kind=kind, raw=raw, domain=domain, coefficients=coeffs,
               x0=x0, grid=grid, master_seed=master_seed,
               num_paths=num_paths)
    if kind == "validate":
        return ExperimentConfig(**cfg)

    n_list = raw["n_list"]
    if not isinstance(n_list, list):
        raise ConfigError("n_list must be a list")
    n_list = [_convert(n, int, "n_list entry") for n in n_list]
    if (not n_list or any(n < 1 for n in n_list)
            or any(b <= a for a, b in zip(n_list, n_list[1:]))):
        raise ConfigError("n_list must be a strictly ascending list of "
                          "positive integers")
    scheme = raw["scheme"]
    if scheme not in ("euler", "splitting"):
        raise ConfigError("scheme must be 'euler' or 'splitting'")
    if scheme == "euler" and max(n_list) * grid.step > 1.0 + 1e-12:
        raise ConfigError(
            f"explicit scheme is unstable: max(n_list) * h = "
            f"{max(n_list) * grid.step:.4g} > 1")
    if kind != "weak-compare" and len(n_list) < 4:
        raise ConfigError("n_list needs at least 4 levels for the rate fit")
    if kind != "weak-compare" and n_list[0] < 2:
        raise ConfigError("n_list levels must be >= 2 for the rate fit")
    p_list = raw.get("p_list", [2.0])
    if not isinstance(p_list, list):
        raise ConfigError("p_list must be a list")
    p_list = [_convert(p, float, "p_list entry") for p in p_list]
    if not p_list:
        raise ConfigError("p_list must not be empty")
    if any(not 1.0 <= p <= 8.0 for p in p_list):
        raise ConfigError("p_list entries must lie in [1, 8]")
    if len(set(p_list)) != len(p_list):
        raise ConfigError("p_list entries must be distinct")
    cfg.update(n_list=tuple(n_list), scheme=scheme, p_list=tuple(p_list))

    if kind in ("strong-rate", "weak-compare"):
        ref = raw.get("reference",
                      {"scheme": "projected_euler", "log2_steps": log2_steps})
        if not isinstance(ref, dict) or "scheme" not in ref:
            raise ConfigError("reference must be a mapping with a 'scheme'")
        if ref["scheme"] != "projected_euler":
            raise ConfigError(f"unknown reference scheme {ref['scheme']!r}")
        extra = set(ref) - {"scheme", "log2_steps"}
        if extra:
            raise ConfigError(f"unknown keys in reference: {sorted(extra)}")
        ref_log2 = _convert(ref.get("log2_steps", log2_steps), int,
                            "reference log2_steps")
        if ref_log2 < log2_steps:
            raise ConfigError(
                "reference log2_steps must be >= log2_fine_steps")
        if ref_log2 > 30:
            raise ConfigError("reference log2_steps must be <= 30")
        cfg.update(reference_steps=1 << ref_log2)

    if kind == "weak-compare":
        functional = raw.get("functional", "cdf")
        if functional not in WEAK_FUNCTIONALS:
            raise ConfigError(f"unknown functional {functional!r}")
        if functional == "cdf" and domain.dim != 1:
            raise ConfigError("the CDF functional requires dimension 1")
        cfg.update(functional=functional)
    else:
        regressor = raw.get("regressor", "ln_n_over_n")
        if regressor not in tuple(REGRESSORS):  # a list value must not raise
            raise ConfigError(f"unknown regressor {regressor!r}")
        band = raw.get("slope_band")
        if band is None:
            band = _default_band(kind, domain)
        else:
            if not (isinstance(band, list) and len(band) == 2):
                raise ConfigError("slope_band must be [lo, hi] with null "
                                  "for an open side")
            band = tuple(None if b is None
                         else _convert(b, float, "slope_band entry")
                         for b in band)
            if not all(b is None or math.isfinite(b) for b in band):
                raise ConfigError("slope_band entries must be finite or null")
            if None not in band and band[0] > band[1]:
                raise ConfigError("slope_band must have lo <= hi")
        cfg.update(regressor=regressor, slope_band=band)

    return ExperimentConfig(**cfg)


def _default_band(kind, domain):
    if kind == "dist-rate":
        return (0.40, None)
    if isinstance(domain, Ball):
        return (0.20, None)  # smooth boundary: only the slower rate is assured
    return (0.35, 0.70)


# ---------------------------------------------------------------------------
# Runner and artifact writing.
# ---------------------------------------------------------------------------

def run(config, out_dir):
    """Execute one experiment and write its artifacts. Returns a summary."""
    os.makedirs(out_dir, exist_ok=True)
    if config.kind == "validate":
        summary = _run_validate(config)
        artifacts = {"validation_report.json": _json_bytes(summary)}
    else:
        # Looked up per call, so a wrapper installed on these names runs.
        sweep = {"dist-rate": boundary_distance_sweep,
                 "strong-rate": strong_error_sweep,
                 "weak-compare": weak_compare}[config.kind]
        ref = ({} if config.kind == "dist-rate"
               else {"reference_steps": config.reference_steps})
        result = sweep(config.domain, config.coefficients, config.x0,
                       config.grid, config.n_list, config.num_paths,
                       config.master_seed, scheme=config.scheme, **ref)
        if config.kind == "weak-compare":
            rows = weak_rows(result, config.functional)
            first, last = rows[0].value, rows[-1].value
            summary = {
                "functional": config.functional,
                "values": {str(r.level): r.value for r in rows},
                "first_level_value": first,
                "last_level_value": last,
                "decrease_factor": (first / last) if last > 0 else None,
            }
            artifacts = {
                "errors.csv": _csv("n,num_paths,functional,value", [
                    [str(row.level), str(row.num_paths), row.functional,
                     _fmt(row.value)] for row in rows]),
                "weak_report.json": _json_bytes(summary),
            }
        else:
            sups = (result.sup_dist if config.kind == "dist-rate"
                    else result.sup_err)
            tables = error_tables(result.levels, sups, config.p_list)
            summary = _rate_summary(config, tables)
            artifacts = {
                "errors.csv": _csv("n,num_paths,p,error,stderr", [
                    [str(row.level), str(row.num_paths), _fmt(row.p),
                     _fmt(row.error), _fmt(row.stderr)]
                    for p in sorted(tables) for row in tables[p].rows]),
                "rate_report.json": _json_bytes(summary),
            }

    manifest = _manifest(config, artifacts)
    artifacts["manifest.json"] = _json_bytes(manifest)
    for name, data in artifacts.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    return summary


def _run_validate(config):
    domain, coeffs = config.domain, config.coefficients
    checks = [("domain_construction", True, type(domain).__name__),
              ("x0_in_domain", True,
               f"dist = {float(domain.distance(config.x0)):.3e}")]
    if coeffs.growth_constant is not None:
        rep = check_linear_growth(coeffs, coeffs.growth_constant,
                                  rng_seed=config.master_seed)
        checks.append(("linear_growth", rep.passed, f"max ratio "
                       f"{rep.max_ratio:.6g} vs C = {rep.constant:.6g}"))
    if coeffs.lipschitz_constant is not None:
        rep = check_lipschitz(coeffs, coeffs.lipschitz_constant,
                              rng_seed=config.master_seed)
        checks.append(("lipschitz", rep.passed, f"max quotient "
                       f"{rep.max_quotient:.6g} vs L = {rep.constant:.6g}"))

    pts = sample_points(domain, 2000, seed=config.master_seed, spread=3.0)
    twice = domain.project(pts)
    idem = float(np.max(row_norm(domain.project(twice) - twice)))
    checks.append(("projection_idempotent", idem <= 1e-10,
                   f"max drift {idem:.3e}"))
    rng = np.random.default_rng(config.master_seed)
    z = rng.standard_normal((2000, domain.dim)) * 3.0
    gap_out = row_norm(domain.project(z) - domain.project(pts))
    gap_in = row_norm(z - pts)
    nonexp = float(np.max(gap_out - gap_in))
    checks.append(("projection_nonexpansive", nonexp <= 1e-10,
                   f"max excess {nonexp:.3e}"))
    checks = [{"name": name, "passed": bool(passed), "detail": detail}
              for name, passed, detail in checks]
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


def _rate_summary(config, tables):
    reports = {}
    for p, table in tables.items():
        fits = {}
        for reg in REGRESSORS:
            band = config.slope_band if reg == config.regressor else None
            fit = fit_rate(table, regressor=reg, band=band)
            fits[reg] = {"slope": fit.slope, "intercept": fit.intercept,
                         "residual_rms": fit.residual_rms,
                         "band": fit.band, "passed": fit.passed}
        reports[_fmt(p)] = {
            "fits": fits,
            "primary_regressor": config.regressor,
            "monotone_decreasing": monotone_decreasing(table, sigmas=0.0),
            "monotone_decreasing_2se": monotone_decreasing(table),
        }
    return {"per_p": reports, "n_list": list(config.n_list),
            "num_paths": config.num_paths, "scheme": config.scheme}


def _fmt(value):
    return format(float(value), ".17g")


def _csv(header, records):
    """An ``errors.csv`` artifact: the header line, then one comma-joined
    line per record of strings, each ending in a newline, UTF-8 encoded."""
    lines = [header] + [",".join(fields) for fields in records]
    return ("\n".join(lines) + "\n").encode()


def _json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _manifest(config, artifacts):
    canonical = json.dumps(config.raw, sort_keys=True,
                           separators=(",", ":")).encode()
    return {
        "kind": config.kind,
        "config": config.raw,
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "master_seed": config.master_seed,
        "package": "refsde",
        "version": __version__,
        "artifacts": {name: hashlib.sha256(data).hexdigest()
                      for name, data in sorted(artifacts.items())},
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="refsde",
        description="Penalized approximation of reflected diffusions: "
                    "batch experiments with deterministic artifacts.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.kind)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run(config, args.out)
    except (IntegrationError, RateFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if config.kind == "validate" and not summary["passed"]:
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        print(f"validation failed: {failed}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
