import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refsde
from refsde.cli import load_config, main, parse_config, run
from refsde.coefficients import check_linear_growth, check_lipschitz, \
    make_coefficients
from refsde.errors import ConfigError


def base_config(**overrides):
    cfg = {
        "domain": {"type": "halfline", "lower": 0.0},
        "coefficients": {"name": "ou1d", "kappa": 1.0, "sigma0": 1.0},
        "x0": [0.0],
        "horizon_T": 1.0,
        "log2_fine_steps": 8,
        "master_seed": 12345,
        "num_paths": 24,
        "n_list": [4, 8, 16, 32],
        "scheme": "splitting",
        "p_list": [2],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- config validation -----------------------------------------------------------

def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(base_config(extra_knob=1), "dist-rate")
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(base_config(substeps=1), "dist-rate")
    with pytest.raises(ConfigError, match="unknown config keys"):
        # reference is not a dist-rate key
        parse_config(base_config(reference={"scheme": "projected_euler"}),
                     "dist-rate")


def test_missing_keys_rejected():
    cfg = base_config()
    del cfg["n_list"]
    with pytest.raises(ConfigError, match="missing"):
        parse_config(cfg, "strong-rate")


def test_kind_mismatch_rejected():
    with pytest.raises(ConfigError, match="does not match"):
        parse_config(base_config(kind="dist-rate"), "strong-rate")


def test_x0_outside_rejected():
    with pytest.raises(ConfigError, match="closure"):
        parse_config(base_config(x0=[-0.5]), "dist-rate")


def test_bad_n_list_rejected():
    for bad in ([], [8, 4], [0, 4], [4, 4]):
        with pytest.raises(ConfigError, match="n_list"):
            parse_config(base_config(n_list=bad), "dist-rate")


@pytest.mark.parametrize("kind", ["dist-rate", "strong-rate"])
def test_rate_kinds_need_four_levels(kind):
    with pytest.raises(ConfigError, match="at least 4 levels"):
        parse_config(base_config(n_list=[4, 8, 16]), kind)
    # weak-compare fits no rate, so any number of levels will do.
    assert parse_config(base_config(n_list=[4]), "weak-compare").n_list == (4,)


@pytest.mark.parametrize("kind", ["dist-rate", "strong-rate"])
def test_rate_kinds_reject_level_one(kind, tmp_path, capsys):
    # ln(n)/n is 0 at n = 1, so the rate fit could not take its log; the
    # config is refused before the sweep runs, not after it.
    with pytest.raises(ConfigError, match="levels must be >= 2"):
        parse_config(base_config(n_list=[1, 2, 4, 8]), kind)
    path = write_config(tmp_path, base_config(n_list=[1, 2, 4, 8]))
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == 2
    assert ">= 2" in capsys.readouterr().err and not out.exists()
    assert parse_config(base_config(n_list=[2, 4, 8, 16]), kind).n_list[0] == 2
    # weak-compare fits no rate, so level 1 is a valid level there.
    assert parse_config(base_config(n_list=[1]), "weak-compare").n_list == (1,)


@pytest.mark.parametrize("key,value", [
    ("horizon_T", "one"),
    ("horizon_T", None),
    ("num_paths", None),
    ("num_paths", 2.5),
    ("n_list", ["a"]),
    ("n_list", [4, None, 16, 32]),
    ("n_list", "4,8"),
    ("p_list", ["two"]),
    ("p_list", 2),
    ("master_seed", "seed"),
    ("master_seed", 1e300),
    ("log2_fine_steps", [8]),
    ("x0", ["a"]),
    ("slope_band", ["low", None]),
    ("domain", {"type": "halfline", "lower": None}),
    ("coefficients", {"name": "ou1d", "kappa": None}),
    # No field is boolean: Python would read true as 1 and false as 0.
    ("num_paths", True),
    ("horizon_T", True),
    ("master_seed", False),
    ("x0", [False]),
    ("n_list", [True, 8, 16, 32]),
    ("p_list", [True]),
    ("domain", {"type": "halfline", "lower": False}),
    ("coefficients", {"name": "ou1d", "kappa": True}),
    # kappa ** 2 overflows when the builder derives the constants.
    ("coefficients", {"name": "ou1d", "kappa": 1e200}),
    # An integer too large for a float.
    ("domain", {"type": "halfline", "lower": 10 ** 400}),
    # JSON's Infinity, -Infinity and NaN; they failed at the first step.
    ("coefficients", {"name": "ou1d", "kappa": float("inf")}),
    ("coefficients", {"name": "ou1d", "kappa": float("-inf")}),
    ("coefficients", {"name": "ou1d", "sigma0": float("nan")}),
])
def test_malformed_values_are_config_errors(tmp_path, capsys, key, value):
    path = write_config(tmp_path, base_config(**{key: value}))
    code = main(["dist-rate", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if key == "coefficients" and all(v is not True for v in value.values()):
        # The message names the catalog entry and the parameter given.
        param = next(k for k in value if k != "name")
        assert "'ou1d'" in err and param in err
    if value == {"name": "ou1d", "kappa": 1e200}:
        assert "invalid coefficients 'ou1d' with parameters ['kappa']" in err


def test_coefficient_error_names_parameters_it_cannot_print():
    # Python cannot print an integer of more than 4,300 digits, so the
    # message names the parameters, not their values.
    cfg = base_config(coefficients={"name": "ou1d", "kappa": 10 ** 5000})
    with pytest.raises(ConfigError,
                       match=r"'ou1d' with parameters \['kappa'\]"):
        parse_config(cfg, "dist-rate")


def test_infinite_domain_bounds_parse(tmp_path):
    for lower, upper in (([0.0], [float("inf")]), ([float("-inf")], [2.0])):
        path = write_config(tmp_path, base_config(
            domain={"type": "box", "lower": lower, "upper": upper}))
        assert "Infinity" in Path(path).read_text()
        cfg = load_config(path, "dist-rate")
        assert (cfg.domain.lower.tolist(), cfg.domain.upper.tolist()) == (
            lower, upper)


def test_p_list_range_enforced():
    with pytest.raises(ConfigError, match="p_list"):
        parse_config(base_config(p_list=[9]), "dist-rate")
    with pytest.raises(ConfigError, match="p_list"):
        parse_config(base_config(p_list=[0.5]), "dist-rate")


def test_euler_guard_is_config_error():
    cfg = base_config(scheme="euler", n_list=[4, 512])  # h = 1/256
    with pytest.raises(ConfigError, match="unstable"):
        parse_config(cfg, "dist-rate")


def test_reference_validation():
    cfg = base_config(reference={"scheme": "projected_euler",
                                 "log2_steps": 4})
    with pytest.raises(ConfigError, match="log2_steps"):
        parse_config(cfg, "strong-rate")
    # Each bound has its own message: 31 is above log2_fine_steps (8), so
    # only the upper bound is named.
    for log2_steps, message in [(7, ">= log2_fine_steps"), (31, "<= 30")]:
        cfg = base_config(reference={"scheme": "projected_euler",
                                     "log2_steps": log2_steps})
        with pytest.raises(ConfigError) as err:
            parse_config(cfg, "strong-rate")
        assert str(err.value) == f"reference log2_steps must be {message}"
    assert parse_config(base_config(reference={
        "scheme": "projected_euler", "log2_steps": 30}),
        "strong-rate").reference_steps == 1 << 30
    cfg = base_config(reference={"scheme": "projected_euler",
                                 "log2_steps": 8, "period": 2})
    with pytest.raises(ConfigError, match="unknown keys in reference"):
        parse_config(cfg, "strong-rate")
    cfg = base_config(reference={"scheme": "halfline_map"})
    with pytest.raises(ConfigError, match="unknown reference scheme"):
        parse_config(cfg, "strong-rate")


def test_coefficient_domain_dimension_mismatch():
    cfg = base_config(coefficients={"name": "quadrant2d"})
    with pytest.raises(ConfigError, match="dimension"):
        parse_config(cfg, "dist-rate")


def test_main_returns_2_on_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, base_config(bogus=1))
    code = main(["dist-rate", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_polyhedron_with_too_many_active_sets_is_config_error(tmp_path,
                                                              capsys):
    # A 45-gon has 45 + C(45, 2) = 1035 candidate active sets.
    theta = 2.0 * np.pi * np.arange(45) / 45
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cfg = base_config(domain={"type": "polyhedron",
                              "normals": normals.tolist(),
                              "offsets": [1.0] * 45},
                      coefficients={"name": "quadrant2d"}, x0=[0.0, 0.0])
    path = write_config(tmp_path, cfg)
    code = main(["dist-rate", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "active sets" in capsys.readouterr().err


def test_main_returns_2_on_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2


def test_main_returns_2_on_an_integer_too_long_to_read(tmp_path, capsys):
    # Python reads integers of at most 4,300 digits; json.dumps could not
    # write this one either.
    text = json.dumps(base_config(master_seed=7)).replace(
        '"master_seed": 7', '"master_seed": ' + "9" * 5000)
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["dist-rate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_main_returns_3_on_blowup(tmp_path, capsys):
    cfg = base_config(coefficients={"name": "ou1d", "kappa": -1e100},
                      x0=[1.0], num_paths=2)
    path = write_config(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["dist-rate", "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_main_returns_3_when_a_level_has_zero_error(tmp_path, capsys):
    # No path leaves the box before the horizon, so every level's sup
    # distance is 0 and the rate fit has no logarithm to take.
    cfg = base_config(domain={"type": "box", "lower": [-100.0],
                              "upper": [100.0]},
                      horizon_T=0.01)
    path = write_config(tmp_path, cfg)
    code = main(["dist-rate", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "error is 0 at n = 4, 8, 16, 32" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# -- experiment runs ----------------------------------------------------------------

def test_validate_run(tmp_path):
    cfg = {
        "domain": {"type": "polyhedron",
                   "normals": [[-1.0, 0.0], [0.0, -1.0]],
                   "offsets": [0.0, 0.0]},
        "coefficients": {"name": "quadrant2d"},
        "x0": [0.0, 0.0],
        "horizon_T": 1.0,
        "log2_fine_steps": 8,
        "master_seed": 7,
        "num_paths": 4,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"linear_growth", "lipschitz", "projection_idempotent"} <= names
    assert (out / "manifest.json").exists()



# Each catalog entry on a domain of its dimension: the sha256 of its
# validation_report.json and the exact growth and Lipschitz maxima at seed 7,
# as they were while the coefficients returned (..., d, d) matrices. The
# diagnostics now assemble that matrix from the entries.
VALIDATE_PINS = {
    "ou1d": ({"type": "halfline", "lower": 0.0}, [0.5],
             "22e86791d7da9a64f1580d5645a8af23c146b4febdcdfbf3e2bbe371519739ef",
             "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "gbm-box": ({"type": "box", "lower": [0.0, 0.0], "upper": [2.0, 2.0]},
                [1.0, 1.0],
                "2c84f5242b418a02f85f9c0eb6adf1c27a777ce13c7daa60cade7cd4d610488c",
                "0x1.78ee838fc5966p-4", "0x1.7ae147af5ae59p-4"),
    "quadrant2d": ({"type": "polyhedron", "normals": [[-1.0, 0.0],
                                                      [0.0, -1.0]],
                    "offsets": [0.0, 0.0]}, [0.0, 0.0],
                   "778071a2c01f4ab78e1ce5cd796c5f0b73b189fc2b647305e084427880aa2502",
                   "0x1.3db40f6d5ed7ap+1", "0x1.fffb8b08dcd38p-3"),
    "schmidt1d": ({"type": "box", "lower": [0.0], "upper": [2.0]}, [1.0],
                  "33f73be78d465851b094784a0e8c64f177f87ae608f825195bc9690674a3a20f",
                  "0x1.ff95795ab24ccp+0", None),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_PINS))
def test_validate_report_bytes_are_pinned(tmp_path, name):
    domain, x0, digest, growth, lipschitz = VALIDATE_PINS[name]
    cfg = {"domain": domain, "coefficients": {"name": name}, "x0": x0,
           "horizon_T": 1.0, "log2_fine_steps": 8, "master_seed": 7,
           "num_paths": 4}
    out = tmp_path / "out"
    assert main(["validate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    data = (out / "validation_report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    field = make_coefficients(name)
    rep = check_linear_growth(field, field.growth_constant, rng_seed=7)
    assert rep.max_ratio.hex() == growth
    if lipschitz is not None:
        rep = check_lipschitz(field, field.lipschitz_constant, rng_seed=7)
        assert rep.max_quotient.hex() == lipschitz


def test_dist_rate_artifacts(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["dist-rate", "--config", path, "--out", str(out)]) == 0
    csv = (out / "errors.csv").read_text().splitlines()
    assert csv[0] == "n,num_paths,p,error,stderr"
    assert len(csv) == 5
    assert csv[1].startswith("4,24,2,")
    report = json.loads((out / "rate_report.json").read_text())
    fits = report["per_p"]["2"]["fits"]
    assert set(fits) == {"ln_n_over_n", "inverse_n"}
    manifest = json.loads((out / "manifest.json").read_text())
    import hashlib
    digest = hashlib.sha256((out / "errors.csv").read_bytes()).hexdigest()
    assert manifest["artifacts"]["errors.csv"] == digest


def test_strong_rate_and_weak_artifacts(tmp_path):
    cfg = base_config(reference={"scheme": "projected_euler",
                                 "log2_steps": 8})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "strong"
    assert main(["strong-rate", "--config", path, "--out", str(out)]) == 0
    assert (out / "rate_report.json").exists()

    weak_cfg = base_config(functional="cdf", num_paths=50)
    path2 = write_config(tmp_path, weak_cfg, "weak.json")
    out2 = tmp_path / "weak"
    assert main(["weak-compare", "--config", path2, "--out", str(out2)]) == 0
    lines = (out2 / "errors.csv").read_text().splitlines()
    assert lines[0] == "n,num_paths,functional,value"
    report = json.loads((out2 / "weak_report.json").read_text())
    assert report["functional"] == "cdf"


def test_rerun_is_bitwise_identical(tmp_path):
    path = write_config(tmp_path, base_config(num_paths=16))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["dist-rate", "--config", path, "--out", str(out1)]) == 0
    assert main(["dist-rate", "--config", path, "--out", str(out2)]) == 0
    for name in ("errors.csv", "rate_report.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_accepts_parsed_config(tmp_path):
    config = parse_config(base_config(num_paths=8), "dist-rate")
    summary = run(config, str(tmp_path / "direct"))
    assert "per_p" in summary


# -- import path -------------------------------------------------------------------

_CONFIG_IMPORT_PROBE = """
import json, sys
import refsde.cli as cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        cli.load_config(path, json.load(fh)["kind"])
print(json.dumps(sorted(m for m in ("scipy.optimize", "scipy.stats")
                        if m in sys.modules)))
"""


def test_config_path_imports_neither_scipy_optimize_nor_stats():
    # Importing scipy.optimize costs 0.2-0.3 s of start-up; neither it nor
    # scipy.stats may be pulled in before a run starts. A fresh interpreter
    # is needed, because the test session has imported both already.
    configs = sorted((Path(__file__).resolve().parents[1] / "configs")
                     .glob("*.json"))
    assert len(configs) == 3
    src = str(Path(refsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _CONFIG_IMPORT_PROBE, *map(str, configs)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(out.stdout) == []
