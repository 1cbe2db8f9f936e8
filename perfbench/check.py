"""Output check for one benchmark CLI run.

``errors.csv`` is parsed by header name, so a table that gains a column
still checks. Each row is keyed by ``(n, p)``, or ``(n, functional)`` for
``weak-compare``, and its ``error``/``stderr`` or ``value`` fields are
compared as written, byte for byte: against the golden of the workload and
seed in ``goldens.json`` when there is one, and against the first run of
the same benchmark run otherwise. Every value must be finite, and with
``require_band`` every ``rate_report.json`` band verdict must pass.
"""

import csv
import json
import math
from pathlib import Path

VALUE_COLUMNS = ("error", "stderr", "value")
CHECKED_COLUMNS = ("num_paths",) + VALUE_COLUMNS


def row_key(row):
    if "p" in row:
        return f"n={row['n']},p={row['p']}"
    return f"n={row['n']},functional={row['functional']}"


def expected_keys(cfg):
    if cfg["kind"] == "weak-compare":
        return {f"n={n},functional={cfg['functional']}" for n in cfg["n_list"]}
    return {f"n={n},p={format(float(p), '.17g')}"
            for n in cfg["n_list"] for p in cfg["p_list"]}


def read_values(path):
    """``{row key: {column: text}}`` for the checked columns of a CSV table."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {row_key(row): {c: row[c] for c in CHECKED_COLUMNS if c in row}
                for row in csv.DictReader(fh)}


def compare(values, expected, label):
    problems = []
    for key in sorted(set(values) | set(expected)):
        if values.get(key) != expected.get(key):
            problems.append(f"{label} mismatch at {key}: "
                            f"{values.get(key)} != {expected.get(key)}")
    return problems


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_run(out_dir, cfg, golden=None, reference=None, require_band=False):
    """``(values, problems)`` for the artifacts a run wrote to ``out_dir``."""
    out_dir = Path(out_dir)
    try:
        values = read_values(out_dir / "errors.csv")
    except (OSError, KeyError) as exc:
        return None, [f"errors.csv unreadable: {exc!r}"]
    problems = []
    if set(values) != expected_keys(cfg):
        problems.append(f"rows {sorted(values)} do not match the config")
    for key, row in values.items():
        if row.get("num_paths") != str(cfg["num_paths"]):
            problems.append(f"num_paths {row.get('num_paths')} at {key}")
        for column in VALUE_COLUMNS:
            if column in row and not _finite(row[column]):
                problems.append(f"non-finite {column} at {key}: "
                                f"{row[column]!r}")
    if golden is not None:
        problems += compare(values, golden, "golden")
    elif reference is not None:
        problems += compare(values, reference, "repeat")
    if require_band and cfg["kind"] != "weak-compare":
        report = json.loads((out_dir / "rate_report.json").read_text())
        for p, entry in sorted(report["per_p"].items()):
            fit = entry["fits"][entry["primary_regressor"]]
            if fit["passed"] is not True:
                problems.append(f"band verdict failed for p={p}: slope "
                                f"{fit['slope']} outside {fit['band']}")
    return values, problems
