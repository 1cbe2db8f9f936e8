"""Run source mutants against test selections, each on a temporary copy.

Usage::

    python3 tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` names a file of the tree, an old string, the new
string that replaces it and the pytest arguments of a test selection. The
old string must occur exactly once in the file, else the entry is reported
as ``broken`` and not run. Otherwise the checkout this script lives in,
without ``.git`` and caches, is copied to a temporary directory, the one
replacement is made there, and the selection runs there with ``pytest
-x``, its ``src/`` first on the import path. A run that fails (exit 1) or
cannot collect its tests (exit 2) has ``killed`` the mutant, one that
passes lets it ``survive``, and any other exit code is ``broken``. One line
per mutant gives the verdict, the seconds taken and the name, and for an
entry marked equivalent the reason why a survivor is expected. The working
tree is never written to. The selections are assumed to pass on the
unmutated tree.

Names select entries; with none, every entry runs. The exit code is 1 if an
entry is broken or a mutant not marked equivalent survives, else 0. This is
a measure of the test suite's strength, not a gate: a run of the whole list
takes minutes.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Left out of each copy: version control, caches and run outputs.
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".perfbench", "out")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to the tree
    old: str            # must occur exactly once
    new: str
    tests: tuple        # pytest arguments, relative to the tree
    equivalent: str = ""  # why a survivor is expected, or ""


RATES, GEOMETRY = "src/refsde/rates.py", "src/refsde/geometry.py"
UNIT = ("tests/test_rates.py", "tests/test_geometry.py", "tests/test_cli.py",
        "tests/test_layout.py", "tests/test_row_independence.py")

MUTANTS = (
    Mutant("cdf-side", RATES,
           'cdf_a = np.searchsorted(a, grid_pts, side="right")',
           'cdf_a = np.searchsorted(a, grid_pts, side="left")',
           ("tests/test_rates.py",)),
    Mutant("fit-residual-divisor", RATES,
           "math.fsum(v * v for v in resid) / count",
           "math.fsum(v * v for v in resid) / (count - 1)",
           ("tests/test_rates.py",
            "tests/test_blas_dispatch.py::test_rate_fit_agrees_with_polyfit")),
    Mutant("split-faces-loosest-bound", GEOMETRY,
           "upper[j] = min(upper[j], c + 0.0)",
           "upper[j] = max(upper[j], c + 0.0)",
           ("tests/test_geometry.py",)),
    Mutant("error-tables-num-paths-axis", RATES,
           "num_paths=sups.shape[1],", "num_paths=sups.shape[0],",
           ("tests/test_rates.py", "tests/test_cli.py")),
    Mutant("quadrant2d-lipschitz", "src/refsde/coefficients.py",
           "lipschitz_constant=amplitude ** 2 + drift_scale ** 2",
           "lipschitz_constant=0.5 * (amplitude ** 2 + drift_scale ** 2)",
           ("tests/test_coefficients.py", "tests/test_cli.py")),
    Mutant("guard-row", RATES,
           "row = int(np.argmin(np.isfinite(x).all(axis=-1)))",
           "row = int(np.argmax(np.isfinite(x).all(axis=-1)))",
           ("tests/test_rates.py",)),
    Mutant("pooled-norm-delta-exponent", RATES,
           "mean ** ((p - 1.0) / p)", "mean ** (p / p)",
           ("tests/test_rates.py",)),
    Mutant("monotone-strict", RATES,
           "np.all(e[1:] - e[:-1] < slack)", "np.all(e[1:] - e[:-1] <= slack)",
           ("tests/test_rates.py", "tests/test_cli.py"),
           equivalent="a tie needs an error difference exactly equal to "
                      "its slack, which no test's sampled errors give"),
    Mutant("ball-outside-on-sphere", GEOMETRY,
           "outside = r > self.radius", "outside = r >= self.radius",
           UNIT,
           equivalent="on the sphere the scale is exactly 1, so a point "
                      "comes back as c + (x - c), which is x for the tests' "
                      "dyadic points there"),
    Mutant("modulus-chunk-budget", RATES,
           "chunk = min(num_paths, max(1, _BLOCK_WORDS // grid.steps))",
           "chunk = min(num_paths, max(64, _BLOCK_WORDS // grid.steps))",
           ("tests/test_rates.py",)),
    Mutant("increment-blocks-greedy", RATES,
           "block = -(-m // blocks)", "block = most",
           ("tests/test_rates.py::test_increment_blocks_are_balanced",)),
    Mutant("sampler-tile-ignores-dim", "src/refsde/brownian.py",
           "tile = max(1, _TILE_WORDS // max(1, count))",
           "tile = max(1, _TILE_WORDS // max(1, n_steps))",
           ("tests/test_brownian.py::"
            "test_sampler_tiles_stay_within_their_word_budget",)),
    Mutant("split-worker-offset", RATES,
           "out = sweep(range(cut, num_paths))",
           "out = sweep(range(num_paths - cut))",
           ("tests/test_rates.py::"
            "test_split_sweeps_match_the_one_process_sweep",)),
    Mutant("split-fallback", RATES,
           "        return None\n    finally:",
           "        raise\n    finally:",
           ("tests/test_rates.py::"
            "test_split_sweep_raises_the_earlier_failure_in_loop_order",)),
    Mutant("split-join-axis", RATES,
           'axis=0 if name == "ref_terminal" else 1', "axis=0",
           ("tests/test_rates.py::"
            "test_split_sweeps_match_the_one_process_sweep",)),
    Mutant("sample-block-layout", RATES,
           "halve_increments(by_path, factor).transpose(1, 0, 2)",
           "np.ascontiguousarray(halve_increments(by_path, factor))"
           ".transpose(1, 0, 2)",
           ("tests/test_rates.py", "tests/test_layout.py")),
    Mutant("window-ranges-second-lookup", RATES,
           "tmax[:, rem:rem + n_out]", "tmax[:, rem // 2:rem // 2 + n_out]",
           ("tests/test_rates.py",)),
    Mutant("runs-whole-array-needs-every-coordinate", GEOMETRY,
           "if len(runs) == len(lower) and len(", "if len(",
           UNIT),
)


def run_one(root, mutant):
    """``(verdict, seconds, detail)`` of one mutant on a copy of ``root``."""
    target = root / mutant.path
    source = target.read_text() if target.is_file() else ""
    count = source.count(mutant.old)
    if count != 1:
        return "broken", 0.0, f"old string occurs {count} times"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=IGNORE)
        (tree / mutant.path).write_text(source.replace(mutant.old,
                                                       mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    verdict = {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode,
                                                            "broken")
    detail = f"pytest exit {proc.returncode}" if verdict == "broken" else ""
    if mutant.equivalent and verdict != "broken":
        detail = (f"equivalent: {mutant.equivalent}" if verdict == "survived"
                  else "marked equivalent, but killed")
    return verdict, seconds, detail


def run(root, mutants):
    """Run ``mutants`` on copies of ``root``, print one line each and return
    the exit code."""
    code = 0
    for mutant in mutants:
        verdict, seconds, detail = run_one(Path(root), mutant)
        print(f"{verdict:<9}{seconds:7.1f} s  {mutant.name}"
              + (f"  ({detail})" if detail else ""), flush=True)
        if verdict == "broken" or (verdict == "survived"
                                   and not mutant.equivalent):
            code = 1
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    return run(ROOT, [known[n] for n in args.names] or list(MUTANTS))


if __name__ == "__main__":
    sys.exit(main())
