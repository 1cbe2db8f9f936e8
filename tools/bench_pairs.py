"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage::

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \
        --pairs N [--seconds S] [--seed SEED]

Each pair runs ``PARENT_TREE/perfbench/run.py --trace 0`` and then
``CHANGE_TREE/perfbench/run.py --trace 0`` with the same workload, seed and
``--seconds``, one run at a time, and reads the last JSON line of each run.
For every end-to-end metric of ``CHANGE_TREE/BENCHMARK.json`` it prints the
parent and change medians, the relative change, the interquartile range of
the parent's runs and the number of pairs the change won (ties count for
neither side), then the runs' ``correct`` and ``failed`` counts. The runs
write their scratch files where ``run.py`` puts them, under each tree's
``.perfbench/``; this script writes nothing itself.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, seconds):
    """The result record (last stdout line) of one ``run.py`` run."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metrics, parent, change):
    """One line per metric: medians, relative change, parent IQR, wins."""
    lines = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        lines.append(f"{name} ({spec['unit']}): {ma:.4g} -> {mb:.4g} "
                     f"({(mb - ma) / ma:+.1%}), parent IQR {q3 - q1:.3g}, "
                     f"change won {wins}/{len(a)}")
    for side, runs in (("parent", parent), ("change", change)):
        lines.append(f"{side}: correct {[r['correct'] for r in runs]}, "
                     f"failed {[r['failed'] for r in runs]}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent_tree, change_tree = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change_tree / "BENCHMARK.json").read_text())
    parent, change = [], []
    for i in range(args.pairs):
        for tree, runs in ((parent_tree, parent), (change_tree, change)):
            runs.append(run_once(tree, args.workload, args.seed,
                                 args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}")
    for line in summarize(spec["end_to_end"], parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
