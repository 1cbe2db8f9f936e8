"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage::

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \
        --pairs N [--seconds S] [--seed SEED]

Each pair runs ``PARENT_TREE/perfbench/run.py --trace 0`` and
``CHANGE_TREE/perfbench/run.py --trace 0`` with the same workload, seed and
``--seconds``, one run at a time, and reads the last JSON line of each run.
The order alternates, so that a drift in the host's speed does not favour
one side: the parent runs first in pairs 1, 3, 5, ... and the change first
in pairs 2, 4, 6, ...
For every end-to-end metric of ``CHANGE_TREE/BENCHMARK.json`` it prints the
parent and change medians, the relative change, the interquartile range of
the parent's runs and the number of pairs the change won (ties count for
neither side), and on a second line two verdicts. ``gain`` holds when the
change won at least nine tenths of the pairs run and its median is better
than the parent's by more than the parent's interquartile range, else
``no gain``. ``within bound`` holds when the change's median is no worse
than the parent's by more than the metric's ``bound``, a fraction of the
parent's median, else ``exceeds bound``; it is ``unresolved`` instead when
the parent's interquartile range is wider than the bound and not every
change run beats every parent run.
Then it prints the runs' ``correct`` and ``failed`` counts. A run that
exits nonzero or prints no result line is recorded as failed, and its pair
is left out of the medians and counts as not won. The runs write their
scratch files where ``run.py`` puts them, under each tree's
``.perfbench/``; this script writes nothing itself.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, seconds):
    """The result record (last stdout line) of one ``run.py`` run, or None
    if the run exits nonzero or prints no JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metrics, parent, change):
    """Two lines per metric: medians, relative change, parent IQR and wins,
    then the two verdicts; pairs with a failed run (None) are left out."""
    pairs = [(x, y) for x, y in zip(parent, change)
             if x is not None and y is not None]
    lines = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        if not pairs:
            lines.append(f"{name} ({spec['unit']}): no pair without a "
                         f"failed run")
            continue
        a = [x["metrics"][name]["value"] for x, _ in pairs]
        b = [y["metrics"][name]["value"] for _, y in pairs]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        gain = (ma - mb) if lower else (mb - ma)
        gained = 10 * wins >= 9 * len(parent) and gain > q3 - q1
        if q3 - q1 > spec["bound"] * abs(ma) and not (
                max(b) < min(a) if lower else min(b) > max(a)):
            bound = "unresolved"
        elif -gain <= spec["bound"] * abs(ma):
            bound = "within bound"
        else:
            bound = "exceeds bound"
        lines.append(f"{name} ({spec['unit']}): {ma:.4g} -> {mb:.4g} "
                     f"({(mb - ma) / ma:+.1%}), parent IQR {q3 - q1:.3g}, "
                     f"change won {wins}/{len(parent)}")
        lines.append(f"  {name}: {'gain' if gained else 'no gain'}; "
                     f"{bound} {spec['bound']:.0%}")
    for side, runs in (("parent", parent), ("change", change)):
        lines.append(
            f"{side}: correct {[r and r['correct'] for r in runs]}, "
            f"failed {['run' if r is None else r['failed'] for r in runs]}")
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
        sides = [(parent_tree, parent), (change_tree, change)]
        for tree, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(tree, args.workload, args.seed,
                                 args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}, parent first in odd pairs, change "
          f"first in even pairs")
    for line in summarize(spec["end_to_end"], parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
