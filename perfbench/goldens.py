"""Record golden ``errors.csv`` values of every workload for given seeds.

    python3 perfbench/goldens.py 20260808 0 1 2

Runs each workload once per seed through ``child.py``, exactly as
``run.py`` does, and stores the value columns, as written, in
``perfbench/goldens.json``; ``check.py`` then compares later runs of those
seeds against them byte for byte. A golden states what correct output is,
so record goldens only from a commit whose outputs are known to be right,
and re-record them only with a change that means to alter the outputs.
"""

import json
import sys
import time

import check
import run


def main(seeds):
    path = run.HERE / "goldens.json"
    goldens = json.loads(path.read_text())
    work = run.WORK / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for workload in sorted(run.WORKLOADS):
            cfg = run.make_config(workload, seed)
            config = work / f"{workload}-{seed}.json"
            config.write_text(json.dumps(cfg))
            out = work / "out"
            result, error = run.run_child(
                [run.HERE / "child.py", "run", config, out],
                time.perf_counter())
            if error or result["rc"] != 0:
                sys.exit(f"{workload} seed {seed}: {error or result['rc']}")
            values, problems = check.check_run(
                out, cfg, require_band=seed == run.DEFAULT_SEED)
            if problems:
                sys.exit(f"{workload} seed {seed}: {problems}")
            goldens.setdefault(workload, {})[str(seed)] = values
            path.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                            + "\n")
            print(f"{workload} seed {seed}: recorded", flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
