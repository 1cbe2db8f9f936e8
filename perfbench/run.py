"""Benchmark driver for refsde: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dist-halfline --seed 20260808 \
        --seconds 25 --trace 0

The driver writes the workload's config for ``--seed`` (the seed becomes the
config's ``master_seed``) and runs it through the documented CLI surface,
``refsde.cli.main([kind, "--config", ..., "--out", ...])``, each time in a
fresh interpreter started by ``perfbench/child.py``. Runs are closed-loop:
one child at a time, with ``OMP/OPENBLAS/MKL_NUM_THREADS=1``.

``--trace 0`` measures the end-to-end metrics: set-up (fresh-interpreter
import plus ``load_config``), then CLI runs, started until ``--seconds``
have passed. Each timing is rescaled to a reference host speed by the
calibration loop its child ran (see ``reference_seconds``).
``--trace 1`` runs the layer microbenchmarks, then alternates untraced and
traced CLI runs; only the traced children load ``perfbench/tracer.py``.
Every CLI run's ``errors.csv`` is checked by ``perfbench/check.py``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the run manifest and, per timing, the sample
count, median and tail percentile. Scratch files go to ``.perfbench/``.
See ``perfbench/README.md`` for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import check  # noqa: E402

DEFAULT_SEED = 20260808
SETUP_SAMPLES = 9
MICRO_BUDGET_S = 4.0
# Children are never started after this much wall time, and none may
# outlive HARD_LIMIT_S, so the whole run ends well within 180 s.
LAST_START_S = 140.0
HARD_LIMIT_S = 170.0
# The calibration loop of child.py takes this long at the reference speed.
CAL_REF_S = 0.25
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

_NINE_LEVELS = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
_QUADRANT = {"type": "polyhedron", "normals": [[-1.0, 0.0], [0.0, -1.0]],
             "offsets": [0.0, 0.0]}

# Sizes follow the profiles that chose each workload; see the "why" of each
# workload in BENCHMARK.json and the layer predictions in predictions.json.
WORKLOADS = {
    "dist-halfline": {
        "kind": "dist-rate",
        "domain": {"type": "halfline", "lower": 0.0},
        "coefficients": {"name": "ou1d", "kappa": 1.0, "sigma0": 1.0},
        "x0": [0.0], "horizon_T": 1.0, "log2_fine_steps": 12,
        "num_paths": 400, "n_list": _NINE_LEVELS, "scheme": "splitting",
        "p_list": [2],
    },
    # The step h = 2^-12 of the other workloads over a quarter horizon: the
    # same per-step batches in a quarter of the time, so that a run holds
    # several samples. Fewer paths would not shorten it; it is bound by
    # per-call overhead.
    "strong-quadrant": {
        "kind": "strong-rate",
        "domain": _QUADRANT,
        "coefficients": {"name": "quadrant2d"},
        "x0": [0.0, 0.0], "horizon_T": 0.25, "log2_fine_steps": 10,
        "num_paths": 400, "n_list": _NINE_LEVELS, "scheme": "splitting",
        "p_list": [2],
        "reference": {"scheme": "projected_euler", "log2_steps": 10},
    },
    "weak-box": {
        "kind": "weak-compare",
        "domain": {"type": "box", "lower": [0.0], "upper": [2.0]},
        "coefficients": {"name": "schmidt1d"},
        "x0": [0.9], "horizon_T": 1.0, "log2_fine_steps": 12,
        "num_paths": 2000, "n_list": [16, 64, 256, 1024],
        "scheme": "splitting", "functional": "cdf",
    },
}


def make_config(workload, seed):
    """The workload's CLI config with ``master_seed`` set to ``seed``."""
    cfg = json.loads(json.dumps(WORKLOADS[workload]))
    cfg["master_seed"] = seed
    return cfg


def path_level_steps(cfg):
    """Penalized steps one run integrates; reference steps are not counted."""
    return cfg["num_paths"] * len(cfg["n_list"]) * 2 ** cfg["log2_fine_steps"]


def reference_seconds(seconds, cal_s):
    """A child's timing rescaled to the reference host speed.

    The host's speed swings by tens of percent within seconds and more over
    minutes. The child timed a fixed calibration loop next to the measured
    part, in the same process, so ``seconds / cal_s`` cancels the host's
    speed at that moment; ``CAL_REF_S`` turns the ratio back into seconds.
    """
    return seconds * CAL_REF_S / cal_s


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args, started):
    """Run ``child.py`` or ``micro.py`` with ``args``; its last stdout line.

    Returns ``(result, error)``: the decoded JSON result, or ``None`` and a
    message when the child exits nonzero, prints no JSON or runs out of time.
    """
    name = Path(args[0]).name
    remaining = HARD_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 1.0:
        return None, f"no time left in the run for {name}"
    try:
        proc = subprocess.run(
            [sys.executable] + [str(a) for a in args], cwd=ROOT,
            env=child_env(), capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        return None, f"{name} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{name} exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"{name} printed no JSON result"


# ---------------------------------------------------------------------------
# Run manifest.
# ---------------------------------------------------------------------------

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    """Hash of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "refsde").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu():
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return model, caches


def run_manifest(seed, versions):
    model, caches = _cpu()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": caches,
        "pinned_threads": PINNED_THREADS,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def describe(samples):
    """Median, sample count and the highest percentile with >= 10 beyond it.

    With ``k`` samples the tail percentile is the ``(k - 10)``-th smallest,
    i.e. ``100 (k - 10) / k``; it exists only from 11 samples on.
    """
    ordered = sorted(samples)
    k = len(ordered)
    out = {"n": k, "median": statistics.median(ordered)}
    if k > 10:
        out["tail_pct"] = round(100.0 * (k - 10) / k, 1)
        out["tail"] = ordered[k - 11]
    return out


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

class Run:
    """Children started by one benchmark run, their samples and failures."""

    def __init__(self, workload, seed, trace, started):
        self.seed = seed
        self.cfg = make_config(workload, seed)
        self.started = started
        self.dir = WORK / f"{workload}-s{seed}-t{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.cfg, indent=2))
        goldens = json.loads((HERE / "goldens.json").read_text())
        self.golden = goldens.get(workload, {}).get(str(seed))
        self.first_values = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.versions = {}

    def child(self, args):
        """One counted child run; its result, or None after recording why."""
        self.attempted += 1
        result, error = run_child(args, self.started)
        if error:
            self.fail(error)
            return None
        self.versions = self.versions or result.get("versions", {})
        return result

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def setup_sample(self):
        result = self.child([HERE / "child.py", "setup", self.config])
        return None if result is None else result

    def cli_run(self, traced):
        """One CLI run in a fresh interpreter; its result after the check."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = [HERE / "child.py", "trace" if traced else "run", self.config,
                out]
        spans = self.dir / "spans.npz"
        if traced:
            args.append(spans)
        result = self.child(args)
        if result is None:
            return None
        if result["rc"] != 0:
            self.fail(f"refsde exited {result['rc']}")
            return None
        values, problems = check.check_run(
            out, self.cfg, golden=self.golden, reference=self.first_values,
            require_band=self.seed == DEFAULT_SEED)
        if problems:
            self.fail("output check: " + "; ".join(problems))
            return None
        self.first_values = self.first_values or values
        if traced:
            import tracer
            result["layers"], result["absent"] = tracer.layer_metrics(spans)
        return result

    def may_start(self, deadline):
        now = time.perf_counter()
        return now < deadline and now - self.started < LAST_START_S


def measure_end_to_end(run, seconds):
    run.setup_sample()  # warm-up: writes bytecode and fills the file cache
    setup = [s for s in (run.setup_sample() for _ in range(SETUP_SAMPLES))
             if s is not None]
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or run.may_start(deadline):
        result = run.cli_run(traced=False)
        if result is None:
            break
        runs.append(result)
    if not setup or not runs:
        return None, {}
    steps = path_level_steps(run.cfg)
    run_s = [reference_seconds(r["run_s"], r["cal_s"]) for r in runs]
    samples = {
        "run_s": run_s,
        "path_level_steps_per_s": [steps / t for t in run_s],
        "setup_s": [reference_seconds(s["setup_s"], s["cal_s"])
                    for s in setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    units = {"run_s": "s", "path_level_steps_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MiB"}
    metrics = {name: {"value": statistics.median(vals), "unit": units[name]}
               for name, vals in samples.items()}
    samples["run_s.wall"] = [r["run_s"] for r in runs]
    samples["setup_s.wall"] = [s["setup_s"] for s in setup]
    samples["cal_s"] = [r["cal_s"] for r in runs]
    return metrics, samples


def measure_layers(run, seconds):
    micro = run.child(
        [HERE / "micro.py", "--seed", run.seed, "--budget", MICRO_BUDGET_S])
    if micro is None:
        return None, {}
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) + len(traced) < 2 or run.may_start(deadline):
        side = plain if len(plain) <= len(traced) else traced
        result = run.cli_run(traced=side is traced)
        if result is None:
            break
        side.append(result)
    if not plain or not traced:
        return None, {}
    metrics = {}
    for name, first in traced[0]["layers"].items():
        metrics[name] = {
            "value": statistics.median(r["layers"][name]["value"]
                                       for r in traced),
            "unit": first["unit"]}
    plain_s = statistics.median(
        reference_seconds(r["run_s"], r["cal_s"]) for r in plain)
    traced_s = statistics.median(
        reference_seconds(r["run_s"], r["cal_s"]) for r in traced)
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    absent = sorted(set(micro["absent"]).union(
        *(r["absent"] for r in traced)))
    for name, value in micro["metrics"].items():
        metrics[name] = {"value": value, "unit": "rows/s"}
    samples = {"run_s.untraced": [r["run_s"] for r in plain],
               "run_s.traced": [r["run_s"] for r in traced],
               "absent_layers": absent}
    return metrics, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (SRC / "refsde" / "cli.py").is_file():
        print(f"perfbench: no refsde sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.trace, started)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, samples = measure(run, args.seconds)
    manifest = run_manifest(args.seed, run.versions)
    print(json.dumps({"manifest": manifest}, sort_keys=True))
    for name, vals in samples.items():
        if vals and isinstance(vals[0], float):
            print(json.dumps({name: describe(vals)}))
    if samples.get("absent_layers"):
        print(json.dumps({"absent_layers": samples["absent_layers"]}))
    record = {"workload": args.workload, "trace": args.trace,
              "manifest": manifest, "samples": samples,
              "problems": run.problems,
              "result": {"correct": metrics is not None and not run.failed,
                         "attempted": run.attempted, "failed": run.failed,
                         "metrics": metrics or {}}}
    (run.dir / "result.json").write_text(
        json.dumps(record, indent=2, default=str))
    print(json.dumps(record["result"]))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
