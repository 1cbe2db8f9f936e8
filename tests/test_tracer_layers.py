"""The benchmark's span tracer still sees every layer of a CLI run.

``perfbench/tracer.py`` wraps the kernels under the names the sweep calls
them by, and the sweeps under the names ``refsde.cli`` imports. A function
reached through another name would read 0 without being listed as absent,
so this runs the CLI under the tracer and checks both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = (
    "penalized.splitting_step",
    "reflected.projected_euler_step",
    "brownian.sample_increments",
    "brownian.halve_increments",
    "geometry.project",
    "coefficients.diffusion",
    "coefficients.drift",
)

# Run in a child, because installing the tracer rebinds module attributes.
# The span list is emptied after each run, so each gets its own totals.
CHILD = """
import json, sys
import numpy as np
from tracer import Tracer, layer_stats
tracer = Tracer()
tracer.install()
import refsde.cli
runs = {}
for kind, cfg, out in json.loads(sys.argv[1]):
    code = refsde.cli.main([kind, "--config", cfg, "--out", out])
    spans = np.array(tracer.spans, dtype=float).reshape(-1, 7)
    del tracer.spans[:]
    stats = layer_stats(spans, tracer.layers)
    runs[kind] = {"code": code,
                  "calls": {name: s.calls for name, s in stats.items()},
                  "rows": {name: s.rows for name, s in stats.items()}}
print(json.dumps({"absent": tracer.absent, "runs": runs}))
"""

# ``geometry.project`` calls and rows of each run. ``HalfLine`` and ``Box``
# inherit ``project`` from ``Polyhedron``, and the tracer wraps theirs
# before ``Polyhedron.project``, so each call counts once; a call counted
# twice, or not at all, changes these.
PROJECT_COUNTS = {
    "dist-rate": (131, 10_322),
    "strong-rate": (50, 578),
    "weak-compare": (34, 482),
}


def test_tracer_sees_every_layer(tmp_path):
    common = {"coefficients": {"name": "quadrant2d"}, "x0": [0.0, 0.0],
              "horizon_T": 0.25, "log2_fine_steps": 4, "master_seed": 5,
              "num_paths": 6, "n_list": [16, 32, 64, 128],
              "scheme": "splitting"}
    configs = {
        "dist-rate": dict(
            common, kind="dist-rate", p_list=[2], log2_fine_steps=6,
            num_paths=20, domain={"type": "halfline", "lower": 0.0},
            coefficients={"name": "ou1d"}, x0=[0.0]),
        "strong-rate": dict(
            common, kind="strong-rate", p_list=[2],
            domain={"type": "polyhedron", "normals": [[-1.0, 0.0],
                                                      [0.0, -1.0]],
                    "offsets": [0.0, 0.0]},
            reference={"scheme": "projected_euler", "log2_steps": 5}),
        "weak-compare": dict(
            common, kind="weak-compare", functional="cdf",
            domain={"type": "box", "lower": [0.0], "upper": [2.0]},
            coefficients={"name": "schmidt1d"}, x0=[0.9]),
    }
    runs = []
    for kind, cfg in configs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(cfg))
        runs.append((kind, str(path), str(tmp_path / kind)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["absent"] == []
    runs = result["runs"]
    assert [run["code"] for run in runs.values()] == [0, 0, 0]
    for layer in LAYERS:
        assert any(run["calls"].get(layer, 0) > 0
                   for run in runs.values()), layer
    for kind, run in runs.items():
        # One sweep per run, through the traced name: a dispatch that bound
        # the sweeps at import time would leave ``rates.sweep`` at 0.
        assert run["calls"].get("rates.sweep", 0) == 1, kind
        got = (run["calls"]["geometry.project"],
               run["rows"]["geometry.project"])
        assert got == PROJECT_COUNTS[kind], kind
