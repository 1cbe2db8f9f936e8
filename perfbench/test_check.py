"""Tests of the benchmark harness: output check, tracer and metric lists."""

import json
from pathlib import Path

import numpy as np

import check
import micro
import run
import tracer

HERE = Path(__file__).resolve().parent
SEED = 20260808


def _golden():
    goldens = json.loads((HERE / "goldens.json").read_text())
    return goldens["dist-halfline"][str(SEED)]


def _write_errors(out_dir, golden, extra_column=False):
    """An ``errors.csv`` as the CLI writes it for the golden's rows."""
    header = ["n", "num_paths", "p", "error", "stderr"]
    if extra_column:
        header.insert(3, "nh")
    lines = [",".join(header)]
    for key, row in golden.items():
        n, p = (part.split("=")[1] for part in key.split(","))
        fields = {"n": n, "p": p, "nh": "0.5", **row}
        lines.append(",".join(fields[c] for c in header))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "errors.csv").write_text("\n".join(lines) + "\n")


def _check(out_dir, golden):
    cfg = run.make_config("dist-halfline", SEED)
    return check.check_run(out_dir, cfg, golden=golden)[1]


def test_golden_table_passes(tmp_path):
    golden = _golden()
    _write_errors(tmp_path, golden)
    assert _check(tmp_path, golden) == []


def test_perturbed_last_digit_fails(tmp_path):
    golden = _golden()
    key = sorted(golden)[0]
    text = golden[key]["error"]
    changed = {k: dict(v) for k, v in golden.items()}
    changed[key]["error"] = text[:-1] + str((int(text[-1]) + 1) % 10)
    _write_errors(tmp_path, changed)
    problems = _check(tmp_path, golden)
    assert len(problems) == 1 and key in problems[0]


def test_extra_column_passes(tmp_path):
    golden = _golden()
    _write_errors(tmp_path, golden, extra_column=True)
    assert _check(tmp_path, golden) == []


def test_self_time_excludes_children_and_bookkeeping():
    # layer, start, end, after, parent, rows, moved
    spans = np.array([[0, 0.0, 1.0, 1.0, -1, 0, 0],
                      [1, 0.2, 0.5, 0.6, 0, 400, 0],
                      [1, 0.7, 0.8, 0.8, 0, 400, 0]])
    stats = tracer.layer_stats(spans, ["outer", "inner"])
    assert np.isclose(stats["outer"].self_time, 0.5)
    assert np.isclose(stats["inner"].self_time, 0.4)
    assert stats["inner"].calls == 2 and stats["inner"].rows == 800


def test_missing_name_resolves_to_absent():
    assert tracer._resolve("refsde.rates", "no_such_step") is None
    assert tracer._resolve("refsde.geometry", "NoSuchDomain.project") is None
    assert tracer._resolve("refsde.rates", "splitting_step") is not None


def test_benchmark_json_matches_harness(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    tracer.Tracer().write(tmp_path / "spans.npz")
    traced, _ = tracer.layer_metrics(tmp_path / "spans.npz")
    names = list(traced) + ["trace.overhead_s"] + micro.metric_names()
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(names)
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert sorted(predictions["per_layer"]) == sorted(names)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in predictions["per_layer"].values():
        for move in entry["moves"]:
            assert move["metric"] in end_to_end
            assert move["workload"] in run.WORKLOADS

