"""``tools/bench_pairs.py`` alternates which side of a pair runs first."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_are_summarized_by_pair_index(
        tmp_path, monkeypatch, capsys):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    order = []

    def fake_run_once(tree, workload, seed, seconds):
        # Each run's metric is its position in the sequence of runs.
        order.append(tree.name)
        return {"metrics": {"run_s": {"value": float(len(order))}},
                "correct": 1, "failed": 0}

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    assert tool.main([str(parent), str(change), "--workload", "w",
                      "--pairs", "2"]) == 0
    assert order == ["parent", "change", "change", "parent"]
    header, run_s = capsys.readouterr().out.splitlines()[:2]
    assert "parent first in odd pairs" in header
    # Pair 1 is parent 1.0 against change 2.0 and pair 2 parent 4.0 against
    # change 3.0, so the change wins pair 2 only. Pairing the runs in run
    # order (1 with 2, 3 with 4) would give 0/2.
    assert run_s == ("run_s (s): 2.5 -> 2.5 (+0.0%), parent IQR 1.5, "
                     "change won 1/2")
