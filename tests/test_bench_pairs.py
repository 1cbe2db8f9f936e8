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


def setup_trees(tmp_path, bound=0.25):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": bound}]}))
    return parent, change


def test_run_once_records_a_nonzero_exit_as_failed(tmp_path):
    tool = load_tool()
    (tmp_path / "perfbench").mkdir()
    # run.py exits 1 when it gets no metrics, after printing its result.
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('{\"metrics\": {}}')\nsys.exit(1)\n")
    assert tool.run_once(tmp_path, "w", 1, 1.0) is None


def test_a_failed_run_leaves_its_pair_out(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    parent, change = setup_trees(tmp_path)
    runs = {"parent": iter([1.0, 1.0, 1.0]), "change": iter([0.5, None, 0.5])}

    def fake_run_once(tree, workload, seed, seconds):
        value = next(runs[tree.name])
        return None if value is None else {
            "metrics": {"run_s": {"value": value}}, "correct": True,
            "failed": 0}

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    assert tool.main([str(parent), str(change), "--workload", "w",
                      "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Pairs 1 and 3 are won; the failed pair 2 counts as run, not won.
    assert lines[1] == ("run_s (s): 1 -> 0.5 (-50.0%), parent IQR 0, "
                        "change won 2/3")
    assert lines[2] == "  run_s: no gain; within bound 25%"
    assert lines[4] == ("change: correct [True, None, True], "
                        "failed [0, 'run', 0]")


def summary(parent_values, change_values, bound=0.25):
    tool = load_tool()

    def runs(values):
        return [{"metrics": {"run_s": {"value": v}}, "correct": True,
                 "failed": 0} for v in values]

    spec = [{"name": "run_s", "unit": "s", "better": "lower",
             "bound": bound}]
    return tool.summarize(spec, runs(parent_values), runs(change_values))[1]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]
    # Nine wins out of ten, by far more than the parent's IQR.
    assert summary(parent, [0.8] * 9 + [2.0]).startswith("  run_s: gain;")
    # Eight wins are too few.
    assert "no gain" in summary(parent, [0.8] * 8 + [2.0] * 2)
    # Ten wins, but the medians differ by less than the IQR (0.045).
    assert "no gain" in summary(parent, [v - 0.01 for v in parent])


def test_bound_verdicts():
    parent = [1.0] * 5
    assert summary(parent, [1.2] * 5).endswith("within bound 25%")
    assert summary(parent, [1.3] * 5).endswith("exceeds bound 25%")
    # A parent spread wider than the bound cannot resolve a slowdown...
    wide = [0.5, 0.8, 1.0, 1.2, 1.5]
    assert summary(wide, [1.0] * 5).endswith("unresolved 25%")
    # ... unless every change run beats every parent run.
    assert summary(wide, [0.4] * 5).endswith("within bound 25%")
