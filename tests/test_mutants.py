"""``tools/mutants.py`` on a two-file fake tree: one mutant is killed, one
survives, one is broken, and the tree is unchanged afterwards."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(tree):
    return {path.relative_to(tree): path.read_bytes()
            for path in sorted(tree.rglob("*")) if path.is_file()}


def test_mutants_on_a_fake_tree(tmp_path, capsys):
    tool = load_tool()
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "calc.py").write_text("def double(x):\n    return 2 * x\n")
    (tree / "test_calc.py").write_text(
        "from calc import double\n\n\n"
        "def test_double():\n    assert double(3) == 6\n")
    before = snapshot(tree)
    mutants = [
        tool.Mutant("off-by-one", "calc.py", "2 * x", "3 * x",
                    ("test_calc.py",)),
        tool.Mutant("same-value", "calc.py", "2 * x", "x + x",
                    ("test_calc.py",)),
        tool.Mutant("absent", "calc.py", "4 * x", "5 * x", ("test_calc.py",)),
    ]
    assert tool.run(tree, mutants) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "killed", "survived", "broken"]
    assert [line.split()[3] for line in lines] == [
        "off-by-one", "same-value", "absent"]
    assert lines[2].endswith("(old string occurs 0 times)")
    assert snapshot(tree) == before
    # A survivor marked equivalent is not a finding.
    marked = tool.Mutant("same-value", "calc.py", "2 * x", "x + x",
                         ("test_calc.py",), equivalent="2x is x + x")
    assert tool.run(tree, [marked]) == 0
    assert capsys.readouterr().out.endswith("(equivalent: 2x is x + x)\n")
    assert snapshot(tree) == before


def test_checked_in_mutants_match_once():
    tool = load_tool()
    names = [m.name for m in tool.MUTANTS]
    assert len(names) == len(set(names))
    for m in tool.MUTANTS:
        assert (tool.ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert all((tool.ROOT / t.split("::")[0]).exists() for t in m.tests)
