"""``tools/config_digests.py --check`` compares a run's artifacts with a
digest file, here a tiny fake one, not the 2^16 configs."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "config_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("config_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha(data):
    return hashlib.sha256(data).hexdigest()


def test_check_names_every_mismatch(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    out = tmp_path / "out"
    artifacts = {"a/errors.csv": b"n,e\n", "a/manifest.json": b"{}",
                 "b/errors.csv": b"x\n"}
    for name, data in artifacts.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(data)
    digests = tmp_path / "DIGESTS.sha256"
    digests.write_text("# numpy 0.0, scipy 0.0\n" + "".join(
        f"{sha(data)}  {name}\n" for name, data in artifacts.items()))
    monkeypatch.setattr(tool, "DIGESTS", digests)
    assert tool.main(["--check", str(out)]) == 0
    assert capsys.readouterr().out == ""
    # One changed byte, one artifact gone and one the file does not list.
    (out / "b" / "errors.csv").write_bytes(b"y\n")
    (out / "a" / "manifest.json").unlink()
    (out / "a" / "extra.csv").write_bytes(b"")
    assert tool.main(["--check", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "not listed: a/extra.csv", "missing: a/manifest.json",
        "differs: b/errors.csv"]
    assert "# numpy 0.0, scipy 0.0" in captured.err


def test_checked_in_digests_list_the_nine_artifacts():
    lines = (TOOL.parents[1] / "configs" / "DIGESTS.sha256").read_text()
    digests = load_tool()._by_name(lines.splitlines())
    assert len(digests) == 9
    assert {name.split("/")[0] for name in digests} == {
        path.stem for path in (TOOL.parents[1] / "configs").glob("*.json")}
    assert all(len(d) == 64 for d in digests.values())
    assert "numpy" in lines and "scipy" in lines
