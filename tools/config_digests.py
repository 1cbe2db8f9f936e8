"""Run the three ``configs/`` through the CLI and print their artifacts' digests.

Usage::

    python3 tools/config_digests.py OUT_DIR
    python3 tools/config_digests.py --check OUT_DIR

Each ``configs/<name>.json`` runs as its own ``kind`` in this interpreter,
with the ``src/`` of this checkout first on the import path, into
``OUT_DIR/<name>``. Stdout gets one line ``<sha256>  <name>/<artifact>`` per
artifact, sorted, so two commits are compared byte for byte with one
``diff`` of their outputs. Each run's wall time goes to stderr. The exit
code is the first nonzero CLI exit code, or 0.

``--check`` runs nothing: it compares the artifacts an earlier run left in
``OUT_DIR`` with ``configs/DIGESTS.sha256``, which holds those lines under a
``#`` header naming the numpy and scipy versions the bytes are promised for.
It prints each artifact whose digest differs, that is missing or that the
file does not list, and exits 1 if there is one, else 0.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "configs" / "DIGESTS.sha256"
sys.path.insert(0, str(ROOT / "src"))

from refsde.cli import main as cli_main  # noqa: E402


def digest_lines(run_dir):
    """The ``<sha256>  <name>/<artifact>`` lines of one run's artifacts."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{run_dir.name}/{path.name}"
            for path in sorted(run_dir.iterdir())]


def _by_name(lines):
    """``{name/artifact: sha256}`` of digest lines, skipping ``#`` lines."""
    return {name: digest for digest, name in (
        line.split("  ", 1) for line in lines
        if line and not line.startswith("#"))}


def check(out_dir, digests):
    """Print every artifact of ``out_dir`` whose digest is not the one in
    ``digests``, or is missing from either side; 1 if any, else 0."""
    lines = digests.read_text().splitlines()
    want = _by_name(lines)
    got = _by_name(line for run_dir in sorted(out_dir.iterdir())
                   if run_dir.is_dir() for line in digest_lines(run_dir))
    bad = sorted(name for name in want.keys() | got.keys()
                 if want.get(name) != got.get(name))
    for name in bad:
        if name not in got:
            print(f"missing: {name}")
        elif name not in want:
            print(f"not listed: {name}")
        else:
            print(f"differs: {name}")
    if bad:
        header = [line for line in lines if line.startswith("#")]
        print("\n".join([f"{digests} is for:"] + header), file=sys.stderr)
    return 1 if bad else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--check":
        return check(Path(argv[1]), DIGESTS)
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    status = 0
    for config in sorted((ROOT / "configs").glob("*.json")):
        kind = json.loads(config.read_text())["kind"]
        run_dir = out_dir / config.stem
        start = time.perf_counter()
        code = cli_main([kind, "--config", str(config), "--out",
                         str(run_dir)])
        print(f"{config.stem}: exit {code} in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
        status = status or code
        for line in digest_lines(run_dir):
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
