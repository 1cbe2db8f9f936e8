"""Run the three ``configs/`` through the CLI and print their artifacts' digests.

Usage::

    python3 tools/config_digests.py OUT_DIR

Each ``configs/<name>.json`` runs as its own ``kind`` in this interpreter,
with the ``src/`` of this checkout first on the import path, into
``OUT_DIR/<name>``. Stdout gets one line ``<sha256>  <name>/<artifact>`` per
artifact, sorted, so two commits are compared byte for byte with one
``diff`` of their outputs. Each run's wall time goes to stderr. The exit
code is the first nonzero CLI exit code, or 0.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refsde.cli import main as cli_main  # noqa: E402


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
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
        for path in sorted(run_dir.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {config.stem}/{path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
