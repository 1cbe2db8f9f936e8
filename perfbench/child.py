"""One fresh-interpreter probe of refsde; prints its timings as one JSON line.

    python3 perfbench/child.py setup CONFIG
    python3 perfbench/child.py run   CONFIG OUT_DIR
    python3 perfbench/child.py trace CONFIG OUT_DIR SPANS_FILE

``setup`` times ``import refsde`` plus ``refsde.cli.load_config``. ``run``
times one ``refsde.cli.main`` call and reports the process's peak RSS.
``trace`` does the same with the span tracer installed and writes the spans
to SPANS_FILE; only this mode imports ``tracer``. ``perfbench/run.py``
starts these with ``src`` on ``PYTHONPATH`` and BLAS threads pinned to 1.

Every mode also reports ``cal_s``, the time of a fixed calibration loop run
in the same process next to the timed part: after the set-up, and both
before and after the CLI run (their mean). The loop does not touch refsde,
so its time tracks only how fast the host runs this process at the moment;
``perfbench/run.py`` divides by it to cancel the host's speed swings.
"""

import json
import resource
import sys
import time

CAL_REPS = 600
CAL_WARMUP_REPS = 20


def calibrate():
    """Seconds for a fixed loop of small-array numpy calls and integer
    arithmetic, the mix of work that refsde's sweeps spend their time on."""
    import numpy as np
    x = np.linspace(-1.0, 1.0, 400).reshape(400, 1)

    def loop(reps):
        total = 0
        for _ in range(reps):
            y = x
            for _ in range(50):
                y = np.maximum(y * 0.999 + 0.001, -1.0)
            for i in range(2000):
                total += i * i
        return total

    loop(CAL_WARMUP_REPS)
    t0 = time.perf_counter()
    loop(CAL_REPS)
    return time.perf_counter() - t0


def _versions():
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv):
    mode, config = argv[0], argv[1]
    with open(config, encoding="utf-8") as fh:
        kind = json.load(fh)["kind"]
    if mode == "setup":
        t0 = time.perf_counter()
        import refsde  # noqa: F401
        import refsde.cli
        refsde.cli.load_config(config, kind)
        setup_s = time.perf_counter() - t0
        return {"setup_s": setup_s, "cal_s": calibrate(),
                "versions": _versions()}

    import refsde.cli
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cal_before = calibrate()
    t0 = time.perf_counter()
    rc = refsde.cli.main([kind, "--config", config, "--out", argv[2]])
    run_s = time.perf_counter() - t0
    cal_s = 0.5 * (cal_before + calibrate())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(argv[3])
    return {"rc": rc, "run_s": run_s, "cal_s": cal_s,
            "peak_rss_mb": peak_kib / 1024.0, "versions": _versions()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
