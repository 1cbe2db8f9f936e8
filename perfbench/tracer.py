"""In-memory span tracer around refsde's public layer names.

``Tracer.install()`` replaces each name in ``TARGETS`` with a wrapper that
records one span per call: layer, start, end, the end of the wrapper's own
bookkeeping, the parent span and, for some layers, a row count. The
coefficient callables are wrapped as ``refsde.cli.make_coefficients``
returns them. Spans stay in memory until ``write``. A name that no longer
exists (after a refactor) is recorded as absent instead of failing.

``layer_metrics`` reads a span file and returns the per-layer metrics. Self
time is a span's duration minus the intervals its child spans cover,
bookkeeping included, so tracer cost lands in no layer's self time.
"""

import dataclasses
import importlib
import time

import numpy as np

# (module, attribute path, layer). The sweep reaches the step kernels through
# the names ``refsde.rates`` imported and the domain operations through the
# domain classes, so wrapping these names sees every call the sweep makes.
TARGETS = (
    ("refsde.cli", "parse_config", "cli.parse_config"),
    ("refsde.cli", "domain_from_spec", "geometry.construct"),
    ("refsde.cli", "run", "cli.run"),
    ("refsde.cli", "boundary_distance_sweep", "rates.sweep"),
    ("refsde.cli", "strong_error_sweep", "rates.sweep"),
    ("refsde.cli", "weak_compare", "rates.sweep"),
    ("refsde.rates", "splitting_step", "penalized.splitting_step"),
    ("refsde.rates", "projected_euler_step", "reflected.projected_euler_step"),
    ("refsde.rates", "sample_increments", "brownian.sample_increments"),
    ("refsde.rates", "halve_increments", "brownian.halve_increments"),
    ("refsde.geometry", "ConvexDomain.distance", "geometry.distance"),
    ("refsde.geometry", "HalfLine.project", "geometry.project"),
    ("refsde.geometry", "Box.project", "geometry.project"),
    ("refsde.geometry", "Polyhedron.project", "geometry.project"),
    ("refsde.geometry", "Ball.project", "geometry.project"),
)
COEFFICIENT_FACTORY = ("refsde.cli", "make_coefficients")

# Columns of one span record.
LAYER, START, END, AFTER, PARENT, ROWS, MOVED = range(7)


def _state_rows(args, out):
    state = np.asarray(out[0])
    return state.size // state.shape[-1], 0


def _normals(args, out):
    return np.asarray(out).size, 0


def _projected_rows(args, out):
    x = np.asarray(args[1], dtype=float)
    moved = np.any(np.asarray(out) != x, axis=-1)
    return x.size // x.shape[-1], int(np.count_nonzero(moved))


COUNTERS = {
    "penalized.splitting_step": _state_rows,
    "reflected.projected_euler_step": _state_rows,
    "brownian.sample_increments": _normals,
    "geometry.project": _projected_rows,
}


def _resolve(module, path):
    """(owner, attribute) for ``module.path``, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    def __init__(self):
        self.layers = []
        self.spans = []
        self.stack = []
        self.absent = []

    def _layer_id(self, layer):
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, fn, layer):
        """``fn`` recording one span of ``layer`` per call."""
        lid = self._layer_id(layer)
        counter = COUNTERS.get(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [lid, clock(), 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[ROWS], span[MOVED] = counter(args, out)
            span[AFTER] = clock()
            return out

        return traced

    def install(self):
        for module, path, layer in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            setattr(owner, attr, self.wrap(getattr(owner, attr), layer))
        found = _resolve(*COEFFICIENT_FACTORY)
        if found is None:
            self.absent.append(".".join(COEFFICIENT_FACTORY))
            return
        owner, attr = found
        setattr(owner, attr, self._traced_factory(getattr(owner, attr)))

    def _traced_factory(self, factory):
        def make(*args, **kwargs):
            field = factory(*args, **kwargs)
            try:
                return dataclasses.replace(
                    field,
                    diffusion=self.wrap(field.diffusion,
                                        "coefficients.diffusion"),
                    drift=self.wrap(field.drift, "coefficients.drift"))
            except (TypeError, AttributeError):
                self.absent.append("CoefficientField.diffusion/drift")
                return field

        return make

    def write(self, path):
        with open(path, "wb") as fh:
            np.savez(fh, layers=np.array(self.layers, dtype=str),
                     absent=np.array(self.absent, dtype=str),
                     spans=np.array(self.spans, dtype=float).reshape(-1, 7))


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    rows: int = 0
    moved: int = 0


def layer_stats(spans, layers):
    """Per-layer totals of a span array, keyed by layer name."""
    lid = spans[:, LAYER].astype(int)
    parent = spans[:, PARENT].astype(int)
    duration = spans[:, END] - spans[:, START]
    cover = np.zeros(len(spans))
    child = parent >= 0
    np.add.at(cover, parent[child],
              spans[child, AFTER] - spans[child, START])
    self_time = duration - cover
    stats = {}
    for i, name in enumerate(layers):
        mask = lid == i
        stats[name] = LayerStats(
            calls=int(np.count_nonzero(mask)),
            inclusive=float(np.sum(duration[mask])),
            self_time=float(np.sum(self_time[mask])),
            rows=int(np.sum(spans[mask, ROWS])),
            moved=int(np.sum(spans[mask, MOVED])))
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(path):
    """Per-layer metrics of one span file, and the names found absent.

    Metrics are ``{name: {"value", "unit"}}``. A layer that never ran, or
    whose name was absent, reads 0.
    """
    with np.load(path) as data:
        layers = [str(x) for x in data["layers"]]
        absent = [str(x) for x in data["absent"]]
        stats = layer_stats(data["spans"], layers)

    def get(layer):
        return stats.get(layer, LayerStats())

    project = get("geometry.project")
    splitting = get("penalized.splitting_step")
    sampling = get("brownian.sample_increments")
    diffusion = get("coefficients.diffusion")
    drift = get("coefficients.drift")
    reference = get("reflected.projected_euler_step")
    values = {
        "geometry.project.self_s": (project.self_time, "s"),
        "geometry.project.calls": (project.calls, "count"),
        "geometry.project.rows": (project.rows, "count"),
        "geometry.project.outside_frac":
            (_ratio(project.moved, project.rows), "fraction"),
        "geometry.distance.self_s": (get("geometry.distance").self_time, "s"),
        "geometry.construct_s": (get("geometry.construct").inclusive, "s"),
        "penalized.splitting_step.self_s": (splitting.self_time, "s"),
        "penalized.splitting_step.calls": (splitting.calls, "count"),
        "penalized.splitting_step.rows_per_call":
            (_ratio(splitting.rows, splitting.calls), "rows/call"),
        "rates.sweep.self_s": (get("rates.sweep").self_time, "s"),
        "brownian.sample_increments.self_s": (sampling.self_time, "s"),
        "brownian.sample_increments.calls": (sampling.calls, "count"),
        "brownian.normals_per_s":
            (_ratio(sampling.rows, sampling.self_time), "1/s"),
        "brownian.halve_increments.self_s":
            (get("brownian.halve_increments").self_time, "s"),
        "coefficients.diffusion.self_s": (diffusion.self_time, "s"),
        "coefficients.drift.self_s": (drift.self_time, "s"),
        "coefficients.calls": (diffusion.calls + drift.calls, "count"),
        "reflected.projected_euler_step.self_s": (reference.self_time, "s"),
        "reflected.projected_euler_step.calls": (reference.calls, "count"),
        "cli.parse_config_s": (get("cli.parse_config").inclusive, "s"),
        "cli.write_artifacts_s": (get("cli.run").self_time, "s"),
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    return metrics, absent
