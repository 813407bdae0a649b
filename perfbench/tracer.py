"""In-process span tracing around calls into latticegrow's layers.

The traced run patches the layer functions listed in ``TARGETS`` for the
duration of a ``Tracer.installed()`` block, so no file of the package is
edited.  Each patched call records a span (name, layer, parent, start, end,
and a work count) in memory.  A span's self time is its duration minus the
durations of its direct children; calls are nested and single-threaded, so
the children never overlap.

The scalar weight route (``WeightField._edge_weight_canonical``), called
once per edge relaxation inside ``fpp_dijkstra``, is not patched: a span per
edge would cost more than the hash itself.  Its time is part of
``fpp.dijkstra_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np


def _elements(args, kwargs, result):
    return int(np.prod(np.asarray(args[1]).shape[:-1]))


def _cells(args, kwargs, result):
    return int(np.prod([int(c) + 1 for c in args[1]]))


def _settled(args, kwargs, result):
    return len(result.times)


def _particles(args, kwargs, result):
    return int(args[2])


def _table_cells(args, kwargs, result):
    return int(result.s.size)


# (module, attribute path, layer, span name, work count or None); the CSV
# writers are the ones the workloads reach
TARGETS = [
    ("weights", "WeightField.vertex_weights", "weights", "vector", _elements),
    ("weights", "WeightField.edge_weights", "weights", "vector", _elements),
    ("lpp", "lpp_dp", "lpp", "dp", _cells),
    ("lpp", "lpp_geodesic", "lpp", "geodesic", None),
    ("fpp", "fpp_dijkstra", "fpp", "dijkstra", _settled),
    ("fpp", "fpp_geodesic", "fpp", "geodesic", None),
    ("growth", "idla_grow", "growth", "idla", _particles),
    ("growth", "eden_grow", "growth", "eden", _particles),
    ("growth", "roundness", "growth", "roundness", None),
    ("tasep", "tasep_run", "tasep", "run", _table_cells),
    ("tasep", "coupling_equivalence", "tasep", "probe", None),
    ("oracle", "brute_force_fpp", "oracle", "brute", None),
    ("oracle", "brute_force_lpp", "oracle", "brute", None),
    ("estimators", "estimate_radial_g", "estimators", "estimate", None),
    ("estimators", "variance_series", "estimators", "estimate", None),
    ("estimators", "wandering_series", "estimators", "estimate", None),
    ("estimators", "flat_edge_probe", "estimators", "estimate", None),
    ("estimators", "_fpp_target_solve", "estimators", "fpp_trial", None),
    ("estimators", "_twopoint_diag_time", "estimators", "window", None),
    ("estimators", "_corridor_graph", "estimators", "window_graph", None),
    ("estimators", "fit_exponent", "estimators", "fit", None),
    ("estimators", "chi_from_variance_fit", "estimators", "fit", None),
    ("estimators", "kpz_residual", "estimators", "fit", None),
    ("experiments", "run_experiment", "experiments", "run", None),
    ("estimators", "SubadditiveSequence.to_csv", "experiments", "csv", None),
    ("estimators", "MeanSeries.to_csv", "experiments", "csv", None),
    ("estimators", "VarianceSeries.to_csv", "experiments", "csv", None),
    ("growth", "ClusterTrace.to_csv", "experiments", "csv", None),
    ("growth", "roundness_series_to_csv", "experiments", "csv", None),
    ("tasep", "StepTimeTable.to_csv", "experiments", "csv", None),
]

MODULES = ("weights", "lpp", "fpp", "growth", "tasep", "oracle", "estimators",
           "experiments", "cli")
LAYERS = ("weights", "lpp", "fpp", "growth", "tasep", "estimators", "oracle", "experiments")


class Tracer:
    """Collects spans; each span is [name, layer, parent, start, end, count, request]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = 0

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        rec = [name, layer, self._stack[-1] if self._stack else None,
               time.perf_counter(), None, None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer, name, count):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(layer, name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target, and every module-level alias of it, then restore."""
        mods = [importlib.import_module(f"latticegrow.{m}") for m in MODULES]
        saved = []
        try:
            for mod_name, path, layer, name, count in TARGETS:
                owner = importlib.import_module(f"latticegrow.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
                traced = self._wrap(fn, layer, name, count)
                holders = [owner] if outer else [m for m in mods if getattr(m, attr, None) is fn]
                for holder in holders:
                    saved.append((holder, attr, fn))
                    setattr(holder, attr, traced)
            yield self
        finally:
            for holder, attr, fn in reversed(saved):
                setattr(holder, attr, fn)

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [rec[4] - rec[3] for rec in self.spans]
        for rec in self.spans:
            if rec[2] is not None:
                own[rec[2]] -= rec[4] - rec[3]
        return own

    def to_json(self) -> list:
        return [
            {"name": n, "layer": layer, "parent": p, "start": s, "end": e,
             "count": c, "request": r}
            for n, layer, p, s, e, c, r in self.spans
        ]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer aggregates of a finished trace, keyed by layer.name."""
    own = tracer.self_times()
    time_of: dict = {}
    count_of: dict = {}
    calls_of: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for rec, t in zip(tracer.spans, own):
        key = f"{rec[1]}.{rec[0]}"
        time_of[key] = time_of.get(key, 0.0) + t
        count_of[key] = count_of.get(key, 0) + (rec[5] or 0)
        calls_of[key] = calls_of.get(key, 0) + 1
        layer_self[rec[1]] += t

    def tm(key):
        return time_of.get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    # box attempts are the Dijkstra solves made by point-to-point trials
    solve_parents = [tracer.spans[rec[2]][0] if rec[2] is not None else None
                     for rec in tracer.spans if rec[1] == "fpp" and rec[0] == "dijkstra"]
    box_attempts = solve_parents.count("fpp_trial")
    elements = count_of.get("weights.vector", 0)
    cells = count_of.get("lpp.dp", 0)
    settled = count_of.get("fpp.dijkstra", 0)
    particles = count_of.get("growth.idla", 0)
    return {
        "metrics": {
            "weights.vector_s": tm("weights.vector"),
            "weights.vector_elements": elements,
            "weights.ns_per_element": ratio(tm("weights.vector"), elements, 1e9),
            "lpp.dp_self_s": tm("lpp.dp"),
            "lpp.dp_cells": cells,
            "lpp.ns_per_cell": ratio(tm("lpp.dp"), cells, 1e9),
            "lpp.geodesic_s": tm("lpp.geodesic"),
            "fpp.dijkstra_s": tm("fpp.dijkstra"),
            "fpp.settled": settled,
            "fpp.us_per_settled": ratio(tm("fpp.dijkstra"), settled, 1e6),
            "fpp.box_attempts": box_attempts,
            "fpp.attempts_per_trial": ratio(box_attempts, calls_of.get("estimators.fpp_trial", 0)),
            "fpp.geodesic_s": tm("fpp.geodesic"),
            "growth.idla_s": tm("growth.idla"),
            "growth.idla_us_per_particle": ratio(tm("growth.idla"), particles, 1e6),
            "growth.eden_s": tm("growth.eden"),
            "growth.roundness_s": tm("growth.roundness"),
            "tasep.run_s": tm("tasep.run"),
            "tasep.cells": count_of.get("tasep.run", 0),
            "tasep.probe_s": tm("tasep.probe"),
            "estimators.self_s": (layer_self["estimators"] - tm("estimators.window")
                                  - tm("estimators.window_graph") - tm("estimators.fit")),
            "estimators.window_s": tm("estimators.window") + tm("estimators.window_graph"),
            "estimators.window_attempts_per_trial": ratio(
                calls_of.get("estimators.window_graph", 0),
                calls_of.get("estimators.window", 0)),
            "estimators.fit_s": tm("estimators.fit"),
            "oracle.brute_s": tm("oracle.brute"),
            "experiments.csv_s": tm("experiments.csv"),
            "experiments.self_s": layer_self["experiments"] - tm("experiments.csv"),
        },
        "layer_self_s": layer_self,
    }
