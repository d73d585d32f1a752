"""Spans around lagbound's public names, and the per-layer numbers they give.

The benchmark wraps each traced name in every lagbound module namespace that
binds it, so a call through any import path (``lagbound.tameness``,
``lagbound.curves.tameness``, the name ``tameness`` inside ``exactness``...)
records one span: name, start, end, parent span and work counters.  Spans
stay in memory; ``layer_metrics`` turns them into per-layer sums.

Self time of a span is its duration minus the part of it that its child
spans cover.  Everything here runs in one thread, so children never overlap
and no layer has a wait time to record.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import pkgutil
import sys
import time
import weakref
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# wrapper installation
# ---------------------------------------------------------------------------

def lagbound_modules() -> list:
    """Every lagbound module, importing the ones not yet loaded."""
    import lagbound

    for info in pkgutil.iter_modules(lagbound.__path__):
        importlib.import_module(f"lagbound.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "lagbound" or name.startswith("lagbound.")]


class Installer:
    """Replaces lagbound callables by wrappers and puts the originals back."""

    def __init__(self):
        self._undo: list = []

    def function(self, module: str, attr: str, make_wrapper):
        """Wrap ``lagbound.<module>.<attr>`` in every namespace binding it."""
        original = getattr(sys.modules[f"lagbound.{module}"], attr)
        wrapper = make_wrapper(original)
        for mod in lagbound_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, value))

    def method(self, module: str, cls: str, attr: str, make_wrapper):
        klass = getattr(sys.modules[f"lagbound.{module}"], cls)
        original = vars(klass)[attr]
        setattr(klass, attr, make_wrapper(original))
        self._undo.append((klass, attr, original))

    def dict_item(self, table: dict, key, make_wrapper):
        original = table[key]
        table[key] = make_wrapper(original)
        self._undo.append((table, key, original))

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


def unwrapped_bindings(originals: dict) -> list[str]:
    """``module.attr`` names that still bind one of the original callables."""
    missed = []
    for mod in lagbound_modules():
        for name, value in vars(mod).items():
            for label, original in originals.items():
                if value is original:
                    missed.append(f"{mod.__name__}.{name} ({label})")
    return missed


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of each wrapped callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "pass"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """Wrapper recording a span for ``fn``; ``counter(args, result)``
        returns the work counts of the call from its bound arguments."""
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, self.phase, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span, by span id: its duration minus the measure of
    the union of its children's intervals clipped to it, so overlapping
    children are counted once."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    own = {}
    for sp in spans:
        total = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children.get(sp.sid, []), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        own[sp.sid] = (sp.end - sp.start) - total
    return own


def nesting_errors(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Spans whose self time plus child durations differ from their duration."""
    own = self_times(spans)
    child_sum: dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child_sum[sp.parent] = child_sum.get(sp.parent, 0.0) + (sp.end - sp.start)
    bad = []
    for sp in spans:
        gap = own[sp.sid] + child_sum.get(sp.sid, 0.0) - (sp.end - sp.start)
        if abs(gap) > tol:
            bad.append(f"{sp.name}#{sp.sid} gap {gap:.3e}")
    return bad


# ---------------------------------------------------------------------------
# work counters, computed from each call's arguments and result
# ---------------------------------------------------------------------------

# SurfacePatch marches each normal ray with two RK4 substeps per grid row.
MARCH_SUBSTEPS = 2


def count_solve_warp(args, patch):
    return {"rk4_steps": MARCH_SUBSTEPS * (patch.n_t - 1) * patch.n_s}


def count_warp_on_curve(args, _):
    return {"point_steps": int(np.size(args["s_vals"])) * int(args["n_steps"])}


class GraphCacheCounter:
    """Counts edges built and cache hits of ``build_band_graph``.

    A call hits the cache when it returns a graph object that an earlier call
    already returned; weak references avoid keeping old patches alive.
    """

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def __call__(self, args, graph):
        ref = self._seen.get(id(graph))
        if ref is not None and ref() is graph:
            return {"hits": 1, "edges": 0}
        self._seen[id(graph)] = weakref.ref(graph)
        return {"hits": 0, "edges": int(np.size(graph.weights))}


def count_pairwise(args, dist):
    n = dist.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    return {"useful": int(np.count_nonzero(dist[off_diag] <= 1.0)),
            "returned": n * (n - 1)}


def count_dijkstra(args, _):
    csgraph, indices = args["csgraph"], args["indices"]
    nodes = csgraph.shape[0]
    sources = nodes if indices is None else int(np.size(indices))
    return {"sources_x_nodes": sources * nodes}


def count_tameness(args, report):
    n = report.n_scan
    return {"pairs": n * (n - 1) // 2}


def count_hausdorff(args, _):
    a, b, n_scan = args["a"], args["b"], args["n_scan"]
    if n_scan is None:  # the defaults of hausdorff_distance
        n_scan = min(1024, a.n, b.n) if a.patch.is_flat_cylinder else 256
    return {"pairs": 2 * n_scan * n_scan}


def count_solve_c_grid(args, _):
    return {"scales": int(np.size(args["alphas"]))}


def count_sweep(args, _):
    coords, _charts = args["graph"].default_samples(args["samples"])
    return {"frame_evals": int(np.size(args["t_grid"])) * int(args["n_theta"])
            * len(coords)}


def count_sasaki_geodesic(args, _):
    initial = args["initial"]
    batch = len(initial) if isinstance(initial, (list, tuple)) else 1
    horizon, step = args["horizon"], args["step"]
    # a fine run at `step` plus the step-halving run at 2*step
    steps = math.ceil(horizon / step) + math.ceil(horizon / (2 * step))
    return {"rk4_steps": batch * steps}


def count_write_csv(args, path):
    return {"bytes": os.path.getsize(path)}


# (module, name, counter factory or None); each traced module-level name
FUNCTIONS = [
    ("surface", "solve_warp", lambda: count_solve_warp),
    ("distances", "build_band_graph", GraphCacheCounter),
    ("distances", "pairwise_point_distances", lambda: count_pairwise),
    ("distances", "set_to_points_distance", None),
    ("distances", "estimate_stencil_error", None),
    ("distances", "dijkstra", lambda: count_dijkstra),
    ("curves", "geodesic_curvature", None),
    ("curves", "tameness", lambda: count_tameness),
    ("curves", "tameness_comparison_check", None),
    ("hausdorff", "hausdorff_distance", lambda: count_hausdorff),
    ("exactness", "solve_c_grid", lambda: count_solve_c_grid),
    ("exactness", "build_contraction", None),
    ("exactness", "contraction_bounds_check", None),
    ("sasaki", "curvature_sweep", lambda: count_sweep),
    ("sasaki", "sasaki_geodesic", lambda: count_sasaki_geodesic),
    ("classify", "classify", None),
    ("report", "write_csv", lambda: count_write_csv),
    ("pipelines", "run_lemma_suite", None),
]
# (module, class, method, span name, counter factory or None)
METHODS = [
    ("surface", "SurfacePatch", "warp_on_curve", "surface.warp_on_curve",
     lambda: count_warp_on_curve),
    ("sasaki", "GradientGraph", "__init__", "sasaki.GradientGraph", None),
]
# the lemma suite's checks; the two contraction checks share one runner
CHECKS = ["conformal_tameness", "contraction", "contraction_hausdorff",
          "exact_shift", "fiber_norm_parabola", "graph_curvature_monotone",
          "graph_sandwich", "radial_hausdorff", "warp_taylor"]


def install(tracer: Tracer, installer: Installer) -> tuple[list[str], list[str]]:
    """Wrap every traced name.

    Returns (problems, absent): problems lists namespaces that still bind an
    unwrapped original; absent lists traced names this lagbound lacks.
    """
    originals, absent = {}, []
    for module, name, factory in FUNCTIONS:
        mod = sys.modules[f"lagbound.{module}"]
        if not hasattr(mod, name):
            absent.append(f"{module}.{name}")
            continue
        originals[f"{module}.{name}"] = getattr(mod, name)
        counter = factory() if factory else None
        installer.function(
            module, name,
            lambda fn, label=f"{module}.{name}", c=counter: tracer.wrap(label, fn, c))
    for module, cls, attr, label, factory in METHODS:
        klass = getattr(sys.modules[f"lagbound.{module}"], cls, None)
        if klass is None or attr not in vars(klass):
            absent.append(label)
            continue
        counter = factory() if factory else None
        installer.method(module, cls, attr,
                         lambda fn, lb=label, c=counter: tracer.wrap(lb, fn, c))
    # The suite's check table is private; without it the check spans are absent.
    pipelines = sys.modules["lagbound.pipelines"]
    checks = getattr(pipelines, "_CHECK_FUNCS", None)
    if isinstance(checks, dict) and hasattr(pipelines, "_contraction_suite"):
        for name in list(checks):
            installer.dict_item(checks, name,
                                lambda f, n=name: tracer.wrap(f"pipelines.check.{n}", f))
        installer.function("pipelines", "_contraction_suite",
                           lambda f: tracer.wrap("pipelines.check.contraction", f))
    else:
        absent.append("pipelines.check.*")
    problems = [f"{b} not wrapped" for b in unwrapped_bindings(originals)]
    return problems, absent


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _layer(name, extra=()):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
            *extra]


# (metric name, unit, better) for every per-layer metric a traced run prints
LAYER_METRICS = (
    _layer("surface.solve_warp", [("surface.solve_warp.rk4_steps", "count", "lower")])
    + _layer("surface.warp_on_curve",
             [("surface.warp_on_curve.point_steps", "count", "lower")])
    + _layer("distances.build_band_graph",
             [("distances.build_band_graph.edges", "count", "lower"),
              ("distances.build_band_graph.cache_hit_ratio", "ratio", "higher")])
    + _layer("distances.pairwise_point_distances",
             [("distances.pairwise_point_distances.useful_ratio", "ratio", "higher")])
    + _layer("distances.set_to_points_distance")
    + _layer("distances.estimate_stencil_error")
    + _layer("distances.dijkstra",
             [("distances.dijkstra.sources_x_nodes", "count", "lower")])
    + _layer("curves.geodesic_curvature",
             [("curves.geodesic_curvature.oracle_excess", "1", "lower")])
    + _layer("curves.tameness", [("curves.tameness.pairs", "count", "lower")])
    + _layer("curves.tameness_comparison_check")
    + _layer("hausdorff.hausdorff_distance",
             [("hausdorff.hausdorff_distance.pairs", "count", "lower")])
    + _layer("exactness.solve_c_grid",
             [("exactness.solve_c_grid.scales", "count", "lower")])
    + _layer("exactness.build_contraction")
    + _layer("exactness.contraction_bounds_check")
    + _layer("sasaki.curvature_sweep",
             [("sasaki.curvature_sweep.frame_evals", "count", "lower")])
    + _layer("sasaki.sasaki_geodesic",
             [("sasaki.sasaki_geodesic.rk4_steps", "count", "lower")])
    + [("sasaki.GradientGraph.calls", "count", "lower"),
       ("sasaki.GradientGraph.init_s", "s", "lower")]
    + _layer("classify.classify")
    + _layer("report.write_csv", [("report.write_csv.bytes", "B", "lower")])
    + _layer("pipelines.run_lemma_suite")
    + [(f"pipelines.check.{c}.total_s", "s", "lower") for c in CHECKS]
    + _layer("gc.collect")
    + [("trace.wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.self_coverage", "ratio", "higher")]
)


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, float]:
    """Per-layer sums over one traced set-up plus one traced pass.

    Pass spans are divided by the number of traced passes; set-up spans are
    counted once.  Every name of LAYER_METRICS except the ``trace.*`` and
    ``oracle_excess`` entries is filled in, with 0 for layers not called.
    """
    own = self_times(spans)
    sums: dict[str, float] = {}

    def add(key, value, weight):
        sums[key] = sums.get(key, 0.0) + weight * value

    for sp in spans:
        weight = 1.0 if sp.phase == "setup" else 1.0 / n_passes
        add(f"{sp.name}.calls", 1, weight)
        add(f"{sp.name}.self_s", own[sp.sid], weight)
        add(f"{sp.name}.total_s", sp.end - sp.start, weight)
        for key, value in sp.counts.items():
            add(f"{sp.name}.{key}", value, weight)

    graph_calls = sums.get("distances.build_band_graph.calls", 0.0)
    sums["distances.build_band_graph.cache_hit_ratio"] = (
        sums.get("distances.build_band_graph.hits", 0.0) / graph_calls
        if graph_calls else 0.0)
    returned = sums.get("distances.pairwise_point_distances.returned", 0.0)
    sums["distances.pairwise_point_distances.useful_ratio"] = (
        sums.get("distances.pairwise_point_distances.useful", 0.0) / returned
        if returned else 0.0)
    sums["sasaki.GradientGraph.init_s"] = sums.get("sasaki.GradientGraph.total_s", 0.0)

    out = {}
    for name, _unit, _better in LAYER_METRICS:
        if name.startswith("trace.") or name.endswith("oracle_excess"):
            continue
        out[name] = float(sums.get(name, 0.0))
    return out


def pass_coverage(spans: list[Span], pass_wall: float) -> float:
    """Share of the traced pass wall time covered by layer self times."""
    own = self_times(spans)
    return sum(own[sp.sid] for sp in spans if sp.phase == "pass") / pass_wall
