"""Tests of the benchmark's own code: the tail rule, self-time arithmetic,
span installation and the computed work counters.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import lagbound  # noqa: E402
from lagbound import curves, distances, sasaki, surface  # noqa: E402
from scipy.sparse import csr_matrix  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, index, pct", [(11, 0, 100 / 11), (20, 9, 50.0),
                                           (30, 19, 200 / 3), (110, 99, 100 / 1.1)])
def test_tail_has_ten_operations_beyond_it(n, index, pct):
    xs = list(np.random.default_rng(n).permutation(np.arange(n, dtype=float)))
    value, percentile = run.tail(xs)
    assert value == index
    assert sum(x > value for x in xs) == 10
    assert percentile == pytest.approx(pct)


def test_tail_of_few_operations_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(10)]) == (9.0, 100.0)


# -- self time ----------------------------------------------------------------

def _spans(intervals):
    """Spans from (parent, start, end) rows; ids are row numbers."""
    return [Span(i, parent, f"s{i}", "pass", lo, hi)
            for i, (parent, lo, hi) in enumerate(intervals)]


def test_self_time_subtracts_nested_children():
    sp = _spans([(None, 0.0, 10.0), (0, 1.0, 3.0), (0, 6.0, 7.0), (2, 6.25, 6.5)])
    own = spans.self_times(sp)
    assert own == pytest.approx({0: 7.0, 1: 2.0, 2: 0.75, 3: 0.25})
    assert spans.nesting_errors(sp) == []
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once_and_flagged():
    sp = _spans([(None, 0.0, 10.0), (0, 1.0, 3.0), (0, 2.0, 5.0), (0, 9.0, 12.0)])
    own = spans.self_times(sp)
    assert own[0] == pytest.approx(10.0 - 5.0)   # children cover [1, 5] and [9, 10]
    assert [e.split()[0] for e in spans.nesting_errors(sp)] == ["s0#0"]


def test_layer_metrics_count_setup_once_and_average_passes():
    sp = [Span(0, None, "curves.tameness", "setup", 0.0, 1.0, {"pairs": 6}),
          Span(1, None, "curves.tameness", "pass", 2.0, 4.0, {"pairs": 6}),
          Span(2, 1, "distances.dijkstra", "pass", 2.5, 3.5,
               {"sources_x_nodes": 10}),
          Span(3, None, "curves.tameness", "pass", 5.0, 7.0, {"pairs": 6})]
    out = spans.layer_metrics(sp, n_passes=2)
    assert out["curves.tameness.calls"] == 2.0
    assert out["curves.tameness.self_s"] == pytest.approx(1.0 + (1.0 + 2.0) / 2)
    assert out["curves.tameness.pairs"] == 12.0
    assert out["distances.dijkstra.sources_x_nodes"] == 5.0
    assert spans.pass_coverage(sp, pass_wall=5.0) == pytest.approx(4.0 / 5.0)


def test_tracer_records_parent_links():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert spans.nesting_errors(tracer.spans) == []


# -- installation --------------------------------------------------------------

def test_install_wraps_every_binding_and_restores():
    originals = {"tameness": curves.tameness, "dijkstra": distances.dijkstra,
                 "warp_on_curve": surface.SurfacePatch.warp_on_curve}
    tracer, installer = spans.Tracer(), spans.Installer()
    try:
        problems, absent = spans.install(tracer, installer)
        assert problems == [] and absent == []
        mods = {m.__name__: m for m in spans.lagbound_modules()}
        for where, attr in [("lagbound.curves", "tameness"),
                            ("lagbound.exactness", "tameness"),
                            ("lagbound.classify", "tameness"),
                            ("lagbound.pipelines", "tameness"),
                            ("lagbound.cli", "tameness"),
                            ("lagbound", "tameness"),
                            ("lagbound.distances", "dijkstra")]:
            assert getattr(mods[where], attr).__wrapped__ is originals[attr]
        assert spans.unwrapped_bindings(
            {"tameness": originals["tameness"]}) == []
    finally:
        installer.restore()
    assert curves.tameness is originals["tameness"]
    assert lagbound.tameness is originals["tameness"]
    assert distances.dijkstra is originals["dijkstra"]
    assert surface.SurfacePatch.warp_on_curve is originals["warp_on_curve"]
    assert spans.unwrapped_bindings({"tameness": originals["tameness"]})


# -- computed counters against the program's own work ---------------------------

def _count_calls(monkeypatch, module, name, record):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        record(args, kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_rk4_steps_of_the_warp_march(monkeypatch):
    points = []
    _count_calls(monkeypatch, surface, "_warp_rhs",
                 lambda a, kw: points.append(np.size(a[1])))
    patch = surface.sphere_band(halfwidth=0.5, grid=(16, 9))
    assert spans.count_solve_warp({}, patch)["rk4_steps"] == sum(points) // 4


def test_point_steps_of_warp_on_curve(monkeypatch):
    patch = surface.sphere_band(halfwidth=0.5, grid=(16, 9))
    points = []
    _count_calls(monkeypatch, surface, "_warp_rhs",
                 lambda a, kw: points.append(np.size(a[1])))
    s = np.linspace(0, 1, 5)
    patch.warp_on_curve(s, 0.1 * s, n_steps=7)
    args = {"s_vals": s, "n_steps": 7}
    assert spans.count_warp_on_curve(args, None)["point_steps"] == sum(points) // 4


def test_rk4_steps_of_sasaki_geodesic(monkeypatch):
    base = sasaki.base_manifold("round_sphere")
    states = sasaki.random_sasaki_states(base, 3, np.random.default_rng(0))
    stages = []
    _count_calls(monkeypatch, sasaki, "_rhs",
                 lambda a, kw: stages.append(a[1].shape[0]))
    sasaki.sasaki_geodesic(base, states, horizon=0.01, step=1e-3)
    args = {"initial": states, "horizon": 0.01, "step": 1e-3}
    assert spans.count_sasaki_geodesic(args, None)["rk4_steps"] == sum(stages) // 4


def test_frame_evals_of_curvature_sweep(monkeypatch):
    graph = sasaki.torus_gradient_graph(0.01)
    evals = []
    _count_calls(monkeypatch, sasaki, "_sup_over_frames",
                 lambda a, kw: evals.append(a[0]["xi"].shape[0] * a[3]))
    t_grid = np.array([0.5, 1.0])
    sasaki.curvature_sweep(graph.base, graph, t_grid, n_theta=6, samples=16)
    args = {"graph": graph, "samples": 16, "t_grid": t_grid, "n_theta": 6}
    assert spans.count_sweep(args, None)["frame_evals"] == sum(evals) == 2 * 6 * 16


def test_pairs_of_tameness_and_hausdorff(monkeypatch):
    patch = surface.sphere_band(halfwidth=0.5, grid=(64, 17))
    curve = lagbound.trig_curve(patch, {2: 0.05}, n=64)
    base = lagbound.Curve.constant(patch, 0.0, n=64)
    seen = []
    _count_calls(monkeypatch, distances, "pairwise_point_distances",
                 lambda a, kw: seen.append(len(a[1])))
    report = lagbound.tameness(curve)
    n = seen[0]
    assert spans.count_tameness({}, report)["pairs"] == n * (n - 1) // 2

    cross = []
    _count_calls(monkeypatch, distances, "set_to_points_distance",
                 lambda a, kw: cross.append(len(a[1]) * len(a[2])))
    lagbound.hausdorff_distance(curve, base)
    args = {"a": curve, "b": base, "n_scan": None}
    assert spans.count_hausdorff(args, None)["pairs"] == sum(cross)

    flat = surface.flat_cylinder(grid=(64, 17))
    fa = lagbound.trig_curve(flat, {1: 0.1}, n=48)
    fb = lagbound.Curve.constant(flat, 0.0, n=64)
    assert spans.count_hausdorff({"a": fa, "b": fb, "n_scan": None},
                                 None)["pairs"] == 2 * 48 * 48


def test_graph_cache_hits_and_edges():
    patch = surface.sphere_band(halfwidth=0.5, grid=(64, 17))
    counter = spans.GraphCacheCounter()
    g1 = distances.build_band_graph(patch)
    g2 = distances.build_band_graph(patch)
    assert counter({}, g1) == {"hits": 0, "edges": len(g1.weights)}
    assert counter({}, g2) == {"hits": 1, "edges": 0}


def test_dijkstra_and_useful_pair_counters():
    graph = csr_matrix(np.ones((5, 5)))
    assert spans.count_dijkstra({"csgraph": graph, "indices": [0, 1]},
                                None)["sources_x_nodes"] == 10
    assert spans.count_dijkstra({"csgraph": graph, "indices": None},
                                None)["sources_x_nodes"] == 25
    dist = np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
    assert spans.count_pairwise({}, dist) == {"useful": 4, "returned": 6}


# -- workload helpers and the benchmark definition --------------------------------

def test_stratified_puts_one_value_in_each_slice():
    vals = workloads.stratified(np.random.default_rng(3), 8, 1.0, 2.0)
    assert sorted(np.floor((vals - 1.0) * 8).astype(int)) == list(range(8))


def test_digest_rounds_to_twelve_digits():
    assert workloads.digest((1.0, "a")) == workloads.digest((1.0 + 1e-15, "a"))
    assert workloads.digest((1.0, "a")) != workloads.digest((1.0 + 1e-9, "a"))


def test_calibration_names_each_level_whose_error_bar_misses(monkeypatch):
    exact = {"sphere": lambda c: abs(np.tan(c)),
             "sphere_off": lambda c: abs(np.tan(c)) + (1e-3 if c > 0 else 0.0)}
    monkeypatch.setattr(workloads, "WARM_PATCHES", {
        name: (lambda: surface.sphere_band(halfwidth=0.5, grid=(64, 17)), fn)
        for name, fn in exact.items()})
    monkeypatch.setattr(workloads, "CALIBRATION_FRACTIONS", np.array([-0.2, 0.0, 0.2]))
    cal = workloads.curvature_calibration()
    assert cal["levels"] == 6
    assert [m.split(":")[0] for m in cal["misses"]] == ["sphere_off/parallel+0.1000"]
    assert cal["max_excess"] > 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(spans.LAYER_METRICS)
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_probe_names_operations_whose_digest_changed():
    outputs = {"a": "1", "b": "2", "c": "3"}
    tasks = [(n, lambda n=n: workloads.Op(n, outputs[n])) for n in outputs]
    wl = workloads.BatchWorkload(None)
    reference = wl.run_pass(tasks)
    assert wl.probe(tasks, reference) == []
    outputs["a"] = "changed"
    assert wl.probe(tasks, reference) == ["a"]


def test_a_raising_operation_fails_alone():
    def boom():
        raise ValueError("bad input")
    res = workloads.run_tasks([("ok", lambda: workloads.Op("ok", "d")), ("boom", boom)])
    assert [op.failures for op in res.ops] == [[], ["boom: ValueError: bad input"]]
    assert len(res.latencies) == 2


class _FixedReference:
    NOMINAL_S = 0.04

    def __init__(self):
        self.calls = 0

    def time(self):
        self.calls += 1
        return 0.08


def test_speed_reference_is_timed_around_every_operation():
    ref = _FixedReference()
    tasks = [(n, lambda n=n: workloads.Op(n, n)) for n in "abc"]
    res = workloads.run_tasks(tasks, ref)
    assert res.ref_s == [0.08] * 4 and ref.calls == 4
    assert res.untimed_s > 0


def test_speed_correction_scales_each_pass_by_its_reference():
    passes = [workloads.PassResult([], [1.0, 3.0], [], ref_s=[0.08, 0.08, 0.2]),
              workloads.PassResult([], [2.0], [], ref_s=[0.02])]
    walls, latencies, factors = run.speed_corrected([10.0, 4.0], passes, 0.04)
    assert factors == [0.5, 2.0]
    assert walls == [5.0, 8.0]
    assert latencies == [0.5, 1.5, 4.0]


def test_speed_correction_follows_drift_within_a_pass():
    drifting = workloads.PassResult([], [1.0] * 5, [],
                                    ref_s=[0.04, 0.04, 0.04, 0.08, 0.08, 0.08])
    _, latencies, _ = run.speed_corrected([5.0], [drifting], 0.04)
    assert latencies == pytest.approx([1.0, 1.0, 2 / 3, 0.5, 0.5])
