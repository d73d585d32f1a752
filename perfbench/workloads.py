"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` and runs them in
``run_pass``; an operation's outputs are checked against closed forms or the
suite's own verdicts, and reduced to a digest of rounded values so repeated
runs can be compared.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import sympy
from scipy.sparse.csgraph import dijkstra

import lagbound as lb
from lagbound import cli, config, distances, sasaki
from lagbound.surface import hyperbolic_band, plane_annulus, sphere_band

from spans import Installer

GRID = (512, 129)
SWEEP_TOL = 1e-8      # the suite's "monotonicity" tolerance
PARABOLA_TOL = 1e-6   # the suite's "parabola_residual" tolerance


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    digest: str
    failures: list = field(default_factory=list)
    errbars: list = field(default_factory=list)   # (reported error, value)


@dataclass
class PassResult:
    ops: list
    latencies: list
    errbars: list   # (reported error, value) of every epsilon and delta_H
    untimed_s: float = 0.0   # the benchmark's own work, left out of the pass time
    ref_s: list = field(default_factory=list)   # SpeedReference times in the pass


class SpeedReference:
    """A fixed kernel mix, timed between operations to track machine speed.

    On a shared machine every kernel slows down and speeds up together, by
    10% or more within a minute.  Timing this mix next to the workload lets
    a run express its times at the speed the machine had when NOMINAL_S was
    set.  The mix follows where lagbound spends its time: multi-source
    Dijkstra on a sparse graph, the frame contractions of a curvature sweep
    on a smaller sample, and an interpreted loop.  It calls scipy and numpy
    directly, so no lagbound change can alter it.
    """

    NOMINAL_S = 0.04   # median of time() on the reference machine

    def __init__(self):
        rng = np.random.default_rng(0)
        self._graph = scipy.sparse.random(6000, 6000, density=8 / 6000,
                                          random_state=rng, format="csr")
        self._t = rng.normal(size=(400, 2, 2))
        self._a = rng.normal(size=(400, 2, 2, 2))
        self._dirs = rng.normal(size=(180, 2))

    def time(self) -> float:
        t0 = time.perf_counter()
        dijkstra(self._graph, indices=[0, 1, 2, 3])
        tx = np.einsum("bij,mj->bmi", self._t, self._dirs)
        xt = self._dirs[None] / np.sqrt(1.0 + (tx * tx).sum(-1))[..., None]
        v = np.einsum("bijk,bmj,bmk->bmi", self._a, xt, xt)
        float(np.max((v * v).sum(-1)))
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - t0


def digest(values) -> str:
    """Digest of a tuple of outputs, floats rounded to 12 significant digits."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".12g")
        if isinstance(v, np.ndarray):
            return ",".join(fmt(x) for x in v.ravel())
        return str(v)
    text = "|".join(fmt(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


collect_garbage = gc.collect   # a traced run wraps this name in a span


def run_tasks(tasks, reference=None) -> PassResult:
    """Time each (name, fn) task; an exception fails that operation only.

    Before each operation, and after the last, the benchmark times the speed
    reference, if one is given; that is not part of the pass time.  Each
    operation's latency ends with a full garbage collection, so it includes
    freeing lagbound's own reference cycles (a band graph points back at its
    patch).  Left to Python's collector, those cycles are freed at moments
    that depend on the seed, which spreads patch_cold's peak memory between
    runs far more than its graph sizes do.
    """
    ops, latencies, refs = [], [], []
    untimed = 0.0

    def time_reference():
        nonlocal untimed
        if reference is not None:
            t0 = time.perf_counter()
            refs.append(reference.time())
            untimed += time.perf_counter() - t0

    for name, fn in tasks:
        time_reference()
        t0 = time.perf_counter()
        try:
            op = fn()
        except Exception as exc:  # record and keep measuring the rest
            op = Op(name, "raised", [f"{name}: {type(exc).__name__}: {exc}"])
        collect_garbage()
        latencies.append(time.perf_counter() - t0)
        ops.append(op)
    time_reference()
    return PassResult(ops, latencies, [e for op in ops for e in op.errbars],
                      untimed, refs)


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi), one per equal slice, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _trig(patch, rng, mode: int, amplitude: float, name: str):
    """a cos(m s - phi) plus a quarter-size second mode with its own phase."""
    phi, phi2 = rng.uniform(0, 2 * np.pi, size=2)
    mode2 = int(rng.choice([m for m in range(1, 9) if m != mode]))
    cos_amps = {mode: amplitude * np.cos(phi)}
    sin_amps = {mode: amplitude * np.sin(phi)}
    cos_amps[mode2] = 0.25 * amplitude * np.cos(phi2)
    sin_amps[mode2] = 0.25 * amplitude * np.sin(phi2)
    return lb.trig_curve(patch, cos_amps, sin_amps, n=patch.n_s, name=name)


def _band_checks(name, curve, eps, eps_err, dh) -> list[str]:
    """Closed forms every graph over the base curve satisfies.

    t is the distance to the base curve in a normal band, so the Hausdorff
    distance from a graph to the base curve is max|xi|; a tameness constant
    is positive and at most 1 (nearby pairs give ratios near 1).
    """
    fails = []
    sup = curve.sup_norm()
    if not abs(dh.value - sup) <= dh.error:
        fails.append(f"{name}: delta_H {dh.value:.6g} vs max|xi| {sup:.6g} "
                     f"(err {dh.error:.2e})")
    if not 0.0 < eps <= 1.0 + eps_err:
        fails.append(f"{name}: epsilon {eps:.6g} outside (0, 1 + err]")
    return fails


class BatchWorkload:
    """A workload whose set-up returns one (name, fn) task per operation."""

    PROBE = slice(0, 1)   # the operations the determinism probe re-runs

    def __init__(self, work_dir, reference=None):
        self.reference = reference

    def run_pass(self, tasks) -> PassResult:
        return run_tasks(tasks, self.reference)

    def probe(self, tasks, reference: PassResult) -> list[str]:
        by_name = {op.name: op.digest for op in reference.ops}
        again = run_tasks(tasks[self.PROBE])
        return [op.name for op in again.ops if op.digest != by_name.get(op.name)]


# ---------------------------------------------------------------------------
# suite_quick
# ---------------------------------------------------------------------------

class SuiteQuick:
    """``lagbound lemmas --quick`` through ``lagbound.cli.main``, in-process."""

    name = "suite_quick"
    PROBE_CHECKS = ("warp_taylor", "exact_shift")
    END_SAMPLES = 7

    def __init__(self, work_dir, reference=None):
        self.work_dir = work_dir
        self.reference = reference

    def _time_reference(self, refs) -> float:
        """Time the speed reference END_SAMPLES times in a row.

        On a shared 2-core Xeon VM the speed moved by up to a factor of two
        within a second, so one 40 ms sample at each end of a 20 s call says
        little about the speed during it; the median of several at both ends
        tracks the slower drift between runs.
        """
        t0 = time.perf_counter()
        if self.reference is not None:
            refs += [self.reference.time() for _ in range(self.END_SAMPLES)]
        return time.perf_counter() - t0

    def setup(self, seed):
        os.makedirs(self.work_dir, exist_ok=True)
        probe_cfg = os.path.join(self.work_dir, "probe_config.json")
        with open(probe_cfg, "w", encoding="utf-8") as fh:
            json.dump({"checks": {c: c in self.PROBE_CHECKS
                                  for c in config.ALL_CHECKS}}, fh)
        return {"seed": seed, "probe_config": probe_cfg}

    def _run_cli(self, state, extra=()):
        """Run the suite; returns (exit code, {check: csv bytes})."""
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["lemmas", "--quick", "--seed", str(state["seed"]),
                               "--out", out_dir, *extra])
            bundle = {}
            for fname in sorted(os.listdir(out_dir)):
                if fname.endswith(".csv"):
                    with open(os.path.join(out_dir, fname), "rb") as fh:
                        bundle[fname[:-4]] = fh.read()
            return rc, bundle
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def run_pass(self, state) -> PassResult:
        """One ``lemmas --quick`` call: 10 checks, one latency sample."""
        clear_caches()   # each `lagbound lemmas` process starts cold
        errbars, refs = [], []
        untimed = self._time_reference(refs)
        hooks = Installer()

        def tap(attr):
            def make(fn):
                def tapped(*args, **kwargs):
                    res = fn(*args, **kwargs)
                    errbars.append((res.error, getattr(res, attr)))
                    return res
                return tapped
            return make

        hooks.function("curves", "tameness", tap("epsilon"))
        hooks.function("hausdorff", "hausdorff_distance", tap("value"))
        error = None
        t0 = time.perf_counter()
        try:
            rc, bundle = self._run_cli(state)
        except Exception as exc:  # the whole suite failed: every check fails
            rc, bundle, error = None, {}, f"{type(exc).__name__}: {exc}"
        finally:
            hooks.restore()
        latency = time.perf_counter() - t0
        untimed += self._time_reference(refs)
        ops = []
        for check in sorted(config.ALL_CHECKS):
            data = bundle.get(check)
            if error is not None:
                fails = [f"{check}: {error}"]
            elif data is None:
                fails = [f"{check}: no CSV written"]
            else:
                fails = _fail_rows(check, data)
            if rc not in (0, None):
                fails.append(f"{check}: lemmas exit code {rc}")
            code = "raised" if error else hashlib.sha256(data or b"").hexdigest()[:16]
            ops.append(Op(check, code, fails))
        return PassResult(ops, [latency], errbars, untimed, refs)

    def probe(self, state, reference: PassResult) -> list[str]:
        try:
            _, bundle = self._run_cli(state, ["--config", state["probe_config"]])
        except Exception:  # a probe that cannot run reproduces nothing
            return list(self.PROBE_CHECKS)
        by_name = {op.name: op.digest for op in reference.ops}
        return [c for c in self.PROBE_CHECKS
                if hashlib.sha256(bundle.get(c, b"")).hexdigest()[:16]
                != by_name.get(c)]


def _fail_rows(check: str, data: bytes) -> list[str]:
    lines = data.decode("utf-8").splitlines()
    rows = list(csv.reader(lines[1:]))
    if not rows or "pass" not in rows[0]:
        return [f"{check}: CSV without a pass column"]
    col = rows[0].index("pass")
    return [f"{check}: row {i} FAIL" for i, row in enumerate(rows[1:], 1)
            if row[col] != "true"]


# ---------------------------------------------------------------------------
# tameness_warm
# ---------------------------------------------------------------------------

# patch -> (builder, closed-form |B| of the parallel t = c)
WARM_PATCHES = {
    "sphere_equator": (lambda: sphere_band(halfwidth=0.6, grid=GRID),
                       lambda c: abs(math.tan(c))),
    "plane_circle": (lambda: plane_annulus(circle_radius=2.0, halfwidth=1.0,
                                           grid=GRID),
                     lambda c: 1.0 / (2.0 - c)),
    "hyperbolic_band": (lambda: hyperbolic_band(halfwidth=0.6, grid=GRID),
                        lambda c: abs(math.tanh(c))),
}


class TamenessWarm(BatchWorkload):
    """classify + hausdorff_distance on many graphs sharing three patches."""

    name = "tameness_warm"
    K = 5.0
    GRAPHS = 6   # per patch, each with its own mode from 1..8

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        tasks = []
        for pname, (build, exact_curv) in WARM_PATCHES.items():
            patch = build()
            patch.stencil_error_ratio()          # fills the 8/16 graphs
            distances.build_band_graph(patch)    # fills the default graph
            base = lb.Curve.constant(patch, 0.0, n=patch.n_s)
            r = patch.halfwidth
            amps = stratified(rng, self.GRAPHS, 0.3 * r / 3, r / 3)
            modes = rng.permutation(np.arange(1, 9))[:self.GRAPHS]
            for mode, amp in zip(modes, amps):
                curve = _trig(patch, rng, int(mode), float(amp),
                              f"{pname}/cos{mode}")
                tasks.append((curve.name, self._graph_op(curve, base)))
            c_hi, c_lo = stratified(rng, 2, 0.05, r / 3)
            c_hi, c_lo = float(c_hi), -float(c_lo)
            for c, other in ((c_hi, c_lo), (c_lo, 0.0)):
                par = lb.Curve.constant(patch, c, n=patch.n_s)
                ref = lb.Curve.constant(patch, other, n=patch.n_s)
                name = f"{pname}/parallel{c:+.4f}"
                tasks.append((name, self._parallel_op(name, par, ref, c, other,
                                                      exact_curv)))
        return tasks

    def _graph_op(self, curve, base):
        def op():
            v = lb.classify(curve, self.K)
            dh = lb.hausdorff_distance(curve, base)
            eps_err = v.margins["tameness"][1]
            fails = _band_checks(curve.name, curve, v.epsilon, eps_err, dh)
            return Op(curve.name,
                      digest((v.verdict, v.curvature, v.margins["curvature"][1],
                              v.epsilon, eps_err, dh.value, dh.error)),
                      fails, [(eps_err, v.epsilon), (dh.error, dh.value)])
        return op

    def _parallel_op(self, name, par, ref, c, other, exact_curv):
        def op():
            v = lb.classify(par, self.K)
            dh = lb.hausdorff_distance(par, ref)
            curv_err = v.margins["curvature"][1]
            eps_err = v.margins["tameness"][1]
            fails = []
            if not abs(v.curvature - exact_curv(c)) <= curv_err:
                fails.append(f"{name}: |B| {v.curvature!r} vs {exact_curv(c)!r} "
                             f"(err {curv_err:.2e})")
            if not abs(dh.value - abs(c - other)) <= dh.error:
                fails.append(f"{name}: delta_H {dh.value!r} vs {abs(c - other)!r} "
                             f"(err {dh.error:.2e})")
            if not 0.0 < v.epsilon <= 1.0 + eps_err:
                fails.append(f"{name}: epsilon {v.epsilon:.6g} outside (0, 1 + err]")
            return Op(name, digest((v.verdict, v.curvature, curv_err, v.epsilon,
                                    eps_err, dh.value, dh.error)),
                      fails, [(eps_err, v.epsilon), (dh.error, dh.value)])
        return op


# ---------------------------------------------------------------------------
# sasaki_full
# ---------------------------------------------------------------------------

class SasakiFull(BatchWorkload):
    """Gradient-graph sweeps and bundle geodesics at full-suite resolution."""

    name = "sasaki_full"
    PROBE = slice(3, 4)   # the first geodesic batch
    T_GRID = np.array([0.25, 0.5, 0.75, 1.0])
    N_THETA, SAMPLES = 720, 1600
    STATES, HORIZON, STEP = 25, 3.0, 1e-3

    def setup(self, seed):
        rng = np.random.default_rng([seed, 3])
        graphs = [sasaki.torus_gradient_graph(1.0),
                  sasaki.torus_gradient_graph(1.0, mode=2),
                  sasaki.sphere_harmonic_graph(1.0)]
        tasks = []
        for graph, amp in zip(graphs, stratified(rng, 3, 0.005, 0.02)):
            gg = graph.with_amplitude(float(amp))
            name = f"sweep/{gg.name}/{amp:.5f}"
            tasks.append((name, self._sweep_op(name, gg)))
        for bname in ("flat_torus", "round_sphere"):
            base = sasaki.base_manifold(bname)
            for batch in range(2):
                states = sasaki.random_sasaki_states(base, self.STATES, rng)
                name = f"geodesic/{bname}/{batch}"
                tasks.append((name, self._geodesic_op(name, base, states)))
        return tasks

    def _sweep_op(self, name, gg):
        def op():
            vals = lb.curvature_sweep(gg.base, gg, self.T_GRID,
                                      n_theta=self.N_THETA, samples=self.SAMPLES)
            fails = []
            if not (np.all(np.isfinite(vals)) and np.all(vals > 0)):
                fails.append(f"{name}: non-positive or non-finite sup")
            if np.min(np.diff(vals)) < -SWEEP_TOL:
                fails.append(f"{name}: sweep decreases by {-np.min(np.diff(vals)):.2e}")
            return Op(name, digest(tuple(vals)), fails)
        return op

    def _geodesic_op(self, name, base, states):
        def op():
            traj = lb.sasaki_geodesic(base, states, horizon=self.HORIZON,
                                      step=self.STEP)
            fit = lb.parabola_check(traj)
            gap = np.abs(fit.leading - fit.expected_leading)
            fails = []
            if np.max(fit.max_residual) > PARABOLA_TOL or np.max(gap) > PARABOLA_TOL:
                fails.append(f"{name}: parabola residual {np.max(fit.max_residual):.2e}, "
                             f"leading gap {np.max(gap):.2e}")
            return Op(name, digest((fit.coefficients, traj.x[-1], traj.y[-1],
                                    traj.halving_error)), fails)
        return op


# ---------------------------------------------------------------------------
# patch_cold
# ---------------------------------------------------------------------------

class PatchCold(BatchWorkload):
    """Fresh band per operation, then one curvature, tameness and Hausdorff
    query on it."""

    name = "patch_cold"
    PER_KIND = 6

    def setup(self, seed):
        rng = np.random.default_rng([seed, 4])
        n = self.PER_KIND
        builders = []
        for h in stratified(rng, n, 0.4, 0.9):
            builders.append((f"sphere_equator_r{h:.3f}",
                             lambda h=h: sphere_band(halfwidth=h, grid=GRID)))
        for h, rad in zip(stratified(rng, n, 0.5, 1.0), stratified(rng, n, 1.5, 3.0)):
            builders.append((f"plane_circle_R{rad:.3f}_r{h:.3f}",
                             lambda h=h, rad=rad: plane_annulus(
                                 circle_radius=rad, halfwidth=h, grid=GRID)))
        for h in stratified(rng, n, 0.4, 0.9):
            builders.append((f"hyperbolic_band_r{h:.3f}",
                             lambda h=h: hyperbolic_band(halfwidth=h, grid=GRID)))
        for h in stratified(rng, n, 0.4, 0.7):
            k1, k2, g1 = rng.uniform(-0.15, 0.15, size=3)
            g0 = rng.uniform(-0.3, 0.5)
            spec = {"name": "spec", "length": 2 * np.pi, "halfwidth": float(h),
                    "kappa": f"{k1:.4f}*cos(s) + {k2:.4f}*sin(2*s)",
                    "gauss": f"{g0:.4f} + {g1:.4f}*sin(s)*exp(-t*t)",
                    "grid": list(GRID)}
            builders.append((f"spec_r{h:.3f}",
                             lambda spec=spec: config.build_patch_from_spec(spec)))
        order = rng.permutation(len(builders))
        curves = [(int(m), float(f)) for m, f in
                  zip(rng.integers(1, 7, size=len(builders)),
                      stratified(rng, len(builders), 0.4, 0.9))]
        seeds = rng.integers(0, 2**31, size=len(builders))
        return [(builders[i][0], self._op(builders[i][0], builders[i][1],
                                          *curves[i], int(seeds[i])))
                for i in order]

    def _op(self, name, build, mode, frac, curve_seed):
        def op():
            patch = build()
            curve = _trig(patch, np.random.default_rng(curve_seed), mode,
                          frac * patch.halfwidth / 3, name)
            base = lb.Curve.constant(patch, 0.0, n=patch.n_s)
            curv = lb.geodesic_curvature(curve)
            tame = lb.tameness(curve)
            dh = lb.hausdorff_distance(curve, base)
            fails = _band_checks(name, curve, tame.epsilon, tame.error, dh)
            if not np.isfinite(curv.sup):
                fails.append(f"{name}: non-finite curvature")
            return Op(name, digest((curv.sup, curv.error, tame.epsilon, tame.error,
                                    dh.value, dh.error)),
                      fails, [(tame.error, tame.epsilon), (dh.error, dh.value)])
        return op


def clear_caches():
    """Drop sympy's expression cache so each set-up compiles from cold."""
    sympy.core.cache.clear_cache()


WORKLOADS = {w.name: w for w in (SuiteQuick, TamenessWarm, SasakiFull, PatchCold)}


# ---------------------------------------------------------------------------
# error-bar calibration of |B| on parallels
# ---------------------------------------------------------------------------

CALIBRATION_FRACTIONS = np.linspace(-0.9, 0.9, 10)   # of each band's halfwidth


def curvature_calibration() -> dict:
    """|B| of parallels t = c across each band of WARM_PATCHES, against its
    closed form.

    Returns the number of levels, the names of the levels whose reported
    error does not cover the closed form, and the worst
    |measured - exact| - error (positive means the error bar misses).
    The levels are fixed, so the result depends on the lagbound code only.
    """
    levels, misses, worst = 0, [], -math.inf
    for pname, (build, exact_curv) in WARM_PATCHES.items():
        patch = build()
        for frac in CALIBRATION_FRACTIONS:
            c = float(frac * patch.halfwidth)
            rep = lb.geodesic_curvature(lb.Curve.constant(patch, c, n=patch.n_s))
            excess = abs(rep.sup - exact_curv(c)) - rep.error
            levels += 1
            worst = max(worst, excess)
            if not excess <= 0:
                misses.append(f"{pname}/parallel{c:+.4f}: |B| {rep.sup!r} vs "
                              f"{exact_curv(c)!r} (err {rep.error:.2e})")
    return {"levels": levels, "misses": misses, "max_excess": worst}
