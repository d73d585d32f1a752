#!/usr/bin/env python3
"""Run one benchmark workload against the lagbound source in this checkout.

    python3 perfbench/run.py --workload tameness_warm --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it starts with ``perfbench-info`` and carries the machine facts,
the tail percentile, output digests and the names of failed operations.
Run state (digests of earlier runs, scratch CSV bundles) goes to
``.perfbench/`` at the checkout root.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_COVERAGE = 0.9


def tail(latencies):
    """(value, percentile) of the highest percentile with at least 10
    operations beyond it, by nearest rank.  With fewer than 11 operations no
    percentile qualifies and the maximum is returned as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(workload, state, seconds):
    """Timed passes until `seconds` have elapsed (at least one)."""
    walls, results = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results.append(workload.run_pass(state))
        walls.append(time.perf_counter() - t0 - results[-1].untimed_s)
    return walls, results


def speed_corrected(walls, results, nominal):
    """Speed-corrected pass times, operation latencies and per-pass factors.

    A batch pass times the speed reference before each operation and after
    the last, so operation i is scaled by nominal / (median of the four
    reference times around it).  Other passes use the median of all their
    reference times.  A pass time is scaled by its latency-weighted factor.
    """
    out_walls, out_latencies, factors = [], [], []
    for wall, res in zip(walls, results):
        refs, lats = res.ref_s, res.latencies
        if len(refs) == len(lats) + 1:
            local = [nominal / statistics.median(refs[max(0, i - 1):i + 3])
                     for i in range(len(lats))]
        else:
            local = [nominal / statistics.median(refs)] * len(lats)
        scaled = [x * f for x, f in zip(lats, local)]
        factors.append(sum(scaled) / sum(lats))
        out_walls.append(wall * factors[-1])
        out_latencies += scaled
    return out_walls, out_latencies, factors


def tree_digest(directory):
    """Hash of the Python files of a directory."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout's own git repository, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def machine_facts():
    import numpy
    import scipy
    import sympy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": git_commit(), "source_sha256": tree_digest(SRC / "lagbound"),
            "benchmark_sha256": tree_digest(Path(__file__).parent)}


def check_stored_digests(key, ops):
    """Names of ops whose digest differs from a stored run with the same
    lagbound source, benchmark code, workload and seed; stores this run's
    digests when none exist."""
    path = STATE_DIR / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    current = {op.name: op.digest for op in ops}
    if key not in stored:
        stored[key] = current
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    return [n for n, d in current.items() if stored[key].get(n) != d]


def run(args):
    if not (SRC / "lagbound" / "__init__.py").is_file():
        print(f"perfbench: no lagbound package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lagbound
    import lagbound.cli  # noqa: F401  (the suite's entry point)
    import_s = time.perf_counter() - t0
    if Path(lagbound.__file__).resolve().parent != SRC / "lagbound":
        print(f"perfbench: imported lagbound from {lagbound.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 3

    import workloads

    STATE_DIR.mkdir(exist_ok=True)
    work_dir = STATE_DIR / f"{args.workload}-{os.getpid()}"
    reference = workloads.SpeedReference()
    try:
        return measure_and_report(
            args, workloads.WORKLOADS[args.workload](str(work_dir), reference),
            import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure_and_report(args, workload, import_s):
    import spans
    import workloads

    nominal = workload.reference.NOMINAL_S
    # Set-up is speed-corrected too, by the reference timed around each set-up.
    workload.reference.time()   # the first call pays one-time costs
    setup_runs, setup_refs = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workloads.clear_caches()
        setup_refs.append(workload.reference.time())
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_runs.append(time.perf_counter() - t0)
    setup_refs.append(workload.reference.time())
    raw_setup_s = import_s + statistics.median(setup_runs)
    setup_factor = nominal / statistics.median(setup_refs)
    walls, results = measure(workload, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_walls, trace_problems, absent, layers = [], [], [], {}
    if args.trace:
        tracer, installer = spans.Tracer(), spans.Installer()
        try:
            trace_problems, absent = spans.install(tracer, installer)
            # The collection closing each batch operation frees lagbound's
            # reference cycles; its span keeps that time in the coverage.
            installer.dict_item(vars(workloads), "collect_garbage",
                                lambda fn: tracer.wrap("gc.collect", fn))
            workloads.clear_caches()
            tracer.phase = "setup"
            traced_state = workload.setup(args.seed)
            tracer.phase = "pass"
            traced_walls, traced_results = measure(workload, traced_state,
                                                   args.seconds)
        finally:
            installer.restore()
        results += traced_results
        layers = spans.layer_metrics(tracer.spans, len(traced_walls))
        trace_problems += spans.nesting_errors(tracer.spans)
        coverage = spans.pass_coverage(tracer.spans, sum(traced_walls))
        if coverage < MIN_COVERAGE:
            trace_problems.append(f"layer self times cover {coverage:.3f} "
                                  f"of the traced wall time, below {MIN_COVERAGE}")
        layers["trace.wall_s"] = statistics.median(
            speed_corrected(traced_walls, traced_results, nominal)[0])
        layers["trace.untraced_wall_s"] = statistics.median(
            speed_corrected(walls, results[:len(walls)], nominal)[0])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.self_coverage"] = coverage

    # Determinism: every pass, a re-run of the first operations and any
    # earlier run of the same source and seed must give the same digests.
    first = results[0]
    mismatched = set(workload.probe(state, first))
    for res in results[1:]:
        mismatched |= {a.name for a, b in zip(first.ops, res.ops) if a.digest != b.digest}
    mismatched |= set(check_stored_digests(
        f"{tree_digest(SRC / 'lagbound')}/{tree_digest(Path(__file__).parent)}/"
        f"{args.workload}/{args.seed}", first.ops))
    failures, attempted, failed = [], 0, 0
    for res in results:
        for op in res.ops:
            attempted += 1
            bad = op.failures + ([f"{op.name}: digest differs between runs"]
                                 if op.name in mismatched else [])
            failed += bool(bad)
            failures += [f for f in bad if f not in failures]

    measured = results[:len(walls)]
    raw_latencies = [x for res in measured for x in res.latencies]
    walls_c, latencies, factors = speed_corrected(walls, measured, nominal)
    tail_value, tail_pct = tail(latencies)
    ratios = [abs(err) / abs(val) for err, val in first.errbars if val != 0]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "import_s": import_s, "setup_runs_s": setup_runs, "raw_setup_s": raw_setup_s,
        "setup_speed_factor": setup_factor,
        "passes": len(walls), "raw_pass_walls_s": walls, "speed_factors": factors,
        "raw_wall_s": statistics.median(walls),
        "raw_op_p50_s": statistics.median(raw_latencies),
        "raw_op_tail_s": tail(raw_latencies)[0],
        "latency_count": len(latencies),
        "tail_percentile": tail_pct, "fail_ratio": failed / attempted,
        "failures": failures,
        "err_bar_median": statistics.median(ratios) if ratios else None,
        "err_bar_count": len(ratios),
        "digests": {op.name: op.digest for op in first.ops},
        "trace_problems": trace_problems, "trace_absent": absent,
    }
    info["err_bar_calibration"] = calibration = workloads.curvature_calibration()
    if args.trace:
        layers["curves.geodesic_curvature.oracle_excess"] = calibration["max_excess"]
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name, _, _ in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls_c), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": raw_setup_s * setup_factor, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "err_bar_cover_ratio": {
                "value": 1.0 - len(calibration["misses"]) / calibration["levels"],
                "unit": "ratio"},
        }
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not trace_problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy loads: the benchmark is one process
    # with one compute thread, which is within nproc on any machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
