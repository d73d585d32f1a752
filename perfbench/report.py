#!/usr/bin/env python3
"""Print every end-to-end metric of every workload by name and unit.

    python3 perfbench/report.py                 # one run of each workload, seed 1
    python3 perfbench/report.py --runs 10       # seeds 1..10: median, quartiles, spread
    python3 perfbench/report.py --trace         # per-layer metrics of one traced run

Each run is a fresh ``perfbench/run.py`` process.  With ``--runs`` the spread
of a metric is (q3 - q1) / median over the runs, by
``statistics.quantiles(values, n=4)``, shown next to the metric's bound from
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    info = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                if ln.startswith("perfbench-info "))
    return info, json.loads(lines[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]],
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--runs", type=int, default=1, help="runs per workload")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    machine_shown = False
    for workload in names:
        runs = [run_once(workload, args.seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        if not machine_shown:
            print("machine", json.dumps(runs[0][0]["machine"], sort_keys=True))
            for miss in runs[0][0]["err_bar_calibration"]["misses"]:
                print(f"err-bar miss {miss}")
            machine_shown = True
        for info, result in runs:
            print(f"{workload} seed {info['seed']}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={info['passes']} speed_factor="
                  f"{statistics.median(info['speed_factors']):.3f} "
                  f"op_tail=p{info['tail_percentile']:.1f} "
                  f"of {info['latency_count']} ops, err_bar_median="
                  f"{info['err_bar_median']} ({info['err_bar_count']} values)")
            for failure in info["failures"] + info["trace_problems"]:
                print(f"  FAILED {failure}")
        rows = [(name, first["unit"], [r["metrics"][name]["value"] for _, r in runs])
                for name, first in runs[0][1]["metrics"].items()]
        if not args.trace:   # the uncorrected times, which are not gated
            rows += [(name, "s", [info[name] for info, _ in runs])
                     for name in ("raw_wall_s", "raw_op_p50_s", "raw_op_tail_s")]
        for name, unit, values in rows:
            med = statistics.median(values)
            line = f"  {workload:14s} {name:48s} {med:14.6g} {unit}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f"   q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
