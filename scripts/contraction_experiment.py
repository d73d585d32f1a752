#!/usr/bin/env python3
"""Contract a graph to the base curve through exact graphs on the sphere band.

For each scale a on the grid, the unique vertical shift c(a) restores
exactness of a*xi + c(a); along the path the curvature stays below
max(k', curvature at a=1) and the tameness constant above the endpoint
minimum.  Exports the path table (a, c, curvature, tameness, distance).
"""

import argparse
import os


from lagbound.curves import trig_curve
from lagbound.exactness import build_contraction, contraction_bounds_check
from lagbound.pipelines import bound_table
from lagbound.report import write_csv
from lagbound.surface import sphere_band


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/contraction")
    ap.add_argument("--n-alpha", type=int, default=21)
    args = ap.parse_args()

    patch = sphere_band(halfwidth=0.6, grid=(1024, 257))
    xi = trig_curve(patch, {1: 0.08, 2: 0.06}, offset=0.04, n=1024)
    path = build_contraction(patch, xi, n_alpha=args.n_alpha)
    rows = [(a, c, *bounds)
            for a, c, bounds in zip(path.alphas, path.c, bound_table(path.curves))]
    csv = write_csv(os.path.join(args.out, "contraction_path.csv"),
                    ["alpha", "c", "sup_curvature", "epsilon",
                     "delta_h_to_base"], rows, {"patch": "sphere_equator"})
    print(f"path table {csv}")

    chk = contraction_bounds_check(path, k=0.0, k_prime=0.1)
    print(f"curvature bound: max {chk.max_curvature:.6f} <= "
          f"{chk.curvature_bound:.6f}  ({'ok' if chk.curvature_ok else 'FAIL'})")
    print(f"tameness bound:  min {chk.min_tameness:.6f} >= "
          f"{chk.tameness_bound:.6f} - 5e-3  "
          f"({'ok' if chk.tameness_ok else 'FAIL'})")


if __name__ == "__main__":
    main()
