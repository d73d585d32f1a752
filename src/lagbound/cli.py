"""Command-line interface.

Subcommands: patch, curvature, tameness, hausdorff, exactify, contract,
sasaki, classify, family, lemmas, figure.  All outputs are UTF-8 CSV with LF
line endings and a `# schema=1` header; figures are standalone SVG.

Exit codes: 0 success (classify: membership true), 1 failure / membership
false (contract: a contraction bound fails), 2 indeterminate membership,
3 runtime error, 4 configuration error (usage errors included).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .classify import (classify as classify_curve, generate_family,
                       separation_scan)
from . import sasaki as sas
from .config import (DEFAULT_GRID, ExperimentConfig, build_patch_from_spec,
                     load_config, parse_curve_spec, parse_grid)
from .curves import geodesic_curvature, tameness
from .errors import ConfigError, LagboundError
from .exactness import build_contraction, solve_c
from .hausdorff import hausdorff_distance
from .pipelines import (contraction_table, family_table, run_figure,
                        run_lemma_suite)
from .report import write_csv
from .surface import NAMED_BANDS


def _resolve_patch(name, config: ExperimentConfig):
    if name in config.patches:
        spec = dict(config.patches[name])
        spec.setdefault("name", name)
        spec.setdefault("grid", config.grid or DEFAULT_GRID)
        return build_patch_from_spec(spec)
    if name in NAMED_BANDS:
        build = NAMED_BANDS[name]
        return build(grid=config.grid) if config.grid else build()
    raise ConfigError(f"unknown patch {name!r}; choices: "
                      f"{sorted(NAMED_BANDS) + sorted(config.patches)}")


def _add_common(p, band: bool = True):
    """The shared flags; --grid and --patch only for commands with a band."""
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--out", default=None, help="output directory (default: out_dir)")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    if band:
        p.add_argument("--grid", default=None, help="patch grid, e.g. 2048x513")
        p.add_argument("--patch", default="cylinder",
                       help="patch name (default cylinder)")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 4 (configuration error);
    argparse's own code 2 means "indeterminate" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(prog="lagbound",
                 description="curvature/tameness laboratory "
                             "for curves in surface bands")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patch", help="build a patch and export its warp grid")
    _add_common(p)

    p = sub.add_parser("curvature", help="curvature report of a curve")
    _add_common(p)
    p.add_argument("--curve", required=True, help="curve spec, e.g. cos:1,2")

    p = sub.add_parser("tameness", help="tameness report of a curve")
    _add_common(p)
    p.add_argument("--curve", required=True)

    p = sub.add_parser("hausdorff", help="Hausdorff distance of two curves")
    _add_common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--curve2", required=True)

    p = sub.add_parser("exactify", help="vertical shift making a*xi exact")
    _add_common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser("contract", help="contraction path through exact graphs")
    _add_common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--n-alpha", type=int, default=11)

    p = sub.add_parser("sasaki", help="integrate bundle geodesics and export")
    _add_common(p, band=False)
    p.add_argument("--base", default="flat_torus",
                   choices=["flat_torus", "round_sphere"])
    p.add_argument("--states", type=int, default=None, help="default 4")
    p.add_argument("--horizon", type=float, default=None, help="default 10")
    p.add_argument("--step", type=float, default=None,
                   help="fixed RK4 step (default: the coarsest dyadic step "
                        "whose halving error meets the tolerance)")
    p.add_argument("--sweep", type=float, default=None, metavar="EPS",
                   help="instead export the graph-norm sweep (t, sup|B|) for "
                        "the gradient graph of amplitude EPS; takes none of "
                        "--states, --horizon and --step")

    p = sub.add_parser("classify", help="level-k membership verdict")
    _add_common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--k", type=float, required=True)

    p = sub.add_parser("family", help="generate a named family and report")
    _add_common(p, band=False)  # each family builds its own patch
    p.add_argument("family_id")
    p.add_argument("--pairwise", action="store_true",
                   help="also export the pairwise Hausdorff distance matrix")
    p.add_argument("--scan", default=None,
                   choices=["liouville_class", "enclosed_area"],
                   help="also export the separation scan table")

    p = sub.add_parser("lemmas", help="run the full check suite")
    _add_common(p)
    p.add_argument("--quick", action="store_true",
                   help="reduced suite (fast, same CSV schema)")

    p = sub.add_parser("figure", help="draw a family and its companion CSV")
    _add_common(p, band=False)
    p.add_argument("family_id")
    return ap


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        config.seed = args.seed
    if getattr(args, "grid", None):
        config.grid = parse_grid(args.grid.lower().split("x"))
    if getattr(args, "quick", False):
        config.quick = True
    if args.out is not None:
        config.out_dir = args.out
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except LagboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _require_positive(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be finite and positive, got {value}")


def _dispatch(args) -> int:
    config = _load(args)
    if args.command == "classify":
        _require_positive("--k", args.k)
    if args.command == "sasaki" and args.sweep is not None:
        given = [flag for flag, value in (("--states", args.states),
                                          ("--horizon", args.horizon),
                                          ("--step", args.step))
                 if value is not None]
        if given:
            raise ConfigError(f"--sweep takes no {', '.join(given)}")
        if not np.isfinite(args.sweep):
            raise ConfigError(f"--sweep must be a finite amplitude, "
                              f"got {args.sweep}")
    elif args.command == "sasaki":
        args.states = 4 if args.states is None else args.states
        args.horizon = 10.0 if args.horizon is None else args.horizon
        if args.step is not None:
            _require_positive("--step", args.step)
        _require_positive("--horizon", args.horizon)
        if args.states < 1:
            raise ConfigError(f"--states must be at least 1, got {args.states}")
    if args.command == "contract" and args.n_alpha < 2:
        raise ConfigError(f"--n-alpha must be at least 2, got {args.n_alpha}")
    if args.command == "exactify" and not np.isfinite(args.alpha):
        raise ConfigError(f"--alpha must be finite, got {args.alpha}")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:  # "", a file, or a path under a file
        raise ConfigError(f"cannot use output directory {config.out_dir!r}: "
                          f"{exc}") from exc
    cmd = args.command

    if cmd == "lemmas":
        results = run_lemma_suite(config)
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name} "
                  f"({len(res.rows)} rows) -> {res.csv_path}")
        return 0 if all(res.passed for res in results) else 1

    if cmd == "figure":
        svg, csv = run_figure(args.family_id, config.out_dir, config)
        print(svg)
        print(csv)
        return 0

    if cmd == "family":
        curves = generate_family(args.family_id)
        # the scan runs first, so an invariant that does not fit the band
        # writes nothing; its rows start with the pairwise table
        scan = separation_scan(curves, args.scan) if args.scan else None
        print(family_table(args.family_id, curves, config.out_dir,
                           config.seed))
        if args.pairwise:
            mat_rows = ([row[:3] for row in scan.rows] if scan else
                        [(a.name, b.name, hausdorff_distance(a, b).value)
                         for i, a in enumerate(curves) for b in curves[i + 1:]])
            print(write_csv(
                os.path.join(config.out_dir, f"{args.family_id}_pairwise.csv"),
                ["member_a", "member_b", "delta_h"], mat_rows,
                {"family": args.family_id}))
        if scan:
            print(write_csv(
                os.path.join(config.out_dir, f"{args.family_id}_scan.csv"),
                ["member_a", "member_b", "delta_h", "invariant_gap"],
                scan.rows,
                {"family": args.family_id, "invariant": args.scan,
                 "a_emp": scan.a_emp if scan.a_emp is not None else "none"}))
        return 0

    if cmd == "sasaki":
        base = sas.base_manifold(args.base)
        if args.sweep is not None:
            gg = (sas.torus_gradient_graph(args.sweep)
                  if args.base == "flat_torus"
                  else sas.sphere_harmonic_graph(args.sweep))
            t_grid = np.linspace(0.0, 1.0, 11)
            vals = sas.curvature_sweep(base, gg, t_grid)
            path = write_csv(
                os.path.join(config.out_dir, f"sweep_{args.base}.csv"),
                ["t", "sup_norm"], list(zip(t_grid, vals)),
                {"base": args.base, "amplitude": args.sweep})
            print(path)
            return 0
        rng = np.random.default_rng(config.seed)
        states = sas.random_sasaki_states(base, args.states, rng)
        traj = sas.sasaki_geodesic(
            base, states, horizon=args.horizon,
            step=np.inf if args.step is None else args.step)
        fit = sas.parabola_check(traj)
        rows = []
        for b in range(len(states)):
            for i, t in enumerate(traj.times):
                rows.append((b, t, *traj.x[i, b], *traj.y[i, b],
                             traj.y_norm2[i, b]))
        path = write_csv(os.path.join(config.out_dir, f"sasaki_{args.base}.csv"),
                         ["state", "t", "x1", "x2", "y1", "y2", "y_norm2"],
                         rows, {"base": args.base, "seed": config.seed,
                                "step": traj.step,
                                "halving_error": traj.halving_error})
        print(path)
        print(f"max parabola residual {np.max(fit.max_residual):.3e}, "
              f"max leading gap "
              f"{np.max(np.abs(fit.leading - fit.expected_leading)):.3e}")
        return 0

    patch = _resolve_patch(args.patch, config)

    if cmd == "patch":
        path = os.path.join(config.out_dir, f"warp_{args.patch}.csv")
        patch.export_warp_csv(path)
        print(path)
        return 0

    curve = parse_curve_spec(args.curve, patch)

    if cmd == "curvature":
        rep = geodesic_curvature(curve)
        path = write_csv(os.path.join(config.out_dir, "curvature.csv"),
                         ["curve", "sup", "arg_s", "error"],
                         [(curve.name, rep.sup, rep.arg_s, rep.error)],
                         {"patch": args.patch})
        print(f"sup|B| = {rep.sup:.12g} at s = {rep.arg_s:.6g} "
              f"(err {rep.error:.2e}) -> {path}")
        return 0

    if cmd == "tameness":
        rep = tameness(curve)
        path = write_csv(os.path.join(config.out_dir, "tameness.csv"),
                         ["curve", "epsilon", "long_range_min",
                          "short_range_bound", "delta_min", "pair_s",
                          "pair_s2", "error"],
                         [(curve.name, rep.epsilon, rep.long_range_min,
                           rep.short_range_bound, rep.delta_min, rep.pair[0],
                           rep.pair[1], rep.error)], {"patch": args.patch})
        print(f"epsilon = {rep.epsilon:.9g} (err {rep.error:.2e}) -> {path}")
        return 0

    if cmd == "hausdorff":
        other = parse_curve_spec(args.curve2, patch)
        res = hausdorff_distance(curve, other)
        path = write_csv(os.path.join(config.out_dir, "hausdorff.csv"),
                         ["curve_a", "curve_b", "delta_h", "directed_ab",
                          "directed_ba", "error"],
                         [(curve.name, other.name, res.value, res.directed_ab,
                           res.directed_ba, res.error)], {"patch": args.patch})
        print(f"delta_H = {res.value:.9g} (err {res.error:.2e}) -> {path}")
        return 0

    if cmd == "exactify":
        c = solve_c(curve, args.alpha)
        print(f"c({args.alpha:g}) = {c:.15g}")
        write_csv(os.path.join(config.out_dir, "exactify.csv"),
                  ["curve", "alpha", "c"], [(curve.name, args.alpha, c)],
                  {"patch": args.patch})
        return 0

    if cmd == "contract":
        rows, chk = contraction_table(
            build_contraction(curve, n_alpha=args.n_alpha), config)
        path = write_csv(os.path.join(config.out_dir, "contract.csv"),
                         ["alpha", "c", "sup_curvature", "epsilon",
                          "delta_h_to_base"], rows, {"patch": args.patch,
                                                     "curve": curve.name})
        print(path)
        tol_b = config.tolerances["contraction_curvature"]
        tol_e = config.tolerances["contraction_tameness"]
        print(f"curvature bound: max {chk.max_curvature:.9g} <= "
              f"{chk.curvature_bound:.9g} + {tol_b:g}  "
              f"({'ok' if chk.curvature_ok else 'FAIL'})")
        print(f"tameness bound:  min {chk.min_tameness:.9g} >= "
              f"{chk.tameness_bound:.9g} - {tol_e:g}  "
              f"({'ok' if chk.tameness_ok else 'FAIL'})")
        return 0 if chk.ok else 1

    # classify, the one command left
    verdict = classify_curve(curve, args.k)
    label = {True: "member", False: "not_member", None: "indeterminate"}
    write_csv(os.path.join(config.out_dir, "classify.csv"),
              ["curve", "k", "verdict", "curvature", "epsilon",
               "curvature_margin", "tameness_margin",
               "containment_margin"],
              [(curve.name, args.k, label[verdict.verdict],
                verdict.curvature, verdict.epsilon,
                verdict.margins["curvature"][0],
                verdict.margins["tameness"][0],
                verdict.margins["containment"][0])],
              {"patch": args.patch})
    print(f"{curve.name} at k={args.k:g}: {label[verdict.verdict]}")
    return {True: 0, False: 1, None: 2}[verdict.verdict]


if __name__ == "__main__":
    sys.exit(main())
