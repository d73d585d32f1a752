"""Experiment pipelines: the lemma-check suite, the tables and drawing of a
named family, and the table of a contraction path.

Each suite check writes one CSV (pass/fail per row with margins and witness
data) into the output directory.  A check passes when every row's `pass` is
true, and the suite fails, for the process exit code, when any check does.
All randomness flows from the config seed, so a fixed seed reproduces the CSV
bundle byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .classify import LADDER_SCALES, min_level, separation_scan
from . import sasaki as sas
from .config import DEFAULT_GRID, ExperimentConfig
from .curves import Curve, geodesic_curvature, tameness, tameness_comparison_check, trig_curve
from .exactness import (BoundsCheck, ContractionPath, _area_batch,
                        area_functional, build_contraction,
                        contraction_bounds_check, isotopy_invariant,
                        shift_gaps, shifted_curve, solve_c_grid)
from .hausdorff import contraction_path_bound_check, hausdorff_distance, radial_path_check
from .numerics import loglog_slope
from .report import write_csv, write_curves_svg
from .surface import NAMED_BANDS, warp_taylor_check

__all__ = ["run_lemma_suite", "family_table",
           "contraction_table", "CheckResult"]


@dataclass
class CheckResult:
    """One check's CSV: rows end with their pass flag."""

    name: str
    columns: list
    rows: list
    meta: dict
    csv_path: str | None = None

    @property
    def passed(self) -> bool:
        return all(row[-1] for row in self.rows)


def _suite_params(config: ExperimentConfig) -> dict:
    if config.quick:
        return dict(grid=config.grid or (512, 129), n_xi=3, n_alpha=21,
                    members=1, alpha_steps=7, states=4, horizon=4.0,
                    n_theta=240, t_steps=6, pairs=4, n_scan_flat=384,
                    samples=700)  # 700 on the sphere, 26^2 = 676 on the torus
    return dict(grid=config.grid or DEFAULT_GRID, n_xi=10, n_alpha=101,
                members=3, alpha_steps=11, states=25, horizon=10.0,
                n_theta=720, t_steps=11, pairs=10, n_scan_flat=512,
                samples=1600)  # 1600 on both bases: 40^2 on the torus


def _suite_patches(params) -> dict:
    return {name: NAMED_BANDS[name](grid=params["grid"])
            for name in ("flat_cylinder", "plane_circle", "sphere_equator",
                         "hyperbolic_band")}


def _random_trig(patch, rng, sup_target, name="xi"):
    """Graph of three random modes from 1..8 with sup |xi| = sup_target."""
    modes = rng.choice(np.arange(1, 9), size=3, replace=False)
    cos_amps, sin_amps = {}, {}
    for m in modes:
        cos_amps[int(m)] = rng.normal()
        sin_amps[int(m)] = rng.normal()
    # pre-normalize by the coefficient sum so the probe stays inside the band
    total = sum(abs(v) for v in cos_amps.values()) \
        + sum(abs(v) for v in sin_amps.values())
    cos_amps = {m: a * sup_target / total for m, a in cos_amps.items()}
    sin_amps = {m: a * sup_target / total for m, a in sin_amps.items()}
    probe = trig_curve(patch, cos_amps, sin_amps, n=512)
    scale = sup_target / probe.sup_norm()
    cos_amps = {m: a * scale for m, a in cos_amps.items()}
    sin_amps = {m: a * scale for m, a in sin_amps.items()}
    # sample on the patch grid so area evaluations skip resampling
    return trig_curve(patch, cos_amps, sin_amps, n=patch.n_s, name=name)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_warp_taylor(config, params, patches, rng):
    rows = []
    tol = config.tolerances["taylor_order"]
    for name, patch in patches.items():
        for s in (0.0, 1.234, 3.7):
            fit = warp_taylor_check(patch, s)
            coeff_gap = float(np.max(np.abs(np.subtract(fit.coefficients,
                                                        fit.expected))))
            rows.append((name, s, *fit.coefficients, *fit.expected,
                         fit.remainder_order, coeff_gap,
                         fit.remainder_order >= tol and coeff_gap <= 1e-6))
    return CheckResult("warp_taylor",
                       ["patch", "s", "c0", "c1", "c2", "e0", "e1", "e2",
                        "remainder_order", "coeff_gap", "pass"],
                       rows, {"tol_order": tol})


def _check_exact_shift(config, params, patches, rng):
    rows = []
    tol_area = config.tolerances["area_residual"]
    slack = config.tolerances["lipschitz_slack"]
    alphas = np.linspace(0.0, 1.0, params["n_alpha"])
    for pname in ("flat_cylinder", "sphere_equator"):
        patch = patches[pname]
        for i in range(params["n_xi"]):
            sup_target = (patch.halfwidth / 3.0) * rng.uniform(0.3, 0.95)
            offset = rng.uniform(-0.2, 0.2) * sup_target
            xi = _random_trig(patch, rng, sup_target, name=f"xi{i}")
            xi = shifted_curve(xi, offset, name=f"xi{i}")
            if xi.sup_norm() >= patch.halfwidth / 3:
                xi = shifted_curve(xi, 0.0, scale=0.9, name=xi.name)
            c_vals = solve_c_grid(xi, alphas)
            resid = _area_batch(patch, alphas[:, None] * xi.xi + c_vals[:, None])
            bracket_gap, lip_gap = shift_gaps(xi, alphas, c_vals)
            max_resid = float(np.max(np.abs(resid)))
            rows.append((pname, xi.name, max_resid, bracket_gap, lip_gap,
                         max_resid <= tol_area and bracket_gap <= 1e-12
                         and lip_gap <= slack))
    return CheckResult("exact_shift",
                       ["patch", "xi", "max_area_residual", "bracket_gap",
                        "lipschitz_gap", "pass"],
                       rows, {"tol_area": tol_area, "lipschitz_slack": slack})


def _contraction_bounds(path: ContractionPath,
                        config: ExperimentConfig) -> BoundsCheck:
    """The contraction bounds of the suite and of `contract`: k = |B| of the
    base curve, k' = k + 0.1, at the config's two contraction tolerances."""
    k = geodesic_curvature(Curve.constant(path.patch, 0.0, n=512),
                           _with_error=False).sup
    tol = config.tolerances
    return contraction_bounds_check(path, k, k + 0.1,
                                    tol["contraction_curvature"],
                                    tol["contraction_tameness"])


def _contraction_suite(config, params, patches, rng):
    """Shared runner behind the contraction curvature/tameness checks."""
    tol_b = config.tolerances["contraction_curvature"]
    tol_e = config.tolerances["contraction_tameness"]
    curv_rows, tame_rows = [], []
    for pname in ("flat_cylinder", "plane_circle", "sphere_equator"):
        patch = patches[pname]
        for i in range(params["members"]):
            xi = _random_trig(patch, rng, sup_target=0.05 * rng.uniform(0.5, 1.0),
                              name=f"{pname}_xi{i}")
            chk = _contraction_bounds(
                build_contraction(xi, n_alpha=params["alpha_steps"]), config)
            curv_rows.append((pname, xi.name, chk.max_curvature,
                              chk.curvature_bound,
                              chk.curvature_bound + tol_b - chk.max_curvature,
                              chk.curvature_ok))
            tame_rows.append((pname, xi.name, chk.min_tameness,
                              chk.tameness_bound,
                              chk.min_tameness - chk.tameness_bound + tol_e,
                              chk.tameness_ok))
    cols_c = ["patch", "xi", "max_curvature", "bound", "margin", "pass"]
    cols_t = ["patch", "xi", "min_tameness", "bound", "margin", "pass"]
    return (CheckResult("contraction_curvature", cols_c, curv_rows,
                        {"tol": tol_b}),
            CheckResult("contraction_tameness", cols_t, tame_rows,
                        {"tol": tol_e}))


def _check_graph_sandwich(config, params, patches, rng):
    rows = []
    graphs = {"flat_torus": sas.torus_gradient_graph(1.0),
              "round_sphere": sas.sphere_harmonic_graph(1.0)}
    amps = (0.4, 0.2, 0.1, 0.05, 0.025)
    for bname, gg in graphs.items():
        base = gg.base
        eps_prev = 0.0
        for amp in amps:
            rep = sas.graph_tameness_bounds(base, gg.with_amplitude(amp),
                                            n_pairs=params["pairs"] * 10,
                                            seed=config.seed + 11)
            monotone = rep.eps_lower >= eps_prev - 1e-12
            eps_prev = rep.eps_lower
            rows.append((bname, amp, rep.eps_lower, rep.max_lower_violation,
                         rep.max_upper_violation, monotone, rep.ok and monotone))
    return CheckResult("graph_sandwich",
                       ["base", "amplitude", "eps_lower", "lower_violation",
                        "upper_violation", "monotone", "pass"],
                       rows, {})


def _check_monotone(config, params, patches, rng):
    tol = config.tolerances["monotonicity"]
    rows = []
    suite = [("flat_torus", sas.torus_gradient_graph(0.01)),
             ("flat_torus", sas.torus_gradient_graph(0.02, mode=2)),
             ("round_sphere", sas.sphere_harmonic_graph(0.01))]
    t_grid = np.linspace(0.0, 1.0, params["t_steps"])
    for bname, gg in suite:
        vals = sas.curvature_sweep(gg.base, gg, t_grid,
                                   n_theta=params["n_theta"],
                                   samples=params["samples"])
        worst = float(np.min(np.diff(vals)))
        rows.append((bname, gg.name, vals[0], vals[-1], worst, worst >= -tol))
    return CheckResult("graph_curvature_monotone",
                       ["base", "graph", "norm_at_0", "norm_at_1",
                        "min_step_increment", "pass"],
                       rows, {"tol": tol})


def _check_parabola(config, params, patches, rng):
    tol = config.tolerances["parabola_residual"]
    rows = []
    for bname in ("flat_torus", "round_sphere"):
        base = sas.base_manifold(bname)
        states = sas.random_sasaki_states(base, params["states"], rng)
        traj = sas.sasaki_geodesic(base, states, horizon=params["horizon"])
        fit = sas.parabola_check(traj)
        z_const = float(np.max(np.abs(traj.z_norm2 - traj.z_norm2[:1])))
        for b in range(len(states)):
            lead_err = abs(fit.leading[b] - fit.expected_leading[b])
            rows.append((bname, b, fit.max_residual[b], fit.leading[b],
                         fit.expected_leading[b], lead_err, z_const, traj.step,
                         traj.halving_error,
                         fit.max_residual[b] <= tol and lead_err <= tol))
    return CheckResult("fiber_norm_parabola",
                       ["base", "state", "fit_residual", "leading",
                        "expected_leading", "leading_gap", "z_norm_drift",
                        "step", "halving_error", "pass"],
                       rows, {"tol": tol})


def _check_conformal(config, params, patches, rng):
    tol = config.tolerances["comparison"]
    patch = patches["flat_cylinder"]
    r = patch.halfwidth
    curve = trig_curve(patch, {2: 0.3}, name="cos2_0.3")
    cases = [
        ("identity", lambda s, t: 0.0 * s, 1.0),
        ("sin_bump", lambda s, t: 0.1 * np.sin(s) * np.sin(np.pi * t / r),
         float(np.exp(0.2))),
        ("scaling", lambda s, t: 0.0 * s + np.log(1.2), 1.44),
    ]
    rows = []
    for name, phi, c_dist in cases:
        chk = tameness_comparison_check(curve, phi, c_dist, tol=tol,
                                        n_scan=params["n_scan_flat"] // 2)
        rows.append((name, c_dist, chk.epsilon, chk.epsilon_prime,
                     chk.lower_bound, chk.ok))
    return CheckResult("conformal_tameness",
                       ["case", "C", "epsilon", "epsilon_prime", "bound",
                        "pass"],
                       rows, {"tol": tol})


def _check_radial(config, params, patches, rng):
    factor = config.tolerances["radial_factor"]
    rows = []
    sections = {
        "flat_cylinder": trig_curve(patches["flat_cylinder"], {1: 0.45},
                                    name="sec_cyl"),
        "sphere_equator": trig_curve(patches["sphere_equator"], {1: 0.2},
                                     {2: 0.1}, name="sec_sph"),
    }
    for pname, sec in sections.items():
        pairs = [(float(t), float(s))
                 for t, s in rng.uniform(0.0, 1.0, size=(params["pairs"], 2))]
        rows += [(pname, *row)
                 for row in radial_path_check(sec, pairs, tol_factor=factor)]
    return CheckResult("radial_hausdorff",
                       ["patch", "t", "s", "measured", "expected", "residual",
                        "tolerance", "pass"],
                       rows, {"tol_factor": factor})


def _check_contraction_hausdorff(config, params, patches, rng):
    patch = patches["flat_cylinder"]
    xi = _random_trig(patch, rng, sup_target=0.3, name="xi_h")
    path = build_contraction(xi, n_alpha=params["alpha_steps"])
    return CheckResult("contraction_hausdorff",
                       ["alpha", "alpha_prime", "delta_h", "bound", "gap",
                        "pass"],
                       contraction_path_bound_check(path), {})


_CHECK_FUNCS = {
    "warp_taylor": _check_warp_taylor,
    "exact_shift": _check_exact_shift,
    "graph_sandwich": _check_graph_sandwich,
    "graph_curvature_monotone": _check_monotone,
    "fiber_norm_parabola": _check_parabola,
    "conformal_tameness": _check_conformal,
    "radial_hausdorff": _check_radial,
    "contraction_hausdorff": _check_contraction_hausdorff,
}


def run_lemma_suite(config: ExperimentConfig) -> list:
    """Run every enabled check, write one CSV per check and return the
    checks' CheckResults."""
    params = _suite_params(config)
    patches = _suite_patches(params)
    wanted = [name for name, on in config.checks.items() if on]
    results = [_CHECK_FUNCS[name](config, params, patches,
                                  np.random.default_rng([config.seed, idx]))
               for idx, name in enumerate(sorted(_CHECK_FUNCS)) if name in wanted]
    if "contraction_curvature" in wanted or "contraction_tameness" in wanted:
        pair = _contraction_suite(config, params, patches,
                                  np.random.default_rng([config.seed, 99]))
        results += [res for res in pair if res.name in wanted]

    for res in results:
        res.meta = {**res.meta, "seed": config.seed}
        res.csv_path = write_csv(os.path.join(config.out_dir, f"{res.name}.csv"),
                                 res.columns, res.rows, res.meta)
    return results


# ---------------------------------------------------------------------------
# family and contraction tables
# ---------------------------------------------------------------------------

def contraction_table(path: ContractionPath,
                      config: ExperimentConfig) -> tuple[list, BoundsCheck]:
    """Rows (alpha, c, sup|B|, epsilon, delta_H to the base curve) of a
    contraction path, and its bounds check with k = |B| of the base curve
    and k' = k + 0.1 at the suite's tolerances, as in the lemma suite."""
    chk = _contraction_bounds(path, config)
    base = Curve.constant(path.patch, 0.0, n=path.curves[0].n)
    rows = [(a, c, curv, eps, hausdorff_distance(cv, base).value)
            for a, c, curv, eps, cv in zip(path.alphas, path.c, chk.curvatures,
                                           chk.tameness_values, path.curves)]
    return rows, chk


def family_table(family_id: str, curves: list, out_dir: str,
                 pairwise: bool = False, scan: str | None = None) -> tuple:
    """Write `<family_id>.csv` for the family's curves: per member sup|B|,
    epsilon, delta_H to the base curve, the action class and the smallest
    admitting level (`classify.min_level`, empty when none).  The oscillation
    ladders add the scale s, sup|xi| and sup|xi'|, and record the log-log
    slope of sup|B| against s as `curvature_slope` in the meta;
    plane_circles adds the enclosed area and its monotonicity constant.
    Beside it, draw the family in band coordinates as `<family_id>.svg`.
    `pairwise` adds `<family_id>_pairwise.csv`, delta_H of each pair; `scan`,
    an `isotopy_invariant` kind, adds `<family_id>_scan.csv`, its
    `separation_scan`, which runs first: a kind that does not fit the band
    writes no file.  Returns the paths in the order written."""
    scanned = separation_scan(curves, scan) if scan else None
    patch = curves[0].patch
    base = Curve.constant(patch, 0.0, n=curves[0].n)
    columns = ["member", "sup_curvature", "epsilon", "delta_h_to_base",
               "action_class", "min_level"]
    rows = [[cv.name, trep.curvature.sup, trep.epsilon,
             hausdorff_distance(cv, base).value, area_functional(cv),
             min_level(cv, trep)]
            for cv, trep in zip(curves, map(tameness, curves))]
    meta = {"family": family_id}
    title = family_id
    panels = [[(cv.name, cv.s[::16], cv.xi[::16]) for cv in curves]]
    if family_id == "escape_cos":
        title = "escape family in band coordinates"
        panels = [[("base", base.s[::8], base.xi[::8]),
                   (cv.name, cv.s[::4], cv.xi[::4])]
                  for cv in (curves[1], curves[9])]
    elif family_id in ("hs_family", "hs_variant_alpha"):
        title = f"{family_id}: oscillation ladder"
        columns += ["s", "sup_xi", "sup_dxi"]
        for row, cv, s_val in zip(rows, curves, LADDER_SCALES):
            row += [s_val, cv.sup_norm(), float(np.max(np.abs(cv.dxi)))]
        meta["curvature_slope"] = loglog_slope(LADDER_SCALES,
                                               [row[1] for row in rows])
        panels = [[(cv.name, cv.s[::max(1, cv.n // 1024)],
                    cv.xi[::max(1, cv.n // 1024)])] for cv in curves[:3]]
    elif family_id == "plane_circles":
        title = "circles in the plane (band coordinates)"
        columns += ["enclosed_area", "monotonicity_constant"]
        for row, cv in zip(rows, curves):
            inv = isotopy_invariant(cv, "enclosed_area")
            row += [inv.value, inv.monotonicity_constant]
    stem = os.path.join(out_dir, family_id)
    paths = [write_csv(f"{stem}.csv", columns, rows, meta),
             write_curves_svg(f"{stem}.svg", panels, patch.length,
                              patch.halfwidth, title=title)]
    if pairwise:
        pairs = ([row[:3] for row in scanned.rows] if scanned else
                 [(a.name, b.name, hausdorff_distance(a, b).value)
                  for i, a in enumerate(curves) for b in curves[i + 1:]])
        paths.append(write_csv(f"{stem}_pairwise.csv",
                               ["member_a", "member_b", "delta_h"], pairs,
                               {"family": family_id}))
    if scanned:
        paths.append(write_csv(
            f"{stem}_scan.csv",
            ["member_a", "member_b", "delta_h", "invariant_gap"], scanned.rows,
            {"family": family_id, "invariant": scan, "a_emp":
             scanned.a_emp if scanned.a_emp is not None else "none"}))
    return tuple(paths)
