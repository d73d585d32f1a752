"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them) and asserts its
runtime budget.  Patches are session-scoped so a criterion's budget covers its
own computations, not repeated grid construction; the patch-construction cost
is charged to the first criterion that uses each patch via fresh builds there.
"""

import time

import numpy as np
import pytest

from lagbound.classify import default_cylinder, generate_family, separation_scan
from lagbound.cli import main as cli_main
from lagbound.curves import (Curve, geodesic_curvature, tameness,
                             tameness_comparison_check, trig_curve)
from lagbound.exactness import (area_functional, build_contraction,
                                contraction_bounds_check, isotopy_invariant,
                                solve_c_grid)
from lagbound.hausdorff import hausdorff_distance, radial_path_check
from lagbound.sasaki import (base_manifold, curvature_sweep,
                             graph_tameness_bounds, parabola_check,
                             random_sasaki_states, sasaki_geodesic,
                             sphere_harmonic_graph, torus_gradient_graph)
from lagbound.surface import (flat_cylinder, hyperbolic_band, plane_annulus,
                              sphere_band, warp_taylor_check)

SEED = 0


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(num, timer, detail):
    print(f"[PASS] criterion {num:2d} ({timer.elapsed:6.1f} s / "
          f"limit {timer.limit:g} s): {detail}")
    assert timer.elapsed < timer.limit


@pytest.fixture(scope="module")
def cyl():
    return flat_cylinder(halfwidth=1.5, grid=(512, 129))


@pytest.fixture(scope="module")
def sphere():
    return sphere_band(halfwidth=0.6, grid=(512, 129))


@pytest.fixture(scope="module")
def plane():
    return plane_annulus(circle_radius=2.0, halfwidth=1.0, grid=(512, 129))


def _random_small_graph(patch, rng, sup_target, max_mode=8):
    modes = rng.choice(np.arange(1, max_mode + 1), size=3, replace=False)
    amps = rng.normal(size=3)
    amps *= sup_target / np.sum(np.abs(amps))
    cos_amps = {int(m): float(a) for m, a in zip(modes, amps)}
    probe = trig_curve(patch, cos_amps, n=512)
    scale = sup_target / probe.sup_norm()
    # sample on the patch grid so area evaluations skip resampling
    return trig_curve(patch, {m: a * scale for m, a in cos_amps.items()},
                      n=patch.n_s)


def test_criterion_01_jacobi_taylor():
    with _Timer(5.0) as tm:
        grids = {
            "flat_cylinder": flat_cylinder(halfwidth=1.5, grid=(256, 65)),
            "plane_circle": plane_annulus(halfwidth=1.0, grid=(256, 65)),
            "sphere_equator": sphere_band(halfwidth=0.6, grid=(256, 65)),
            "hyperbolic_band": hyperbolic_band(halfwidth=0.6, grid=(256, 65)),
        }
        orders = {}
        for name, patch in grids.items():
            fit = warp_taylor_check(patch, 0.9)
            assert np.allclose(fit.coefficients, fit.expected, atol=1e-8)
            assert fit.remainder_order >= 2.9
            orders[name] = fit.remainder_order
    _report(1, tm, f"remainder orders {[f'{v:.2f}' for v in orders.values()]}")


def test_criterion_02_graph_curvature_closed_forms():
    with _Timer(5.0) as tm:
        patch = flat_cylinder(halfwidth=2.0, grid=(512, 65))
        worst = 0.0
        for a in (0.1, 1.0):
            for m in range(1, 11):
                rep = geodesic_curvature(trig_curve(patch, {m: a}, n=2048))
                rel = abs(rep.sup - a * m * m) / (a * m * m)
                worst = max(worst, rel)
                assert rel <= 1e-8
    _report(2, tm, f"max relative error {worst:.2e} over 20 curves")


def test_criterion_03_radial_hausdorff_identity(cyl, sphere):
    rng = np.random.default_rng(SEED)
    with _Timer(60.0) as tm:
        sections = [trig_curve(cyl, {1: 0.45}, n=1024, name="cyl_sec"),
                    trig_curve(sphere, {1: 0.2}, {2: 0.1}, n=512,
                               name="sph_sec")]
        n_rows = 0
        worst = 0.0
        for sec in sections:
            pairs = [tuple(map(float, p))
                     for p in rng.uniform(0.0, 1.0, size=(10, 2))]
            rows = radial_path_check(sec, pairs, tol_factor=2.0)
            for _, _, _, _, residual, tol, passed in rows:
                assert residual <= tol and passed
                worst = max(worst, residual)
            n_rows += len(rows)
        assert n_rows == 20
    _report(3, tm, f"20 scale pairs on two patches, max residual {worst:.2e}")


def test_criterion_04_exactness_shift_contract(cyl, sphere):
    rng = np.random.default_rng(SEED)
    alphas = np.linspace(0.0, 1.0, 101)
    with _Timer(30.0) as tm:
        worst_resid = worst_bracket = worst_lip = -np.inf
        for patch in (cyl, sphere):
            for _ in range(5):
                sup_target = (patch.halfwidth / 3.0) * rng.uniform(0.3, 0.95)
                xi = _random_small_graph(patch, rng, sup_target, max_mode=6)
                sup = xi.sup_norm()
                c_vals = solve_c_grid(xi, alphas)
                resid = max(abs(area_functional(
                    Curve(patch, a * xi.xi + c, a * xi.dxi, a * xi.d2xi)))
                    for a, c in zip(alphas, c_vals))
                assert resid <= 1e-12
                bracket = float(np.max(np.abs(c_vals) - alphas * sup))
                assert bracket <= 0.0
                dc = np.abs(c_vals[:, None] - c_vals[None, :])
                da = np.abs(alphas[:, None] - alphas[None, :])
                lip = float(np.max(dc - sup * da))
                assert lip <= 1e-11
                worst_resid = max(worst_resid, resid)
                worst_bracket = max(worst_bracket, bracket)
                worst_lip = max(worst_lip, lip)
    _report(4, tm, f"10 graphs x 101 shifts: max|A|={worst_resid:.1e}, "
                   f"bracket margin {worst_bracket:.1e}, "
                   f"Lipschitz margin {worst_lip:.1e}")


def test_criterion_05_contraction_bounds(cyl, plane, sphere):
    rng = np.random.default_rng(SEED)
    with _Timer(300.0) as tm:
        details = []
        for patch in (cyl, plane, sphere):
            k_base = geodesic_curvature(Curve.constant(patch, 0.0, n=512),
                                        _with_error=False).sup
            for _ in range(3):
                xi = _random_small_graph(patch, rng,
                                         sup_target=0.05 * rng.uniform(0.5, 1.0))
                path = build_contraction(xi, n_alpha=11)
                chk = contraction_bounds_check(path, k=k_base,
                                               k_prime=k_base + 0.1,
                                               tol_curv=1e-6, tol_eps=5e-3)
                assert chk.curvature_ok, (patch.base.name, chk.max_curvature,
                                          chk.curvature_bound)
                assert chk.tameness_ok, (patch.base.name, chk.min_tameness,
                                         chk.tameness_bound)
                details.append(chk.min_tameness - chk.tameness_bound)
        worst = min(details)
    _report(5, tm, f"9 paths x 11 scales, worst tameness margin {worst:+.2e}")


def test_criterion_06_fiber_norm_parabola():
    rng = np.random.default_rng(SEED)
    with _Timer(60.0) as tm:
        worst_resid = worst_lead = 0.0
        for name, step in (("flat_torus", 1e-2), ("round_sphere", 1e-3)):
            base = base_manifold(name)
            states = random_sasaki_states(base, 25, rng)
            traj = sasaki_geodesic(base, states, horizon=10.0, step=step)
            fit = parabola_check(traj)
            assert np.max(fit.max_residual) <= 1e-6
            lead = np.max(np.abs(fit.leading - fit.expected_leading))
            assert lead <= 1e-6
            worst_resid = max(worst_resid, float(np.max(fit.max_residual)))
            worst_lead = max(worst_lead, float(lead))
    _report(6, tm, f"2 x 25 states, T=10: residual {worst_resid:.1e}, "
                   f"leading gap {worst_lead:.1e}")


def test_criterion_07_gradient_graph_monotonicity():
    with _Timer(120.0) as tm:
        suite = [torus_gradient_graph(0.01), torus_gradient_graph(0.02, mode=2),
                 sphere_harmonic_graph(0.01), sphere_harmonic_graph(0.005)]
        t_grid = np.linspace(0.0, 1.0, 11)
        worst = np.inf
        for gg in suite:
            vals = curvature_sweep(gg.base, gg, t_grid, n_theta=720,
                                   samples=1600)
            inc = float(np.min(np.diff(vals)))
            assert inc >= -1e-8
            worst = min(worst, inc)
    _report(7, tm, f"4 graphs x 11 scales, min increment {worst:+.2e}")


def test_criterion_08_tameness_limits(cyl):
    with _Timer(120.0) as tm:
        ladder = (0.4, 0.2, 0.1, 0.05, 0.025)
        eps = [tameness(trig_curve(cyl, {1: a}, n=2048)).epsilon
               for a in ladder]
        for e1, e2 in zip(eps, eps[1:]):
            assert e2 >= e1 - 5e-3
        assert eps[-1] > 0.99

        # length sandwich on sampled pairs of the steepest ladder member
        curve = trig_curve(cyl, {1: 0.4}, n=2048)
        idx = np.arange(0, curve.n, 8)
        cum = curve.cum_length()[idx]
        total = curve.total_length()
        diff = np.abs(cum[:, None] - cum[None, :])
        d_xi = np.minimum(diff, total - diff)
        darc = np.abs(curve.s[idx][:, None] - curve.s[idx][None, :])
        d_l = np.minimum(darc, cyl.length - darc)
        bound = np.sqrt(1.0 + np.max(np.abs(curve.dxi)) ** 2)
        assert np.all(d_l <= d_xi + 1e-10)
        assert np.all(d_xi <= bound * d_l + 1e-10)

        # bundle-graph counterpart: scaling a gradient graph toward zero
        gg = torus_gradient_graph(1.0)
        eps_b = [graph_tameness_bounds(gg.base, gg.with_amplitude(a),
                                       n_pairs=100).eps_lower for a in ladder]
        for e1, e2 in zip(eps_b, eps_b[1:]):
            assert e2 >= e1 - 5e-3
        assert eps_b[-1] > 0.99
    _report(8, tm, f"band ladder {np.round(eps, 5).tolist()}, "
                   f"bundle ladder tail {eps_b[-1]:.5f}")


def test_criterion_09_escape_and_oscillation_families():
    with _Timer(120.0) as tm:
        patch = default_cylinder()
        base = Curve.constant(patch, 0.0, n=2048)
        escape = generate_family("escape_cos")
        for m, curve in enumerate(escape, start=1):
            rep = geodesic_curvature(curve)
            assert rep.sup == pytest.approx(m * m, rel=1e-10)
            res = hausdorff_distance(curve, base)
            assert 0.9 <= res.value <= 1.0 + res.error

        s_vals = np.array([2.0 ** (-j) for j in range(7, 15)])
        hs = generate_family("hs_family")
        sups = [geodesic_curvature(c, _with_error=False).sup for c in hs]
        slope = float(np.polyfit(np.log(s_vals), np.log(sups), 1)[0])
        assert slope == pytest.approx(-1.5, abs=0.1)

        var = generate_family("hs_variant_alpha")
        sups_v = [geodesic_curvature(c, _with_error=False).sup for c in var]
        slope_v = float(np.polyfit(np.log(s_vals), np.log(sups_v), 1)[0])
        assert slope_v == pytest.approx(-0.5, abs=0.1)
        d1 = [float(np.max(np.abs(c.dxi))) for c in var]
        assert all(b < a for a, b in zip(d1, d1[1:]))
        assert d1[-1] < 0.1
    _report(9, tm, f"escape family at distance 1; ladder slopes "
                   f"{slope:.3f} / {slope_v:.3f}")


def test_criterion_10_conformal_comparison(cyl):
    with _Timer(120.0) as tm:
        curve = trig_curve(cyl, {2: 0.3}, n=2048)
        r = cyl.halfwidth
        cases = [
            ("identity", lambda s, t: 0.0 * s, 1.0),
            ("sin_bump", lambda s, t: 0.1 * np.sin(s) * np.sin(np.pi * t / r),
             float(np.exp(0.2))),
            ("scaling", lambda s, t: 0.0 * s + np.log(1.2), 1.44),
        ]
        margins = []
        for name, phi, c_dist in cases:
            chk = tameness_comparison_check(curve, phi, c_dist, tol=5e-3,
                                            n_scan=256)
            assert chk.ok, name
            margins.append(chk.epsilon_prime - chk.lower_bound)
    _report(10, tm, f"3 conformal cases, margins {np.round(margins, 4).tolist()}")


def test_criterion_11_isotopy_invariants():
    with _Timer(10.0) as tm:
        parallels = generate_family("parallels")
        for curve, c in zip(parallels, np.arange(-0.4, 0.41, 0.2)):
            inv = isotopy_invariant(curve, "liouville_class")
            assert abs(inv.value - 2 * np.pi * c) <= 1e-8
        circles = generate_family("plane_circles")
        for curve, rad in zip(circles, (1.0, 1.1)):
            inv = isotopy_invariant(curve, "enclosed_area")
            assert abs(inv.value - np.pi * rad * rad) <= 1e-8
            assert inv.monotonicity_constant == pytest.approx(
                np.pi * rad * rad / 2, abs=1e-8)
        scan = separation_scan(parallels, "liouville_class")
        grid_err = parallels[0].patch.length / 512
        assert abs(scan.a_emp - 0.2) <= grid_err
    _report(11, tm, f"parallel ladder separation {scan.a_emp:.6f}")


def test_criterion_12_determinism(tmp_path):
    with _Timer(600.0) as tm:
        outs = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / run_dir
            code = cli_main(["lemmas", "--quick", "--seed", "0",
                             "--grid", "512x129", "--out", str(out)])
            assert code == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(12, tm, f"{len(files_a)} CSV files byte-identical across runs")
