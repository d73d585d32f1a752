import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagbound import surface
from lagbound.config import build_patch_from_spec
from lagbound.curves import Curve, tameness
from lagbound.distances import pairwise_point_distances, set_to_set_distances
from lagbound.errors import ChartDegenerate, ConfigError
from lagbound.surface import (NAMED_BANDS, BaseCurve, cylinder_distance,
                              flat_cylinder, hyperbolic_band, plane_annulus,
                              solve_warp, sphere_band, warp_taylor_check)

from conftest import (_reference_warp, plane_embed, reference_march_rows,
                      sphere_embed)


def _band_area(patch):
    """Area of the whole band, w ds dt, from W = int_0^t w at both edges."""
    edge = np.full(patch.n_s, patch.halfwidth)
    return float(np.mean(patch.cum_w_at(edge) - patch.cum_w_at(-edge))
                 * patch.length)


def _distance(patch, x, y):
    """The distance from x to y, as a query between one-point sets."""
    return float(set_to_set_distances(patch, np.array([x]), np.array([y]))[0][0])


def _fd_second_derivative(col, h):
    # fourth-order central stencil for the t-residual check
    return (-col[:-4] + 16 * col[1:-3] - 30 * col[2:-2]
            + 16 * col[3:-1] - col[4:]) / (12 * h * h)


class TestBaseCurve:
    @pytest.mark.parametrize("length, kappa, gauss, message", [
        (0.0, 0.0, 0.0, "length must be positive"),
        (2 * np.pi, 0.0, "sin(s/2)", "gauss is not periodic"),
        (2 * np.pi, "1/(s-0.1234)", 0.0, "kappa must be bounded"),
    ], ids=["zero_length", "gauss_not_periodic", "kappa_pole_at_probe"])
    def test_bad_base_curve_is_config_error(self, length, kappa, gauss,
                                            message):
        with pytest.raises(ConfigError, match=message):
            build_patch_from_spec({"length": length, "halfwidth": 0.5,
                                   "kappa": kappa, "gauss": gauss,
                                   "grid": [64, 17]})

    def test_scalar_callables_broadcast_over_the_grid(self):
        scalar = solve_warp(BaseCurve(2 * np.pi, lambda s: 0.2,
                                      lambda s, t: 0.5), 0.5, (64, 17))
        array = solve_warp(BaseCurve(2 * np.pi, lambda s: 0.2 + 0.0 * s,
                                     lambda s, t: 0.5 + 0.0 * s), 0.5, (64, 17))
        assert np.array_equal(scalar.kappa, np.full(64, 0.2))
        assert scalar.gauss_max == array.gauss_max == 0.5
        for name in ("w", "w_t", "w_s", "w_st", "cum_w"):
            assert (getattr(scalar, name).tobytes()
                    == getattr(array, name).tobytes())


class TestSolveWarp:
    def test_flat_cylinder_warp_is_one(self, cyl):
        assert np.max(np.abs(cyl.w - 1.0)) < 1e-12

    def test_plane_warp_linear(self, plane):
        expected = 1.0 - plane.t / 2.0
        assert np.max(np.abs(plane.w - expected[None, :])) < 1e-11

    def test_sphere_warp_cosine(self, sphere):
        assert np.max(np.abs(sphere.w - np.cos(sphere.t)[None, :])) < 1e-11

    def test_hyperbolic_warp_cosh(self, hyperbolic):
        # oracle: the normal ODE with curvature -1 integrates to cosh t
        assert np.max(np.abs(hyperbolic.w - np.cosh(hyperbolic.t)[None, :])) < 1e-11

    def test_base_row_is_one(self, sphere, plane):
        mid = (sphere.n_t - 1) // 2
        assert np.max(np.abs(sphere.w[:, mid] - 1.0)) < 1e-10
        assert np.max(np.abs(plane.w[:, mid] - 1.0)) < 1e-10

    def test_ode_residual_on_grid(self, sphere):
        h = sphere.t[1] - sphere.t[0]
        for i in (0, 100, 300):
            col = sphere.w[i]
            resid = _fd_second_derivative(col, h) + np.cos(sphere.t[2:-2]) * 1.0
            # residual of w_tt + K w with K = 1, w = cos t: the stencil itself
            # carries O(h^4) truncation, integrator error is far below
            assert np.max(np.abs(resid - (-np.cos(sphere.t[2:-2]) + np.cos(sphere.t[2:-2])))) < 1e-6
            resid_true = _fd_second_derivative(col, h) + col[2:-2]
            assert np.max(np.abs(resid_true)) < 1e-6

    def test_chart_degenerate(self):
        with pytest.raises(ChartDegenerate):
            plane_annulus(circle_radius=1.0, halfwidth=1.2, grid=(64, 33))

    def test_periodicity_validation(self):
        with pytest.raises(ValueError):
            BaseCurve(2 * np.pi, lambda s: np.sin(s / 2), lambda s, t: 0.0 * s)

    def test_positive_focal_margin(self):
        patch = solve_warp(
            BaseCurve(2 * np.pi, lambda s: 0.0 * s, lambda s, t: 0.0 * s + 1.0,
                      name="sphere"), 1.2, grid=(64, 33))
        assert patch.w.min() > 0

    def test_warp_csv_export(self, cyl, tmp_path):
        path = tmp_path / "warp.csv"
        cyl.export_warp_csv(path)
        head = path.read_text().splitlines()[0]
        assert head.startswith("# schema=1,")
        assert "n_s=512" in head and "n_t=129" in head


def _spec_band(gauss, kappa=0.0, length=2 * np.pi, halfwidth=1.0,
               grid=(512, 129)):
    return build_patch_from_spec({"length": length, "halfwidth": halfwidth,
                                  "kappa": kappa, "gauss": gauss,
                                  "grid": list(grid)})


class TestBandCurvature:
    """kappa, max |K| and flatness, read once by the warp march."""

    def test_curved_band_off_the_probe_rows_is_not_flat(self):
        # K = t(t - 0.3) vanishes on the rows t = 0 and t = 0.3 only
        patch = _spec_band("t*(t - 0.3)")
        assert not patch.is_flat_cylinder
        assert patch.gauss_max == pytest.approx(1.3)
        pts = np.array([(0.0, -0.9), (np.pi, -0.9)])
        graph = pairwise_point_distances(patch, pts,
                                         scale=lambda s, t: 1.0 + 0.0 * s)
        d = pairwise_point_distances(patch, pts)
        assert np.array_equal(d, graph)
        assert d[0, 1] < np.pi - 0.3
        curve = Curve.constant(patch, 0.0, n=512)
        rep = tameness(curve)
        _, spacing = curve.scan(rep.n_scan)
        assert rep.error > 2 * spacing

    def test_gauss_max_reads_every_column(self):
        # every 16th column of this band has K = 0
        patch = _spec_band("0.5*sin(32*s)", kappa=0.5, length=4 * np.pi,
                           halfwidth=0.5)
        fine = np.arange(4 * patch.n_s) * (patch.length / (4 * patch.n_s))
        assert patch.gauss_max == pytest.approx(0.5, rel=1e-15)
        assert patch.gauss_max >= np.max(np.abs(0.5 * np.sin(32 * fine)))
        assert np.array_equal(patch.kappa, np.full(patch.n_s, 0.5))

    def test_flat_bands(self, cyl, plane, sphere):
        assert cyl.is_flat_cylinder and cyl.gauss_max == 0.0
        assert not plane.is_flat_cylinder and plane.gauss_max == 0.0
        assert not sphere.is_flat_cylinder and sphere.gauss_max == 1.0

    def test_constant_kappa_of_a_spec_band_has_no_s_derivative(self):
        patch = _spec_band("0.2 + 0.3*t", kappa=0.3, halfwidth=0.6,
                           grid=(128, 33))
        assert not np.any(patch.w_s) and not np.any(patch.w_st)
        s = np.linspace(0.01, patch.length, 41, endpoint=False)
        got = patch.warp_at(s, np.linspace(-0.5, 0.5, 41))
        assert not np.any(got["w2_s"])

    def test_non_finite_gauss_is_a_value_error(self):
        base = BaseCurve(2 * np.pi, lambda s: 0.0 * s,
                         lambda s, t: np.log(t + 0.5) + 0.0 * s)
        with pytest.raises(ValueError, match="K of custom is not finite"):
            solve_warp(base, 0.6, (256, 65))

    @pytest.mark.parametrize("kappa, gauss", [
        (0.0, "log(t + 0.5)"), (0.0, "1/t"), ("0.1/sin(2*s)", 0.0)],
        ids=["log", "pole", "kappa_pole"])
    def test_non_finite_spec_band_is_config_error(self, kappa, gauss):
        with pytest.raises(ConfigError, match="not finite"):
            _spec_band(gauss, kappa, halfwidth=0.6, grid=(256, 65))

    # K is NaN only on rows t < -0.5, past where a coarse run's error first
    # passes the tolerance: the grid nodes refuse it before any run climbs
    @pytest.mark.parametrize("grid", [(256, 65), (1024, 257)])
    def test_late_non_finite_gauss_is_refused_before_the_march(
            self, monkeypatch, grid):
        calls, march_rows = [], surface.SurfacePatch._march_rows

        def counted(patch, substeps):
            calls.append(substeps)
            return march_rows(patch, substeps)
        monkeypatch.setattr(surface.SurfacePatch, "_march_rows", counted)
        with pytest.raises(ConfigError,
                           match="K of config is not finite on the band"):
            _spec_band("log(t + 0.5)", halfwidth=0.6, grid=grid)
        assert len(calls) <= 1

    # K = 0/(t - 1/128) is 0 on every node of 64x17 at r = 0.5 (rows 1/16
    # apart), but NaN at the midpoint stage of the first run's (S = 4) step
    # from t = 0: the runs refuse it after the march
    def test_non_finite_gauss_between_the_nodes_is_refused(self,
                                                          monkeypatch):
        calls, march_rows = [], surface.SurfacePatch._march_rows

        def counted(patch, substeps):
            calls.append(substeps)
            return march_rows(patch, substeps)
        monkeypatch.setattr(surface.SurfacePatch, "_march_rows", counted)
        with pytest.raises(ConfigError,
                           match="K of config is not finite on the band"):
            _spec_band("0.0/(t - 0.0078125)", halfwidth=0.5, grid=(64, 17))
        assert calls

    def test_non_finite_warp_field_is_chart_degenerate(self):
        with pytest.raises(ChartDegenerate, match="overflows"):
            _spec_band(1e300, halfwidth=0.6, grid=(256, 65))

    # 2x the error at _MAX_SUBSTEPS still exceeds _MARCH_TOL: a jump in K
    # across |t| = 0.3 (5.1e-13) and two growths that no step resolves
    @pytest.mark.parametrize("gauss, halfwidth", [
        ("1 + 0.1*sin(s)*(abs(t) > 0.3)", 0.7), (-1e6, 0.6),
        ("-1e4*(1+t)", 0.6)], ids=["jump", "constant", "linear"])
    def test_unresolved_warp_march_is_chart_degenerate(self, gauss,
                                                      halfwidth):
        with pytest.raises(ChartDegenerate,
                           match="warp march of config does not resolve "
                                 "the band: error .* at 256 substeps"):
            _spec_band(gauss, halfwidth=halfwidth, grid=(64, 17))


CLOSED_FORMS = {  # band builder, w(t), w_t(t)
    "sphere": (lambda g: sphere_band(0.6, g), np.cos, lambda t: -np.sin(t)),
    "hyperbolic": (lambda g: hyperbolic_band(0.6, g), np.cosh, np.sinh),
    "plane": (lambda g: plane_annulus(3.0, 1.0, g), lambda t: 1 - t / 3,
              lambda t: np.full_like(t, -1 / 3)),
}


class TestWarpMarch:
    @pytest.mark.parametrize("grid", [(64, 17), (128, 33), (512, 129)])
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_measured_error_covers_the_rows(self, name, grid):
        build, w, w_t = CLOSED_FORMS[name]
        patch = build(grid)
        actual = max(np.max(np.abs(patch.w - w(patch.t))),
                     np.max(np.abs(patch.w_t - w_t(patch.t))))
        assert actual <= patch.warp_error < 1e-12

    # s-dependent bands: unlike the closed forms, w_s is not zero
    @pytest.mark.parametrize("kappa, gauss, halfwidth, grid", [
        ("0.2*cos(s)", "0.5*cos(s) + 0.2*t", 0.5, (512, 129)),
        ("0.2*cos(s)", "0.5*cos(s) + 0.2*t", 0.5, (128, 33)),
        ("0.1*sin(2*s)", "1 + 0.3*sin(s)*exp(-t*t)", 0.8, (256, 65)),
    ])
    def test_measured_error_covers_the_rows_of_spec_bands(self, kappa, gauss,
                                                          halfwidth, grid):
        patch = build_patch_from_spec({
            "length": 2 * np.pi, "halfwidth": halfwidth, "grid": list(grid),
            "kappa": kappa, "gauss": gauss})
        s, t = np.meshgrid(patch.s[::8], patch.t, indexing="ij")
        ref = _reference_warp(patch, s.ravel(), t.ravel())
        w = ref["w"]
        for got, want in ((patch.w, w), (patch.w_t, ref["w2_t"] / (2 * w)),
                          (patch.w_s, ref["w2_s"] / (2 * w))):
            assert np.max(np.abs(got[::8].ravel() - want)) <= patch.warp_error

    def test_fewest_substeps_that_meet_the_tolerance(self):
        patch = sphere_band(0.6, (64, 17))
        assert patch.substeps > 4
        _, coarser, _ = patch._march_rows(patch.substeps // 2)
        assert 2 * coarser > surface._MARCH_TOL
        assert sphere_band(0.6, (512, 129)).substeps == 4

    def test_a_rejected_run_stops_where_its_error_passes_the_tolerance(self):
        def counted(patch):
            """The list of the march's rows, one per call of K (the sphere's
            K_s is analytic)."""
            gauss, rows = patch.base.gauss, []

            def counting_gauss(s, t):
                rows.append(t)
                return gauss(s, t)
            patch.base = dataclasses.replace(patch.base, gauss=counting_gauss)
            rows.clear()  # BaseCurve's periodicity probes
            return rows
        patch = sphere_band(0.85, (512, 129))
        assert patch.substeps == 8
        rows = counted(patch)
        _, err, _ = patch._march_rows(4)
        assert 2 * err > surface._MARCH_TOL
        assert len(rows) < (patch.n_t - 1) // 2
        last = sphere_band(0.85, (64, 17))
        rows = counted(last)
        last._march_rows(surface._MAX_SUBSTEPS)
        assert len(rows) == (last.n_t - 1) // 2

    # narrow_rows: rows stepped on one column per direction (None: every row)
    @pytest.mark.parametrize("build, narrow_rows", [
        *((partial(band, grid=grid), None)
          for band in NAMED_BANDS.values() for grid in ((64, 17), (512, 129))),
        (lambda: sphere_band(0.85, (512, 129)), None),
        (lambda: hyperbolic_band(0.85, (512, 129)), None),
        (lambda: _spec_band("0.2 + 0.3*t", kappa=0.1, halfwidth=0.6,
                            grid=(128, 33)), None),
        # K varies in s only where |t| > 0.3, first in row 3 of 8; S = 64
        (lambda: _spec_band("1 + 0.1*sin(s)*(abs(t) > 0.3)*(abs(t) - 0.3)**6",
                            halfwidth=0.7, grid=(64, 17)), 3),
        (lambda: _spec_band(0.0, kappa="0.1*cos(s)", halfwidth=0.6,
                            grid=(128, 33)), 0),
        # kappa = -0.0 where sin s < 0, so w_t holds both signs of zero at
        # t = 0 (a config expression's + 0.0*s would make every zero +0)
        (lambda: solve_warp(BaseCurve(
            2 * np.pi, lambda s: np.where(np.sin(s) < 0, -0.0, 0.0),
            lambda s, t: 0.0 * s, kappa_prime=lambda s: 0.0 * s,
            gauss_s=lambda s, t: 0.0 * s), 0.6, (64, 17)), 0),
    ], ids=[*(f"{name}-{grid[0]}" for name in NAMED_BANDS
              for grid in ((64, 17), (512, 129))),
            "sphere_r0.85", "hyperbolic_r0.85", "constant_kappa",
            "widens_in_row_3", "kappa_cos_s", "kappa_signed_zero"])
    def test_narrowed_march_matches_the_reference(self, monkeypatch, build,
                                                  narrow_rows):
        patch = build()
        mid = (patch.n_t - 1) // 2
        want, want_err, want_kmax = reference_march_rows(patch, patch.substeps)
        marched = np.stack([patch.w, patch.w_t, patch.w_s, patch.w_st,
                            patch.cum_w])
        assert marched.tobytes() == want.tobytes()
        assert patch.gauss_max == want_kmax
        widths, deriv = [], surface._warp_deriv

        def recording_deriv(nk, nks, state):
            widths.append(state.shape[1])
            return deriv(nk, nks, state)
        monkeypatch.setattr(surface, "_warp_deriv", recording_deriv)
        fields, err, kmax = patch._march_rows(patch.substeps)
        assert (fields.tobytes(), err, kmax) == (want.tobytes(), want_err,
                                                 want_kmax)
        # each row steps its whole-row step and its substeps at one width
        per_row = np.reshape(widths, (mid, -1))
        assert np.all(per_row == per_row[:, :1])
        narrow_rows = mid if narrow_rows is None else narrow_rows
        assert list(per_row[:, 0]) == ([2] * narrow_rows
                                       + [2 * patch.n_s] * (mid - narrow_rows))

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_lookup_matches_the_closed_form(self, name):
        build, w, w_t = CLOSED_FORMS[name]
        patch = build((512, 129))
        t = np.linspace(-0.99, 0.99, 1001) * patch.halfwidth
        got = patch.warp_at(patch.s[np.arange(t.size) % patch.n_s], t)
        assert np.max(np.abs(got["w"] - w(t))) <= 2e-13
        assert np.max(np.abs(got["w2_t"] / (2 * got["w"]) - w_t(t))) <= 2e-13
        assert np.max(np.abs(got["w2_s"])) == 0.0

    def test_lookup_matches_fine_integration_on_a_spec_band(self):
        patch = build_patch_from_spec({
            "length": 2 * np.pi, "halfwidth": 0.5, "grid": [512, 129],
            "kappa": "0.2*cos(s)", "gauss": "0.5*cos(s) + 0.2*t"})
        rng = np.random.default_rng(0)
        t = rng.uniform(-0.45, 0.45, patch.n_s)
        # on the columns, then between them
        for s in (patch.s, rng.uniform(0, patch.length, patch.n_s)):
            got = patch.warp_at(s, t)
            ref = _reference_warp(patch, s, t)
            assert set(got) == set(ref) == {"w", "w2_t", "w2_s"}
            for key in got:
                assert np.max(np.abs(got[key] - ref[key])) <= 1e-13

    @pytest.mark.parametrize("n_s", [128, 127])
    def test_coarse_lookup_matches_fine_integration(self, n_s):
        # every other row and column; an odd n_s halves the rows only
        patch = build_patch_from_spec({
            "length": 2 * np.pi, "halfwidth": 0.5, "grid": [n_s, 33],
            "kappa": "0.2*cos(s)", "gauss": "0.5*cos(s) + 0.2*t"})
        rng = np.random.default_rng(1)
        s, t = rng.uniform(0, patch.length, 300), rng.uniform(-0.4, 0.4, 300)
        ref = _reference_warp(patch, s, t)
        for stride, tol in ((1, 1e-12), (2, 1e-9)):
            got = patch.warp_at(s, t, _stride=stride)
            for key in got:
                assert np.max(np.abs(got[key] - ref[key])) <= tol, (stride, key)


class TestWarpTaylor:
    @pytest.mark.parametrize("patch_name,expected", [
        ("cyl", (1.0, 0.0, 0.0)),
        ("plane", (1.0, -1.0, 0.25)),
        ("sphere", (1.0, 0.0, -1.0)),
        ("hyperbolic", (1.0, 0.0, 1.0)),
    ])
    def test_quadratic_jet(self, request, patch_name, expected):
        patch = request.getfixturevalue(patch_name)
        fit = warp_taylor_check(patch, 0.7)
        assert np.allclose(fit.coefficients, expected, atol=5e-9)
        assert np.allclose(fit.expected, expected, atol=1e-14)
        assert fit.remainder_order >= 2.9

    def test_flat_remainder_is_zero(self, cyl):
        fit = warp_taylor_check(cyl, 0.0)
        assert fit.max_remainder < 1e-12
        assert fit.remainder_order == np.inf

    def test_jacobi_taylor_log_slope(self, sphere):
        # remainder of cos^2 t against 1 - t^2 is t^4/3 + ..., slope near 4
        fit = warp_taylor_check(sphere, 1.3)
        assert 3.8 < fit.remainder_order < 4.2


class TestAreaForm:
    def test_flat_band_area(self, cyl):
        assert _band_area(cyl) == pytest.approx(2 * np.pi * 2 * 1.5, abs=1e-10)

    def test_sphere_band_area(self, sphere):
        # oracle: integral of cos t over the band in closed form
        assert _band_area(sphere) == pytest.approx(2 * np.pi * 2 * np.sin(0.6),
                                                   abs=1e-9)

    def test_plane_band_area(self):
        patch = plane_annulus(circle_radius=2.0, halfwidth=1.0, grid=(256, 65))
        assert _band_area(patch) == pytest.approx(8 * np.pi, abs=1e-9)

    @pytest.mark.parametrize("grid", [(128, 33), (512, 129)])
    @pytest.mark.parametrize("build, cum_w", [
        (sphere_band, np.sin), (hyperbolic_band, np.sinh),
        (plane_annulus, lambda t: t - t * t / 4),  # R = 2: w = 1 - t/2
    ], ids=["sphere", "hyperbolic", "plane"])
    def test_cum_w_matches_the_closed_form(self, build, cum_w, grid):
        patch = build(grid=grid)
        rng = np.random.default_rng(0)
        t = rng.uniform(-0.95, 0.95, (8, patch.n_s)) * patch.halfwidth
        assert np.max(np.abs(patch.cum_w_at(t) - cum_w(t))) <= patch.warp_error

    def test_density_callable(self, sphere):
        w = sphere.grid_w(np.array([0.3]), np.array([0.25]))
        assert w[0] == pytest.approx(np.cos(0.25), abs=1e-5)


class TestAmbientDistance:
    def test_cylinder_half_turn(self, cyl):
        assert _distance(cyl, (0.0, 0.0), (np.pi, 0.0)) == pytest.approx(np.pi)

    def test_cylinder_wraparound(self, cyl):
        d = _distance(cyl, (0.0, 0.0), (3 * np.pi / 2, 0.0))
        assert d == pytest.approx(np.pi / 2)

    def test_sphere_along_equator(self, sphere):
        for ds in (0.2, 0.5):
            d = _distance(sphere, (0.0, 0.0), (ds, 0.0))
            assert d == pytest.approx(ds, abs=1e-9)

    def test_sphere_against_great_circle_oracle(self, sphere):
        x, y = (0.3, -0.2), (1.1, 0.3)
        truth = float(np.arccos(np.dot(sphere_embed(*x), sphere_embed(*y))))
        d = _distance(sphere, x, y)
        rel = sphere.stencil_error_ratio()
        assert truth - 5e-3 <= d <= truth * (1 + rel) + 5e-3

    @settings(max_examples=25, deadline=None)
    @given(q1=st.floats(0, 2 * np.pi), q2=st.floats(0, 2 * np.pi),
           p1=st.floats(-1.2, 1.2), p2=st.floats(-1.2, 1.2),
           k=st.integers(-3, 3))
    def test_cylinder_closed_form_shift_invariance(self, q1, q2, p1, p2, k):
        l = 2 * np.pi
        d1 = cylinder_distance(l, (q1, p1), (q2, p2))
        d2 = cylinder_distance(l, (q1 + k * l, p1), (q2, p2))
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert d1 >= 0


class TestDistanceLayer:
    """The flat formula and the injected-point graph both sit behind
    `distances`."""

    def test_symmetry(self, sphere):
        x, y = (0.5, 0.1), (2.0, -0.3)
        d_xy = _distance(sphere, x, y)
        assert d_xy > 0 and _distance(sphere, x, x) == 0.0
        assert _distance(sphere, y, x) == pytest.approx(d_xy, rel=1e-12)

    def test_triangle_inequality_sampled(self, sphere, rng):
        pts = [(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(-0.4, 0.4)))
               for _ in range(3)]
        d = {(i, j): _distance(sphere, pts[i], pts[j])
             for i in range(3) for j in range(3) if i != j}
        rel = sphere.stencil_error_ratio()
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert d[i, j] <= (d[i, k] + d[k, j]) * (1 + rel)

    def test_cylinder_closed_form_matches_graph_path(self, cyl):
        # a unit conformal scale forces the graph path on the flat cylinder;
        # no grid path is shorter than the straight line, and the stencil
        # overshoots by at most its own anisotropy estimate
        def one(s, t):
            return 1.0 + 0.0 * s

        targets = np.array([(1.0, 0.3), (np.pi, 0.0), (2.5, -0.8), (5.8, 0.4)])
        pts = np.concatenate([[(0.0, 0.0)], targets])
        graph = pairwise_point_distances(cyl, pts, scale=one)[0, 1:]
        exact = cylinder_distance(cyl.length, targets, (0.0, 0.0))
        rel = cyl.stencil_error_ratio()
        assert np.all(graph >= exact * (1 - 1e-12))
        assert np.all(graph <= exact * (1 + rel))

    def test_flat_cylinder_is_closed_form(self, cyl, rng):
        pts = np.stack([rng.uniform(0, cyl.length, 12),
                        rng.uniform(-1.4, 1.4, 12)], axis=1)
        exact = np.array([[cylinder_distance(cyl.length, p, q) for q in pts]
                          for p in pts])
        assert np.array_equal(pairwise_point_distances(cyl, pts), exact)
        to_a, to_b = set_to_set_distances(cyl, pts[5:], pts[:5])
        assert np.array_equal(to_a, exact[5:, :5].min(axis=1))
        assert np.array_equal(to_b, exact[:5, 5:].min(axis=1))

    @pytest.mark.parametrize("name", ["sphere", "plane", "hyperbolic", "cyl"])
    def test_limit_caps_exactly(self, name, request):
        # graph path on the three curved bands, formula path on the cylinder
        patch = request.getfixturevalue(name)
        rng = np.random.default_rng(1)
        s = np.sort(rng.uniform(0, patch.length, 64))
        pts = np.stack([s, 0.4 * patch.halfwidth * np.cos(3 * s)], axis=1)
        full = pairwise_point_distances(patch, pts)
        capped = pairwise_point_distances(patch, pts, limit=1.0)
        near = full <= 1.0
        assert near.any() and not near.all()
        assert np.array_equal(capped[near], full[near])
        assert np.all(np.isposinf(capped[~near]))

    def test_sphere_never_below_great_circle(self, sphere):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = (rng.uniform(0, 2 * np.pi), rng.uniform(-0.5, 0.5))
            y = (rng.uniform(0, 2 * np.pi), rng.uniform(-0.5, 0.5))
            truth = float(np.arccos(np.clip(
                np.dot(sphere_embed(*x), sphere_embed(*y)), -1.0, 1.0)))
            assert _distance(sphere, x, y) >= truth * (1 - 1e-4)

    def test_plane_annulus_chords(self, plane):
        # chords that keep clear of the inner circle (radius 1) lie in the
        # band, so the band distance is the Euclidean chord length
        rng = np.random.default_rng(0)
        rel = plane.stencil_error_ratio()
        checked = 0
        while checked < 20:
            x = (rng.uniform(0, plane.length), rng.uniform(-0.9, 0.9))
            y = (rng.uniform(0, plane.length), rng.uniform(-0.9, 0.9))
            p, q = plane_embed(2.0, *x), plane_embed(2.0, *y)
            u = np.clip(-np.dot(p, q - p) / np.dot(q - p, q - p), 0.0, 1.0)
            if np.linalg.norm(p + u * (q - p)) < 1.05:
                continue
            checked += 1
            truth = float(np.linalg.norm(p - q))
            d = _distance(plane, x, y)
            assert truth * (1 - 1e-4) <= d <= truth * (1 + rel)
