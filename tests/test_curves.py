import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lagbound import distances, surface
from lagbound.config import build_patch_from_spec, parse_curve_spec
from lagbound.curves import (Curve, _ratio_scan, geodesic_curvature, tameness,
                             tameness_comparison_check, trig_curve)
from lagbound.distances import BandGraph, pairwise_point_distances
from lagbound.errors import DistortionExceeded
from lagbound.exactness import area_functional
from lagbound.hausdorff import hausdorff_distance
from lagbound.numerics import fourier_primitive_grid, wrap_difference
from lagbound.surface import hyperbolic_band, plane_annulus, sphere_band

from conftest import _reference_warp, plane_embed, sphere_embed


def euclidean_graph_curvature(dxi, d2xi):
    """Independent oracle: curvature of a graph in the flat plane."""
    return np.abs(d2xi) / np.power(1.0 + dxi ** 2, 1.5)


def uncapped_scan(curve, n_scan, delta_min, scale=None, lam=1.0):
    """Reference long-range scan on the uncapped distance matrix, with all
    lengths scaled by e^phi (`scale`) or by a uniform factor `lam`: the
    minimal ratio d_ambient / min(1, d_intrinsic) and its sample pair."""
    idx = np.linspace(0, curve.n, n_scan, endpoint=False).astype(int)
    speed = curve.speed() * lam
    if scale is not None:
        speed = speed * scale(curve.s, curve.xi)
    cum = fourier_primitive_grid(speed, curve.patch.length)[idx]
    total = float(np.mean(speed) * curve.patch.length)
    diff = np.abs(cum[:, None] - cum[None, :])
    d_xi = np.minimum(diff, total - diff)
    d_m = lam * pairwise_point_distances(curve.patch, curve.points(idx), scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d_m / np.minimum(1.0, d_xi)
    ratio[d_xi < delta_min] = np.inf
    i, j = divmod(int(np.argmin(ratio)), n_scan)
    return float(ratio[i, j]), (float(curve.s[idx[i]]), float(curve.s[idx[j]]))


class TestCurve:
    def test_leaves_band_rejected(self, cyl):
        with pytest.raises(ValueError):
            trig_curve(cyl, {1: 1.6})

    def test_spectral_derivatives_match_closed_form(self, cyl):
        analytic = trig_curve(cyl, {3: 0.2}, {1: 0.1}, n=256)
        sampled = Curve.from_samples(cyl, analytic.xi, name="resampled")
        assert np.max(np.abs(sampled.dxi - analytic.dxi)) < 1e-10
        assert np.max(np.abs(sampled.d2xi - analytic.d2xi)) < 1e-8

    def test_total_length_straight(self, cyl):
        c = Curve.constant(cyl, 0.3, n=256)
        assert c.total_length() == pytest.approx(2 * np.pi, abs=1e-12)


class TestGeodesicCurvature:
    def test_constant_graph_flat(self, cyl):
        rep = geodesic_curvature(Curve.constant(cyl, 0.7, n=256))
        assert rep.sup < 1e-13

    @pytest.mark.parametrize("a,m", [(0.3, 1), (1.0, 2), (0.1, 7)])
    def test_cos_graph_closed_form(self, cyl, a, m):
        rep = geodesic_curvature(trig_curve(cyl, {m: a}))
        assert rep.sup == pytest.approx(a * m * m, rel=1e-12)
        assert rep.arg_s == pytest.approx(0.0)

    def test_circle_in_plane(self, plane):
        # base circle of the band has Euclidean curvature 1/R
        rep = geodesic_curvature(Curve.constant(plane, 0.0, n=512))
        assert rep.sup == pytest.approx(0.5, abs=1e-12)

    def test_offset_circle_in_plane(self, plane):
        # graph t = c is the circle of radius R - c: curvature 1/(R - c)
        rep = geodesic_curvature(Curve.constant(plane, 0.4, n=512))
        assert rep.sup == pytest.approx(1.0 / 1.6, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(a1=st.floats(-0.4, 0.4), a2=st.floats(-0.3, 0.3),
           m1=st.integers(1, 4), m2=st.integers(1, 6))
    def test_flat_reduction_matches_euclidean_oracle(self, cyl, a1, a2, m1, m2):
        curve = trig_curve(cyl, {m1: a1}, {m2: a2}, n=512)
        rep = geodesic_curvature(curve, _with_error=False)
        oracle = euclidean_graph_curvature(curve.dxi, curve.d2xi)
        assert np.max(np.abs(rep.values - oracle)) < 1e-10

    def test_resolution_stability(self, cyl):
        c1 = trig_curve(cyl, {3: 0.4}, n=1024)
        c2 = trig_curve(cyl, {3: 0.4}, n=2048)
        r1, r2 = geodesic_curvature(c1), geodesic_curvature(c2)
        assert abs(r2.sup - r1.sup) <= r1.error

    def test_error_covers_the_sup_between_samples(self, sphere):
        # the argmax sample has an even index, so the grid-doubling gap reads
        # 0 there; the sup over 2^17 samples is 6.3e-6 higher
        modes = ({3: 0.1, 1: 0.02}, {7: 0.05})
        rep = geodesic_curvature(trig_curve(sphere, *modes, n=8192))
        fine = geodesic_curvature(trig_curve(sphere, *modes, n=2 ** 17),
                                  _with_error=False)
        assert rep.sup < fine.sup <= rep.sup + rep.error

    @pytest.mark.parametrize("name", ["cyl", "sphere", "plane", "hyperbolic"])
    def test_error_covers_the_sup_of_random_curves(self, name, request):
        patch = request.getfixturevalue(name)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = rng.choice(np.arange(1, 9), 3, replace=False).tolist()
            a = rng.uniform(0.01, 0.1, 3) * patch.halfwidth / 0.6
            modes = ({m[0]: a[0], m[1]: a[1]}, {m[2]: a[2]})
            rep = geodesic_curvature(trig_curve(patch, *modes, n=512))
            fine = geodesic_curvature(trig_curve(patch, *modes, n=2 ** 15),
                                      _with_error=False)
            assert abs(fine.sup - rep.sup) <= rep.error, seed

    @pytest.mark.parametrize("n", [8192, 65536])
    def test_long_sampled_curves_in_bounded_memory(self, n):
        # resampling folds the spectrum, so no m x n phase matrix is built
        patch = sphere_band(0.6, (512, 129))
        s = np.arange(n) * (patch.length / n)
        curve = Curve.from_samples(patch, 0.1 * np.cos(3 * s)
                                   + 0.05 * np.sin(7 * s))
        tracemalloc.start()
        try:
            rep, trep = geodesic_curvature(curve), tameness(curve)
            area = area_functional(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20
        exact = geodesic_curvature(trig_curve(patch, {3: 0.1}, {7: 0.05}, n=n),
                                   _with_error=False)
        assert abs(rep.sup - exact.sup) <= rep.error
        assert 0 < trep.epsilon <= 1
        assert abs(area) < 1e-12  # xi(s + pi) = -xi(s), so sin(xi) integrates to 0


_BUILDERS = {
    "sphere": lambda g: sphere_band(0.6, g),
    "hyperbolic": lambda g: hyperbolic_band(0.6, g),
    "spec": lambda g: build_patch_from_spec({
        "length": 2 * np.pi, "halfwidth": 0.5, "grid": list(g),
        "kappa": "0.2*cos(s)", "gauss": "0.5*cos(s) + 0.2*t"}),
}


def _reference_sup(curve):
    """sup |B| of the curve's samples, with the warp data from 2000 RK4 steps."""
    ref = Curve(curve.patch, curve.xi, curve.dxi, curve.d2xi)
    ref._cache["warp"] = _reference_warp(curve.patch, ref.s, ref.xi)
    return geodesic_curvature(ref, _with_error=False).sup


def _column_lookup(patch, cols, t):
    """The grid read at columns `cols` with no interpolation in s: the marched
    fields at the bracketing rows, joined by the quintic Hermite in t."""
    h, gauss = patch.t[1] - patch.t[0], patch.base.gauss
    j = np.clip(((t - patch.t[0]) // h).astype(int), 0, patch.n_t - 2)
    s, ends = patch.s[cols], []
    for row in (j, j + 1):
        tr = patch.t[row]
        w, u, v, y = (f[cols, row]
                      for f in (patch.w, patch.w_t, patch.w_s, patch.w_st))
        nk, nks = -surface._eval(gauss, s, tr), -patch.base.gauss_ds(s, tr)
        nkt = -surface._five_point(
            lambda d: surface._eval(gauss, s, tr + d), 1e-4)
        ends.append(np.array([[w, u, v], [u, nk * w, y],
                              [nk * w, nkt * w + nk * u, nk * v + nks * w]]))
    w, u, v = surface._hermite5(*ends, (t - patch.t[j]) / h, h)
    return {"w": w, "w2_t": 2 * w * u, "w2_s": 2 * w * v}


class TestWarpData:
    BANDS = {  # band builder, exact |B| of the parallel t = c
        "sphere": (_BUILDERS["sphere"], lambda c: abs(np.tan(c))),
        "hyperbolic": (_BUILDERS["hyperbolic"], lambda c: abs(np.tanh(c))),
        "plane": (lambda g: plane_annulus(2.0, 1.0, g), lambda c: 1 / (2 - c)),
    }

    @pytest.mark.parametrize("grid", [(64, 17), (512, 129)])
    @pytest.mark.parametrize("name", sorted(BANDS))
    def test_parallel_curvature_within_its_error(self, name, grid):
        build, exact = self.BANDS[name]
        patch = build(grid)
        for c in np.linspace(-0.9, 0.9, 10) * patch.halfwidth:
            rep = geodesic_curvature(Curve.constant(patch, c, n=patch.n_s))
            assert abs(rep.sup - exact(c)) <= rep.error, c

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic"])
    def test_coarse_lookup_within_its_error(self, name):
        # at 64x17 the grid lookup's interpolation error dominates |B|
        patch = self.BANDS[name][0]((64, 17))
        for amps in ({2: 0.4}, {3: 0.2}, {2: 0.2, 5: 0.05}, {4: 0.1}):
            curve = trig_curve(patch, amps, n=64)
            rep = geodesic_curvature(curve)
            assert abs(rep.sup - _reference_sup(curve)) <= rep.error, amps

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic"])
    def test_off_column_curves_within_their_error(self, name):
        # n = 512 on n_s = 128: three points in four lie between columns
        patch = self.BANDS[name][0]((128, 33))
        for amps in ({1: 0.4}, {2: 0.4}, {3: 0.4}, {1: 0.5}, {2: 0.5}):
            curve = trig_curve(patch, amps, n=512)
            rep = geodesic_curvature(curve)
            assert abs(rep.sup - _reference_sup(curve)) <= rep.error, amps

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic", "spec"])
    def test_non_dividing_curves_within_their_error(self, name, tmp_path):
        # neither n = 100 nor n = 300 divides n_s or is a multiple of it; the
        # coarse lookup of the odd n_s = 127 halves the rows only
        s = np.arange(300) * (2 * np.pi / 300)
        path = tmp_path / "curve.csv"
        np.savetxt(path, np.column_stack(
            [s, 0.2 * np.cos(3 * s) + 0.1 * np.sin(s)]), delimiter=",")
        for grid in ((128, 33), (127, 33)):
            patch = _BUILDERS[name](grid)
            for curve in (trig_curve(patch, {2: 0.3}, {5: 0.02}, n=100),
                          parse_curve_spec(f"csv:{path}", patch)):
                rep = geodesic_curvature(curve)
                assert abs(rep.sup - _reference_sup(curve)) <= rep.error, \
                    (grid, curve.n)

    def test_column_curves_read_the_grid(self, sphere):
        for patch in (sphere, _BUILDERS["spec"]((512, 129))):
            for n in (patch.n_s, patch.n_s // 2, 64):
                curve = trig_curve(patch, {3: 0.2}, {1: 0.1}, n=n)
                got = curve.warp_data()
                ref = _column_lookup(
                    patch, np.arange(0, patch.n_s, patch.n_s // n), curve.xi)
                assert set(got) == set(ref)
                assert all(np.array_equal(got[k], ref[k]) for k in ref), n


def _arc(curve, i, j):
    """Length of the shorter graph arc between samples i and j, read off the
    arclength primitive `Curve.cum_length`."""
    cum, total = curve.cum_length(), curve.total_length()
    arc = abs(cum[j] - cum[i]) % total
    return min(arc, total - arc)


class TestIntrinsicDistance:
    def test_straight_arcs(self, cyl):
        c = Curve.constant(cyl, 0.0, n=512)
        assert _arc(c, 0, 256) == pytest.approx(np.pi)  # s = pi
        assert _arc(c, 0, 384) == pytest.approx(np.pi / 2)  # s = 3 pi / 2

    def test_against_adaptive_quadrature_oracle(self, cyl):
        curve = trig_curve(cyl, {1: 0.1})
        oracle, _ = quad(lambda s: np.sqrt(1 + 0.01 * np.sin(s) ** 2), 0, np.pi,
                         epsabs=1e-13)
        assert _arc(curve, 0, curve.n // 2) == pytest.approx(oracle, abs=1e-10)

    def test_oracle_on_sphere_band(self, sphere):
        curve = Curve.constant(sphere, 0.25, n=512)
        # latitude circle: speed is cos(0.25)
        oracle, _ = quad(lambda s: np.cos(0.25) + 0 * s, curve.s[16],
                         curve.s[244], epsabs=1e-13)
        assert _arc(curve, 16, 244) == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(i=st.integers(0, 511), j=st.integers(0, 511))
    def test_symmetry_and_positivity(self, cyl, i, j):
        curve = trig_curve(cyl, {2: 0.3}, n=512)
        d01 = _arc(curve, i, j)
        assert d01 == pytest.approx(_arc(curve, j, i), abs=1e-10)
        assert 0 <= d01 <= curve.total_length() / 2

    def test_sandwich_property(self, cyl):
        curve = trig_curve(cyl, {2: 0.35}, n=512)
        idx = np.arange(0, 512, 16)
        cum = curve.cum_length()[idx]
        total = curve.total_length()
        diff = np.abs(cum[:, None] - cum[None, :])
        d_xi = np.minimum(diff, total - diff)
        darc = np.abs(curve.s[idx][:, None] - curve.s[idx][None, :])
        d_l = np.minimum(darc, 2 * np.pi - darc)
        bound = np.sqrt(1 + np.max(curve.dxi) ** 2)
        assert np.all(d_l <= d_xi + 1e-10)
        assert np.all(d_xi <= bound * d_l + 1e-10)


class TestTameness:
    def test_parallel_is_one_tame(self, cyl):
        rep = tameness(Curve.constant(cyl, 0.0, n=512))
        assert rep.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_at_most_one(self, cyl):
        for spec in ({1: 0.4}, {3: 0.2}, {5: 0.1}):
            rep = tameness(trig_curve(cyl, spec, n=512))
            assert 0 < rep.epsilon <= 1.0

    def test_small_amplitude_limit(self, cyl):
        eps = [tameness(trig_curve(cyl, {1: a}, n=512)).epsilon
               for a in (0.4, 0.2, 0.1, 0.05, 0.025)]
        assert all(e2 >= e1 - 5e-3 for e1, e2 in zip(eps, eps[1:]))
        assert eps[-1] > 0.995

    def test_report_fields(self, cyl):
        rep = tameness(trig_curve(cyl, {2: 0.3}, n=512))
        assert rep.epsilon == min(rep.long_range_min, rep.short_range_bound)
        assert 0 < rep.delta_min <= 0.05
        assert rep.error > 0

    @pytest.mark.parametrize("name", ["cyl", "sphere"])
    def test_scan_beyond_the_samples_reads_them_once(self, name, request):
        patch = request.getfixturevalue(name)
        s = np.arange(64) * (patch.length / 64)
        curve = Curve.from_samples(patch, 0.3 * np.cos(3 * s + 0.3))
        rep, ref = tameness(curve, n_scan=128), tameness(curve, n_scan=64)
        assert rep.n_scan == 64
        assert (rep.epsilon, rep.pair, rep.error) == (ref.epsilon, ref.pair,
                                                      ref.error)

    def test_carries_its_curvature_report(self, sphere):
        curve = trig_curve(sphere, {3: 0.1}, n=512)
        rep, ref = tameness(curve).curvature, geodesic_curvature(curve)
        assert np.array_equal(rep.s, ref.s)
        assert np.array_equal(rep.values, ref.values)
        assert (rep.sup, rep.arg_s, rep.error) == (ref.sup, ref.arg_s, ref.error)

    def test_resolution_stability(self, cyl):
        c1 = trig_curve(cyl, {2: 0.3}, n=512)
        c2 = trig_curve(cyl, {2: 0.3}, n=1024)
        r1 = tameness(c1, n_scan=256)
        r2 = tameness(c2, n_scan=512)
        assert abs(r2.epsilon - r1.epsilon) <= r1.error

    def test_equator_on_sphere(self, sphere):
        rep = tameness(Curve.constant(sphere, 0.0, n=512))
        assert rep.epsilon > 0.999

    @pytest.mark.parametrize("name, cos_amps", [
        ("sphere", {3: 0.1}), ("plane", {2: 0.3}), ("hyperbolic", {1: 0.2, 4: 0.05}),
    ])
    def test_capped_scan_matches_uncapped(self, name, cos_amps, request):
        curve = trig_curve(request.getfixturevalue(name), cos_amps, n=512)
        rep = tameness(curve)
        long_min, pair = uncapped_scan(curve, rep.n_scan, rep.delta_min)
        assert long_min <= 1.0
        assert rep.long_range_min == long_min
        assert rep.pair == pair
        assert rep.epsilon == min(long_min, rep.short_range_bound)


def _closed_form_distances(band: str, pts: np.ndarray) -> np.ndarray:
    """Exact pairwise distances on the model bands, for pairs within 1."""
    s, t = pts[:, 0], pts[:, 1]
    if band == "sphere":  # great-circle arcs stay inside the band
        p = sphere_embed(s, t)
        return np.arccos(np.clip(p @ p.T, -1.0, 1.0))
    if band == "plane":  # straight chords stay inside the annulus
        p = plane_embed(2.0, s, t)
        return np.linalg.norm(p[:, None] - p[None], axis=-1)
    # hyperbolic Fermi coordinates about the closed geodesic
    ds = wrap_difference(s[:, None], s[None], 2 * np.pi)
    cosh_d = (np.cosh(t[:, None]) * np.cosh(t[None]) * np.cosh(ds)
              - np.sinh(t[:, None]) * np.sinh(t[None]))
    return np.arccosh(np.maximum(cosh_d, 1.0))


def _seeded_trig(patch, seed: int):
    """Two random modes from 1..4 with sup |xi| <= 0.2."""
    rng = np.random.default_rng(seed)
    modes = rng.choice(np.arange(1, 5), size=2, replace=False)
    cos_amps = {int(m): rng.normal() for m in modes}
    sin_amps = {int(m): rng.normal() for m in modes}
    k = 0.2 / sum(abs(a) for a in (*cos_amps.values(), *sin_amps.values()))
    return trig_curve(patch, {m: a * k for m, a in cos_amps.items()},
                      {m: a * k for m, a in sin_amps.items()}, n=512)


class TestTamenessCalibration:
    """epsilon against the exact value on the same sampled pairs, with the
    same delta_min and short-range bound and exact distances capped at 1."""

    @pytest.mark.parametrize("band, make, worst", [
        ("sphere", lambda: sphere_band(0.6, (512, 129)), 1e-3),
        ("hyperbolic", lambda: hyperbolic_band(0.6, (512, 129)), 1e-3),
        ("plane", lambda: plane_annulus(2.0, 0.8, (512, 129)), 1.5e-2),
    ], ids=["sphere", "hyperbolic", "plane"])
    def test_epsilon_against_closed_forms(self, band, make, worst,
                                          monkeypatch):
        builds = []
        monkeypatch.setattr(distances, "BandGraph", lambda *args: (
            builds.append(args) or BandGraph(*args)))
        patch = make()
        gaps = []
        for seed in range(8):
            curve = _seeded_trig(patch, seed)
            rep = tameness(curve)
            idx = np.linspace(0, curve.n, rep.n_scan, endpoint=False).astype(int)
            d = _closed_form_distances(band, curve.points(idx))
            ratio = _ratio_scan(curve.cum_length(), curve.total_length(), idx,
                                np.where(d > 1.0, np.inf, d), rep.delta_min)
            exact = min(float(np.min(ratio)), rep.short_range_bound)
            gaps.append(abs(rep.epsilon - exact))
            assert gaps[-1] <= rep.error, seed
        assert max(gaps) <= worst
        # the queries and the stencil term share the patch's one graph
        hausdorff_distance(curve, Curve.constant(patch, 0.0, n=curve.n))
        patch.stencil_error_ratio()
        assert len(builds) == 1


class TestComparison:
    def test_identity_factor(self, cyl):
        curve = trig_curve(cyl, {2: 0.3}, n=512)
        chk = tameness_comparison_check(curve, lambda s, t: 0.0 * s, 1.0)
        assert chk.ok
        assert chk.epsilon_prime == pytest.approx(chk.epsilon, abs=1e-9)

    def test_sin_bump_factor(self, cyl):
        curve = trig_curve(cyl, {2: 0.3}, n=512)
        phi = lambda s, t: 0.1 * np.sin(s) * np.sin(np.pi * t / cyl.halfwidth)
        chk = tameness_comparison_check(curve, phi, float(np.exp(0.2)),
                                        n_scan=192)
        assert chk.ok
        assert chk.epsilon_prime >= chk.lower_bound - chk.tolerance

    def test_constant_scaling(self, cyl):
        curve = trig_curve(cyl, {2: 0.3}, n=512)
        lam = 1.3
        chk = tameness_comparison_check(curve, lambda s, t: 0.0 * s + np.log(lam),
                                        lam * lam)
        assert chk.ok

    def test_capped_scan_matches_uncapped(self, cyl, sphere):
        # scaled metric on a graph; uniform lam on the formula and on the
        # graph path, where lam < 1 puts the pair that sets epsilon' at an
        # unscaled distance > 1, inside the cap 1/lam
        curve = trig_curve(cyl, {2: 0.3}, n=512)
        phi = lambda s, t: 0.1 * np.sin(s) * np.sin(np.pi * t / cyl.halfwidth)
        chk = tameness_comparison_check(curve, phi, float(np.exp(0.2)),
                                        n_scan=192)
        delta_min = tameness(curve, n_scan=192).delta_min
        eps_prime, _ = uncapped_scan(curve, 192, delta_min,
                                     scale=lambda s, t: np.exp(phi(s, t)))
        assert eps_prime <= 1.0 and chk.epsilon_prime == eps_prime
        lam = 0.7
        for curve in (curve, trig_curve(sphere, {3: 0.1}, n=512)):
            chk = tameness_comparison_check(
                curve, lambda s, t: 0.0 * s + np.log(lam), 1 / lam ** 2)
            rep = tameness(curve)
            eps_prime, _ = uncapped_scan(curve, rep.n_scan, rep.delta_min,
                                         lam=lam)
            assert eps_prime <= 1.0 and chk.epsilon_prime == eps_prime

    def test_distortion_exceeded(self, cyl):
        curve = trig_curve(cyl, {2: 0.3}, n=512)
        with pytest.raises(DistortionExceeded):
            tameness_comparison_check(curve, lambda s, t: 0.0 * s + 1.0, 2.0)


class TestWrapDifference:
    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-20, 20), b=st.floats(-20, 20))
    def test_shortest_signed_difference(self, a, b):
        d = wrap_difference(a, b, 2 * np.pi)
        assert abs(d) <= np.pi + 1e-12
        assert (a - b - d) % (2 * np.pi) == pytest.approx(0.0, abs=1e-9) or \
            (a - b - d) % (2 * np.pi) == pytest.approx(2 * np.pi, abs=1e-9)
