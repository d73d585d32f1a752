import numpy as np
import pytest

from lagbound import hausdorff
from lagbound.curves import Curve, trig_curve
from lagbound.errors import OutOfPatch, PatchMismatch
from lagbound.exactness import build_contraction, shifted_curve
from lagbound.hausdorff import (contraction_path_bound_check,
                                hausdorff_distance, radial_path_check)
from lagbound.numerics import wrap_difference


def brute_force_cylinder_hausdorff(a_pts, b_pts, length, n_dense=4096):
    """Independent dense-sampling oracle on the flat cylinder."""
    dq = wrap_difference(a_pts[:, 0][:, None], b_pts[:, 0][None, :], length)
    d = np.hypot(dq, a_pts[:, 1][:, None] - b_pts[:, 1][None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


class TestHausdorffDistance:
    def test_identical_curves(self, cyl):
        c = trig_curve(cyl, {2: 0.4}, n=512)
        res = hausdorff_distance(c, c)
        assert res.value == 0.0

    def test_parallels(self, cyl):
        a = Curve.constant(cyl, 0.0, n=512)
        b = Curve.constant(cyl, -0.35, n=512)
        res = hausdorff_distance(a, b)
        assert res.value == pytest.approx(0.35, abs=1e-12)
        assert res.directed_ab == pytest.approx(res.directed_ba, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_cos_family_distance_one(self, cyl, m):
        # oracle: farthest point of the graph sits at height 1; every base
        # point is within 1 of a crossing, so both directed scans give 1
        base = Curve.constant(cyl, 0.0, n=2048)
        cm = trig_curve(cyl, {m: 1.0}, n=2048)
        res = hausdorff_distance(cm, base)
        assert abs(res.value - 1.0) <= res.error
        oracle = brute_force_cylinder_hausdorff(cm.points(), base.points(),
                                                cyl.length)
        assert res.value == pytest.approx(oracle, abs=1e-12)

    def test_patch_mismatch(self, cyl, sphere):
        with pytest.raises(PatchMismatch):
            hausdorff_distance(Curve.constant(cyl, 0.0, n=64),
                               Curve.constant(sphere, 0.0, n=64))

    def test_symmetry_and_triangle(self, cyl):
        curves = [Curve.constant(cyl, 0.0, n=512),
                  trig_curve(cyl, {1: 0.3}, n=512),
                  trig_curve(cyl, {2: 0.5}, n=512)]
        d = {}
        for i in range(3):
            for j in range(3):
                res = hausdorff_distance(curves[i], curves[j])
                d[i, j] = res.value
        err = max(hausdorff_distance(curves[i], curves[j]).error
                  for i in range(3) for j in range(3) if i != j)
        for i in range(3):
            for j in range(3):
                assert d[i, j] == pytest.approx(d[j, i], abs=1e-12)
                for k in range(3):
                    assert d[i, j] <= d[i, k] + d[k, j] + 3 * err

    @pytest.mark.parametrize("name", ["cyl", "sphere"])
    def test_scan_beyond_the_samples_reads_them_once(self, name, request):
        # 256 scan points of a 64-sample curve repeat its samples: they add
        # no data, so the spacing term keeps the 64-sample bar
        patch = request.getfixturevalue(name)
        s = np.arange(64) * (patch.length / 64)
        curve = Curve.from_samples(patch, 0.3 * np.cos(3 * s + 0.3))
        base = Curve.constant(patch, 0.0, n=64)
        res = hausdorff_distance(curve, base, n_scan=256)
        assert res == hausdorff_distance(curve, base, n_scan=64)
        assert res.error >= patch.length / 64 * np.max(curve.speed())

    def test_witnesses_reported(self, cyl):
        a = Curve.constant(cyl, 0.0, n=512)
        b = trig_curve(cyl, {1: 0.8}, n=512)
        res = hausdorff_distance(a, b)
        (pt, dist) = res.witness_ba
        assert dist == pytest.approx(res.directed_ba, abs=1e-12)
        assert abs(pt[1]) <= 0.8 + 1e-12


class TestRadialPaths:
    def test_section_within_a_row_of_the_edge_is_out_of_patch(self, sphere):
        # the sphere band's rows are 1.2 / 128 apart: 0.595 is within one
        sec = Curve.constant(sphere, 0.595, n=256)
        with pytest.raises(OutOfPatch):
            radial_path_check(sec, [(1.0, 0.0)])

    def test_same_scale_zero(self, cyl):
        sec = trig_curve(cyl, {1: 0.5}, n=512)
        rows = radial_path_check(sec, [(0.4, 0.4)])
        t, s, measured, expected, residual, tol, passed = rows[0]
        assert len(rows) == 1 and passed
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_flat_cylinder_identity(self, cyl):
        sec = trig_curve(cyl, {1: 0.45}, n=1024)
        pairs = [(1.0, 0.0), (0.75, 0.25), (0.9, 0.1), (0.3, 0.7)]
        rows = radial_path_check(sec, pairs)
        assert len(rows) == len(pairs)
        for t, s, measured, expected, residual, tol, passed in rows:
            assert expected == pytest.approx(abs(t - s) * 0.45, abs=1e-12)
            assert residual <= tol and passed

    def test_sphere_identity(self, sphere):
        sec = trig_curve(sphere, {1: 0.2}, n=512)
        rows = radial_path_check(sec, [(0.75, 0.25), (1.0, 0.0)])
        assert all(passed for *_, passed in rows)
        # 0.75/0.25 pair: distance 0.5 * 0.2 = 0.1 within tolerance
        t, s, measured, expected, residual, tol, passed = rows[0]
        assert measured == pytest.approx(0.1, abs=tol)

    def test_scaled_curve_helper(self, cyl):
        sec = trig_curve(cyl, {2: 0.4}, n=256)
        half = shifted_curve(sec, 0.0, scale=0.5)
        assert np.max(np.abs(half.xi - 0.5 * sec.xi)) == 0.0


class TestContractionBound:
    def test_mean_zero_path(self, cyl):
        xi = trig_curve(cyl, {3: 0.2}, n=512)
        path = build_contraction(xi, n_alpha=9)
        rows = contraction_path_bound_check(path)
        assert all(row[-1] for row in rows)
        # mean-zero: shifts vanish, the distance equals |da| * max|xi|
        for a, b, d, bound, gap, passed in rows:
            assert d == pytest.approx(abs(a - b) * 0.2, abs=1e-9)
            assert gap <= 0 + 1e-12
            assert passed

    def test_nonzero_mean_path(self, cyl):
        xi = trig_curve(cyl, {1: 0.25}, offset=0.1, n=512)
        path = build_contraction(xi, n_alpha=9)
        assert all(row[-1] for row in contraction_path_bound_check(path))

    @pytest.mark.parametrize("excess", [(0.5, 0.5, 0.5), (0.5, 2.0, 0.5)])
    def test_row_flags_are_the_verdict(self, cyl, monkeypatch, excess):
        # each pair measured at bound + excess * error: above its bound,
        # and inside its error bar exactly when excess <= 1
        path = build_contraction(trig_curve(cyl, {3: 0.2}, n=512),
                                 n_alpha=3)
        alpha = {id(cv): a for cv, a in zip(path.curves, path.alphas)}
        sup, real, calls = path.xi.sup_norm(), hausdorff.hausdorff_distance, []

        def measured(a, b):
            res = real(a, b)
            bound = 2.0 * abs(alpha[id(a)] - alpha[id(b)]) * sup
            res.value = bound + excess[len(calls)] * res.error
            calls.append(res)
            return res

        monkeypatch.setattr(hausdorff, "hausdorff_distance", measured)
        rows = contraction_path_bound_check(path)
        assert len(rows) == len(calls) == 3
        assert [row[-1] for row in rows] == [e <= 1 for e in excess]
        assert all(gap > 0 for *_, gap, _ in rows)
