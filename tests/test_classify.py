import numpy as np
import pytest

from lagbound.classify import (MAX_LEVEL, classify, default_cylinder,
                               generate_family, min_level, separation_scan)
from lagbound.curves import Curve, geodesic_curvature, tameness, trig_curve
from lagbound.errors import ParamOutOfRange


@pytest.fixture(scope="module")
def dcyl():
    return default_cylinder()


class TestClassify:
    def test_base_parallel_level_one(self, dcyl):
        v = classify(Curve.constant(dcyl, 0.0, n=512), 1)
        assert v.verdict is True
        assert v.curvature_ok and v.tame_ok and v.containment_ok
        assert v.epsilon > 0.5
        assert v.is_exact

    def test_cos2_curvature_clause(self, dcyl):
        v = classify(trig_curve(dcyl, {2: 1.0}, n=1024), 5)
        assert v.curvature_ok is True
        assert v.curvature == pytest.approx(4.0, rel=1e-10)

    def test_cos10_fails_at_50(self, dcyl):
        v = classify(trig_curve(dcyl, {10: 1.0}, n=2048), 50)
        assert v.verdict is False
        assert v.curvature_ok is False

    def test_borderline_indeterminate(self, dcyl):
        # sup curvature is exactly k: the strict clause sits inside its error bar
        v = classify(trig_curve(dcyl, {2: 1.0}, n=1024), 4)
        assert v.curvature_ok is None
        assert v.verdict is None

    def test_monotone_in_k(self, dcyl):
        curve = trig_curve(dcyl, {3: 0.5}, n=1024)
        verdicts = [classify(curve, k).verdict for k in (5, 6, 9, 20)]
        seen_true = False
        for v in verdicts:
            if seen_true:
                assert v is True
            if v is True:
                seen_true = True
        assert seen_true

    @pytest.mark.parametrize("k", [0, -1.0, np.nan, np.inf, -np.inf])
    def test_invalid_level(self, dcyl, k):
        with pytest.raises(ValueError, match="finite and positive"):
            classify(Curve.constant(dcyl, 0.0, n=64), k)


class TestMinLevel:
    def test_matches_the_classify_loop(self):
        # the first integer level at which classify says member, k <= 12
        fam = generate_family("escape_cos")[:4]
        loop = [next((k for k in range(1, MAX_LEVEL + 1)
                      if classify(cv, k).verdict is True), None) for cv in fam]
        levels = [min_level(cv, tameness(cv)) for cv in fam]
        assert levels == loop == [2, 5, 10, None]


class TestFamilies:
    def test_escape_cos_curvatures(self):
        fam = generate_family("escape_cos")
        sups = [geodesic_curvature(c).sup for c in fam]
        assert np.allclose(sups, [m * m for m in range(1, 11)], rtol=1e-10)

    def test_escape_membership_pattern(self):
        fam = generate_family("escape_cos")[1:2]
        curve = fam[0]
        assert classify(curve, 3).verdict is False
        assert classify(curve, 4).verdict in (False, None)
        assert classify(curve, 5).verdict is True

    def test_parallels_default_ladder(self):
        fam = generate_family("parallels")
        assert len(fam) == 5
        assert all(c.dxi.max() == 0 for c in fam)

    def test_plane_circles(self):
        fam = generate_family("plane_circles")
        assert [c.name for c in fam] == ["circle_r1", "circle_r1.1"]

    def test_hs_family_curvature_slope(self):
        s_vals = [2.0 ** (-j) for j in range(7, 15)]
        fam = generate_family("hs_family")
        sups = [geodesic_curvature(c, _with_error=False).sup for c in fam]
        slope = np.polyfit(np.log(s_vals), np.log(sups), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_hs_variant_slope_and_c1_convergence(self):
        s_vals = [2.0 ** (-j) for j in range(7, 15)]
        fam = generate_family("hs_variant_alpha")
        sups = [geodesic_curvature(c, _with_error=False).sup for c in fam]
        slope = np.polyfit(np.log(s_vals), np.log(sups), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
        d1 = [float(np.max(np.abs(c.dxi))) for c in fam]
        assert all(b < a for a, b in zip(d1, d1[1:]))

    def test_hs_escapes_every_level_while_converging(self):
        from lagbound.curves import Curve
        from lagbound.hausdorff import hausdorff_distance

        s_vals = [2.0 ** (-j) for j in range(7, 12)]
        fam = generate_family("hs_family")[:5]
        base = Curve.constant(fam[0].patch, 0.0, n=fam[0].n)
        dh = [hausdorff_distance(c, base, n_scan=1024).value for c in fam]
        assert all(b <= a + 1e-3 for a, b in zip(dh, dh[1:]))
        # sup|xi_s| decays like sqrt(s) in the plateau
        assert dh[-1] <= 1.2 * np.sqrt(s_vals[-1])
        sups = [geodesic_curvature(c, _with_error=False).sup for c in fam]
        assert all(b > a for a, b in zip(sups, sups[1:]))
        # any level that admits the first member rejects the last
        assert sups[-1] > sups[0] + 1

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            generate_family("no_such_family")


class TestSeparationScan:
    def test_parallel_ladder(self):
        fam = generate_family("parallels")
        scan = separation_scan(fam, "liouville_class")
        assert scan.a_emp == pytest.approx(0.2, abs=1e-9)
        gaps = sorted({round(g, 9) for _, _, _, g in scan.rows})
        assert gaps[0] == pytest.approx(2 * np.pi * 0.2, abs=1e-9)

    def test_plane_circle_gap(self):
        fam = generate_family("plane_circles")
        scan = separation_scan(fam, "enclosed_area")
        assert len(scan.rows) == 1
        _, _, dh, gap = scan.rows[0]
        assert gap == pytest.approx(np.pi * (1.1 ** 2 - 1.0 ** 2), abs=1e-9)
        assert scan.a_emp == dh

    def test_single_class_family(self, dcyl):
        fam = [Curve.constant(dcyl, 0.1, n=256),
               Curve.constant(dcyl, 0.1, n=256)]
        scan = separation_scan(fam, "liouville_class")
        assert scan.a_emp is None

    def test_unknown_invariant(self, dcyl):
        fam = [Curve.constant(dcyl, 0.1, n=64), Curve.constant(dcyl, 0.2, n=64)]
        with pytest.raises(ValueError, match="unknown invariant kind 'area'"):
            separation_scan(fam, "area")
