import numpy as np
import pytest

from lagbound import curves
from lagbound.classify import classify, generate_family
from lagbound.config import ExperimentConfig
from lagbound.curves import Curve, geodesic_curvature, trig_curve
from lagbound.exactness import build_contraction, contraction_bounds_check
from lagbound.pipelines import contraction_table, family_table, run_lemma_suite


@pytest.fixture()
def quick_cfg(tmp_path):
    cfg = ExperimentConfig()
    cfg.quick = True
    cfg.grid = (256, 65)
    cfg.out_dir = str(tmp_path)
    return cfg


class TestLemmaSuite:
    def test_disabled_checks_skipped(self, quick_cfg):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        quick_cfg.checks["warp_taylor"] = True
        results = run_lemma_suite(quick_cfg)
        assert [r.name for r in results] == ["warp_taylor"]
        assert all(r.passed for r in results)

    def test_empty_bundle(self, quick_cfg):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        assert run_lemma_suite(quick_cfg) == []

    def test_zero_tolerance_fails_with_witnesses(self, quick_cfg):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        quick_cfg.checks["warp_taylor"] = True
        quick_cfg.tolerances["taylor_order"] = np.inf
        results = run_lemma_suite(quick_cfg)
        assert not all(r.passed for r in results)
        res = results[0]
        assert any(row[-1] is False or row[-1] == "false" or row[-1] == False
                   for row in res.rows)

    def test_fiber_norm_parabola_takes_a_ladder_step(self, quick_cfg):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        quick_cfg.checks["fiber_norm_parabola"] = True
        for seed in range(10):
            quick_cfg.seed = seed
            res = run_lemma_suite(quick_cfg)[0]
            for row in res.rows:
                r = dict(zip(res.columns, row))
                assert r["pass"], (seed, r)
                assert max(r["fit_residual"], r["leading_gap"]) <= 1e-7
                assert r["halving_error"] <= 1e-7
                level = np.log2(4.0 / r["step"])  # the quick horizon is 4
                assert level == int(level) and level >= 7

    def test_csv_written_with_schema(self, quick_cfg, tmp_path):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        quick_cfg.checks["contraction_hausdorff"] = True
        text = open(run_lemma_suite(quick_cfg)[0].csv_path).read()
        assert text.startswith("# schema=1")
        assert "seed=0" in text.splitlines()[0]


class TestFamilyTable:
    @pytest.mark.parametrize("family", ["parallels", "plane_circles"])
    def test_families_draw(self, tmp_path, family):
        csv, svg = family_table(family, generate_family(family), str(tmp_path))
        svg_text = open(svg).read()
        assert svg_text.startswith("<svg") and "<!-- data" in svg_text
        csv_text = open(csv).read()
        assert csv_text.startswith("# schema=1")

    def test_escape_values(self, tmp_path):
        csv, _ = family_table("escape_cos", generate_family("escape_cos"),
                              str(tmp_path))
        rows = [line.split(",") for line in open(csv).read().splitlines()[2:]]
        sup = {r[0]: float(r[1]) for r in rows}
        assert sup["cos_m2_a1"] == pytest.approx(4.0, rel=1e-9)
        assert sup["cos_m10_a1"] == pytest.approx(100.0, rel=1e-9)
        dh = {r[0]: float(r[3]) for r in rows}
        assert all(0.9 <= v <= 1.01 for v in dh.values())

    # every family writes the six common columns, then its own
    @pytest.mark.parametrize("family, extra", [
        ("escape_cos", []), ("parallels", []),
        ("plane_circles", ["enclosed_area", "monotonicity_constant"]),
        ("hs_family", ["s", "sup_xi", "sup_dxi"])])
    def test_columns(self, tmp_path, family, extra):
        csv, svg = family_table(family, generate_family(family), str(tmp_path))
        assert (csv, svg) == (str(tmp_path / f"{family}.csv"),
                              str(tmp_path / f"{family}.svg"))
        assert open(csv).read().splitlines()[1].split(",") == [
            "member", "sup_curvature", "epsilon", "delta_h_to_base",
            "action_class", "min_level", *extra]

    def test_pairwise_and_scan_paths(self, tmp_path):
        paths = family_table("parallels", generate_family("parallels"),
                             str(tmp_path), pairwise=True,
                             scan="liouville_class")
        assert paths == tuple(str(tmp_path / f"parallels{suffix}") for suffix
                              in (".csv", ".svg", "_pairwise.csv", "_scan.csv"))
        pairwise, scan = (open(p).read().splitlines()[2:] for p in paths[2:])
        # the pairwise table is the scan's distances
        assert pairwise == [row.rsplit(",", 1)[0] for row in scan]

    def test_plane_circle_enclosed_area(self, tmp_path):
        csv, _ = family_table("plane_circles", generate_family("plane_circles"),
                              str(tmp_path))
        _, header, *rows = open(csv).read().splitlines()
        areas = [float(dict(zip(header.split(","), r.split(",")))
                       ["enclosed_area"]) for r in rows]
        # the circles of radii 1.0 and 1.1 enclose pi r^2
        assert areas == pytest.approx([np.pi, np.pi * 1.21], rel=1e-12)

    @pytest.mark.parametrize("family, rate", [("hs_family", -1.5),
                                              ("hs_variant_alpha", -0.5)])
    def test_oscillation_curvature_slope(self, tmp_path, family, rate):
        csv, _ = family_table(family, generate_family(family), str(tmp_path))
        header, columns, *rows = open(csv).read().splitlines()
        meta = dict(item.split("=") for item in header.split(",")[1:])
        slope = float(meta["curvature_slope"])
        assert slope == pytest.approx(rate, abs=0.05)
        # the log-log fit of the written (s, sup_curvature) columns
        table = [dict(zip(columns.split(","), r.split(","))) for r in rows]
        s_vals, sups = np.array([[float(r["s"]), float(r["sup_curvature"])]
                                 for r in table]).T
        assert slope == pytest.approx(
            np.polyfit(np.log(s_vals), np.log(sups), 1)[0], rel=1e-12)


class TestContractionTable:
    def test_verdict_is_contraction_bounds_check(self, sphere):
        path = build_contraction(trig_curve(sphere, {2: 0.1}, n=512),
                                 n_alpha=5)
        tol = ExperimentConfig().tolerances
        rows, chk = contraction_table(path, ExperimentConfig())
        k = geodesic_curvature(Curve.constant(sphere, 0.0, n=512),
                               _with_error=False).sup
        ref = contraction_bounds_check(path, k, k + 0.1,
                                       tol["contraction_curvature"],
                                       tol["contraction_tameness"])
        for name in ("ok", "curvature_ok", "tameness_ok", "max_curvature",
                     "curvature_bound", "min_tameness", "tameness_bound"):
            assert getattr(chk, name) == getattr(ref, name)
        assert np.array_equal(chk.curvatures, ref.curvatures)
        assert np.array_equal(chk.tameness_values, ref.tameness_values)
        assert [r[0] for r in rows] == list(path.alphas)


@pytest.fixture()
def curvature_passes(monkeypatch):
    """Curves passed to the |B| formula, in call order."""
    seen, signed = [], curves._curvature_signed
    monkeypatch.setattr(curves, "_curvature_signed",
                        lambda cv: seen.append(cv) or signed(cv))
    return seen


class TestCurvatureMeasuredOnce:
    # two passes per curve: full resolution and the half-resolution error
    def test_classify(self, sphere, curvature_passes):
        classify(trig_curve(sphere, {3: 0.1}, n=512), 5)
        assert len(curvature_passes) == 2

    def test_contraction_bounds_check(self, sphere, curvature_passes):
        path = build_contraction(trig_curve(sphere, {2: 0.1}, n=512),
                                 n_alpha=5)
        contraction_bounds_check(path, 0.0, 0.1)
        assert len(curvature_passes) == 2 * 5

    def test_family_table(self, tmp_path, curvature_passes):
        members = generate_family("parallels")
        family_table("parallels", members, str(tmp_path))
        assert len(curvature_passes) == 2 * len(members)
