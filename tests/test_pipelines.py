import numpy as np
import pytest

from lagbound.config import ExperimentConfig
from lagbound.errors import ParamOutOfRange
from lagbound.pipelines import run_figure, run_lemma_suite


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
        suite = run_lemma_suite(quick_cfg)
        assert [r.name for r in suite.results] == ["warp_taylor"]
        assert not suite.any_failed

    def test_empty_bundle(self, quick_cfg):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        suite = run_lemma_suite(quick_cfg)
        assert suite.results == [] and not suite.any_failed

    def test_zero_tolerance_fails_with_witnesses(self, quick_cfg):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        quick_cfg.checks["warp_taylor"] = True
        quick_cfg.tolerances["taylor_order"] = np.inf
        suite = run_lemma_suite(quick_cfg)
        assert suite.any_failed
        res = suite.results[0]
        assert any(row[-1] is False or row[-1] == "false" or row[-1] == False
                   for row in res.rows)

    def test_csv_written_with_schema(self, quick_cfg, tmp_path):
        for name in list(quick_cfg.checks):
            quick_cfg.checks[name] = False
        quick_cfg.checks["contraction_hausdorff"] = True
        suite = run_lemma_suite(quick_cfg)
        text = open(suite.results[0].csv_path).read()
        assert text.startswith("# schema=1")
        assert "seed=0" in text.splitlines()[0]


class TestFigures:
    @pytest.mark.parametrize("family", ["parallels", "plane_circles"])
    def test_families_draw(self, tmp_path, family):
        svg, csv = run_figure(family, str(tmp_path))
        svg_text = open(svg).read()
        assert svg_text.startswith("<svg") and "<!-- data" in svg_text
        csv_text = open(csv).read()
        assert csv_text.startswith("# schema=1")

    def test_escape_figure_values(self, tmp_path):
        svg, csv = run_figure("escape_cos", str(tmp_path))
        rows = [line.split(",") for line in open(csv).read().splitlines()[2:]]
        sup = {r[0]: float(r[1]) for r in rows}
        assert sup["cos_m2_a1"] == pytest.approx(4.0, rel=1e-9)
        assert sup["cos_m10_a1"] == pytest.approx(100.0, rel=1e-9)
        dh = {r[0]: float(r[3]) for r in rows}
        assert all(0.9 <= v <= 1.01 for v in dh.values())

    def test_unknown_family(self, tmp_path):
        with pytest.raises(ParamOutOfRange):
            run_figure("nope", str(tmp_path))
