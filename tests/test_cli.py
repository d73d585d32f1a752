import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from lagbound import sasaki as sas
from lagbound.cli import main
from lagbound.config import (ALL_CHECKS, DEFAULT_GRID, DEFAULT_TOLERANCES,
                             build_patch_from_spec, load_config,
                             parse_curve_spec)
from lagbound.curves import Curve, geodesic_curvature
from lagbound.errors import ConfigError
from lagbound.exactness import build_contraction, contraction_bounds_check
from lagbound.report import format_float, write_warp_csv
from lagbound.surface import flat_cylinder, plane_annulus, unit_cylinder

GRID = "--grid", "256x65"
BAND = {"length": 2 * np.pi, "halfwidth": 0.5, "grid": [64, 17]}


def run(*args):
    return main([*args])


class TestClassifyCommand:
    def test_member(self, tmp_path):
        assert run("classify", "--curve", "parallel:0", "--k", "1",
                   *GRID, "--out", str(tmp_path)) == 0

    def test_not_member(self, tmp_path):
        assert run("classify", "--curve", "cos:1,10", "--k", "50",
                   *GRID, "--out", str(tmp_path)) == 1

    def test_indeterminate(self, tmp_path):
        assert run("classify", "--curve", "cos:1,2", "--k", "4",
                   *GRID, "--out", str(tmp_path)) == 2

    def test_csv_schema_line(self, tmp_path):
        run("classify", "--curve", "parallel:0.2", "--k", "2",
            *GRID, "--out", str(tmp_path))
        text = (tmp_path / "classify.csv").read_text()
        assert text.startswith("# schema=1")
        assert text.endswith("\n") and "\r" not in text

    def test_graph_reaching_the_edge_on_the_columns_is_runtime_error(
            self, tmp_path, capsys):
        # the 2048 curve samples stay below r = 2; the 1000 columns reach it
        assert run("classify", "--curve", "expr:2.0*cos(s-2*pi/1000)",
                   "--k", "5", "--grid", "1000x129",
                   "--out", str(tmp_path)) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "classify.csv").exists()


class TestOtherCommands:
    def test_patch_export(self, tmp_path):
        assert run("patch", "--patch", "sphere_equator", *GRID,
                   "--out", str(tmp_path)) == 0
        head = (tmp_path / "warp_sphere_equator.csv").read_text().splitlines()[0]
        assert "n_s=256" in head

    def test_unit_cylinder_honours_the_grid(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": [64, 17]}))
        for out, flags in (("flag", ["--grid", "64x17"]),
                           ("cfg", ["--config", str(cfg)])):
            assert run("patch", "--patch", "unit_cylinder", *flags,
                       "--out", str(tmp_path / out)) == 0
            head = (tmp_path / out / "warp_unit_cylinder.csv").read_text()
            assert head.splitlines()[0].endswith("n_s=64,n_t=17")

    def test_unit_cylinder_default_grid(self, tmp_path):
        assert run("patch", "--patch", "unit_cylinder",
                   "--out", str(tmp_path)) == 0
        write_warp_csv(tmp_path / "ref.csv", unit_cylinder(grid=(2048, 257)))
        assert ((tmp_path / "warp_unit_cylinder.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_curvature_and_tameness(self, tmp_path):
        assert run("curvature", "--curve", "cos:0.5,3", *GRID,
                   "--out", str(tmp_path)) == 0
        assert run("tameness", "--curve", "parallel:0", *GRID,
                   "--out", str(tmp_path)) == 0

    def test_hausdorff(self, tmp_path):
        assert run("hausdorff", "--curve", "parallel:0",
                   "--curve2", "parallel:0.3", *GRID, "--out", str(tmp_path)) == 0
        rows = (tmp_path / "hausdorff.csv").read_text().splitlines()
        assert float(rows[2].split(",")[2]) == pytest.approx(0.3, abs=1e-12)

    def test_exactify_and_contract(self, tmp_path):
        assert run("exactify", "--patch", "cylinder", "--curve",
                   "expr:0.2*cos(s)+0.1", "--alpha", "0.5", *GRID,
                   "--out", str(tmp_path)) == 0
        assert run("contract", "--patch", "cylinder", "--curve",
                   "expr:0.1*cos(2*s)", "--n-alpha", "5", *GRID,
                   "--out", str(tmp_path)) == 0

    # with a zero tameness tolerance this path fails: on the plane band its
    # exact epsilon (plane chords at the scanned pairs) dips 1.7e-5 below the
    # endpoint minimum at a = 0.5; the graph reads a 4.0e-3 dip, as it
    # measures the base circle's pairs along the circle (1.0 against 0.990)
    @pytest.mark.parametrize("tol_eps, code", [(None, 0), (0.0, 1)])
    def test_contract_prints_the_bounds_verdict(self, tmp_path, capsys,
                                                tol_eps, code):
        spec = "expr:0.1*cos(s)"
        argv = ["contract", "--patch", "plane_circle", "--curve", spec,
                "--n-alpha", "7", *GRID, "--out", str(tmp_path)]
        tol_b = DEFAULT_TOLERANCES["contraction_curvature"]
        tol_e = DEFAULT_TOLERANCES["contraction_tameness"]
        if tol_eps is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(
                {"tolerances": {"contraction_tameness": tol_eps}}))
            argv += ["--config", str(cfg)]
            tol_e = tol_eps
        assert run(*argv) == code
        printed = capsys.readouterr().out.splitlines()[1:]

        patch = plane_annulus(grid=(256, 65))
        path = build_contraction(parse_curve_spec(spec, patch),
                                 n_alpha=7)
        k = geodesic_curvature(Curve.constant(patch, 0.0, n=512),
                               _with_error=False).sup
        chk = contraction_bounds_check(path, k, k + 0.1, tol_b, tol_e)
        assert chk.ok is (code == 0)
        assert printed == [
            f"curvature bound: max {chk.max_curvature:.9g} <= "
            f"{chk.curvature_bound:.9g} + {tol_b:g}  "
            f"({'ok' if chk.curvature_ok else 'FAIL'})",
            f"tameness bound:  min {chk.min_tameness:.9g} >= "
            f"{chk.tameness_bound:.9g} - {tol_e:g}  "
            f"({'ok' if chk.tameness_ok else 'FAIL'})"]

    def test_family_min_level_column(self, tmp_path):
        assert run("family", "escape_cos", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "escape_cos.csv").read_text().splitlines()
        assert lines[1].split(",")[-1] == "min_level"
        levels = [line.split(",")[-1] for line in lines[2:]]
        assert levels == ["2", "5", "10"] + [""] * 7

    # ceil(horizon / step) is odd: the step-halving estimate is only small
    # when the fine and coarse runs end at the same time
    @pytest.mark.parametrize("horizon", ["0.021", "0.041"])
    def test_sasaki_odd_step_count(self, tmp_path, horizon):
        assert run("sasaki", "--horizon", horizon, "--step", "1e-3",
                   "--out", str(tmp_path)) == 0

    def test_sasaki_too_few_records_for_a_parabola(self, tmp_path):
        # 2 steps record t = 0 and the end only: no parabola fits
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            assert run("sasaki", "--horizon", "1e-3", "--out",
                       str(tmp_path)) == 3

    def test_family_and_figure(self, tmp_path):
        assert run("family", "parallels", "--out", str(tmp_path)) == 0
        assert run("figure", "parallels", "--out", str(tmp_path)) == 0
        svg = (tmp_path / "parallels.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_sasaki_command(self, tmp_path):
        assert run("sasaki", "--base", "flat_torus", "--states", "2",
                   "--horizon", "2", "--out", str(tmp_path)) == 0

    def test_sasaki_csv_records_the_halving_error(self, tmp_path):
        assert run("sasaki", "--base", "round_sphere", "--states", "2",
                   "--horizon", "0.5", "--seed", "5", "--out",
                   str(tmp_path)) == 0
        lines = (tmp_path / "sasaki_round_sphere.csv").read_text().splitlines()
        meta = dict(item.split("=") for item in lines[0].split(",")[1:])
        assert lines[1] == "state,t,x1,x2,y1,y2,y_norm2"
        base = sas.base_manifold("round_sphere")
        states = sas.random_sasaki_states(base, 2, np.random.default_rng(5))
        traj = sas.sasaki_geodesic(base, states, horizon=0.5)
        assert meta["halving_error"] == format_float(traj.halving_error)
        assert meta["step"] == format_float(traj.step)

    @pytest.mark.parametrize("base", ["flat_torus", "round_sphere"])
    def test_sasaki_default_step_is_a_ladder_step(self, tmp_path, base):
        assert run("sasaki", "--base", base, "--states", "3", "--horizon",
                   "2", "--out", str(tmp_path)) == 0
        lines = (tmp_path / f"sasaki_{base}.csv").read_text().splitlines()
        meta = dict(item.split("=") for item in lines[0].split(",")[1:])
        level = np.log2(2.0 / float(meta["step"]))
        assert level == int(level) and level >= 6  # 2 / 2^6 = 2^-5 first
        assert float(lines[-1].split(",")[1]) == 2.0  # ends at the horizon

    def test_sasaki_step_too_large_is_runtime_error(self, tmp_path):
        assert run("sasaki", "--base", "round_sphere", "--step", "0.5",
                   "--horizon", "8", "--out", str(tmp_path)) == 3

    def test_sasaki_sphere_sweep_export(self, tmp_path):
        assert run("sasaki", "--base", "round_sphere", "--sweep", "0.01",
                   "--out", str(tmp_path)) == 0
        rows = (tmp_path / "sweep_round_sphere.csv").read_text().splitlines()
        sups = [float(row.split(",")[1]) for row in rows[2:]]
        assert len(sups) == 11
        assert all(b >= a for a, b in zip(sups, sups[1:]))

    def test_sasaki_sweep_export(self, tmp_path):
        assert run("sasaki", "--base", "flat_torus", "--sweep", "0.02",
                   "--out", str(tmp_path)) == 0
        rows = (tmp_path / "sweep_flat_torus.csv").read_text().splitlines()
        assert rows[1] == "t,sup_norm"
        assert len(rows) == 13
        # closed form for this potential: sup norm is amplitude * t
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(0.02 * float(last[0]), abs=1e-12)

    def test_family_scan_and_pairwise(self, tmp_path):
        assert run("family", "parallels", "--scan", "liouville_class",
                   "--pairwise", "--out", str(tmp_path)) == 0
        scan_head = (tmp_path / "parallels_scan.csv").read_text().splitlines()[0]
        assert "a_emp=0.2" in scan_head
        pair_rows = (tmp_path / "parallels_pairwise.csv").read_text().splitlines()
        assert len(pair_rows) == 2 + 10  # C(5,2) pairs
        # without the scan, the pairwise table is measured on its own
        assert run("family", "parallels", "--pairwise",
                   "--out", str(tmp_path / "plain")) == 0
        plain = (tmp_path / "plain" / "parallels_pairwise.csv").read_text()
        assert plain.splitlines() == pair_rows

    @pytest.mark.parametrize("config, curve, code", [
        ({}, "parallel:0", 0),
        ({"seed": "abc"}, "parallel:0", 4),
        ({"seed": None}, "parallel:0", 4),
        ({"tolerances": {"area_residual": "abc"}}, "parallel:0", 4),
        ({"patches": ["a"]}, "parallel:0", 4),
        ({"checks": {"warp_taylor": "no"}}, "parallel:0", 4),
        ({"quick": "false"}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, length="abc")}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, halfwidth=-0.5)}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, kappa="0.1*s")}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, kappa="0.1*cos(")}}, "parallel:0", 4),
        ({}, "expr:0.1*cos(", 4),
        ({}, "expr:1/0", 4),
        ({"patches": {"p": dict(BAND, gauss="1/0")}}, "parallel:0", 4),
        ({"seed": 1.5}, "parallel:0", 4),
        ({"seed": True}, "parallel:0", 4),
        ({"seed": -1}, "parallel:0", 4),
        ({"tolerances": {"area_residual": -1e-3}}, "parallel:0", 4),
        ({"checks": {"bogus": True}}, "parallel:0", 4),
        ({}, "parallel:x", 4),
        ({}, "cos:1", 4),
        ({}, "cos:a,b", 4),
        ({"patches": {"p": dict(BAND, gauss=[1])}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, length=0)}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, gauss="sin(s/2)")}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, kappa="1/(s-0.1234)")}}, "parallel:0", 4),
        ({"patches": {"p": {k: v for k, v in BAND.items() if k != "length"}}},
         "parallel:0", 4),
        # periodicity is held to a gap relative to max(1, max |f|), so a
        # periodic kappa, K or curve of large amplitude passes, s terms do not
        ({"patches": {"p": dict(BAND, halfwidth=0.01, gauss="1e4*cos(s)")}},
         "parallel:0", 0),
        ({"patches": {"p": dict(BAND, halfwidth=1e-4, kappa="5e3*cos(s)")}},
         "parallel:0", 0),
        ({"patches": {"p": dict(BAND, halfwidth=1.0)}}, "cos:0.5,60", 0),
        ({}, "expr:0.01*s", 4),
        # a grid is a pair of integers: int() would truncate 64.9 to 64 and
        # raise OverflowError on inf, and True is an int
        ({"grid": [64.9, 17]}, "parallel:0", 4),
        ({"grid": [64.0, 17]}, "parallel:0", 4),
        ({"grid": [1e999, 17]}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, grid=[64, 17.9])}}, "parallel:0", 4),
        ({"patches": {"p": dict(BAND, grid=[64, True])}}, "parallel:0", 4),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, config, curve,
                                              code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patches": {"p": BAND}, **config}))
        assert run("curvature", "--config", str(cfg), "--patch", "p",
                   "--curve", curve, "--out", str(tmp_path)) == code

    @pytest.mark.parametrize("kind", ["missing_csv", "one_column_csv",
                                      "missing_config", "invalid_json"])
    def test_bad_input_file_is_config_error(self, tmp_path, kind):
        path = tmp_path / "input"
        if kind == "one_column_csv":
            path.write_text("0.0\n1.0\n")
        elif kind == "invalid_json":
            path.write_text("{seed: 1")
        flags = (["--config", str(path)] if kind.endswith(("config", "json"))
                 else [])
        curve = f"csv:{path}" if kind.endswith("csv") else "parallel:0"
        out = tmp_path / "out"
        assert run("curvature", "--curve", curve, *GRID, *flags,
                   "--out", str(out)) == 4
        assert not out.exists() or not list(out.iterdir())

    # a K that is not finite on the band is a config error, a finite K that
    # overflows the warp march a runtime error; neither writes a table
    @pytest.mark.parametrize("gauss, code, message", [
        ("log(t + 0.5)", 4, "K of p is not finite"),
        (1e300, 3, "warp field of p overflows")])
    @pytest.mark.parametrize("cmd", [["curvature"], ["tameness"],
                                     ["classify", "--k", "5"]])
    def test_band_with_non_finite_warp_is_refused(self, tmp_path, capsys,
                                                  gauss, code, message, cmd):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patches": {"p": dict(
            BAND, halfwidth=0.6, gauss=gauss, grid=[256, 65])}}))
        out = tmp_path / "out"
        assert run(*cmd, "--config", str(cfg), "--patch", "p", "--curve",
                   "parallel:0", "--out", str(out)) == code
        assert not list(out.iterdir())
        assert message in capsys.readouterr().err

    # a band whose warp march misses its tolerance at the most substeps is a
    # runtime error and writes nothing
    @pytest.mark.parametrize("gauss, halfwidth", [
        ("1 + 0.1*sin(s)*(abs(t) > 0.3)", 0.7), (-1e6, 0.6),
        ("-1e4*(1+t)", 0.6)], ids=["jump", "constant", "linear"])
    def test_band_with_unresolved_warp_is_refused(self, tmp_path, capsys,
                                                  gauss, halfwidth):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patches": {"p": dict(
            BAND, halfwidth=halfwidth, gauss=gauss)}}))
        out = tmp_path / "out"
        assert run("tameness", "--config", str(cfg), "--patch", "p",
                   "--curve", "parallel:0", "--out", str(out)) == 3
        assert not list(out.iterdir())
        assert ("warp march of p does not resolve the band"
                in capsys.readouterr().err)

    def test_config_out_dir_is_the_default_output(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": "cfg_out"}))
        assert run("curvature", *GRID, "--curve", "parallel:0",
                   "--config", "cfg.json") == 0
        assert (tmp_path / "cfg_out" / "curvature.csv").is_file()
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_config_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": "cfg_out"}))
        assert run("curvature", *GRID, "--curve", "parallel:0",
                   "--config", "cfg.json", "--out", "flag_out") == 0
        assert (tmp_path / "flag_out" / "curvature.csv").is_file()
        assert not (tmp_path / "cfg_out").exists()

    # "", a file and a path under a file cannot hold the tables; the
    # directory is made before any work, so nothing is written
    @pytest.mark.parametrize("out", ["", "file", "file/sub", None],
                             ids=["empty", "file", "under_file", "config"])
    @pytest.mark.parametrize("cmd", [
        ["curvature", *GRID, "--curve", "parallel:0"],
        ["lemmas", "--quick", *GRID]], ids=["curvature", "lemmas"])
    def test_unusable_out_dir_is_config_error(self, tmp_path, monkeypatch,
                                              capsys, cmd, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("x")
        (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": "file"}))
        flags = ["--config", "cfg.json"] if out is None else ["--out", out]
        before = sorted(tmp_path.rglob("*"))
        assert run(*cmd, *flags) == 4
        assert "config error:" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "x"

    # a directory where an output file goes: refused with exit 4, after the
    # files written before it
    @pytest.mark.parametrize("cmd, name", [
        (["curvature", *GRID, "--curve", "parallel:0"], "curvature.csv"),
        (["patch", "--patch", "sphere_equator", "--grid", "32x17"],
         "warp_sphere_equator.csv"),
        (["figure", "parallels"], "parallels.svg"),
        (["lemmas", "--quick", *GRID], "warp_taylor.csv")],
        ids=["curvature", "patch", "figure", "lemmas"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys,
                                                   cmd, name):
        (tmp_path / name).mkdir()
        assert run(*cmd, "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "config error: cannot write" in err and name in err
        assert "Traceback" not in err

    def test_readme_config_example(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```json\n")[1].split("```")[0]
        cfg = tmp_path / "example.json"
        cfg.write_text(example)
        (name,) = json.loads(example)["patches"]
        assert run("curvature", "--config", str(cfg), "--patch", name,
                   "--curve", "parallel:0", "--out", str(tmp_path)) == 0

    def test_unknown_patch_is_config_error(self, tmp_path):
        assert run("curvature", "--patch", "nope", "--curve", "parallel:0",
                   "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("grid", ["512x128", "512x7", "8x65"])
    def test_bad_grid_is_config_error(self, tmp_path, grid):
        assert run("curvature", "--curve", "parallel:0", "--grid", grid,
                   "--out", str(tmp_path)) == 4
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": [int(n) for n in grid.split("x")]}))
        assert run("curvature", "--curve", "parallel:0", "--config", str(cfg),
                   "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_level_is_config_error(self, tmp_path, level):
        assert run("classify", "--curve", "parallel:0", f"--k={level}",
                   *GRID, "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("flag", [
        "--step=0", "--step=nan", "--step=-1e-3", "--step=inf",
        "--step=-inf", "--horizon=nan",
        "--horizon=inf", "--horizon=-1", "--horizon=0", "--states=0",
        "--states=-2", "--sweep=nan", "--sweep=inf", "--sweep=-inf",
        "--seed=-1",
        # a sweep reads none of the bundle-geodesic flags
        "--sweep=0.01 --states=7", "--sweep=0.01 --horizon=3",
        "--sweep=0.01 --step=1e-3"])
    def test_bad_sasaki_input_is_config_error(self, tmp_path, flag):
        assert run("sasaki", *flag.split(), "--out", str(tmp_path)) == 4
        assert not list(tmp_path.iterdir())

    # sasaki's --seed=-1 is among the sasaki inputs above
    @pytest.mark.parametrize("argv, config", [
        (["lemmas", "--quick", "--seed", "-1"], None),
        (["lemmas", "--quick"], {"seed": -1}),
    ], ids=["flag", "config"])
    def test_negative_seed_is_config_error(self, tmp_path, argv, config):
        if config is not None:
            (tmp_path / "seed.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "seed.json")]
        out = tmp_path / "out"
        out.mkdir()
        assert run(*argv, "--out", str(out)) == 4
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["contract", "--n-alpha=0"], ["contract", "--n-alpha=-3"],
        ["contract", "--n-alpha=1"], ["exactify", "--alpha=nan"],
        ["exactify", "--alpha=inf"], ["exactify", "--alpha=-inf"]])
    def test_bad_path_input_is_config_error(self, tmp_path, argv):
        assert run(*argv, "--curve", "cos:0.1,2", *GRID,
                   "--out", str(tmp_path)) == 4
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["classify", "--curve", "cos:1,2"],
        ["bogus"],
        ["curvature", "--curve", "parallel:0", "--tol", "1"],
        ["classify", "--curve", "cos:1,2", "--k", "five"],
        ["sasaki", "--patch", "nonsense"],  # sasaki builds no band
        ["sasaki", *GRID],
        ["family", "parallels", *GRID],  # each family builds its own patch
        ["figure", "parallels", "--patch", "nonsense"],
        ["sasaki", "--states", "1.5"],
        ["contract", "--curve", "cos:1,2", "--n-alpha", "x"],
    ])
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 4
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("classify", "--help")
        assert exc.value.code == 0
        assert "--tol" not in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["curvature_rel", "tameness_limit"])
    def test_unread_tolerance_is_config_error(self, tmp_path, key):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"tolerances": {key: 1e-3}}))
        with pytest.raises(ConfigError):
            load_config(str(cfg))
        assert run("curvature", "--curve", "parallel:0", "--config", str(cfg),
                   *GRID, "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("spec", ["expr:log(cos(s)-2)", "parallel:nan",
                                      "cos:nan,2"])
    def test_non_finite_curve_is_config_error(self, tmp_path, capsys, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("classify", "--curve", spec, "--k", "5", *GRID,
                       "--out", str(tmp_path)) == 4
        assert not caught
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: curve {spec!r} has non-finite samples"]

    @pytest.mark.parametrize("spec", ["parallel:3", "cos:2.5,1", "parallel:inf"])
    def test_curve_leaving_band_is_config_error(self, tmp_path, spec):
        assert run("curvature", "--curve", spec, *GRID,
                   "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("s_of_k", [
        lambda k, n, l: k * (l / 2) / n,                  # half a period
        lambda k, n, l: (k / n) ** 2 * l,                 # not uniform
        lambda k, n, l: k * l / n + 1e-6 * l,             # shifted grid
    ])
    def test_csv_off_grid_is_config_error(self, tmp_path, s_of_k):
        l, n = 2 * np.pi, 128
        k = np.arange(n)
        s = s_of_k(k, n, l)
        path = tmp_path / "curve.csv"
        np.savetxt(path, np.stack([s, 0.2 * np.cos(s)], axis=1), delimiter=",")
        assert run("curvature", "--curve", f"csv:{path}", *GRID,
                   "--out", str(tmp_path)) == 4

    def test_unknown_figure_is_runtime_error(self, tmp_path):
        assert run("figure", "nope", "--out", str(tmp_path)) == 3

    # the default cylinder has r = 2: the shift solve needs
    # max|a| max|xi| < r/2, the contraction path max|xi| < r/3
    @pytest.mark.parametrize("argv", [
        ("exactify", "--curve", "expr:1.1*cos(s)"),
        ("exactify", "--curve", "cos:0.5,1", "--alpha", "50"),
        ("contract", "--curve", "expr:0.8*cos(s)"),
    ])
    def test_shift_range_is_runtime_error(self, tmp_path, argv):
        assert run(*argv, *GRID, "--out", str(tmp_path)) == 3

    def test_negative_scale_shift(self, tmp_path):
        # on the flat cylinder A(a xi + c) = l (0.2 a + c), so c(-1) = 0.2
        assert run("exactify", "--patch", "cylinder", "--curve",
                   "expr:0.5*cos(s)+0.2", "--alpha", "-1", *GRID,
                   "--out", str(tmp_path)) == 0
        row = (tmp_path / "exactify.csv").read_text().splitlines()[-1]
        assert float(row.split(",")[-1]) == pytest.approx(0.2, abs=1e-12)

    # the enclosed area needs a band around a plane circle, kappa = 1/R > 0
    @pytest.mark.parametrize("family", ["escape_cos", "parallels"])
    def test_plane_invariant_off_a_circle_is_runtime_error(self, tmp_path,
                                                           capsys, family):
        assert run("family", family, "--scan", "enclosed_area",
                   "--out", str(tmp_path)) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_lemmas_exit_codes(self, tmp_path):
        base = {"quick": True, "grid": [256, 65],
                "checks": {name: False for name in
                           ("exact_shift", "contraction_curvature",
                            "contraction_tameness", "graph_sandwich",
                            "graph_curvature_monotone", "fiber_norm_parabola",
                            "conformal_tameness", "radial_hausdorff",
                            "contraction_hausdorff")}}
        # unattainable tolerance: failures reported, nonzero exit
        bad = dict(base)
        bad["tolerances"] = {"taylor_order": 100.0}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run("lemmas", "--config", str(cfg),
                   "--out", str(tmp_path / "bad_out")) == 1
        text = (tmp_path / "bad_out" / "warp_taylor.csv").read_text()
        assert ",false" in text  # per-row witnesses carry the failure

        # all checks disabled: empty bundle, exit 0
        all_off = dict(base)
        all_off["checks"] = dict(base["checks"], warp_taylor=False)
        cfg2 = tmp_path / "off.json"
        cfg2.write_text(json.dumps(all_off))
        assert run("lemmas", "--config", str(cfg2),
                   "--out", str(tmp_path / "off_out")) == 0

    # the second config fails every radial and parabola row, and the
    # warp_taylor rows of the curved patches only
    @pytest.mark.parametrize("tolerances", [
        None, {"radial_factor": 0, "parabola_residual": 0, "taylor_order": 10}])
    def test_lemma_verdicts_are_their_pass_columns(self, tmp_path, capsys,
                                                   tolerances):
        argv = ["lemmas", "--quick", *GRID, "--out", str(tmp_path / "out")]
        if tolerances:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"tolerances": tolerances}))
            argv += ["--config", str(cfg)]
        code = run(*argv)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        verdicts = []
        for line in lines:
            verdict, name, *_, path = line.split()
            rows = Path(path).read_text().splitlines()[2:]
            flags = [row.split(",")[-1] for row in rows]
            assert set(flags) <= {"true", "false"}, name
            assert (verdict == "PASS") == all(f == "true" for f in flags), name
            verdicts.append(verdict)
        assert code == (1 if "FAIL" in verdicts else 0)
        assert ("FAIL" in verdicts) == bool(tolerances)

    def test_quick_suite_honours_the_grid(self, tmp_path):
        """An explicit --grid or config grid takes effect under --quick, and
        512x129 is the quick suite's grid when none is given."""
        radial = {name: name == "radial_hausdorff" for name in ALL_CHECKS}
        plain, gridded = tmp_path / "plain.json", tmp_path / "gridded.json"
        plain.write_text(json.dumps({"checks": radial}))
        gridded.write_text(json.dumps({"checks": radial, "grid": [256, 65]}))

        def radial_csv(name, *argv):
            out = tmp_path / name
            assert run("lemmas", "--quick", *argv, "--out", str(out)) == 0
            return (out / "radial_hausdorff.csv").read_text()

        default = radial_csv("default", "--config", str(plain))
        assert radial_csv("512", "--config", str(plain), "--grid",
                          "512x129") == default
        flag = radial_csv("flag", "--config", str(plain), *GRID)
        assert flag != default
        assert radial_csv("key", "--config", str(gridded)) == flag


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.seed == 0 and cfg.grid is None
        assert DEFAULT_GRID == (2048, 513)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "grid": [256, 65],
                                    "checks": {"warp_taylor": False}}))
        cfg = load_config(str(path))
        assert cfg.seed == 7
        assert cfg.checks["warp_taylor"] is False
        assert cfg.checks["exact_shift"] is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_patch_from_spec_expression(self):
        patch = build_patch_from_spec({
            "name": "sphere", "length": 2 * np.pi, "halfwidth": 0.5,
            "kappa": 0.0, "gauss": "1.0 + 0*s", "grid": [128, 33]})
        assert patch.w[0, -1] == pytest.approx(np.cos(0.5), abs=1e-9)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            build_patch_from_spec({"length": 1.0, "halfwidth": 0.2,
                                   "gauss": "__import__('os')",
                                   "grid": [64, 17]})

    def test_curve_specs(self):
        patch = flat_cylinder(grid=(256, 65))
        c1 = parse_curve_spec("parallel:0.4", patch)
        assert c1.sup_norm() == pytest.approx(0.4)
        c2 = parse_curve_spec("cos:0.3,2", patch, n=256)
        assert c2.sup_norm() == pytest.approx(0.3)
        c3 = parse_curve_spec("expr:0.1*sin(3*s)", patch, n=256)
        assert c3.sup_norm() == pytest.approx(0.1, abs=1e-9)
        with pytest.raises(ConfigError):
            parse_curve_spec("bad:1", patch)

    def test_curve_csv_ingestion(self, tmp_path, rng):
        patch = flat_cylinder(grid=(256, 65))
        s = np.arange(128) * (patch.length / 128)
        xi = 0.2 * np.cos(s)
        path = tmp_path / "curve.csv"
        np.savetxt(path, np.stack([s, xi], axis=1), delimiter=",")
        curve = parse_curve_spec(f"csv:{path}", patch)
        assert curve.sup_norm() == pytest.approx(0.2, abs=1e-12)
        assert np.max(np.abs(curve.dxi + 0.2 * np.sin(s))) < 1e-10
