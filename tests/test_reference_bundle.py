"""The quick suite's CSV bundle, and the README's extra A/B outputs that the
suite does not reach, against committed references, cell by cell.

`data/lemmas_quick_seed0_512x129` holds the output of

    lagbound lemmas --quick --seed 0 --grid 512x129

and each directory named in `EXTRA` the output of its command: the two-way
graph query (`hausdorff`), the flat and plane two-way queries (`family
--pairwise --scan`), the capped tameness scan, the membership verdict with
its exit code, the drawing and companion CSV of each named family
(`figure`, SVG included), the single-curve reports (`curvature`, `exactify`,
`contract`), both kinds of `sasaki` export, a `patch` warp grid and the full
suite (`lemmas` without `--quick`, the only run of its parameters).  A change that moves any cell must regenerate the directory with the
same command and declare the regeneration with the cells it moved.  The last
digits of some cells depend on numpy's floating-point kernels, so a
different numpy build can move them too; the failure lists each moved
column with its largest difference, or, in a CSV with no header (the `patch`
warp grid, whose second line is already numbers), each moved cell by its row
and column index.
"""

from pathlib import Path

import numpy as np
import pytest

from lagbound.cli import main

DATA = Path(__file__).parent / "data"
REFERENCE = DATA / "lemmas_quick_seed0_512x129"
ARGV = ["lemmas", "--quick", "--seed", "0", "--grid", "512x129"]
# reference directory -> (command, exit code)
EXTRA = {
    "hausdorff_hyperbolic_band_512x129": (
        ["hausdorff", "--patch", "hyperbolic_band", "--grid", "512x129",
         "--curve", "parallel:0", "--curve2", "cos:0.2,2"], 0),
    "family_parallels_pairwise_liouville_class": (
        ["family", "parallels", "--pairwise", "--scan", "liouville_class"], 0),
    "family_plane_circles_pairwise_enclosed_area": (
        ["family", "plane_circles", "--pairwise", "--scan", "enclosed_area"],
        0),
    **{f"figure_{fam}": (["figure", fam], 0)
       for fam in ("escape_cos", "parallels", "plane_circles", "hs_family",
                   "hs_variant_alpha")},
    "tameness_sphere_equator_512x129": (
        ["tameness", "--patch", "sphere_equator", "--grid", "512x129",
         "--curve", "cos:0.1,3"], 0),
    "classify_sphere_equator_512x129": (
        ["classify", "--patch", "sphere_equator", "--grid", "512x129",
         "--curve", "cos:0.1,3", "--k", "5"], 0),
    **{f"{cmd}_sphere_equator_256x65": (
        [cmd, "--patch", "sphere_equator", "--grid", "256x65", *flags], 0)
       for cmd, flags in (
           ("curvature", ["--curve", "cos:0.1,3"]),
           ("exactify", ["--curve", "cos:0.1,3", "--alpha", "0.5"]),
           ("contract", ["--curve", "cos:0.05,3", "--n-alpha", "4"]))},
    "sasaki_round_sphere_states2_horizon1": (
        ["sasaki", "--base", "round_sphere", "--states", "2", "--horizon", "1"],
        0),
    "sasaki_flat_torus_sweep0.05": (
        ["sasaki", "--base", "flat_torus", "--sweep", "0.05"], 0),
    "patch_sphere_equator_32x17": (
        ["patch", "--patch", "sphere_equator", "--grid", "32x17"], 0),
    "lemmas_full_seed0": (["lemmas", "--seed", "0"], 0),
}


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _column_changes(name: str, columns: list, ref_rows: list,
                    got_rows: list) -> list:
    """One line per changed column: its changed-cell count and, when every
    changed cell is numeric, the largest absolute and relative difference."""
    lines = []
    for k, col in enumerate(columns):
        pairs = [(r[k], g[k]) for r, g in zip(ref_rows, got_rows) if r[k] != g[k]]
        if not pairs:
            continue
        nums = [(_as_float(r), _as_float(g)) for r, g in pairs]
        if all(r is not None and g is not None for r, g in nums):
            ref, got = np.array(nums).T
            with np.errstate(divide="ignore", invalid="ignore"):
                diff = np.abs(got - ref)
                rel = np.where(ref != 0, diff / np.abs(ref), np.inf)
            lines.append(f"{name}:{col}: {len(pairs)} cells, largest absolute "
                         f"difference {np.max(diff):.3g}, largest relative "
                         f"difference {np.max(rel):.3g}")
        else:
            lines.append(f"{name}:{col}: {len(pairs)} cells, e.g. "
                         f"{pairs[0][0]!r} -> {pairs[0][1]!r}")
    return lines


def _cell_changes(name: str, ref_rows: list, got_rows: list) -> list:
    """One line per changed cell of a CSV with no header, by row and column
    index (both from 0, rows counted after the meta line)."""
    return [f"{name}: row {i}, column {k}: {r!r} -> {g!r}"
            for i, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows))
            for k, (r, g) in enumerate(zip(ref_row, got_row)) if r != g]


def _bundle_changes(ref_dir: Path, got_dir: Path) -> list:
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    got_files = sorted(p.name for p in got_dir.iterdir())
    if ref_files != got_files:
        return [f"files: {ref_files} -> {got_files}"]
    changes = []
    for name in ref_files:
        ref = (ref_dir / name).read_bytes()
        got = (got_dir / name).read_bytes()
        if ref == got:
            continue
        ref_lines = ref.decode("utf-8").splitlines()
        got_lines = got.decode("utf-8").splitlines()
        # a second line of numbers is data: the file has no header
        has_header = not (len(ref_lines) > 1 and all(
            _as_float(cell) is not None for cell in ref_lines[1].split(",")))
        top = 1 + has_header
        if (ref_lines[:top] != got_lines[:top]
                or len(ref_lines) != len(got_lines)):
            changes.append(f"{name}: meta, header or row count "
                           f"{ref_lines[:top]} ({len(ref_lines)} lines) -> "
                           f"{got_lines[:top]} ({len(got_lines)} lines)")
            continue
        ref_rows = [line.split(",") for line in ref_lines[top:]]
        got_rows = [line.split(",") for line in got_lines[top:]]
        if [len(r) for r in ref_rows] != [len(g) for g in got_rows]:
            changes.append(f"{name}: a row's cell count changed")
            continue
        changes += ((_column_changes(name, ref_lines[1].split(","), ref_rows,
                                     got_rows) if has_header
                     else _cell_changes(name, ref_rows, got_rows))
                    or [f"{name}: same cells, different bytes"])
    return changes


def test_quick_bundle_matches_the_reference(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([*ARGV, "--out", str(out)])
    capsys.readouterr()
    changes = _bundle_changes(REFERENCE, out)
    print("\n".join(changes))
    assert not changes, "\n".join(changes)
    assert code == 0


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_extra_output_matches_the_reference(tmp_path, capsys, name):
    argv, expected = EXTRA[name]
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    capsys.readouterr()
    changes = _bundle_changes(DATA / name, out)
    assert not changes, "\n".join(changes)
    assert code == expected


def test_a_moved_cell_of_a_grid_without_header_is_named(tmp_path):
    ref = DATA / "patch_sphere_equator_32x17"
    got = tmp_path / "got"
    got.mkdir()
    (name,) = (p.name for p in ref.iterdir())
    meta, first, *rest = (ref / name).read_text().splitlines()
    cells = first.split(",")
    cells[3] = repr(float(cells[3]) + 1e-9)
    (got / name).write_text("\n".join([meta, ",".join(cells), *rest]) + "\n")
    assert _bundle_changes(ref, got) == [
        f"{name}: row 0, column 3: {first.split(',')[3]!r} -> {cells[3]!r}"]
