"""Deterministic CSV and SVG output.

Every CSV starts with a single `# schema=1` comment line (optionally extended
with key=value metadata), uses UTF-8, LF line endings and RFC 4180 quoting,
and formats floats with repr-faithful precision so identical runs produce
identical bytes.  Every file is written through one opener, which makes its
directory; an unwritable path is a configuration error (`ConfigError`, exit 4).

Figures are self-contained SVG files written by hand (no plotting library);
the numeric data is embedded as XML comments for reproducibility.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError

__all__ = ["format_float", "write_csv", "write_curves_svg", "write_warp_csv"]

_PALETTE = ["#1b6ca8", "#c2185b", "#2e7d32", "#e65100", "#5e35b1",
            "#00838f", "#6d4c41", "#37474f", "#9e9d24", "#ad1457"]


def format_float(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    v = float(x)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _write_lines(path, lines) -> str:
    """Write each line and an LF to `path` as UTF-8, making its directory."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:  # a directory or a file under a file at the path
        raise ConfigError(f"cannot write {os.fspath(path)!r}: "
                          f"{exc.strerror or exc}") from exc
    return path


def _cell(value) -> str:
    """Formatted cell; a string with a comma, quote or newline gets quoted."""
    text = format_float(value)
    if isinstance(value, str) and any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row(values) -> str:
    return ",".join(map(_cell, values))


def write_csv(path, columns, rows, meta: dict | None = None) -> str:
    header = ["# schema=1", *(f"{k}={format_float(v)}"
                              for k, v in sorted((meta or {}).items()))]
    return _write_lines(path, [_row(header), _row(columns), *map(_row, rows)])


def write_warp_csv(path, patch) -> str:
    """The patch's warp grid: a meta line with l, r, n_s and n_t, then one
    row of w per column s, with no header."""
    header = (f"# schema=1,l={format_float(patch.length)},"
              f"r={format_float(patch.halfwidth)},n_s={patch.n_s},n_t={patch.n_t}")
    return _write_lines(path, [header, *map(_row, patch.w)])


def _polyline(xs, ys, color, width=1.5):
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def write_curves_svg(path, panels, length: float, halfwidth: float,
                     title: str = "") -> str:
    """Draw panels of band curves: panels is a list of lists of
    (label, s_array, xi_array).  Coordinates are band coordinates (s, t).
    """
    pw, ph, margin, gap = 420.0, 320.0, 40.0, 30.0
    n_pan = len(panels)
    width = margin * 2 + n_pan * pw + (n_pan - 1) * gap
    height = margin * 2 + ph
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
             f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>']
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>')

    for p_i, panel in enumerate(panels):
        x0 = margin + p_i * (pw + gap)
        y0 = margin

        def to_px(s, xi):
            xs = x0 + (np.asarray(s) / length) * pw
            ys = y0 + (1.0 - (np.asarray(xi) + halfwidth) / (2 * halfwidth)) * ph
            return xs, ys

        parts.append(f'<rect x="{x0:.1f}" y="{y0:.1f}" width="{pw:.1f}" '
                     f'height="{ph:.1f}" fill="none" stroke="#888"/>')
        mid_y = y0 + ph / 2
        parts.append(f'<line x1="{x0:.1f}" y1="{mid_y:.1f}" x2="{x0 + pw:.1f}" '
                     f'y2="{mid_y:.1f}" stroke="#ccc" stroke-dasharray="4 3"/>')
        for c_i, (label, s, xi) in enumerate(panel):
            color = _PALETTE[c_i % len(_PALETTE)]
            order = np.argsort(np.asarray(s))
            s_arr = np.asarray(s)[order]
            xi_arr = np.asarray(xi)[order]
            s_closed = np.concatenate([s_arr, [length]])
            xi_closed = np.concatenate([xi_arr, [xi_arr[0]]])
            xs, ys = to_px(s_closed, xi_closed)
            parts.append(f"<!-- data label={label} n={len(s_arr)} "
                         f"max_xi={format_float(np.max(np.abs(xi_arr)))} -->")
            parts.append(_polyline(xs, ys, color))
            parts.append(f'<text x="{x0 + 8:.1f}" y="{y0 + 16 + 14 * c_i:.1f}" '
                         f'font-family="monospace" font-size="11" '
                         f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return _write_lines(path, parts)
