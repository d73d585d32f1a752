"""Hausdorff distance between sampled curves in a band, and the radial-path
distance identities satisfied by vertical scalings of a graph.

The distance between closed sets is the max of the two directed sup-min scans
over point samples, at most one scan point per curve sample; both scans come
from one call of `distances.set_to_set_distances`, the one set query, which
answers both directions at once.  Since the ambient distance
is 1-Lipschitz in each argument the sampling error is bounded by the largest
metric spacing of the scan points, plus the shortest-path field error on
curved patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import PatchMismatch
from .exactness import shifted_curve

__all__ = [
    "HausdorffResult",
    "hausdorff_distance",
    "radial_path_check",
    "contraction_path_bound_check",
]


@dataclass
class HausdorffResult:
    value: float
    directed_ab: float
    directed_ba: float
    witness_ab: tuple[tuple[float, float], float]
    witness_ba: tuple[tuple[float, float], float]
    error: float


def hausdorff_distance(a: Curve, b: Curve,
                       n_scan: int | None = None) -> HausdorffResult:
    """Hausdorff distance between two sampled curves on the same patch."""
    if a.patch is not b.patch:
        raise PatchMismatch("curves live on different patches")
    patch = a.patch
    flat = patch.is_flat_cylinder
    if n_scan is None:
        n_scan = min(1024, a.n, b.n) if flat else 256
    (idx_a, gap_a), (idx_b, gap_b) = a.scan(n_scan), b.scan(n_scan)
    pts_a, pts_b = a.points(idx_a), b.points(idx_b)

    from .distances import set_to_set_distances

    to_a, to_b = set_to_set_distances(patch, pts_a, pts_b)
    ia, ib = int(np.argmax(to_a)), int(np.argmax(to_b))
    d_ab, wit_ab = float(to_a[ia]), (tuple(pts_a[ia]), float(to_a[ia]))
    d_ba, wit_ba = float(to_b[ib]), (tuple(pts_b[ib]), float(to_b[ib]))
    field_err = 0.0 if flat else patch.stencil_error_ratio() * max(d_ab, d_ba)

    err = max(gap_a, gap_b) + field_err
    return HausdorffResult(value=max(d_ab, d_ba), directed_ab=d_ab,
                           directed_ba=d_ba, witness_ab=wit_ab,
                           witness_ba=wit_ba, error=float(err))


def radial_path_check(section: Curve, scale_pairs,
                      tol_factor: float = 2.0) -> list:
    """Check that vertical scalings of a graph realize Hausdorff distance
    |t - s| * max|xi| for each requested (t, s) pair.

    Rows carry (t, s, measured, expected, residual, tolerance, pass);
    tolerance is tol_factor * (metric sample spacing + distance-field error)
    and pass is residual <= tolerance.
    """
    sup = section.sup_norm()
    section.patch.require_inside(section.xi)
    rows = []
    for tv, sv in scale_pairs:
        ca, cb = (shifted_curve(section, 0.0, f) for f in (tv, sv))
        res = hausdorff_distance(ca, cb)
        expected = abs(tv - sv) * sup
        residual, tol = abs(res.value - expected), tol_factor * res.error
        rows.append((float(tv), float(sv), res.value, expected, residual, tol,
                     residual <= tol))
    return rows


def contraction_path_bound_check(path) -> list:
    """Check the Lipschitz bound delta_H(graph_a, graph_a') <= 2 |a - a'| max|xi|
    along a contraction path (duck-typed: needs .alphas, .curves, .xi), each
    pair with its measured error as slack.

    Rows carry (a, a', delta_H, bound, delta_H - bound, pass), where pass is
    delta_H <= bound + error; the check holds when every row passes.
    """
    sup = path.xi.sup_norm()
    rows = []
    m = len(path.alphas)
    for i in range(m):
        for j in range(i + 1, m):
            res = hausdorff_distance(path.curves[i], path.curves[j])
            bound = 2.0 * abs(path.alphas[i] - path.alphas[j]) * sup
            rows.append((float(path.alphas[i]), float(path.alphas[j]),
                         res.value, bound, res.value - bound,
                         res.value <= bound + res.error))
    return rows
