"""Shortest-path distances on a patch in the band metric w^2 ds^2 + dt^2.

The band is discretized on a decimated uniform grid (wrapping in s) and turned
into a weighted graph whose edges follow a wide stencil of lattice directions;
edge weights are Simpson quadratures of the metric length of the straight
coordinate segment.  Shortest paths are computed with scipy's Dijkstra.

Two refinements keep point queries sharp:

* arbitrary points are injected as extra graph nodes linked to the surrounding
  grid nodes, which removes snapping error from curve-to-curve queries;
* nearby injected points are additionally joined by direct quadrature edges,
  so short chords are measured by quadrature rather than by grid hops.

`pairwise_point_distances` and `set_to_points_distance` are the one place that
chooses between formula and graph: on a flat cylinder without a conformal
scale they use the exact unrolled formula `surface.cylinder_distance`, and
every other query runs on the graph.

A pairwise query may carry a distance cap `limit`: entries <= limit are
exactly the uncapped values and every other entry is `inf`, on both paths.
On the graph Dijkstra stops at the cap, which is exact because every path of
length <= limit runs through nodes within limit of its source.  The tameness
scans pass the cap 1, the only range in which a pair can set epsilon.

The stencil overestimates oblique distances by at most its anisotropy ratio
(about 2.8% for the 16-neighbor stencil); the comparison between the 8- and
16-neighbor results provides the per-patch empirical error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .numerics import wrap_difference
from .surface import cylinder_distance

DEFAULT_DIST_GRID = (256, 129)
_DIRECT_REACH = 0.4  # coordinate arc joined by direct quadrature edges

_SIMPSON5 = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
_SIMPSON5_X = np.linspace(0.0, 1.0, 5)


def stencil_offsets(order: int) -> np.ndarray:
    """Coprime lattice directions with max coordinate <= radius(order)."""
    radius = {8: 1, 16: 2}[order]
    offs = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if (a, b) == (0, 0):
                continue
            if gcd(abs(a), abs(b)) == 1:
                offs.append((a, b))
    return np.array(sorted(offs))


def _segment_lengths(patch, s0, t0, s1, t1, scale=None, weights=None, nodes=None):
    """Quadrature of the metric length of straight (s, t) segments."""
    if weights is None:
        weights = np.array([1.0, 4.0, 1.0]) / 6.0
        nodes = np.array([0.0, 0.5, 1.0])
    ds = np.asarray(s1 - s0, dtype=float)
    dt = np.asarray(t1 - t0, dtype=float)
    total = 0.0
    for wq, xq in zip(weights, nodes):
        sq = s0 + xq * ds
        tq = t0 + xq * dt
        wv = patch.grid_w(sq, tq)
        sp = np.sqrt((wv * ds) ** 2 + dt ** 2)
        if scale is not None:
            sp = sp * scale(sq, tq)
        total = total + wq * sp
    return total


@dataclass
class BandGraph:
    """Stencil graph over a decimated band grid, plus construction metadata."""

    patch: object
    n_sd: int
    n_td: int
    s_d: np.ndarray
    t_d: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_sd * self.n_td

    def csr(self, extra=None, n_extra: int = 0) -> csr_matrix:
        n = self.n_nodes + n_extra
        rows, cols, wts = self.rows, self.cols, self.weights
        if extra is not None:
            er, ec, ew = extra
            rows = np.concatenate([rows, er])
            cols = np.concatenate([cols, ec])
            wts = np.concatenate([wts, ew])
        return csr_matrix((wts, (rows, cols)), shape=(n, n))


def default_dist_grid(patch, n_sd: int | None = None) -> tuple[int, int]:
    """Decimated grid with roughly metric-square cells (h_t close to h_s)."""
    n_sd = min(n_sd or DEFAULT_DIST_GRID[0], patch.n_s)
    h_s = patch.length / n_sd
    n_td = int(round(2.0 * patch.halfwidth / h_s)) + 1
    if n_td % 2 == 0:
        n_td += 1
    n_td = max(17, min(n_td, DEFAULT_DIST_GRID[1], patch.n_t))
    return n_sd, n_td


def build_band_graph(patch, dist_grid=None, stencil: int = 16,
                     scale=None) -> BandGraph:
    """Stencil graph of the band on `dist_grid` (default: `default_dist_grid`).

    Graphs of the unscaled metric are cached on the patch; a conformal
    `scale` factor builds a fresh graph each call.
    """
    if dist_grid is None:
        dist_grid = default_dist_grid(patch)
    n_sd = min(dist_grid[0], patch.n_s)
    n_td = min(dist_grid[1], patch.n_t)
    key = (n_sd, n_td, stencil)
    if scale is None and key in patch._dist_graphs:
        return patch._dist_graphs[key]

    s_d = np.arange(n_sd) * (patch.length / n_sd)
    t_d = np.linspace(patch.t[0], patch.t[-1], n_td)
    ds = patch.length / n_sd
    dt = t_d[1] - t_d[0]

    rows_all, cols_all, wts_all = [], [], []
    ii, jj = np.divmod(np.arange(n_sd * n_td), n_td)
    for a, b in stencil_offsets(stencil):
        j2 = jj + b
        ok = (j2 >= 0) & (j2 < n_td)
        i1, j1 = ii[ok], jj[ok]
        i2 = (i1 + a) % n_sd
        s0, t0 = s_d[i1], t_d[j1]
        wts = _segment_lengths(patch, s0, t0, s0 + a * ds, t0 + b * dt, scale)
        rows_all.append(i1 * n_td + j1)
        cols_all.append(i2 * n_td + j2[ok])
        wts_all.append(wts)

    graph = BandGraph(patch, n_sd, n_td, s_d, t_d,
                      np.concatenate(rows_all), np.concatenate(cols_all),
                      np.concatenate(wts_all))
    if scale is None:
        patch._dist_graphs[key] = graph
    return graph


def _point_link_edges(graph: BandGraph, pts: np.ndarray, scale=None):
    """Bidirectional edges between injected points and nearby grid nodes."""
    patch = graph.patch
    ds = patch.length / graph.n_sd
    dt = graph.t_d[1] - graph.t_d[0]
    i0 = np.floor(pts[:, 0] / ds).astype(int)
    j0 = np.clip(np.floor((pts[:, 1] - graph.t_d[0]) / dt).astype(int),
                 0, graph.n_td - 2)
    rows, cols, wts = [], [], []
    for di in (-1, 0, 1, 2):
        for dj in (-1, 0, 1, 2):
            gi = (i0 + di) % graph.n_sd
            gj = j0 + dj
            ok = (gj >= 0) & (gj < graph.n_td)
            pid = graph.n_nodes + np.nonzero(ok)[0]
            node = gi[ok] * graph.n_td + gj[ok]
            seg = _segment_lengths(patch, pts[ok, 0], pts[ok, 1],
                                   pts[ok, 0] + wrap_difference(
                                       graph.s_d[gi[ok]], pts[ok, 0], patch.length),
                                   graph.t_d[gj[ok]], scale)
            rows.extend([pid, node])
            cols.extend([node, pid])
            wts.extend([seg, seg])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(wts)


def _direct_edges(patch, pts: np.ndarray, pairs: np.ndarray, base_id: int, scale=None):
    """Direct quadrature edges between injected point pairs (short chords)."""
    i, j = pairs[:, 0], pairs[:, 1]
    dsw = wrap_difference(pts[j, 0], pts[i, 0], patch.length)
    seg = _segment_lengths(patch, pts[i, 0], pts[i, 1], pts[i, 0] + dsw, pts[j, 1],
                           scale, weights=_SIMPSON5, nodes=_SIMPSON5_X)
    rows = np.concatenate([base_id + i, base_id + j])
    cols = np.concatenate([base_id + j, base_id + i])
    return rows, cols, np.concatenate([seg, seg])


def _ring_pairs(n: int, k_max: int, offset: int = 0) -> np.ndarray:
    """Index pairs (i, i+k mod n) for k=1..k_max, shifted by a block offset."""
    pairs = []
    for k in range(1, min(k_max, n - 1) + 1):
        i = np.arange(n)
        pairs.append(np.stack([i + offset, (i + k) % n + offset], axis=1))
    return np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=int)


def _injected_distances(patch, pts: np.ndarray, pairs: np.ndarray,
                        n_sources: int, scale=None, min_only: bool = False,
                        limit: float = np.inf) -> np.ndarray:
    """Shortest paths from the first `n_sources` of `pts` to every point of
    `pts`, all injected into the band graph; each index pair in `pairs` is
    also joined by a direct quadrature edge.  With `min_only` the result is
    the distance from the nearest source.  Distances above `limit` are
    `inf`."""
    graph = build_band_graph(patch, scale=scale)
    lr, lc, lw = _point_link_edges(graph, pts, scale)
    dr, dc, dw = _direct_edges(patch, pts, pairs, graph.n_nodes, scale)
    csr = graph.csr((np.concatenate([lr, dr]), np.concatenate([lc, dc]),
                     np.concatenate([lw, dw])), n_extra=len(pts))
    ids = graph.n_nodes + np.arange(len(pts))
    dist = dijkstra(csr, directed=True, indices=ids[:n_sources],
                    min_only=min_only, limit=limit)
    return dist[..., ids]


def pairwise_point_distances(patch, pts: np.ndarray, scale=None,
                             limit: float = np.inf) -> np.ndarray:
    """All-pairs distance matrix between band points (one ring of points).

    Flat cylinders without a conformal `scale` use the exact unrolled formula.
    Otherwise points are injected into the band graph, and consecutive points
    within `_DIRECT_REACH` (coordinate arc) are also joined by direct
    quadrature edges.  Entries above `limit` are `inf`; the others are the
    uncapped values bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    patch.require_inside(pts[:, 1], margin=0.0)
    if scale is None and patch.is_flat_cylinder:
        d = cylinder_distance(patch.length, pts[:, None], pts[None])
        return np.where(d > limit, np.inf, d)
    n = pts.shape[0]
    spacing = patch.length / n
    k_max = max(1, int(np.ceil(_DIRECT_REACH / spacing)))
    return _injected_distances(patch, pts, _ring_pairs(n, k_max), n, scale,
                               limit=limit)


def set_to_points_distance(patch, sources: np.ndarray, targets: np.ndarray,
                           scale=None) -> np.ndarray:
    """min over the source set of the distance to each target point.

    Flat cylinders without a conformal `scale` use the exact unrolled formula.
    Otherwise both sets are injected; aligned and nearby cross pairs get
    direct edges (so e.g. vertical chords between two graphs over the same
    base are exact).
    """
    sources = np.asarray(sources, dtype=float)
    targets = np.asarray(targets, dtype=float)
    patch.require_inside(np.concatenate([sources[:, 1], targets[:, 1]]), margin=0.0)
    if scale is None and patch.is_flat_cylinder:
        # one row per target, as wrap_difference is not antisymmetric in floats
        return cylinder_distance(patch.length, targets[:, None],
                                 sources[None]).min(axis=1)
    ns, nt = sources.shape[0], targets.shape[0]
    pairs = [_ring_pairs(ns, 2), _ring_pairs(nt, 2, offset=ns)]
    if ns == nt:
        # each offset once: csr_matrix would sum a repeated edge
        k_cross = max(1, int(np.ceil(_DIRECT_REACH * ns / patch.length)))
        i = np.arange(ns)
        for k in np.unique(np.arange(-k_cross, k_cross + 1) % nt):
            pairs.append(np.stack([i, ns + (i + k) % nt], axis=1))
    pts = np.concatenate([sources, targets])
    field = _injected_distances(patch, pts, np.concatenate(pairs), ns, scale,
                                min_only=True)
    return field[ns:]


def estimate_stencil_error(patch) -> float:
    """Max relative gap between 8- and 16-neighbor shortest paths on the band,
    from a central source.  Both overestimate; the gap bounds the anisotropy
    improvement still available and serves as the documented error estimate.
    """
    dist_grid = default_dist_grid(patch, n_sd=128)
    fields = {}
    for stencil in (8, 16):
        graph = build_band_graph(patch, dist_grid, stencil)
        node = 0 * graph.n_td + (graph.n_td - 1) // 2
        fields[stencil] = dijkstra(graph.csr(), directed=True, indices=node)
    d8, d16 = fields[8], fields[16]
    mask = d16 > 0.25 * np.median(d16)
    if not mask.any():
        return 0.0
    return float(np.max((d8[mask] - d16[mask]) / d16[mask]))
