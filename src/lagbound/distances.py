"""Shortest-path distances on a patch in the band metric w^2 ds^2 + dt^2.

The band is discretized on a decimated uniform grid (wrapping in s) and turned
into a weighted graph whose edges follow the 16-neighbor stencil of lattice
directions; edge weights are Simpson quadratures of the metric length of the
straight coordinate segment.  The build evaluates w once at the nodes and once
at each undirected edge's midpoint, and stores each edge in both directions,
so the graph is exactly symmetric; it is kept as a CSR matrix, and a patch
caches one such graph, on `default_dist_grid`, for all its queries and its
error estimate.  Shortest paths are computed with scipy's Dijkstra.

Two refinements keep point queries sharp:

* arbitrary points are injected as extra graph nodes linked to the surrounding
  grid nodes, which removes snapping error from curve-to-curve queries;
* nearby injected points are additionally joined by direct quadrature edges,
  so short chords are measured by quadrature rather than by grid hops.  A
  pairwise query joins every pair whose coordinate arc is at most 1 / min(w),
  which covers every pair within ambient distance 1; a set query joins every
  cross pair near in s, in any point order.  A straight coordinate chord is
  an in-band path, so it can only lower a distance toward the truth.

A query graph is the cached CSR with the grid -> point links inserted at the
ends of their rows and the point rows appended, so no query re-sorts the grid.

`pairwise_point_distances` and `set_to_set_distances` are the one place
that chooses between formula and graph: on a flat cylinder they use the exact
unrolled formula `surface.cylinder_distance`, and every other query, like a
pairwise query with a conformal `scale` (only pairwise queries take one), runs
on the graph.  A flat set query reads the formula only on a window of sources
around each target: a target's neighbours in s bound its distance by U, and
no source farther than U in s can be nearest, so the window returns the
dense minima bit for bit.

`set_to_set_distances` is the one set query, and it answers both directions
of a Hausdorff query: on the flat cylinder the windowed formula runs once
each way; on the graph it builds one query graph over both sets and runs one
nearest-source search from each set.

A pairwise query may carry a distance cap `limit`: entries <= limit are
exactly the uncapped values and every other entry is `inf`, on both paths.
On the graph Dijkstra stops at the cap, which is exact because every path of
length <= limit runs through nodes within limit of its source.  The tameness
scans pass the cap 1, the only range in which a pair can set epsilon.

The stencil overestimates oblique distances by at most its anisotropy ratio
(about 2.8% for the 16-neighbor stencil); the comparison between the 8- and
16-neighbor results provides the per-patch empirical error estimate, with the
8-neighbor graph filtered from the graph the queries use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .numerics import simpson_rule, wrap_difference
from .surface import cylinder_distance

DEFAULT_DIST_GRID = (128, 129)
_DIRECT_REACH = 0.4  # least coordinate arc joined by direct quadrature edges

_SIMPSON3_X, _SIMPSON3 = simpson_rule(3)
_SIMPSON5_X, _SIMPSON5 = simpson_rule(5)
# the 16-neighbor stencil is the coprime (a, b) with |a|, |b| <= 2; each
# undirected edge is built once, along the half with a > 0 or (a = 0, b > 0)
_HALF_STENCIL = [(a, b) for a in range(3) for b in range(-2, 3)
                 if (a > 0 or b > 0) and gcd(a, abs(b)) == 1]
_LINK_STEPS = np.array([-1, 0, 1, 2])  # grid steps from a point's cell corner


def _segment_lengths(patch, s0, t0, s1, t1, scale=None, weights=_SIMPSON3,
                     nodes=_SIMPSON3_X, at_start=None):
    """Quadrature of the metric length of straight (s, t) segments.

    `at_start` may hold w and the scale (or None) already read at (s0, t0),
    which the first node then reuses: s0 + 0 * ds is s0.
    """
    ds = np.asarray(s1 - s0, dtype=float)
    dt = np.asarray(t1 - t0, dtype=float)
    total = 0.0
    for wq, xq in zip(weights, nodes):
        sq = s0 + xq * ds
        tq = t0 + xq * dt
        if xq == 0.0 and at_start is not None:
            wv, sc = at_start
        else:
            wv = patch.grid_w(sq, tq)
            sc = None if scale is None else scale(sq, tq)
        sp = np.sqrt((wv * ds) ** 2 + dt ** 2)
        if scale is not None:
            sp = sp * sc
        total = total + wq * sp
    return total


@dataclass
class BandGraph:
    """16-neighbor stencil graph over a decimated band grid (node i * n_td + j
    sits at (s_d[i], t_d[j])), as a CSR matrix.  It keeps the band's length,
    not the band, which caches its graph."""

    length: float
    n_sd: int
    n_td: int
    s_d: np.ndarray
    t_d: np.ndarray
    csr: csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.n_sd * self.n_td

    @property
    def weights(self) -> np.ndarray:
        return self.csr.data


def default_dist_grid(patch) -> tuple[int, int]:
    """Decimated grid with roughly metric-square cells (h_t close to h_s)."""
    n_sd = min(DEFAULT_DIST_GRID[0], patch.n_s)
    h_s = patch.length / n_sd
    n_td = int(round(2.0 * patch.halfwidth / h_s)) + 1
    if n_td % 2 == 0:
        n_td += 1
    return n_sd, min(max(17, min(n_td, DEFAULT_DIST_GRID[1])), patch.n_t)


def build_band_graph(patch, scale=None) -> BandGraph:
    """16-neighbor stencil graph of the band on `default_dist_grid`.

    w and `scale` are evaluated once at the nodes and once at the midpoint of
    each undirected edge, whose Simpson length is stored in both directions.
    The graph of the unscaled metric is cached on the patch; a conformal
    `scale` factor builds a fresh graph each call.
    """
    if scale is None and patch._dist_graph is not None:
        return patch._dist_graph
    n_sd, n_td = default_dist_grid(patch)
    s_d = np.arange(n_sd) * (patch.length / n_sd)
    t_d = np.linspace(patch.t[0], patch.t[-1], n_td)
    h_s, h_t = patch.length / n_sd, t_d[1] - t_d[0]
    ss, tt = np.meshgrid(s_d, t_d, indexing="ij")
    w = patch.grid_w(ss, tt)
    sc = 1.0 if scale is None else scale(ss, tt)
    node = np.arange(n_sd * n_td).reshape(n_sd, n_td)
    # slot k holds the edge along _HALF_STENCIL[k], slot 8 + k its reverse
    cols = np.full((n_sd, n_td, 16), -1, dtype=np.int32)
    wts = np.empty((n_sd, n_td, 16))
    for k, (a, b) in enumerate(_HALF_STENCIL):
        ds, dt = a * h_s, b * h_t
        lo, hi = max(0, -b), n_td - max(0, b)  # rows j with j + b on the grid
        sp = np.sqrt((w * ds) ** 2 + dt ** 2) * sc
        sm, tm = ss[:, lo:hi] + 0.5 * ds, tt[:, lo:hi] + 0.5 * dt
        spm = np.sqrt((patch.grid_w(sm, tm) * ds) ** 2 + dt ** 2)
        if scale is not None:
            spm = spm * scale(sm, tm)
        edge = (_SIMPSON3[0] * sp[:, lo:hi] + _SIMPSON3[1] * spm
                + _SIMPSON3[2] * np.roll(sp, -a, axis=0)[:, lo + b:hi + b])
        cols[:, lo:hi, k] = np.roll(node, -a, axis=0)[:, lo + b:hi + b]
        wts[:, lo:hi, k] = edge
        cols[:, lo + b:hi + b, 8 + k] = np.roll(node[:, lo:hi], a, axis=0)
        wts[:, lo + b:hi + b, 8 + k] = np.roll(edge, a, axis=0)
    ok = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(ok.sum(axis=2).ravel())])
    graph = BandGraph(patch.length, n_sd, n_td, s_d, t_d,
                      csr_matrix((wts[ok], cols[ok], indptr),
                                 shape=(n_sd * n_td,) * 2))
    if scale is None:
        patch._dist_graph = graph
    return graph


def _point_link_edges(patch, graph: BandGraph, pts: np.ndarray, scale=None):
    """Edges (point index, grid node, length) from each injected point to the
    4x4 nodes of `patch`'s graph around it."""
    h_s, h_t = patch.length / graph.n_sd, graph.t_d[1] - graph.t_d[0]
    i0 = np.floor(pts[:, 0] / h_s).astype(int)
    j0 = np.clip(np.floor((pts[:, 1] - graph.t_d[0]) / h_t).astype(int),
                 0, graph.n_td - 2)
    gi = (i0[:, None] + np.repeat(_LINK_STEPS, 4)) % graph.n_sd
    gj = j0[:, None] + np.tile(_LINK_STEPS, 4)
    ok = (gj >= 0) & (gj < graph.n_td)
    p = np.nonzero(ok)[0]
    gi, gj, s0 = gi[ok], gj[ok], pts[p, 0]
    # w (and scale) at each point once, for all its links
    w_pt = patch.grid_w(pts[:, 0], pts[:, 1])
    sc_pt = None if scale is None else np.broadcast_to(
        scale(pts[:, 0], pts[:, 1]), pts[:, 0].shape)[p]
    seg = _segment_lengths(patch, s0, pts[p, 1],
                           s0 + wrap_difference(graph.s_d[gi], s0, patch.length),
                           graph.t_d[gj], scale, at_start=(w_pt[p], sc_pt))
    return p, gi * graph.n_td + gj, seg


def _ring_pairs(n: int, k_max: int, offset: int = 0) -> np.ndarray:
    """Each unordered index pair {i, i+k mod n} with k <= k_max once, shifted
    by a block offset."""
    i = np.arange(n)
    pairs = [np.stack([i, (i + k) % n], axis=1)
             for k in range(1, min(k_max, (n - 1) // 2) + 1)]
    if n % 2 == 0 and k_max >= n // 2:  # k and n - k = k name the same pair
        pairs.append(np.stack([i[:n // 2], i[:n // 2] + n // 2], axis=1))
    return np.concatenate(pairs) + offset if pairs else np.empty((0, 2), dtype=int)


def _query_graph(patch, pts: np.ndarray, pairs: np.ndarray, scale=None):
    """The band graph with `pts` appended as nodes n_nodes + k, each linked to
    the grid around it; each index pair in `pairs` is also joined by a direct
    quadrature edge.  New entries go to the ends of their rows."""
    graph = build_band_graph(patch, scale=scale)
    base, n, m = graph.csr, graph.n_nodes, len(pts)
    p, node, link = _point_link_edges(patch, graph, pts, scale)
    i, j = pairs[:, 0], pairs[:, 1]
    s_j = pts[i, 0] + wrap_difference(pts[j, 0], pts[i, 0], patch.length)
    chord = _segment_lengths(patch, pts[i, 0], pts[i, 1], s_j, pts[j, 1], scale,
                             _SIMPSON5, _SIMPSON5_X)
    rows = np.concatenate([node, n + p, n + i, n + j])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([n + p, node, n + j, n + i])[order]
    wts = np.concatenate([link, link, chord, chord])[order]
    ends = np.concatenate([base.indptr, np.full(m, base.nnz)])
    at = ends[rows[order] + 1]
    counts = np.bincount(rows, minlength=n + m)
    indptr = ends + np.concatenate([[0], np.cumsum(counts)])
    return csr_matrix((np.insert(base.data, at, wts),
                       np.insert(base.indices, at, cols), indptr),
                      shape=(n + m, n + m))


def _injected_distances(patch, pts: np.ndarray, pairs: np.ndarray,
                        source_sets, scale=None, min_only: bool = False,
                        limit: float = np.inf) -> list:
    """Shortest paths on one `_query_graph` from each index range in
    `source_sets` of `pts` to every point of `pts`, one array per range.
    With `min_only` a range's result is the distance from its nearest point.
    Distances above `limit` are `inf`."""
    csr = _query_graph(patch, pts, pairs, scale)
    ids = csr.shape[0] - len(pts) + np.arange(len(pts))
    return [dijkstra(csr, directed=True, indices=ids[sources],
                     min_only=min_only, limit=limit)[..., ids]
            for sources in source_sets]


def pairwise_point_distances(patch, pts: np.ndarray, scale=None,
                             limit: float = np.inf) -> np.ndarray:
    """All-pairs distance matrix between band points (one ring of points).

    Flat cylinders without a conformal `scale` use the exact unrolled formula.
    Otherwise points are injected into the band graph, and ring pairs whose
    coordinate arc is at most 1 / min(w) (over min(scale) too, at least
    `_DIRECT_REACH`) are also joined by direct quadrature edges: every pair
    within ambient distance 1 has such an arc, as d >= min(w) |ds|.  Entries
    above `limit` are `inf`; the others are the uncapped values bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    patch.require_inside(pts[:, 1], margin=0.0)
    if scale is None and patch.is_flat_cylinder:
        d = cylinder_distance(patch.length, pts[:, None], pts[None])
        return np.where(d > limit, np.inf, d)
    n = pts.shape[0]
    w_min = float(np.min(patch.w))
    if scale is not None:
        w_min *= float(np.min(scale(*np.meshgrid(patch.s, patch.t,
                                                 indexing="ij"))))
    reach = max(_DIRECT_REACH, 1.0 / w_min)
    k_max = max(1, int(np.ceil(reach / (patch.length / n))))
    return _injected_distances(patch, pts, _ring_pairs(n, k_max),
                               [slice(0, n)], scale, limit=limit)[0]


def _s_window(u: np.ndarray, centers: np.ndarray, half,
              length: float) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic window |ds| <= `half` around each center of the points at
    `u` (s mod length, sorted): each window's size and the concatenated
    windows' indices into `u`, each point at most once per window."""
    n = len(u)
    ring = np.concatenate([u - length, u, u + length])
    lo = np.searchsorted(ring, centers - half, side="left")
    count = np.minimum(np.searchsorted(ring, centers + half, side="right") - lo, n)
    starts = np.cumsum(count) - count
    return count, (np.arange(count.sum()) + np.repeat(lo - starts, count)) % n


def _nearest_on_cylinder(length: float, sources: np.ndarray,
                         targets: np.ndarray) -> np.ndarray:
    """`cylinder_distance(length, targets[:, None], sources[None]).min(axis=1)`
    from the sources in a window around each target.

    With the sources sorted by s mod length, the distance U to a target's
    neighbour in s bounds its distance, and no source farther than U in s can
    be nearest.  The cyclic index window |ds| <= U, padded by a relative
    1e-12 for the rounding of s mod length, holds the dense argmin under the
    dense formula and argument order, so the minima are the same bits.
    """
    ns = len(sources)
    u = sources[:, 0] % length
    order = np.argsort(u, kind="stable")
    u, sources = u[order], sources[order]
    u_t = targets[:, 0] % length
    k = np.searchsorted(u, u_t)
    near = sources[np.stack([(k - 1) % ns, k % ns], axis=1)]
    upper = cylinder_distance(length, targets[:, None], near).min(axis=1)
    half = upper * (1.0 + 1e-12) + 1e-12 * (
        length + np.abs(sources[:, 0]).max() + np.abs(targets[:, 0]).max(initial=0.0))
    count, idx = _s_window(u, u_t, half, length)
    d = cylinder_distance(length, np.repeat(targets, count, axis=0), sources[idx])
    return np.minimum.reduceat(d, np.cumsum(count) - count)


def set_to_set_distances(patch, a: np.ndarray,
                         b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both one-way fields between two point sets: the distance from each
    point of `a` to the set `b`, and from each point of `b` to the set `a`.

    Flat cylinders use the exact unrolled formula on a window of sources
    around each target (`_nearest_on_cylinder`), once in each direction.
    Otherwise both sets are injected into one query graph, and direct edges
    join index neighbours within a set (neighbours along the curve) and,
    across the sets, where only s tells nearness, every pair at most
    max(_DIRECT_REACH, length / min(len(a), len(b))) apart in s, in whatever
    order the points arrive (so e.g. vertical chords between two graphs over
    the same base are exact).  Both fields come from that graph, one
    nearest-source search from each set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    patch.require_inside(np.concatenate([b[:, 1], a[:, 1]]), margin=0.0)
    if patch.is_flat_cylinder:
        return (_nearest_on_cylinder(patch.length, b, a),
                _nearest_on_cylinder(patch.length, a, b))
    nb, na = len(b), len(a)
    # `reach` holds each point's neighbours in s on the other set
    reach = max(_DIRECT_REACH, patch.length / min(nb, na))
    u = a[:, 0] % patch.length
    order = np.argsort(u, kind="stable")
    count, idx = _s_window(u[order], b[:, 0] % patch.length, reach,
                           patch.length)
    pairs = [_ring_pairs(nb, 2), _ring_pairs(na, 2, offset=nb),
             np.stack([np.repeat(np.arange(nb), count), nb + order[idx]], axis=1)]
    from_b, from_a = _injected_distances(patch, np.concatenate([b, a]),
                                         np.concatenate(pairs),
                                         [slice(0, nb), slice(nb, None)],
                                         min_only=True)
    return from_b[nb:], from_a[:nb]


def _eight_neighbor(graph: BandGraph) -> csr_matrix:
    """The 8-neighbor stencil graph: the edges of `graph` with |di|, |dj| <= 1."""
    csr = graph.csr
    rows = np.repeat(np.arange(graph.n_nodes), np.diff(csr.indptr))
    di = (csr.indices // graph.n_td - rows // graph.n_td + 1) % graph.n_sd
    dj = csr.indices % graph.n_td - rows % graph.n_td
    keep = (di <= 2) & (np.abs(dj) <= 1)
    indptr = np.concatenate([[0], np.cumsum(keep)])[csr.indptr]
    return csr_matrix((csr.data[keep], csr.indices[keep], indptr), shape=csr.shape)


def estimate_stencil_error(patch) -> float:
    """Max relative gap between 8- and 16-neighbor shortest paths on the band,
    from a central source.  Both overestimate; the gap bounds the anisotropy
    improvement still available and serves as the documented error estimate.
    """
    graph = build_band_graph(patch)
    node = (graph.n_td - 1) // 2
    d8, d16 = (dijkstra(g, directed=True, indices=node)
               for g in (_eight_neighbor(graph), graph.csr))
    mask = d16 > 0.25 * np.median(d16)
    if not mask.any():
        return 0.0
    return float(np.max((d8[mask] - d16[mask]) / d16[mask]))
