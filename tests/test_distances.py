import gc
import weakref

import numpy as np
import pytest

from lagbound import distances
from lagbound.config import build_patch_from_spec
from lagbound.curves import Curve, trig_curve
from lagbound.distances import (_SIMPSON5, _SIMPSON5_X, _eight_neighbor,
                                _segment_lengths, build_band_graph,
                                default_dist_grid, pairwise_point_distances,
                                set_to_set_distances)
from lagbound.errors import OutOfPatch
from lagbound.hausdorff import hausdorff_distance
from lagbound.numerics import wrap_difference
from lagbound.surface import (cylinder_distance, flat_cylinder,
                              hyperbolic_band, plane_annulus, sphere_band)
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

BANDS = {
    "sphere": lambda: sphere_band(0.6, (512, 129)),
    "hyperbolic": lambda: hyperbolic_band(0.6, (512, 129)),
    "plane": lambda: plane_annulus(2.0, 1.0, (512, 129)),
    "spec": lambda: build_patch_from_spec({
        "length": 2 * np.pi, "halfwidth": 0.6, "kappa": "0.1*cos(s)",
        "gauss": "0.3 + 0.1*sin(s)*exp(-t*t)", "grid": [512, 129]}),
}


def _dyadic_band():
    """A band whose graph nodes and stencil steps are exact binary fractions,
    so a quadrature reference rounds no step of its own."""
    return build_patch_from_spec({
        "length": 8.0, "halfwidth": 0.5, "kappa": "0.05*cos(pi*s/4)",
        "gauss": "0.3 + 0.2*sin(pi*s/4)*exp(-t*t)", "grid": [512, 129]})


def _phi_scale(s, t):  # a conformal factor of period 8 in s
    return np.exp(0.2 * np.sin(np.pi * s / 4) * t + 0.1 * t * t)


@pytest.fixture(scope="module", params=sorted(BANDS))
def band(request):
    return BANDS[request.param]()


def _captured_graphs(monkeypatch):
    """Every graph handed to Dijkstra while the test runs."""
    graphs = []
    original = distances.dijkstra

    def spy(csgraph, *args, **kwargs):
        graphs.append(csgraph)
        return original(csgraph, *args, **kwargs)

    monkeypatch.setattr(distances, "dijkstra", spy)
    return graphs


def _chord(patch, pts, i, j):
    dsw = wrap_difference(pts[j, 0], pts[i, 0], patch.length)
    return _segment_lengths(patch, pts[i, 0], pts[i, 1], pts[i, 0] + dsw,
                            pts[j, 1], weights=_SIMPSON5, nodes=_SIMPSON5_X)


class TestOutOfPatch:
    # both queries accept points up to the band's edge, not on or past it
    @pytest.mark.parametrize("edge_t", [0.6, -0.6, 0.7])
    @pytest.mark.parametrize("band", [
        lambda: sphere_band(0.6, (64, 17)),
        lambda: flat_cylinder(halfwidth=0.6, grid=(64, 17))],
        ids=["sphere", "flat"])
    def test_points_on_or_past_the_edge(self, band, edge_t):
        patch = band()
        s = np.linspace(0.0, patch.length, 6, endpoint=False)
        inside = np.stack([s, 0.3 * np.cos(s)], axis=1)
        outside = inside.copy()
        outside[2, 1] = edge_t
        with pytest.raises(OutOfPatch):
            pairwise_point_distances(patch, outside)
        with pytest.raises(OutOfPatch):
            set_to_set_distances(patch, inside, outside)
        with pytest.raises(OutOfPatch):
            set_to_set_distances(patch, outside, inside)


class TestQueryGraph:
    @pytest.fixture(scope="class")
    def short(self):
        # length 0.6: every point is within direct reach of every other
        return build_patch_from_spec({"length": 0.6, "halfwidth": 0.5,
                                      "gauss": 1.0, "grid": [64, 33]})

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("query", ["pairwise", "set_to_set"])
    def test_direct_edges_are_single(self, short, monkeypatch, n, query):
        graphs = _captured_graphs(monkeypatch)
        s = np.arange(n) * (short.length / n) + 0.01
        pts = np.stack([s, 0.1 * np.cos(s)], axis=1)
        if query == "pairwise":
            pairwise_point_distances(short, pts)
        else:
            pts = np.concatenate([pts, pts + [0.02, -0.15]])
            set_to_set_distances(short, pts[n:], pts[:n])
        csr = graphs[0]  # a set query searches it once from each set
        coo = csr.tocoo()
        keys = coo.row.astype(np.int64) * csr.shape[1] + coo.col
        assert np.unique(keys).size == keys.size
        base = csr.shape[0] - len(pts)
        direct = (coo.row >= base) & (coo.col >= base)
        assert direct.any()
        for r, c, w in zip(coo.row[direct] - base, coo.col[direct] - base,
                           coo.data[direct]):
            assert w == pytest.approx(_chord(short, pts, r, c), rel=1e-12)


def _edge_ends(graph, csr):
    """(s0, t0, s1, t1) of every stored entry: its row's node, and that node
    moved by the entry's stencil step."""
    coo = csr.tocoo()
    i, j = np.divmod(coo.row, graph.n_td)
    i2, j2 = np.divmod(coo.col, graph.n_td)
    di = (i2 - i + 2) % graph.n_sd - 2
    h_s, h_t = graph.length / graph.n_sd, graph.t_d[1] - graph.t_d[0]
    s0, t0 = graph.s_d[i], graph.t_d[j]
    return coo, s0, t0, s0 + di * h_s, t0 + (j2 - j) * h_t


def _eight_stencil_reference(patch, dist_grid):
    """The 8-neighbor graph built edge by edge in both directions."""
    n_sd, n_td = dist_grid
    s_d = np.arange(n_sd) * (patch.length / n_sd)
    t_d = np.linspace(patch.t[0], patch.t[-1], n_td)
    h_s, h_t = patch.length / n_sd, t_d[1] - t_d[0]
    ii, jj = np.divmod(np.arange(n_sd * n_td), n_td)
    rows, cols, wts = [], [], []
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            if (a, b) == (0, 0):
                continue
            ok = (jj + b >= 0) & (jj + b < n_td)
            i1, j1 = ii[ok], jj[ok]
            s0, t0 = s_d[i1], t_d[j1]
            rows.append(i1 * n_td + j1)
            cols.append((i1 + a) % n_sd * n_td + j1 + b)
            wts.append(_segment_lengths(patch, s0, t0, s0 + a * h_s,
                                        t0 + b * h_t))
    n = n_sd * n_td
    return csr_matrix((np.concatenate(wts), (np.concatenate(rows),
                                             np.concatenate(cols))), shape=(n, n))


class TestBandGraph:
    def test_symmetric(self, band):
        csr = build_band_graph(band).csr
        assert (csr != csr.T).nnz == 0
        assert np.array_equal(np.sort(csr.data), np.sort(csr.T.tocsr().data))

    @pytest.mark.parametrize("scale", [None, _phi_scale])
    def test_edges_are_segment_quadratures(self, scale):
        patch = _dyadic_band()
        graph = build_band_graph(patch, scale=scale)
        assert graph.t_d[1] - graph.t_d[0] == patch.length / graph.n_sd
        coo, s0, t0, s1, t1 = _edge_ends(graph, graph.csr)
        ref = _segment_lengths(patch, s0, t0, s1, t1, scale)
        assert coo.nnz == graph.n_sd * (16 * graph.n_td - 18)
        assert np.max(np.abs(coo.data - ref) / ref) <= 1e-15

    def test_eight_neighbor_filter_matches_its_own_build(self):
        patch = _dyadic_band()
        got = _eight_neighbor(build_band_graph(patch))
        ref = _eight_stencil_reference(patch, default_dist_grid(patch))
        got.sort_indices()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.max(np.abs(got.data - ref.data) / ref.data) <= 1e-15

    def test_cached_graph_exposes_its_weights(self, band):
        graph = build_band_graph(band)
        assert np.size(graph.weights) == graph.csr.nnz
        assert build_band_graph(band) is graph

    def test_a_queried_patch_dies_with_its_last_reference(self):
        # the patch caches its graph, so the graph must not point back at it
        gc.disable()
        try:
            patch = _dyadic_band()
            c = np.linspace(0.0, patch.length, 8, endpoint=False)
            pts = np.stack([c, 0.2 * np.cos(c)], axis=1)
            pairwise_point_distances(patch, pts)
            assert patch._dist_graph is not None
            ref = weakref.ref(patch)
            del patch
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("query", ["pairwise", "set_to_set"])
    def test_appended_csr_matches_a_coo_build(self, band, monkeypatch, query):
        graphs = _captured_graphs(monkeypatch)
        c = np.linspace(0.0, band.length, 48, endpoint=False)
        pts = np.stack([c + 0.003, 0.2 * np.cos(2 * c)], axis=1)
        if query == "pairwise":
            pairwise_point_distances(band, pts)
        else:
            set_to_set_distances(band, pts + [0.01, -0.05], pts)
        csr = graphs[0]
        coo = csr.tocoo()
        ref = csr_matrix((coo.data, (coo.row, coo.col)), shape=csr.shape)
        ids = csr.shape[0] - len(pts) + np.arange(6)
        assert np.array_equal(dijkstra(csr, indices=ids),
                              dijkstra(ref, indices=ids))


def _captured_shapes(monkeypatch):
    """The shape of every `cylinder_distance` result while the test runs."""
    shapes = []
    original = distances.cylinder_distance

    def spy(*args):
        out = original(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(distances, "cylinder_distance", spy)
    return shapes


class TestFlatNearest:
    """The windowed flat search returns the dense minima bit for bit."""

    @pytest.fixture(scope="class")
    def unit(self):
        return flat_cylinder(length=1.0, halfwidth=1.25, grid=(64, 33))

    @staticmethod
    def _dense(patch, sources, targets):
        return cylinder_distance(patch.length, targets[:, None],
                                 sources[None]).min(axis=1)

    @classmethod
    def _both_ways_dense(cls, patch, sources, targets) -> bool:
        to_targets, to_sources = set_to_set_distances(patch, targets, sources)
        return (np.array_equal(to_targets, cls._dense(patch, sources, targets))
                and np.array_equal(to_sources,
                                   cls._dense(patch, targets, sources)))

    @staticmethod
    def _draw(rng, kind, n, length, halfwidth):
        if kind == "wide_s":  # s on both sides of [0, length)
            s = rng.uniform(-2.0 * length, 3.0 * length, n)
        elif kind == "grid":
            s = (np.arange(n) + rng.integers(-n, n)) * (length / n)
        else:  # repeated s
            s = rng.choice(rng.uniform(0.0, length, max(1, n // 4)), n)
        return np.stack([s, rng.uniform(-halfwidth, halfwidth, n)], axis=1)

    @pytest.mark.parametrize("kind", ["wide_s", "grid", "repeated"])
    def test_random_sets(self, unit, monkeypatch, kind):
        rng = np.random.default_rng(["wide_s", "grid", "repeated"].index(kind))
        shapes = _captured_shapes(monkeypatch)
        for _ in range(200):
            ns, nt = rng.integers(1, 80, 2)
            hw = rng.choice([0.01, 0.1, 1.2])
            sources = self._draw(rng, kind, ns, unit.length, hw)
            targets = self._draw(rng, kind, nt, unit.length, hw)
            assert self._both_ways_dense(unit, sources, targets)
        assert any(len(shape) == 1 for shape in shapes)  # windows ran

    def test_one_source(self, unit, rng):
        targets = self._draw(rng, "wide_s", 50, unit.length, 1.2)
        for source in targets[:10]:
            sources = source[None] + [0.3, 0.0]
            assert self._both_ways_dense(unit, sources, targets)

    def test_far_sets_read_the_dense_minima(self, unit, rng):
        sources = self._draw(rng, "wide_s", 40, unit.length, 0.05) + [0.0, 1.15]
        targets = self._draw(rng, "wide_s", 30, unit.length, 0.05) - [0.0, 1.15]
        assert self._both_ways_dense(unit, sources, targets)


class TestSetToSet:
    """One query graph answers both one-way fields."""

    @pytest.mark.parametrize("n_a, n_b", [(96, 96), (80, 112)])
    def test_fields_are_the_one_way_queries(self, band, monkeypatch, n_a, n_b):
        # each field is the least full Dijkstra distance from the other set
        # on the one query graph, whose points are b, then a
        graphs = _captured_graphs(monkeypatch)
        a = trig_curve(band, {2: 0.2}, n=n_a).points()
        b = trig_curve(band, {1: -0.1, 3: 0.05}, n=n_b).points()
        to_a, to_b = set_to_set_distances(band, a, b)
        csr = graphs[0]
        ids_b = csr.shape[0] - n_a - n_b + np.arange(n_b)
        ids_a = csr.shape[0] - n_a + np.arange(n_a)
        from_b = dijkstra(csr, directed=True, indices=ids_b)[:, ids_a]
        from_a = dijkstra(csr, directed=True, indices=ids_a)[:, ids_b]
        assert np.max(np.abs(to_a - from_b.min(axis=0))) <= 1e-15
        assert np.max(np.abs(to_b - from_a.min(axis=0))) <= 1e-15

    def test_flat_fields_are_the_one_way_queries(self, rng):
        patch = flat_cylinder(grid=(64, 33))
        a = np.stack([rng.uniform(-1.0, 7.0, 70), rng.uniform(-1, 1, 70)], axis=1)
        b = np.stack([rng.uniform(0.0, 6.0, 50), rng.uniform(-1, 1, 50)], axis=1)
        to_a, to_b = set_to_set_distances(patch, a, b)
        # the dense minima, each with the target first
        assert np.array_equal(to_a, cylinder_distance(
            patch.length, a[:, None], b[None]).min(axis=1))
        assert np.array_equal(to_b, cylinder_distance(
            patch.length, b[:, None], a[None]).min(axis=1))

    def test_sets_of_different_sizes_keep_their_vertical_chords(self):
        # 64 against 256 scan points: every fourth equator point sits under a
        # curve sample, so the curve's directed distance is its sup |xi| and
        # no equator point is farther than 0.3 from the curve
        patch = sphere_band(0.6, (512, 129))
        s = np.arange(64) * (patch.length / 64)
        xi = 0.3 * np.cos(3 * s + 0.3)
        res = hausdorff_distance(Curve.from_samples(patch, xi),
                                 Curve.constant(patch, 0.0, n=2048))
        assert res.directed_ab == pytest.approx(np.max(np.abs(xi)), abs=1e-12)
        assert res.directed_ba <= 0.3

    @pytest.mark.parametrize("n_a, n_b", [(64, 256), (256, 64)])
    def test_sets_of_different_sizes_join_their_neighbours_in_s(
            self, band, n_a, n_b):
        # a graph against points on t = 0, both off the graph's columns:
        # where a graph point sits over a base point, its distance to the
        # base set is the vertical |xi|
        s_a = 0.0123 + np.arange(n_a) * (band.length / n_a)
        s_b = 0.0123 + np.arange(n_b) * (band.length / n_b)
        xi = 0.2 * np.cos(2 * s_a) - 0.1 * np.sin(3 * s_a)
        to_a, _ = set_to_set_distances(band, np.stack([s_a, xi], axis=1),
                                       np.stack([s_b, 0 * s_b], axis=1))
        over = slice(None, None, max(1, n_a // n_b))
        assert np.max(np.abs(to_a[over] - np.abs(xi[over]))) <= 1e-12

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("order", ["aligned", "reversed", "rolled"])
    def test_equal_size_sets_join_their_neighbours_in_s_in_any_order(
            self, band, n, order):
        # a graph against equal-size points on t = 0, both off the graph's
        # columns: each graph point sits over a base point, so its distance
        # to the base set is the vertical |xi|, whatever order they arrive in
        s = 0.0123 + np.arange(n) * (band.length / n)
        xi = 0.2 * np.cos(2 * s) - 0.1 * np.sin(3 * s)
        base = np.stack([s, 0 * s], axis=1)
        base = {"aligned": base, "reversed": base[::-1],
                "rolled": np.roll(base, n // 2, axis=0)}[order]
        to_a, _ = set_to_set_distances(band, np.stack([s, xi], axis=1), base)
        assert np.max(np.abs(to_a - np.abs(xi))) <= 1e-12

    def test_hausdorff_builds_one_query_graph(self, band, monkeypatch):
        band.stencil_error_ratio()  # its own search, once per patch
        graphs = _captured_graphs(monkeypatch)
        hausdorff_distance(trig_curve(band, {2: 0.2}, n=512),
                           trig_curve(band, {1: 0.1}, n=512))
        assert len(graphs) == 2 and graphs[0] is graphs[1]
