import warnings
from functools import partial

import numpy as np
import pytest
import sympy as sp
from conftest import gamma_vw, reference_sasaki_geodesic, riemann

from lagbound import jets, sasaki
from lagbound.errors import FrameDegenerate, ParamOutOfRange, StepTooLarge
from lagbound.numerics import rk4_step
from lagbound.sasaki import (GradientGraph, SasakiState, base_manifold,
                             curvature_sweep, graph_tameness_bounds,
                             parabola_check, random_sasaki_states,
                             sasaki_geodesic, sphere_harmonic_graph,
                             torus_gradient_graph)


class TestBases:
    @pytest.mark.parametrize("name", ["flat_torus", "round_sphere"])
    def test_stacked_gamma_matches_separate_calls(self, rng, name):
        base = base_manifold(name)
        pts, _ = base.random_points(25, rng)
        v, y, z = (rng.normal(size=(25, 2)) for _ in range(3))
        stacked = gamma_vw(base, pts, v, np.stack([v, y, z]))
        separate = np.stack([gamma_vw(base, pts, v, w) for w in (v, y, z)])
        assert stacked.tobytes() == separate.tobytes()

    def test_first_bianchi(self, rng):
        base = base_manifold("round_sphere")
        pts, _ = base.random_points(40, rng)
        x, y, z = (rng.normal(size=(40, 2)) for _ in range(3))
        total = (riemann(base, pts, x, y, z) + riemann(base, pts, y, z, x)
                 + riemann(base, pts, z, x, y))
        assert np.max(np.abs(total)) < 1e-10

    # the torus samples a k x k grid, k = floor(sqrt(n)); the sphere n points
    @pytest.mark.parametrize("n, torus, sphere",
                             [(700, 676, 700), (1600, 1600, 1600)])
    def test_sample_counts(self, n, torus, sphere):
        for name, count in (("flat_torus", torus), ("round_sphere", sphere)):
            coords, charts = base_manifold(name).sample_points(n)
            assert coords.shape == (count, 2) and charts.shape == (count,)

    # kept under the requested n, not the count returned (676 at n = 700)
    @pytest.mark.parametrize("n", [700, 1600])
    @pytest.mark.parametrize("make_graph", [torus_gradient_graph,
                                            sphere_harmonic_graph])
    def test_default_samples_are_kept_for_the_requested_n(self, make_graph, n):
        g = make_graph(0.05)
        coords, charts = g.default_samples(n)
        assert g.default_samples(n) is g.default_samples(n)
        fresh = g.base.sample_points(n)
        assert np.array_equal(coords, fresh[0])
        assert np.array_equal(charts, fresh[1])

    def test_unknown_base_manifold(self):
        with pytest.raises(ValueError, match="unknown base manifold"):
            base_manifold("klein_bottle")

    def test_sphere_chart_round_trip(self, rng):
        base = base_manifold("round_sphere")
        pts, charts = base.random_points(64, rng)
        p3 = base.embed(pts, charts)
        assert np.max(np.abs(np.linalg.norm(p3, axis=1) - 1.0)) < 1e-12
        back, back_charts = base.to_chart(p3)
        p3b = base.embed(back, back_charts)
        assert np.max(np.abs(p3 - p3b)) < 1e-12


class TestGeodesics:
    def test_flat_torus_closed_form(self):
        base = base_manifold("flat_torus")
        st = SasakiState(x=np.array([0.3, 0.4]), v=np.array([0.6, 0.8]),
                         y=np.array([0.2, -0.1]), z=np.array([0.05, 0.3]))
        traj = sasaki_geodesic(base, st, horizon=10.0, step=1e-2)
        # flat case: straight line base path, affine fiber, exact parabola
        t = traj.times
        y_expect = ((0.2 + 0.05 * t) ** 2 + (-0.1 + 0.3 * t) ** 2)
        assert np.max(np.abs(traj.y_norm2[:, 0] - y_expect)) < 1e-12

    def test_flat_torus_batch_closed_form(self):
        # the bundle metric over the flat torus is flat: straight base lines,
        # affine fibers, constant v and Z
        base = base_manifold("flat_torus")
        states = random_sasaki_states(base, 25, np.random.default_rng(3))
        traj = sasaki_geodesic(base, states, horizon=10.0, step=1e-2)
        t = traj.times[:, None, None]
        x0, v0, y0, z0 = (np.array([getattr(s, f) for s in states])
                          for f in ("x", "v", "y", "z"))
        assert np.max(np.abs(traj.x - (x0 + t * v0))) <= 1e-11
        assert np.max(np.abs(traj.y - (y0 + t * z0))) <= 1e-11
        assert np.max(np.abs(traj.v - v0)) <= 1e-11
        assert np.max(np.abs(traj.z - z0)) <= 1e-11
        # the bar adds the rounding of 1000 steps that Richardson cannot see
        assert traj.halving_error <= 1e-10
        y2_err = np.max(np.abs(traj.y_norm2 - _closed_form_y2(base, states,
                                                              traj.times)))
        assert y2_err <= traj.halving_error

    def test_zero_fiber_velocity_constant_norm(self):
        base = base_manifold("round_sphere")
        st = SasakiState(x=np.array([0.2, -0.3]), v=np.array([0.5, 0.4]),
                         y=np.array([0.3, 0.1]), z=np.zeros(2))
        traj = sasaki_geodesic(base, st, horizon=5.0, step=1e-3)
        drift = np.max(np.abs(traj.y_norm2[:, 0] - traj.y_norm2[0, 0]))
        assert drift < 1e-10

    def test_sphere_parabola_law(self, rng):
        base = base_manifold("round_sphere")
        states = random_sasaki_states(base, 6, rng)
        traj = sasaki_geodesic(base, states, horizon=6.0, step=1e-3)
        fit = parabola_check(traj)
        assert np.max(fit.max_residual) < 1e-7
        assert np.max(np.abs(fit.leading - fit.expected_leading)) < 1e-7

    def test_fiber_speed_conserved(self, rng):
        base = base_manifold("round_sphere")
        states = random_sasaki_states(base, 4, rng)
        traj = sasaki_geodesic(base, states, horizon=6.0, step=1e-3)
        assert np.max(np.abs(traj.z_norm2 - traj.z_norm2[:1])) < 1e-9

    def test_norm_continuity_across_recharts(self, rng):
        base = base_manifold("round_sphere")
        states = random_sasaki_states(base, 4, rng)
        traj = sasaki_geodesic(base, states, horizon=8.0, step=1e-3)
        switched = np.any(np.diff(traj.charts, axis=0) != 0)
        assert switched  # the run must actually exercise a chart hand-off
        jumps = np.abs(np.diff(traj.y_norm2, axis=0))
        assert np.max(jumps) < 0.2  # |Y|^2 varies smoothly through hand-offs

    @pytest.mark.parametrize("base_name", ["flat_torus", "round_sphere"])
    @pytest.mark.parametrize("horizon", [1e-3, 3e-3, 0.01])
    def test_halving_runs_end_together(self, base_name, horizon):
        base = base_manifold(base_name)
        states = random_sasaki_states(base, 3, np.random.default_rng(0))
        traj = sasaki_geodesic(base, states, horizon=horizon, step=1e-3)
        n_coarse = int(np.ceil(horizon / 2e-3))
        assert traj.times[-1] == 2 * n_coarse * 1e-3
        assert traj.halving_error < 1e-12

    def test_step_too_large(self):
        base = base_manifold("round_sphere")
        st = SasakiState(x=np.array([0.4, 0.1]), v=np.array([1.2, 0.9]),
                         y=np.array([0.5, 0.2]), z=np.array([0.4, -0.6]))
        with pytest.raises(StepTooLarge):
            sasaki_geodesic(base, st, horizon=8.0, step=0.5)

    @pytest.mark.parametrize("base_name", ["flat_torus", "round_sphere"])
    def test_explicit_step_is_the_plain_rk4_loop(self, base_name):
        # 2 * ceil(3.7 / 0.02) = 370 steps of 1e-2, recorded every 10th
        base = base_manifold(base_name)
        states = random_sasaki_states(base, 3, np.random.default_rng(4))
        traj = sasaki_geodesic(base, states, horizon=3.7, step=1e-2)
        state = np.array([[getattr(s, f) for s in states]
                          for f in ("x", "v", "y", "z")], dtype=float)
        charts = np.array([s.chart for s in states])
        rhs = lambda _t, st: np.array(sasaki._rhs(base, st[0], st[1:]))
        recs = [state]
        for i in range(370):
            state = rk4_step(rhs, i * 1e-2, state, 1e-2)
            x, charts, *vecs = base.rechart(state[0], charts, *state[1:])
            state = np.array([x, *vecs])
            if (i + 1) % 10 == 0:
                recs.append(state)
        assert traj.times.tolist() == [i * 1e-2 for i in range(0, 371, 10)]
        assert np.stack(recs).tobytes() == np.stack(
            [traj.x, traj.v, traj.y, traj.z], axis=1).tobytes()
        assert traj.step == 1e-2

    @pytest.mark.parametrize("kwargs", [
        {"horizon": np.nan}, {"horizon": -1.0}, {"horizon": np.inf},
        {"horizon": 0.0}, {"step": 0.0}, {"step": -1e-2}, {"step": np.nan},
        {"initial": []}],
        ids=["horizon-nan", "horizon-negative", "horizon-inf", "horizon-0",
             "step-0", "step-negative", "step-nan", "no-state"])
    def test_invalid_parameters_are_param_out_of_range(self, kwargs):
        base = base_manifold("round_sphere")
        call = {"initial": random_sasaki_states(base, 2,
                                                np.random.default_rng(0)),
                "horizon": 1.0, "step": 1e-2, **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic
            with pytest.raises(ParamOutOfRange):
                sasaki_geodesic(base, **call)

    def test_flat_base_keeps_v_and_z(self, monkeypatch):
        torus = base_manifold("flat_torus")
        states = random_sasaki_states(torus, 5, np.random.default_rng(6))
        traj = sasaki_geodesic(torus, states, horizon=3.0, step=1e-2)
        for field in ("v", "z"):
            start = np.array([getattr(s, field) for s in states])
            recorded = getattr(traj, field)
            assert recorded.tobytes() == np.broadcast_to(
                start, recorded.shape).tobytes()
        assert not traj.charts.any()
        # the sphere takes the Christoffel and curvature terms
        sphere = base_manifold("round_sphere")
        assert torus.flat and not sphere.flat
        batches = []
        conformal = sphere.phi_grad_lam2
        monkeypatch.setattr(sphere, "phi_grad_lam2", lambda u: (
            batches.append(len(u)) or conformal(u)))
        states = random_sasaki_states(sphere, 5, np.random.default_rng(6))
        sasaki_geodesic(sphere, states, horizon=0.1, step=1e-2)
        # fine and coarse run together, then the fine run alone
        assert set(batches) == {5, 10}


class TestParentLoop:
    """`sasaki_geodesic` against the plain loop in conftest, which integrates
    the fine and the coarse run one after the other with the gamma_vw +
    riemann form of the equations: every field is the same bit for bit."""

    @pytest.mark.parametrize("base_name", ["flat_torus", "round_sphere"])
    @pytest.mark.parametrize("step", [1e-2, 0.05, np.inf],
                             ids=["1e-2", "0.05", "auto"])
    def test_bit_identical_to_the_plain_loop(self, base_name, step):
        base = base_manifold(base_name)
        too_large = []
        for seed in range(3):
            states = random_sasaki_states(base, 3, np.random.default_rng(seed))
            for horizon in (1e-3, 3e-3, 0.021, 0.041, 0.5, 2.0):
                run = partial(sasaki_geodesic, base, states, horizon, step)
                try:
                    want = reference_sasaki_geodesic(base, states, horizon,
                                                     step)
                except StepTooLarge as err:
                    with pytest.raises(StepTooLarge) as got:
                        run()
                    assert str(got.value) == str(err)
                    too_large.append((seed, horizon))
                    continue
                got = run()
                for field in ("times", "x", "v", "y", "z", "charts",
                              "y_norm2", "z_norm2"):
                    assert getattr(got, field).tobytes() == getattr(
                        want, field).tobytes(), (seed, horizon, field)
                assert got.step == want.step
                assert got.halving_error == want.halving_error
        # only the sphere at step 0.05 is refused, on the longer horizons
        refused = base_name == "round_sphere" and step == 0.05
        assert bool(too_large) == refused


def _closed_form_y2(base, states, t):
    """|Y(t)|^2 = |Y0|^2 + 2 <Y0, Z0> t + |Z0|^2 t^2, exact on both bases
    since cov Z = 0 and cov Y = Z, at the times t for each state."""
    x0, y0, z0 = (np.array([getattr(s, f) for s in states])
                  for f in ("x", "y", "z"))
    lam2 = base.lam2(x0)
    t = np.asarray(t)[:, None]
    return lam2 * ((y0 * y0).sum(-1) + 2 * (y0 * z0).sum(-1) * t
                   + (z0 * z0).sum(-1) * t * t)


def _first_ladder_step(horizon):
    n = 2
    while horizon / n > 2.0 ** -5:
        n *= 2
    return horizon / n


class TestStepControl:
    @pytest.mark.parametrize("base_name", ["flat_torus", "round_sphere"])
    @pytest.mark.parametrize("step", [np.inf, 1e-3], ids=["auto", "1e-3"])
    def test_halving_error_covers_the_closed_form(self, base_name, step):
        base = base_manifold(base_name)
        for seed in range(4):
            states = random_sasaki_states(base, 8, np.random.default_rng(seed))
            for horizon in (0.5, 4.0, 10.0):
                traj = sasaki_geodesic(base, states, horizon=horizon,
                                       step=step)
                err = np.abs(traj.y_norm2
                             - _closed_form_y2(base, states, traj.times))
                assert np.max(err) <= traj.halving_error, (seed, horizon)

    @pytest.mark.parametrize("horizon", [1e-3, 0.5, 4.0, 10.0])
    def test_flat_torus_accepts_the_first_ladder_step(self, horizon):
        base = base_manifold("flat_torus")
        states = random_sasaki_states(base, 8, np.random.default_rng(0))
        traj = sasaki_geodesic(base, states, horizon=horizon)
        assert traj.step == _first_ladder_step(horizon)
        assert traj.times[-1] == horizon

    def test_sphere_halves_until_the_tolerance(self, monkeypatch):
        base = base_manifold("round_sphere")
        states = random_sasaki_states(base, 8, np.random.default_rng(1))
        levels = []
        integrate = sasaki._integrate

        def counted(base, state, charts, runs):
            levels.append([h for _, h in runs])
            return integrate(base, state, charts, runs)

        monkeypatch.setattr(sasaki, "_integrate", counted)
        traj = sasaki_geodesic(base, states, horizon=4.0)
        # the first level runs fine and coarse together; each rejected run
        # is the next coarse run, so every later level adds one new run
        first = _first_ladder_step(4.0)
        assert levels[0] == [first, 2 * first]
        assert levels[1:] == [[first * 0.5 ** k]
                              for k in range(1, len(levels))]
        assert len(levels) >= 2 and traj.step == levels[-1][0]
        assert traj.times[-1] == 4.0
        assert traj.halving_error <= sasaki._HALVING_TOL / 10
        fit = parabola_check(traj)
        assert np.max(fit.max_residual) <= 1e-7

    def test_no_step_above_the_floor_is_step_too_large(self, monkeypatch):
        monkeypatch.setattr(sasaki, "_LADDER_FLOOR", 2.0 ** -5)
        base = base_manifold("round_sphere")
        states = random_sasaki_states(base, 8, np.random.default_rng(1))
        with pytest.raises(StepTooLarge, match="may not fall below"):
            sasaki_geodesic(base, states, horizon=4.0)


def _count_jet_calls(graph):
    """Wrap the graph's per-chart jets; the returned list records the chart
    of every jet evaluation."""
    calls = []

    def counted(cid, jet):
        def run(u):
            calls.append(cid)
            return jet(u)
        return run

    graph._jets[:] = [counted(cid, jet) for cid, jet in enumerate(graph._jets)]
    return calls


def _reference_sweep(graph, t_grid, n_theta, samples):
    """The frame form evaluated scale by scale on the normalized frame
    x~ = x^ / nu: the per-scale formula the block sweep must reproduce."""
    coords, charts = graph.default_samples(samples)
    data = graph.frame_data(coords, charts)
    xi, t_mat, a_ten = data["xi"], data["T"], data["A"]
    k_curv = graph.base.gauss_curvature
    theta = np.arange(n_theta) * (np.pi / n_theta)
    xhat = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    tx = np.einsum("bij,mj->bmi", t_mat, xhat)
    out = []
    for t in t_grid:
        m = np.eye(2) + t * t * np.einsum("bij,bjk->bik", t_mat, t_mat)
        norm = np.sqrt(1.0 + t * t * (tx * tx).sum(-1))
        xt = xhat[None] / norm[..., None]
        txt = tx / norm[..., None]
        v_vec = np.einsum("bijk,bmj,bmk->bmi", a_ten, xt, xt)
        if k_curv != 0.0:
            txx = (txt * xt).sum(-1, keepdims=True)
            xix = (xi[:, None, :] * xt).sum(-1, keepdims=True)
            rv = k_curv * (txx * xi[:, None, :] - xix * txt)
            v_vec = v_vec - t * t * np.einsum("bij,bmj->bmi", t_mat, rv)
        quad = np.einsum("bmi,bij,bmj->bm", v_vec, np.linalg.inv(m), v_vec)
        out.append(abs(t) * np.sqrt(np.max(quad)))
    return np.array(out)


U1, U2 = sp.symbols("u1 u2", real=True)
R2 = U1 ** 2 + U2 ** 2
# sympy twins of the bases' conformal factors, per chart
PHI_EXPRS = {"flat_torus": (sp.Integer(0),),
             "round_sphere": (sp.log(2 / (1 + R2)),) * 2}
XZ_EXPR = 2 * U1 * (R2 - 1) / (R2 + 1) ** 2   # x z; z flips sign in chart 1


def _sphere_xz(u1, u2):
    r2 = u1 * u1 + u2 * u2
    return 2.0 * u1 * (r2 - 1.0) / ((r2 + 1.0) * (r2 + 1.0))


def _sphere_xz_graph(eps):
    """H = eps x z on the round sphere.  Unlike the harmonic graph, whose sup
    sits where xi = 0, its sup moves with the curvature term K T R(x^)."""
    return GradientGraph(base_manifold("round_sphere"),
                         (_sphere_xz, lambda u1, u2: -_sphere_xz(u1, u2)),
                         amplitude=eps, name=f"sphere_xz_{eps:g}")


def _mixed_torus_graph():
    """A torus H with every third derivative nonzero, so each H_ijk term is
    exercised.  On the torus A = H_ijk is fully symmetric; the sphere graphs
    exercise A's index order."""
    return GradientGraph(base_manifold("flat_torus"),
                         (lambda u1, u2: (jets.cos(u1) * jets.sin(2.0 * u2)
                                          + 0.3 * jets.sin(u1 + u2)),),
                         name="torus_mixed")


def _reference_chart_tensors(h_expr, phi_expr):
    """xi, T and A in the orthonormal frame, each differentiated and
    contracted symbolically and then lambdified: the fully symbolic route
    the jet assembly must reproduce."""
    u = (U1, U2)
    lam2 = sp.exp(2 * phi_expr)
    lam = sp.exp(phi_expr)
    dphi = [sp.diff(phi_expr, ui) for ui in u]
    xi = [sp.diff(h_expr, ui) / lam2 for ui in u]

    def gamma(i, j, k):
        return ((dphi[k] if i == j else 0) + (dphi[j] if i == k else 0)
                - (dphi[i] if j == k else 0))

    t_mat = [[sp.diff(xi[i], u[k]) + sum(gamma(i, k, m) * xi[m] for m in range(2))
              for k in range(2)] for i in range(2)]
    grad_t = [[[sp.diff(t_mat[i][k], u[j])
                + sum(gamma(i, j, l) * t_mat[l][k] for l in range(2))
                - sum(gamma(l, j, k) * t_mat[i][l] for l in range(2))
                for k in range(2)] for j in range(2)] for i in range(2)]
    tensors = ([lam * xi[i] for i in range(2)],
               [t_mat[i][k] for i in range(2) for k in range(2)],
               [grad_t[i][j][k] / lam for i in range(2) for j in range(2)
                for k in range(2)])
    fns = [sp.lambdify(u, exprs, modules="numpy") for exprs in tensors]

    def evaluate(pts):
        return [np.stack(np.broadcast_arrays(*fn(pts[:, 0], pts[:, 1])), -1)
                for fn in fns]
    return evaluate


def _reference_frame_data(graph, h_exprs, coords, charts):
    """The frame tensors of `graph` from the sympy twins h_exprs of its H."""
    out = {key: np.empty(coords.shape[:-1] + shape) for key, shape in
           (("xi", (2,)), ("T", (2, 2)), ("A", (2, 2, 2)))}
    for cid, (h, phi) in enumerate(zip(h_exprs, PHI_EXPRS[graph.base.name])):
        mask = charts == cid
        vals = _reference_chart_tensors(h, phi)(coords[mask])
        for key, val in zip(out, vals):
            out[key][mask] = graph.amplitude * val.reshape(
                val.shape[:1] + out[key].shape[1:])
    return out


# each graph with the sympy twin of its unit-amplitude H, per chart
GRAPHS = {"torus_cos1": (lambda: torus_gradient_graph(0.01), (sp.cos(U1),)),
          "torus_cos2": (lambda: torus_gradient_graph(0.02, mode=2),
                         (sp.cos(2 * U1),)),
          "torus_mixed": (_mixed_torus_graph,
                          (sp.cos(U1) * sp.sin(2 * U2) + 0.3 * sp.sin(U1 + U2),)),
          "sphere_harmonic": (lambda: sphere_harmonic_graph(0.01),
                              ((R2 - 1) / (R2 + 1), (1 - R2) / (R2 + 1))),
          "sphere_xz": (lambda: _sphere_xz_graph(0.1), (XZ_EXPR, -XZ_EXPR))}


class TestGradientGraphs:
    def test_one_h_per_chart(self):
        with pytest.raises(ValueError, match="one H function per chart"):
            GradientGraph(base_manifold("round_sphere"),
                          (sasaki._sphere_harmonic_north,), amplitude=0.1)

    @pytest.mark.parametrize("graph_id", list(GRAPHS))
    def test_jets_match_the_symbolic_reference(self, graph_id):
        make_graph, h_exprs = GRAPHS[graph_id]
        graph = make_graph()
        coords, charts = graph.default_samples(1600)
        data = graph.frame_data(coords, charts)
        ref = _reference_frame_data(graph, h_exprs, coords, charts)
        for key in ("xi", "T", "A"):
            scale = np.max(np.abs(ref[key]))
            assert scale > 0.0
            assert np.max(np.abs(data[key] - ref[key])) <= 1e-13 * scale

    def test_graphs_are_built_at_unit_amplitude(self):
        gg = sphere_harmonic_graph(0.01)
        unit = sphere_harmonic_graph(1.0)
        assert gg.name == "sphere_harmonic_0.01"
        assert gg.h_funcs == unit.h_funcs
        coords, charts = gg.default_samples()
        data, unit_data = (g.frame_data(coords, charts) for g in (gg, unit))
        for key in ("xi", "T", "A"):
            assert np.array_equal(data[key], 0.01 * unit_data[key])
        assert torus_gradient_graph(0.02, mode=2).name == "torus_cos2_0.02"

    def test_frame_data_evaluates_each_jet_once(self):
        gg = sphere_harmonic_graph(0.01)
        calls = _count_jet_calls(gg)
        coords, charts = gg.default_samples(400)
        assert set(charts) == {0, 1}
        gg.frame_data(coords, charts)
        assert calls == [0, 1]

    @pytest.mark.parametrize("make_graph", [
        lambda: torus_gradient_graph(0.01),
        lambda: torus_gradient_graph(0.02, mode=2),
        lambda: sphere_harmonic_graph(0.01),
        lambda: _sphere_xz_graph(0.1)],
        ids=["torus_cos1", "torus_cos2", "sphere_harmonic", "sphere_xz"])
    def test_sweep_matches_per_scale_reference(self, make_graph):
        # 250 directions leave a partial last direction block
        graph = make_graph()
        t_grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        vals = curvature_sweep(graph.base, graph, t_grid, n_theta=250,
                               samples=1600)
        ref = _reference_sweep(graph, t_grid, 250, 1600)
        assert vals[0] == ref[0] == 0.0
        assert np.max(np.abs(vals[1:] - ref[1:]) / ref[1:]) <= 1e-12

    def test_each_frame_evaluated_once_per_scale(self, monkeypatch):
        # 250 directions, 3 scales, 100 samples: every (sample, direction,
        # scale) frame value is formed exactly once
        seen = []
        original = sasaki._block_maxima

        def counted(data, k_curv, theta, t_grid, minvs):
            seen.append(len(data["xi"]) * len(theta) * len(t_grid))
            return original(data, k_curv, theta, t_grid, minvs)
        monkeypatch.setattr(sasaki, "_block_maxima", counted)
        gg = sphere_harmonic_graph(0.01)
        curvature_sweep(gg.base, gg, [0.0, 0.5, 1.0], n_theta=250, samples=100)
        assert sum(seen) == 3 * 250 * 100

    @pytest.mark.parametrize("make_graph", [
        lambda: torus_gradient_graph(0.02, mode=2),
        lambda: sphere_harmonic_graph(0.01)],
        ids=["torus_cos2", "sphere_harmonic"])
    def test_sweep_bytes_do_not_depend_on_the_block_size(self, monkeypatch,
                                                         make_graph):
        # 250 directions in blocks of 1, 7, the default (20 at 1600 samples,
        # so the last block is partial), all and twice all directions
        graph = make_graph()
        n_samples = len(graph.default_samples(1600)[1])
        default = sasaki._BLOCK_VALUES // n_samples
        t_grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        blocks = []
        original = sasaki._block_maxima

        def counted(data, k_curv, theta, t_grid, minvs):
            blocks[-1].append(len(theta))
            return original(data, k_curv, theta, t_grid, minvs)
        monkeypatch.setattr(sasaki, "_block_maxima", counted)
        sweeps = []
        for directions in (1, 7, default, 250, 500):
            monkeypatch.setattr(sasaki, "_BLOCK_VALUES",
                                directions * n_samples)
            blocks.append([])
            sweeps.append(curvature_sweep(graph.base, graph, t_grid,
                                          n_theta=250).tobytes())
        assert default == 20 and blocks[2] == [20] * 12 + [10]
        assert [max(b) for b in blocks] == [1, 7, 20, 250, 250]
        assert all(sum(b) == 250 for b in blocks)
        assert len(set(sweeps)) == 1

    @pytest.mark.parametrize("kwargs", [
        {"n_theta": -3}, {"n_theta": 0}, {"samples": 0}],
        ids=["n_theta-negative", "n_theta-0", "samples-0"])
    def test_invalid_sweep_grids_are_param_out_of_range(self, kwargs):
        gg = sphere_harmonic_graph(0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParamOutOfRange):
                curvature_sweep(gg.base, gg, [0.5, 1.0],
                                **{"n_theta": 90, "samples": 100, **kwargs})

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_non_finite_graph_is_frame_degenerate(self, amplitude):
        gg = torus_gradient_graph(0.01).with_amplitude(amplitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic
            with pytest.raises(FrameDegenerate):
                curvature_sweep(gg.base, gg, [0.5, 1.0], n_theta=90,
                                samples=100)
            with pytest.raises(FrameDegenerate):
                curvature_sweep(gg.base, gg, [1.0], n_theta=90, samples=100)

    def test_non_finite_frame_tensors_are_frame_degenerate(self):
        # H = 1/u1 has a pole on the sample column u1 = 0
        gg = GradientGraph(sasaki.FlatTorus(), (lambda u1, u2: 1.0 / u1,))
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(FrameDegenerate, match="frame tensors of graph "
                                                     "are not finite"):
            curvature_sweep(gg.base, gg, [0.5, 1.0], n_theta=90, samples=100)

    def test_non_finite_scale_is_frame_degenerate(self):
        gg = sphere_harmonic_graph(0.01)
        with pytest.raises(FrameDegenerate):
            curvature_sweep(gg.base, gg, [0.5, np.nan], n_theta=90,
                            samples=100)

    def test_hessian_symmetry(self):
        for gg in (torus_gradient_graph(0.1), sphere_harmonic_graph(0.1),
                   _sphere_xz_graph(0.1)):
            t_mat = gg.frame_data(*gg.default_samples())["T"]
            assert np.array_equal(t_mat, t_mat.swapaxes(-1, -2))

    def test_adjoint_identity(self, rng):
        # |(grad xi)^T Z| = |grad_Z xi| holds by self-adjointness
        gg = sphere_harmonic_graph(0.3)
        coords, charts = gg.base.random_points(30, rng)
        t_mat = gg.frame_data(coords, charts)["T"]
        z = rng.normal(size=(30, 2))
        lhs = np.linalg.norm(np.einsum("bji,bj->bi", t_mat, z), axis=1)
        rhs = np.linalg.norm(np.einsum("bij,bj->bi", t_mat, z), axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_torus_norm_closed_form(self):
        # oracle for H = eps cos x1 on the flat torus: sup norm equals eps * t
        gg = torus_gradient_graph(0.05)
        t_grid = np.linspace(0.0, 1.0, 6)
        # 40x40 grid hits the maximizer x1 = pi/2 exactly
        vals = curvature_sweep(gg.base, gg, t_grid, n_theta=360, samples=1600)
        assert np.max(np.abs(vals - 0.05 * t_grid)) < 1e-12

    def test_zero_graph(self):
        gg = torus_gradient_graph(0.0)
        value = curvature_sweep(gg.base, gg, [1.0], n_theta=90,
                                samples=100)[0]
        assert value == 0.0

    def test_sphere_monotone(self):
        gg = sphere_harmonic_graph(0.01)
        vals = curvature_sweep(gg.base, gg, np.linspace(0, 1, 6),
                               n_theta=240, samples=400)
        assert np.all(np.diff(vals) >= -1e-8)

    def test_frame_degenerate(self):
        gg = torus_gradient_graph(1.5)
        with pytest.raises(FrameDegenerate):
            curvature_sweep(gg.base, gg, [1.0], n_theta=90, samples=100)

    def test_richardson_direction_grid(self):
        gg = sphere_harmonic_graph(0.02)
        v1 = curvature_sweep(gg.base, gg, [1.0], n_theta=360)[0]
        v2 = curvature_sweep(gg.base, gg, [1.0], n_theta=720)[0]
        assert abs(v2 - v1) < 1e-6


class TestSandwich:
    def test_zero_graph_equality(self):
        gg = torus_gradient_graph(0.0)
        rep = graph_tameness_bounds(gg.base, gg, n_pairs=60)
        assert rep.ok
        assert rep.eps_lower == pytest.approx(1.0, abs=1e-12)

    def test_torus_bounds(self):
        gg = torus_gradient_graph(0.1)
        rep = graph_tameness_bounds(gg.base, gg, n_pairs=100)
        assert rep.ok
        assert rep.eps_lower >= 1.0 / np.sqrt(1.0 + rep.grad_bound ** 2) - 1e-9

    def test_sphere_bounds(self):
        gg = sphere_harmonic_graph(0.2)
        rep = graph_tameness_bounds(gg.base, gg, n_pairs=100)
        assert rep.ok

    def test_grad_bound_evaluates_the_unit_t_once(self):
        # T is linear in the amplitude: amplitude copies share the unit T
        gg = sphere_harmonic_graph(1.0)
        calls = _count_jet_calls(gg)
        amps = (0.4, 0.2, 0.1, 0.05, 0.025)
        bounds = [gg.with_amplitude(a).grad_bound() for a in amps]
        assert calls == [0, 1]  # once on each chart
        for a, gb in zip(amps, bounds):
            g = gg.with_amplitude(a)
            t_mat = g.frame_data(*g.default_samples())["T"]
            assert gb == float(np.max(sasaki._op_norms(t_mat)))

    def test_scaling_limit_monotone(self):
        gg = torus_gradient_graph(1.0)
        eps = [graph_tameness_bounds(gg.base, gg.with_amplitude(a),
                                     n_pairs=80).eps_lower
               for a in (0.4, 0.2, 0.1, 0.05, 0.025)]
        assert all(b >= a - 1e-12 for a, b in zip(eps, eps[1:]))
        assert eps[-1] > 0.999
