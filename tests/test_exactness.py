import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from lagbound import exactness
from lagbound.config import build_patch_from_spec
from lagbound.curves import Curve, trig_curve
from lagbound.errors import NoBracket, ParamOutOfRange
from lagbound.exactness import (area_functional, build_contraction,
                                contraction_bounds_check, isotopy_invariant,
                                solve_c, solve_c_grid)
from lagbound.surface import plane_annulus, sphere_band

from conftest import reference_solve_c_grid


class TestAreaFunctional:
    def test_mean_zero_flat(self, cyl):
        for m in (1, 2, 5):
            assert abs(area_functional(trig_curve(cyl, {m: 0.4}, n=512))) < 1e-12

    def test_constant_flat(self, cyl):
        c = Curve.constant(cyl, 0.37, n=512)
        assert area_functional(c) == pytest.approx(2 * np.pi * 0.37,
                                                   abs=1e-11)

    def test_scalar_callable_off_the_patch_columns(self):
        # a callable that returns a scalar, on a curve grid that is not the
        # patch's, is read on the columns as Curve.from_callables reads it
        patch = sphere_band(0.6, (512, 65))
        curve = Curve.from_callables(patch, lambda s: 0.1, n=1024)
        assert area_functional(curve) == pytest.approx(
            2 * np.pi * np.sin(0.1), abs=1e-10)

    def test_constant_sphere_closed_form(self, sphere):
        c = Curve.constant(sphere, 0.3, n=512)
        assert area_functional(c) == pytest.approx(
            2 * np.pi * np.sin(0.3), abs=1e-10)

    def test_against_nested_quadrature_oracle(self, sphere):
        curve = trig_curve(sphere, {1: 0.15}, offset=0.1, n=512)
        oracle, err = dblquad(lambda t, s: np.cos(t), 0, 2 * np.pi,
                              0, lambda s: 0.15 * np.cos(s) + 0.1,
                              epsabs=1e-11)
        assert area_functional(curve) == pytest.approx(oracle,
                                                       abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(-0.5, 0.5), a=st.floats(-0.3, 0.3))
    def test_flat_linearity(self, cyl, c, a):
        curve = trig_curve(cyl, {2: a}, offset=c, n=256)
        assert area_functional(curve) == pytest.approx(2 * np.pi * c,
                                                       abs=1e-10)


class TestSolveC:
    def test_mean_zero_gives_zero(self, cyl):
        xi = trig_curve(cyl, {3: 0.3}, n=512)
        for a in (0.0, 0.3, 1.0):
            assert solve_c(xi, a) == pytest.approx(0.0, abs=1e-12)

    def test_mean_restoration_flat(self, cyl_wide):
        xi = trig_curve(cyl_wide, {1: 1.0}, offset=0.3, n=512)
        for a in (0.25, 0.5, 1.0):
            assert solve_c(xi, a) == pytest.approx(-0.3 * a,
                                                   abs=1e-12)

    def test_odd_symmetry_on_sphere(self, sphere):
        xi = trig_curve(sphere, {1: 0.2}, n=512)
        assert solve_c(xi, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_bracket_bound(self, sphere, rng):
        xi = trig_curve(sphere, {1: 0.08, 2: 0.06}, offset=0.03, n=512)
        sup = xi.sup_norm()
        for a in rng.uniform(0.05, 1.0, size=8):
            c = solve_c(xi, float(a))
            assert abs(c) <= a * sup
            shifted = Curve(sphere, a * xi.xi + c, a * xi.dxi, a * xi.d2xi)
            assert abs(area_functional(shifted)) <= 1e-12

    def test_precondition(self, cyl):
        xi = trig_curve(cyl, {1: 1.0}, n=256)
        with pytest.raises(ParamOutOfRange):
            solve_c(xi, 1.0)

    def test_scales_of_either_sign(self, cyl):
        # flat: A(a xi + c) = l (0.2 a + c), so c(a) = -0.2 a
        xi = trig_curve(cyl, {1: 0.5}, offset=0.2, n=512)
        alphas = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.max(np.abs(solve_c_grid(xi, alphas) + 0.2 * alphas)) < 1e-12
        with pytest.raises(ParamOutOfRange):  # 1.1 * 0.7 >= r/2 = 0.75
            solve_c(xi, -1.1)


def _count_area_calls(monkeypatch) -> list:
    """Row count of every `_area_batch` call made after this point."""
    calls, area = [], exactness._area_batch

    def counted(patch, xi_block):
        calls.append(len(xi_block))
        return area(patch, xi_block)
    monkeypatch.setattr(exactness, "_area_batch", counted)
    return calls


@pytest.fixture(scope="module")
def spec_band():
    return build_patch_from_spec({
        "length": 2 * np.pi, "halfwidth": 0.5, "grid": [256, 65],
        "kappa": "0.2*cos(s)", "gauss": "0.5*cos(s) + 0.2*t"})


# graph on a band of halfwidth r, and the reach max|a| max|xi| of its scales
SHIFT_GRAPHS = {
    "trig": (lambda p, r: trig_curve(p, {1: 0.3 * r, 2: 0.1 * r},
                                     {3: 0.05 * r}, offset=0.1 * r, n=512),
             0.4),
    "near_reach": (lambda p, r: trig_curve(p, {1: 0.25 * r, 2: 0.2 * r},
                                           offset=0.04 * r, n=512), 0.4999),
    "constant": (lambda p, r: Curve.constant(p, 0.2 * r, n=512), 0.4),
}
SHIFT_SCALES = np.array([-1.0, -0.7, -0.3, 0.0, 0.2, 0.5, 1.0])
SHIFT_BUDGET = 12  # area evaluations per solve; bisection takes about 40


class TestShiftOracle:
    """`solve_c_grid` against the bisection it replaced (conftest)."""

    @pytest.mark.parametrize("graph", sorted(SHIFT_GRAPHS))
    @pytest.mark.parametrize("band", ["cyl", "sphere", "plane", "spec_band"])
    def test_matches_the_bisection(self, request, monkeypatch, band, graph):
        patch = request.getfixturevalue(band)
        make, reach = SHIFT_GRAPHS[graph]
        xi = make(patch, patch.halfwidth)
        sup, area = xi.sup_norm(), exactness._area_batch
        alphas = reach * patch.halfwidth / sup * SHIFT_SCALES
        want = reference_solve_c_grid(xi, alphas)
        calls = _count_area_calls(monkeypatch)
        got = solve_c_grid(xi, alphas)
        assert len(calls) <= SHIFT_BUDGET
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(np.abs(got) <= np.abs(alphas) * sup)
        xi_grid = exactness._xi_on_patch_grid(xi)
        residual = area(patch, alphas[:, None] * xi_grid + got[:, None])
        assert np.max(np.abs(residual)) <= exactness._C_TOL
        for a, c in zip(alphas, got):  # one scale at a time, same budget
            calls.clear()
            assert solve_c(xi, a) == pytest.approx(c, abs=1e-12)
            assert len(calls) <= SHIFT_BUDGET

    def test_constant_graph_is_solved_at_a_bracket_end(self, sphere,
                                                      monkeypatch):
        # c = -a k is an end of the bracket |c| <= |a| k, where A(0) = 0
        xi = Curve.constant(sphere, 0.12, n=512)
        alphas = 2.0 * SHIFT_SCALES
        calls = _count_area_calls(monkeypatch)
        assert np.array_equal(solve_c_grid(xi, alphas), -0.12 * alphas)
        assert len(calls) == 2

    def test_linear_area_takes_one_secant_step(self, cyl, monkeypatch):
        # flat: A(a xi + c) = l (a m + c) is linear in c, so the first secant
        # point is the root
        xi = trig_curve(cyl, {1: 0.4, 3: 0.1}, offset=0.15, n=512)
        calls = _count_area_calls(monkeypatch)
        got = solve_c_grid(xi, SHIFT_SCALES)
        assert calls == [7, 7, 6]  # both ends, then every scale but a = 0
        assert np.max(np.abs(got + 0.15 * SHIFT_SCALES)) <= 1e-14

    def test_exact_zero_tolerance_stops_at_a_narrow_bracket(self, sphere,
                                                           monkeypatch):
        # with no |A| tolerance a scale stops once its bracket is 4 ulps wide
        xi = SHIFT_GRAPHS["trig"][0](sphere, sphere.halfwidth)
        alphas = 0.4 * sphere.halfwidth / xi.sup_norm() * SHIFT_SCALES
        want = reference_solve_c_grid(xi, alphas)
        monkeypatch.setattr(exactness, "_C_TOL", 0.0)
        calls = _count_area_calls(monkeypatch)
        got = solve_c_grid(xi, alphas)
        assert len(calls) < 200
        assert np.max(np.abs(got - want)) <= 1e-12


class TestShiftContractGuards:
    """Each refusal of an out-of-contract shift, reached by monkeypatching."""

    def test_area_that_does_not_bracket_zero(self, sphere, monkeypatch):
        xi = trig_curve(sphere, {1: 0.1}, offset=0.02, n=256)
        monkeypatch.setattr(exactness, "_area_batch",
                            lambda patch, block: np.full(len(block), 1e-9))
        with pytest.raises(NoBracket, match=r"area does not bracket zero: "
                           r"max A\(lo\)=1\.000e-09, min A\(hi\)=1\.000e-09"):
            solve_c_grid(xi, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("shifts, message", [
        (lambda a, sup: np.where(a == 0, 2e-10, 0.0),
         r"endpoint shifts do not vanish: c\(0\)=2\.00e-10, c\(1\)=0\.00e\+00"),
        (lambda a, sup: np.where(a == 1, -3e-10, 0.0),
         r"endpoint shifts do not vanish: c\(0\)=0\.00e\+00, c\(1\)=-3\.00e-10"),
        (lambda a, sup: np.where(a == 0.5, 0.5 * sup + 1e-9, 0.0),
         r"shift exceeds the bracket bound a\*max\|xi\|"),
        # inside the bracket at every scale, but 1.25 sup apart over 0.25
        (lambda a, sup: np.array([0.0, 0.0, 0.5, -0.75, 0.0]) * sup,
         r"shift violates the Lipschitz bound max\|xi\| \|a-a'\|"),
    ], ids=["c0", "c1", "bracket", "lipschitz"])
    def test_build_contraction_refuses_a_shift(self, sphere, monkeypatch,
                                               shifts, message):
        xi = trig_curve(sphere, {1: 0.1}, n=256)
        sup = xi.sup_norm()

        def solve(curve, alphas):
            if len(alphas) == 1:  # the input's own shift
                return np.zeros(1)
            return shifts(np.asarray(alphas), sup)
        monkeypatch.setattr(exactness, "solve_c_grid", solve)
        with pytest.raises(NoBracket, match=message):
            build_contraction(xi, n_alpha=5)

    def test_build_contraction_refuses_to_leave_the_band(self, sphere,
                                                         monkeypatch):
        # |a xi + c| <= 2 max|xi| < 2r/3 for any shift in the bracket, so
        # only a path curve that is not the shifted graph leaves the band
        class Wide:
            def sup_norm(self):
                return sphere.halfwidth
        monkeypatch.setattr(exactness, "solve_c_grid",
                            lambda curve, alphas: np.zeros(len(alphas)))
        monkeypatch.setattr(exactness, "shifted_curve",
                            lambda *args, **kwargs: Wide())
        with pytest.raises(NoBracket, match="contraction leaves the band"):
            build_contraction(trig_curve(sphere, {1: 0.1}, n=256), n_alpha=5)


class TestContractionPath:
    def test_zero_graph(self, cyl):
        path = build_contraction(Curve.constant(cyl, 0.0, n=256),
                                 n_alpha=5)
        assert np.max(np.abs(path.c)) == 0.0
        assert all(cv.sup_norm() == 0.0 for cv in path.curves)

    def test_mean_zero_flat(self, cyl):
        path = build_contraction(trig_curve(cyl, {3: 0.2}, n=512),
                                 n_alpha=11)
        assert np.max(np.abs(path.c)) < 1e-12

    def test_nontrivial_on_sphere(self, sphere):
        xi = trig_curve(sphere, {1: 0.08, 2: 0.06}, offset=0.04, n=512)
        path = build_contraction(xi, n_alpha=11)
        assert abs(path.c[0]) < 1e-10 and abs(path.c[-1]) < 1e-10
        assert np.max(np.abs(path.c[1:-1])) > 1e-8  # interior shifts nonzero
        for cv in path.curves:
            assert abs(area_functional(cv)) <= 1e-12

    def test_lipschitz_and_bracket(self, sphere):
        xi = trig_curve(sphere, {1: 0.07, 3: 0.05}, offset=0.02, n=512)
        path = build_contraction(xi, n_alpha=21)
        sup = path.xi.sup_norm()
        da = np.abs(path.alphas[:, None] - path.alphas[None, :])
        dc = np.abs(path.c[:, None] - path.c[None, :])
        assert np.all(dc <= sup * da + 1e-11)
        assert np.all(np.abs(path.c) <= path.alphas * sup + 1e-14)

    def test_precondition_third(self, cyl):
        with pytest.raises(ParamOutOfRange):
            build_contraction(trig_curve(cyl, {1: 0.6}, n=256))


class TestContractionBounds:
    def test_zero_graph_trivial(self, cyl):
        path = build_contraction(Curve.constant(cyl, 0.0, n=256),
                                 n_alpha=5)
        chk = contraction_bounds_check(path, k=0.0, k_prime=0.1)
        assert chk.ok

    def test_flat_small_graph(self, cyl):
        path = build_contraction(trig_curve(cyl, {4: 0.05}, n=512),
                                 n_alpha=11)
        chk = contraction_bounds_check(path, k=0.0, k_prime=0.1)
        assert chk.ok
        # flat case: curvature profile increases in alpha, peak at the end
        assert chk.max_curvature == pytest.approx(chk.curvatures[-1], rel=1e-9)
        assert chk.curvatures[-1] == pytest.approx(0.8, rel=2e-2)

    def test_plane_small_graph(self, plane):
        path = build_contraction(trig_curve(plane, {5: 0.02}, n=512),
                                 n_alpha=11)
        chk = contraction_bounds_check(path, k=0.5, k_prime=0.6)
        assert chk.ok

    @pytest.mark.parametrize("k_prime", [0.5, 0.4])
    def test_k_prime_must_exceed_k(self, cyl, k_prime):
        path = build_contraction(Curve.constant(cyl, 0.0, n=256), n_alpha=3)
        with pytest.raises(ValueError, match="k_prime must exceed k"):
            contraction_bounds_check(path, k=0.5, k_prime=k_prime)


class TestIsotopyInvariant:
    def test_parallel_action(self, cyl):
        inv = isotopy_invariant(Curve.constant(cyl, 0.4, n=512), "liouville_class")
        assert inv.kind == "liouville_class"
        assert inv.value == pytest.approx(2 * np.pi * 0.4, abs=1e-10)

    def test_mean_zero_action(self, cyl):
        inv = isotopy_invariant(trig_curve(cyl, {2: 0.5}, n=512), "liouville_class")
        assert abs(inv.value) < 1e-12

    def test_circle_area_and_rho(self, plane_wide):
        circle = Curve.constant(plane_wide, 2.0 - 1.1, n=512)
        inv = isotopy_invariant(circle, "enclosed_area")
        assert inv.kind == "enclosed_area"
        assert inv.value == pytest.approx(np.pi * 1.1 ** 2, abs=1e-10)
        assert inv.monotonicity_constant == pytest.approx(np.pi * 1.1 ** 2 / 2,
                                                          abs=1e-10)

    @pytest.mark.parametrize("radius", [1.5, 2.0, 3.0])
    def test_graph_area_matches_the_polar_closed_form(self, radius):
        # a polar graph rho = R - xi encloses (1/2) int rho^2 dtheta
        patch = plane_annulus(radius, 0.6 * radius, grid=(256, 65))
        rng = np.random.default_rng(int(10 * radius))
        for _ in range(4):
            modes = rng.choice(np.arange(1, 9), size=3, replace=False)
            a, b = rng.uniform(-0.04, 0.04, (2, 3)) * radius
            c0 = rng.uniform(-0.3, 0.3) * radius
            curve = trig_curve(patch, dict(zip(modes, a)), dict(zip(modes, b)),
                               offset=c0, n=512)
            exact = (np.pi * (radius - c0) ** 2
                     + np.pi / 2 * float(np.sum(a * a + b * b)))
            inv = isotopy_invariant(curve, "enclosed_area")
            assert inv.value == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", [
        {"kappa": "0.5", "gauss": "0.1*cos(s)"},
        {"kappa": "0.5", "gauss": "0*s", "length": 4.0},
        {"kappa": "0*s", "gauss": "0*s"},
        {"kappa": "0.2*cos(s)", "gauss": "0*s"},
    ], ids=["curved_surface", "short_band", "flat", "varying_kappa"])
    def test_plane_area_needs_a_whole_circle_band(self, spec):
        patch = build_patch_from_spec({"length": 4 * np.pi, "halfwidth": 0.5,
                                       "grid": [64, 17], **spec})
        with pytest.raises(ParamOutOfRange, match="plane circle"):
            isotopy_invariant(Curve.constant(patch, 0.1, n=64), "enclosed_area")

    def test_unknown_kind(self, cyl):
        with pytest.raises(ValueError, match="unknown invariant kind 'plane'"):
            isotopy_invariant(Curve.constant(cyl, 0.1, n=64), "plane")
