import numpy as np
import pytest

from lagbound.numerics import periodic_bilinear, resample_periodic, rk4_step


def _direct_trig_sum(values, m):
    """The trigonometric interpolant of `values` on the uniform m-grid as a
    direct sum over the rfft modes, each phase k j reduced mod m in integers."""
    n = len(values)
    c = np.fft.rfft(values)
    weight = np.full(len(c), 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0  # the Nyquist mode counts once
    phase = np.outer(np.arange(m), np.arange(len(c))) % m * (2 * np.pi / m)
    return (np.exp(1j * phase) * (weight * c)).real.sum(axis=1) / n


class TestResamplePeriodic:
    @pytest.mark.parametrize("n, m", [
        (64, 63), (63, 64), (65, 130), (300, 512), (1000, 512), (512, 1000),
        (512, 256), (1024, 1024), (1023, 1023), (4096, 512), (4095, 256)])
    def test_matches_the_direct_sum(self, n, m):
        values = np.random.default_rng(n * m).standard_normal(n)
        got = resample_periodic(values, m)
        assert got.shape == (m,)
        assert np.max(np.abs(got - _direct_trig_sum(values, m))) \
            <= 1e-13 * np.max(np.abs(values))

    def test_band_limited_data_is_exact(self):
        period = 2 * np.pi

        def f(s):
            return 0.3 + np.cos(3 * s) - 0.5 * np.sin(7 * s + 0.2)

        for n, m in ((32, 17), (17, 32), (16, 1000)):
            s_m = np.arange(m) * (period / m)
            got = resample_periodic(f(np.arange(n) * (period / n)), m)
            assert np.max(np.abs(got - f(s_m))) < 1e-13


class TestRK4Step:
    @staticmethod
    def _error(n_steps):
        # y' = y cos t, y(0) = 1 has the closed form y = exp(sin t)
        rhs = lambda t, y: y * np.cos(t)  # noqa: E731
        y, t, h = np.array([1.0]), 0.0, 1.0 / n_steps
        for _ in range(n_steps):
            y = rk4_step(rhs, t, y, h)
            t += h
        return abs(y[0] - np.exp(np.sin(1.0)))

    def test_fourth_order_convergence(self):
        errs = [self._error(n) for n in (8, 16, 32, 64)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(14.0 < r < 18.0 for r in ratios), ratios

    def test_batched_steps_match_single_trajectories(self):
        rhs = lambda t, y: np.stack([y[1], -t * y[0]])  # noqa: E731
        y0 = np.array([[1.0, 0.5, -0.2], [0.0, 0.3, 1.1]])
        t = np.array([0.0, 0.4, 1.3])
        h = np.array([0.1, -0.05, 0.02])
        batched = rk4_step(rhs, t, y0, h)
        for b in range(3):
            single = rk4_step(rhs, t[b], y0[:, b], h[b])
            assert np.array_equal(batched[:, b], single)

    @pytest.mark.parametrize("h", [0.1, np.array([0.1, -0.05, 0.02])],
                             ids=["scalar", "per-member"])
    def test_matches_the_textbook_formula_byte_for_byte(self, h):
        def textbook(rhs, t, y, h):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + (h / 2) * k1)
            k3 = rhs(t + h / 2, y + (h / 2) * k2)
            k4 = rhs(t + h, y + h * k3)
            return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

        def run(step, t):
            # the rhs reads t, as the warp march's does; every t is recorded
            seen = []

            def rhs(t, y):
                seen.append(np.array(t, dtype=float).tobytes())
                return np.stack([y[1] * np.cos(t), -t * y[0] + np.sin(3 * t)])
            y0 = np.array([[1.0, 0.5, -0.2], [0.0, 0.3, 1.1]])
            return step(rhs, t, y0, h).tobytes(), seen

        for t in (0.7, np.array([0.0, 0.4, 1.3])):
            assert run(rk4_step, t) == run(textbook, t)


class TestPeriodicBilinear:
    period = 2.0
    t_axis = np.linspace(-0.5, 0.5, 11)

    def test_exact_on_bilinear_data(self, rng):
        n_s = 16
        s_nodes = np.arange(n_s) * (self.period / n_s)
        f = lambda s, t: 0.3 - 1.2 * s + 0.7 * t + 2.5 * s * t  # noqa: E731
        table = f(s_nodes[:, None], self.t_axis[None, :])
        # queries stay off the wrapping cell [s_{n-1}, l), where the table
        # is not bilinear
        s = rng.uniform(0.0, s_nodes[-1], 200)
        t = rng.uniform(-0.5, 0.5, 200)
        got = periodic_bilinear(table, self.period, self.t_axis, s, t)
        assert np.max(np.abs(got - f(s, t))) < 1e-13

    def test_nodes_wrap_and_clamp(self, rng):
        table = rng.normal(size=(16, 11))
        s_nodes = np.arange(16) * (self.period / 16)
        ii, jj = np.meshgrid(np.arange(16), np.arange(11), indexing="ij")
        at_nodes = periodic_bilinear(table, self.period, self.t_axis,
                                     s_nodes[ii] + 3 * self.period,
                                     self.t_axis[jj])
        assert np.max(np.abs(at_nodes - table)) < 1e-12
        beyond = periodic_bilinear(table, self.period, self.t_axis,
                                   s_nodes, np.full(16, 9.0))
        assert np.max(np.abs(beyond - table[:, -1])) < 1e-12

    def test_continuous_across_the_seam(self, rng):
        table = rng.normal(size=(16, 11))
        t = rng.uniform(-0.5, 0.5, 50)
        lookup = lambda s: periodic_bilinear(  # noqa: E731
            table, self.period, self.t_axis, np.full(t.shape, s), t)
        assert np.array_equal(lookup(self.period), lookup(0.0))
        for delta in (1e-3, 1e-6, 1e-9):
            gap = np.max(np.abs(lookup(self.period - delta) - lookup(delta)))
            # two cells of width l/16, each with Lipschitz constant <= 2*max|T| / (l/16)
            assert gap <= 2 * delta * 2 * np.max(np.abs(table)) * 16 / self.period
