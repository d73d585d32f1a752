"""Normal-coordinate bands around a closed curve on a surface.

A patch is the band (s, t) in [0, l) x (-r, r) around a closed unit-speed base
curve, where t is arclength along the normal geodesics.  The induced metric is

    g = w(s,t)^2 ds^2 + dt^2,

and the warp field w solves, along each normal ray,

    w_tt + K(s,t) w = 0,     w(s,0) = 1,   w_t(s,0) = -kappa(s),

with kappa the signed geodesic curvature of the base curve and K the Gaussian
curvature of the ambient surface.  Everything downstream (graph curvature,
intrinsic lengths, the area functional, shortest-path distances) is driven by
this field and its first partials.

A patch marches (w, w_t, w_s, w_st, int_0^t w) over its rows within `_MARCH_TOL`,
measured by step doubling.  While kappa, K and K_s read the same bits on every
column (as on every named band), one column per direction is stepped and stands
for all; a run whose error passes the tolerance stops at that row.  Every point
reads its warp data from that grid (`SurfacePatch.warp_at`): the marched fields
at the two bracketing rows come from the point's column, or from an 8-node
barycentric interpolant in s between columns, and a quintic Hermite in t joins
the rows.  The same Hermite reads int_0^t w at the columns
(`SurfacePatch.cum_w_at`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ChartDegenerate, OutOfPatch
from .numerics import (loglog_slope, periodic_bilinear, rk4_step,
                       wrap_difference)

__all__ = [
    "BaseCurve",
    "SurfacePatch",
    "TaylorFit",
    "solve_warp",
    "warp_taylor_check",
    "flat_cylinder",
    "unit_cylinder",
    "plane_annulus",
    "sphere_band",
    "hyperbolic_band",
    "cylinder_distance",
    "DEFAULT_GRID",
    "NAMED_BANDS",
]

DEFAULT_GRID = (2048, 513)
_PERIOD_TOL = 1e-10  # relative to max(1, max |f|) on the probe
_MARCH_TOL = 5e-13  # bound on 2x the measured march error, below the 1e-12 |B| floor
_MAX_SUBSTEPS = 256  # ends the doubling; a band still above the tolerance is refused
# the s-interpolant's node count and barycentric weights (-1)^j C(7, j)
_ORDER = 8
_BARY_WEIGHTS = np.array([(-1.0) ** j * math.comb(_ORDER - 1, j)
                          for j in range(_ORDER)])


def _eval(f: Callable, s: np.ndarray, *t) -> np.ndarray:
    """f(s, *t) as a float array of the shape of s."""
    out = np.asarray(f(s, *t), dtype=float)
    if out.shape != np.shape(s):
        out = np.broadcast_to(out, np.shape(s)).copy()
    return out


def _period_gap(at_s: np.ndarray, at_s_plus_l: np.ndarray) -> float:
    """max |f(s) - f(s + l)| over max(1, max |f(s)|): the rounding of s + l
    leaves a periodic f of large amplitude an absolute gap of order eps |f'|."""
    return float(np.max(np.abs(at_s - at_s_plus_l))
                 / max(1.0, np.max(np.abs(at_s))))


def _five_point(f: Callable, h: float) -> np.ndarray:
    """Fourth-order central difference of d -> f(d) at d = 0, grouped so that
    a constant f has derivative exactly 0."""
    return ((f(-2 * h) - f(2 * h)) + 8 * (f(h) - f(-h))) / (12 * h)


@dataclass(frozen=True)
class BaseCurve:
    """Closed unit-speed base curve of a band.

    Parameters
    ----------
    length : float
        Arclength period l > 0.
    kappa : callable s -> float
        Signed geodesic curvature, periodic with period l.
    gauss : callable (s, t) -> float
        Gaussian curvature of the ambient surface at band coordinates (s, t).
    kappa_prime, gauss_s : callables, optional
        Analytic s-derivatives; finite differences of the callables are used
        when omitted.
    """

    length: float
    kappa: Callable
    gauss: Callable
    kappa_prime: Callable | None = None
    gauss_s: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("base curve length must be positive")
        probe = np.linspace(0.0, self.length, 7, endpoint=False) + 0.1234
        k0 = _eval(self.kappa, probe)
        k1 = _eval(self.kappa, probe + self.length)
        if not np.all(np.isfinite(k0)):
            raise ValueError("kappa must be bounded on [0, l)")
        if _period_gap(k0, k1) > _PERIOD_TOL:
            raise ValueError("kappa is not periodic with the declared period")
        g0 = _eval(self.gauss, probe, 0.05)
        g1 = _eval(self.gauss, probe + self.length, 0.05)
        if _period_gap(g0, g1) > _PERIOD_TOL:
            raise ValueError("gauss is not periodic in s with the declared period")

    def kappa_s(self, s: np.ndarray) -> np.ndarray:
        if self.kappa_prime is not None:
            return _eval(self.kappa_prime, s)
        return _five_point(lambda d: _eval(self.kappa, s + d), 1e-4 * self.length)

    def gauss_ds(self, s: np.ndarray, t) -> np.ndarray:
        if self.gauss_s is not None:
            return _eval(self.gauss_s, s, t)
        return _five_point(lambda d: _eval(self.gauss, s + d, t),
                           1e-4 * self.length)


def _warp_deriv(nk, nks, state: np.ndarray) -> np.ndarray:
    """Time derivative of (w, w_t, w_s, w_st, int_0^t w) given -K and -K_s."""
    w, u, v, y, _ = state
    return np.array([u, nk * w, y, nk * v + nks * w, w])


def _same_per_direction(a: np.ndarray) -> bool:
    """Whether each half of the last axis (one march direction) holds the same
    bits in every column: -0.0 and +0.0 differ, as do NaNs of other payloads."""
    bits = a.view(np.int64)
    bits = bits.reshape(bits.shape[:-1] + (2, -1))
    return bool(np.all(bits == bits[..., :1]))


def check_grid(n_s: int, n_t: int):
    """Raise ValueError unless n_s >= 16 and n_t is odd and >= 9, so that the
    base curve is the middle grid row."""
    if n_t % 2 == 0 or n_t < 9:
        raise ValueError("n_t must be odd and at least 9")
    if n_s < 16:
        raise ValueError("n_s must be at least 16")


def _warp_initial(base: BaseCurve, s: np.ndarray) -> np.ndarray:
    """Warp system state on the base curve: w = 1, w_t = -kappa, w_st = -kappa'."""
    state = np.zeros((5, s.size))
    state[0] = 1.0
    state[1] = -_eval(base.kappa, s)
    state[3] = -base.kappa_s(s)
    return state


def _hermite5(lo: np.ndarray, hi: np.ndarray, x: np.ndarray, h: float):
    """Quintic Hermite at fractions x of a step h; lo, hi stack (f, f_t, f_tt)."""
    def side(f, a, b, hb):
        return a ** 3 * ((1 + 3 * b + 6 * b * b) * f[0]
                         + b * (1 + 3 * b) * hb * f[1] + 0.5 * (b * hb) ** 2 * f[2])
    return side(lo, 1 - x, x, h) + side(hi, x, 1 - x, -h)


@dataclass
class TaylorFit:
    """Quadratic fit of w^2 near t=0 with the observed remainder order."""

    coefficients: tuple[float, float, float]
    expected: tuple[float, float, float]
    remainder_order: float
    max_remainder: float


class SurfacePatch:
    """Band around a base curve carrying the sampled warp field.

    Grids are uniform: s over [0, l) with wraparound indexing, t over [-r, r]
    with an odd point count so the base curve is the middle row.  `kappa` is
    kappa on the columns, `gauss_max` max |K| over every column and RK4 stage
    of the march, and `is_flat_cylinder` says both are below 1e-14.
    """

    def __init__(self, base: BaseCurve, halfwidth: float, n_s: int, n_t: int):
        check_grid(n_s, n_t)
        if not halfwidth > 0:
            raise ValueError("halfwidth must be positive")
        self.base = base
        self.halfwidth = float(halfwidth)
        self.n_s = int(n_s)
        self.n_t = int(n_t)
        self.s = np.arange(n_s) * (base.length / n_s)
        self.t = np.linspace(-halfwidth, halfwidth, n_t)
        self.kappa = _eval(base.kappa, self.s)
        if not np.all(np.isfinite(self.kappa)):
            raise ValueError(f"kappa of {base.name} is not finite on the columns")
        self._march()
        if np.min(self.w) <= 0.0:
            raise ChartDegenerate(
                f"warp field reaches {np.min(self.w):.3e} inside the band; "
                f"halfwidth {halfwidth} exceeds the focal radius of {base.name}")
        self.is_flat_cylinder = bool(np.max(np.abs(self.kappa)) < 1e-14
                                     and self.gauss_max < 1e-14)
        self._dist_graph = None  # distances.build_band_graph fills it
        self._stencil_error: float | None = None

    def _march(self):
        """Use the fewest power-of-two RK4 substeps per row (>= 4) that meet
        `_MARCH_TOL`; `warp_error` adds a unit roundoff per substep.  Each run
        steps one column per direction until a row's K or K_s differs between
        columns, and a rejected run stops at the row where it fails, so only
        the accepted run (or the one at `_MAX_SUBSTEPS`) marches every row.
        A K that is not finite is a ValueError: K is read on every grid node
        before the first run, so no run climbs towards rows it cannot reach,
        and at every RK4 stage by the runs.  A field that overflows, or a run
        at `_MAX_SUBSTEPS` that still misses the tolerance, is
        ChartDegenerate."""
        self.substeps, err = 2, np.inf
        nodes = np.meshgrid(self.s, self.t, indexing="ij")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            if not np.all(np.isfinite(_eval(self.base.gauss, *nodes))):
                raise ValueError(f"K of {self.base.name} is not finite on "
                                 "the band")
            while 2 * err > _MARCH_TOL and self.substeps < _MAX_SUBSTEPS:
                self.substeps *= 2
                fields, err, self.gauss_max = self._march_rows(self.substeps)
        if not np.isfinite(self.gauss_max):
            raise ValueError(f"K of {self.base.name} is not finite on the band")
        top, bottom = fields.max(), -fields.min()
        if not np.isfinite(err + top + bottom):  # a NaN or inf shows in max or min
            raise ChartDegenerate(
                f"warp field of {self.base.name} overflows inside the band "
                f"(max |K| {self.gauss_max:.3e})")
        if 2 * err > _MARCH_TOL:
            raise ChartDegenerate(
                f"warp march of {self.base.name} does not resolve the band: "
                f"error {err:.3e} at {self.substeps} substeps per row")
        ulp = np.finfo(float).eps * max(top, bottom)
        self.warp_error = err + float(self.substeps * (self.n_t // 2) * ulp)
        self.w, self.w_t, self.w_s, self.w_st, self.cum_w = fields

    def _march_rows(self, substeps: int) -> tuple[np.ndarray, float, float]:
        """Both directions in one batch at `substeps` RK4 steps per row: the
        fields (w, w_t, w_s, w_st, int_0^t w), the step-doubling error and
        max |K| over every column and stage (NaN if K is NaN anywhere).

        While the start state and each row's -K and -K_s hold the same bits on
        every column of a direction, one column per direction is stepped: RK4
        is elementwise, so every column would repeat it bit for bit.  The first
        row where they differ widens the state to all columns.  Below
        `_MAX_SUBSTEPS` a run returns at the row where 2x its error, which only
        grows, passes `_MARCH_TOL`; such a run is rejected and its fields are
        never read.
        """
        n_s, mid, h_row = self.n_s, (self.n_t - 1) // 2, self.t[1] - self.t[0]
        half = h_row / (2 * substeps)
        sign = np.repeat([1.0, -1.0], n_s)
        s = np.broadcast_to(np.tile(self.s, 2), (2 * substeps + 1, 2 * n_s))
        # the second half marches in tau = -t, on (w, -w_t, w_s, -w_st, -int w)
        flip = np.array([1.0, -1.0, 1.0, -1.0, -1.0])[:, None]
        fields, err, kmax = np.empty((5, n_s, self.n_t)), 0.0, 0.0
        state = _warp_initial(self.base, s[0])
        state[:, n_s:] *= flip
        fields[:, :, mid] = state[:, :n_s]
        if _same_per_direction(state):
            state = state[:, ::n_s]
        for k in range(mid):
            t0 = k * h_row
            t = sign * (t0 + half * np.arange(2 * substeps + 1)[:, None])
            nk, nks = -_eval(self.base.gauss, s, t), -self.base.gauss_ds(s, t)
            kmax = np.maximum(kmax, np.max(np.abs(nk)))  # keeps a NaN; max() not
            if state.shape[1] < 2 * n_s:
                if _same_per_direction(nk) and _same_per_direction(nks):
                    nk, nks = nk[:, ::n_s], nks[:, ::n_s]
                else:
                    state = np.repeat(state, n_s, axis=1)
            def rhs(tau, y):
                m = round((tau - t0) / half)  # the row's stage m
                return _warp_deriv(nk[m], nks[m], y)
            # a whole-row step's gap to the substeps is ~(S^4 - 1) times their error
            big = rk4_step(rhs, t0, state, h_row)
            for i in range(substeps):
                state = rk4_step(rhs, t0 + 2 * i * half, state, 2 * half)
            err += np.max(np.abs(state - big)) / (substeps ** 4 - 1)
            if 2 * err > _MARCH_TOL and substeps < _MAX_SUBSTEPS:
                break
            width = state.shape[1] // 2
            fields[:, :, mid + k + 1] = state[:, :width]
            fields[:, :, mid - k - 1] = state[:, width:] * flip
        return fields, float(err), float(kmax)

    # -- basic queries ------------------------------------------------------

    @property
    def length(self) -> float:
        return self.base.length

    def require_inside(self, t_values, margin: float | None = None):
        if margin is None:
            margin = self.t[1] - self.t[0]
        if not np.max(np.abs(t_values)) < self.halfwidth - margin:
            raise OutOfPatch(
                f"points reach |t|={np.max(np.abs(t_values)):.4f}, "
                f"margin requires |t| < {self.halfwidth - margin:.4f}")

    # -- warp lookup ---------------------------------------------------------

    def warp_at(self, s: np.ndarray, t: np.ndarray,
                _stride: int = 1) -> dict[str, np.ndarray]:
        """Warp data (w and the partials of w^2) at points (s_i, t_i): the
        marched fields at the bracketing rows, `_stride` rows apart, read at
        the point's column (to 1e-9 of a cell) or by a periodic 8-node
        barycentric interpolant in s, then a quintic Hermite in t with the ODE's
        t-derivatives.  `_stride` 2 also halves the columns, unless n_s is odd.
        """
        s = np.asarray(s, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), s.shape)
        cs = _stride if self.n_s % _stride == 0 else 1
        n_cols = self.n_s // cs
        pos = s * (n_cols / self.length)
        col = np.rint(pos)
        off = np.flatnonzero(np.abs(pos - col) >= 1e-9)
        col = (col.astype(int) % n_cols) * cs
        s_at = self.s[col]  # K at a column point's own column s, bit for bit
        s_at[off] = s[off]
        nodes = np.floor(pos[off]).astype(int)[:, None] + np.arange(-3, 5)
        bary = _BARY_WEIGHTS / (pos[off, None] - nodes)
        den = bary.sum(axis=1)
        h = _stride * (self.t[1] - self.t[0])
        j = np.clip(((t - self.t[0]) // h).astype(int) * _stride, 0,
                    self.n_t - 1 - _stride)
        rows = np.stack([j, j + _stride])
        # flat indices of each point's column and of its stencil, at both rows
        at_col = col * self.n_t + rows
        at_nodes = (nodes % n_cols) * (cs * self.n_t) + rows[:, off, None]
        w, u, v, y = fields = np.empty((4,) + rows.shape)
        for f, out in zip((self.w, self.w_t, self.w_s, self.w_st), fields):
            out[:] = f.take(at_col)
            if off.size:
                out[:, off] = np.einsum("rik,ik->ri", f.take(at_nodes),
                                        bary) / den
        s, tr = np.broadcast_to(s_at, rows.shape), self.t[rows]
        nk, nks = -_eval(self.base.gauss, s, tr), -self.base.gauss_ds(s, tr)
        nkt = -_five_point(lambda d: _eval(self.base.gauss, s, tr + d), 1e-4)
        # (f, f_t, f_tt) of w, w_t and w_s at both rows, from w_tt = -K w
        ends = np.array([[w, u, v], [u, nk * w, y],
                         [nk * w, nkt * w + nk * u, nk * v + nks * w]])
        w, u, v = _hermite5(ends[:, :, 0], ends[:, :, 1], (t - self.t[j]) / h, h)
        return {"w": w, "w2_t": 2 * w * u, "w2_s": 2 * w * v}

    def cum_w_at(self, t: np.ndarray) -> np.ndarray:
        """W = int_0^t w dt at column i for t[..., i]: the quintic Hermite of
        `warp_at` on the marched (W, W_t = w, W_tt = w_t) at the bracketing
        rows, so no K is evaluated."""
        t = np.asarray(t, dtype=float)
        h = self.t[1] - self.t[0]
        j = np.clip(((t - self.t[0]) // h).astype(int), 0, self.n_t - 2)
        at = np.arange(self.n_s) * self.n_t + np.stack([j, j + 1])
        lo, hi = np.stack([f.take(at) for f in (self.cum_w, self.w, self.w_t)],
                          axis=1)
        return _hermite5(lo, hi, (t - self.t[j]) / h, h)

    def grid_w(self, s_query: np.ndarray, t_query: np.ndarray) -> np.ndarray:
        """Bilinear warp lookup on the stored grid (wraps in s)."""
        return periodic_bilinear(self.w, self.length, self.t, s_query, t_query)

    # -- distances ------------------------------------------------------------

    def stencil_error_ratio(self) -> float:
        """Relative gap between the 8- and 16-neighbor shortest paths, measured
        once per patch from a central source; quantifies the stencil anisotropy.
        """
        if self._stencil_error is None:
            from .distances import estimate_stencil_error

            self._stencil_error = estimate_stencil_error(self)
        return self._stencil_error

    def export_warp_csv(self, path):
        from .report import format_float

        header = (f"# schema=1,l={format_float(self.length)},"
                  f"r={format_float(self.halfwidth)},n_s={self.n_s},n_t={self.n_t}\n")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for i in range(self.n_s):
                fh.write(",".join(format_float(x) for x in self.w[i]) + "\n")

    def __repr__(self):
        return (f"SurfacePatch({self.base.name}, l={self.length:.6g}, "
                f"r={self.halfwidth:.6g}, grid={self.n_s}x{self.n_t})")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def solve_warp(base: BaseCurve, halfwidth: float, grid=DEFAULT_GRID) -> SurfacePatch:
    """Build a patch by integrating the normal ODE over the requested grid.

    Raises ChartDegenerate when the warp field loses positivity inside the
    band, which signals that `halfwidth` exceeds the focal radius.
    """
    n_s, n_t = grid
    return SurfacePatch(base, halfwidth, n_s, n_t)


def warp_taylor_check(patch: SurfacePatch, s: float) -> TaylorFit:
    """Fit w(s,.)^2 near t=0 and measure the order of its cubic remainder.

    The quadratic coefficients must reproduce (1, -2 kappa, kappa^2 - K); the
    remainder against that exact quadratic, at 24 points from t = 1e-3 to
    min(0.1, 0.9 r), has order >= 3 in t.
    """
    t_hi = min(0.1, 0.9 * patch.halfwidth)
    kap = float(_eval(patch.base.kappa, np.array([s]))[0])
    kk0 = float(_eval(patch.base.gauss, np.array([s]), 0.0)[0])
    expected = (1.0, -2.0 * kap, kap * kap - kk0)

    # Degree-4 fit so the quartic tail does not contaminate the quadratic jet.
    t_fit = np.linspace(-min(0.01, t_hi), min(0.01, t_hi), 17)
    w2 = patch.warp_at(np.full(t_fit.shape, s), t_fit)["w"] ** 2
    coeffs = tuple(np.polyfit(t_fit, w2, 4)[::-1][:3])

    t_rem = np.geomspace(1e-3, t_hi, 24)
    w2r = patch.warp_at(np.full(t_rem.shape, s), t_rem)["w"] ** 2
    model = expected[0] + expected[1] * t_rem + expected[2] * t_rem ** 2
    rem = w2r - model
    max_rem = float(np.max(np.abs(rem)))
    order = np.inf if max_rem < 5e-13 else loglog_slope(t_rem, rem)
    return TaylorFit(coefficients=coeffs, expected=expected,
                     remainder_order=order, max_remainder=max_rem)


# ---------------------------------------------------------------------------
# closed-form distances for the model bands
# ---------------------------------------------------------------------------

def cylinder_distance(length: float, x, y):
    """Exact distance on the flat cylinder: straight line in the unrolled plane.

    x and y are (s, t) points, or arrays of them along the last axis that
    broadcast against each other.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dq = wrap_difference(x[..., 0], y[..., 0], length)
    return np.hypot(dq, x[..., 1] - y[..., 1])


# ---------------------------------------------------------------------------
# predefined patches
# ---------------------------------------------------------------------------

def _constant_base(length: float, kappa: float, gauss: float,
                   name: str) -> BaseCurve:
    """Base curve of constant kappa on a surface of constant K."""
    return BaseCurve(length, lambda s: 0.0 * s + kappa,
                     lambda s, t: 0.0 * s + gauss,
                     kappa_prime=lambda s: 0.0 * s, gauss_s=lambda s, t: 0.0 * s,
                     name=name)


def flat_cylinder(length: float = 2 * np.pi, halfwidth: float = 1.5,
                  grid=DEFAULT_GRID) -> SurfacePatch:
    return solve_warp(_constant_base(length, 0.0, 0.0, "flat_cylinder"),
                      halfwidth, grid)


def unit_cylinder(halfwidth: float = 1.25, grid=(2048, 257)) -> SurfacePatch:
    """Flat cylinder with unit circumference (base circle R/Z)."""
    return flat_cylinder(length=1.0, halfwidth=halfwidth, grid=grid)


def plane_annulus(circle_radius: float = 2.0, halfwidth: float = 1.0,
                  grid=DEFAULT_GRID) -> SurfacePatch:
    """Band in the flat plane around a circle; warp is 1 - t/R."""
    rr = float(circle_radius)
    return solve_warp(_constant_base(2 * np.pi * rr, 1.0 / rr, 0.0,
                                     f"plane_circle_R{rr:g}"), halfwidth, grid)


def sphere_band(halfwidth: float = 0.6, grid=DEFAULT_GRID) -> SurfacePatch:
    """Band around the equator of the unit sphere; warp is cos t."""
    return solve_warp(_constant_base(2 * np.pi, 0.0, 1.0, "sphere_equator"),
                      halfwidth, grid)


def hyperbolic_band(halfwidth: float = 0.6, grid=DEFAULT_GRID) -> SurfacePatch:
    """Band around a closed geodesic in a hyperbolic surface; warp is cosh t."""
    return solve_warp(_constant_base(2 * np.pi, 0.0, -1.0, "hyperbolic_band"),
                      halfwidth, grid)


# the named bands of `--patch`, the lemma suite and the cylinder families
# (the plane-circle family keeps r = 1.5); each takes an optional `grid`,
# by default DEFAULT_GRID (2048x257 for unit_cylinder)
NAMED_BANDS = {
    "cylinder": partial(flat_cylinder, halfwidth=2.0),
    "flat_cylinder": flat_cylinder,
    "plane_circle": plane_annulus,
    "sphere_equator": sphere_band,
    "hyperbolic_band": hyperbolic_band,
    "unit_cylinder": unit_cylinder,
}
