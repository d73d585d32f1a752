"""Graph curves over a band's base curve and their bound-defining invariants.

A curve is a periodic graph t = xi(s) inside a patch.  The module computes

* the pointwise geodesic curvature via the warped-metric formula

      |B| = w / (w^2 + xi'^2)^{3/2}
            * | xi'' + (1/2) d_t w^2 - (xi'/w^2)((1/2) d_s w^2 + xi' d_t w^2) |

  with every warp quantity evaluated at (s, xi(s)),

* the arclength primitive from the length element sqrt(w^2 + xi'^2) ds, on
  the curve's own grid (`Curve.cum_length`),

* the tameness constant: the infimum over point pairs of
  d_ambient / min(1, d_intrinsic), split into a sampled long-range scan and an
  analytic chord-arc bound covering the excluded short range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DistortionExceeded
from .numerics import (fourier_derivative, fourier_primitive_grid,
                       resample_periodic)
from .surface import _PERIOD_TOL, SurfacePatch, _eval, _period_gap

__all__ = [
    "Curve",
    "CurvatureReport",
    "TamenessReport",
    "ComparisonCheck",
    "geodesic_curvature",
    "tameness",
    "tameness_comparison_check",
    "trig_curve",
]


class Curve:
    """Periodic graph t = xi(s) over the base curve of a patch.

    Samples are stored on a uniform s-grid; analytic callables for xi and its
    first two derivatives are kept when available, otherwise the derivatives
    come from spectral differentiation of the samples, and `resampled` moves
    the samples to another grid through their trigonometric interpolant.
    """

    def __init__(self, patch: SurfacePatch, xi: np.ndarray, dxi: np.ndarray,
                 d2xi: np.ndarray, name: str = "curve",
                 fns: tuple[Callable, Callable, Callable] | None = None):
        n = len(xi)
        self.patch = patch
        self.n = n
        self.s = np.arange(n) * (patch.length / n)
        self.xi = np.asarray(xi, dtype=float)
        self.dxi = np.asarray(dxi, dtype=float)
        self.d2xi = np.asarray(d2xi, dtype=float)
        self.name = name
        self.fns = fns
        if np.max(np.abs(self.xi)) >= patch.halfwidth:
            raise ValueError(
                f"curve {name!r} leaves the band: max|xi|="
                f"{np.max(np.abs(self.xi)):.4f} >= r={patch.halfwidth:.4f}")
        if fns is not None:
            probe = self.s[:: max(1, n // 7)]
            for f in fns:
                if f is None:
                    continue
                gap = _period_gap(_eval(f, probe), _eval(f, probe + patch.length))
                if gap > _PERIOD_TOL:
                    raise ValueError(f"curve {name!r}: callable not periodic "
                                     f"(relative gap {gap:.2e})")
        self._cache: dict = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_callables(cls, patch: SurfacePatch, xi: Callable,
                       dxi: Callable | None = None, d2xi: Callable | None = None,
                       n: int = 2048, name: str = "curve") -> "Curve":
        s = np.arange(n) * (patch.length / n)
        xs = _eval(xi, s)
        if dxi is not None and d2xi is not None:
            dxs, d2xs = _eval(dxi, s), _eval(d2xi, s)
        else:
            dxs = fourier_derivative(xs, patch.length)
            d2xs = fourier_derivative(dxs, patch.length)
        return cls(patch, xs, dxs, d2xs, name=name, fns=(xi, dxi, d2xi))

    @classmethod
    def from_samples(cls, patch: SurfacePatch, xi_samples: np.ndarray,
                     name: str = "sampled") -> "Curve":
        xs = np.asarray(xi_samples, dtype=float)
        dxs = fourier_derivative(xs, patch.length)
        d2xs = fourier_derivative(dxs, patch.length)
        return cls(patch, xs, dxs, d2xs, name=name)

    @classmethod
    def constant(cls, patch: SurfacePatch, c: float, n: int = 2048,
                 name: str | None = None) -> "Curve":
        return cls.from_callables(patch, lambda s: c + 0.0 * s,
                                  lambda s: 0.0 * s, lambda s: 0.0 * s, n=n,
                                  name=name or f"parallel_{c:g}")

    # -- derived data ----------------------------------------------------------

    def resampled(self, n2: int) -> "Curve":
        if self.fns is not None and all(f is not None for f in self.fns):
            return Curve.from_callables(self.patch, *self.fns, n=n2, name=self.name)
        return Curve.from_samples(self.patch, resample_periodic(self.xi, n2),
                                  name=self.name)

    def warp_data(self) -> dict[str, np.ndarray]:
        if "warp" not in self._cache:
            self._cache["warp"] = self.patch.warp_at(self.s, self.xi)
        return self._cache["warp"]

    def speed(self) -> np.ndarray:
        if "speed" not in self._cache:
            w = self.warp_data()["w"]
            self._cache["speed"] = np.sqrt(w * w + self.dxi * self.dxi)
        return self._cache["speed"]

    def cum_length(self) -> np.ndarray:
        if "cum" not in self._cache:
            self._cache["cum"] = fourier_primitive_grid(self.speed(),
                                                        self.patch.length)
        return self._cache["cum"]

    def total_length(self) -> float:
        return float(np.mean(self.speed()) * self.patch.length)

    def scan(self, n_scan: int) -> tuple[np.ndarray, float]:
        """Indices of `n_scan` evenly spread samples, at most one per sample
        (a repeated one adds no data), and their largest metric spacing."""
        n = min(n_scan, self.n)
        idx = np.linspace(0, self.n, n, endpoint=False).astype(int)
        return idx, self.patch.length / n * float(np.max(self.speed()))

    def points(self, idx=None) -> np.ndarray:
        if idx is None:
            return np.stack([self.s, self.xi], axis=1)
        return np.stack([self.s[idx], self.xi[idx]], axis=1)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.xi)))

    def __repr__(self):
        return f"Curve({self.name!r}, n={self.n}, max|xi|={self.sup_norm():.4g})"


def trig_curve(patch: SurfacePatch, cos_amps: dict[int, float] | None = None,
               sin_amps: dict[int, float] | None = None, offset: float = 0.0,
               n: int = 2048, name: str = "trig") -> Curve:
    """Closed-form trigonometric graph with analytic derivatives."""
    cos_amps = dict(cos_amps or {})
    sin_amps = dict(sin_amps or {})
    om = 2 * np.pi / patch.length

    # the k-th derivative of a cos(w s) and a sin(w s), w = om m, is
    # sign * coef[k] * function(w s); coef keeps each product's grouping
    table = ((cos_amps, ((1, np.cos), (-1, np.sin), (-1, np.cos))),
             (sin_amps, ((1, np.sin), (1, np.cos), (-1, np.sin))))
    coef = (lambda a, m: a, lambda a, m: a * om * m,
            lambda a, m: a * (om * m) ** 2)

    def series(k):
        def f(s):
            out = 0.0 * np.asarray(s, dtype=float)
            if k == 0:
                out = offset + out
            for amps, derivs in table:
                sign, g = derivs[k]
                for m, a in amps.items():
                    out = out + sign * coef[k](a, m) * g(om * m * s)
            return out
        return f

    return Curve.from_callables(patch, series(0), series(1), series(2), n=n,
                                name=name)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvatureReport:
    """Pointwise |B| samples with sup norm, its location, and a grid-doubling
    error estimate."""

    s: np.ndarray
    values: np.ndarray
    sup: float
    arg_s: float
    error: float


def _curvature_of(curve: Curve, wd: dict[str, np.ndarray]) -> np.ndarray:
    """Signed |B| samples of `curve` from the warp data `wd` along it."""
    w, w2_t, w2_s = wd["w"], wd["w2_t"], wd["w2_s"]
    xp, xpp = curve.dxi, curve.d2xi
    inner = xpp + 0.5 * w2_t - (xp / (w * w)) * (0.5 * w2_s + xp * w2_t)
    return w / np.power(w * w + xp * xp, 1.5) * inner


def _curvature_signed(curve: Curve) -> np.ndarray:
    return _curvature_of(curve, curve.warp_data())


def geodesic_curvature(curve: Curve, _with_error: bool = True) -> CurvatureReport:
    """Pointwise geodesic curvature of the graph in the band metric.

    The error is the grid-doubling gap plus 1e-12, plus twice the rise p - sup
    to the vertex p of the parabola through |B| at the argmax and its two
    neighbours (the sup between samples, which the doubling gap misses when
    the argmax has an even index), plus the error of the warp lookup along
    the curve, |sup - sup_2| / 63 against a lookup from every other row and
    column: Richardson for the quintic's h^6 error in t, and conservative for
    the 8-node interpolant's h^8 error in s.
    """
    values = np.abs(_curvature_signed(curve))
    sup = float(np.max(values))
    # the first sample at the sup up to rounding, so lookup noise cannot reorder ties
    k = int(np.argmax(values >= sup * (1 - 1e-14)))
    err = 1e-12
    if _with_error:
        j = int(np.argmax(values))
        a, c = values[j - 1], values[(j + 1) % curve.n]
        bend = 2 * sup - a - c
        if bend > 0:  # p - sup = (c - a)^2 / (8 bend) <= |c - a| / 8
            err += float((c - a) ** 2 / (4 * bend))
        if curve.n >= 64:
            half = geodesic_curvature(curve.resampled(curve.n // 2),
                                      _with_error=False)
            err += abs(sup - half.sup)
        coarse = curve.patch.warp_at(curve.s, curve.xi, _stride=2)
        err += abs(sup - np.max(np.abs(_curvature_of(curve, coarse)))) / 63
    return CurvatureReport(s=curve.s, values=values, sup=sup,
                           arg_s=float(curve.s[k]), error=err)


# ---------------------------------------------------------------------------
# tameness
# ---------------------------------------------------------------------------

@dataclass
class TamenessReport:
    """Estimated tameness constant of a graph curve.

    epsilon is the minimum of the sampled long-range infimum of
    d_ambient / min(1, d_intrinsic) over pairs with d_intrinsic >= delta_min,
    and the analytic chord-arc lower bound covering the excluded short range.

    The long-range scan is capped at ambient distance 1: a pair farther apart
    has ratio > 1 and cannot set epsilon, since the short-range bound is
    <= 1.  So `long_range_min` (and `pair`) is exact whenever it is <= 1,
    which covers every case where it can set epsilon; above 1 it is the
    infimum over the pairs within the cap, or `inf` (and `pair` is the first
    sample twice) if there are none.

    Off the flat cylinder the distances come from the patch's one band graph,
    with a direct chord for every sampled pair whose coordinate arc is at
    most 1 / min(w), so for every pair within distance 1.  `error` is twice
    the sample spacing plus the stencil term, measured on that same graph.
    `n_scan` is the number of scan points, at most one per curve sample.

    `curvature` is the |B| report that the short-range bound is built on.
    """

    epsilon: float
    pair: tuple[float, float]
    delta_min: float
    long_range_min: float
    short_range_bound: float
    error: float
    n_scan: int
    curvature: CurvatureReport


def _ratio_scan(cum: np.ndarray, total: float, idx: np.ndarray,
                d_m: np.ndarray, delta_min: float) -> np.ndarray:
    """d_ambient / min(1, d_intrinsic) over the sampled pairs idx, with `inf`
    where the shorter arc is below delta_min; `cum` is the arclength
    primitive on the curve's grid and `total` the length."""
    c = cum[idx]
    diff = np.abs(c[:, None] - c[None, :])
    d_xi = np.minimum(diff, total - diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d_m / np.minimum(1.0, d_xi)
    ratio[d_xi < delta_min] = np.inf
    return ratio


def tameness(curve: Curve, n_scan: int | None = None) -> TamenessReport:
    """Tameness constant of a graph curve (see TamenessReport).

    The exclusion radius delta = min(0.05, 1/(4|B| + 1)) keeps the sampled
    infimum away from the removable short-range singularity; pairs inside it
    are covered by the chord-arc bound 1 - |B|^2 delta^2 / 24 minus an
    ambient-curvature distortion term.  This delta gives |B| delta < 1/4,
    inside the bound's range |B| delta < 1.
    """
    curv = geodesic_curvature(curve)
    bnorm = curv.sup
    delta_min = min(0.05, 1.0 / (4.0 * bnorm + 1.0))

    flat = curve.patch.is_flat_cylinder
    if n_scan is None:
        n_scan = 512 if flat else 128
    idx, spacing = curve.scan(n_scan)
    n_scan = len(idx)

    # imported on first use, so that `import lagbound` does not load scipy's csgraph
    from .distances import pairwise_point_distances

    d_m = pairwise_point_distances(curve.patch, curve.points(idx), limit=1.0)
    ratio = _ratio_scan(curve.cum_length(), curve.total_length(), idx, d_m,
                        delta_min)
    k = int(np.argmin(ratio))
    i, j = divmod(k, n_scan)
    long_min = float(ratio[i, j])

    short_bound = 1.0 - bnorm ** 2 * delta_min ** 2 / 24.0 \
        - curve.patch.gauss_max * delta_min ** 2 / 8.0

    eps = min(long_min, short_bound)
    err = 2.0 * spacing
    if not flat:
        err += curve.patch.stencil_error_ratio() * min(1.0, eps)
    return TamenessReport(epsilon=float(eps),
                          pair=(float(curve.s[idx[i]]), float(curve.s[idx[j]])),
                          delta_min=float(delta_min),
                          long_range_min=long_min,
                          short_range_bound=float(short_bound),
                          error=float(err), n_scan=n_scan, curvature=curv)


# ---------------------------------------------------------------------------
# conformal comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonCheck:
    """Primed tameness against the C^{-2} bound.

    `epsilon_prime` is the long-range scan of the rescaled metric, capped at
    rescaled ambient distance 1 as in `TamenessReport.long_range_min`: exact
    whenever it is <= 1, and above 1 the infimum over the pairs within the
    cap, or `inf`.
    """

    ok: bool
    epsilon: float
    epsilon_prime: float
    lower_bound: float
    tolerance: float


def tameness_comparison_check(curve: Curve, conformal_phi: Callable, C: float,
                              tol: float = 5e-3,
                              n_scan: int | None = None) -> ComparisonCheck:
    """Verify that conformal rescaling g' = e^{2 phi} g with e^{2 phi} in
    [1/C, C] degrades the tameness constant by at most C^{-2}.

    The primed constant is the sampled long-range infimum recomputed with all
    lengths scaled by e^{phi}; since it upper-bounds the true primed constant
    only through quadrature noise, `epsilon_prime >= C^{-2} epsilon - tol` is
    the honest check.
    """
    patch = curve.patch
    nodes = np.meshgrid(patch.s, patch.t, indexing="ij")
    factors = np.exp(2 * _eval(conformal_phi, *nodes))
    if factors.max() > C * (1 + 1e-12) or factors.min() < 1 / C * (1 - 1e-12):
        raise DistortionExceeded(
            f"e^(2 phi) spans [{factors.min():.4f}, {factors.max():.4f}], "
            f"outside [1/C, C] = [{1 / C:.4f}, {C:.4f}]")

    base_report = tameness(curve, n_scan=n_scan)
    delta_min = base_report.delta_min
    idx, _ = curve.scan(base_report.n_scan)

    phi_on_curve = _eval(conformal_phi, curve.s, curve.xi)
    speed_prime = np.exp(phi_on_curve) * curve.speed()
    cum_p = fourier_primitive_grid(speed_prime, patch.length)
    total_p = float(np.mean(speed_prime) * patch.length)

    from .distances import pairwise_point_distances

    span = float(factors.max() - factors.min())
    if span < 1e-13:
        lam = float(np.sqrt(factors.max()))
        # the cap sits a hair above 1/lam, so that rounding in lam * d cannot
        # drop a pair whose rescaled distance reads <= 1
        d_m_p = lam * pairwise_point_distances(patch, curve.points(idx),
                                               limit=(1.0 + 1e-12) / lam)
    else:
        scale = lambda s, t: np.exp(_eval(conformal_phi, s, t))  # noqa: E731
        d_m_p = pairwise_point_distances(patch, curve.points(idx), scale,
                                         limit=1.0)

    eps_prime = float(np.min(_ratio_scan(cum_p, total_p, idx, d_m_p,
                                         delta_min)))

    bound = base_report.epsilon / (C * C)
    return ComparisonCheck(ok=bool(eps_prime >= bound - tol),
                           epsilon=base_report.epsilon,
                           epsilon_prime=eps_prime,
                           lower_bound=bound, tolerance=tol)
