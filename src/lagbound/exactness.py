"""Area functional on a band, the exactness-restoring vertical shift, the
contraction path of a graph through exact graphs, and isotopy invariants.

A graph xi is exact when its signed band area

    A(xi) = integral_0^l integral_0^{xi(s)} w(s, t) dt ds

vanishes.  For every scale a there is a unique shift c(a) making a*xi + c(a)
exact, because c -> A(a*xi + c) is strictly increasing (w > 0); c is found
by Illinois regula falsi inside the guaranteed bracket |c| <= |a| * max|xi|,
which keeps the graphs inside the band while |a| * max|xi| < r/2.
The inner integral W = int_0^t w is read at the patch columns by
`SurfacePatch.cum_w_at`; every function takes its band from `curve.patch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, tameness
from .errors import NoBracket, OutOfPatch, ParamOutOfRange
from .numerics import resample_periodic
from .surface import SurfacePatch, _eval

__all__ = [
    "ContractionPath",
    "IsotopyInvariant",
    "BoundsCheck",
    "area_functional",
    "solve_c",
    "build_contraction",
    "contraction_bounds_check",
    "isotopy_invariant",
    "shifted_curve",
]

_C_TOL = 1e-13     # |A| at which a regula falsi shift counts as exact
_LIP_SLACK = 1e-11  # float slack; equality is attained for constant graphs


def _xi_on_patch_grid(curve: Curve) -> np.ndarray:
    patch = curve.patch
    if curve.n == patch.n_s:
        return curve.xi
    if curve.fns is not None and curve.fns[0] is not None:
        return _eval(curve.fns[0], patch.s)
    return resample_periodic(curve.xi, patch.n_s)


def area_functional(curve: Curve) -> float:
    """Signed area between the graph and the base curve, weighted by the warp."""
    xi_grid, r = _xi_on_patch_grid(curve), curve.patch.halfwidth
    top = np.max(np.abs(xi_grid))
    if top >= r:
        raise OutOfPatch(f"graph reaches |xi| = {top:.6g} >= r = {r:.6g} on "
                         "the patch columns")
    return float(_area_batch(curve.patch, xi_grid))


def _area_batch(patch: SurfacePatch, xi_block: np.ndarray) -> np.ndarray:
    """A for graphs sampled on the patch columns, shape (..., n_s)."""
    return patch.cum_w_at(xi_block).mean(axis=-1) * patch.length


def solve_c_grid(curve: Curve, alphas: np.ndarray) -> np.ndarray:
    """Vertical shifts c(a) with A(a*xi + c(a)) = 0 for a whole grid of scales.

    Illinois regula falsi inside the guaranteed bracket |c| <= |a|*max|xi|
    (the area is strictly increasing in the shift since the warp is
    positive), run on all scales simultaneously.  Each step evaluates A at
    the secant point of the bracket ends (the midpoint if that is not
    strictly inside) and keeps the bracket; when one end is kept twice in a
    row its stored area is halved, so the stale end cannot stall the secant.
    A scale stops at |A| <= _C_TOL, or at a bracket 4 ulps wide, which
    returns its midpoint.  Raises ParamOutOfRange unless
    max|a| * max|xi| < r/2, so that every bracketed graph lies in the band.
    """
    alphas = np.asarray(alphas, dtype=float)
    patch, sup = curve.patch, curve.sup_norm()
    reach = float(np.max(np.abs(alphas), initial=0.0)) * sup
    if reach >= patch.halfwidth / 2:
        raise ParamOutOfRange(f"shift solve requires max|a| max|xi| < r/2 = "
                              f"{patch.halfwidth / 2:.4g}, got {reach:.4g}")
    if sup == 0.0:
        return np.zeros_like(alphas)
    xi_grid = _xi_on_patch_grid(curve)
    xi_block = alphas[:, None] * xi_grid[None, :]
    hi = np.abs(alphas) * sup
    lo = -hi
    f_lo = _area_batch(patch, xi_block + lo[:, None])
    f_hi = _area_batch(patch, xi_block + hi[:, None])
    if np.any(f_lo > _C_TOL) or np.any(f_hi < -_C_TOL):
        raise NoBracket(f"area does not bracket zero: max A(lo)="
                        f"{f_lo.max():.3e}, min A(hi)={f_hi.min():.3e}")
    out = np.where(alphas == 0.0, 0.0, 0.5 * (lo + hi))
    done = (alphas == 0.0) | (np.abs(f_lo) <= _C_TOL) | (np.abs(f_hi) <= _C_TOL)
    out[np.abs(f_hi) <= _C_TOL] = hi[np.abs(f_hi) <= _C_TOL]
    out[np.abs(f_lo) <= _C_TOL] = lo[np.abs(f_lo) <= _C_TOL]
    last = np.zeros_like(alphas)  # sign of the last A: -1 moved lo, +1 hi
    for _ in range(200):  # far past the float resolution of c
        ulps = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        act = np.flatnonzero(~done & (hi - lo > ulps))
        if act.size == 0:
            break
        a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
        x = (a * fb - b * fa) / (fb - fa)  # fa < 0 < fb, so fb - fa > 0
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        fx = _area_batch(patch, xi_block[act] + x[:, None])
        hit = np.abs(fx) <= _C_TOL
        out[act[hit]] = x[hit]
        done[act[hit]] = True
        low, high = ~hit & (fx < 0), ~hit & (fx > 0)
        up, down = act[low], act[high]
        f_hi[up[last[up] < 0]] *= 0.5  # lo moved twice: hi is stale
        f_lo[down[last[down] > 0]] *= 0.5
        lo[up], f_lo[up] = x[low], fx[low]
        hi[down], f_hi[down] = x[high], fx[high]
        last[act] = np.sign(fx)
    out[~done] = 0.5 * (lo[~done] + hi[~done])
    return out


def solve_c(curve: Curve, alpha: float) -> float:
    """Unique vertical shift c with A(alpha*xi + c) = 0, |c| <= |alpha|*max|xi|."""
    return float(solve_c_grid(curve, np.array([float(alpha)]))[0])


def shifted_curve(curve: Curve, shift: float, scale: float = 1.0,
                  name: str | None = None) -> Curve:
    """The graph scale*xi + shift with derivatives scaled accordingly."""
    fns = None
    if scale == 1.0 and curve.fns is not None and curve.fns[0] is not None:
        f0, f1, f2 = curve.fns
        fns = ((lambda s, _f=f0: _f(s) + shift), f1, f2)
    return Curve(curve.patch, scale * curve.xi + shift, scale * curve.dxi,
                 scale * curve.d2xi,
                 name=name or f"{curve.name}{scale:+g}x{shift:+.3g}", fns=fns)


@dataclass
class ContractionPath:
    """Family alpha -> graph(alpha * xi + c(alpha)) of exact graphs.

    The input graph is first made exact by its own shift, so that both
    endpoints of the path carry no shift: c(0) = c(1) = 0.
    """

    patch: SurfacePatch
    xi: Curve
    alphas: np.ndarray
    c: np.ndarray
    curves: list


def build_contraction(curve: Curve, n_alpha: int = 101) -> ContractionPath:
    """Contraction path of a graph through exact graphs.

    Verifies the shift contract on the whole grid: vanishing endpoints, the
    bracket bound |c(a)| <= a*max|xi|, the Lipschitz bound
    |c(a)-c(a')| <= max|xi| |a-a'|, and containment in the band.
    """
    patch = curve.patch
    if curve.sup_norm() >= patch.halfwidth / 3:
        raise ParamOutOfRange(
            f"build_contraction requires max|xi| < r/3 = "
            f"{patch.halfwidth / 3:.4g}, got {curve.sup_norm():.4g}")
    c_fix = solve_c(curve, 1.0)
    xi_hat = shifted_curve(curve, c_fix, name=f"{curve.name}_exact") \
        if abs(c_fix) > 0 else curve
    sup = xi_hat.sup_norm()

    alphas = np.linspace(0.0, 1.0, n_alpha)
    c = solve_c_grid(xi_hat, alphas)
    curves = [shifted_curve(xi_hat, c[k], scale=a,
                            name=f"{curve.name}_a{a:.3f}")
              for k, a in enumerate(alphas)]

    if abs(c[0]) > 1e-10 or abs(c[-1]) > 1e-10:
        raise NoBracket(f"endpoint shifts do not vanish: c(0)={c[0]:.2e}, "
                        f"c(1)={c[-1]:.2e}")
    if np.any(np.abs(c) > alphas * sup + 1e-12):
        raise NoBracket("shift exceeds the bracket bound a*max|xi|")
    dc = np.abs(c[:, None] - c[None, :])
    da = np.abs(alphas[:, None] - alphas[None, :])
    if np.any(dc > sup * da + _LIP_SLACK):
        raise NoBracket("shift violates the Lipschitz bound max|xi| |a-a'|")
    for cv in curves:
        if cv.sup_norm() >= patch.halfwidth:
            raise NoBracket("contraction leaves the band")
    return ContractionPath(patch=patch, xi=xi_hat, alphas=alphas, c=c,
                           curves=curves)


@dataclass
class BoundsCheck:
    ok: bool
    curvature_ok: bool
    tameness_ok: bool
    max_curvature: float
    curvature_bound: float
    min_tameness: float
    tameness_bound: float
    curvatures: np.ndarray
    tameness_values: np.ndarray


def contraction_bounds_check(path: ContractionPath, k: float, k_prime: float,
                             tol_curv: float = 1e-6,
                             tol_eps: float = 5e-3) -> BoundsCheck:
    """Along the contraction path, curvature stays below max(k', |B| at a=1)
    and tameness above min of the endpoint values, within tolerances.

    `k` is the curvature bound of the base curve and k' > k absorbs the
    warp corrections for small graphs.  Each path curve is measured once:
    its tameness report carries its |B| report.
    """
    if k_prime <= k:
        raise ValueError("k_prime must exceed k")
    reports = [tameness(cv) for cv in path.curves]
    curv = np.array([rep.curvature.sup for rep in reports])
    eps = np.array([rep.epsilon for rep in reports])
    curv_bound = max(k_prime, float(curv[-1]))
    eps_bound = min(float(eps[0]), float(eps[-1]))
    curv_ok = bool(np.max(curv) <= curv_bound + tol_curv)
    eps_ok = bool(np.min(eps) >= eps_bound - tol_eps)
    return BoundsCheck(ok=curv_ok and eps_ok, curvature_ok=curv_ok,
                       tameness_ok=eps_ok,
                       max_curvature=float(np.max(curv)),
                       curvature_bound=curv_bound,
                       min_tameness=float(np.min(eps)),
                       tameness_bound=eps_bound,
                       curvatures=curv, tameness_values=eps)


# ---------------------------------------------------------------------------
# isotopy invariants
# ---------------------------------------------------------------------------

@dataclass
class IsotopyInvariant:
    """Computable isotopy invariant: action class on the cylinder, enclosed
    area in the plane.  For plane circles the monotonicity constant is
    area / 2 (disk class convention)."""

    kind: str
    value: float
    monotonicity_constant: float | None = None


def _circle_radius(patch: SurfacePatch) -> float:
    """Radius R = 1/kappa of a band around a whole plane circle: kappa one
    positive value on the patch columns, K zero on the band (`gauss_max`, read
    by the warp march) and length 2 pi R to 1e-12 relative.  ParamOutOfRange
    for any other band."""
    kap = patch.kappa
    if not (kap[0] > 0 and np.all(kap == kap[0])):
        reason = "kappa is not one positive value"
    elif patch.gauss_max != 0:
        reason = "K is not zero on the band"
    elif abs(patch.length * kap[0] - 2 * np.pi) > 2e-12 * np.pi:
        reason = "its length is not 2 pi / kappa"
    else:
        return 1.0 / float(kap[0])
    raise ParamOutOfRange(f"{patch.base.name} is not a band around a plane "
                          f"circle ({reason})")


def isotopy_invariant(curve: Curve, kind: str) -> IsotopyInvariant:
    """Isotopy invariant of a graph, by its name.

    kind="liouville_class": the action integral (zero iff the graph is exact).
    kind="enclosed_area": the enclosed area of the planar embedding, by
    Green's theorem, on a band around a whole plane circle (`_circle_radius`).
    There w = 1 - t/R > 0 on the band, so the graph embeds as the polar graph
    of radius R - xi > 0 over one full turn, which never crosses itself.
    ValueError for any other kind.
    """
    if kind == "liouville_class":
        return IsotopyInvariant(kind=kind, value=area_functional(curve))
    if kind != "enclosed_area":
        raise ValueError(f"unknown invariant kind {kind!r}")
    rr = _circle_radius(curve.patch)
    s, xi, dxi = curve.s, curve.xi, curve.dxi
    rho = rr - xi
    ang = s / rr
    x = rho * np.cos(ang)
    y = rho * np.sin(ang)
    dx = -dxi * np.cos(ang) - rho / rr * np.sin(ang)
    dy = -dxi * np.sin(ang) + rho / rr * np.cos(ang)
    area = abs(float(np.mean(0.5 * (x * dy - y * dx)) * curve.patch.length))
    return IsotopyInvariant(kind=kind, value=area,
                            monotonicity_constant=area / 2.0)
