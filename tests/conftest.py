import numpy as np
import pytest

from lagbound import sasaki, surface
from lagbound.errors import StepTooLarge
from lagbound.numerics import rk4_step
from lagbound.surface import (flat_cylinder, hyperbolic_band, plane_annulus,
                              sphere_band, unit_cylinder)

# Moderate grids keep the unit tests fast; the acceptance module builds its
# own full-resolution patches where a criterion demands them.
GRID = (512, 129)


def _reference_warp(patch, s, t, n_steps=2000):
    """Warp data at points (s_i, t_i) by n_steps fixed RK4 steps of the normal
    ODE system from the base row, keyed as `SurfacePatch.warp_at`."""
    base, s = patch.base, np.asarray(s, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), s.shape)

    def rhs(ti, y):
        return surface._warp_deriv(-surface._eval2(base.gauss, s, ti),
                                   -base.gauss_ds(s, ti), y)

    state, h = surface._warp_initial(base, s), t / n_steps
    for k in range(n_steps):
        state = rk4_step(rhs, k * h, state, h)
    w, u, v = state[:3]
    return {"w": w, "w2_t": 2 * w * u, "w2_s": 2 * w * v}


def reference_march_rows(patch, substeps):
    """`SurfacePatch._march_rows` stepping every column of every row, with no
    early return: (fields, error, max |K|) as the method returns them."""
    n_s, mid, h_row = patch.n_s, (patch.n_t - 1) // 2, patch.t[1] - patch.t[0]
    half = h_row / (2 * substeps)
    sign = np.repeat([1.0, -1.0], n_s)
    s = np.broadcast_to(np.tile(patch.s, 2), (2 * substeps + 1, 2 * n_s))
    flip = np.array([1.0, -1.0, 1.0, -1.0, -1.0])[:, None]
    fields, err, kmax = np.empty((5, n_s, patch.n_t)), 0.0, 0.0
    state = surface._warp_initial(patch.base, s[0])
    state[:, n_s:] *= flip
    fields[:, :, mid] = state[:, :n_s]
    for k in range(mid):
        t0 = k * h_row
        t = sign * (t0 + half * np.arange(2 * substeps + 1)[:, None])
        nk = -surface._eval2(patch.base.gauss, s, t)
        nks = -patch.base.gauss_ds(s, t)
        kmax = np.maximum(kmax, np.max(np.abs(nk)))

        def rhs(tau, y):
            m = round((tau - t0) / half)
            return surface._warp_deriv(nk[m], nks[m], y)
        big = rk4_step(rhs, t0, state, h_row)
        for i in range(substeps):
            state = rk4_step(rhs, t0 + 2 * i * half, state, 2 * half)
        err += np.max(np.abs(state - big)) / (substeps ** 4 - 1)
        fields[:, :, mid + k + 1] = state[:, :n_s]
        fields[:, :, mid - k - 1] = state[:, n_s:] * flip
    return fields, float(err), float(kmax)


def plane_embed(circle_radius, s, t):
    """Planar embedding of the band around a circle (normal pointing inward)."""
    ang = np.asarray(s, dtype=float) / circle_radius
    rho = circle_radius - np.asarray(t, dtype=float)
    return np.stack([rho * np.cos(ang), rho * np.sin(ang)], axis=-1)


def sphere_embed(s, t):
    """Embedding of the equatorial band of the unit sphere."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.stack([np.cos(t) * np.cos(s), np.cos(t) * np.sin(s), np.sin(t)],
                    axis=-1)


def gamma_vw(base, u, v, w):
    """Gamma(v, w)^i of the conformal chart metric, one reduction per dot
    product, as the bundle geodesic equations first took it."""
    if base.phis == (None,):
        dphi = np.zeros_like(u)
    else:
        dphi = -2.0 * u / (1.0 + (u * u).sum(-1, keepdims=True))
    return ((dphi * w).sum(-1, keepdims=True) * v
            + (dphi * v).sum(-1, keepdims=True) * w
            - (v * w).sum(-1, keepdims=True) * dphi)


def riemann(base, u, x_vec, y_vec, z_vec):
    """R(X, Y)Z for constant curvature: K (<Y,Z> X - <X,Z> Y)."""
    k = base.gauss_curvature
    if k == 0.0:
        return np.zeros_like(x_vec)
    lam2 = base.lam2(u)[..., None]
    yz = (y_vec * z_vec).sum(-1, keepdims=True)
    xz = (x_vec * z_vec).sum(-1, keepdims=True)
    return k * lam2 * (yz * x_vec - xz * y_vec)


def _reference_rhs(base, x, vyz):
    """The bundle geodesic equations in the gamma_vw + riemann form."""
    v, y, z = vyz
    gam = gamma_vw(base, x, v, vyz)
    dv = -gam[0] - riemann(base, x, y, z, v)
    dy = z - gam[1]
    dz = -gam[2]
    return v, dv, dy, dz


def _reference_integrate(base, state, charts, n_steps, h):
    """One plain RK4 run of n_steps steps of h, recorded as
    `sasaki._integrate` records a run."""
    def rhs(_t, st):
        return np.array(_reference_rhs(base, st[0], st[1:]))

    rec_i, rec, rec_c = [], [], []
    for step_i in range(n_steps + 1):
        if step_i % (sasaki._RECORD_EVERY // 2) == 0 or step_i == n_steps:
            rec_i.append(step_i)
            rec.append(state.copy())
            rec_c.append(charts.copy())
        if step_i == n_steps:
            break
        state = rk4_step(rhs, step_i * h, state, h)
        x, charts, *vecs = base.rechart(state[0], charts, *state[1:])
        state = np.array([x, *vecs])
    return np.array(rec_i), np.stack(rec), np.stack(rec_c)


def reference_sasaki_geodesic(base, states, horizon, step=np.inf):
    """`sasaki.sasaki_geodesic` with the fine and the coarse run integrated
    one after the other by `_reference_integrate`."""
    state = np.stack([[np.asarray(getattr(s, f), dtype=float) for s in states]
                      for f in ("x", "v", "y", "z")])
    charts = np.array([s.chart for s in states], dtype=int)
    if np.isfinite(step):
        n = 2 * int(np.ceil(horizon / (2 * step)))
        tol, floor = sasaki._HALVING_TOL, step
    else:
        n = 2
        while horizon / n > sasaki._LADDER_START:
            n *= 2
        step, tol = horizon / n, sasaki._HALVING_TOL / 10
        floor = sasaki._LADDER_FLOOR
    coarse = _reference_integrate(base, state, charts, n // 2, 2 * step)
    while True:
        fine = _reference_integrate(base, state, charts, n, step)
        halving = sasaki._halving_error(base, fine, coarse)
        if halving <= tol:
            break
        if step / 2 < floor:
            raise StepTooLarge(
                f"step-halving error {halving:.2e} at step {step:.3g} exceeds "
                f"tolerance {tol:.2e}, and the step may not fall below "
                f"{floor:.3g}")
        coarse, n, step = fine, 2 * n, step / 2
    steps, recs, ch = fine
    out = sasaki._output_records(steps)
    times = np.array([i * step for i in steps[out]])
    xs, vs, ys, zs = np.moveaxis(recs[out], 1, 0)
    return sasaki.Trajectory(
        base=base, times=times, x=xs, v=vs, y=ys, z=zs, charts=ch[out],
        y_norm2=sasaki._fiber_norm2(base, xs, ys),
        z_norm2=sasaki._fiber_norm2(base, xs, zs), step=step,
        halving_error=halving)


@pytest.fixture(scope="session")
def cyl():
    return flat_cylinder(halfwidth=1.5, grid=GRID)


@pytest.fixture(scope="session")
def cyl_wide():
    return flat_cylinder(halfwidth=3.0, grid=GRID)


@pytest.fixture(scope="session")
def plane():
    return plane_annulus(circle_radius=2.0, halfwidth=1.0, grid=GRID)


@pytest.fixture(scope="session")
def plane_wide():
    return plane_annulus(circle_radius=2.0, halfwidth=1.5, grid=GRID)


@pytest.fixture(scope="session")
def sphere():
    return sphere_band(halfwidth=0.6, grid=GRID)


@pytest.fixture(scope="session")
def hyperbolic():
    return hyperbolic_band(halfwidth=0.6, grid=GRID)


@pytest.fixture(scope="session")
def ucyl():
    return unit_cylinder(halfwidth=1.25, grid=(512, 129))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
