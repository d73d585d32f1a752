"""Tangent-bundle geometry over 2D base manifolds with the metric that splits
into horizontal and vertical lifts.

Supported bases are conformally flat in their charts (g = e^{2 phi} delta):
the flat torus (phi = 0, single periodic chart) and the round unit sphere
(two stereographic charts, phi = log(2 / (1 + |u|^2))).

Implements:

* geodesic integration of the bundle equations written on the base,

      cov_acc(x) + R(Y, cov_Y') x' = 0,      cov^2 Y = 0,

  for the state (x, x', Y, cov_{x'} Y), with chart hand-off on the sphere,
  by RK4 at a fixed step or at the coarsest dyadic step whose halving error
  (Richardson against twice the step, plus rounding) meets a tolerance;

* the squared fiber norm law along such geodesics: |Y(t)|^2 is constant or a
  strictly convex parabola with leading coefficient |cov_{x'} Y(0)|^2;

* the second fundamental form of the graph of a rescaled gradient field
  t*grad(H), evaluated on unit frames

      X~ = X^h + (cov_X xi)^v,        Z~ = Z^v - ((cov xi)* Z)^h,

  from exact Taylor jets of closed-form H (its derivatives up to third
  order, with the conformal factor's up to second, by truncated Taylor
  arithmetic in numpy, `lagbound.jets`), contracted with the Christoffel
  symbols;

* the length sandwich d_base <= d_graph <= sqrt(1 + |cov xi|^2) d_base
  checked by quadrature along lifted base geodesics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import jets
from .errors import FrameDegenerate, ParamOutOfRange, StepTooLarge
from .numerics import rk4_step

__all__ = [
    "FlatTorus",
    "RoundSphere",
    "base_manifold",
    "SasakiState",
    "Trajectory",
    "ParabolaFit",
    "GradientGraph",
    "torus_gradient_graph",
    "sphere_harmonic_graph",
    "random_sasaki_states",
    "sasaki_geodesic",
    "parabola_check",
    "curvature_sweep",
    "graph_tameness_bounds",
    "SandwichReport",
]

_BLOCK_VALUES = 2 ** 15  # sweep block size: a dozen 256 KiB arrays fit L2
_N_QUAD = 33        # Simpson nodes (odd) along each pair geodesic
_HALVING_TOL = 1e-6  # largest halving error a bundle geodesic accepts
_HALVING_SAFETY = 2.0  # widens the Richardson part of the halving error
_LADDER_START = 2.0 ** -5   # the largest step the step controller tries
_LADDER_FLOOR = 2.0 ** -14  # the smallest step the step controller tries
_RECORD_EVERY = 10   # fine-run steps between recorded trajectory samples


# ---------------------------------------------------------------------------
# base manifolds
# ---------------------------------------------------------------------------

def _sphere_phi(u1, u2):
    """The conformal factor of a stereographic chart, as a jet."""
    return jets.log(2.0 / (1.0 + u1 * u1 + u2 * u2))


class _ConformalBase:
    """Shared machinery for conformally flat 2D bases, g = e^{2 phi} delta;
    `phis` holds phi per chart as a function of the coordinate jets, or None
    where phi = 0."""

    gauss_curvature: float = 0.0

    @property
    def flat(self) -> bool:
        """phi = 0 and K = 0: the Christoffel symbols and R vanish."""
        return self.phis == (None,) and self.gauss_curvature == 0.0

    def lam(self, u: np.ndarray) -> np.ndarray:
        return np.sqrt(self.lam2(u))

    def rechart(self, u, charts, *vectors):
        return (u, charts) + tuple(vectors)


class FlatTorus(_ConformalBase):
    """Square torus of side 2 pi: flat, single periodic chart."""

    name = "flat_torus"
    gauss_curvature = 0.0
    period = 2.0 * np.pi
    phis = (None,)  # flat: no conformal factor

    def lam2(self, u):
        return np.ones(u.shape[:-1])

    def sample_points(self, n: int = 1600):
        """The k x k grid, k = floor(sqrt(n)): 676 points at n = 700."""
        k = int(np.sqrt(n))
        g = np.arange(k) * (self.period / k)
        uu = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        return uu, np.zeros(len(uu), dtype=int)

    def random_points(self, n: int, rng: np.random.Generator):
        return rng.uniform(0.0, self.period, size=(n, 2)), np.zeros(n, dtype=int)

    def pair_geodesics(self, pa, ca, pb, cb):
        delta = (pb - pa + np.pi) % self.period - np.pi
        d = np.linalg.norm(delta, axis=-1)
        tau = np.linspace(0.0, 1.0, _N_QUAD)
        nodes = pa[:, None, :] + tau[None, :, None] * delta[:, None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            tang = delta / np.where(d[:, None] > 0, d[:, None], 1.0)
        tang = np.broadcast_to(tang[:, None, :], nodes.shape).copy()
        charts = np.zeros(nodes.shape[:-1], dtype=int)
        return d, nodes, charts, tang


class RoundSphere(_ConformalBase):
    """Unit round sphere in two stereographic charts.

    Chart 0 projects from the north pole (covers z <= 0 comfortably), chart 1
    from the south pole; the transition is the inversion u -> u / |u|^2.
    """

    name = "round_sphere"
    gauss_curvature = 1.0
    rechart_radius = 1.4
    phis = (_sphere_phi,) * 2

    def phi_grad_lam2(self, u):
        """grad phi (2, B) and lam^2 = e^{2 phi} (B,) from one |u|^2."""
        q = 1.0 + (u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1])
        return -2.0 * u.T / q, (2.0 / q) ** 2

    def lam2(self, u):
        return (2.0 / (1.0 + (u * u).sum(-1))) ** 2

    def rechart(self, u, charts, *vectors):
        mask = (u * u).sum(-1) > self.rechart_radius ** 2
        if not mask.any():
            return (u, charts) + tuple(vectors)
        u = u.copy()
        charts = charts.copy()
        um = u[mask]
        r2 = (um * um).sum(-1, keepdims=True)
        jac = (np.eye(2) * r2[..., None]
               - 2.0 * um[..., :, None] * um[..., None, :]) / (r2[..., None] ** 2)
        out_vecs = []
        for vec in vectors:
            vec = vec.copy()
            vec[mask] = np.einsum("bij,bj->bi", jac, vec[mask])
            out_vecs.append(vec)
        u[mask] = um / r2
        charts[mask] = 1 - charts[mask]
        return (u, charts) + tuple(out_vecs)

    # -- embedded representation ---------------------------------------------

    @staticmethod
    def embed(u: np.ndarray, charts: np.ndarray) -> np.ndarray:
        r2 = (u * u).sum(-1)
        sign = np.where(charts == 0, 1.0, -1.0)
        z = sign * (r2 - 1.0) / (r2 + 1.0)
        xy = 2.0 * u / (r2 + 1.0)[..., None]
        return np.concatenate([xy, z[..., None]], axis=-1)

    @staticmethod
    def to_chart(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = p[..., 2]
        charts = (z > 0).astype(int)
        denom = np.where(charts == 0, 1.0 - z, 1.0 + z)
        u = p[..., :2] / denom[..., None]
        return u, charts

    @staticmethod
    def _chart_velocity(p, t3, charts):
        z, tz = p[..., 2], t3[..., 2]
        denom = np.where(charts == 0, 1.0 - z, 1.0 + z)
        sign = np.where(charts == 0, 1.0, -1.0)
        return (t3[..., :2] / denom[..., None]
                + sign[..., None] * p[..., :2] * tz[..., None]
                / (denom ** 2)[..., None])

    def sample_points(self, n: int = 1600):
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        ang = np.pi * (3.0 - np.sqrt(5.0)) * i
        p = np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=-1)
        return self.to_chart(p)

    def random_points(self, n: int, rng: np.random.Generator):
        p = rng.normal(size=(n, 3))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        return self.to_chart(p)

    def pair_geodesics(self, pa, ca, pb, cb):
        p0 = self.embed(pa, ca)
        p1 = self.embed(pb, cb)
        cosd = np.clip((p0 * p1).sum(-1), -1.0, 1.0)
        d = np.arccos(cosd)
        sind = np.sqrt(np.maximum(1e-300, 1.0 - cosd ** 2))
        e = (p1 - cosd[:, None] * p0) / sind[:, None]
        tau = np.linspace(0.0, 1.0, _N_QUAD)[None, :, None] * d[:, None, None]
        pts3 = np.cos(tau) * p0[:, None, :] + np.sin(tau) * e[:, None, :]
        t3 = -np.sin(tau) * p0[:, None, :] + np.cos(tau) * e[:, None, :]
        u, charts = self.to_chart(pts3)
        udots = self._chart_velocity(pts3, t3, charts)
        tang = self.lam(u)[..., None] * udots
        return d, u, charts, tang


def base_manifold(name: str):
    if name == "flat_torus":
        return FlatTorus()
    if name == "round_sphere":
        return RoundSphere()
    raise ValueError(f"unknown base manifold {name!r}")


# ---------------------------------------------------------------------------
# bundle geodesics
# ---------------------------------------------------------------------------

@dataclass
class SasakiState:
    """Bundle geodesic state on the base: position, velocity, fiber point Y,
    covariant fiber velocity Z = cov_{x'} Y."""

    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    z: np.ndarray
    chart: int = 0


@dataclass
class Trajectory:
    base: object
    times: np.ndarray
    x: np.ndarray        # (n_rec, B, 2)
    v: np.ndarray
    y: np.ndarray
    z: np.ndarray
    charts: np.ndarray   # (n_rec, B)
    y_norm2: np.ndarray  # (n_rec, B)
    z_norm2: np.ndarray
    step: float          # the RK4 step of the run
    halving_error: float  # bounds the |Y|^2 error at every recorded time


def _rhs(base, x, vyz):
    """Bundle geodesic equations: x' = v, cov_v v = -R(Y, Z) v, cov_v Y = Z,
    cov_v Z = 0, written with the chart Christoffel symbols.

    x (B, 2) and `vyz` = (v, Y, Z) (3, B, 2) are views of `_integrate`'s
    component-major (4, 2, B) state, so each component is a row of B.
    Gamma(v, .) of all three takes the dot products dphi . (v, Y, Z) and
    v . (v, Y, Z), each a0 b0 + a1 b1, and R(Y, Z) v = K lam^2 (<Z, v> Y -
    <Y, v> Z) reads the last two of the second.  On a flat base v and Z are
    constant.  Returns the (4, B, 2) view of a (4, 2, B) array.
    """
    vyz = vyz.transpose(0, 2, 1)
    out = np.empty((4, 2, len(x)))
    if base.flat:
        out[::2], out[1::2] = vyz[::2], 0.0
        return out.transpose(0, 2, 1)
    v, y, z = vyz
    dphi, lam2 = base.phi_grad_lam2(x)
    dv = np.array([dphi, v])
    dots = dv[:, None, 0] * vyz[:, 0] + dv[:, None, 1] * vyz[:, 1]
    terms = dots[:, :, None] * dv[::-1, None]  # (dphi . w) v, (v . w) dphi
    gam = terms[0] + dots[0, 0] * vyz - terms[1]
    riem = base.gauss_curvature * lam2 * (dots[1, 2] * y - dots[1, 1] * z)
    out[0] = v
    np.negative(gam, out=out[1:])
    out[1] -= riem
    out[2] += z  # -gam[1] + z is z - gam[1], bit for bit
    return out.transpose(0, 2, 1)


def _integrate(base, state, charts, runs):
    """RK4 runs `runs` = [(n_steps, h), ...], longest first, from the stacked
    state (x, v, Y, Z) of shape (4, B, 2).  The runs advance as one batch,
    held component-major as (4, 2, members), with a step h per member,
    re-charting after every step (the batch is restacked only when `rechart`
    moved a member), and each run leaves the batch when it finishes; _rhs
    does not read t.

    Each run records every _RECORD_EVERY // 2 steps and its last, so the
    records of a run at 2h fall on the _RECORD_EVERY-th steps of a run at h
    over the same time.  Returns per run the recorded step indices, states
    (k, 4, B, 2) and charts (k, B).
    """
    def rhs(_t, st):
        return _rhs(base, st[0].T, st[1:].transpose(0, 2, 1)).transpose(0, 2, 1)

    n_b, n_steps = len(charts), [n for n, _ in runs]
    # the step of each member in the state's full shape, for the first k
    # runs: an array of that shape multiplies as fast as a scalar
    h = np.repeat([step for _, step in runs], n_b)
    hs = [np.tile(h[:k * n_b], (4, 2, 1)) for k in range(1, len(runs) + 1)]
    state = np.concatenate([state.transpose(0, 2, 1)] * len(runs), axis=2)
    charts = np.tile(charts, len(runs))
    recs = [([], [], []) for _ in runs]
    for step_i in range(n_steps[0] + 1):
        for k, n in enumerate(n_steps):
            if step_i % (_RECORD_EVERY // 2) == 0 or step_i == n:
                recs[k][0].append(step_i)
                recs[k][1].append(state[..., k * n_b:(k + 1) * n_b].copy())
                recs[k][2].append(charts[k * n_b:(k + 1) * n_b].copy())
        while n_steps and n_steps[-1] == step_i:
            n_steps.pop()
        if not n_steps:
            break
        m = len(n_steps) * n_b
        state = rk4_step(rhs, 0.0, state[..., :m], hs[len(n_steps) - 1])
        x, charts, *vecs = base.rechart(state[0].T, charts[:m],
                                        *state[1:].transpose(0, 2, 1))
        if x.base is not state:  # a copy: rechart moved a member
            state = np.stack([x.T, *(vec.T for vec in vecs)])
    return [(np.array(i), np.stack(r).swapaxes(2, 3).copy(), np.stack(c))
            for i, r, c in recs]


def _fiber_norm2(base, xs, vecs):
    """|vec|^2 in the metric at the chart points xs (..., 2)."""
    lam2 = base.lam2(xs.reshape(-1, 2)).reshape(xs.shape[:-1])
    return lam2 * (vecs ** 2).sum(-1)


def _output_records(steps):
    """The records of a run that a Trajectory keeps: every _RECORD_EVERY-th
    step and the last."""
    return (steps % _RECORD_EVERY == 0) | (steps == steps[-1])


def _halving_error(base, fine, coarse):
    """Error bar on |Y|^2 of the run `fine` at its output records, from the
    run `coarse` at twice its step over the same time.

    RK4's error falls 16-fold per halving, so |fine - coarse| / 15 at their
    shared times estimates the fine run's truncation error (Richardson);
    _HALVING_SAFETY widens it.  Rounding adds about eps |Y|^2 per step,
    which both runs share and Richardson cannot see, so the bar adds
    steps * eps * max |Y|^2 over the fine run.
    """
    steps, states, _ = fine
    out = _output_records(steps)
    y2_f = _fiber_norm2(base, states[:, 0], states[:, 2])
    y2_c = _fiber_norm2(base, coarse[1][:, 0], coarse[1][:, 2])
    richardson = float(np.max(np.abs(y2_f[out] - y2_c))) / 15.0
    roundoff = steps[-1] * np.finfo(float).eps * float(np.max(y2_f))
    return _HALVING_SAFETY * richardson + roundoff


def sasaki_geodesic(base, initial, horizon: float = 10.0,
                    step: float = np.inf) -> Trajectory:
    """Integrate bundle geodesics with RK4 and bound the error of |Y|^2.

    `initial` is a SasakiState or a list of them (batched).  Each run is
    checked against the run at twice its step (`_halving_error`); while that
    error exceeds the tolerance the step halves, the rejected run serving as
    the next coarse run, and StepTooLarge is raised below a floor step.

    By default (`step` inf) the first step is horizon / 2^j for the first
    j >= 1 that gives at most _LADDER_START, so the run ends at the horizon;
    the tolerance is _HALVING_TOL / 10 and the floor _LADDER_FLOOR.  A finite
    `step` is the only rung: 2 * ceil(horizon / (2 step)) steps, so both runs
    end together, and the tolerance is _HALVING_TOL.  ParamOutOfRange
    refuses a horizon not in (0, inf), a step not above 0 or no state.
    """
    states = initial if isinstance(initial, (list, tuple)) else [initial]
    if not (0.0 < horizon < np.inf and step > 0.0 and states):
        raise ParamOutOfRange(f"need 0 < horizon < inf, step > 0 and a state, "
                              f"got {horizon}, {step} and {len(states)}")
    state = np.stack([[np.asarray(getattr(s, f), dtype=float) for s in states]
                      for f in ("x", "v", "y", "z")])
    charts = np.array([s.chart for s in states], dtype=int)

    if np.isfinite(step):
        n = 2 * int(np.ceil(horizon / (2 * step)))
        tol, floor = _HALVING_TOL, step
    else:
        n = 2  # steps of the fine run; a power of two, so n * step = horizon
        while horizon / n > _LADDER_START:
            n *= 2
        step, tol, floor = horizon / n, _HALVING_TOL / 10, _LADDER_FLOOR
    fine, coarse = _integrate(base, state, charts,
                              [(n, step), (n // 2, 2 * step)])
    while (halving := _halving_error(base, fine, coarse)) > tol:
        if step / 2 < floor:
            raise StepTooLarge(
                f"step-halving error {halving:.2e} at step {step:.3g} exceeds "
                f"tolerance {tol:.2e}, and the step may not fall below "
                f"{floor:.3g}")
        n, step = 2 * n, step / 2
        coarse, (fine,) = fine, _integrate(base, state, charts, [(n, step)])

    steps, recs, ch = fine
    out = _output_records(steps)
    times = np.array([i * step for i in steps[out]])
    xs, vs, ys, zs = np.moveaxis(recs[out], 1, 0)
    return Trajectory(base=base, times=times, x=xs, v=vs, y=ys, z=zs,
                      charts=ch[out], y_norm2=_fiber_norm2(base, xs, ys),
                      z_norm2=_fiber_norm2(base, xs, zs), step=step,
                      halving_error=halving)


@dataclass
class ParabolaFit:
    coefficients: np.ndarray   # (B, 3): c0 + c1 t + c2 t^2
    max_residual: np.ndarray   # (B,)
    leading: np.ndarray        # (B,)
    expected_leading: np.ndarray


def parabola_check(traj: Trajectory) -> ParabolaFit:
    """Least-squares quadratic fit of |Y(t)|^2 along each trajectory.

    The law: the squared fiber norm is constant or a strictly convex parabola
    whose leading coefficient equals |Z(0)|^2.  ParamOutOfRange is raised
    when the trajectory records fewer than 3 distinct times, too few to fit.
    """
    n_times = len(np.unique(traj.times))
    if n_times < 3:
        raise ParamOutOfRange(f"{n_times} recorded times cannot fit a "
                              f"parabola; lengthen the horizon")
    n_b = traj.y_norm2.shape[1]
    coeffs = np.empty((n_b, 3))
    resid = np.empty(n_b)
    for b in range(n_b):
        cs = np.polyfit(traj.times, traj.y_norm2[:, b], 2)[::-1]
        coeffs[b] = cs
        model = cs[0] + cs[1] * traj.times + cs[2] * traj.times ** 2
        resid[b] = np.max(np.abs(traj.y_norm2[:, b] - model))
    return ParabolaFit(coefficients=coeffs, max_residual=resid,
                       leading=coeffs[:, 2], expected_leading=traj.z_norm2[0])


def random_sasaki_states(base, n: int,
                         rng: np.random.Generator) -> list[SasakiState]:
    """Unit-speed random initial states with |Y|, |Z| of order 1/2."""
    pts, charts = base.random_points(n, rng)
    lam = base.lam(pts)
    states = []
    for i in range(n):
        v = rng.normal(size=2)
        v = v / (lam[i] * np.linalg.norm(v))
        y = rng.normal(size=2) * (0.5 / lam[i])
        z = rng.normal(size=2) * (0.5 / lam[i])
        states.append(SasakiState(x=pts[i], v=v, y=y, z=z, chart=int(charts[i])))
    return states


# ---------------------------------------------------------------------------
# gradient graphs and their second fundamental form
# ---------------------------------------------------------------------------

def _op_norms(t_mat: np.ndarray) -> np.ndarray:
    """Operator norms of the symmetric 2x2 frame matrices T (..., 2, 2)."""
    mean = 0.5 * (t_mat[..., 0, 0] + t_mat[..., 1, 1])
    rad = np.sqrt(0.25 * (t_mat[..., 0, 0] - t_mat[..., 1, 1]) ** 2
                  + t_mat[..., 0, 1] * t_mat[..., 1, 0])
    return np.abs(mean) + rad


# A jet keeps the r + 1 distinct derivatives of order r, by how many of the
# indices are u2, so tensor entry [i, j, ...] is entry i + j + ... of its order.
_IDX2 = np.add.outer(np.arange(2), np.arange(2))
_IDX3 = np.add.outer(_IDX2, np.arange(2))


def _chart_jet(h, phi, pts: np.ndarray) -> np.ndarray:
    """Exact derivatives on one conformal chart at the points pts (n, 2):
    phi and its first and second derivatives, then the first, second and
    third derivatives of H, stacked as (15, n).  h and phi are functions of
    the coordinate jets; phi None is a flat chart."""
    u = jets.variables(pts)
    dh = h(*u).derivatives(1, 3)
    dphi = (np.zeros((6,) + dh.shape[1:]) if phi is None
            else phi(*u).derivatives(0, 2))
    return np.concatenate([dphi, dh])


def _christoffel(v: np.ndarray) -> np.ndarray:
    """[i, j, k] = d_ij v_k + d_ik v_j - d_jk v_i for v (2, ...): the
    Christoffel symbols G^i_jk of g = e^{2 phi} delta when v = grad phi."""
    eye = np.eye(2).reshape((2, 2) + (1,) * (v.ndim - 1))
    return (eye[:, :, None] * v[None, None] + eye[:, None] * v[None, :, None]
            - eye[None] * v[:, None, None])


def _frame_tensors(jet: np.ndarray):
    """xi = grad H, T = cov xi and A = cov T in the orthonormal frame, from a
    chart jet (15, n), each with the point axis first.

    The covariant Hessian S_ik = H_ik - G^m_ik H_m is symmetric bit for bit,
    since G^m_ik is.  T = e^{-2 phi} S is a (1,1) tensor, so its frame and
    coordinate components agree; (cov_j T)^i_k = e^{-2 phi} (cov_j S)_ik is
    a (1,2) tensor, stored at A[i, j, k] with the frame factor e^{-phi}, and
    the frame xi is e^{-phi} dH.
    """
    phi, dphi, ddphi = jet[0], jet[1:3], jet[3:6][_IDX2]
    dh, ddh, dddh = jet[6:8], jet[8:11][_IDX2], jet[11:15][_IDX3]
    gam = _christoffel(dphi)
    hess = ddh - np.einsum("mikn,mn->ikn", gam, dh)
    # [i, k, j] = d_j S_ik, then cov_j S_ik
    d_hess = (dddh - np.einsum("mikjn,mn->ikjn", _christoffel(ddphi), dh)
              - np.einsum("mikn,mjn->ikjn", gam, ddh))
    cov = (d_hess - np.einsum("mjin,mkn->ikjn", gam, hess)
           - np.einsum("mjkn,imn->ikjn", gam, hess))
    e = np.exp(-phi)
    return (np.moveaxis(e * dh, -1, 0), np.moveaxis(e * e * hess, -1, 0),
            np.moveaxis(e ** 3 * cov.swapaxes(1, 2), -1, 0))


class GradientGraph:
    """Graph of amplitude * grad(H) in the tangent bundle of a base manifold.

    H is given per chart as a function h(u1, u2) of the coordinate jets
    (`lagbound.jets`).  The derivatives of H and of the conformal factor are
    exact Taylor jets (`_chart_jet`), contracted with the Christoffel
    symbols into xi, T and A (`_frame_tensors`), so the tiny monotonicity
    margins are not polluted by numerical differentiation.
    """

    def __init__(self, base, h_funcs, amplitude: float = 1.0, name: str = "graph"):
        self.base = base
        self.h_funcs = tuple(h_funcs)
        self.amplitude = float(amplitude)
        self.name = name
        if len(self.h_funcs) != len(base.phis):
            raise ValueError("one H function per chart is required")
        self._jets = [partial(_chart_jet, h, p)
                      for h, p in zip(self.h_funcs, base.phis)]
        self._samples = None
        self._unit_t = []  # unit T on the default samples, for grad_bound

    def with_amplitude(self, amplitude: float) -> "GradientGraph":
        g = copy.copy(self)  # shares the jets and the unit T
        g.amplitude, g._samples = float(amplitude), None
        return g

    def default_samples(self, n: int = 1600):
        """The base's `sample_points(n)`, kept for the last n asked: the
        torus returns floor(sqrt(n))^2 points, so the key is n itself."""
        if self._samples is None or self._samples[0] != n:
            self._samples = (n, self.base.sample_points(n))
        return self._samples[1]

    def frame_data(self, coords: np.ndarray, charts: np.ndarray) -> dict:
        """Frame tensors at the given points: xi (.,2), T (.,2,2), A (.,2,2,2);
        each chart's jet is evaluated once.  A non-finite amplitude is
        FrameDegenerate: times a zero tensor entry it would read NaN."""
        if not np.isfinite(self.amplitude):
            raise FrameDegenerate(f"amplitude of {self.name} is not finite: "
                                  f"{self.amplitude}")
        out = [np.empty(coords.shape[:-1] + (2,) * r) for r in (1, 2, 3)]
        for cid, jet in enumerate(self._jets):
            mask = charts == cid
            if np.any(mask):
                for arr, val in zip(out, _frame_tensors(jet(coords[mask]))):
                    arr[mask] = val
        return {key: self.amplitude * arr
                for key, arr in zip(("xi", "T", "A"), out)}

    def grad_bound(self) -> float:
        """max |grad xi| over the default samples.  T is linear in the
        amplitude, so the unit T there is evaluated once per graph and shared
        by its amplitude copies."""
        if not self._unit_t:
            unit = self.with_amplitude(1.0)
            self._unit_t.append(unit.frame_data(*self.default_samples())["T"])
        return float(np.max(_op_norms(self.amplitude * self._unit_t[0])))


def _torus_cos(u1, u2, mode):
    return jets.cos(mode * u1)


def _sphere_harmonic_north(u1, u2):
    """The height z = (|u|^2 - 1) / (|u|^2 + 1) of the unit sphere in the
    north-pole chart; it flips sign in the other."""
    return 1.0 - 2.0 / (1.0 + u1 * u1 + u2 * u2)


def _sphere_harmonic_south(u1, u2):
    return -_sphere_harmonic_north(u1, u2)


def torus_gradient_graph(eps: float, mode: int = 1) -> GradientGraph:
    return GradientGraph(FlatTorus(), (partial(_torus_cos, mode=mode),),
                         amplitude=eps, name=f"torus_cos{mode}_{eps:g}")


def sphere_harmonic_graph(eps: float) -> GradientGraph:
    return GradientGraph(RoundSphere(),
                         (_sphere_harmonic_north, _sphere_harmonic_south),
                         amplitude=eps, name=f"sphere_harmonic_{eps:g}")


def _direction_block(data: dict, k_curv: float, theta: np.ndarray):
    """The scale-independent part of the frame form on the unit directions
    x^ = (cos theta, sin theta): |T x^|^2, A(x^, x^) and K T R(x^) with
    R(x^) = <T x^, x^> xi - <xi, x^> T x^, each component of shape (b, m)."""
    xi, t_mat, a_ten = data["xi"], data["T"], data["A"]
    c, s = np.cos(theta), np.sin(theta)
    tx = [t_mat[:, i, 0, None] * c + t_mat[:, i, 1, None] * s for i in range(2)]
    tx2 = tx[0] * tx[0] + tx[1] * tx[1]
    cc, cs, ss = c * c, c * s, s * s
    axx = [a_ten[:, i, 0, 0, None] * cc
           + (a_ten[:, i, 0, 1] + a_ten[:, i, 1, 0])[:, None] * cs
           + a_ten[:, i, 1, 1, None] * ss for i in range(2)]
    if k_curv == 0.0:
        return tx2, axx, None
    txx = tx[0] * c + tx[1] * s
    xix = xi[:, 0, None] * c + xi[:, 1, None] * s
    rx = [txx * xi[:, i, None] - xix * tx[i] for i in range(2)]
    ktr = [k_curv * (t_mat[:, i, 0, None] * rx[0]
                     + t_mat[:, i, 1, None] * rx[1]) for i in range(2)]
    return tx2, axx, ktr


def _block_maxima(data: dict, k_curv: float, theta: np.ndarray,
                  t_grid: np.ndarray, minvs: list) -> np.ndarray:
    """Max over samples and the directions theta of |v(t)|^2 in the
    (I + t^2 T^2)^{-1} form, for each scale t; minvs holds that inverse's
    entries per scale."""
    tx2, axx, ktr = _direction_block(data, k_curv, theta)
    out = np.empty(len(t_grid))
    for j, t in enumerate(t_grid):
        t2 = t * t
        nu2 = 1.0 + t2 * tx2
        v0, v1 = (axx if ktr is None
                  else (axx[0] - t2 * ktr[0], axx[1] - t2 * ktr[1]))
        i00, i01, i10, i11 = minvs[j]
        quad = (v0 * (i00 * v0 + i01 * v1)
                + v1 * (i10 * v0 + i11 * v1)) / (nu2 * nu2)
        out[j] = np.max(quad)
    return out


def curvature_sweep(base, graph: GradientGraph, t_grid: np.ndarray,
                    n_theta: int = 720, samples: int = 1600) -> np.ndarray:
    """Sup norms over a shared frame grid for every scale in t_grid.

    At each scale t this is the sup over base samples and unit tangent frames
    of the normalized trilinear form, with the normal frame maximized in
    closed form.  The base gives the samples: `samples` points on the round
    sphere, floor(sqrt(samples))^2 on the flat torus (676 at 700).  The
    sample and direction grids are fixed across scales, so each indexed frame
    value inherits the pointwise monotonicity of the rescaling law and the
    returned sups are directly comparable.

    The frame x~ = x^ / nu, nu^2 = 1 + t^2 |T x^|^2, gives the vector
    v(t) = (A(x^, x^) - t^2 K T R(x^)) / nu^2, whose squared normal-frame
    norm is the quadratic form of (I + t^2 T^2)^{-1}.  Only nu, v and that
    form depend on t, so the frame tensors are evaluated once and each block
    of directions computes the rest once, then runs through the scales
    elementwise, keeping one running max per scale.  A block holds about
    _BLOCK_VALUES = 2^15 values (20 directions at 1600 samples), so its
    dozen arrays stay in a core's L2 cache; the max over blocks is exact,
    so any block size gives the same bytes.

    Raises FrameDegenerate when the frame tensors or a sup are not finite, or
    when |grad xi| reaches 1 and the frame normalization is undefined.
    """
    if not (n_theta >= 1 and samples >= 1):
        raise ParamOutOfRange(f"need n_theta >= 1 and samples >= 1, got "
                              f"{n_theta} and {samples}")
    t_grid = np.asarray(t_grid, dtype=float)
    coords, charts = graph.default_samples(samples)
    data = graph.frame_data(coords, charts)
    if not all(np.all(np.isfinite(arr)) for arr in data.values()):
        raise FrameDegenerate(f"frame tensors of {graph.name} are not finite "
                              "on the sample set")
    gb = float(np.max(_op_norms(data["T"])))
    if not gb < 1.0:
        raise FrameDegenerate(f"|grad xi| reaches {gb:.3f} >= 1; "
                              "frame normalization undefined")

    tsq = np.einsum("bij,bjk->bik", data["T"], data["T"])
    minvs = []
    for t in t_grid:
        m = np.eye(2) + (t * t) * tsq
        det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])[:, None]
        minvs.append((m[:, 1, 1, None] / det, -m[:, 0, 1, None] / det,
                      -m[:, 1, 0, None] / det, m[:, 0, 0, None] / det))
    best = np.zeros(len(t_grid))
    theta = np.arange(n_theta) * (np.pi / n_theta)
    block = max(1, _BLOCK_VALUES // len(coords))
    for k0 in range(0, n_theta, block):
        best = np.maximum(best, _block_maxima(
            data, base.gauss_curvature, theta[k0:k0 + block], t_grid, minvs))
    sups = np.abs(t_grid) * np.sqrt(best)
    if not np.all(np.isfinite(sups)):
        raise FrameDegenerate(f"sup norm of {graph.name} is not finite at "
                              f"t = {t_grid[~np.isfinite(sups)]}")
    return sups


# ---------------------------------------------------------------------------
# length sandwich on gradient graphs
# ---------------------------------------------------------------------------

@dataclass
class SandwichReport:
    ok: bool
    eps_lower: float
    max_upper_violation: float
    max_lower_violation: float
    n_pairs: int
    grad_bound: float


def graph_tameness_bounds(base, graph: GradientGraph, n_pairs: int = 120,
                          seed: int = 7) -> SandwichReport:
    """Check d_base <= lifted length <= sqrt(1 + max|grad xi|^2) d_base over
    random point pairs, integrating the lift of the base minimal geodesic;
    each side may be violated by 1e-9.

    Also reports the resulting tameness lower bound
    min over pairs of d_base / min(1, lifted length).
    """
    rng = np.random.default_rng(seed)
    pa, ca = base.random_points(n_pairs, rng)
    pb, cb = base.random_points(n_pairs, rng)
    d, nodes, charts, tang = base.pair_geodesics(pa, ca, pb, cb)
    keep = d > 1e-6
    d, nodes, charts, tang = d[keep], nodes[keep], charts[keep], tang[keep]

    t_mat = graph.frame_data(nodes, charts)["T"]
    tdot = np.einsum("bqij,bqj->bqi", t_mat, tang)
    speed = np.sqrt(1.0 + (tdot * tdot).sum(-1))
    # composite Simpson weights over [0, 1]
    wq = np.ones(_N_QUAD)
    wq[1:-1:2] = 4.0
    wq[2:-1:2] = 2.0
    wq = wq / (3.0 * (_N_QUAD - 1))
    lifted = d * (speed * wq[None, :]).sum(-1)

    gb = graph.grad_bound()
    upper = np.sqrt(1.0 + gb * gb) * d
    viol_low = float(np.max(d - lifted))
    viol_up = float(np.max(lifted - upper))
    ok = bool(viol_low <= 1e-9 and viol_up <= 1e-9)
    ratios = d / np.minimum(1.0, lifted)
    return SandwichReport(ok=ok, eps_lower=float(np.min(ratios)),
                          max_upper_violation=viol_up,
                          max_lower_violation=viol_low,
                          n_pairs=int(keep.sum()), grad_bound=gb)
