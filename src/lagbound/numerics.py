"""Shared numerical helpers: periodic spectral calculus (derivative, primitive
and FFT resampling onto another uniform grid), the RK4 step, periodic bilinear
interpolation, log-log slope fits, and the smoothstep bump used by the
oscillating families.

All routines operate on plain numpy arrays and are deterministic.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# periodic spectral calculus
# ---------------------------------------------------------------------------

def fourier_derivative(values: np.ndarray, period: float) -> np.ndarray:
    """Spectral derivative of uniformly sampled periodic data."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    c = np.fft.rfft(values)
    k = np.arange(c.shape[-1])
    c = c * (2j * np.pi / period) * k
    if n % 2 == 0:
        # The Nyquist mode is pure cosine; its derivative is not representable
        # on the grid and is dropped (standard convention).
        c[..., -1] = 0.0
    return np.fft.irfft(c, n)


def fourier_primitive_grid(values: np.ndarray, period: float) -> np.ndarray:
    """Primitive F with F(0)=0 of periodic data, evaluated on the sample grid.

    F(s) = mean * s + periodic part; exact for band-limited data.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    c = np.fft.rfft(values)
    omega = 2j * np.pi * np.arange(c.shape[-1]) / period
    cp = np.zeros_like(c)
    cp[..., 1:] = c[..., 1:] / omega[1:]
    if n % 2 == 0:
        cp[..., -1] = 0.0
    periodic = np.fft.irfft(cp, n)
    s = np.arange(n) * (period / n)
    return c[..., 0].real / n * s + (periodic - periodic[..., :1])


def resample_periodic(values: np.ndarray, m: int) -> np.ndarray:
    """The trigonometric interpolant of n uniform periodic samples, on the
    uniform grid of m points over the same period.

    Each coefficient k of the samples' spectrum goes into bin k mod m (an even
    n's Nyquist coefficient split evenly between +n/2 and -n/2), and one
    m-point inverse FFT sums the bins: O(n log n + m log m), with every phase
    reduced mod m exactly.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    c = np.fft.rfft(values)
    if n % 2 == 0:
        c[-1] *= 0.5
    k = np.arange(len(c))
    bins = np.zeros(m, dtype=complex)
    np.add.at(bins, k % m, c)
    np.add.at(bins, -k[1:] % m, c[1:].conj())
    return np.fft.ifft(bins).real * (m / n)


# ---------------------------------------------------------------------------
# Simpson quadrature and fixed-step Runge-Kutta
# ---------------------------------------------------------------------------

def simpson_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson rule on [0, 1], n odd."""
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return np.linspace(0.0, 1.0, n), weights / (3.0 * (n - 1))


def rk4_step(rhs, t, y: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step of y' = rhs(t, y) from t to t + h.

    t and h may be scalars or arrays broadcasting against y's trailing axes,
    so one call advances a whole batch of independent trajectories.
    """
    half = h / 2
    t_half = t + half
    k1 = rhs(t, y)
    k2 = rhs(t_half, y + half * k1)
    k3 = rhs(t_half, y + half * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# periodic bilinear lookup
# ---------------------------------------------------------------------------

def periodic_bilinear(table: np.ndarray, period: float, t_axis: np.ndarray,
                      s, t):
    """Bilinear interpolation of table[i, j] sampled at (i * period / n_s, t_axis[j]).

    Rows wrap with the period in s; t is clamped to the uniform axis t_axis.
    """
    n_s, n_t = table.shape
    s = np.asarray(s, dtype=float) % period
    t = np.clip(np.asarray(t, dtype=float), t_axis[0], t_axis[-1])
    ds = period / n_s
    dt = t_axis[1] - t_axis[0]
    i = np.floor(s / ds).astype(int) % n_s
    fx = s / ds - np.floor(s / ds)
    j = np.clip(np.floor((t - t_axis[0]) / dt).astype(int), 0, n_t - 2)
    fy = (t - t_axis[0]) / dt - j
    i1 = (i + 1) % n_s
    return ((1 - fx) * (1 - fy) * table[i, j] + fx * (1 - fy) * table[i1, j]
            + (1 - fx) * fy * table[i, j + 1] + fx * fy * table[i1, j + 1])


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log|y| against log x, ignoring zero entries."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    mask = (y > 0) & (x > 0)
    if mask.sum() < 2:
        return np.inf
    lx, ly = np.log(x[mask]), np.log(y[mask])
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# smoothstep bump
# ---------------------------------------------------------------------------

_RAMP = 0.125  # bump ramps live on [1/8, 1/4] and [3/4, 7/8]
# the smoothstep x^3 (10 - 15 x + 6 x^2) and its first three derivatives
_SMOOTHSTEP = (lambda x: x ** 3 * (10.0 + x * (-15.0 + 6.0 * x)),
               lambda x: 30.0 * x ** 2 * (1.0 + x * (-2.0 + x)),
               lambda x: 60.0 * x * (1.0 + x * (-3.0 + 2.0 * x)),
               lambda x: 60.0 + x * (-360.0 + 360.0 * x))


def bump(q: np.ndarray, order: int = 0) -> np.ndarray:
    """C^2 plateau bump on [0,1], zero outside [1/8, 7/8] and one on
    [1/4, 3/4], or its order-th derivative (0 to 3).  The bump is only C^2,
    so the third derivative jumps at the four ramp joints."""
    q = np.asarray(q, dtype=float)
    f, scale = _SMOOTHSTEP[order], _RAMP ** order
    return np.select(
        [q < _RAMP, q < 0.25, q <= 0.75, q < 0.875],
        [0.0, f((q - _RAMP) / _RAMP) / scale, float(order == 0),
         (-1) ** order * f((0.875 - q) / _RAMP) / scale],
        default=0.0,
    )


def wrap_difference(a: np.ndarray, b: np.ndarray, period: float) -> np.ndarray:
    """Shortest signed difference a-b on a circle of the given period."""
    d = (np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % period
    return np.where(d > period / 2, d - period, d)
