"""Truncated bivariate Taylor arithmetic to total order 3.

A `Jet` holds the Taylor coefficients of a function of (u1, u2) at a batch
of points: ten per point, ordered by total degree r and, within a degree, by
the power b of u2, so coefficient m multiplies u1^a u2^b, (a, b) =
_POWERS[m].  Sums, products, quotients and cos, sin and log of jets carry
the exact derivatives through the arithmetic, with no symbolic step and no
error beyond rounding (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

from math import factorial

import numpy as np

_POWERS = [(r - b, b) for r in range(4) for b in range(r + 1)]
_INDEX = {p: m for m, p in enumerate(_POWERS)}
# coefficient m of a product sums f_i g_j over the pairs (i, j) listed here
_PRODUCT = [[(_INDEX[(i, j)], _INDEX[(a - i, b - j)])
             for i in range(a + 1) for j in range(b + 1)] for a, b in _POWERS]
# the same for factors with no constant term, and for a first factor that
# has no linear term either (coefficients 3.. are of degree 2 and up)
_NILPOTENT = [[(i, j) for i, j in pairs if i and j] for pairs in _PRODUCT]
_QUADRATIC_NILPOTENT = [[(i, j) for i, j in pairs if i >= 3]
                        for pairs in _NILPOTENT]
_FACTORIALS = np.array([factorial(a) * factorial(b) for a, b in _POWERS])


def _product(f: np.ndarray, g: np.ndarray, table) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(f.shape, g.shape))
    f, g = list(f), list(g)
    for row, pairs in zip(out, table):
        for i, j in pairs:
            row += f[i] * g[j]
    return out


class Jet:
    """Taylor coefficients c (10, ...) of one function at a batch of points."""

    __slots__ = ("c",)
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, c: np.ndarray):
        self.c = c

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.copy()
        c[0] += other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(_product(self.c, other.c, _PRODUCT))
        return Jet(self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.c / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> Jet:
        r = 1.0 / self.c[0]
        return self._compose(r, -r * r, r ** 3, -r ** 4)

    def _compose(self, *taylor) -> Jet:
        """g(self), given g^(k)(c0) / k! for k = 0..3 at the constant term:
        the series of g in the jet's non-constant part."""
        delta = self.c.copy()
        delta[0] = 0.0
        d2 = _product(delta, delta, _NILPOTENT)
        d3 = _product(d2, delta, _QUADRATIC_NILPOTENT)
        c = taylor[1] * delta + taylor[2] * d2 + taylor[3] * d3
        c[0] = taylor[0]
        return Jet(c)

    def derivatives(self, lo: int, hi: int) -> np.ndarray:
        """The distinct partial derivatives of orders lo..hi, those of each
        order listed by how many of the indices are u2: shape (k, ...)."""
        start, stop = lo * (lo + 1) // 2, (hi + 1) * (hi + 2) // 2
        scale = _FACTORIALS[start:stop].reshape((-1,) + (1,) * (self.c.ndim - 1))
        return self.c[start:stop] * scale


def variables(pts: np.ndarray) -> tuple[Jet, Jet]:
    """The coordinate jets u1 and u2 at the points pts (..., 2)."""
    out = []
    for k in range(2):
        c = np.zeros((len(_POWERS),) + pts.shape[:-1])
        c[0] = pts[..., k]
        c[1 + k] = 1.0
        out.append(Jet(c))
    return tuple(out)


def cos(f: Jet) -> Jet:
    c, s = np.cos(f.c[0]), np.sin(f.c[0])
    return f._compose(c, -s, -c / 2, s / 6)


def sin(f: Jet) -> Jet:
    c, s = np.cos(f.c[0]), np.sin(f.c[0])
    return f._compose(s, c, -s / 2, -c / 6)


def log(f: Jet) -> Jet:
    r = 1.0 / f.c[0]
    return f._compose(np.log(f.c[0]), r, -r * r / 2, r ** 3 / 3)
