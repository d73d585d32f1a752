import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import lagbound
from lagbound import jets

ROOT = Path(__file__).resolve().parent.parent
# (i, j) of the 10 derivatives d1^i d2^j in the order of Jet.derivatives(0, 3)
ORDERS = [(r - b, b) for r in range(4) for b in range(r + 1)]


def _points(rng, n=500):
    return rng.uniform(-1.5, 1.5, size=(n, 2))


def _assert_derivatives(jet, exact):
    """exact(i, j) gives d1^i d2^j at the points; each derivative must agree
    to 1e-14 relative to its largest magnitude over the points."""
    got = jet.derivatives(0, 3)
    for row, (i, j) in zip(got, ORDERS):
        want = exact(i, j)
        scale = np.max(np.abs(want))
        assert scale > 0.0, (i, j)
        assert np.max(np.abs(row - want)) <= 1e-14 * scale, (i, j)


def _linear(u1, u2, a, b, c):
    return a * u1 + b * u2 + c


class TestPrimitives:
    def test_product_of_polynomials(self, rng):
        pts = _points(rng)
        u1, u2 = jets.variables(pts)
        # coefficient [i, j] multiplies u1^i u2^j
        p = np.array([[-1.0, 3.0], [0.0, 0.0], [0.0, 1.0]])
        q = np.array([[-2.0, 0.0, 0.0], [1.0, 0.0, 1.5]])
        jet = (u1 * u1 * u2 + 3 * u2 - 1) * (u1 * u2 * u2 * 1.5 + u1 - 2)
        prod = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1))
        for (i, j), pc in np.ndenumerate(p):
            prod[i:i + q.shape[0], j:j + q.shape[1]] += pc * q

        def exact(i, j):
            d = P.polyder(P.polyder(prod, i, axis=0), j, axis=1)
            return P.polyval2d(pts[:, 0], pts[:, 1], d)
        _assert_derivatives(jet, exact)

    def test_reciprocal(self, rng):
        pts = _points(rng)
        a, b, c = 0.7, -1.3, 4.0   # the linear form stays >= 1 on the points
        jet = 1.0 / _linear(*jets.variables(pts), a, b, c)
        lin = _linear(pts[:, 0], pts[:, 1], a, b, c)

        def exact(i, j):
            k = i + j
            return (-1) ** k * factorial(k) * a ** i * b ** j / lin ** (k + 1)
        _assert_derivatives(jet, exact)

    @pytest.mark.parametrize("name, quarter_turns", [("cos", 0), ("sin", -1)])
    def test_cos_and_sin_of_a_linear_form(self, rng, name, quarter_turns):
        # sin(x) = cos(x - pi/2), and the k-th derivative of cos(x) is
        # cos(x + k pi/2)
        pts = _points(rng)
        a, b = 1.7, -2.3
        jet = getattr(jets, name)(_linear(*jets.variables(pts), a, b, 0.0))
        lin = _linear(pts[:, 0], pts[:, 1], a, b, 0.0)

        def exact(i, j):
            return a ** i * b ** j * np.cos(lin + (i + j + quarter_turns) * np.pi / 2)
        _assert_derivatives(jet, exact)

    def test_log_of_the_sphere_factor(self, rng):
        pts = _points(rng)
        u1, u2 = jets.variables(pts)
        jet = jets.log(2.0 / (1.0 + u1 * u1 + u2 * u2))
        x, y = pts[:, 0], pts[:, 1]
        s = 1.0 + x * x + y * y
        closed = {
            (0, 0): np.log(2.0 / s),
            (1, 0): -2 * x / s, (0, 1): -2 * y / s,
            (2, 0): -2 / s + 4 * x * x / s ** 2,
            (1, 1): 4 * x * y / s ** 2,
            (0, 2): -2 / s + 4 * y * y / s ** 2,
            (3, 0): 12 * x / s ** 2 - 16 * x ** 3 / s ** 3,
            (2, 1): 4 * y / s ** 2 - 16 * x * x * y / s ** 3,
            (1, 2): 4 * x / s ** 2 - 16 * x * y * y / s ** 3,
            (0, 3): 12 * y / s ** 2 - 16 * y ** 3 / s ** 3,
        }
        _assert_derivatives(jet, lambda i, j: closed[(i, j)])


class TestNoSymbolicRuntime:
    def test_import_loads_no_sympy(self):
        env = {**os.environ,
               "PYTHONPATH": str(Path(lagbound.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, lagbound, lagbound.cli; "
                                   "print('sympy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        assert proc.stdout.strip() == "False"

    def test_sympy_is_not_a_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        meta = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert not any(dep.lower().startswith("sympy")
                       for dep in meta["dependencies"])
