import numpy as np
import pytest

from lagbound import surface
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
