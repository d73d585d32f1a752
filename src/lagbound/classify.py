"""Membership decisions for curvature/tameness-bounded curve classes, the
named counterexample families, and family-level separation statistics.

A curve belongs to level k when its curvature sup stays strictly below k, its
tameness constant strictly above 1/(k+1), and it is contained in the level's
compact sub-band |xi| <= r (1 - 1/(k+1)).  Strict inequalities are decided
only outside the numerical error bars; a clause inside its error bar makes
the verdict indeterminate rather than true or false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curves import Curve, tameness, trig_curve
from .errors import ParamOutOfRange
from .exactness import _circle_radius, area_functional, isotopy_invariant
from .hausdorff import hausdorff_distance
from .numerics import bump
from .surface import NAMED_BANDS, SurfacePatch, plane_annulus

__all__ = [
    "MembershipVerdict",
    "classify",
    "min_level",
    "MAX_LEVEL",
    "FAMILIES",
    "generate_family",
    "separation_scan",
    "default_cylinder",
    "default_plane",
    "default_unit_cylinder",
]


@lru_cache(maxsize=None)
def default_cylinder() -> SurfacePatch:
    return NAMED_BANDS["cylinder"]()


@lru_cache(maxsize=None)
def default_plane() -> SurfacePatch:
    return plane_annulus(circle_radius=2.0, halfwidth=1.5)


@lru_cache(maxsize=None)
def default_unit_cylinder() -> SurfacePatch:
    return NAMED_BANDS["unit_cylinder"]()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

MAX_LEVEL = 12  # the largest level `min_level` tries


def _clause(margin: float, err: float):
    if margin > err:
        return True
    if margin < -err:
        return False
    return None


@dataclass
class MembershipVerdict:
    """Level-k decision with per-clause margins.

    Clause values are True / False / None (indeterminate: the strict
    inequality sits inside its numerical error bar).  The verdict is the
    three-valued conjunction.
    """

    k: float
    curvature_ok: bool | None
    tame_ok: bool | None
    containment_ok: bool | None
    verdict: bool | None
    margins: dict = field(default_factory=dict)
    is_exact: bool = False
    curvature: float = 0.0
    epsilon: float = 0.0


def _decide(curve: Curve, k: float, trep) -> MembershipVerdict:
    """Level-k membership, its clauses and (margin, error) per clause, from
    the curve's tameness report (which carries |B|); is_exact is left unset."""
    r, curv = curve.patch.halfwidth, trep.curvature
    margins = {"curvature": (k - curv.sup, curv.error),
               "tameness": (trep.epsilon - 1.0 / (k + 1.0), trep.error),
               "containment": (r * (1.0 - 1.0 / (k + 1.0)) - curve.sup_norm(),
                               1e-12)}
    clauses = tuple(_clause(m, err) for m, err in margins.values())
    verdict = False if False in clauses else None if None in clauses else True
    return MembershipVerdict(float(k), *clauses, verdict, margins,
                             curvature=curv.sup, epsilon=trep.epsilon)


def classify(curve: Curve, k: float) -> MembershipVerdict:
    """Decide level-k membership of a graph curve; it is exact when its
    action |A| is at most 1e-9.  ValueError unless k is finite and positive."""
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"level k must be finite and positive, got {k}")
    verdict = _decide(curve, k, tameness(curve))
    verdict.is_exact = bool(abs(area_functional(curve)) <= 1e-9)
    return verdict


def min_level(curve: Curve, trep) -> int | None:
    """Smallest integer level k <= MAX_LEVEL at which `classify` says member,
    decided from the curve's tameness report (default scan); None when no
    such level exists."""
    return next((k for k in range(1, MAX_LEVEL + 1)
                 if _decide(curve, k, trep).verdict is True), None)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _oscillation_curve(patch: SurfacePatch, s_param: float, p: float) -> Curve:
    """Graph of minus the q-derivative of s^p * bump(q) * sin(q/s) on the unit
    cylinder, with closed-form first and second derivatives."""
    # at least ~25 samples per oscillation cycle
    n = min(int(2 ** np.ceil(np.log2(max(2048, 4.0 / s_param)))), 65536)
    sp_, p_ = float(s_param), float(p)

    def xi(q):
        q = np.asarray(q, dtype=float) % 1.0
        return (-sp_ ** p_ * bump(q, 1) * np.sin(q / sp_)
                - sp_ ** (p_ - 1) * bump(q) * np.cos(q / sp_))

    def dxi(q):
        q = np.asarray(q, dtype=float) % 1.0
        return (-sp_ ** p_ * bump(q, 2) * np.sin(q / sp_)
                - 2 * sp_ ** (p_ - 1) * bump(q, 1) * np.cos(q / sp_)
                + sp_ ** (p_ - 2) * bump(q) * np.sin(q / sp_))

    def d2xi(q):
        q = np.asarray(q, dtype=float) % 1.0
        return (-sp_ ** p_ * bump(q, 3) * np.sin(q / sp_)
                - 3 * sp_ ** (p_ - 1) * bump(q, 2) * np.cos(q / sp_)
                + 3 * sp_ ** (p_ - 2) * bump(q, 1) * np.sin(q / sp_)
                + sp_ ** (p_ - 3) * bump(q) * np.cos(q / sp_))

    return Curve.from_callables(patch, xi, dxi, d2xi, n=n,
                                name=f"osc_p{p_:g}_s{sp_:g}")


# The oscillation ladders' scales.  They start at 2^-7: for larger scales the
# bump-ramp derivative terms dominate the curvature sup and mask the
# asymptotic blow-up rate that the ladder is meant to exhibit.
LADDER_SCALES = tuple(2.0 ** (-j) for j in range(7, 15))

# the named families: the choices of `lagbound family`
FAMILIES = ("escape_cos", "parallels", "plane_circles", "hs_family",
            "hs_variant_alpha")


def generate_family(family: str) -> list[Curve]:
    """The named family's fixed members, with closed-form derivatives:

    - escape_cos: cos(m s) at amplitude 1 for modes m = 1..10 (cylinder);
    - parallels: the levels -0.4..0.4 in steps of 0.2 (cylinder);
    - plane_circles: plane circles of radii 1.0 and 1.1 (plane annulus);
    - hs_family, hs_variant_alpha: the oscillation ladders at the scales
      s = 2^-7..2^-14, exponent p = 1.5 and 2.5 (unit cylinder).

    ParamOutOfRange for any other name."""
    if family not in FAMILIES:
        raise ParamOutOfRange(f"unknown family {family!r}")
    if family == "escape_cos":
        return [trig_curve(default_cylinder(), {m: 1.0}, name=f"cos_m{m}_a1")
                for m in range(1, 11)]
    if family == "parallels":
        return [Curve.constant(default_cylinder(), float(c))
                for c in np.arange(-0.4, 0.41, 0.2).round(10)]
    if family == "plane_circles":
        patch = default_plane()
        rr = _circle_radius(patch)
        return [Curve.constant(patch, rr - rad, name=f"circle_r{rad:g}")
                for rad in (1.0, 1.1)]
    exponent = 1.5 if family == "hs_family" else 2.5  # the two ladders
    return [_oscillation_curve(default_unit_cylinder(), sv, exponent)
            for sv in LADDER_SCALES]


# ---------------------------------------------------------------------------
# separation statistics
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    rows: list          # (name_i, name_j, delta_h, invariant_gap)
    a_emp: float | None


def separation_scan(curves: list[Curve], kind: str) -> ScanResult:
    """Pairwise Hausdorff distances against gaps of the named invariant
    (`isotopy_invariant`) over a family.

    a_emp is the smallest Hausdorff distance among pairs whose invariant
    values genuinely differ (by more than 1e-9); None when every pair shares
    its invariant.
    """
    values = [isotopy_invariant(c, kind).value for c in curves]
    rows = []
    a_emp = None
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            dh = hausdorff_distance(curves[i], curves[j]).value
            gap = abs(values[i] - values[j])
            rows.append((curves[i].name, curves[j].name, dh, gap))
            if gap > 1e-9:
                a_emp = dh if a_emp is None else min(a_emp, dh)
    return ScanResult(rows=rows, a_emp=a_emp)
