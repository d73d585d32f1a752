"""lagbound: a numerical laboratory for curvature and tameness bounds of
closed curves in surface bands, and for the tangent-bundle geometry of
gradient graphs.
"""

from .classify import MembershipVerdict, classify, generate_family, separation_scan
from .curves import (Curve, CurvatureReport, TamenessReport,
                     geodesic_curvature, tameness, tameness_comparison_check,
                     trig_curve)
from .exactness import (ContractionPath, IsotopyInvariant, area_functional,
                        build_contraction, contraction_bounds_check,
                        isotopy_invariant, solve_c, solve_c_grid)
from .hausdorff import (HausdorffResult, contraction_path_bound_check,
                        hausdorff_distance, radial_path_check)
from .sasaki import (GradientGraph, SasakiState, base_manifold,
                     curvature_sweep, graph_tameness_bounds, parabola_check,
                     sasaki_geodesic, sphere_harmonic_graph,
                     torus_gradient_graph)
from .surface import (BaseCurve, SurfacePatch, flat_cylinder,
                      hyperbolic_band, plane_annulus, solve_warp, sphere_band,
                      unit_cylinder, warp_taylor_check)

__version__ = "0.1.0"
