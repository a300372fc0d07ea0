"""Numerics for hyperbolic surfaces in Fenchel-Nielsen coordinates.

Core pieces: right-angled hexagon and collar trigonometry in the upper
half-plane (hyperbolic), Grotzsch-modulus and quadrilateral-modulus
machinery (conformal), the explicit twist map and its dilatation sandwich
(twist), coordinate windows and the sup-norm distance (fnspace),
dilatation bounds under a length cap (bounds), the built-in example
families (families), and the grid verification suites (suites) exposed
through the fnteich CLI.
"""

from .bounds import (BoundAssumptions, bilipschitz_sandwich,
                     bishop_length_bound, collar_cylinder_halflength,
                     combined_qc_upper, cylinder_halflength_report,
                     fn_from_qc_upper, twist_change_bound)
from .conformal import (IdealQuadrilateral, affine_dilatation, cylinder_interval,
                        elliptic_k, grotzsch_lower_bound, grotzsch_modulus,
                        grotzsch_modulus_derivative, quad_modulus,
                        twist_min_dilatation, twist_min_dilatation_derivative)
from .errors import DomainError, FormatError, UsageError
from .families import (ChainedPantsModel, make_fn_pair, pants1_arc_length,
                       pants1_graph)
from .fnspace import (FNCoordinate, PantsGraph, StructureGenerator,
                      StructureWindow, fn_distance, fn_distance_variant,
                      is_upper_bounded, parse_structure_file, to_linf,
                      validate_pants_graph, wolpert_check)
from .hyperbolic import (CollarData, HalfPlanePoint, HexagonAlternatingSides,
                         PantsBoundaryLengths, PantsLengthGrid,
                         angle_of_distance, collar_data, collar_halfwidth,
                         collar_margin, hexagon_altitude, hexagon_sides, hp,
                         hyp_distance, hyp_distance_crossratio,
                         verify_pants_collar)
from .reports import BoundReport, CheckRecord, VerificationReport
from .twist import (MultiTwistFamily, SeamAngleInstance, TwistScenario,
                    multitwist_fn_bound, seam_angle_bound, seam_angle_kit,
                    twist_delta, twist_dilatation, twist_lower_bound_check,
                    twist_map_eval)

__version__ = "0.1.0"
