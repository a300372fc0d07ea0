"""Numerics for hyperbolic surfaces in Fenchel-Nielsen coordinates.

Core pieces: right-angled hexagon and collar trigonometry in the upper
half-plane (hyperbolic), Grotzsch-modulus and quadrilateral-modulus
machinery (conformal), the explicit twist map and its dilatation sandwich
(twist), coordinate windows and the sup-norm distance (fnspace),
dilatation bounds under a length cap (bounds), the built-in example
families (families), and the grid verification suites (suites) exposed
through the fnteich CLI.

The package namespace is lazy (PEP 562): each name in `_EXPORTS` is
imported from its submodule on first access and then cached here, so
`import fnteich` loads no submodule and the scalar modules never pull
in numpy, which only fnspace, families and suites need.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "bounds": ("BoundAssumptions", "bilipschitz_sandwich",
               "bishop_length_bound", "collar_cylinder_halflength",
               "combined_qc_upper", "cylinder_halflength_report",
               "fn_from_qc_upper", "twist_change_bound"),
    "conformal": ("IdealQuadrilateral", "affine_dilatation",
                  "cylinder_interval", "elliptic_k", "grotzsch_lower_bound",
                  "grotzsch_modulus", "grotzsch_modulus_derivative",
                  "quad_modulus", "twist_min_dilatation",
                  "twist_min_dilatation_derivative"),
    "errors": ("DomainError", "FormatError", "UsageError"),
    "families": ("ChainedPantsModel", "make_fn_pair", "pants1_arc_length",
                 "pants1_graph"),
    "fnspace": ("FNCoordinate", "PantsGraph", "StructureGenerator",
                "StructureWindow", "fn_distance", "fn_distance_blocks",
                "fn_distance_variant",
                "is_upper_bounded", "parse_structure_file", "to_linf",
                "validate_pants_graph", "wolpert_check"),
    "hyperbolic": ("CollarData", "HalfPlanePoint", "HexagonAlternatingSides",
                   "PantsBoundaryLengths", "PantsLengthGrid",
                   "angle_of_distance", "collar_data", "collar_halfwidth",
                   "collar_margin", "hexagon_altitude", "hexagon_sides", "hp",
                   "hyp_distance", "hyp_distance_crossratio",
                   "verify_pants_collar"),
    "reports": ("BoundReport", "CheckRecord", "VerificationReport"),
    "twist": ("MultiTwistFamily", "SeamAngleInstance", "TwistScenario",
              "multitwist_fn_bound", "seam_angle_bound", "seam_angle_kit",
              "twist_delta", "twist_dilatation", "twist_lower_bound_check",
              "twist_map_eval"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
