"""Sub-Riemannian geometry of bicycle paths.

A bicycle path moves a segment of fixed length so that the rear
endpoint's velocity stays parallel to the segment; its length is the
Euclidean length of the front track.  This package integrates the
geodesics of that geometry, lifts and flips paths, evaluates the
closed-form tractrix and soliton, classifies front tracks against the
elastica family, transports frame angles along curves (a Moebius map of
the fiber circle), and quantifies when periodic geodesics stop
minimizing.
"""

from .core import (BikeLength, ConfigPoint, RigidMotion, SampledBikePath,
                   act, angle_difference, dilate_path, flip, flip_path,
                   from_st_model, horizontality_residuals, normalize_angle,
                   normalize_angles, path_length, speed_errors,
                   st_horizontality_residuals, to_st_model, validate_path)
from .integrate import (CotangentState, FrontTrackSpec, ReducedState,
                        canonical_vertex_state, canonicalize, hamiltonian_rhs,
                        horizontal_lift, integrate_geodesic,
                        integrate_geodesics, lift_frame_angles, reduced_rhs,
                        rk4_geodesic, soliton_vertex_state)
from .closed_forms import (elliptic_period_advance, line_lift_theta,
                           soliton_arclength, soliton_curvature,
                           soliton_point, tractrix_point)
from .analysis import (ElasticaClass, ElasticaParams, Vertex, VertexReport,
                       back_width, canonical_orient, classify,
                       energy_residual, find_vertices, fit_elastica_params,
                       front_width, period_and_advance, strip_width)
from .holonomy import (MobiusMap, TransportSample, correspondent,
                       cross_ratio_angles, fit_mobius, pressurized_fit,
                       transport, transport_samples)
from .metriclines import (ShortcutReport, build_shortcut,
                          is_metric_line_candidate, shortcut_analysis,
                          shortcut_threshold)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BikeLength", "ConfigPoint", "RigidMotion", "SampledBikePath",
    "act", "angle_difference", "dilate_path", "flip", "flip_path",
    "from_st_model", "horizontality_residuals", "normalize_angle",
    "normalize_angles", "path_length", "speed_errors",
    "st_horizontality_residuals", "to_st_model", "validate_path",
    "CotangentState", "FrontTrackSpec", "ReducedState",
    "canonical_vertex_state", "canonicalize", "hamiltonian_rhs",
    "horizontal_lift", "integrate_geodesic", "integrate_geodesics",
    "lift_frame_angles", "reduced_rhs", "rk4_geodesic", "soliton_vertex_state",
    "elliptic_period_advance", "line_lift_theta", "soliton_arclength",
    "soliton_curvature", "soliton_point", "tractrix_point",
    "ElasticaClass", "ElasticaParams", "Vertex", "VertexReport",
    "back_width", "canonical_orient", "classify", "energy_residual",
    "find_vertices", "fit_elastica_params", "front_width",
    "period_and_advance", "strip_width",
    "MobiusMap", "TransportSample", "correspondent", "cross_ratio_angles",
    "fit_mobius", "pressurized_fit", "transport", "transport_samples",
    "ShortcutReport", "build_shortcut", "is_metric_line_candidate",
    "shortcut_analysis", "shortcut_threshold",
    "errors",
]
