"""coneglow: fixed-point existence certificates for nonexpansive maps via
unit-ball illumination, with positive-eigenvector detection and
localization on the cone."""

from .errors import BudgetError, ConstructionError, DomainError, NonterminationError
from .spaces import (
    NormId,
    exp_coords,
    extreme_points,
    hilbert_metric,
    log_coords,
    norm,
    to_slice,
)
from .illumination import (
    HullCertificate,
    IlluminationVerdict,
    ball_cover_criterion,
    extreme_illumination,
    illuminates_point,
    interior_hull_certificate,
    sup_criterion,
)
from .conemaps import (
    ComposeMap,
    EigenResult,
    MapSpec,
    MatrixMap,
    MeanSumMap,
    MeanTerm,
    ScaleMap,
    SchoenMap,
    SumMap,
    TriangleMap,
    conjugate_map,
    demo_schoen_composition,
    eval_map,
    is_order_preserving_homogeneous_probe,
    linear_oracle,
    map_spec_from_dict,
    map_spec_from_json,
    map_spec_to_dict,
    map_spec_to_json,
    normalized_map,
    power_iteration,
)
from .detector import (
    AdversarialMapSpec,
    DetectionConfig,
    DetectionReport,
    DetectionStatus,
    SubsetMask,
    build_adversarial_euclid,
    detect_eigenvector,
    detect_fixed_point_smooth,
    detect_fixed_point_sup,
    ratio_subsets,
)
from .localize import (
    BoundingBall,
    HalfspacePolytope,
    NormConstants,
    circumcenter,
    halfspace_polytope,
    localize_eigenvectors,
    localize_fixed_points,
    norm_constants,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "ConstructionError", "DomainError", "NonterminationError",
    "NormId", "norm", "hilbert_metric", "to_slice", "log_coords",
    "exp_coords", "extreme_points",
    "IlluminationVerdict", "HullCertificate", "illuminates_point",
    "sup_criterion", "extreme_illumination", "interior_hull_certificate",
    "ball_cover_criterion",
    "MapSpec", "MatrixMap", "MeanSumMap", "MeanTerm", "SchoenMap",
    "TriangleMap", "ComposeMap", "SumMap", "ScaleMap", "EigenResult",
    "eval_map", "normalized_map", "conjugate_map", "power_iteration",
    "linear_oracle", "is_order_preserving_homogeneous_probe",
    "map_spec_to_dict", "map_spec_from_dict", "map_spec_to_json",
    "map_spec_from_json", "demo_schoen_composition",
    "SubsetMask", "DetectionConfig", "DetectionReport", "DetectionStatus",
    "ratio_subsets", "detect_eigenvector", "detect_fixed_point_sup",
    "detect_fixed_point_smooth", "AdversarialMapSpec",
    "build_adversarial_euclid",
    "BoundingBall", "NormConstants", "HalfspacePolytope", "circumcenter",
    "norm_constants", "localize_fixed_points", "localize_eigenvectors",
    "halfspace_polytope",
]
