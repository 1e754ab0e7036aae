"""coneglow: fixed-point existence certificates for nonexpansive maps via
unit-ball illumination, with positive-eigenvector detection and
localization on the cone."""

from .errors import DomainError
from .spaces import (
    NormId,
    exp_coords,
    hilbert_metric,
    log_coords,
    norm,
    to_slice,
)
from .illumination import (
    HullCertificate,
    interior_hull_certificate,
    sup_masks,
    variation_masks,
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
    eval_map,
    map_spec_from_dict,
    power_iteration,
)
from .detector import (
    DetectionConfig,
    DetectionReport,
    DetectionStatus,
    build_adversarial_euclid,
    detect_eigenvector,
    detect_fixed_point_smooth,
    detect_fixed_point_sup,
)
from .localize import (
    BoundingBall,
    HalfspacePolytope,
    circumcenter,
    halfspace_polytope,
    localize_eigenvectors,
    localize_fixed_points,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NormId", "norm", "hilbert_metric", "to_slice", "log_coords", "exp_coords",
    "HullCertificate", "variation_masks", "sup_masks", "interior_hull_certificate",
    "MapSpec", "MatrixMap", "MeanSumMap", "MeanTerm", "SchoenMap",
    "TriangleMap", "ComposeMap", "SumMap", "ScaleMap", "EigenResult",
    "eval_map", "power_iteration", "map_spec_from_dict",
    "DetectionConfig", "DetectionReport", "DetectionStatus",
    "detect_eigenvector", "detect_fixed_point_sup",
    "detect_fixed_point_smooth", "build_adversarial_euclid",
    "BoundingBall", "HalfspacePolytope", "circumcenter",
    "localize_fixed_points", "localize_eigenvectors", "halfspace_polytope",
]
