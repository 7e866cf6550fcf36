"""Gromov-Hausdorff distances, geodesics, and Hausdorff realizations.

Working pipeline: validate finite metric spaces, compute exact or heuristic
GH distances with witness correspondences, interpolate rectilinear geodesic
slices, and realize the whole geodesic inside an explicit product metric
space where slice-to-slice Hausdorff distances equal d_GH(X, Y) * |t - s|,
with every claim certified numerically.
"""

from .errors import (
    AsymmetricMatrix,
    ConditionFailed,
    DegenerateGeodesic,
    EmptyMatrix,
    EmptySubset,
    GHGeoError,
    InvalidRelation,
    MetricValidationError,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonpositiveC,
    NotOptimalCorrespondence,
    NotSurjective,
    NonzeroDiagonal,
    ParameterOutOfRange,
    SearchSpaceTooLarge,
    SizeMismatch,
    TriangleViolation,
    ZeroOffDiagonal,
)
from .metric_core import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    dump_space,
    hausdorff_distance,
    load_space,
    max_triangle_deficit,
    point_set_distance,
    set_set_distance,
    space_from_json_dict,
    space_from_text,
    validate_metric,
)
from .correspondence import (
    MAX_EXACT_BITS,
    Correspondence,
    GHResult,
    HeuristicConfig,
    correspondence_from_json_dict,
    distortion,
    gh_distance_exact,
    gh_distance_heuristic,
    gh_lower_bound,
    load_correspondence,
)
from .geodesic import (
    SliceGHCheck,
    geodesic_slice,
    pullback_matrices,
    slice_gh_check,
)
from .realization import (
    IDENTITY_TOL,
    CallableFamily,
    ConditionCheck,
    ConditionWitness,
    InterpolationFamily,
    ParamGrid,
    ProductSpace,
    RectilinearFamily,
    VerificationReport,
    build_product,
    load_product,
    product_from_json_dict,
    realize_geodesic,
    run_condition_checks,
    verify_product,
)

__version__ = "0.1.0"
