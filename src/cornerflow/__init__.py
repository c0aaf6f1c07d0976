"""Self-similar corner evolution under fourth-order curve diffusion."""

from .errors import (
    CornerflowError,
    ValidationError,
    ConfigError,
    GridMismatch,
    InvalidTime,
    UnsupportedFarField,
    NumericalFailure,
    NonFiniteGeometry,
    PicardDivergence,
    NoConvergence,
    StaleProfile,
    OracleInstability,
)
from .grid import GridFunction, symmetric_grid, corner_function, smoothed_abs
from .geometry import (
    CurveGeometry,
    geometry,
    ds_derivative,
    ds_of_array,
    arclength_from_zero,
    detect_kinks,
)
from .kernel import (
    KernelTable,
    build_kernel_table,
    apply_semigroup,
    apply_to_step,
    corner_height,
    regularizing_constants,
)
from .mild import (
    CornerData,
    SimilarityProfile,
    ReconstructedSolution,
    alpha_coefficient,
    nonlinearity,
    duhamel_integral,
    solve_similarity_profile,
    reconstruct_U,
    inner_sup,
    self_similarity_residual,
    constant_shift_residual,
    save_profile,
    load_profile,
)
from .diagnostics import (
    DiagnosticsReport,
    run_diagnostics,
    key_identity_residual,
    backward_identity_residual,
    profile_equation_residual,
    q_convexity,
    d0_and_d,
    esp_check,
    l1_linear_bound,
    L1Bound,
    peg_bound_check,
    counterexample_phi_eps,
    x_infty_norm,
    subsample,
    refinement_threshold,
    circle_curve,
    ellipse_curve,
    compactness_contradiction_demo,
)
from .oracle import MarchConfig, time_march, compare_with_mild

__version__ = "0.1.0"

__all__ = [
    "CornerflowError", "ValidationError", "ConfigError", "GridMismatch",
    "InvalidTime", "UnsupportedFarField", "NumericalFailure",
    "NonFiniteGeometry", "PicardDivergence", "NoConvergence",
    "StaleProfile", "OracleInstability",
    "GridFunction", "symmetric_grid", "corner_function", "smoothed_abs",
    "CurveGeometry", "geometry", "ds_derivative", "ds_of_array",
    "arclength_from_zero", "detect_kinks",
    "KernelTable", "build_kernel_table", "apply_semigroup", "apply_to_step",
    "corner_height", "regularizing_constants",
    "CornerData", "SimilarityProfile", "ReconstructedSolution",
    "alpha_coefficient", "nonlinearity", "duhamel_integral",
    "solve_similarity_profile", "reconstruct_U", "inner_sup",
    "self_similarity_residual", "constant_shift_residual",
    "save_profile", "load_profile",
    "DiagnosticsReport", "run_diagnostics", "key_identity_residual",
    "backward_identity_residual", "profile_equation_residual", "q_convexity",
    "d0_and_d", "esp_check", "l1_linear_bound", "L1Bound", "peg_bound_check",
    "counterexample_phi_eps", "x_infty_norm", "subsample",
    "refinement_threshold", "circle_curve", "ellipse_curve",
    "compactness_contradiction_demo",
    "MarchConfig", "time_march", "compare_with_mild",
]
