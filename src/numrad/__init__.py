"""Numerical-radius functionals, refined upper bounds, and their verification."""

from .errors import (
    DimensionMismatch,
    DomainError,
    EigenFailure,
    FunctionRangeError,
    NotPsd,
    NumradError,
    ObjectiveError,
)
from .linalg import (
    PsdMatrix,
    abs_adj,
    abs_op,
    abs_pair,
    hermitian_eigen,
    op_norm,
    psd_power,
    quad_form,
    spectral_apply,
)
from .refine import (
    RefinementParams,
    LevelIndices,
    level_indices,
    power_mean_rhs,
    refinement_S,
    young_refined_gap,
)
from .radius import (
    OperatorTuple,
    RadiusEstimate,
    SphereOptConfig,
    minimize_over_sphere,
    minimize_over_sphere_pair,
    numerical_radius,
    we_radius,
    wp_radius,
)
from .bounds import (
    BoundReport,
    CartesianCheck,
    baseline_rhs,
    bound_cor27,
    bound_cor28,
    bound_cor210,
    bound_cor215,
    bound_cor218,
    bound_cor219,
    bound_thm23,
    bound_thm25_heinz,
    bound_thm26,
    bound_thm211,
    bound_thm213,
    bound_thm216,
    cartesian_check,
)
from .harness import (
    EnsembleSpec,
    SuiteConfig,
    SuiteReport,
    TrialRecord,
    compare_refinements,
    gen_matrix,
    lemma_suite,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
