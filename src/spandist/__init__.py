"""Distances from a vector to the span of a finite system.

Exact representations (determinant ratio, Gram quadratic form, projection
quotient), a family of computable upper bounds driven by Gram-matrix
aggregates, norm-of-combination inequalities with verified internal
chains, determinant product refinements, and a deterministic verification
harness with a CLI.
"""

from .space import (
    DEFAULT_TOL,
    Field,
    Scalar,
    ToleranceConfig,
    Vector,
    conjugate_exponent,
    inner_product,
    linear_combination,
    norm,
    norm_sq,
    vector,
)
from .errors import (
    ConditionNotSatisfiedError,
    DimensionMismatchError,
    FieldMismatchError,
    InstanceFormatError,
    LinearDependenceError,
    NotOrthonormalError,
    NumericalInstabilityError,
    NumericalWarning,
    OrthogonalComplementError,
    PreconditionError,
    SpandistError,
)
from .gram import (
    GramHadamardVerdict,
    GramMatrix,
    GramSplitVerdict,
    GramTriangleVerdict,
    VectorSystem,
    check_gram_hadamard,
    check_gram_product_split,
    check_gram_triangle,
    gram_determinant,
    pivoted_cholesky,
)
from .orthonormalize import (
    distance_sq_by_orthonormalization,
    orthonormal_rows,
    residual_after_projection,
)
from .distance import (
    DistanceResult,
    coefficients,
    distance_sq_gram_ratio,
    distance_sq_oracle,
    distance_sq_orthonormal,
    distance_sq_projection,
    distance_sq_quadratic,
    exact_distance,
    in_orthogonal_complement,
    is_orthonormal,
)
from .combination import (
    CombinationBoundResult,
    CombinationKind,
    CombinationMethod,
    CombinationStack,
    LagrangeParts,
    cauchy_schwarz_bound,
    combination_norm_sq,
    diag_offdiag_bound,
    evaluate_combination,
    holder_gram_bound,
    holder_gram_p2_bound,
    lagrange_identity_parts,
    lagrange_identity_residual,
    row_sum_bound,
    selection_frobenius_bound,
    selection_max_bound,
)
from .bounds import (
    BoundEntry,
    BoundMethod,
    BoundReport,
    ConditionVerdict,
    IntervalData,
    ReverseBesselVerdict,
    bessel_rhs_offdiag_frobenius,
    bessel_rhs_offdiag_max,
    bessel_rhs_row_sums,
    bound_cond_half_width,
    bound_cond_relaxed,
    bound_frobenius,
    bound_offdiag_frobenius,
    bound_offdiag_max,
    bound_row_sums,
    bound_total_norm,
    condition_verdict,
    full_bound_report,
    reverse_bessel_gap,
)
from .hadamard import (
    ChainVariant,
    HadamardChainResult,
    HadamardStrictVerdict,
    check_hadamard_strict,
    hadamard_chain,
)
from .generator import GeneratorConfig, Instance, child_rng, generate_instance, trial_rng
from .checks import REGISTRY, CheckOutcome, applicable_checks, run_checks
from .campaign import CampaignResult, FailureRecord, replay_trial, run_campaign
from .instances import instance_from_obj, instance_to_obj, load_instance, save_instance
from .reports import render_bound_report, render_campaign, render_distance, render_hadamard

__version__ = "0.1.0"
