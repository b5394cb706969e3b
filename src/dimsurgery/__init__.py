"""Binary-entropy calculus, Hamming-space extremal combinatorics, and chunked
bit-sequence dimension surgery."""

from .bitseq import BitSequence, gen_bernoulli, gen_coin, gen_join_dup, gen_zero_padded
from .dimension import (
    chunk_boundary,
    chunk_count,
    chunk_dims,
    sequence_dim,
    sequence_distance,
)
from .duplication import DuplicationDescription, duplication_decode, duplication_encode
from .entropy import (
    CASE1,
    CASE2,
    BoundCurves,
    ConvexityReport,
    ScheduleError,
    bound_curves,
    buffer_schedule,
    case_select,
    entropy,
    entropy_deriv,
    entropy_inv,
    raise_profile,
    uplift_gap,
    verify_concavity_lemma,
    verify_convexity_lemma,
)
from .estimators import BernoulliOracle, BlockEntropy, Compressor, EstimatorError, parse_estimator
from .hamming import (
    Codebook,
    SphereDescriptor,
    ball_volume,
    best_subcode,
    greedy_cover,
    harper_far_count,
    sphere_for_size,
    verify_harper,
)
from .surgery import (
    PlanEntry,
    SurgeryPlan,
    SurgeryReport,
    apply_plan,
    lower_chunk,
    plan_lower,
    plan_raise,
    plan_randomize,
    plan_weak_srandom,
    raise_chunk,
)

__version__ = "0.1.0"
