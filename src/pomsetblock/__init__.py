"""Block codes over Z_m under the pomset metric.

Multiset ideals of an ordered block structure, Lee block weights and the
induced metric, ball and sphere cardinalities with exhaustive certification,
perfect-code and MDS verification, duals, and weight distributions.
"""

from .mset import Mset, ShapeError, complement, is_submset, mdiff, msum
from .pomset import (
    CycleError,
    Ideal,
    NotAnIdealError,
    Pomset,
    all_ideals,
    dual_pomset,
    enumerate_ideals,
    enumerate_root_downsets,
    ideal_complement,
    ideal_generated,
    is_finer,
    is_ideal,
)
from .space import (
    Space,
    Vector,
    block_weight,
    distance,
    lee_weight,
    pomset_weight,
    support,
)
from .balls import (
    BudgetExceededError,
    PartitionImpossibleError,
    I_ball_cardinality,
    I_sphere_cardinality,
    enumerate_I_ball,
    in_I_ball,
    partition_centers,
    r_ball_cardinality,
)
from .codes import (
    Code,
    InternalInconsistencyError,
    UndefinedDistanceError,
    WeightDistribution,
    ball_code_intersection,
    block_dependency_witnesses,
    check_I_perfect,
    check_r_error_correcting,
    check_r_perfect,
    construct_I_perfect,
    critical_ideals,
    dual_code,
    is_MDS,
    mds_chain_weight_distribution,
    min_distance,
    min_ideal_root_size,
    singleton_rhs,
    span_generator,
    weight_distribution,
)
from .oracle import (
    CensusReport,
    MetricReport,
    SuiteReport,
    verify_formula_suite,
    verify_metric,
    weight_census,
)

__version__ = "0.1.0"
