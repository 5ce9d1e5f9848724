"""Trapping-set enumerators for repeat-multiple-accumulate code ensembles.

Exact finite-length class counts (closed form plus three independent
brute-force oracles), uniform-interleaver ensemble averages, and the
asymptotic spectral shape with its sweep driver and CLI.
"""

from .acc import (
    AccTriple,
    EXTENDED_TRELLIS_EDGES,
    IotseTable,
    PathDecomposition,
    RangeError,
    ResourceLimitError,
    TrellisEdge,
    acc_iotse,
    acc_iotse_table,
    acc_iowe,
    decompositions,
)
from .asymptotic import (
    AccShapeArgs,
    AsymptoticPoint,
    AsymptoticQuery,
    InnerOptimum,
    LevelWitness,
    OptimizerWitness,
    SplitPolicy,
    SweepSpec,
    f_acc,
    f_rep,
    r_point,
    sweep,
)
from .combinatorics import (
    NEG_INF,
    BigCount,
    DomainError,
    ExactRatio,
    LogValue,
    binary_entropy,
    binomial,
    log_binomial,
    log_sum_exp,
)
from .ensemble import (
    ConditionalProfile,
    EnsembleConfig,
    TrappingSetClass,
    TseResult,
    conditional_tse,
    ensemble_iowe,
    ensemble_table,
    ensemble_tse,
)
from .oracles import (
    FactorGraph,
    MembershipAssignment,
    OracleReport,
    VerifyLimits,
    build_factor_graph,
    encode,
    exhaustive_acc,
    graph_ensemble_average,
    trellis_dp,
    verify_all,
)

__version__ = "0.1.0"
