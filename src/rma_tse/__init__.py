"""Trapping-set enumerators for repeat-multiple-accumulate code ensembles.

Exact finite-length class counts (closed form plus three independent
brute-force oracles), uniform-interleaver ensemble averages, and the
asymptotic spectral shape with its sweep driver and CLI.

The exact layers (``acc``, ``ensemble``, ``oracles``, ``combinatorics``)
need numpy only.  scipy is imported by ``rma_tse.asymptotic`` alone, which
loads on first use: on ``import rma_tse.asymptotic``, or on the first access
to ``rma_tse.asymptotic`` or to one of the names it re-exports here
(``r_point``, ``sweep``, ``SweepSpec``, ...).  Of the ``tse`` commands, only
``asym-point`` and ``asym-sweep`` load it.
"""

import importlib

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

# ``rma_tse.asymptotic`` is the only module that imports scipy, which the
# exact layers never use, so it and the names below load on first access
# (PEP 562).
_ASYMPTOTIC_NAMES = frozenset({
    "AccShapeArgs",
    "AsymptoticPoint",
    "AsymptoticQuery",
    "InnerOptimum",
    "LevelWitness",
    "OptimizerWitness",
    "SplitPolicy",
    "SweepSpec",
    "f_acc",
    "f_rep",
    "r_point",
    "sweep",
})


def __getattr__(name: str):
    if name == "asymptotic" or name in _ASYMPTOTIC_NAMES:
        module = importlib.import_module(".asymptotic", __name__)
        return module if name == "asymptotic" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ASYMPTOTIC_NAMES | {"asymptotic"})
