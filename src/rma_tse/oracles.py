"""Independent brute-force oracles for the enumerator modules.

Three routes that never touch the closed forms:

* ``trellis_dp`` walks all extended-trellis paths by dynamic programming,
  one section at a time over the eight labelled edges s_i/c/s_o of
  ``acc.EXTENDED_TRELLIS_EDGES``.  The closed form never reads that table,
  and ``exhaustive_acc`` states the check rule on its own, so a wrong edge
  fails the cross-checks.
* ``exhaustive_acc`` enumerates every (input subset, output subset) pair of
  one accumulator by bitmask and tallies the induced unsatisfied checks.
* ``graph_ensemble_average`` builds the literal layered Tanner graph for
  every interleaver tuple, enumerates every membership assignment, and
  averages the (a, b) tallies exactly.

``verify_all`` cross-checks the closed-form modules against all of them.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import acc as _acc
from . import ensemble as _ensemble
from .acc import EXTENDED_TRELLIS_EDGES, IotseTable, RangeError, ResourceLimitError, _check_n
from .combinatorics import binomial
from .ensemble import EnsembleConfig

__all__ = [
    "Permutation",
    "FactorGraph",
    "MembershipAssignment",
    "Mismatch",
    "ComparisonResult",
    "OracleReport",
    "VerifyLimits",
    "trellis_dp",
    "exhaustive_acc",
    "build_factor_graph",
    "graph_ensemble_average",
    "encode",
    "verify_all",
    "TRELLIS_N_MAX",
    "EXHAUSTIVE_N_MAX",
    "GRAPH_OP_BUDGET",
]

TRELLIS_N_MAX = 48
GRAPH_OP_BUDGET = 10**9
EXHAUSTIVE_N_MAX = 12
_EXHAUSTIVE_BLOCK = 64  # inputs per exhaustive tally block

# A permutation is a 0-based tuple p with v[k] = y[p[k]].
Permutation = Tuple[int, ...]


def _validate_permutation(perm: Sequence[int], n: int) -> None:
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise RangeError(f"not a permutation of 0..{n - 1}: {perm!r}")


# ---------------------------------------------------------------------------
# Oracle 1: extended-trellis dynamic programming
# ---------------------------------------------------------------------------

def _trellis_states(n_max: int):
    """Yield (k, counts) after each trellis section, for k = 1..n_max.

    ``counts[a_i, a_o, b]`` is the exact number of length-k prefix paths from
    state 0 that end in state 0 and carry that signature.  It is a view into
    the walk's one array, valid until the next section is walked.
    """
    _check_n(n_max, TRELLIS_N_MAX, "trellis DP")
    # A cell counts the length-k prefix paths of one (state, a_i, a_o, b): at
    # most C(k, a_o) output subsets times 2^k input subsets, so at most
    # C(n, n//2) * 2^n, and each += below adds to it a disjoint part of those
    # paths.  That is below 2^63 up to n = 32.  Past it int64 would wrap
    # silently, with no warning, so the walk holds Python ints instead.
    fits_int64 = math.comb(n_max, n_max // 2) << n_max < 1 << 63
    dp = np.zeros((2,) + (n_max + 1,) * 3, dtype=np.int64 if fits_int64 else object)
    dp[0, 0, 0, 0] = 1  # over (state, a_i, a_o, b)
    for k in range(1, n_max + 1):
        prev = dp[:, :k, :k, :k].copy()
        dp[:, : k + 1, : k + 1, : k + 1] = 0
        # An edge s_i/c/s_o takes a path to its to_state and adds s_i, s_o, c
        # to its a_i, a_o, b: one shifted window per edge.
        for e in EXTENDED_TRELLIS_EDGES:
            window = dp[e.to_state, e.s_i : e.s_i + k, e.s_o : e.s_o + k, e.c : e.c + k]
            window += prev[e.from_state]
        yield k, dp[0, : k + 1, : k + 1, : k + 1]


def _nonzero_items(counts: np.ndarray):
    """(index tuple, Python int) of every nonzero cell of a dense count array,
    in ascending index order."""
    nonzero = np.nonzero(counts)
    return zip(zip(*(axis.tolist() for axis in nonzero)), counts[nonzero].tolist())


def _harvest(N: int, counts: np.ndarray) -> IotseTable:
    """The class table of a dense (a_i, a_o, b) count array."""
    return IotseTable(N=N, mode="exact", entries=dict(_nonzero_items(counts)))


def trellis_dp(N: int) -> IotseTable:
    """Exact class counts by walking every terminated extended-trellis path."""
    for k, counts in _trellis_states(N):
        pass
    return _harvest(k, counts)


# ---------------------------------------------------------------------------
# Oracle 2: exhaustive subset-pair enumeration
# ---------------------------------------------------------------------------

def exhaustive_acc(N: int) -> IotseTable:
    """Tally (|I|, |O|, b) over all input subsets I of the N positions and
    output subsets O of positions 1..N-1 (the final node is excluded by
    termination).  Check k is unsatisfied iff [k in I] ^ [k-1 in O] ^ [k in O].

    The pairs are tallied ``_EXHAUSTIVE_BLOCK`` inputs at a time, so no
    input x output matrix is ever held whole.  N past ``EXHAUSTIVE_N_MAX``
    raises ``ResourceLimitError``, as every size ceiling does.
    """
    _check_n(N, EXHAUSTIVE_N_MAX, "exhaustive enumeration")
    pc = np.array([bin(v).count("1") for v in range(1 << N)], dtype=np.int64)
    outputs = np.arange(1 << max(N - 1, 0), dtype=np.int64)
    out_checks = (outputs << 1) ^ outputs
    dim_b = N + 1
    dim_o = N  # a_o <= N - 1
    # Flat class index (a_i * dim_o + a_o) * dim_b + b, split by what it reads.
    a_i_part = pc * (dim_o * dim_b)
    a_o_part = pc[outputs] * dim_b
    counts = np.zeros((N + 1) * dim_o * dim_b, dtype=np.int64)
    for lo in range(0, 1 << N, _EXHAUSTIVE_BLOCK):
        inputs = np.arange(lo, min(lo + _EXHAUSTIVE_BLOCK, 1 << N), dtype=np.int64)
        idx = pc[inputs[:, None] ^ out_checks]  # b of every pair in the block
        idx += a_o_part
        idx += a_i_part[inputs, None]
        counts += np.bincount(idx.ravel(), minlength=counts.size)
    return _harvest(N, counts.reshape(N + 1, dim_o, dim_b))


# ---------------------------------------------------------------------------
# Oracle 3: literal factor-graph ensemble averaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipAssignment:
    """A subset of the membership universe, as a bitmask over node indices."""

    mask: int


@dataclass(frozen=True)
class FactorGraph:
    """Layered Tanner graph of one interleaver realisation.

    Universe node indices: information nodes 0..K-1, then per level l the
    code nodes x^l_1..x^l_{N-1} (the terminated final node x^l_N exists in
    the graph but never belongs to a membership set, so it carries no index).
    ``config`` sizes that universe (``config.a_max`` nodes), and
    ``check_masks`` holds, for check (l, k), the bitmask of its universe
    neighbours; parity against a membership mask decides satisfaction.
    """

    config: EnsembleConfig
    check_masks: Tuple[int, ...]

    def induced_class(self, assignment: MembershipAssignment) -> Tuple[int, int]:
        mask = assignment.mask
        if mask >> self.config.a_max:
            raise RangeError("membership mask addresses nodes outside the universe")
        a = mask.bit_count()
        b = sum((mask & cm).bit_count() & 1 for cm in self.check_masks)
        return a, b


def _node_mask(config: EnsembleConfig, level: int, pos: int) -> int:
    """Universe bitmask of x^level_{pos+1} (0-based pos); 0 for the terminated
    final node and for pos = -1, the accumulator's start x_0, which is not a node."""
    if pos in (-1, config.N - 1):
        return 0
    return 1 << (config.K + (level - 1) * (config.N - 1) + pos)


def build_factor_graph(config: EnsembleConfig, perms: Sequence[Permutation]) -> FactorGraph:
    """Assemble the check adjacency for one tuple of interleavers.

    Check (level, k+1) joins its feed (the information node behind
    repetition position perm[k] at level 1, else code node perm[k] of the
    level below) with its accumulator's code nodes k-1 and k.
    """
    N, q, L = config.N, config.q, config.L
    if len(perms) != L:
        raise RangeError(f"need {L} interleavers, got {len(perms)}")
    for p in perms:
        _validate_permutation(p, N)
    masks: List[int] = []
    for level, perm in enumerate(perms, 1):
        for k, src in enumerate(perm):
            feed = 1 << (src // q) if level == 1 else _node_mask(config, level - 1, src)
            masks.append(feed | _node_mask(config, level, k - 1) | _node_mask(config, level, k))
    return FactorGraph(config=config, check_masks=tuple(masks))


def _check_graph_size(config: EnsembleConfig) -> None:
    """Refuse a configuration the graph oracle does not support or cannot finish."""
    if config.K > 3 or config.q > 2 or config.L > 2:
        raise RangeError("graph oracle supports K <= 3, q <= 2, L <= 2")
    ops = math.factorial(config.N) ** config.L << config.a_max
    if ops > GRAPH_OP_BUDGET:
        raise ResourceLimitError(f"(N!)^L * 2^universe = {ops} exceeds budget")


def graph_ensemble_average(config: EnsembleConfig) -> Dict[Tuple[int, int], Fraction]:
    """Average (a, b) tallies over every interleaver tuple, exactly.

    Builds the graph for all (N!)^L tuples, enumerates all membership
    assignments of each, and divides the integer tallies by (N!)^L.
    """
    _check_graph_size(config)
    N, L, universe = config.N, config.L, config.a_max
    n_tuples = math.factorial(N) ** L
    masks = np.arange(1 << universe, dtype=np.int64)
    pc = np.array([v.bit_count() for v in range(1 << universe)], dtype=np.int64)
    parity = pc & 1
    n_b = L * N + 1  # b counts unsatisfied checks, at most L * N
    a_part = pc * n_b
    tally = np.zeros((universe + 1) * n_b, dtype=np.int64)
    for perms in itertools.product(itertools.permutations(range(N)), repeat=L):
        cms = np.array(build_factor_graph(config, perms).check_masks, dtype=np.int64)
        b = parity[masks[:, None] & cms].sum(axis=1)  # every mask at once
        tally += np.bincount(a_part + b, minlength=tally.size)
    items = _nonzero_items(tally.reshape(universe + 1, n_b))
    return {k: Fraction(v, n_tuples) for k, v in items}


def encode(
    u: Sequence[int], interleavers: Sequence[Sequence[int]]
) -> Tuple[List[int], List[List[int]]]:
    """Run the repeat-accumulate chain on one input word.

    Returns the repeated block and the per-level accumulator outputs: each
    level is the running XOR x_k = x_{k-1} + v_k (x_0 = 0) of v, the
    previous layer read through the level's interleaver (v[k] = prev[perm[k]]).
    The repetition factor is inferred from the interleaver length.
    """
    K = len(u)
    if K < 1 or not interleavers:
        raise RangeError("need a nonempty input and at least one interleaver")
    N = len(interleavers[0])
    if N % K:
        raise RangeError(f"interleaver size {N} is not a multiple of K={K}")
    q = N // K
    for p in interleavers:
        _validate_permutation(p, N)
    if any(bit not in (0, 1) for bit in u):
        raise RangeError("input bits must be 0/1")
    x_rep = [u[i // q] for i in range(N)]
    levels: List[List[int]] = []
    prev = x_rep
    for perm in interleavers:
        prev = list(itertools.accumulate((prev[p] for p in perm), operator.xor))
        levels.append(prev)
    return x_rep, levels


# ---------------------------------------------------------------------------
# Cross-oracle verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyLimits:
    """Domain sizes for the verification suite (defaults = full gate).

    Construction raises ``RangeError`` for a size limit below 1 or an empty
    ``graph_configs``.  A limit past the ceiling of the table it drives
    raises the ``ResourceLimitError`` of that table: the trellis walk's and
    the exhaustive oracle's ceilings, the accumulator table ceiling for row
    sums, and the exact ensemble table ceiling for the closure block length
    q * K.  A graph or codeword configuration the graph oracle refuses
    raises as the oracle does: ``RangeError`` past its shape limits,
    ``ResourceLimitError`` past ``GRAPH_OP_BUDGET``.  So a bad limit is
    rejected before any table is built.
    """

    trellis_n_max: int = 32
    exhaustive_n_max: int = 12
    iowe_n_max: int = 64
    rowsum_n_max: int = 32
    graph_configs: Tuple[Tuple[int, int, int], ...] = ((2, 2, 1), (2, 2, 2))
    closure_k_max: int = 4
    closure_q_max: int = 3
    closure_l_max: int = 3
    codeword_config: Tuple[int, int, int] = (2, 2, 2)

    def __post_init__(self) -> None:
        # A limit below 1, or no graph configuration, would compare no keys
        # and read as a pass.
        for limit in fields(self):
            value = getattr(self, limit.name)
            if limit.name.endswith("_max") and value < 1:
                raise RangeError(f"{limit.name} must be >= 1, got {value}")
        if not self.graph_configs:
            raise RangeError("graph_configs must name at least one configuration")
        _check_n(self.trellis_n_max, TRELLIS_N_MAX, "trellis DP")
        _check_n(self.exhaustive_n_max, EXHAUSTIVE_N_MAX, "exhaustive enumeration")
        _check_n(self.rowsum_n_max, _acc.EXACT_TABLE_N_MAX, "row-sum tables")
        _check_n(self.closure_q_max * self.closure_k_max, _ensemble.EXACT_TABLE_N_MAX,
                 "closure tables")
        # The codeword check walks every interleaver tuple as the graph oracle
        # does, with 2^K words in place of 2^universe masks, so its limits hold too.
        for config in (*self.graph_configs, self.codeword_config):
            _check_graph_size(EnsembleConfig(*config))


@dataclass(frozen=True)
class Mismatch:
    key: Tuple
    lhs: str
    rhs: str


@dataclass
class ComparisonResult:
    name: str
    checked: int
    mismatch: Optional[Mismatch] = None

    @property
    def ok(self) -> bool:
        return self.mismatch is None


@dataclass
class OracleReport:
    comparisons: List[ComparisonResult] = field(default_factory=list)

    @property
    def mismatch_count(self) -> int:
        return sum(0 if c.ok else 1 for c in self.comparisons)

    def to_json(self) -> str:
        """The report as indented JSON with sorted keys.

        It holds ``mismatch_count`` and, per comparison, the dataclass fields
        (a mismatch's too, or null) plus ``ok``.  A tuple key is a JSON list.
        """
        comparisons = [{**asdict(c), "ok": c.ok} for c in self.comparisons]
        payload = {"mismatch_count": self.mismatch_count, "comparisons": comparisons}
        return json.dumps(payload, indent=2, sort_keys=True)


def _first_mismatch(name: str, triples: Iterable[Tuple]) -> ComparisonResult:
    """Compare ``(key, lhs, rhs)`` triples in order; stop at the first disagreement."""
    checked = 0
    for key, lhs, rhs in triples:
        checked += 1
        if lhs != rhs:
            return ComparisonResult(name, checked, Mismatch(key, str(lhs), str(rhs)))
    return ComparisonResult(name, checked)


def _table_triples(lhs: Dict, rhs: Dict, prefix: Tuple = ()):
    """Both tables' values (0 if missing) over their sorted keys, built by C-level iterators.

    Equal tables yield lhs's items as they stand: with no mismatch only the
    count of keys is reported, and it is the same in any order.
    """
    if lhs == rhs:
        return zip(map(prefix.__add__, lhs), lhs.values(), lhs.values())
    keys, zero = sorted(lhs.keys() | rhs.keys()), itertools.repeat(0)
    return zip(map(prefix.__add__, keys), map(lhs.get, keys, zero), map(rhs.get, keys, zero))


def _row_sums(table: IotseTable) -> Counter:
    """A class table summed over b, keyed by (a_i, a_o)."""
    sums: Counter = Counter()
    for (a_i, a_o, _), cnt in table.entries.items():
        sums[a_i, a_o] += cnt
    return sums


def verify_all(limits: VerifyLimits = VerifyLimits()) -> OracleReport:
    """Run every cross-oracle equality and identity check within limits.

    Each trellis comparison streams a walk of its own and harvests the
    table at n when it reaches n, so no table is built before it is
    compared or kept after.  Mismatches are reported, not raised: each
    comparison walks its keys in a fixed order, stops at the first
    disagreement, and its ``checked`` counts the keys compared up to and
    including that mismatch (all keys if none).
    """
    row_sums: Dict[int, Counter] = {}  # kept for the row-sum check

    def closed_form():
        # Closed form vs trellis DP: both tables at n built only when the walk reaches n.
        for n, counts in _trellis_states(limits.trellis_n_max):
            closed = _acc.acc_iotse_table(n)
            if n <= limits.rowsum_n_max:
                row_sums[n] = _row_sums(closed)
            yield _table_triples(_harvest(n, counts).entries, closed.entries, (n,))

    def exhaustive():
        # Trellis DP vs exhaustive subset enumeration.
        for n, counts in _trellis_states(limits.exhaustive_n_max):
            yield _table_triples(_harvest(n, counts).entries, exhaustive_acc(n).entries, (n,))

    def rowsum():
        # Summing one class table over b must count all subset pairs.
        for n in range(1, limits.rowsum_n_max + 1):
            sums = row_sums[n] if n in row_sums else _row_sums(_acc.acc_iotse_table(n))
            for a_i, a_o in itertools.product(range(n + 1), repeat=2):
                yield (n, a_i, a_o), sums[a_i, a_o], binomial(n, a_i) * binomial(n - 1, a_o)

    def closure():
        # Closure identity: an ensemble table's total mass is 2^universe.
        for q, k, l_levels in itertools.product(
            range(1, limits.closure_q_max + 1),
            range(1, limits.closure_k_max + 1),
            range(1, limits.closure_l_max + 1),
        ):
            config = EnsembleConfig(q=q, K=k, L=l_levels)
            total = sum(_ensemble.ensemble_table(config).values(), Fraction(0))
            yield (q, k, l_levels), total, 1 << config.a_max

    def codeword_support():
        # Every encoded word whose accumulators terminate induces b = 0.
        config = EnsembleConfig(*limits.codeword_config)
        for perms in itertools.product(itertools.permutations(range(config.N)), repeat=config.L):
            graph = build_factor_graph(config, perms)
            for bits in itertools.product((0, 1), repeat=config.K):
                _, levels = encode(list(bits), perms)
                if any(x[-1] for x in levels):
                    continue
                word = list(bits) + [bit for x in levels for bit in x[:-1]]  # universe order
                mask = sum(bit << j for j, bit in enumerate(word))
                yield (perms, bits), graph.induced_class(MembershipAssignment(mask))[1], 0

    iowe = (  # b = 0 slice vs the classic weight enumerator
        ((n, w, d), _acc.acc_iotse(_acc.AccTriple(n, w, d, 0)), _acc.acc_iowe(n, w, d))
        for n in range(1, limits.iowe_n_max + 1)
        for w, d in itertools.product(range(n + 1), repeat=2)
    )
    comparisons = [
        _first_mismatch("closed_form_vs_trellis", itertools.chain.from_iterable(closed_form())),
        _first_mismatch("trellis_vs_exhaustive", itertools.chain.from_iterable(exhaustive())),
        _first_mismatch("iowe_b0_reduction", iowe),
        _first_mismatch("rowsum_identity", rowsum()),
    ]
    # Graph-average oracle vs uniform-interleaver composition; graph mass is 2^universe.
    for q, k, l_levels in limits.graph_configs:
        config = EnsembleConfig(q=q, K=k, L=l_levels)
        tag = f"q{q}_K{k}_L{l_levels}"
        graph_table = graph_ensemble_average(config)
        composed = _ensemble.ensemble_table(config)
        total = sum(graph_table.values(), Fraction(0))
        expect = 1 << config.a_max
        mass = None if total == expect else Mismatch(("total",), str(total), str(expect))
        comparisons += [
            _first_mismatch(f"graph_vs_ensemble_{tag}", _table_triples(graph_table, composed)),
            ComparisonResult(f"graph_universe_mass_{tag}", len(graph_table), mass),
        ]
    comparisons.append(_first_mismatch("closure_identity", closure()))
    comparisons.append(_first_mismatch("codeword_support_b0", codeword_support()))
    return OracleReport(comparisons)
