"""Independent brute-force oracles for the enumerator modules.

Three routes that never touch the closed forms:

* ``trellis_dp`` walks all extended-trellis paths by dynamic programming.
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
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import acc as _acc
from . import ensemble as _ensemble
from .acc import IotseTable, RangeError, ResourceLimitError
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
    "trellis_dp_tables",
    "exhaustive_acc",
    "build_factor_graph",
    "graph_ensemble_average",
    "encode",
    "verify_all",
    "TRELLIS_N_MAX",
    "GRAPH_OP_BUDGET",
]

TRELLIS_N_MAX = 48
GRAPH_OP_BUDGET = 10**9
_EXHAUSTIVE_N_MAX = 12

# A permutation is a 0-based tuple p with v[k] = y[p[k]].
Permutation = Tuple[int, ...]


def _validate_permutation(perm: Sequence[int], n: int) -> None:
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise RangeError(f"not a permutation of 0..{n - 1}: {perm!r}")


# ---------------------------------------------------------------------------
# Oracle 1: extended-trellis dynamic programming
# ---------------------------------------------------------------------------

def _trellis_states(n_max: int):
    """Yield (k, states) after each trellis section.

    ``states`` maps (state, a_i, a_o, b) to the exact number of length-k
    prefix paths from state 0 carrying that signature.
    """
    states: Dict[Tuple[int, int, int, int], int] = {(0, 0, 0, 0): 1}
    for k in range(1, n_max + 1):
        nxt: Dict[Tuple[int, int, int, int], int] = {}
        for (s, a_i, a_o, b), cnt in states.items():
            for s_i in (0, 1):
                for s_o in (0, 1):
                    c = s_i ^ s ^ s_o
                    key = (s_o, a_i + s_i, a_o + s_o, b + c)
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
        yield k, states


def _table_from_states(k: int, states) -> IotseTable:
    entries = {
        (a_i, a_o, b): cnt
        for (s, a_i, a_o, b), cnt in states.items()
        if s == 0
    }
    return IotseTable(N=k, mode="exact", entries=entries)


def trellis_dp(N: int) -> IotseTable:
    """Exact class counts by walking every terminated extended-trellis path."""
    if N < 1:
        raise RangeError(f"block length must be >= 1, got {N}")
    if N > TRELLIS_N_MAX:
        raise ResourceLimitError(f"trellis DP capped at N={TRELLIS_N_MAX}")
    for k, states in _trellis_states(N):
        pass
    return _table_from_states(N, states)


def trellis_dp_tables(n_max: int) -> Dict[int, IotseTable]:
    """Tables for every block length 1..n_max from a single DP pass.

    Length-k prefixes ending in state 0 are exactly the terminated length-k
    paths, so the harvest at position k equals ``trellis_dp(k)``.
    """
    if n_max < 1:
        raise RangeError(f"block length must be >= 1, got {n_max}")
    if n_max > TRELLIS_N_MAX:
        raise ResourceLimitError(f"trellis DP capped at N={TRELLIS_N_MAX}")
    return {k: _table_from_states(k, states) for k, states in _trellis_states(n_max)}


# ---------------------------------------------------------------------------
# Oracle 2: exhaustive subset-pair enumeration
# ---------------------------------------------------------------------------

def exhaustive_acc(N: int) -> IotseTable:
    """Tally (|I|, |O|, b) over all input subsets I of the N positions and
    output subsets O of positions 1..N-1 (the final node is excluded by
    termination).  Check k is unsatisfied iff [k in I] ^ [k-1 in O] ^ [k in O].
    """
    if N < 1:
        raise RangeError(f"block length must be >= 1, got {N}")
    if N > _EXHAUSTIVE_N_MAX:
        raise RangeError(f"exhaustive enumeration capped at N={_EXHAUSTIVE_N_MAX}, got {N}")
    pc = np.array([bin(v).count("1") for v in range(1 << N)], dtype=np.int64)
    inputs = np.arange(1 << N, dtype=np.int64)
    outputs = np.arange(1 << max(N - 1, 0), dtype=np.int64)
    checks = inputs[:, None] ^ (outputs << 1)[None, :] ^ outputs[None, :]
    a_i = pc[inputs][:, None]
    a_o = pc[outputs][None, :]
    b = pc[checks]
    dim_b = N + 1
    dim_o = N  # a_o <= N - 1
    idx = (a_i * dim_o + a_o) * dim_b + b
    counts = np.bincount(idx.ravel(), minlength=(N + 1) * dim_o * dim_b)
    entries = {}
    for flat, cnt in enumerate(counts):
        if cnt:
            a_i_v, rest = divmod(flat, dim_o * dim_b)
            a_o_v, b_v = divmod(rest, dim_b)
            entries[(a_i_v, a_o_v, b_v)] = int(cnt)
    return IotseTable(N=N, mode="exact", entries=entries)


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
    ``check_masks`` holds, for check (l, k), the bitmask of its universe
    neighbours; parity against a membership mask decides satisfaction.
    """

    config: EnsembleConfig
    perms: Tuple[Permutation, ...]
    check_masks: Tuple[int, ...]
    universe_size: int

    def induced_class(self, assignment: MembershipAssignment) -> Tuple[int, int]:
        mask = assignment.mask
        if mask >> self.universe_size:
            raise RangeError("membership mask addresses nodes outside the universe")
        a = mask.bit_count()
        b = sum((mask & cm).bit_count() & 1 for cm in self.check_masks)
        return a, b


def _code_node_bit(config: EnsembleConfig, level: int, pos: int) -> Optional[int]:
    """Universe bit of x^level_{pos+1} (0-based pos), None for the final node."""
    if pos == config.N - 1:
        return None
    return config.K + (level - 1) * (config.N - 1) + pos


def build_factor_graph(config: EnsembleConfig, perms: Sequence[Permutation]) -> FactorGraph:
    """Assemble the check adjacency for one tuple of interleavers."""
    N, K, q, L = config.N, config.K, config.q, config.L
    if len(perms) != L:
        raise RangeError(f"need {L} interleavers, got {len(perms)}")
    for p in perms:
        _validate_permutation(p, N)
    masks: List[int] = []
    for level in range(1, L + 1):
        perm = perms[level - 1]
        for k in range(N):  # check (level, k+1)
            m = 0
            src = perm[k]
            if level == 1:
                m |= 1 << (src // q)  # repetition position -> information node
            else:
                bit = _code_node_bit(config, level - 1, src)
                if bit is not None:
                    m |= 1 << bit
            if k >= 1:
                bit = _code_node_bit(config, level, k - 1)
                if bit is not None:
                    m |= 1 << bit
            bit = _code_node_bit(config, level, k)
            if bit is not None:
                m |= 1 << bit
            masks.append(m)
    universe = K + L * (N - 1)
    return FactorGraph(
        config=config,
        perms=tuple(tuple(p) for p in perms),
        check_masks=tuple(masks),
        universe_size=universe,
    )


def graph_ensemble_average(config: EnsembleConfig) -> Dict[Tuple[int, int], Fraction]:
    """Average (a, b) tallies over every interleaver tuple, exactly.

    Builds the graph for all (N!)^L tuples, enumerates all membership
    assignments of each, and divides the integer tallies by (N!)^L.
    """
    if config.K > 3 or config.q > 2 or config.L > 2:
        raise RangeError("graph oracle supports K <= 3, q <= 2, L <= 2")
    N, L, K = config.N, config.L, config.K
    universe = K + L * (N - 1)
    n_tuples = math.factorial(N) ** L
    if n_tuples * (1 << universe) > GRAPH_OP_BUDGET:
        raise ResourceLimitError(
            f"(N!)^L * 2^universe = {n_tuples * (1 << universe)} exceeds budget"
        )
    tally: Dict[Tuple[int, int], int] = {}
    for perms in itertools.product(itertools.permutations(range(N)), repeat=L):
        graph = build_factor_graph(config, perms)
        cms = graph.check_masks
        for mask in range(1 << universe):
            a = mask.bit_count()
            b = 0
            for cm in cms:
                b += (mask & cm).bit_count() & 1
            key = (a, b)
            tally[key] = tally.get(key, 0) + 1
    return {k: Fraction(v, n_tuples) for k, v in sorted(tally.items())}


def encode(
    u: Sequence[int], interleavers: Sequence[Sequence[int]]
) -> Tuple[List[int], List[List[int]]]:
    """Run the repeat-accumulate chain on one input word.

    Returns the repeated block and the per-level accumulator outputs
    x_k = x_{k-1} + v_k (x_0 = 0) with v the interleaved previous layer.
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
        v = [prev[perm[k]] for k in range(N)]
        x: List[int] = []
        s = 0
        for bit in v:
            s ^= bit
            x.append(s)
        levels.append(x)
        prev = x
    return x_rep, levels


# ---------------------------------------------------------------------------
# Cross-oracle verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyLimits:
    """Domain sizes for the verification suite (defaults = full gate).

    Construction raises ``RangeError`` for a size limit below 1 or an
    exhaustive limit past the exhaustive oracle's cap, so a bad limit is
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
        # A limit below 1 would compare no keys and read as a pass.
        for limit in fields(self):
            value = getattr(self, limit.name)
            if limit.name.endswith("_max") and value < 1:
                raise RangeError(f"{limit.name} must be >= 1, got {value}")
        if self.exhaustive_n_max > _EXHAUSTIVE_N_MAX:
            raise RangeError(
                f"exhaustive enumeration capped at N={_EXHAUSTIVE_N_MAX}, got {self.exhaustive_n_max}"
            )


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
        payload = {
            "mismatch_count": self.mismatch_count,
            "comparisons": [
                {
                    "name": c.name,
                    "checked": c.checked,
                    "ok": c.ok,
                    "mismatch": None
                    if c.mismatch is None
                    else {
                        "key": list(c.mismatch.key),
                        "lhs": c.mismatch.lhs,
                        "rhs": c.mismatch.rhs,
                    },
                }
                for c in self.comparisons
            ],
        }
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
    """Both tables' values (0 if missing) over their sorted keys, built by C-level iterators."""
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

    Mismatches are reported, not raised: each comparison walks its keys in a
    fixed order, stops at the first disagreement, and its ``checked`` counts
    the keys compared up to and including that mismatch (all keys if none).
    """
    n_ex = limits.exhaustive_n_max
    dp_tables = trellis_dp_tables(max(limits.trellis_n_max, n_ex))
    row_sums: Dict[int, Counter] = {}  # kept for the row-sum check

    def closed_form():
        # Closed form vs trellis DP: one stream per n, its table built only when reached.
        for n in range(1, limits.trellis_n_max + 1):
            closed = _acc.acc_iotse_table(n)
            if n <= limits.rowsum_n_max:
                row_sums[n] = _row_sums(closed)
            yield _table_triples(dp_tables[n].entries, closed.entries, (n,))

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
            yield (q, k, l_levels), total, 1 << (config.K + config.L * (config.N - 1))

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

    exhaustive = (  # trellis DP vs exhaustive subset enumeration
        _table_triples(dp_tables[n].entries, exhaustive_acc(n).entries, (n,))
        for n in range(1, n_ex + 1)
    )
    iowe = (  # b = 0 slice vs the classic weight enumerator
        ((n, w, d), _acc.acc_iotse(_acc.AccTriple(n, w, d, 0)), _acc.acc_iowe(n, w, d))
        for n in range(1, limits.iowe_n_max + 1)
        for w, d in itertools.product(range(n + 1), repeat=2)
    )
    comparisons = [
        _first_mismatch("closed_form_vs_trellis", itertools.chain.from_iterable(closed_form())),
        _first_mismatch("trellis_vs_exhaustive", itertools.chain.from_iterable(exhaustive)),
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
        expect = 1 << (config.K + config.L * (config.N - 1))
        mass = None if total == expect else Mismatch(("total",), str(total), str(expect))
        comparisons += [
            _first_mismatch(f"graph_vs_ensemble_{tag}", _table_triples(graph_table, composed)),
            ComparisonResult(f"graph_universe_mass_{tag}", len(graph_table), mass),
        ]
    comparisons.append(_first_mismatch("closure_identity", closure()))
    comparisons.append(_first_mismatch("codeword_support_b0", codeword_support()))
    return OracleReport(comparisons)
