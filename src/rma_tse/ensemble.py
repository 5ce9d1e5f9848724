"""Uniform-interleaver composition of component enumerators.

A repeat-accumulate chain repeats K information bits q times and pushes the
resulting length-N block through L serially interleaved accumulators.  Under
the uniform interleaver, the joint count of a multi-level trapping
configuration factors into per-level accumulator counts divided by the
number of ways the interleaver can place each level's input set:

    value(profile) = C(K, w) * prod_l  A(a_i_l, a_o_l, b_l) / C(N, a_i_l)

with a_i_1 = q*w and a_i_l = a_o_{l-1}.  Summing profiles with
w + sum(a_o_l) = a and sum(b_l) = b gives the ensemble-average count of
(a, b) trapping sets.

Every query is one sum-product pass over the levels in the value domain of
``acc`` (exact integers or logs); the queries differ only in the moves a
state may take and in which states merge.  Exact mode carries integers
scaled by a_i!(N - a_i)! = N!/C(N, a_i) per level and divides each output by
(N!)^L once, as a ``Fraction``.

The moves of ``ensemble_tse``, ``conditional_tse`` and ``ensemble_iowe``
visit only the support of the component count, the b of ``acc._b_range``
for each (a_i, a_o), so no zero count is made or looked up.  They make each
count as ``acc_iotse_table`` makes its entries, from rows of
``acc._class_rows``: each a_o's A row and each (a_i, b)'s B * C row is made
once and shared, and every count equals ``acc_iotse`` bit for bit.  Counts
and rows are kept per (value domain, N), in one bounded cache, for every
later query at that N.  The level before the last takes only the moves the
last level can close, tested before any count is made: ``ensemble_tse``
keeps (a_o, b_l) when the rest of the class, (a - a_o, b - b_l), is on the
support from a_o, and ``ensemble_iowe`` the a_o from which (d, 0) is on it.
Whether a move is kept depends only on the state it leads to, so the states
that stay get every term in the same order, and every output bit is the
unpruned pass's.

``ensemble_table`` takes each level in two half-steps through the m of
the class sum (``acc``): the factor B[d][m] * C[h][m] moves a state from
its a_i to m, and A[a_o][m] from m to a_o.  It reads the factor rows of
``acc._factor_rows``, not ``acc_iotse_table``, and makes about half the
moves of a pass over whole class counts, with the same integers.  The pass
is exact in both modes: a log table is the natural log of each exact
class count, one per class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .acc import (
    _EXACT, _ROW_CACHE_SIZE, RangeError, _b_range, _check_n, _class_rows, _Domain, _domain,
    _factor_rows, _m_range, _Memo,
)
from .combinatorics import ExactRatio, LogValue, binomial

__all__ = [
    "EnsembleConfig",
    "TrappingSetClass",
    "ConditionalProfile",
    "TseResult",
    "conditional_tse",
    "ensemble_tse",
    "ensemble_table",
    "ensemble_iowe",
    "EXACT_CLASS_N_MAX",
    "EXACT_TABLE_N_MAX",
    "LOG_N_MAX",
]

# Size ceilings: a full table touches O(K * N^2L) profiles, a single class
# far fewer.  EXACT_TABLE_N_MAX caps ensemble tables in both modes, since a
# log table is the exact pass's logs; LOG_N_MAX caps log class queries, which
# trade exactness for reach.  ``acc.EXACT_TABLE_N_MAX`` is a different
# ceiling, on accumulator tables.
EXACT_TABLE_N_MAX = 64
EXACT_CLASS_N_MAX = 128
LOG_N_MAX = 512

Value = Union[ExactRatio, LogValue]


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of a repeat-accumulate chain: repetition q, K info bits,
    L accumulators, inner block length N = q*K."""

    q: int
    K: int
    L: int
    N: int = field(init=False)

    def __post_init__(self) -> None:
        if self.q < 1 or self.K < 1 or self.L < 1:
            raise RangeError(f"q, K, L must all be >= 1, got {self.q}, {self.K}, {self.L}")
        object.__setattr__(self, "N", self.q * self.K)

    @property
    def a_max(self) -> int:
        # Termination excludes each accumulator's final output node.
        return self.K + self.L * (self.N - 1)

    @property
    def b_max(self) -> int:
        return self.L * self.N


@dataclass(frozen=True)
class TrappingSetClass:
    """Total erroneous variable nodes (all layers) and unsatisfied checks."""

    a: int
    b: int


@dataclass(frozen=True)
class ConditionalProfile:
    """One way of distributing a class over the layers: w participating
    information bits plus an (a_o_l, b_l) pair per accumulator level."""

    w: int
    levels: Tuple[Tuple[int, int], ...]


@dataclass
class TseResult:
    """Ensemble-average count with an optional per-profile breakdown."""

    value: Value
    breakdown: Optional[List[Tuple[ConditionalProfile, Value]]] = None


def _validate_class(config: EnsembleConfig, cls: TrappingSetClass) -> None:
    if not 0 <= cls.a <= config.a_max:
        raise RangeError(f"a={cls.a} outside [0, {config.a_max}]")
    if not 0 <= cls.b <= config.b_max:
        raise RangeError(f"b={cls.b} outside [0, {config.b_max}]")


def _domain_within(config: EnsembleConfig, mode: str, exact_limit: int) -> _Domain:
    """The value domain of ``mode``, once N is inside that mode's ceiling."""
    dom = _domain(mode)
    _check_n(config.N, exact_limit if dom is _EXACT else LOG_N_MAX, f"{mode}-mode ensemble")
    return dom


# A state key starts (a_i of the next level, accumulated a, accumulated b);
# these functions give the key after a level's move (a_o, b_l).
def _by_class(key: tuple, a_o: int, b_l: int) -> tuple:
    return (a_o, key[1] + a_o, key[2] + b_l)


def _by_path(key: tuple, a_o: int, b_l: int) -> tuple:
    # Keeps w and every move, so no two profiles merge.
    return _by_class(key, a_o, b_l) + key[3:] + ((a_o, b_l),)


def _within(r: range, lo: int, hi: int) -> range:
    """The elements of the ascending range ``r`` that lie in [lo, hi]."""
    start = r.start + max(0, (lo - r.start + r.step - 1) // r.step) * r.step
    return range(start, min(r.stop, hi + 1), r.step)


@functools.lru_cache(maxsize=_ROW_CACHE_SIZE)
def _support_moves(dom: _Domain, N: int) -> Tuple[Callable[..., list], Callable[..., list]]:
    """``span(a_i, a_os, b_max, rest=None)`` and ``pair(a_i, a_o, b)``: the
    moves (a_o, b_l, count) from a_i with a nonzero component count.

    ``span`` takes every b_l <= b_max of each a_o of the ascending range
    ``a_os``, a_o then b_l ascending; ``pair`` takes (a_o, b) alone.  Only
    the support ``_b_range`` is visited, so no zero count is made or looked
    up.  With ``rest`` = (a, b), the a and b a class has left before the
    move, ``span`` keeps only the moves that the last level can close:
    a - a_o < N and b - b_l in ``_b_range(N, a_o, a - a_o)``, where
    ``pair(a_o, a - a_o, b - b_l)`` is not empty.  That test is made on
    the ranges before any count, so a dead-end move makes no count.

    A count is made on first use from the rows of ``acc._class_rows``: each
    a_o's A row and each (a_i, b)'s B * C row is made once and shared, as
    ``acc_iotse_table`` shares them, so every count equals ``acc_iotse`` bit
    for bit.  Counts and rows are kept for every later query at the same
    (value domain, N); like ``acc._factor_rows``, at most
    ``_ROW_CACHE_SIZE`` such pairs stay cached.
    """
    mul, total = dom.mul, dom.total
    a_row, bc_row = _class_rows(dom, N)
    A, BC = _Memo(a_row), _Memo(lambda key: bc_row(*key))

    def count(key: tuple):
        a_i, a_o, b = key
        if a_o == 0:
            return dom.binom(N, a_i)  # b = a_i, the only b of the support
        lo, bc = BC[a_i, b]
        return total(map(mul, A[a_o][lo:], bc))

    counts = _Memo(count)

    def span(a_i: int, a_os: range, b_max: int, rest: Optional[Tuple[int, int]] = None) -> list:
        # b >= a_i - 2 min(a_o, N - a_o) on the support, so no b <= b_max
        # exists for a_o below lo or above N - lo.
        lo = max(0, (a_i - b_max + 1) // 2)
        a_os = _within(a_os, lo, N - lo)
        if rest is not None:
            a_rest, b_rest = rest
            a_os = _within(a_os, a_rest - N + 1, a_rest)
        out = []
        for a_o in a_os:
            bs = _b_range(N, a_i, a_o)
            bs = range(bs.start, min(bs.stop, b_max + 1), 2)
            if rest is not None:
                # b_l has the parity of a_i and the last level's b that of
                # a_o (a_o <= N - 1, so _b_range's precondition holds).
                last = _b_range(N, a_o, a_rest - a_o)
                if not last or (a_i + a_o + b_rest) % 2:
                    continue
                bs = _within(bs, b_rest - last[-1], b_rest - last.start)
            out += [(a_o, b, counts[a_i, a_o, b]) for b in bs]
        return out

    def pair(a_i: int, a_o: int, b: int) -> list:
        # b in _b_range(N, a_i, a_o), tested without making the range: for
        # a_o > 0, a_i + b even and _m_range(N, d, h, min(a_o, N - a_o)) not empty.
        if a_o == 0:
            on = b == a_i
        else:
            h, d = (a_i + b) // 2, abs(a_i - b) // 2
            on = (a_i + b) % 2 == 0 and max(1, d) <= min(a_o, N - a_o, h, N - h)
        return [(a_o, b, counts[a_i, a_o, b])] if on else []

    return span, pair


def _forward(
    config: EnsembleConfig,
    dom: _Domain,
    ws: Iterable[int],
    *half_steps: Tuple[Callable[[int, tuple], Iterable[Tuple[int, int, object]]],
                       Callable[[tuple, int, int], tuple]],
) -> Dict[tuple, object]:
    """One sum-product pass over the levels; returns the final states.

    The pass starts at the states (q*w, w, 0, w) with weight C(K, w), one per
    information weight w in ``ws``.  Each level takes the ``half_steps`` in
    order, each a pair (moves, step): a state takes every move (x, y,
    nonzero weight) of ``moves(level, key)``, and the terms reaching the
    same ``step(key, x, y)`` are summed.  The first half-step of a level
    also multiplies each state by the placement factor of its input count
    key[0], made once per count in a pass.  The class queries take one
    half-step a level, whose moves (a_o, b_l, component count) list the
    support only; a table takes two, in exact integers, through the m of
    the class sum (``_split_level``).  Values stay scaled by N! per level.

    ``moves`` may leave out a move only by a rule on the state it leads to,
    and only if that state would reach no final state: a state is then
    either never made or gets every term it had, in the same order, so the
    final states and their bits are those of the full move set.  The class
    queries leave out the moves the last level cannot close this way.

    Exact terms are added into a running sum per state as they arrive:
    integer addition is exact in any order, so memory stays O(states).  Log
    terms, which only the class queries carry, are collected per state and
    summed by ``log_sum_exp`` after the half-step, which takes the peak
    first; a running log-add would change bits.
    """
    N, mul = config.N, dom.mul
    place = _Memo(lambda a: dom.place(N, a))
    exact = dom is _EXACT
    state = {(config.q * w, w, 0, w): dom.binom(config.K, w) for w in ws}
    for level in range(config.L):
        for i, (moves, step) in enumerate(half_steps):
            nxt: Dict[tuple, object] = {}
            for key, value in state.items():
                if i == 0:
                    value = mul(value, place[key[0]])
                if exact:
                    for x, y, cnt in moves(level, key):
                        k = step(key, x, y)
                        nxt[k] = nxt.get(k, 0) + value * cnt
                else:
                    for x, y, cnt in moves(level, key):
                        nxt.setdefault(step(key, x, y), []).append(mul(value, cnt))
            state = nxt if exact else {key: dom.total(terms) for key, terms in nxt.items()}
    return state


def conditional_tse(
    config: EnsembleConfig, profile: ConditionalProfile, mode: str = "exact"
) -> Value:
    """Ensemble-average count of one conditional profile.

    Infeasible profiles (parity, empty component classes) are a zero value,
    not an error; structurally out-of-range fields raise ``RangeError``.
    """
    dom = _domain(mode)
    N = config.N
    if len(profile.levels) != config.L:
        raise RangeError(
            f"profile has {len(profile.levels)} levels, config has L={config.L}"
        )
    if not 0 <= profile.w <= config.K:
        raise RangeError(f"w={profile.w} outside [0, {config.K}]")
    for a_o, b_l in profile.levels:
        if not 0 <= a_o <= N or not 0 <= b_l <= N:
            raise RangeError(f"level entry ({a_o}, {b_l}) outside [0, {N}]")

    pair = _support_moves(dom, N)[1]

    def moves(level: int, key: tuple):
        return pair(key[0], *profile.levels[level])

    state = _forward(config, dom, [profile.w], (moves, _by_class))
    return dom.finish(dom.total(state.values()), N, config.L)


def ensemble_tse(
    config: EnsembleConfig,
    cls: TrappingSetClass,
    mode: str = "exact",
    breakdown: bool = False,
) -> TseResult:
    """Ensemble-average count of (a, b) trapping sets of the full chain.

    With ``breakdown`` the pass keeps every profile apart and also returns
    them, in lexicographic profile order.
    """
    _validate_class(config, cls)
    dom = _domain_within(config, mode, EXACT_CLASS_N_MAX)
    N, L = config.N, config.L
    span, pair = _support_moves(dom, N)

    def moves(level: int, key: tuple):
        # Stay inside the class; the last level takes the rest of it, and the
        # level before it only the moves that the last can close.
        a_i, a_rem, b_rem = key[0], cls.a - key[1], cls.b - key[2]
        if level == L - 1:
            return pair(a_i, a_rem, b_rem) if a_rem < N else []
        rest = (a_rem, b_rem) if level == L - 2 else None
        return span(a_i, range(min(a_rem, N - 1) + 1), b_rem, rest)

    state = _forward(
        config, dom, range(min(config.K, cls.a) + 1), (moves, _by_path if breakdown else _by_class)
    )
    value = dom.finish(dom.total(state.values()), N, L)
    if not breakdown:
        return TseResult(value=value)
    pairs = [
        (ConditionalProfile(w=key[3], levels=key[4:]), dom.finish(v, N, L))
        for key, v in state.items()
    ]
    return TseResult(value=value, breakdown=pairs)


def _into_m(key: tuple, m: int, b_l: int) -> tuple:
    # (a_i, a, b) -> (m, a, b + b_l): the mid-state of a split level.
    return (m, key[1], key[2] + b_l)


def _out_of_m(key: tuple, a_i: int, a_o: int) -> tuple:
    # (m, a, b) -> (a_i, a + a_o, b), a_i the next level's input count.
    return (a_i, key[1] + a_o, key[2])


def _split_level(N: int, L: int) -> tuple:
    """The two half-steps of a table level, through the m of the class sum.

    A class count is sum_m A[a_o][m] * B[d][m] * C[h][m] (``acc``), and only
    the A factor depends on a_o.  So a state (a_i, a, b) first moves to
    (m, a, b + b_l) with weight B[d][m] * C[h][m], and the mid-state then
    moves to (a_o, a + a_o, b + b_l) with weight A[a_o][m], for
    m <= min(a_o, N - a_o); a_o = 0 rides along as m = 0, with weight
    C(N, a_i), b_l = a_i and A = 1.  The mid-state forgets a_i, so a level
    takes about half the moves, and every term of each class sum is still
    made once, so every integer is unchanged.  At the last level no later
    level reads a_o, so the final states are keyed (0, a, b).
    """
    by_ao, by_d, by_h = _factor_rows(_EXACT.binom, _EXACT.mul, N)
    to_m = []  # (m, b_l, B[d][m] * C[h][m]) by a_i
    for a_i in range(N + 1):
        moves = [(0, a_i, binomial(N, a_i))]
        for b_l in range(a_i % 2, N + 1, 2):
            h, d = (a_i + b_l) // 2, (a_i - b_l) // 2
            moves += [(m, b_l, by_d[d][m] * by_h[h][m]) for m in _m_range(N, d, h, N)]
        to_m.append(moves)
    # (next a_i = a_o, a_o, A[a_o][m]) by m; a_o = N never occurs (termination).
    from_m = [[(0, 0, 1)]] + [
        [(a_o, a_o, by_ao[a_o][m]) for a_o in range(m, N - m + 1)] for m in range(1, N // 2 + 1)
    ]
    last = [[(0, a_o, cnt) for _, a_o, cnt in moves] for moves in from_m]
    return (
        (lambda level, key: to_m[key[0]], _into_m),
        (lambda level, key: (last if level == L - 1 else from_m)[key[0]], _out_of_m),
    )


def ensemble_table(
    config: EnsembleConfig, mode: str = "exact"
) -> Dict[Tuple[int, int], Value]:
    """All nonzero ensemble-average class counts, keyed by (a, b).

    Exact-mode results equal the per-class profile sums as rationals.  The
    pass is exact in both modes: a log-mode entry is
    ``math.log(f.numerator) - math.log(f.denominator)`` of the exact entry f.
    """
    exact = _domain(mode) is _EXACT
    _check_n(config.N, EXACT_TABLE_N_MAX, f"{mode}-mode ensemble")
    N, L = config.N, config.L
    # The last level keys one final state (0, a, b) per class.
    state = _forward(config, _EXACT, range(config.K + 1), *_split_level(N, L))
    table = {key[1:]: _EXACT.finish(v, N, L) for key, v in sorted(state.items())}
    if exact:
        return table
    return {k: math.log(f.numerator) - math.log(f.denominator) for k, f in table.items()}


def ensemble_iowe(config: EnsembleConfig, d: int, mode: str = "exact") -> Value:
    """Ensemble-average number of weight-d final codewords.

    This is the all-satisfied (b_l = 0 everywhere) chain with the last
    level's output weight pinned to d, intermediate weights free.
    """
    if not 0 <= d <= config.N:
        raise RangeError(f"d={d} outside [0, {config.N}]")
    dom = _domain_within(config, mode, EXACT_CLASS_N_MAX)
    N, last = config.N, config.L - 1
    span, pair = _support_moves(dom, N)
    # The last level's pair(a_o, d, 0) is not empty for a_o = 0 at d = 0, and
    # for even 2 <= a_o <= 2 min(d, N - d) at 0 < d; a_o < N at every level.
    # The level before it takes only those a_o.
    closing = range(1) if d == 0 else range(2, min(2 * d, 2 * (N - d), N - 1) + 1, 2)

    def moves(level: int, key: tuple):
        if level == last:
            return pair(key[0], d, 0)
        return span(key[0], closing if level == last - 1 else range(N), 0)

    # States merge by input count alone: the class (a, b) is not asked for.
    state = _forward(config, dom, range(config.K + 1), (moves, lambda k, a_o, b_l: (a_o, 0, 0)))
    return dom.finish(dom.total(state.values()), N, config.L)
