"""Closed-form trapping-set enumerator of the terminated rate-1 accumulator.

The accumulator is the memory-1 recursive encoder x_k = x_{k-1} + v_k over
GF(2), terminated to the zero state after N sections.  A trapping-set class
is a triple (a_i, a_o, b): the number of input variable nodes in the set, the
number of output variable nodes in the set, and the number of unsatisfied
checks.  Termination excludes the final output node from every set and forces
a_i + b to be even.

Counts decompose over paths of an extended trellis whose 8 edges carry labels
s_i/c/s_o with c = s_i XOR x_{k-1} XOR x_k.  Paths split into m detours that
leave and re-merge with the zero state (type-2 error events, the only source
of output weight) and n one-section self-loops 1/1/0 at the zero state
(type-1 error events).  For fixed (m, n) the number of paths is a product of
five binomial coefficients; ``decompositions`` lists these (m, n) terms.
With h = (a_i + b)/2, Vandermonde's identity
sum_n C(N-a_o-m, n) C(a_o-m, h-m-n) = C(N-2m, h-m) sums out n, so a class
count is the single sum over m

    sum_m C(N-a_o, m) C(a_o-1, m-1) C(2m, (a_i-b)/2 + m) C(N-2m, h-m),

evaluated in one value domain: exact integers, or natural logs of counts.

Each factor depends on m and on one other quantity only: with
d = (a_i - b)/2,

    A[a_o][m] = C(N-a_o, m) C(a_o-1, m-1),  B[d][m] = C(2m, d+m),
    C[h][m] = C(N-2m, h-m),

so the sum over m factors (the generalized distributive law) into rows that
all classes of block length N share.  ``_factor_rows`` keeps these rows per
(value domain, N) and makes each entry on first use with the domain's own
``binom`` and ``mul``.  A class count is then one product-sum over the
m-range of three rows, A * (B * C) term by term: the grouping of the four
binomials above, so exact counts and log values are unchanged.  A single
class at a large N still makes no more entries than it has terms.  A full
table, in either domain, makes the product row B[d] * C[h] of each (a_i, b)
once and shares it across every a_o: the same terms in the same order as
the single-class sum, so its entries equal ``acc_iotse`` bit for bit.  The
class queries of ``ensemble`` make their counts from the same rows
(``_class_rows``).  At most
``_ROW_CACHE_SIZE`` (domain, N) pairs are kept, the least recently used
leaving first.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from .combinatorics import (
    NEG_INF,
    BigCount,
    LogValue,
    binomial,
    log_binomial,
    log_sum_exp,
)

__all__ = [
    "RangeError",
    "ResourceLimitError",
    "AccTriple",
    "PathDecomposition",
    "TrellisEdge",
    "EXTENDED_TRELLIS_EDGES",
    "IotseTable",
    "acc_iotse",
    "acc_iowe",
    "acc_iotse_table",
    "decompositions",
    "EXACT_TABLE_N_MAX",
]

# Full-table construction is O(N^4) terms in either value domain; cap it at
# desk scale.  The name predates the log domain, which shares the ceiling.
# ``ensemble.EXACT_TABLE_N_MAX`` is a different ceiling, on ensemble tables.
EXACT_TABLE_N_MAX = 512

# Factor rows of this many (value domain, N) pairs stay cached.
_ROW_CACHE_SIZE = 8


class RangeError(ValueError):
    """A count or index lies outside its structural range, a block length below 1 too."""


class ResourceLimitError(RuntimeError):
    """The request exceeds a configured size ceiling, such as a block length
    past the ceiling of the work it drives."""


def _check_n(N: int, cap: Optional[int] = None, what: str = "") -> None:
    """The size rule of every block length in the package.

    Below 1 is a ``RangeError``; past ``cap``, the ceiling of ``what``, a
    ``ResourceLimitError``.
    """
    if N < 1:
        raise RangeError(f"block length must be >= 1, got {N}")
    if cap is not None and N > cap:
        raise ResourceLimitError(f"{what} capped at N={cap}, got {N}")


@dataclass(frozen=True)
class _Domain:
    """The arithmetic that counts are evaluated in.

    ``zero``, ``binom``, ``mul`` and ``total`` (a sum over an iterable) act
    on exact integers or on their natural logs.  ``place(N, a)`` is the
    inverse of the C(N, a) placements of a uniform interleaver, carried as
    the integer a!(N-a)! = N!/C(N, a) in the exact domain; ``finish(x, N, L)``
    removes that N! per level from a value after L placements.
    """

    zero: Union[BigCount, LogValue]
    binom: Callable
    mul: Callable
    total: Callable
    place: Callable
    finish: Callable


_EXACT = _Domain(
    zero=0,
    binom=binomial,
    mul=operator.mul,
    total=sum,
    place=lambda N, a: math.factorial(a) * math.factorial(N - a),
    finish=lambda x, N, L: Fraction(x, math.factorial(N) ** L),
)
_LOG = _Domain(
    zero=NEG_INF,
    binom=log_binomial,
    mul=operator.add,
    total=log_sum_exp,
    place=lambda N, a: -log_binomial(N, a),
    finish=lambda x, N, L: x,
)


def _domain(mode: str) -> _Domain:
    if mode == "exact":
        return _EXACT
    if mode == "log":
        return _LOG
    raise ValueError(f"mode must be 'exact' or 'log', got {mode!r}")


@dataclass(frozen=True)
class AccTriple:
    """One trapping-set class of a length-N terminated accumulator."""

    N: int
    a_i: int
    a_o: int
    b: int

    def __post_init__(self) -> None:
        N = self.N
        if 1 <= N and 0 <= self.a_i <= N and 0 <= self.a_o <= N and 0 <= self.b <= N:
            return  # the common case, in one chained comparison
        _check_n(N)
        for name in ("a_i", "a_o", "b"):
            v = getattr(self, name)
            if not 0 <= v <= self.N:
                raise RangeError(f"{name}={v} outside [0, {self.N}]")


@dataclass(frozen=True)
class PathDecomposition:
    """Error-event signature of one (m, n) term of a class count.

    m counts type-2 events, n type-1 events, w_t the input weight on the
    0->1 and 1->0 transitions, and w_11 the input weight on the 1->1
    transitions.
    """

    m: int
    n: int
    w_t: int
    w_11: int


@dataclass(frozen=True)
class TrellisEdge:
    """One edge of the extended trellis section, labelled s_i/c/s_o."""

    from_state: int
    s_i: int
    c: int
    s_o: int
    to_state: int


def _build_edges() -> Tuple[TrellisEdge, ...]:
    edges = []
    for from_state in (0, 1):
        for s_i in (0, 1):
            for s_o in (0, 1):
                c = s_i ^ from_state ^ s_o
                edges.append(TrellisEdge(from_state, s_i, c, s_o, s_o))
    return tuple(edges)


#: All 8 extended-trellis edges; c = 0 edges form the standard trellis.
EXTENDED_TRELLIS_EDGES: Tuple[TrellisEdge, ...] = _build_edges()


@dataclass
class IotseTable:
    """All nonzero trapping-set class counts of one block length.

    ``entries`` maps (a_i, a_o, b) to the count (exact int) or to its natural
    log (float) depending on ``mode``.  Absent keys mean count zero.  Treat
    instances as immutable once built.
    """

    N: int
    mode: str
    entries: Dict[Tuple[int, int, int], Union[BigCount, LogValue]]

    def get(self, a_i: int, a_o: int, b: int) -> Union[BigCount, LogValue]:
        return self.entries.get((a_i, a_o, b), _domain(self.mode).zero)


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)`` and keeps it."""

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _rows(entry: Callable[[int, int], object]) -> _Memo:
    """The rows ``rows[key][m] = entry(key, m)``, each entry made on first use."""
    return _Memo(lambda key: _Memo(lambda m: entry(key, m)))


@functools.lru_cache(maxsize=_ROW_CACHE_SIZE)
def _factor_rows(binom: Callable, mul: Callable, N: int) -> Tuple[_Memo, _Memo, _Memo]:
    """Rows A (by a_o), B (by signed d) and C (by h) of block length N."""
    return (
        _rows(lambda a_o, m: mul(binom(N - a_o, m), binom(a_o - 1, m - 1))),
        _rows(lambda d, m: binom(2 * m, d + m)),
        _rows(lambda h, m: binom(N - 2 * m, h - m)),
    )


def _m_range(N: int, d: int, h: int, cap: int) -> range:
    """The m with every binomial of a class term nonzero; cap = min(a_o, N - a_o)."""
    return range(max(1, abs(d)), min(cap, h, N - h) + 1)


def _b_range(N: int, a_i: int, a_o: int) -> range:
    """The b with a nonzero count of class (a_i, a_o, b), in steps of 2.

    For 0 < a_o < N this is where ``_m_range`` is not empty: a_i + b even,
    |a_i - b| <= 2 min(a_o, N - a_o) and 2 <= a_i + b <= 2N - 2.
    """
    if a_o == 0:
        return range(a_i, a_i + 1)
    cap = min(a_o, N - a_o)
    if cap == 0:
        return range(0)
    return range(max(a_i - 2 * cap, 2 - a_i, a_i % 2),
                 min(a_i + 2 * cap, 2 * N - 2 - a_i, N) + 1, 2)


def _count(dom: _Domain, N: int, a_i: int, a_o: int, b: int):
    """Count of class (a_i, a_o, b) in ``dom``: the single sum over m."""
    if (a_i + b) % 2:
        return dom.zero
    if a_o == 0:
        # Pure type-1-event paths: each of the a_i set positions is one
        # 1/1/0 self-loop contributing one unsatisfied check.
        return dom.binom(N, a_i) if a_i == b else dom.zero
    h, d = (a_i + b) // 2, (a_i - b) // 2
    ms = _m_range(N, d, h, min(a_o, N - a_o))
    by_ao, by_d, by_h = _factor_rows(dom.binom, dom.mul, N)
    return dom.total(map(
        dom.mul,
        map(by_ao[a_o].__getitem__, ms),
        map(dom.mul, map(by_d[d].__getitem__, ms), map(by_h[h].__getitem__, ms)),
    ))


def acc_iotse(triple: AccTriple, mode: str = "exact") -> Union[BigCount, LogValue]:
    """Count of (a_i, a_o, b) trapping sets of the terminated accumulator.

    Returns an exact integer in ``exact`` mode, or the natural log of the
    count (NEG_INF for zero) in ``log`` mode.
    """
    return _count(_domain(mode), triple.N, triple.a_i, triple.a_o, triple.b)


def acc_iowe(N: int, w: int, d: int) -> BigCount:
    """Input-output weight enumerator of the terminated accumulator.

    Counts weight-d codewords produced by weight-w inputs; equals the b = 0
    slice of the trapping-set enumerator.  Odd input weight cannot terminate
    and counts zero.
    """
    _check_n(N)
    if not 0 <= w <= N or not 0 <= d <= N:
        raise RangeError(f"(w={w}, d={d}) outside [0, {N}]")
    if w == 0:
        return 1 if d == 0 else 0
    if w % 2:
        return 0
    return binomial(N - d, w // 2) * binomial(d - 1, w // 2 - 1)


def _class_rows(dom: _Domain, N: int) -> Tuple[Callable[[int], list], Callable[[int, int], tuple]]:
    """``a_row(a_o)`` and ``bc_row(a_i, b)``: the rows a class count of block length N sums.

    ``a_row(a_o)[m]`` is A[a_o][m] for m <= min(a_o, N - a_o).  ``bc_row(a_i, b)``
    is (lo, bc) with bc[m - lo] = B[d][m] * C[h][m] for every m with B and C
    nonzero, lo = max(1, |d|).  Only B * C depends on (a_i, b), so callers
    make it once and share it across every a_o.  For 0 < a_o < N and
    lo <= min(a_o, N - a_o), the count of (a_i, a_o, b) is then

        dom.total(map(dom.mul, a_row(a_o)[lo:], bc)),

    the terms of ``_count`` in its order and grouping A * (B * C), so the
    value is ``acc_iotse``'s bit for bit (map stops at the shorter row).
    """
    mul = dom.mul
    by_ao, by_d, by_h = _factor_rows(dom.binom, mul, N)

    def a_row(a_o: int) -> list:
        return list(map(by_ao[a_o].__getitem__, range(min(a_o, N - a_o) + 1)))

    def bc_row(a_i: int, b: int) -> tuple:
        h, d = (a_i + b) // 2, (a_i - b) // 2
        ms = _m_range(N, d, h, N)
        return ms.start, list(map(mul, map(by_d[d].__getitem__, ms), map(by_h[h].__getitem__, ms)))

    return a_row, bc_row


def acc_iotse_table(N: int, mode: str = "exact") -> IotseTable:
    """Tabulate every nonzero class count of block length N."""
    dom = _domain(mode)
    _check_n(N, EXACT_TABLE_N_MAX, f"{mode} table")
    mul, total = dom.mul, dom.total
    a_row, bc_row = _class_rows(dom, N)
    A = [a_row(a_o) for a_o in range(N)]  # a_o = N never occurs (termination)
    entries: Dict[Tuple[int, int, int], Union[BigCount, LogValue]] = {}
    for a_i in range(N + 1):
        entries[(a_i, 0, a_i)] = dom.binom(N, a_i)  # a_o = 0: see _count
        rows = []  # (b, lo, bc) of every b with a_i + b even and a nonempty B * C row
        for b in range(a_i % 2, N + 1, 2):
            lo, bc = bc_row(a_i, b)
            if bc:
                rows.append((b, lo, bc))
        for a_o in range(1, N):
            A_row, cap = A[a_o], min(a_o, N - a_o)
            for b, lo, bc in rows:
                if lo <= cap:  # map stops at the shorter row: m <= min(cap, h, N - h)
                    entries[(a_i, a_o, b)] = total(map(mul, A_row[lo:], bc))
    return IotseTable(N=N, mode=mode, entries=entries)


def decompositions(triple: AccTriple) -> List[Tuple[PathDecomposition, BigCount]]:
    """Break a class count into its per-(m, n) error-event terms.

    The returned terms are positive and sum to ``acc_iotse(triple)``.
    """
    N, a_i, a_o, b = triple.N, triple.a_i, triple.a_o, triple.b
    if (a_i + b) % 2:
        return []
    if a_o == 0:
        if a_i != b:
            return []
        return [(PathDecomposition(m=0, n=a_i, w_t=0, w_11=0), binomial(N, a_i))]
    half_sum = (a_i + b) // 2
    out = []
    for m in _m_range(N, (a_i - b) // 2, half_sum, min(a_o, N - a_o)):
        w_t = (a_i - b) // 2 + m
        for n in range(max(0, half_sum - a_o), min(N - a_o - m, half_sum - m) + 1):
            w_11 = half_sum - n - m
            count = (
                binomial(N - a_o, m)
                * binomial(a_o - 1, m - 1)
                * binomial(a_o - m, w_11)
                * binomial(N - a_o - m, n)
                * binomial(2 * m, w_t)
            )
            if count:
                out.append((PathDecomposition(m=m, n=n, w_t=w_t, w_11=w_11), count))
    return out
