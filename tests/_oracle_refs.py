"""Literal reference forms of the three brute-force oracles.

``rma_tse.oracles`` runs each oracle as an array pass.  These are the plain
forms they replaced: a dict walk over every (state, a_i, a_o, b) of the
extended trellis, one full input x output matrix per exhaustive tally, and a
per-mask loop over every membership assignment of every interleaver tuple.
The tests hold the array passes equal to them, key for key and value for
value (Python ``int`` counts).

``factor_graph_masks`` is the check-mask loop ``build_factor_graph`` had
before its one node rule: a code node's universe bit, or None for the
terminated final node, tested at each of a check's three neighbours.

``box_*`` are the ensemble queries with their full move sets: every
(a_o, b_l) of the class box is counted and the zero counts are dropped.
``rma_tse.ensemble`` visits only the support of the component count; the
tests hold it to these bit for bit.  ``table_by_rows`` is the ensemble table
with one move per whole class count, which the split exact levels must equal
and the exact pass's log tables must be near.
``support_span`` and ``support_pair`` are the support moves as a loop over
every a_o with one ``_b_range`` and one ``_count`` per class, which the
shared-row counts and the hoisted a_o bound must equal.
Nothing here is imported by the package.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from rma_tse.acc import _b_range, _count, _domain, acc_iotse_table
from rma_tse.ensemble import ConditionalProfile, _by_class, _by_path, _forward


def trellis_dp_entries(n_max):
    """Class counts of every length 1..n_max by walking every extended-trellis path."""
    states, tables = {(0, 0, 0, 0): 1}, {}
    for k in range(1, n_max + 1):
        nxt = {}
        for (s, a_i, a_o, b), cnt in states.items():
            for s_i in (0, 1):
                for s_o in (0, 1):
                    c = s_i ^ s ^ s_o
                    key = (s_o, a_i + s_i, a_o + s_o, b + c)
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
        tables[k] = {(a_i, a_o, b): cnt for (s, a_i, a_o, b), cnt in states.items() if s == 0}
    return tables


def exhaustive_entries(n):
    """Class counts of length n from one full input x output tally."""
    pc = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.int64)
    inputs = np.arange(1 << n, dtype=np.int64)
    outputs = np.arange(1 << max(n - 1, 0), dtype=np.int64)
    checks = inputs[:, None] ^ (outputs << 1)[None, :] ^ outputs[None, :]
    dim_b, dim_o = n + 1, n
    idx = (pc[inputs][:, None] * dim_o + pc[outputs][None, :]) * dim_b + pc[checks]
    counts = np.bincount(idx.ravel(), minlength=(n + 1) * dim_o * dim_b)
    entries = {}
    for flat, cnt in enumerate(counts):
        if cnt:
            a_i, rest = divmod(flat, dim_o * dim_b)
            a_o, b = divmod(rest, dim_b)
            entries[(a_i, a_o, b)] = int(cnt)
    return entries


def _code_node_bit(config, level, pos):
    """Universe bit of x^level_{pos+1} (0-based pos), None for the final node."""
    if pos == config.N - 1:
        return None
    return config.K + (level - 1) * (config.N - 1) + pos


def factor_graph_masks(config, perms):
    """The bitmask of each check's universe neighbours, check (1, 1) first."""
    N, q, L = config.N, config.q, config.L
    masks = []
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
    return tuple(masks)


def graph_average(config):
    """Exact (a, b) average over every interleaver tuple, one mask at a time."""
    universe = config.K + config.L * (config.N - 1)
    n_tuples = math.factorial(config.N) ** config.L
    tally = {}
    for perms in itertools.product(itertools.permutations(range(config.N)), repeat=config.L):
        cms = factor_graph_masks(config, perms)
        for mask in range(1 << universe):
            key = (mask.bit_count(), sum((mask & cm).bit_count() & 1 for cm in cms))
            tally[key] = tally.get(key, 0) + 1
    return {k: Fraction(v, n_tuples) for k, v in sorted(tally.items())}


def support_span(dom, N, a_i, a_os, b_max):
    """``span``'s moves: every b_l <= b_max of each a_o of ``a_os``, a_o then b_l ascending."""
    out = []
    for a_o in a_os:
        bs = _b_range(N, a_i, a_o)
        bs = range(bs.start, min(bs.stop, b_max + 1), 2)
        out += [(a_o, b, _count(dom, N, a_i, a_o, b)) for b in bs]
    return out


def support_pair(dom, N, a_i, a_o, b):
    """``pair``'s move: (a_o, b) alone, if it is on the support."""
    return [(a_o, b, _count(dom, N, a_i, a_o, b))] if b in _b_range(N, a_i, a_o) else []


def _box_moves(dom, N, moves):
    """``moves(level, key)`` lists (a_o, b_l) pairs; keep those with a nonzero count."""
    def nonzero(level, key):
        return [(a_o, b_l, c) for a_o, b_l in moves(level, key)
                if (c := _count(dom, N, key[0], a_o, b_l)) != dom.zero]
    return nonzero


def box_tse(config, cls, mode, breakdown=False):
    """``ensemble_tse(...).value`` and its breakdown (None without ``breakdown``)."""
    dom, N, L = _domain(mode), config.N, config.L

    def moves(level, key):
        a_i, a_rem, b_rem = key[0], cls.a - key[1], cls.b - key[2]
        if level == L - 1:
            return [(a_rem, b_rem)] if a_rem <= N - 1 and b_rem <= N else []
        return [(a_o, b_l) for a_o in range(min(a_rem, N - 1) + 1)
                for b_l in range(a_i % 2, min(b_rem, N) + 1, 2)]

    state = _forward(config, dom, range(min(config.K, cls.a) + 1),
                     (_box_moves(dom, N, moves), _by_path if breakdown else _by_class))
    value = dom.finish(dom.total(state.values()), N, L)
    if not breakdown:
        return value, None
    return value, [(ConditionalProfile(w=key[3], levels=key[4:]), dom.finish(v, N, L))
                   for key, v in state.items()]


def box_conditional(config, profile, mode):
    """``conditional_tse``: the profile's own pair at each level."""
    dom = _domain(mode)
    state = _forward(config, dom, [profile.w],
                     (_box_moves(dom, config.N, lambda level, key: [profile.levels[level]]),
                      _by_class))
    return dom.finish(dom.total(state.values()), config.N, config.L)


def box_iowe(config, d, mode):
    """``ensemble_iowe``: every (a_o, 0) at the free levels, (d, 0) at the last."""
    dom, N = _domain(mode), config.N

    def moves(level, key):
        return [(d, 0)] if level == config.L - 1 else [(a_o, 0) for a_o in range(N)]

    state = _forward(config, dom, range(config.K + 1),
                     (_box_moves(dom, N, moves), lambda k, a_o, b_l: (a_o, 0, 0)))
    return dom.finish(dom.total(state.values()), N, config.L)


def table_by_rows(config, mode):
    """``ensemble_table`` as one pass over whole class counts per level.

    Each state (a_i, a, b) takes every nonzero class (a_i, a_o, b_l) of
    ``acc_iotse_table`` in a single move, as the table was built before its
    levels were split at m; log tables were built this way in log counts.
    """
    dom, N = _domain(mode), config.N
    rows = {}
    for (a_i, a_o, b_l), cnt in acc_iotse_table(N, mode).entries.items():
        rows.setdefault(a_i, []).append((a_o, b_l, cnt))
    by_class = {}
    state = _forward(config, dom, range(config.K + 1),
                     (lambda level, key: rows.get(key[0], ()), _by_class))
    for key, value in state.items():
        by_class.setdefault(key[1:3], []).append(value)
    return {k: dom.finish(dom.total(v), N, config.L) for k, v in sorted(by_class.items())}
