import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rma_tse.acc
from rma_tse.acc import (
    EXTENDED_TRELLIS_EDGES,
    AccTriple,
    RangeError,
    ResourceLimitError,
    acc_iotse,
    acc_iotse_table,
    acc_iowe,
    decompositions,
)
from rma_tse.combinatorics import NEG_INF, binomial, log_binomial, log_sum_exp
from rma_tse.oracles import exhaustive_acc, trellis_dp


class TestAccTriple:
    def test_range_validation(self):
        with pytest.raises(RangeError):
            AccTriple(3, 4, 0, 0)
        with pytest.raises(RangeError):
            AccTriple(3, 0, -1, 0)
        with pytest.raises(RangeError):
            AccTriple(0, 0, 0, 0)

    @pytest.mark.parametrize("args, message", [
        ((3, 4, 0, 0), "a_i=4 outside [0, 3]"),
        ((3, 0, -1, 0), "a_o=-1 outside [0, 3]"),
        ((3, 0, 0, 5), "b=5 outside [0, 3]"),
        ((3, 4, 9, 0), "a_i=4 outside [0, 3]"),  # the first bad field is named
        ((0, 0, 0, 0), "block length must be >= 1, got 0"),
        ((0, 5, 0, 0), "block length must be >= 1, got 0"),
    ])
    def test_messages(self, args, message):
        with pytest.raises(RangeError) as info:
            AccTriple(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("args", [(1, 0, 0, 0), (3, 3, 3, 3), (5, 0, 5, 2)])
    def test_bounds_inclusive(self, args):
        assert dataclasses.astuple(AccTriple(*args)) == args


class TestTrellisEdges:
    def test_eight_edges_with_parity_labels(self):
        assert len(EXTENDED_TRELLIS_EDGES) == 8
        satisfied = [e for e in EXTENDED_TRELLIS_EDGES if e.c == 0]
        assert len(satisfied) == 4
        for e in EXTENDED_TRELLIS_EDGES:
            assert e.to_state == e.s_o
            assert e.c == e.s_i ^ e.from_state ^ e.s_o


class TestAccIotse:
    def test_empty_set(self):
        for n in (1, 4, 9):
            assert acc_iotse(AccTriple(n, 0, 0, 0)) == 1

    def test_single_type1_event(self):
        assert acc_iotse(AccTriple(5, 1, 0, 1)) == 5

    def test_hand_checked_pairs(self):
        # inputs (1,1,0) and (0,1,1) are the only weight-2 inputs with
        # output weight 1 at N=3
        assert acc_iotse(AccTriple(3, 2, 1, 0)) == 2
        assert acc_iotse(AccTriple(2, 1, 1, 1)) == 2

    def test_parity_zero(self):
        assert acc_iotse(AccTriple(6, 1, 2, 2)) == 0
        assert acc_iotse(AccTriple(6, 2, 3, 1)) == 0

    @given(st.integers(1, 20), st.data())
    @settings(max_examples=100)
    def test_odd_parity_always_zero(self, n, data):
        a_i = data.draw(st.integers(0, n))
        a_o = data.draw(st.integers(0, n))
        b = data.draw(st.integers(0, n))
        if (a_i + b) % 2 == 1:
            assert acc_iotse(AccTriple(n, a_i, a_o, b)) == 0

    def test_log_mode_matches_exact(self):
        for n in (3, 8, 16):
            exact = acc_iotse_table(n, "exact").entries
            for key, value in exact.items():
                lv = acc_iotse(AccTriple(n, *key), "log")
                assert abs(math.exp(lv - math.log(value)) - 1.0) <= 1e-10

    def test_log_mode_zero_is_neg_inf(self):
        assert acc_iotse(AccTriple(6, 1, 2, 2), "log") == NEG_INF

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            acc_iotse(AccTriple(3, 0, 0, 0), "approximate")


@st.composite
def classes(draw):
    n = draw(st.integers(1, 200))
    return n, draw(st.integers(0, n)), draw(st.integers(0, n)), draw(st.integers(0, n))


class TestCountKernel:
    """The factor-row kernel against the single sum over m, written out."""

    @given(classes())
    @settings(max_examples=400, deadline=None, derandomize=True)
    @example((9, 1, 4, 5))  # a_i < b: negative d
    @example((9, 3, 0, 3))  # a_o = 0: pure type-1 events
    @example((200, 0, 100, 200))  # the most negative d at the largest N
    def test_matches_written_out_sum(self, cls):
        n, a_i, a_o, b = cls
        triple = AccTriple(n, a_i, a_o, b)
        exact, log = acc_iotse(triple), acc_iotse(triple, "log")
        if (a_i + b) % 2:
            assert exact == 0 and log == NEG_INF
            return
        if a_o == 0:
            assert exact == (math.comb(n, a_i) if a_i == b else 0)
            assert log == (log_binomial(n, a_i) if a_i == b else NEG_INF)
            return
        h, d = (a_i + b) // 2, (a_i - b) // 2
        ms = range(max(1, abs(d)), min(a_o, n - a_o, h, n - h) + 1)
        assert exact == sum(
            math.comb(n - a_o, m) * math.comb(a_o - 1, m - 1)
            * math.comb(2 * m, d + m) * math.comb(n - 2 * m, h - m)
            for m in ms
        )
        # The kernel's grouping (b1 + b2) + (b3 + b4) and term order: bit-identical.
        assert log == log_sum_exp(
            (log_binomial(n - a_o, m) + log_binomial(a_o - 1, m - 1))
            + (log_binomial(2 * m, d + m) + log_binomial(n - 2 * m, h - m))
            for m in ms
        )

    def test_row_cache_is_bounded(self):
        for n in range(1, 3 * rma_tse.acc._ROW_CACHE_SIZE):
            for mode in ("exact", "log"):
                acc_iotse_table(n, mode)
        info = rma_tse.acc._factor_rows.cache_info()
        assert 0 < info.currsize <= info.maxsize == rma_tse.acc._ROW_CACHE_SIZE

    @pytest.mark.parametrize("triple, terms", [
        # m runs over max(1, |d|) = 200 .. min(a_o, N - a_o, h, N - h) = 600.
        (AccTriple(4000, 1200, 600, 800), 401),
        # |d| = 1000 > min(a_o, N - a_o) = 300: an empty m-range.
        (AccTriple(20000, 6000, 300, 4000), 0),
    ])
    @pytest.mark.parametrize("mode", ["exact", "log"])
    def test_single_class_makes_only_its_terms(self, mode, triple, terms):
        # A single class at a large N fills each factor row (A, B, C) at no
        # more m than its own sum has terms, never whole rows.
        dom = rma_tse.acc._domain(mode)

        def entries():
            rows = rma_tse.acc._factor_rows(dom.binom, dom.mul, triple.N)
            return [sum(map(len, by_key.values())) for by_key in rows]

        before = entries()
        acc_iotse(triple, mode)
        assert all(y - x <= terms for x, y in zip(before, entries()))


    @pytest.mark.parametrize("triple", [
        AccTriple(20000, 6000, 300, 4000),  # |d| = 1000 > min(a_o, N - a_o) = 300
        AccTriple(64, 40, 10, 0),  # an iowe_b0_reduction class: w = 40 > 2 min(d, N - d)
        AccTriple(10, 10, 5, 10),  # h = N: C(N - 2m, h - m) = 0 for every m >= 1
    ])
    @pytest.mark.parametrize("mode", ["exact", "log"])
    def test_empty_m_range_looks_up_no_rows(self, monkeypatch, mode, triple):
        # The empty sum is the domain's zero, returned before any factor row.
        def refuse(*args):
            raise AssertionError("looked up factor rows for an empty sum")

        monkeypatch.setattr(rma_tse.acc, "_factor_rows", refuse)
        assert acc_iotse(triple, mode) == rma_tse.acc._domain(mode).zero


class TestSupport:
    """``_b_range`` is exactly where a class count is nonzero."""

    @pytest.mark.parametrize("mode", ["exact", "log"])
    def test_equals_nonzero_counts(self, mode):
        dom = rma_tse.acc._domain(mode)
        for n in range(1, 31):
            for a_i in range(n + 1):
                for a_o in range(n + 1):
                    support = rma_tse.acc._b_range(n, a_i, a_o)
                    for b in range(n + 1):
                        nonzero = rma_tse.acc._count(dom, n, a_i, a_o, b) != dom.zero
                        assert (b in support) == nonzero, (n, a_i, a_o, b)

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 12])
    def test_range_is_the_nonzero_b_for_a_i_within_n(self, N):
        # _b_range's precondition is a_i <= N; b runs past N, where every count is zero.
        dom = rma_tse.acc._EXACT
        for a_i in range(N + 1):
            for a_o in range(N + 1):
                nonzero = [b for b in range(2 * N + 2) if rma_tse.acc._count(dom, N, a_i, a_o, b)]
                assert list(rma_tse.acc._b_range(N, a_i, a_o)) == nonzero, (N, a_i, a_o)


class TestAccIowe:
    def test_values(self):
        assert acc_iowe(3, 2, 1) == 2
        assert acc_iowe(8, 3, 4) == 0
        assert acc_iowe(4, 0, 0) == 1

    def test_range_errors(self):
        with pytest.raises(RangeError):
            acc_iowe(4, 5, 0)
        with pytest.raises(RangeError):
            acc_iowe(4, 0, -1)

    @pytest.mark.parametrize("args, message", [
        ((0, 0, 0), "block length must be >= 1, got 0"),
        ((4, 5, 0), "(w=5, d=0) outside [0, 4]"),
    ])
    def test_messages(self, args, message):
        with pytest.raises(RangeError) as info:
            acc_iowe(*args)
        assert str(info.value) == message

    def test_matches_b0_slice(self):
        for n in range(1, 25):
            for w in range(n + 1):
                for d in range(n + 1):
                    assert acc_iowe(n, w, d) == acc_iotse(AccTriple(n, w, d, 0))


class TestAccIotseTable:
    def test_n1(self):
        assert acc_iotse_table(1).entries == {(0, 0, 0): 1, (1, 0, 1): 1}

    def test_row_sums_n2(self):
        table = acc_iotse_table(2)
        sums = {}
        for (a_i, a_o, b), cnt in table.entries.items():
            sums[(a_i, a_o)] = sums.get((a_i, a_o), 0) + cnt
        for a_i in range(3):
            for a_o in range(2):
                assert sums.get((a_i, a_o), 0) == binomial(2, a_i) * binomial(1, a_o)

    def test_matches_oracles_small(self):
        for n in range(1, 11):
            table = acc_iotse_table(n)
            assert table.entries == trellis_dp(n).entries
            if n <= 9:
                assert table.entries == exhaustive_acc(n).entries

    def test_entries_all_positive_and_valid(self):
        table = acc_iotse_table(9)
        for (a_i, a_o, b), cnt in table.entries.items():
            assert cnt > 0
            assert 0 <= a_i <= 9 and 0 <= b <= 9
            assert a_o <= 8  # final output node excluded by termination
            assert (a_i + b) % 2 == 0

    @pytest.mark.parametrize("mode, n", [
        *[("exact", n) for n in range(1, 21)],
        *[("log", n) for n in range(1, 21)],
        ("log", 40),
    ])
    def test_table_loop_equals_class_counts(self, mode, n):
        # The shared-row table loop and the single-class sum add the same
        # terms in the same order: equal integers and bit-identical logs.
        entries = acc_iotse_table(n, mode).entries
        keys = list(entries)
        assert keys == sorted(keys)
        for key, value in entries.items():
            assert repr(value) == repr(acc_iotse(AccTriple(n, *key), mode))
        zero = 0 if mode == "exact" else NEG_INF
        for a_i in range(n + 1):
            for a_o in range(n + 1):
                for b in range(a_i % 2, n + 1, 2):
                    if (a_i, a_o, b) not in entries:
                        assert acc_iotse(AccTriple(n, a_i, a_o, b), mode) == zero

    def test_exact_ceiling(self):
        with pytest.raises(ResourceLimitError) as info:
            acc_iotse_table(513)
        assert str(info.value) == "exact table capped at N=512, got 513"

    def test_log_ceiling_before_any_count(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("counted a class past the ceiling")

        monkeypatch.setattr(rma_tse.acc, "_count", unreachable)
        monkeypatch.setattr(rma_tse.acc, "_factor_rows", unreachable)
        with pytest.raises(ResourceLimitError, match="log table"):
            acc_iotse_table(513, "log")

    def test_bad_n(self):
        with pytest.raises(RangeError):
            acc_iotse_table(0)


class TestDecompositions:
    def test_single_records(self):
        recs = decompositions(AccTriple(3, 2, 1, 0))
        assert len(recs) == 1
        dec, count = recs[0]
        assert (dec.m, dec.n, dec.w_t, dec.w_11) == (1, 0, 2, 0)
        assert count == 2

        recs = decompositions(AccTriple(2, 1, 1, 1))
        assert recs[0][0].m == 1 and recs[0][0].n == 0
        assert recs[0][1] == 2

    def test_odd_parity_is_empty(self):
        # a_i + b odd: no error event pattern has that parity.
        assert decompositions(AccTriple(3, 1, 1, 0)) == []

    def test_empty_set_record(self):
        recs = decompositions(AccTriple(6, 0, 0, 0))
        assert len(recs) == 1
        assert recs[0][0].m == 0 and recs[0][0].n == 0
        assert recs[0][1] == 1

    def test_terms_sum_to_count_random(self):
        rng = random.Random(1234)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 24)
            a_i = rng.randint(0, n)
            a_o = rng.randint(0, n - 1) if n > 1 else 0
            b = rng.randint(0, n)
            if (a_i + b) % 2:
                continue
            triple = AccTriple(n, a_i, a_o, b)
            total = sum(c for _, c in decompositions(triple))
            assert total == acc_iotse(triple)
            checked += 1

    def test_event_count_arithmetic(self):
        # w_t and w_11 are pinned by (m, n) and the class
        for n, a_i, a_o, b in [(12, 4, 3, 2), (10, 6, 4, 0), (9, 3, 2, 3)]:
            for dec, _ in decompositions(AccTriple(n, a_i, a_o, b)):
                assert dec.w_t == (a_i - b) // 2 + dec.m
                assert dec.w_11 == (a_i + b) // 2 - dec.n - dec.m
                assert dec.w_t + dec.w_11 + dec.n == a_i
