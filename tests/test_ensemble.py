import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from _oracle_refs import (
    box_conditional, box_iowe, box_tse, support_pair, support_span, table_by_rows,
)

import rma_tse.acc
import rma_tse.ensemble
from rma_tse.acc import AccTriple, RangeError, ResourceLimitError, acc_iotse, acc_iotse_table
from rma_tse.combinatorics import binomial
from rma_tse.ensemble import (
    ConditionalProfile,
    EnsembleConfig,
    TrappingSetClass,
    conditional_tse,
    ensemble_iowe,
    ensemble_table,
    ensemble_tse,
)
from rma_tse.oracles import encode, graph_ensemble_average

CFG_L1 = EnsembleConfig(q=2, K=2, L=1)
CFG_L2 = EnsembleConfig(q=2, K=2, L=2)
# Small chains beyond q=2, L=2: more repetition, three levels, q=1.
MORE_CFGS = (
    EnsembleConfig(q=3, K=2, L=2),
    EnsembleConfig(q=2, K=2, L=3),
    EnsembleConfig(q=1, K=3, L=3),
)


def assert_log_close(log_value, exact):
    """A log-mode value agrees with an exact one within 1e-8 relative."""
    if exact == 0:
        assert log_value == -math.inf
    else:
        assert abs(math.exp(log_value - math.log(exact)) - 1.0) <= 1e-8


class TestEnsembleConfig:
    def test_n_is_pinned(self):
        assert CFG_L2.N == 4
        assert EnsembleConfig(q=3, K=5, L=2).N == 15

    def test_validation(self):
        with pytest.raises(RangeError):
            EnsembleConfig(q=0, K=2, L=1)


class TestConditionalTse:
    def test_hand_values(self):
        assert conditional_tse(CFG_L1, ConditionalProfile(1, ((0, 2),))) == 2
        assert conditional_tse(CFG_L1, ConditionalProfile(0, ((1, 2),))) == 3

    def test_empty_profile(self):
        assert conditional_tse(CFG_L2, ConditionalProfile(0, ((0, 0), (0, 0)))) == 1

    def test_infeasible_is_zero(self):
        assert conditional_tse(CFG_L1, ConditionalProfile(1, ((0, 1),))) == 0

    def test_level_count_checked(self):
        with pytest.raises(RangeError):
            conditional_tse(CFG_L2, ConditionalProfile(1, ((0, 2),)))

    @pytest.mark.parametrize("profile, message", [
        (ConditionalProfile(3, ((0, 2),)), "w=3 outside [0, 2]"),
        (ConditionalProfile(-1, ((0, 2),)), "w=-1 outside [0, 2]"),
        (ConditionalProfile(1, ((5, 2),)), "level entry (5, 2) outside [0, 4]"),
        (ConditionalProfile(1, ((0, -1),)), "level entry (0, -1) outside [0, 4]"),
        (ConditionalProfile(1, ((0, 2), (0, 2))), "profile has 2 levels, config has L=1"),
    ])
    def test_range_messages(self, profile, message):
        with pytest.raises(RangeError) as info:
            conditional_tse(CFG_L1, profile)
        assert str(info.value) == message

    def test_log_mode(self):
        lv = conditional_tse(CFG_L1, ConditionalProfile(0, ((1, 2),)), "log")
        assert lv == pytest.approx(math.log(3), abs=1e-12)


class TestEnsembleTse:
    def test_spot_values(self):
        assert ensemble_tse(CFG_L1, TrappingSetClass(1, 2)).value == 5
        assert ensemble_tse(CFG_L1, TrappingSetClass(1, 1)).value == 0

    def test_breakdown_sums_to_value(self):
        res = ensemble_tse(CFG_L2, TrappingSetClass(3, 2), breakdown=True)
        assert sum((v for _, v in res.breakdown), Fraction(0)) == res.value
        assert all(v > 0 for _, v in res.breakdown)

    def test_breakdown_lexicographic(self):
        res = ensemble_tse(CFG_L2, TrappingSetClass(3, 2), breakdown=True)
        keys = [(p.w,) + tuple(x for lv in p.levels for x in lv) for p, _ in res.breakdown]
        assert keys == sorted(keys)

    def test_class_range_errors(self):
        with pytest.raises(RangeError):
            ensemble_tse(CFG_L1, TrappingSetClass(-1, 0))
        with pytest.raises(RangeError):
            ensemble_tse(CFG_L1, TrappingSetClass(0, 99))

    def test_exact_ceiling(self):
        big = EnsembleConfig(q=2, K=70, L=1)
        with pytest.raises(ResourceLimitError) as info:
            ensemble_tse(big, TrappingSetClass(1, 2))
        assert str(info.value) == "exact-mode ensemble capped at N=128, got 140"

    def test_breakdown_value_matches_plain_query(self):
        for cfg in (CFG_L2,) + MORE_CFGS:
            for a in range(cfg.a_max + 1):
                for b in range(0, cfg.b_max + 1, 3):
                    cls = TrappingSetClass(a, b)
                    for mode in ("exact", "log"):
                        plain = ensemble_tse(cfg, cls, mode).value
                        res = ensemble_tse(cfg, cls, mode, breakdown=True)
                        if mode == "exact":
                            assert res.value == plain
                            assert sum((v for _, v in res.breakdown), Fraction(0)) == plain
                        else:
                            assert_log_close(res.value, math.exp(plain))

    def test_log_mode_matches_exact(self):
        for cfg in (CFG_L2,) + MORE_CFGS:
            for a in range(cfg.a_max + 1):
                for b in range(cfg.b_max + 1):
                    cls = TrappingSetClass(a, b)
                    assert_log_close(
                        ensemble_tse(cfg, cls, "log").value, ensemble_tse(cfg, cls).value
                    )

    def test_denominator_divides_placement_products(self):
        res = ensemble_tse(CFG_L2, TrappingSetClass(3, 2), breakdown=True)
        lcm = 1
        for profile, _ in res.breakdown:
            prod = 1
            a_i = CFG_L2.q * profile.w
            for a_o, _b in profile.levels:
                prod *= binomial(CFG_L2.N, a_i)
                a_i = a_o
            lcm = lcm * prod // math.gcd(lcm, prod)
        assert lcm % res.value.denominator == 0


class TestEnsembleTable:
    def test_closure_small(self):
        assert sum(ensemble_table(CFG_L1).values(), Fraction(0)) == 32
        assert sum(ensemble_table(CFG_L2).values(), Fraction(0)) == 256

    def test_entry_00(self):
        assert ensemble_table(CFG_L2)[(0, 0)] == 1

    def test_matches_per_class_queries(self):
        for cfg in (CFG_L2,) + MORE_CFGS:
            table = ensemble_table(cfg)
            for (a, b), value in table.items():
                assert ensemble_tse(cfg, TrappingSetClass(a, b)).value == value
            # absent keys really are zero
            for a in range(cfg.a_max + 1):
                for b in range(cfg.b_max + 1):
                    if (a, b) not in table:
                        assert ensemble_tse(cfg, TrappingSetClass(a, b)).value == 0

    def test_matches_graph_oracle(self):
        for cfg in (CFG_L1, CFG_L2):
            assert ensemble_table(cfg) == graph_ensemble_average(cfg)

    def test_mode_agreement(self):
        for cfg in (CFG_L2,) + MORE_CFGS:
            exact = ensemble_table(cfg, "exact")
            logs = ensemble_table(cfg, "log")
            assert set(exact) == set(logs)
            for key, v in exact.items():
                assert abs(math.exp(logs[key] - math.log(float(v))) - 1.0) <= 1e-8

    def test_table_ceiling(self):
        with pytest.raises(ResourceLimitError) as info:
            ensemble_table(EnsembleConfig(q=2, K=40, L=1))
        assert str(info.value) == "exact-mode ensemble capped at N=64, got 80"

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_split_levels_match_whole_class_moves(self, q, L):
        # Odd N included: q=1 at K=5, q=3 at K=3.
        for K in range(1, 7):
            if q * K <= 12:
                cfg = EnsembleConfig(q=q, K=K, L=L)
                expect = table_by_rows(cfg, "exact")
                assert list(ensemble_table(cfg).items()) == list(expect.items())

    def test_exact_table_reads_only_factor_rows(self, monkeypatch):
        expect = {cfg: table_by_rows(cfg, "exact") for cfg in (CFG_L2, EnsembleConfig(1, 5, 3))}

        def refuse(*args, **kwargs):
            raise AssertionError("exact ensemble_table built acc_iotse_table")

        monkeypatch.setattr(rma_tse.ensemble, "acc_iotse_table", refuse)
        monkeypatch.setattr(rma_tse.acc, "acc_iotse_table", refuse)
        for cfg, table in expect.items():
            assert list(ensemble_table(cfg).items()) == list(table.items())
        with pytest.raises(AssertionError, match="built acc_iotse_table"):
            ensemble_table(CFG_L2, "log")

    @pytest.mark.parametrize("cfg", [CFG_L2, EnsembleConfig(1, 5, 3), EnsembleConfig(3, 3, 2),
                                     EnsembleConfig(2, 5, 2)])
    def test_log_table_is_whole_class_moves(self, cfg):
        expect = table_by_rows(cfg, "log")
        assert [(k, bits(v)) for k, v in ensemble_table(cfg, "log").items()] == [
            (k, bits(v)) for k, v in expect.items()
        ]

    def test_exact_table_memory(self):
        # Measured (tracemalloc peak): 43.6 MiB when each state kept a list of
        # its big-int terms, 6.0 MiB with one running sum per state, 2.7 MiB
        # with each level split at m and the last level keyed by class.
        tracemalloc.start()
        try:
            ensemble_table(EnsembleConfig(q=2, K=12, L=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEnsembleIowe:
    def test_zero_codeword(self):
        assert ensemble_iowe(CFG_L1, 0) == 1
        assert ensemble_iowe(CFG_L2, 0) == 1

    def test_weight_distribution_matches_encode_oracle(self):
        # Oracle: encode every input under every interleaver tuple, keep the
        # realizations whose accumulators all terminate, tally final weights.
        for cfg in (CFG_L1, CFG_L2):
            tallies = {}
            n_tuples = 0
            for perms in itertools.product(
                itertools.permutations(range(cfg.N)), repeat=cfg.L
            ):
                n_tuples += 1
                for bits in itertools.product((0, 1), repeat=cfg.K):
                    _, levels = encode(list(bits), perms)
                    if any(x[-1] for x in levels):
                        continue
                    d = sum(levels[-1])
                    tallies[d] = tallies.get(d, 0) + 1
            for d in range(cfg.N + 1):
                expect = Fraction(tallies.get(d, 0), n_tuples)
                assert ensemble_iowe(cfg, d) == expect

    def test_l1_value(self):
        # frozen from the encode oracle above
        assert ensemble_iowe(CFG_L1, 1) == 1

    def test_consistency_with_b0_profiles(self):
        # summing b=0 profiles at fixed final weight reproduces the count
        cfg = CFG_L2
        for d in range(cfg.N + 1):
            total = Fraction(0)
            for a in range(cfg.a_max + 1):
                res = ensemble_tse(cfg, TrappingSetClass(a, 0), breakdown=True)
                for profile, value in res.breakdown or []:
                    if profile.levels[-1][0] == d:
                        total += value
            assert total == ensemble_iowe(cfg, d)

    def test_range_error(self):
        with pytest.raises(RangeError):
            ensemble_iowe(CFG_L1, 5)

    def test_log_mode(self):
        lv = ensemble_iowe(CFG_L1, 2, "log")
        assert lv == pytest.approx(math.log(5 / 3), abs=1e-10)

    def test_log_mode_matches_exact(self):
        for cfg in (CFG_L1, CFG_L2) + MORE_CFGS + (EnsembleConfig(q=2, K=16, L=2),):
            for d in range(cfg.N + 1):
                assert_log_close(ensemble_iowe(cfg, d, "log"), ensemble_iowe(cfg, d))

    def test_more_levels_match_b0_profiles(self):
        for cfg in MORE_CFGS:
            totals = {}
            for a in range(cfg.a_max + 1):
                res = ensemble_tse(cfg, TrappingSetClass(a, 0), breakdown=True)
                for profile, value in res.breakdown:
                    d = profile.levels[-1][0]
                    totals[d] = totals.get(d, Fraction(0)) + value
            for d in range(cfg.N + 1):
                assert ensemble_iowe(cfg, d) == totals.get(d, 0)


def bits(value):
    """The exact bits of a value: ``float.hex`` of a log, ``repr`` of a Fraction."""
    return value.hex() if isinstance(value, float) else repr(value)


def profile_bits(breakdown):
    return [(profile, bits(value)) for profile, value in breakdown]


class TestSupportMoves:
    """The support-only moves against the full move sets (tests/_oracle_refs.py), bit for bit."""

    def check_class(self, cfg, cls, mode):
        value, breakdown = box_tse(cfg, cls, mode, breakdown=True)
        assert bits(ensemble_tse(cfg, cls, mode).value) == bits(box_tse(cfg, cls, mode)[0])
        res = ensemble_tse(cfg, cls, mode, breakdown=True)
        assert bits(res.value) == bits(value)
        assert profile_bits(res.breakdown) == profile_bits(breakdown)
        return breakdown

    def check_profile(self, cfg, profile, mode):
        expect = box_conditional(cfg, profile, mode)
        assert bits(conditional_tse(cfg, profile, mode)) == bits(expect)

    def check_iowe(self, cfg, d, mode):
        assert bits(ensemble_iowe(cfg, d, mode)) == bits(box_iowe(cfg, d, mode))

    @pytest.mark.parametrize("mode", ["exact", "log"])
    def test_random_classes(self, mode):
        rng, profiles = random.Random(19), 0
        for L in (1, 2, 3):
            for _ in range(8):
                cfg = EnsembleConfig(q=rng.randint(1, 4), K=rng.randint(1, 12 // L + 2), L=L)
                a = rng.randint(0, cfg.a_max)
                b = rng.randint(0, min(a, cfg.b_max))
                breakdown = self.check_class(cfg, TrappingSetClass(a, b), mode)
                profiles += len(breakdown)
                for profile, _ in breakdown[:3]:
                    self.check_profile(cfg, profile, mode)
                self.check_iowe(cfg, rng.randint(0, cfg.N), mode)
        assert profiles > 1000  # the classes are not all empty

    @pytest.mark.parametrize("mode", ["exact", "log"])
    def test_every_profile_of_small_chains(self, mode):
        # Every level entry in [0, N], the support's edges and beyond.
        for cfg in (EnsembleConfig(q=1, K=8, L=1), EnsembleConfig(q=2, K=3, L=2),
                    EnsembleConfig(q=1, K=2, L=3)):
            entries = list(itertools.product(range(cfg.N + 1), repeat=2))
            for w in range(cfg.K + 1):
                for levels in itertools.product(entries, repeat=cfg.L):
                    self.check_profile(cfg, ConditionalProfile(w, levels), mode)
            for d in range(cfg.N + 1):
                self.check_iowe(cfg, d, mode)

    @pytest.mark.parametrize("mode", ["exact", "log"])
    def test_support_edges(self, mode):
        # L = 1 with q = 1, so the component class is (w, a_o, b): classes and
        # profiles on each edge of the support, and one or two steps off it.
        cfg = EnsembleConfig(q=1, K=30, L=1)
        N = cfg.N
        edges = [(0, 5, 2), (1, 5, 1), (2, 5, 0), (N - 1, 5, N - 1), (N, 1, N - 2), (N - 2, 1, N)]
        for a_o in (1, 3, 14, 15, 16, 27, 29):
            cap = min(a_o, N - a_o)
            edges += [(b + 2 * cap, a_o, b) for b in (0, 1, 4) if b + 2 * cap <= N]
            edges += [(a_i, a_o, a_i + 2 * cap) for a_i in (0, 1, 4) if a_i + 2 * cap <= N]
        for a_i, a_o, b in edges:
            for da_o, db in ((0, 0), (0, -1), (0, 1), (0, -2), (0, 2), (-1, 0), (1, 0)):
                lv = (a_o + da_o, b + db)
                if 0 <= min(lv) and max(lv) <= N:
                    self.check_profile(cfg, ConditionalProfile(a_i, (lv,)), mode)
                    if lv[0] < N:
                        self.check_class(cfg, TrappingSetClass(a_i + lv[0], lv[1]), mode)

    @pytest.mark.parametrize("mode", ["exact", "log"])
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 24])
    def test_counts_are_acc_counts(self, N, mode):
        # Every support count, made from shared rows by a fresh memo, in the
        # table's own order: the table's entries and acc_iotse's, bit for bit.
        dom = rma_tse.acc._domain(mode)
        span, pair = rma_tse.ensemble._support_moves.__wrapped__(dom, N)
        moves = [((a_i, a_o, b), bits(cnt)) for a_i in range(N + 1)
                 for a_o, b, cnt in span(a_i, N - 1, N)]
        table = acc_iotse_table(N, mode).entries
        assert moves == [(key, bits(cnt)) for key, cnt in table.items()]
        for key, cnt in moves:
            assert bits(acc_iotse(AccTriple(N, *key), mode)) == cnt
            assert [(a_o, b, bits(c)) for a_o, b, c in pair(*key)] == [key[1:] + (cnt,)]

    @pytest.mark.parametrize("mode", ["exact", "log"])
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 13])
    def test_hoisted_span_and_pair_are_the_reference_loops(self, N, mode):
        # span's a_o ranges: ensemble_tse's 0..min(a_rem, N - 1), ensemble_iowe's
        # 0..N - 1 with b_max = 0; b_max past N as a class's remaining b can be.
        dom = rma_tse.acc._domain(mode)
        span, pair = rma_tse.ensemble._support_moves.__wrapped__(dom, N)

        def move_bits(moves):
            return [(a_o, b, bits(cnt)) for a_o, b, cnt in moves]

        for a_i in range(N + 1):
            for b_max in [*range(N + 1), 2 * N + 1]:
                for a_o_max in range(N):
                    expect = support_span(dom, N, a_i, range(a_o_max + 1), b_max)
                    assert move_bits(span(a_i, a_o_max, b_max)) == move_bits(expect)
            for a_o in range(N + 1):
                for b in range(2 * N + 2):
                    expect = support_pair(dom, N, a_i, a_o, b)
                    assert move_bits(pair(a_i, a_o, b)) == move_bits(expect)

    def test_count_memo_is_bounded(self):
        size = rma_tse.acc._ROW_CACHE_SIZE
        for K in range(1, size + 3):
            for mode in ("exact", "log"):
                ensemble_tse(EnsembleConfig(q=1, K=K, L=2), TrappingSetClass(K, 1), mode)
        info = rma_tse.ensemble._support_moves.cache_info()
        assert 0 < info.currsize <= info.maxsize == size


class TestClassQueryPins:
    """Log class-query values, which the benchmark checks only to 1e-8, pinned by repr."""

    @pytest.mark.parametrize("cfg, cls, value", [
        ((3, 64, 2), (96, 19), "77.87436928780197"),
        ((3, 48, 2), (72, 14), "56.28235688806266"),
    ])
    def test_ensemble_tse(self, cfg, cls, value):
        res = ensemble_tse(EnsembleConfig(*cfg), TrappingSetClass(*cls), "log")
        assert repr(res.value) == value

    def test_l3_breakdown(self):
        res = ensemble_tse(EnsembleConfig(3, 32, 3), TrappingSetClass(37, 6), "log", breakdown=True)
        assert repr(res.value) == "18.307059347981205"
        assert len(res.breakdown) == 4900
        profiles = repr([(p.w, p.levels, v.hex()) for p, v in res.breakdown]).encode()
        assert hashlib.sha256(profiles).hexdigest() == (
            "c75bc55e2f643a99dfecb0be82d540405110751f5da6da4a487a139aa11d0d67"
        )

    @pytest.mark.parametrize("d, value", [(64, "41.00654169045084"), (100, "19.762512114738335")])
    def test_ensemble_iowe(self, d, value):
        assert repr(ensemble_iowe(EnsembleConfig(2, 64, 2), d, "log")) == value
