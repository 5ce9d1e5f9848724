import dataclasses
import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from _oracle_refs import (
    exhaustive_entries,
    factor_graph_masks,
    graph_average,
    trellis_dp_entries,
)

import rma_tse.acc
import rma_tse.cli
import rma_tse.ensemble
import rma_tse.oracles
from rma_tse.acc import IotseTable, RangeError, ResourceLimitError, acc_iotse_table
from rma_tse.ensemble import EnsembleConfig, ensemble_table
from rma_tse.oracles import (
    EXHAUSTIVE_N_MAX,
    ComparisonResult,
    FactorGraph,
    MembershipAssignment,
    Mismatch,
    OracleReport,
    VerifyLimits,
    _first_mismatch,
    _harvest,
    _table_triples,
    _trellis_states,
    build_factor_graph,
    encode,
    exhaustive_acc,
    graph_ensemble_average,
    trellis_dp,
    verify_all,
)


def _walk_tables(n_max):
    """The class table at every prefix length of one trellis walk."""
    return {k: _harvest(k, counts) for k, counts in _trellis_states(n_max)}


class TestTrellisDp:
    def test_n1(self):
        assert trellis_dp(1).entries == {(0, 0, 0): 1, (1, 0, 1): 1}

    def test_hand_value(self):
        assert trellis_dp(3).get(2, 1, 0) == 2

    def test_prefix_harvest_equals_direct(self):
        tables = _walk_tables(8)
        for n in range(1, 9):
            assert tables[n].entries == trellis_dp(n).entries

    def test_total_mass(self):
        # every (input subset, output subset short of the final node) is a path
        for n in (4, 7, 40):  # 2^79 at n = 40: a wrapped int64 count would show
            assert sum(trellis_dp(n).entries.values()) == 2 ** (2 * n - 1)

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError) as info:
            trellis_dp(49)
        assert str(info.value) == "trellis DP capped at N=48, got 49"


class TestExhaustiveAcc:
    def test_n2_entries(self):
        table = exhaustive_acc(2)
        assert table.get(1, 1, 1) == 2
        assert table.get(0, 0, 0) == 1

    def test_equals_trellis(self):
        for n in range(1, 10):
            assert exhaustive_acc(n).entries == trellis_dp(n).entries

    def test_range_error(self):
        # Past its public ceiling the oracle raises as every size ceiling does.
        assert EXHAUSTIVE_N_MAX == 12 and "EXHAUSTIVE_N_MAX" in rma_tse.oracles.__all__
        with pytest.raises(ResourceLimitError) as info:
            exhaustive_acc(EXHAUSTIVE_N_MAX + 1)
        assert type(info.value) is ResourceLimitError
        assert str(info.value) == "exhaustive enumeration capped at N=12, got 13"


def _assert_same_table(got, want):
    """Equal keys in equal order, equal values, every count a Python int."""
    assert got == want
    assert list(got) == sorted(want)
    assert all(type(v) is int for v in got.values())


class TestArrayPassesEqualReferences:
    """The array passes against the plain loops they replaced (tests/_oracle_refs.py)."""

    REF_N = 34  # past n = 32, where the trellis walk leaves int64 for Python ints

    @pytest.fixture(scope="class")
    def walked(self):
        return trellis_dp_entries(self.REF_N)

    @pytest.mark.parametrize("n_max", [32, REF_N])  # an int64 walk and a Python-int walk
    def test_trellis_tables(self, walked, n_max):
        tables = _walk_tables(n_max)
        assert sorted(tables) == list(range(1, n_max + 1))
        for n, table in tables.items():
            assert table.N == n and table.mode == "exact"
            _assert_same_table(table.entries, walked[n])

    @pytest.mark.parametrize("n", [1, 2, 32, 33])
    def test_trellis_single_table(self, walked, n):
        _assert_same_table(trellis_dp(n).entries, walked[n])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exhaustive(self, n):
        _assert_same_table(exhaustive_acc(n).entries, exhaustive_entries(n))

    @pytest.mark.parametrize("q, k, l_levels", [(2, 2, 1), (2, 2, 2), (1, 3, 2), (2, 3, 1)])
    def test_graph(self, q, k, l_levels):
        config = EnsembleConfig(q=q, K=k, L=l_levels)
        got, want = graph_ensemble_average(config), graph_average(config)
        assert got == want and list(got) == list(want)
        assert all(type(v.numerator) is int and type(v.denominator) is int for v in got.values())

    def test_exhaustive_streams_its_tally(self):
        # One 2^12 x 2^11 int64 matrix is 64 MiB; the streamed tally holds none.
        tracemalloc.start()
        try:
            exhaustive_acc(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 12) * (1 << 11) * 8


class TestFactorGraph:
    def test_info_node_degree_is_q(self):
        config = EnsembleConfig(q=2, K=2, L=1)
        graph = build_factor_graph(config, [tuple(range(4))])
        for j in range(config.K):
            deg = sum(1 for m in graph.check_masks if m >> j & 1)
            assert deg == config.q

    def test_check_count_and_degree(self):
        config = EnsembleConfig(q=2, K=2, L=2)
        graph = build_factor_graph(config, [tuple(range(4))] * 2)
        assert len(graph.check_masks) == config.L * config.N
        for m in graph.check_masks:
            assert bin(m).count("1") <= 3

    def test_induced_class_single_code_node(self):
        config = EnsembleConfig(q=2, K=2, L=1)
        graph = build_factor_graph(config, [tuple(range(4))])
        # membership = {x^1_2}: both adjacent checks go odd
        mask = 1 << (config.K + 1)
        assert graph.induced_class(MembershipAssignment(mask)) == (1, 2)

    def test_bad_permutation(self):
        config = EnsembleConfig(q=2, K=2, L=1)
        with pytest.raises(RangeError):
            build_factor_graph(config, [(0, 0, 1, 2)])

    @pytest.mark.parametrize("q, k, l_levels", [(2, 2, 1), (2, 2, 2), (1, 3, 2), (2, 1, 2)])
    def test_masks_equal_reference(self, q, k, l_levels):
        # The one node rule against the per-neighbour None tests it replaced.
        config = EnsembleConfig(q=q, K=k, L=l_levels)
        tuples = itertools.product(itertools.permutations(range(config.N)), repeat=config.L)
        for perms in tuples:
            assert build_factor_graph(config, perms).check_masks == factor_graph_masks(config, perms)

    @pytest.mark.parametrize("q, k, l_levels", [(2, 2, 1), (1, 3, 2)])
    def test_induced_class_universe_bound(self, q, k, l_levels):
        config = EnsembleConfig(q=q, K=k, L=l_levels)
        graph = build_factor_graph(config, [tuple(range(config.N))] * config.L)
        full = (1 << config.a_max) - 1
        assert graph.induced_class(MembershipAssignment(full))[0] == config.a_max
        with pytest.raises(RangeError, match="outside the universe"):
            graph.induced_class(MembershipAssignment(1 << config.a_max))


class TestGraphEnsembleAverage:
    def test_spot_values(self):
        table = graph_ensemble_average(EnsembleConfig(q=2, K=2, L=1))
        assert table[(1, 2)] == Fraction(5)
        assert (1, 1) not in table
        assert table[(0, 0)] == Fraction(1)

    def test_universe_mass(self):
        config = EnsembleConfig(q=2, K=2, L=1)
        table = graph_ensemble_average(config)
        assert sum(table.values(), Fraction(0)) == 2 ** (config.K + config.N - 1)

    def test_shape_limits(self):
        with pytest.raises(RangeError):
            graph_ensemble_average(EnsembleConfig(q=3, K=2, L=1))
        with pytest.raises(RangeError):
            graph_ensemble_average(EnsembleConfig(q=2, K=2, L=3))
        with pytest.raises(ResourceLimitError, match="exceeds budget"):
            graph_ensemble_average(EnsembleConfig(q=2, K=3, L=2))  # 720^2 * 2^13 operations


@pytest.mark.parametrize("oracle, args, message", [
    (trellis_dp, (0,), "block length must be >= 1, got 0"),
    (exhaustive_acc, (-1,), "block length must be >= 1, got -1"),
    (build_factor_graph, (EnsembleConfig(q=2, K=2, L=2), [tuple(range(4))]),
     "need 2 interleavers, got 1"),
    (encode, ([], [tuple(range(4))]), "need a nonempty input and at least one interleaver"),
    (encode, ([1, 0], []), "need a nonempty input and at least one interleaver"),
    (encode, ([1, 2], [tuple(range(4))]), "input bits must be 0/1"),
    (acc_iotse_table, (0,), "block length must be >= 1, got 0"),
])
def test_range_error_messages(oracle, args, message):
    with pytest.raises(RangeError) as info:
        oracle(*args)
    assert str(info.value) == message


class TestEncode:
    def test_all_zero(self):
        x_rep, levels = encode([0, 0], [tuple(range(4))])
        assert x_rep == [0, 0, 0, 0]
        assert levels == [[0, 0, 0, 0]]

    def test_identity_interleavers(self):
        x_rep, levels = encode([1, 0], [tuple(range(4)), tuple(range(4))])
        assert x_rep == [1, 1, 0, 0]
        assert levels[0] == [1, 0, 0, 0]
        assert levels[1] == [1, 1, 1, 1]

    def test_length_mismatch(self):
        with pytest.raises(RangeError):
            encode([1, 0, 1], [tuple(range(4))])

    def test_terminated_supports_induce_b0(self):
        config = EnsembleConfig(q=2, K=2, L=2)
        perms_iter = itertools.product(
            itertools.permutations(range(config.N)), repeat=config.L
        )
        checked = 0
        for perms in itertools.islice(perms_iter, 60):
            graph = build_factor_graph(config, perms)
            for bits in itertools.product((0, 1), repeat=config.K):
                x_rep, levels = encode(list(bits), perms)
                if any(x[-1] for x in levels):
                    continue
                mask = 0
                for j, bit in enumerate(bits):
                    mask |= bit << j
                for lvl, x in enumerate(levels):
                    for pos in range(config.N - 1):
                        if x[pos]:
                            mask |= 1 << (config.K + lvl * (config.N - 1) + pos)
                _, b = graph.induced_class(MembershipAssignment(mask))
                assert b == 0
                checked += 1
        assert checked > 0


class TestVerifyAll:
    QUICK = VerifyLimits(
        trellis_n_max=8,
        exhaustive_n_max=6,
        iowe_n_max=10,
        rowsum_n_max=8,
        graph_configs=((2, 2, 1),),
        closure_k_max=2,
        closure_q_max=2,
        closure_l_max=2,
        codeword_config=(2, 1, 2),
    )

    def test_clean_run(self):
        report = verify_all(self.QUICK)
        assert report.mismatch_count == 0
        assert len(report.comparisons) >= 6

    def test_report_json_shape(self):
        report = verify_all(self.QUICK)
        payload = json.loads(report.to_json())
        assert payload["mismatch_count"] == 0
        assert all(c["ok"] for c in payload["comparisons"])

    def test_mismatch_report_bytes_pinned(self):
        # One clean comparison and the three key shapes verify_all reports: a
        # flat key, codeword_support_b0's (perms, bits) and the mass check's ("total",).
        report = OracleReport([
            ComparisonResult("closed_form_vs_trellis", 5),
            ComparisonResult("iowe_b0_reduction", 3, Mismatch((4, 1, 2), "7", "6")),
            ComparisonResult("codeword_support_b0", 3, Mismatch((((1, 0), (0, 1)), (0,)), "1", "0")),
            ComparisonResult("graph_universe_mass_q2_K2_L1", 9, Mismatch(("total",), "17", "16")),
        ])
        text = report.to_json()
        assert [c["mismatch"] and c["mismatch"]["key"] for c in json.loads(text)["comparisons"]] == [
            None, [4, 1, 2], [[[1, 0], [0, 1]], [0]], ["total"],
        ]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "67b4cb7299e5b9297d4644063ec7da04ccfd9a2c2c77df472007397b86e06829"
        )

    def test_injected_fault_is_pinpointed(self, monkeypatch):
        real = rma_tse.acc.acc_iotse_table

        def faulty(n, mode="exact"):
            table = real(n, mode)
            if n == 3:
                entries = dict(table.entries)
                entries[(2, 1, 0)] += 1  # off by one
                return IotseTable(N=n, mode=mode, entries=entries)
            return table

        monkeypatch.setattr(rma_tse.acc, "acc_iotse_table", faulty)
        report = verify_all(self.QUICK)
        assert report.mismatch_count >= 1
        bad = next(c for c in report.comparisons if c.name == "closed_form_vs_trellis")
        assert bad.mismatch is not None
        assert bad.mismatch.key == (3, 2, 1, 0)
        assert bad.mismatch.lhs == "2" and bad.mismatch.rhs == "3"

    def test_rowsum_reuses_closed_form_tables(self, monkeypatch):
        real, calls = rma_tse.acc.acc_iotse_table, []

        def counting(n, mode="exact"):
            calls.append(n)
            return real(n, mode)

        monkeypatch.setattr(rma_tse.acc, "acc_iotse_table", counting)
        report = verify_all(dataclasses.replace(self.QUICK, rowsum_n_max=10))
        assert sorted(calls) == list(range(1, 11))  # trellis_n_max = 8
        rowsum = next(c for c in report.comparisons if c.name == "rowsum_identity")
        assert rowsum.ok and rowsum.checked == sum((n + 1) ** 2 for n in range(1, 11))

    def test_exhaustive_past_trellis_range(self):
        # The trellis DP must cover the exhaustive range too, not only the closed-form one.
        report = verify_all(dataclasses.replace(self.QUICK, trellis_n_max=5, exhaustive_n_max=8))
        assert report.mismatch_count == 0
        exhaustive = next(c for c in report.comparisons if c.name == "trellis_vs_exhaustive")
        assert exhaustive.checked == sum(len(trellis_dp(n).entries) for n in range(1, 9))

    @pytest.mark.parametrize("flip", range(8))
    def test_wrong_edge_fails_gate(self, monkeypatch, flip):
        # The walk reads its transitions from the edge table; the closed form
        # never does, so one edge with a flipped check bit must be caught.
        edges = list(rma_tse.oracles.EXTENDED_TRELLIS_EDGES)
        edges[flip] = dataclasses.replace(edges[flip], c=1 - edges[flip].c)
        monkeypatch.setattr(rma_tse.oracles, "EXTENDED_TRELLIS_EDGES", tuple(edges))
        report = verify_all(rma_tse.cli._QUICK_LIMITS)
        closed = next(c for c in report.comparisons if c.name == "closed_form_vs_trellis")
        assert closed.mismatch is not None

    def test_each_trellis_comparison_walks_once(self, monkeypatch):
        # Each trellis comparison streams its own walk; no table set is built up front.
        real, walks = rma_tse.oracles._trellis_states, []

        def counting(n_max):
            walks.append(n_max)
            return real(n_max)

        real_harvest, harvested = rma_tse.oracles._harvest, []

        def harvest(n, counts):
            if counts.shape == (n + 1,) * 3:  # a walk section, not an exhaustive tally
                harvested.append(n)
            return real_harvest(n, counts)

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", counting)
        monkeypatch.setattr(rma_tse.oracles, "_harvest", harvest)
        assert verify_all(self.QUICK).mismatch_count == 0
        assert walks == [8, 6]
        # Each length once per walk, as the walk reaches it.
        assert harvested == list(range(1, 9)) + list(range(1, 7))

    def test_exhaustive_after_closed_form_stops(self, monkeypatch):
        # A closed-form mismatch at n = 2 stops that stream; the exhaustive
        # stream must walk the trellis on to its own range.
        real = rma_tse.acc.acc_iotse_table
        monkeypatch.setattr(
            rma_tse.acc, "acc_iotse_table",
            lambda n, mode="exact": TestFirstMismatch.bump(real(n, mode), (1, 0, 0))
            if n == 2 else real(n, mode),
        )
        report = verify_all(dataclasses.replace(self.QUICK, trellis_n_max=4, exhaustive_n_max=7))
        closed = next(c for c in report.comparisons if c.name == "closed_form_vs_trellis")
        exhaustive = next(c for c in report.comparisons if c.name == "trellis_vs_exhaustive")
        assert closed.mismatch is not None and closed.mismatch.key[0] == 2
        assert exhaustive.ok
        assert exhaustive.checked == sum(len(trellis_dp(n).entries) for n in range(1, 8))

    def test_trellis_cap_before_any_table(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table past the trellis cap")

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
        monkeypatch.setattr(rma_tse.acc, "acc_iotse_table", unreachable)
        with pytest.raises(ResourceLimitError) as info:
            verify_all(dataclasses.replace(self.QUICK, trellis_n_max=49))
        assert str(info.value) == "trellis DP capped at N=48, got 49"

    def test_verify_memory(self):
        # Measured (tracemalloc peak): 17.0 MiB when all 32 trellis tables were
        # built before the comparisons, 5.8 MiB with one shared streamed walk
        # and 5.75 MiB with a streamed walk per comparison.
        limits = dataclasses.replace(rma_tse.cli._QUICK_LIMITS, trellis_n_max=32)
        tracemalloc.start()
        try:
            assert verify_all(limits).mismatch_count == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_exhaustive_cap_before_any_table(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table past the exhaustive cap")

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
        with pytest.raises(ResourceLimitError) as info:
            verify_all(dataclasses.replace(self.QUICK, exhaustive_n_max=13))
        assert str(info.value) == "exhaustive enumeration capped at N=12, got 13"

    @pytest.mark.parametrize("change, message, guard, args", [
        ({"rowsum_n_max": 513}, "row-sum tables capped at N=512, got 513",
         acc_iotse_table, (513,)),
        ({"closure_q_max": 3, "closure_k_max": 22}, "closure tables capped at N=64, got 66",
         ensemble_table, (EnsembleConfig(3, 22, 1),)),
        ({"trellis_n_max": 49}, "trellis DP capped at N=48, got 49", trellis_dp, (49,)),
        ({"exhaustive_n_max": 13}, "exhaustive enumeration capped at N=12, got 13",
         exhaustive_acc, (13,)),
    ])
    def test_table_ceiling_before_any_table(self, monkeypatch, change, message, guard, args):
        # A limit past its ceiling raises the exception of the call it drives.
        with pytest.raises(Exception) as guarded:
            guard(*args)

        def unreachable(*args, **kwargs):
            raise AssertionError("built a table for a limit past its ceiling")

        for module, name in [(rma_tse.oracles, "_trellis_states"),
                             (rma_tse.acc, "acc_iotse_table"),
                             (rma_tse.ensemble, "ensemble_table")]:
            monkeypatch.setattr(module, name, unreachable)
        with pytest.raises(Exception) as info:
            verify_all(dataclasses.replace(self.QUICK, **change))
        assert (type(info.value), str(info.value)) == (guarded.type, message)
        assert guarded.type is ResourceLimitError

    @pytest.mark.parametrize("change, error, message", [
        ({"graph_configs": ((2, 2, 3),)}, RangeError, "graph oracle supports K <= 3, q <= 2, L <= 2"),
        ({"graph_configs": ((2, 2, 1), (3, 1, 1))}, RangeError,
         "graph oracle supports K <= 3, q <= 2, L <= 2"),
        ({"codeword_config": (3, 3, 3)}, RangeError, "graph oracle supports K <= 3, q <= 2, L <= 2"),
        ({"graph_configs": ((2, 3, 2),)}, ResourceLimitError,
         "(N!)^L * 2^universe = 4246732800 exceeds budget"),
    ], ids=["graph-L3", "graph-q3", "codeword-q3", "graph-budget"])
    def test_graph_limits_before_any_table(self, monkeypatch, change, error, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table for a graph configuration past its limits")

        for name in ("_trellis_states", "graph_ensemble_average", "build_factor_graph"):
            monkeypatch.setattr(rma_tse.oracles, name, unreachable)
        with pytest.raises(error) as info:
            verify_all(dataclasses.replace(self.QUICK, **change))
        assert str(info.value) == message

    def test_empty_graph_configs_before_any_table(self, monkeypatch):
        # No graph configuration would drop the graph oracle from the gate and
        # still read as a pass, as a limit below 1 would.
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table for an empty graph_configs")

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
        with pytest.raises(RangeError, match="graph_configs must name at least one configuration"):
            verify_all(dataclasses.replace(self.QUICK, graph_configs=()))

    def test_limits_at_the_table_ceilings(self):
        limits = dataclasses.replace(
            self.QUICK, rowsum_n_max=512, closure_q_max=2, closure_k_max=32
        )
        assert (limits.rowsum_n_max, limits.closure_q_max * limits.closure_k_max) == (512, 64)


def _mismatches(report):
    """(name, checked, key, lhs, rhs) of every failed comparison, in report order."""
    return [
        (c.name, c.checked, c.mismatch.key, c.mismatch.lhs, c.mismatch.rhs)
        for c in report.comparisons
        if not c.ok
    ]


class TestTableTriples:
    @staticmethod
    def compare(lhs, rhs):
        result = _first_mismatch("t", _table_triples(lhs, rhs, (0,)))
        return result.checked, result.mismatch

    def test_equal_tables(self):
        table = trellis_dp(9).entries
        assert self.compare(table, dict(reversed(table.items()))) == (len(table), None)
        assert self.compare({}, {}) == (0, None)

    @pytest.mark.parametrize("swap", [False, True])
    def test_explicit_zero_matches_missing_key(self, swap):
        # Unequal as dicts, so the sorted walk over the union of keys runs.
        lhs, rhs = {(1,): 0, (2,): 5, (3,): 0}, {(2,): 5}
        assert self.compare(*((rhs, lhs) if swap else (lhs, rhs))) == (3, None)

    def test_first_mismatch_in_key_order(self):
        lhs, rhs = {(3,): 2, (1,): 1, (4,): 9}, {(4,): 8, (1,): 1, (3,): 3}
        assert self.compare(lhs, rhs) == (2, Mismatch((0, 3), "2", "3"))


class TestFirstMismatch:
    """One injected fault per comparison: ``checked`` counts the keys up to
    and including the first mismatch, which is reported with its values."""

    QUICK = TestVerifyAll.QUICK

    @staticmethod
    def bump(table, key, by=1):
        entries = dict(table.entries)
        entries[key] = entries.get(key, 0) + by
        return IotseTable(N=table.N, mode=table.mode, entries=entries)

    def test_closed_form_fault_stops_the_table_build(self, monkeypatch):
        real, calls = rma_tse.acc.acc_iotse_table, []

        def faulty(n, mode="exact"):
            calls.append(n)
            return self.bump(real(n, mode), (2, 1, 0)) if n == 3 else real(n, mode)

        monkeypatch.setattr(rma_tse.acc, "acc_iotse_table", faulty)
        assert _mismatches(verify_all(self.QUICK)) == [
            ("closed_form_vs_trellis", 18, (3, 2, 1, 0), "2", "3"),
            ("rowsum_identity", 23, (3, 2, 1), "7", "6"),
        ]
        assert calls == [1, 2, 3]  # the row-sum check stops at n = 3 too

    def test_trellis_vs_exhaustive(self, monkeypatch):
        real = rma_tse.oracles.exhaustive_acc
        monkeypatch.setattr(
            rma_tse.oracles, "exhaustive_acc",
            lambda n: self.bump(real(n), (2, 1, 0)) if n == 4 else real(n),
        )
        assert _mismatches(verify_all(self.QUICK)) == [
            ("trellis_vs_exhaustive", 38, (4, 2, 1, 0), "3", "4"),
        ]

    def test_iowe_b0(self, monkeypatch):
        real = rma_tse.acc.acc_iowe
        monkeypatch.setattr(
            rma_tse.acc, "acc_iowe",
            lambda n, w, d: real(n, w, d) + ((n, w, d) == (5, 2, 3)),
        )
        assert _mismatches(verify_all(self.QUICK)) == [
            ("iowe_b0_reduction", 70, (5, 2, 3), "2", "3"),
        ]

    def test_rowsum_past_trellis_range(self, monkeypatch):
        real = rma_tse.acc.acc_iotse_table
        monkeypatch.setattr(
            rma_tse.acc, "acc_iotse_table",
            lambda n, mode="exact": self.bump(real(n, mode), (4, 3, 1), 2) if n == 9
            else real(n, mode),
        )
        report = verify_all(dataclasses.replace(self.QUICK, rowsum_n_max=10))
        assert _mismatches(report) == [
            ("rowsum_identity", 328, (9, 4, 3), "7058", "7056"),
        ]

    def test_graph_vs_ensemble(self, monkeypatch):
        real = rma_tse.oracles.graph_ensemble_average

        def faulty(config):
            table = dict(real(config))
            table[(1, 2)] += Fraction(1, 3)
            return table

        monkeypatch.setattr(rma_tse.oracles, "graph_ensemble_average", faulty)
        assert _mismatches(verify_all(self.QUICK)) == [
            ("graph_vs_ensemble_q2_K2_L1", 2, (1, 2), "16/3", "5"),
            ("graph_universe_mass_q2_K2_L1", 12, ("total",), "97/3", "32"),
        ]

    def test_closure(self, monkeypatch):
        real = rma_tse.ensemble.ensemble_table

        def faulty(config, mode="exact"):
            table = real(config, mode)
            if (config.q, config.K, config.L) == (2, 1, 2):
                table = dict(table)
                table[(0, 0)] += 1
            return table

        monkeypatch.setattr(rma_tse.ensemble, "ensemble_table", faulty)
        assert _mismatches(verify_all(self.QUICK)) == [
            ("closure_identity", 6, (2, 1, 2), "9", "8"),
        ]

    def test_codeword_support_and_its_json(self, monkeypatch):
        real, calls = FactorGraph.induced_class, []

        def faulty(graph, assignment):
            a, b = real(graph, assignment)
            calls.append(assignment)
            return (a, b + 1) if len(calls) == 3 else (a, b)

        monkeypatch.setattr(FactorGraph, "induced_class", faulty)
        report = verify_all(self.QUICK)
        assert _mismatches(report) == [
            ("codeword_support_b0", 3, (((1, 0), (0, 1)), (0,)), "1", "0"),
        ]
        # The nested (perms, bits) key serialises as nested lists.
        text = report.to_json()
        assert json.loads(text)["comparisons"][-1]["mismatch"]["key"] == [[[1, 0], [0, 1]], [0]]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e634d03c2d3f08315ad82943e565b1b6d71920715df2e514cda75bb66fef0e94"
        )
