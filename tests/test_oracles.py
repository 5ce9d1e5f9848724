import dataclasses
import itertools
import json
from fractions import Fraction

import pytest

import rma_tse.acc
from rma_tse.acc import IotseTable, RangeError, ResourceLimitError
from rma_tse.ensemble import EnsembleConfig
from rma_tse.oracles import (
    MembershipAssignment,
    VerifyLimits,
    build_factor_graph,
    encode,
    exhaustive_acc,
    graph_ensemble_average,
    trellis_dp,
    trellis_dp_tables,
    verify_all,
)


class TestTrellisDp:
    def test_n1(self):
        assert trellis_dp(1).entries == {(0, 0, 0): 1, (1, 0, 1): 1}

    def test_hand_value(self):
        assert trellis_dp(3).get(2, 1, 0) == 2

    def test_prefix_harvest_equals_direct(self):
        tables = trellis_dp_tables(8)
        for n in range(1, 9):
            assert tables[n].entries == trellis_dp(n).entries

    def test_total_mass(self):
        # every (input subset, output subset short of the final node) is a path
        for n in (4, 7):
            assert sum(trellis_dp(n).entries.values()) == 2 ** (2 * n - 1)

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            trellis_dp(49)


class TestExhaustiveAcc:
    def test_n2_entries(self):
        table = exhaustive_acc(2)
        assert table.get(1, 1, 1) == 2
        assert table.get(0, 0, 0) == 1

    def test_equals_trellis(self):
        for n in range(1, 10):
            assert exhaustive_acc(n).entries == trellis_dp(n).entries

    def test_range_error(self):
        with pytest.raises(RangeError):
            exhaustive_acc(13)


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
