import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_grid import facc_grid_max, sample_shape_args
from rma_tse.asymptotic import (
    AccShapeArgs,
    AsymptoticQuery,
    SplitPolicy,
    SweepSpec,
    _grid_resolution,
    _mu_bounds,
    _objective,
    f_acc,
    f_rep,
    r_point,
    sweep,
)
from rma_tse.combinatorics import NEG_INF, DomainError, binary_entropy


class TestFRep:
    def test_values(self):
        assert f_rep(0.5, 2) == pytest.approx(math.log(2) / 2, abs=1e-15)
        assert f_rep(0.0, 3) == 0.0
        assert f_rep(1.0, 3) == 0.0
        assert f_rep(0.11, 3) == pytest.approx(binary_entropy(0.11) / 3, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_rep(-0.01, 2)
        with pytest.raises(DomainError):
            f_rep(1.01, 2)


class TestSplitPolicy:
    def test_free(self):
        assert SplitPolicy.free().is_free
        assert SplitPolicy.free().describe() == "free"

    def test_fixed(self):
        sp = SplitPolicy.fixed((0.5, 0.5))
        assert not sp.is_free
        assert sp.describe() == "fixed:0.5,0.5"

    def test_fixed_must_sum_to_one(self):
        with pytest.raises(DomainError):
            SplitPolicy.fixed((0.6, 0.6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fixed_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            SplitPolicy.fixed((bad, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteInputs:
    def test_shape_args(self, bad):
        for args in ((bad, 0.1, 0.1), (0.1, bad, 0.1), (0.1, 0.1, bad)):
            with pytest.raises(DomainError):
                AccShapeArgs(*args)

    def test_query(self, bad):
        with pytest.raises(DomainError):
            AsymptoticQuery(q=3, L=2, alpha=bad, beta=0.01)
        with pytest.raises(DomainError):
            AsymptoticQuery(q=3, L=2, alpha=0.1, beta=bad)

    def test_sweep_spec(self, bad):
        with pytest.raises(DomainError):
            SweepSpec(delta=bad, alpha_grid=(0.1, 0.2), q=3, L=2)
        with pytest.raises(DomainError):
            SweepSpec(delta=0.1, alpha_grid=(0.1, bad), q=3, L=2)


class TestGridResolution:
    def test_default_fits_budget(self):
        fixed = SplitPolicy.fixed
        assert _grid_resolution(2, fixed((0.5, 0.5)), None) == 33
        assert _grid_resolution(2, SplitPolicy.free(), None) == 33
        assert _grid_resolution(4, fixed((1.0, 0.0, 0.0, 0.0)), None) == 27
        assert _grid_resolution(3, SplitPolicy.free(), None) == 14

    def test_explicit_points_kept(self):
        assert _grid_resolution(4, SplitPolicy.free(), 7) == 7
        assert _grid_resolution(2, SplitPolicy.free(), 1) == 2


class TestFAcc:
    def test_pure_type1_limit(self):
        # alpha_o = 0 with alpha_i = beta: only self-loop events remain
        for beta in (0.1, 0.3, 0.45):
            opt = f_acc(AccShapeArgs(beta, 0.0, beta))
            assert opt.value == pytest.approx(binary_entropy(beta), abs=1e-12)
            assert opt.mu == pytest.approx(0.0, abs=1e-12)
            assert opt.nu == pytest.approx(beta, abs=1e-10)

    def test_no_checks_closed_form(self):
        for ai, ao in [(0.2, 0.3), (0.1, 0.4), (0.3, 0.35), (0.05, 0.45)]:
            opt = f_acc(AccShapeArgs(ai, ao, 0.0))
            expect = (1 - ao) * binary_entropy(ai / (2 * (1 - ao))) + ao * binary_entropy(
                ai / (2 * ao)
            )
            assert opt.value == pytest.approx(expect, abs=1e-12)
            assert opt.mu == pytest.approx(ai / 2, abs=1e-10)
            assert opt.nu == pytest.approx(0.0, abs=1e-10)

    def test_infeasible(self):
        # checks exceed what any event pattern can produce
        opt = f_acc(AccShapeArgs(0.0, 0.0, 0.5))
        assert opt.value == NEG_INF
        assert not opt.feasible

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            ai, ao, b = sample_shape_args(rng)
            grid = facc_grid_max(ai, ao, b, n=800)
            assert f_acc(AccShapeArgs(ai, ao, b)).value == pytest.approx(grid, abs=2e-6)

    def test_restart_consistency(self):
        args = AccShapeArgs(0.2, 0.3, 0.1)
        base = f_acc(args).value
        rng = np.random.default_rng(7)
        for _ in range(8):
            start = (rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.5))
            assert abs(f_acc(args, start=start).value - base) <= 1e-9

    def test_value_matches_objective_at_witness(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            ai, ao, b = sample_shape_args(rng)
            opt = f_acc(AccShapeArgs(ai, ao, b))
            assert opt.value == pytest.approx(_objective(ai, ao, b, opt.mu, opt.nu), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            AccShapeArgs(1.2, 0.0, 0.0)

    # Corners of the argument box that the interior sampler never draws.
    BRANCH_CASES = {
        "h>alpha_o": (0.6, 0.25, 0.3),  # the nu interval starts at h - alpha_o > 0
        "beta=0": (0.3, 0.4, 0.0),
        "alpha_o=alpha_i": (0.3, 0.3, 0.1),
        "alpha_o=0": (0.2, 0.0, 0.2),
        "one-point-mu-interval": (0.5, 0.2, 0.1),  # alpha_o = |d|: optimum at both ends
    }

    @pytest.mark.parametrize("ai, ao, b", BRANCH_CASES.values(), ids=BRANCH_CASES.keys())
    def test_branch_cases(self, ai, ao, b):
        args = AccShapeArgs(ai, ao, b)
        opt = f_acc(args)
        assert opt.value == pytest.approx(facc_grid_max(ai, ao, b, n=800), abs=2e-6)
        assert opt.value >= facc_grid_max(ai, ao, b, n=800, tol=0.0) - 1e-12
        assert opt.nu >= max(0.0, 0.5 * (ai + b) - ao)
        for end in _mu_bounds(ai, ao, b):
            assert abs(f_acc(args, start=(end, 0.0)).value - opt.value) <= 1e-12

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(*[st.floats(0.0, 1.0)] * 4)
    def test_unit_box(self, ai, ao, b, start):
        args = AccShapeArgs(ai, ao, b)
        opt = f_acc(args)
        restarted = f_acc(args, start=(start, 0.0))
        grid = facc_grid_max(ai, ao, b, n=60, tol=0.0)
        if not opt.feasible:
            assert grid == -math.inf and not restarted.feasible
            return
        assert opt.value >= grid - 1e-12
        assert abs(restarted.value - opt.value) <= 1e-9


class TestConcavity:
    def test_random_chords(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            ai, ao, b = sample_shape_args(rng)
            pts = []
            while len(pts) < 2:
                mu = rng.uniform(0.0, 0.5)
                nu = rng.uniform(0.0, 0.5)
                if _objective(ai, ao, b, mu, nu) > NEG_INF:
                    pts.append((mu, nu))
            (m1, n1), (m2, n2) = pts
            f1 = _objective(ai, ao, b, m1, n1)
            f2 = _objective(ai, ao, b, m2, n2)
            for t in (0.25, 0.5, 0.75):
                mid = _objective(
                    ai, ao, b, t * m1 + (1 - t) * m2, t * n1 + (1 - t) * n2
                )
                assert mid >= t * f1 + (1 - t) * f2 - 1e-10
            checked += 1


class TestRPoint:
    def test_origin(self):
        point = r_point(AsymptoticQuery(q=3, L=2, alpha=0.0, beta=0.0))
        assert point.r == 0.0
        assert point.witness.omega == 0.0
        for lv in point.witness.levels:
            assert lv.alpha_o == 0.0 and lv.beta == 0.0

    def test_free_dominates_fixed(self):
        fixed = r_point(
            AsymptoticQuery(q=3, L=2, alpha=0.1, beta=0.01, split=SplitPolicy.fixed((0.5, 0.5)))
        )
        free = r_point(AsymptoticQuery(q=3, L=2, alpha=0.1, beta=0.01))
        assert free.r >= fixed.r - 1e-6

    def test_infeasible_marker(self):
        point = r_point(AsymptoticQuery(q=2, L=2, alpha=0.1, beta=3.0))
        assert point.r == NEG_INF
        assert point.witness is None
        assert not point.feasible

    def test_witness_constraints_and_value(self):
        query = AsymptoticQuery(q=3, L=2, alpha=0.12, beta=0.018)
        point = r_point(query)
        w = point.witness
        assert abs(w.omega / query.q + sum(l.alpha_o for l in w.levels) - query.alpha) <= 1e-10
        assert abs(sum(l.beta for l in w.levels) - query.beta) <= 1e-10
        total = f_rep(w.omega, query.q) - binary_entropy(w.omega)
        a_in = w.omega
        for i, lv in enumerate(w.levels):
            total += _objective(a_in, lv.alpha_o, lv.beta, lv.mu, lv.nu)
            if i < query.L - 1:
                total -= binary_entropy(lv.alpha_o)
            a_in = lv.alpha_o
        assert total == pytest.approx(point.r, abs=1e-9)

    def test_positive_with_checks_q2(self):
        for alpha in (0.01, 0.1, 0.3):
            point = r_point(
                AsymptoticQuery(
                    q=2, L=2, alpha=alpha, beta=0.05 * alpha, split=SplitPolicy.fixed((0.5, 0.5))
                )
            )
            assert point.r > 0.0

    def test_l1_chain(self):
        point = r_point(AsymptoticQuery(q=2, L=1, alpha=0.2, beta=0.05))
        assert point.feasible
        assert len(point.witness.levels) == 1


class TestSweep:
    def test_empty_grid(self):
        spec = SweepSpec(delta=0.1, alpha_grid=(), q=3, L=2)
        assert sweep(spec) == []

    def test_grid_order_and_beta(self):
        spec = SweepSpec(
            delta=0.5, alpha_grid=(0.05, 0.1), q=3, L=2,
            split=SplitPolicy.fixed((0.5, 0.5)), grid_points=9,
        )
        points = sweep(spec)
        assert [p.alpha for p in points] == [0.05, 0.1]
        assert points[0].beta == pytest.approx(0.025)
        assert points[1].beta == pytest.approx(0.05)

    def test_zero_delta_zero_stretch(self):
        spec = SweepSpec(
            delta=0.0, alpha_grid=(0.005, 0.01), q=3, L=2, grid_points=17
        )
        for point in sweep(spec):
            assert point.r <= 1e-3

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(delta=0.1, alpha_grid=(0.2, 0.1), q=3, L=2)
        with pytest.raises(DomainError):
            SweepSpec(delta=-1.0, alpha_grid=(0.1,), q=3, L=2)
