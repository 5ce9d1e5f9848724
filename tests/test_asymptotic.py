import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_grid import facc_grid_max, sample_shape_args
from rma_tse import asymptotic
from rma_tse.asymptotic import (
    _GRID_MAX_ROWS,
    _N_SEEDS,
    _ROW_SOLVE_MAX,
    _SCREEN_BLOCK,
    DEFAULT_GRID_POINTS,
    AccShapeArgs,
    AsymptoticQuery,
    SplitPolicy,
    SweepSpec,
    _coords,
    _eval_candidate,
    _grid_resolution,
    _grid_stage,
    _inner,
    _layout,
    _mu_bounds,
    _objective,
    _peaks,
    _refine,
    _unpack,
    _value_and_grad,
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

    @pytest.mark.parametrize("q", [0, -2])
    def test_q_below_one(self, q):
        with pytest.raises(DomainError) as info:
            f_rep(0.5, q)
        assert str(info.value) == f"q must be >= 1, got {q}"


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

    def test_fixed_rejects_negative(self):
        with pytest.raises(DomainError) as info:
            SplitPolicy.fixed((-0.5, 1.5))
        assert str(info.value) == "split fractions must be nonnegative: (-0.5, 1.5)"


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

    def test_f_rep(self, bad):
        # NaN passed both range comparisons and came back as NaN.
        with pytest.raises(DomainError):
            f_rep(bad, 2)

    def test_f_acc_start(self, bad):
        # A NaN start gave InnerOptimum(nan, nan, nan) on a feasible set.
        with pytest.raises(DomainError, match="start"):
            f_acc(AccShapeArgs(0.2, 0.3, 0.1), start=(bad, 0.0))


# A query's checks, and the message of each; a SweepSpec runs the first
# three through the queries it builds.
BAD_QUERIES = [
    (dict(q=0, L=2), "q and L must be >= 1, got 0, 2"),
    (dict(q=3, L=0), "q and L must be >= 1, got 3, 0"),
    (dict(q=3, L=3, split=SplitPolicy.fixed((0.5, 0.5))), "split has 2 fractions, L=3"),
    (dict(q=3, L=2, alpha=-0.1), "alpha and beta must be nonnegative"),
    (dict(q=3, L=2, beta=-0.01), "alpha and beta must be nonnegative"),
]


@pytest.mark.parametrize("fields, message", BAD_QUERIES)
def test_query_rejects(fields, message):
    with pytest.raises(DomainError) as info:
        AsymptoticQuery(**{"alpha": 0.1, "beta": 0.01, **fields})
    assert str(info.value) == message


class TestGridResolution:
    def test_default_fits_budget(self):
        fixed = SplitPolicy.fixed
        assert _grid_resolution(2, fixed((0.5, 0.5)), None) == 33
        assert _grid_resolution(2, SplitPolicy.free(), None) == 33
        assert _grid_resolution(4, fixed((1.0, 0.0, 0.0, 0.0)), None) == 27
        assert _grid_resolution(3, SplitPolicy.free(), None) == 14

    def test_explicit_points_kept(self):
        assert _grid_resolution(4, SplitPolicy.free(), 7) == 7
        assert _grid_resolution(2, SplitPolicy.free(), 2) == 2
        for points in (1, 0, -5):
            with pytest.raises(DomainError, match=f"grid_points must be >= 2, got {points}"):
                _grid_resolution(2, SplitPolicy.free(), points)

    def test_ceiling(self):
        free = SplitPolicy.free()
        assert 7**7 <= _GRID_MAX_ROWS and _grid_resolution(5, free, None) == 5
        for L, grid_points, fit in [(3, 60, 18), (4, 9, 7), (1, _GRID_MAX_ROWS + 1, _GRID_MAX_ROWS),
                                    (6, None, 3)]:
            with pytest.raises(DomainError, match=f"ceiling.*; at most {fit} points per axis fit"):
                _grid_resolution(L, free, grid_points)
        with pytest.raises(DomainError, match="ceiling.*; no grid fits"):
            _grid_resolution(11, free, 2)  # 2**21 rows
        with pytest.raises(DomainError, match="ceiling"):
            SweepSpec(delta=0.1, alpha_grid=(0.1,), q=3, L=3, grid_points=60)

    def test_ceiling_before_any_grid(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a grid past the ceiling")

        monkeypatch.setattr(np, "linspace", unreachable)
        with pytest.raises(DomainError, match="ceiling"):
            r_point(AsymptoticQuery(q=3, L=3, alpha=0.1, beta=0.01), grid_points=60)


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

    @pytest.mark.parametrize("start", [None, (0.0, 0.0)])
    def test_strictly_infeasible_within_1e9(self, start):
        # mu must lie in [|alpha_i - beta| / 2, alpha_o] = [1e-9, 0]: empty.
        # A 1e-9 tolerance on that interval made this 4.34e-8.
        assert f_acc(AccShapeArgs(2e-9, 0.0, 0.0), start=start).value == NEG_INF
        # 2.5e-13 past the end is rounding: the interval is the point 2.5e-13.
        assert f_acc(AccShapeArgs(5e-13, 0.0, 0.0), start=start).feasible

    @pytest.mark.parametrize("e", [5e-13, 5.000000000000001e-13])
    def test_tiny_fractions_stay_stationary(self, e):
        # Every perspective with t <= ROUNDING_TOL drops out here, so a choice
        # among candidate mu by value jumped to mu = e, nu = 0 at the larger e.
        assert f_acc(AccShapeArgs(e, e, e)).mu == pytest.approx(2.0 * e / 3.0, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("ai", [0.5, 0.25, 0.6, 0.999986156])
    def test_double_root_at_one_half(self, ai):
        # With h = alpha_o = 1/2 the stationarity cubic is 4(1/2-mu)^2 (1/4 +
        # d^2 - mu): its root is 1/4 + d^2, and a double root sits on the
        # interval's upper end 1/2, where the expanded cubic cancels.  At
        # alpha_i = 0.999986156 the root is 1.9e-10 above the lower end,
        # and comparing candidates by value returned that end.
        b = 1.0 - ai
        d = 0.5 * (ai - b)
        args = AccShapeArgs(ai, 0.5, b)
        lo, hi = _mu_bounds(ai, 0.5, b)[:2]
        for start in (None, (lo, 0.0), (hi, 0.0), (np.nextafter(hi, 0.0), 0.0), (1.0, 0.0)):
            assert f_acc(args, start=start).mu == pytest.approx(0.25 + d * d, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ai, ao, b", [(0.25, 0.25, 0.25), (0.5, 0.5, 0.5), (0.25, 0.5, 0.75)])
    def test_starts_next_to_the_ends(self, ai, ao, b):
        # The cubic's slope vanishes at the upper end of these intervals, so
        # a step from next to it moves by less than rounding unless rejected.
        args = AccShapeArgs(ai, ao, b)
        base = f_acc(args).value
        lo, hi = _mu_bounds(ai, ao, b)[:2]
        for start in (lo, hi, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)):
            assert abs(f_acc(args, start=(start, 0.0)).value - base) <= 1e-12

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
        "double-root": (0.5, 0.5, 0.5),  # h = alpha_o = 1/2: P' = 0 at the upper end
        "alpha_o=1": (0.0, 1.0, 0.0),  # t = 1 - alpha_o = 0: s / inf, and entropy at 0
        "mu-interval-within-rounding": (1e-13, 1.0, 0.0),  # mu_lo = 5e-14 > mu_hi = 0
    }

    @pytest.mark.parametrize("ai, ao, b", BRANCH_CASES.values(), ids=BRANCH_CASES.keys())
    def test_branch_cases(self, ai, ao, b):
        args = AccShapeArgs(ai, ao, b)
        opt = f_acc(args)
        assert opt.value == pytest.approx(facc_grid_max(ai, ao, b, n=800), abs=2e-6)
        assert opt.value >= facc_grid_max(ai, ao, b, n=800, tol=0.0) - 1e-12
        assert opt.nu >= max(0.0, 0.5 * (ai + b) - ao)
        for end in _mu_bounds(ai, ao, b)[:2]:
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


def _assert_same_bits(got, want):
    # NaN in the same places and equal bits elsewhere, so -0.0 != 0.0.
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(np.where(np.isnan(got), 0.0, got).view(np.int64),
                                  np.where(np.isnan(want), 0.0, want).view(np.int64))


class TestInnerBatch:
    # Rows where a float path could part from numpy's: the double root at
    # h = alpha_o = 1/2, where P' = 0 at the upper end mu = 1/2, and rows
    # whose nu* is -0.0, which numpy's maximum turns into 0.0.
    DEGENERATE = [(0.5, 0.5, 0.5), (1e-13, 1.0, 0.0), (0.0, 1.0, 1e-13)]

    # Rows feasible within ROUNDING_TOL whose mu lies above an alpha_o (or
    # 1 - alpha_o) that is itself below ROUNDING_TOL: a perspective term is
    # infeasible and the value is NEG_INF, the early return of _row_term.
    TOLERANCE_EDGE = [(3e-12, 1e-12, 0.0), (2.5e-12, 5e-13, 0.0), (0.0, 1e-12, 3e-12),
                      (3e-12, 1.0 - 1e-12, 0.0), (1.0, 1e-12, 1.0 - 3e-12)]

    def test_tolerance_edge_rows(self):
        edge = np.array(self.TOLERANCE_EDGE)
        filler = np.random.default_rng(26).uniform(0.0, 1.0, (_ROW_SOLVE_MAX + 1 - len(edge), 3))
        ai, ao, b = np.concatenate([edge, filler]).T  # one row past the cut: the array path
        assert _mu_bounds(ai, ao, b)[2][:len(edge)].all()
        arrays = _inner(ai, ao, b)
        rows = _inner(*edge.T)  # below the cut: the row path
        for got, want in zip(rows, arrays):
            _assert_same_bits(got, want[:len(edge)])
        assert np.all(rows[2] == NEG_INF)

    def test_rows_independent_of_batch(self):
        # Grid values must not depend on how _grid_stage blocks its rows, nor
        # on which side of _ROW_SOLVE_MAX a call falls: the per-row path of
        # small calls must give the array path's bits.
        rng = np.random.default_rng(16)
        uniform = rng.uniform(0.0, 1.0, (2048, 3))
        small = 10.0 ** rng.uniform(-9.0, -1.0, (1536, 3))
        u = rng.uniform(0.0, 0.1, 512)
        infeasible = np.column_stack([u, u, 0.5 + 4.0 * u])  # |ai - b| / 2 > ao
        block = rng.permutation(np.concatenate([uniform, small, infeasible, self.DEGENERATE]))
        ai, ao, b = block.T
        feasible = _mu_bounds(ai, ao, b)[2]
        assert 0 < np.count_nonzero(feasible) < block.shape[0]
        batch = _inner(ai, ao, b)
        one_by_one = np.array([_inner(*row) for row in block]).T
        for got, row_wise in zip(batch, one_by_one):
            _assert_same_bits(row_wise, got)
        rows = block.shape[0] // 4 * 4
        # _eval_candidate solves a (rows, L) block of levels in one call.
        shaped = _inner(*(v[:rows].reshape(-1, 4) for v in (ai, ao, b)))
        for got, grid in zip(batch, shaped):
            assert grid.shape == (rows // 4, 4)
            _assert_same_bits(grid.ravel(), got[:rows])
        for size in (1, _ROW_SOLVE_MAX, _ROW_SOLVE_MAX + 1):
            pieces = [_inner(ai[i:i + size], ao[i:i + size], b[i:i + size])
                      for i in range(0, block.shape[0], size)]
            for got, pieced in zip(batch, zip(*pieces)):
                _assert_same_bits(np.concatenate(pieced), got)


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

    @pytest.mark.parametrize("alpha, beta", [
        (1e308, 1e308), (1e308, 0.1), (0.1, 1e308), (1.0 / 3 + 2 + 5e-12, 2.0), (1.0, 2 + 5e-12),
    ])
    def test_past_the_domain_is_infeasible(self, alpha, beta):
        # Every fraction of the free vector is at most 1 (each level's within
        # ROUNDING_TOL), so a feasible point has alpha <= 1/q + L and beta <= L
        # up to L * ROUNDING_TOL; past them r_point builds nothing (a layout of
        # alpha = 1e308 would overflow).  RuntimeWarnings are errors.
        query = AsymptoticQuery(q=3, L=2, alpha=alpha, beta=beta)
        _layout.cache_clear()
        point = r_point(query)
        assert point.r == NEG_INF and point.witness is None
        assert _layout.cache_info().misses == 0
        # A bad grid is refused all the same.
        with pytest.raises(DomainError) as info:
            r_point(query, grid_points=1)
        assert str(info.value) == "grid_points must be >= 2, got 1"

    def test_domain_corner(self):
        # alpha = 1/q + L and beta = L within rounding: every fraction is 1.
        for alpha, beta in [(1.0 / 3 + 2, 2.0), (1.0 / 3 + 2 + 1e-13, 2.0 + 1e-13)]:
            point = r_point(AsymptoticQuery(q=3, L=2, alpha=alpha, beta=beta), grid_points=9)
            assert point.r == 0.0 and point.witness.omega == 1.0
            assert all((lv.alpha_o, lv.beta) == (1.0, 1.0) for lv in point.witness.levels)

    def test_witness_constraints_and_value(self):
        query = AsymptoticQuery(q=3, L=2, alpha=0.12, beta=0.018)
        _check_witness(query, r_point(query))

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

    def test_l3_free_split_beats_grid_and_fixed_splits(self):
        # Grid seeds on the boundary (the corner omega = alpha_o = beta_l = 0
        # among them) must be refined from a feasible start, and the answer
        # must not fall below the best grid point.
        query = AsymptoticQuery(q=3, L=3, alpha=0.1, beta=0.01)
        point = r_point(query)
        assert math.isfinite(point.r)
        assert point.r >= _grid_stage(query, None)[1].max()
        for fractions in [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)]:
            fixed = r_point(AsymptoticQuery(q=3, L=3, alpha=0.1, beta=0.01,
                                            split=SplitPolicy.fixed(fractions)))
            assert point.r >= fixed.r - 1e-6, fractions
        _check_witness(query, point)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_l4_free_split_refines(self, alpha):
        # Every feasible point of the 6-per-axis grid has omega = 0, so the
        # centroid of the feasible grid points has no room; SLSQP must start
        # from a strictly feasible point all the same.
        query = AsymptoticQuery(q=3, L=4, alpha=alpha, beta=0.1 * alpha)
        point = r_point(query)
        assert point.r > _grid_stage(query, None)[1].max() + 1e-5
        if alpha == 0.2:
            assert point.r >= 0.0953475 - 1e-7
        for fractions in [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.25,) * 4]:
            fixed = r_point(AsymptoticQuery(q=3, L=4, alpha=alpha, beta=0.1 * alpha,
                                            split=SplitPolicy.fixed(fractions)))
            assert point.r >= fixed.r - 1e-6, fractions
        _check_witness(query, point)

    @pytest.mark.parametrize("grid_points", [2, 3])
    def test_coarse_grid_refines_from_corner(self, grid_points):
        # The only grid peak is the origin and the centre is the LP point
        # (5e-4, 5e-4, 5e-4): a margin of 1e-9 of its slack, 5e-13, pulled
        # the seed to where the inner solve drops level 1, the first gradient
        # was NaN and SLSQP stopped at r = 0.00628045221.
        query = AsymptoticQuery(q=3, L=2, alpha=0.01, beta=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            point = r_point(query, grid_points=grid_points)
        assert point.r >= r_point(query, grid_points=5).r - 1e-9
        assert point.r >= 0.00628671469 - 1e-9
        _check_witness(query, point)


class TestPeaks:
    @staticmethod
    def _grid(rows):
        grid = np.array(rows, dtype=float)
        return grid.ravel(), grid.shape

    def test_one_peak(self):
        i, j = np.indices((5, 6))
        values = -((i - 2.0) ** 2 + (j - 4.0) ** 2)
        assert _peaks(values.ravel(), values.shape).tolist() == [2 * 6 + 4]

    def test_two_peaks_best_first(self):
        values, shape = self._grid([[3, 1, 0, 1, 2],
                                    [1, 0, 0, 0, 1]])
        assert _peaks(values, shape).tolist() == [0, 4]

    def test_plateau_tie_keeps_both(self):
        values, shape = self._grid([[0, 1, 1, 0],
                                    [0, 0, 0, 0]])
        assert _peaks(values, shape).tolist() == [1, 2]

    def test_diagonal_neighbour_beats(self):
        # The centre beats its four axis neighbours but not the corner.
        values, shape = self._grid([[6, 1, 0],
                                    [1, 5, 1],
                                    [0, 1, 0]])
        assert _peaks(values, shape).tolist() == [0]

    def test_single_feasible_point(self):
        values = np.full(4 * 4 * 3, NEG_INF)
        values[29] = -7.0
        assert _peaks(values, (4, 4, 3)).tolist() == [29]
        assert _peaks(np.full(9, NEG_INF), (3, 3)).size == 0

    def test_one_point_axis(self):
        # A box whose upper end is 0 has one point on that axis.
        values, shape = self._grid([[[1, 0, 2]], [[0, 0, 1]], [[4, 0, 0]]])
        assert shape == (3, 1, 3)
        assert _peaks(values, shape).tolist() == [6, 2, 0]

    def test_capped_at_seed_count(self):
        # 25 isolated peaks at even (i, j), values rising with the index.
        values = np.zeros((9, 9))
        values[::2, ::2] = np.arange(1.0, 26.0).reshape(5, 5)
        best = np.sort(values.ravel())[::-1][:_N_SEEDS]
        peaks = _peaks(values.ravel(), values.shape)
        assert peaks.size == _N_SEEDS
        assert values.ravel()[peaks].tolist() == best.tolist()


def _free_vector(query, point):
    """The free vector of ``r_point``'s search at the point's witness."""
    w = point.witness
    x = [w.omega] + [lv.alpha_o for lv in w.levels[:-1]]
    if query.split.is_free:
        x += [lv.beta for lv in w.levels[:-1]]
    return np.array(x)


def _check_witness(query, point):
    """The witness meets every constraint of the outer problem and gives r."""
    w = point.witness
    assert 0.0 <= w.omega <= 1.0
    assert abs(w.omega / query.q + sum(lv.alpha_o for lv in w.levels) - query.alpha) <= 1e-10
    assert abs(sum(lv.beta for lv in w.levels) - query.beta) <= 1e-10
    if not query.split.is_free:
        for lv, f in zip(w.levels, query.split.fractions):
            assert abs(lv.beta - f * query.beta) <= 1e-10
    total = f_rep(w.omega, query.q) - binary_entropy(w.omega)
    a_in = w.omega
    for i, lv in enumerate(w.levels):
        assert 0.0 <= lv.alpha_o <= 1.0 and 0.0 <= lv.beta <= 1.0
        lo, hi, feasible = _mu_bounds(a_in, lv.alpha_o, lv.beta)
        assert feasible and lo - 1e-12 <= lv.mu <= hi + 1e-12
        half = 0.5 * (a_in + lv.beta)
        assert max(0.0, half - lv.alpha_o) - 1e-12 <= lv.nu
        assert lv.nu <= min(1.0 - lv.alpha_o - lv.mu, half - lv.mu) + 1e-12
        total += _objective(a_in, lv.alpha_o, lv.beta, lv.mu, lv.nu)
        if i < query.L - 1:
            total -= binary_entropy(lv.alpha_o)
        a_in = lv.alpha_o
    assert total == pytest.approx(point.r, abs=1e-9)


def _interior_points(query, rng, count):
    """Random free vectors well inside the feasible polytope."""
    upper = _layout(query)[2]
    x = rng.uniform(0.05, 0.95, size=(20_000, upper.size)) * upper
    (ai, ao, b), ok = _unpack(query, x)
    room = np.minimum(ao, 1.0 - ao) - 0.5 * np.abs(ai - b)
    keep = ok & np.all(room >= 1e-3, axis=1)
    if query.split.is_free:
        keep &= b[:, -1] >= 0.05 * query.beta
    assert keep.sum() >= count
    return x[keep][:count]


class TestLevelMap:
    """``_layout``: the level map, the box and the polytope of a query."""

    QUERY = AsymptoticQuery(q=3, L=2, alpha=0.1, beta=0.01)

    def test_built_once_per_query(self, monkeypatch):
        # The grid, the refinement and every evaluation of an r_point read
        # its query's one layout.
        stages = []
        for name in ("_grid_stage", "_refine"):
            stage = getattr(asymptotic, name)
            monkeypatch.setattr(asymptotic, name,
                                lambda *args, stage=stage: stages.append(stage.__name__) or stage(*args))
        _layout.cache_clear()
        r_point(self.QUERY)
        assert stages == ["_grid_stage", "_refine"]
        assert _layout.cache_info().misses == 1

    def test_read_only(self):
        # The one layout of a query is shared by every caller.
        layout = _layout(self.QUERY)
        assert len(layout) == 6
        for array in layout:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


class TestGradient:
    # (L, fixed fractions or None for a free split); zero shares pin mu.
    CASES = [
        (1, None), (2, None), (2, (0.3, 0.7)), (2, (1.0, 0.0)), (2, (0.0, 1.0)),
        (3, None), (3, (1.0, 0.0, 0.0)), (3, (0.2, 0.0, 0.8)),
        (4, None), (4, (1.0, 0.0, 0.0, 0.0)), (4, (0.25, 0.25, 0.25, 0.25)),
    ]

    # A level that takes every check (beta = 1) has its mu pinned at 1-h = |d|.
    BETA_ONE = [(1, None), (2, (1.0, 0.0))]

    @pytest.mark.parametrize("L, fractions", CASES)
    def test_matches_central_differences(self, L, fractions):
        self._check(L, fractions, [(3, 0.2, 0.1), (2, 0.3, 0.25), (4, 0.15, 0.2)])

    @pytest.mark.parametrize("L, fractions", BETA_ONE)
    def test_beta_one_matches_central_differences(self, L, fractions):
        self._check(L, fractions, [(1, 1.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 1.0)])

    @staticmethod
    def _check(L, fractions, shapes):
        rng = np.random.default_rng(100 + L)
        split = SplitPolicy.free() if fractions is None else SplitPolicy.fixed(fractions)
        for q, alpha, delta in shapes:
            query = AsymptoticQuery(q=q, L=L, alpha=alpha, beta=delta * alpha, split=split)
            for x in _interior_points(query, rng, 3):
                value, grad = _value_and_grad(query, x)
                assert value == _eval_candidate(query, x[None, :])[0][0]
                step = 1e-6
                central = np.empty_like(x)
                for j in range(x.size):
                    e = np.zeros_like(x)
                    e[j] = step
                    ends = _eval_candidate(query, np.stack([x + e, x - e]))[0]
                    central[j] = (ends[0] - ends[1]) / (2.0 * step)
                np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_beta_one_reaches_dense_search(q):
    # With L = 1 and beta = 1 the free vector is omega alone; refinement must
    # reach the best of a dense grid of it.
    query = AsymptoticQuery(q=q, L=1, alpha=1.0, beta=1.0)
    omega = np.linspace(0.0, _layout(query)[2][0], 200_001)[:, None]
    assert r_point(query).r >= _eval_candidate(query, omega)[0].max() - 1e-10


def _figure_queries():
    """The asymptotic queries of the figure workload: sweep, free, deep."""
    fixed = SplitPolicy.fixed
    lo, hi, steps = 0.02, 0.3, 10
    out = [(AsymptoticQuery(q=3, L=2, alpha=a, beta=0.1 * a, split=fixed((0.5, 0.5))), None)
           for a in (lo + i * (hi - lo) / (steps - 1) for i in range(steps))]
    out += [(AsymptoticQuery(q=3, L=2, alpha=a, beta=0.1 * a), None) for a in (0.05, 0.1, 0.2)]
    out.append((AsymptoticQuery(q=3, L=3, alpha=0.1, beta=0.01, split=fixed((1.0, 0.0, 0.0))),
                None))
    out.append((AsymptoticQuery(q=3, L=4, alpha=0.1, beta=0.01,
                                split=fixed((1.0, 0.0, 0.0, 0.0))), 15))
    return out


@pytest.mark.parametrize("query, grid_points", _figure_queries())
def test_witness_is_stationary(query, grid_points):
    point = r_point(query, grid_points=grid_points)
    x = _free_vector(query, point)
    _, grad = _value_and_grad(query, x)
    upper = _layout(query)[2]
    inside = (x > 1e-6 * upper) & (x < (1.0 - 1e-6) * upper)
    assert inside.any()
    assert np.all(np.abs(grad[inside]) <= 1e-5), grad


@pytest.mark.parametrize("query, grid_points", _figure_queries())
def test_one_refinement_per_peak(query, grid_points, monkeypatch):
    # The best grid points of a fixed split sit on one peak: one SLSQP run.
    runs, minimize = [], asymptotic.minimize

    def counting(*args, **kwargs):
        runs.append(None)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(asymptotic, "minimize", counting)
    r_point(query, grid_points=grid_points)
    assert 1 <= len(runs) <= _N_SEEDS
    if not query.split.is_free:
        assert len(runs) == 1


_SPLIT_WEIGHTS = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)


def _fixed_split(L, weights):
    shares = weights[:L]
    total = sum(shares)
    if total == 0.0:
        shares, total = [1.0] * L, float(L)
    return SplitPolicy.fixed(tuple(w / total for w in shares))


def _candidates(axes):
    """The full candidate matrix of a grid: one row per grid point, in C order."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _unscreened(query, cand):
    """Grid values with every row evaluated, as before the polytope screen."""
    values = np.full(cand.shape[0], NEG_INF)
    for start in range(0, cand.shape[0], 512):
        rows = slice(start, start + 512)
        ok = _unpack(query, cand[rows])[1]
        values[rows][ok] = _eval_candidate(query, cand[rows][ok])[0]
    return values


def _assert_screen_exact(query, grid_points=None):
    axes, values, shape = _grid_stage(query, grid_points)
    cand = _candidates(axes)
    assert cand.shape == (math.prod(shape), _layout(query)[2].size)
    assert np.array_equal(_coords(axes, np.arange(cand.shape[0])), cand)
    assert np.array_equal(values, _unscreened(query, cand))


class TestGridScreen:
    """The polytope screen of ``_grid_stage`` only prunes: values are bit-identical."""

    @pytest.mark.parametrize("query, grid_points", _figure_queries())
    def test_figure_queries(self, query, grid_points):
        _assert_screen_exact(query, grid_points)

    EDGE_CASES = {
        "free-L3": AsymptoticQuery(q=3, L=3, alpha=0.1, beta=0.01),
        "free-L4": AsymptoticQuery(q=3, L=4, alpha=0.1, beta=0.01),
        "L1": AsymptoticQuery(q=2, L=1, alpha=0.2, beta=0.05),
        "L1-q-alpha-over-1": AsymptoticQuery(q=4, L=1, alpha=0.6, beta=0.3),
        "q-alpha-over-1": AsymptoticQuery(q=4, L=2, alpha=0.3, beta=0.03),
        "q-alpha-over-1-fixed": AsymptoticQuery(q=2, L=3, alpha=0.7, beta=0.35,
                                                split=SplitPolicy.fixed((0.5, 0.25, 0.25))),
        "beta-over-alpha": AsymptoticQuery(q=3, L=2, alpha=0.1, beta=0.15),
        "beta-over-alpha-free-L3": AsymptoticQuery(q=2, L=3, alpha=0.1, beta=0.3),
        "infeasible": AsymptoticQuery(q=2, L=2, alpha=0.1, beta=3.0),
        "zero-share-L2": AsymptoticQuery(q=3, L=2, alpha=0.1, beta=0.02,
                                         split=SplitPolicy.fixed((0.0, 1.0))),
        "zero-shares-L4": AsymptoticQuery(q=3, L=4, alpha=0.2, beta=0.04,
                                          split=SplitPolicy.fixed((0.0, 0.5, 0.0, 0.5))),
        "origin": AsymptoticQuery(q=3, L=2, alpha=0.0, beta=0.0),
    }

    @pytest.mark.parametrize("query", EDGE_CASES.values(), ids=EDGE_CASES.keys())
    def test_edge_cases(self, query):
        _assert_screen_exact(query)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(L=st.integers(1, 4), free=st.booleans(), q=st.integers(1, 4),
           alpha=st.floats(0.0, 1.0), delta=st.floats(0.0, 1.0),
           weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           grid_points=st.sampled_from([None, 5, 9]))
    def test_random_queries(self, L, free, q, alpha, delta, weights, grid_points):
        split = SplitPolicy.free() if free else _fixed_split(L, weights)
        if (grid_points or DEFAULT_GRID_POINTS) ** (L + (L - 1 if free else 0)) > 40_000:
            grid_points = 5  # the large grids are covered above; keep examples fast
        query = AsymptoticQuery(q=q, L=L, alpha=alpha, beta=delta * alpha, split=split)
        _assert_screen_exact(query, grid_points)

    @pytest.mark.parametrize("query, grid_points",
                             _figure_queries() + [(EDGE_CASES["free-L3"], None)])
    def test_only_feasible_rows_reach_inner_solve(self, query, grid_points, monkeypatch):
        rows, inner = [], asymptotic._inner

        def counting(ai, ao, b):
            rows.append(np.shape(ai)[0])
            return inner(ai, ao, b)

        monkeypatch.setattr(asymptotic, "_inner", counting)
        values = _grid_stage(query, grid_points)[1]
        # Fails without the screen: 18,513 rows against 4,262 feasible ones
        # on the free L=2 query at alpha = 0.1.
        assert max(rows) <= _SCREEN_BLOCK
        assert sum(rows) == np.count_nonzero(values > NEG_INF)

    def test_holds_no_full_grid(self):
        # 279,936 rows on 7 axes; the grid stage peaked at 34.2 MiB when it
        # built the candidate matrix and the meshgrid arrays.
        tracemalloc.start()
        try:
            axes, values, _ = _grid_stage(self.EDGE_CASES["free-L4"], None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (values.size, len(axes)) == (279_936, 7)
        assert peak < values.size * len(axes) * np.dtype(float).itemsize

    def test_peaks_holds_two_grid_copies(self):
        # The neighbourhood maxima and one axis's copy at a time.  With the
        # previous axis's copy alive while the next was made, the peak was
        # three grid sizes (44.7 MiB on the free L=5 default grid).
        _, values, shape = _grid_stage(self.EDGE_CASES["free-L4"], None)
        tracemalloc.start()
        try:
            _peaks(values, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * values.nbytes


class TestRPointProperties:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(L=st.sampled_from([2, 3]), alpha=st.floats(0.02, 0.3),
           delta=st.floats(0.02, 0.3), weights=_SPLIT_WEIGHTS)
    def test_free_split_dominates_fixed(self, L, alpha, delta, weights):
        free_query = AsymptoticQuery(q=3, L=L, alpha=alpha, beta=delta * alpha)
        fixed_query = AsymptoticQuery(q=3, L=L, alpha=alpha, beta=delta * alpha,
                                      split=_fixed_split(L, weights))
        free, fixed = r_point(free_query), r_point(fixed_query)
        assert free.r >= fixed.r - 1e-6
        _check_witness(free_query, free)
        _check_witness(fixed_query, fixed)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(L=st.sampled_from([2, 3]), free=st.booleans(), alpha=st.floats(0.02, 0.3),
           deltas=st.lists(st.floats(0.0, 0.2), min_size=2, max_size=2, unique=True))
    def test_r_nondecreasing_in_delta(self, L, free, alpha, deltas):
        split = SplitPolicy.free() if free else SplitPolicy.fixed((1.0 / L,) * L)
        low, high = (
            r_point(AsymptoticQuery(q=3, L=L, alpha=alpha, beta=d * alpha, split=split))
            for d in sorted(deltas)
        )
        assert high.r >= low.r - 1e-9

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(L=st.sampled_from([2, 3]), free=st.booleans(), q=st.integers(2, 4),
           alpha=st.floats(0.005, 0.9), delta=st.floats(0.0, 0.5), weights=_SPLIT_WEIGHTS)
    def test_witness_meets_constraints(self, L, free, q, alpha, delta, weights):
        split = SplitPolicy.free() if free else _fixed_split(L, weights)
        query = AsymptoticQuery(q=q, L=L, alpha=alpha, beta=delta * alpha, split=split)
        point = r_point(query, grid_points=9)
        if point.feasible:
            _check_witness(query, point)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(L=st.sampled_from([2, 3]), free=st.booleans(), alpha=st.floats(0.02, 0.3),
           delta=st.floats(0.0, 0.3), weights=_SPLIT_WEIGHTS)
    def test_no_worse_than_best_points_as_seeds(self, L, free, alpha, delta, weights):
        # The seed rule the peaks replaced: SLSQP from the 8 best grid points.
        split = SplitPolicy.free() if free else _fixed_split(L, weights)
        query = AsymptoticQuery(q=3, L=L, alpha=alpha, beta=delta * alpha, split=split)
        axes, values, _ = _grid_stage(query, None)
        cand = _candidates(axes)
        feasible = values > NEG_INF
        best = np.argsort(-values, kind="stable")[: min(8, int(feasible.sum()))]
        ends = _refine(query, cand[best], cand[feasible].mean(axis=0))
        old = _eval_candidate(query, np.concatenate([cand[best[:1]], ends]))[0].max()
        assert r_point(query).r >= old - 1e-10


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

    @pytest.mark.parametrize("L, split, grid_points, resolved", [
        (2, SplitPolicy.fixed((1.0, 0.0)), None, 33),
        (4, SplitPolicy.fixed((1.0, 0.0, 0.0, 0.0)), None, 27),
        (3, SplitPolicy.free(), None, 14),
        (2, SplitPolicy.free(), 15, 15),
    ])
    def test_spec_resolves_grid(self, L, split, grid_points, resolved):
        spec = SweepSpec(delta=0.1, alpha_grid=(0.1,), q=3, L=L, split=split,
                         grid_points=grid_points)
        assert type(spec.grid_points) is int and spec.grid_points == resolved

    def test_resolved_grid_is_the_default_grid(self):
        split = SplitPolicy.fixed((0.5, 0.5))
        spec = SweepSpec(delta=0.1, alpha_grid=(0.05, 0.1), q=3, L=2, split=split)
        assert sweep(spec) == [
            r_point(AsymptoticQuery(q=3, L=2, alpha=alpha, beta=0.1 * alpha, split=split))
            for alpha in spec.alpha_grid
        ]

    def test_zero_delta_zero_stretch(self):
        spec = SweepSpec(
            delta=0.0, alpha_grid=(0.005, 0.01), q=3, L=2, grid_points=17
        )
        for point in sweep(spec):
            assert point.r <= 1e-3

    @pytest.mark.parametrize("fields, message", BAD_QUERIES[:3])
    def test_spec_checks_its_queries_when_built(self, fields, message):
        with pytest.raises(DomainError) as info:
            SweepSpec(delta=0.1, alpha_grid=(0.1, 0.2), **fields)
        assert str(info.value) == message

    def test_sweep_runs_the_spec_queries(self, monkeypatch):
        split = SplitPolicy.fixed((0.5, 0.5))
        spec = SweepSpec(delta=0.5, alpha_grid=(0.05, 0.1), q=3, L=2, split=split)
        assert spec.queries == tuple(AsymptoticQuery(3, 2, a, 0.5 * a, split) for a in (0.05, 0.1))
        assert "queries" not in repr(spec)
        calls = []
        monkeypatch.setattr(asymptotic, "r_point", lambda *args, **kw: calls.append((args, kw)))
        assert sweep(spec) == [None, None]
        assert calls == [((query,), {"grid_points": 33}) for query in spec.queries]

    @pytest.mark.parametrize("alpha, message", [
        (-0.1, "alpha and beta must be nonnegative"),
        (-1e-13, "alpha and beta must be nonnegative"),
        (math.nan, "alpha=nan is not finite"),
        (math.inf, "alpha=inf is not finite"),
        (-math.inf, "alpha=-inf is not finite"),
    ])
    def test_alpha_outside_query_domain(self, alpha, message):
        # The query judges each alpha, wherever it sits in the grid.
        for grid in ((alpha,), (0.05, alpha), (alpha, 0.05)):
            with pytest.raises(DomainError) as info:
                SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=2)
            assert str(info.value) == message

    @pytest.mark.parametrize("grid", [(2.0,), (0.5, 2.0), (2.0, math.nan)])
    def test_overflowing_beta_names_delta_and_alpha(self, grid):
        # 1e308 * 2.0 overflows; the message names what was typed, not beta=inf.
        with pytest.raises(DomainError) as info:
            SweepSpec(delta=1e308, alpha_grid=grid, q=3, L=2)
        assert str(info.value) == "beta = delta * alpha overflows at delta=1e+308, alpha=2.0"

    def test_infinite_alpha_is_named_before_beta(self):
        with pytest.raises(DomainError) as info:
            SweepSpec(delta=1e308, alpha_grid=(0.5, math.inf), q=3, L=2)
        assert str(info.value) == "alpha=inf is not finite"

    # Each id names the refusal a sweep's own (0, 1] rule once gave this
    # alpha; the query's domain [0, 1/q + L] takes it.
    @pytest.mark.parametrize("alpha", [
        pytest.param(0.0, id="0.0-alpha grid values must lie in (0, 1]"),
        pytest.param(1.0 + 2e-12, id="1.000000000002-alpha=1.000000000002 outside [0, 1]"),
        pytest.param(1.5, id="1.5-alpha=1.5 outside [0, 1]"),
    ])
    def test_alpha_outside_unit_interval(self, alpha):
        spec = SweepSpec(delta=0.1, alpha_grid=(alpha,), q=3, L=2, grid_points=9)
        assert spec.alpha_grid == (alpha,)
        assert sweep(spec) == [r_point(AsymptoticQuery(3, 2, alpha, 0.1 * alpha), grid_points=9)]

    def test_alpha_within_rounding_of_one_is_one(self):
        # A grid computed up to 1 may end just above 1: every alpha keeps its
        # bits, and the last row is alpha = 1's up to rounding.
        grid = (5e-324, 0.3, 1.0 - 2.0**-53, 1.0 + 1e-13)
        spec = SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=1)
        assert spec.alpha_grid == grid
        assert (spec.queries[-1].alpha, spec.queries[-1].beta) == (grid[-1], 0.1 * grid[-1])
        one = r_point(AsymptoticQuery(q=3, L=1, alpha=1.0, beta=0.1))
        assert r_point(spec.queries[-1]).r == pytest.approx(one.r, rel=0.0, abs=1e-9)

    def test_alpha_takes_the_query_rule(self):
        # alpha runs over [0, 1/q + L]: alphas past 1 sweep as r_point solves
        # them, each keeps its bits, and an alpha past 1/q + L is an
        # infeasible row that does not abort the sweep.
        grid = (0.05, 1.0 + 1e-13, 1.2, 2.5)
        spec = SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=2, grid_points=9)
        assert spec.alpha_grid == grid
        points = sweep(spec)
        assert points == [r_point(AsymptoticQuery(3, 2, a, 0.1 * a), grid_points=9) for a in grid]
        assert [p.alpha for p in points] == list(grid)
        assert all(p.feasible and p.witness is not None for p in points[:-1])
        assert points[-1].r == NEG_INF and points[-1].witness is None

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(delta=0.1, alpha_grid=(0.2, 0.1), q=3, L=2)
        with pytest.raises(DomainError):
            SweepSpec(delta=-1.0, alpha_grid=(0.1,), q=3, L=2)
