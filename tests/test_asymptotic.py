import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_grid import facc_grid_max, sample_shape_args
from rma_tse import asymptotic
from rma_tse.asymptotic import (
    _N_SEEDS,
    AccShapeArgs,
    AsymptoticQuery,
    SplitPolicy,
    SweepSpec,
    _eval_candidate,
    _grid_resolution,
    _grid_stage,
    _mu_bounds,
    _objective,
    _peaks,
    _refine,
    _unpack,
    _upper,
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
        lo, hi = _mu_bounds(a_in, lv.alpha_o, lv.beta)
        assert lo - 1e-12 <= lv.mu <= hi + 1e-12
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
    upper = _upper(query)
    x = rng.uniform(0.05, 0.95, size=(20_000, upper.size)) * upper
    (ai, ao, b), ok = _unpack(query, x)
    room = np.minimum(ao, 1.0 - ao) - 0.5 * np.abs(ai - b)
    keep = ok & np.all(room >= 1e-3, axis=1)
    if query.split.is_free:
        keep &= b[:, -1] >= 0.05 * query.beta
    assert keep.sum() >= count
    return x[keep][:count]


class TestGradient:
    # (L, fixed fractions or None for a free split); zero shares pin mu.
    CASES = [
        (1, None), (2, None), (2, (0.3, 0.7)), (2, (1.0, 0.0)), (2, (0.0, 1.0)),
        (3, None), (3, (1.0, 0.0, 0.0)), (3, (0.2, 0.0, 0.8)),
        (4, None), (4, (1.0, 0.0, 0.0, 0.0)), (4, (0.25, 0.25, 0.25, 0.25)),
    ]

    @pytest.mark.parametrize("L, fractions", CASES)
    def test_matches_central_differences(self, L, fractions):
        rng = np.random.default_rng(100 + L)
        split = SplitPolicy.free() if fractions is None else SplitPolicy.fixed(fractions)
        for q, alpha, delta in [(3, 0.2, 0.1), (2, 0.3, 0.25), (4, 0.15, 0.2)]:
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
    upper = _upper(query)
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
        cand, values, _ = _grid_stage(query, None)
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
