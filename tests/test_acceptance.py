"""Acceptance gate: every criterion at its stated tolerance and runtime cap.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from _dense_grid import facc_grid_max, sample_shape_args
from rma_tse.acc import AccTriple, acc_iotse, acc_iotse_table, acc_iowe
from rma_tse.asymptotic import (
    AccShapeArgs,
    AsymptoticQuery,
    SplitPolicy,
    SweepSpec,
    _objective,
    f_acc,
    r_point,
    sweep,
)
from rma_tse.combinatorics import NEG_INF, binary_entropy, binomial
from rma_tse.ensemble import (
    EnsembleConfig,
    TrappingSetClass,
    ensemble_table,
    ensemble_tse,
)
from rma_tse.oracles import _harvest, _trellis_states, exhaustive_acc, graph_ensemble_average


@pytest.fixture(scope="module")
def dp_tables32():
    return {n: _harvest(n, counts) for n, counts in _trellis_states(32)}


@pytest.fixture(scope="module")
def closed_tables32():
    return {n: acc_iotse_table(n) for n in range(1, 33)}


def _report(num: int, label: str, started: float) -> None:
    print(f"PASS criterion {num}: {label} ({time.monotonic() - started:.1f}s)")


def test_criterion_01_theorem_exactness(dp_tables32, closed_tables32):
    started = time.monotonic()
    for n in range(1, 33):
        assert closed_tables32[n].entries == dp_tables32[n].entries, f"N={n}"
    for n in range(1, 13):
        assert exhaustive_acc(n).entries == dp_tables32[n].entries, f"N={n}"
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, "closed form = trellis DP (N<=32) = exhaustive (N<=12), exact", started)


def test_criterion_02_iowe_b0_reduction():
    started = time.monotonic()
    for n in range(1, 65):
        for w in range(n + 1):
            for d in range(n + 1):
                got = acc_iotse(AccTriple(n, w, d, 0))
                if w == 0:
                    expect = 1 if d == 0 else 0
                elif w % 2:
                    expect = 0
                else:
                    expect = binomial(n - d, w // 2) * binomial(d - 1, w // 2 - 1)
                assert got == expect == acc_iowe(n, w, d), (n, w, d)
    _report(2, "b=0 slice reduces to the accumulator IOWE (N<=64), exact", started)


def test_criterion_03_rowsum_identity(closed_tables32):
    started = time.monotonic()
    for n in range(1, 33):
        sums = {}
        for (a_i, a_o, b), cnt in closed_tables32[n].entries.items():
            sums[(a_i, a_o)] = sums.get((a_i, a_o), 0) + cnt
        for a_i in range(n + 1):
            for a_o in range(n + 1):
                assert sums.get((a_i, a_o), 0) == binomial(n, a_i) * binomial(n - 1, a_o)
    _report(3, "row sums count all subset pairs (N<=32), exact", started)


def test_criterion_04_ensemble_exactness():
    started = time.monotonic()
    for L in (1, 2):
        config = EnsembleConfig(q=2, K=2, L=L)
        assert ensemble_table(config) == graph_ensemble_average(config)
    assert ensemble_table(EnsembleConfig(q=2, K=2, L=1))[(1, 2)] == Fraction(5)
    elapsed = time.monotonic() - started
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(4, "composition = graph-average oracle (q=2,K=2,L in {1,2}), exact", started)


def test_criterion_05_closure_identity():
    started = time.monotonic()
    for q in range(1, 4):
        for K in range(1, 5):
            for L in range(1, 4):
                config = EnsembleConfig(q=q, K=K, L=L)
                total = sum(ensemble_table(config).values(), Fraction(0))
                assert total == 2 ** (config.K + config.L * (config.N - 1)), (q, K, L)
    _report(5, "closure: table mass = 2^(K+L(N-1)) for K<=4, q<=3, L<=3, exact", started)


def test_criterion_06_inner_optimizer():
    started = time.monotonic()

    # dense 2000x2000 feasible-grid agreement on 50 random triples
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        ai, ao, b = sample_shape_args(rng)
        grid = facc_grid_max(ai, ao, b, n=2000)
        got = f_acc(AccShapeArgs(ai, ao, b)).value
        assert abs(got - grid) <= 1e-6, (ai, ao, b, got, grid)

    # 25-restart agreement
    rng = np.random.default_rng(7)
    for ai, ao, b in [(0.2, 0.3, 0.1), (0.35, 0.45, 0.2), (0.15, 0.5, 0.05)]:
        args = AccShapeArgs(ai, ao, b)
        base = f_acc(args).value
        for _ in range(25):
            start = (rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5))
            assert abs(f_acc(args, start=start).value - base) <= 1e-9

    # concavity on 500 random chords
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        ai, ao, b = sample_shape_args(rng)
        pts = []
        tries = 0
        while len(pts) < 2 and tries < 200:
            tries += 1
            mu, nu = rng.uniform(0.0, 0.5, size=2)
            if _objective(ai, ao, b, mu, nu) > NEG_INF:
                pts.append((mu, nu))
        if len(pts) < 2:
            continue
        (m1, n1), (m2, n2) = pts
        f1 = _objective(ai, ao, b, m1, n1)
        f2 = _objective(ai, ao, b, m2, n2)
        for t in (0.25, 0.5, 0.75):
            mid = _objective(ai, ao, b, t * m1 + (1 - t) * m2, t * n1 + (1 - t) * n2)
            assert mid >= t * f1 + (1 - t) * f2 - 1e-10
        checked += 1

    # beta = 0 closed form on a 50x50 grid
    for ao in np.linspace(0.02, 0.98, 50):
        top = 2.0 * min(ao, 1.0 - ao)
        for frac in np.linspace(0.02, 0.98, 50):
            ai = frac * top
            got = f_acc(AccShapeArgs(ai, ao, 0.0)).value
            expect = (1 - ao) * binary_entropy(ai / (2 * (1 - ao))) + ao * binary_entropy(
                ai / (2 * ao)
            )
            assert abs(got - expect) <= 1e-12

    _report(6, "inner optimizer: grid 1e-6, restarts 1e-9, concavity, b=0 1e-12", started)


ALPHAS_FIG4 = tuple(round(0.01 * i, 10) for i in range(1, 31))


@pytest.fixture(scope="module")
def fig4_sweeps():
    """The three sweeps and the seconds they took (criterion 7's cap counts them)."""
    started = time.monotonic()
    out = {}
    for delta in (0.05, 0.1, 0.2):
        spec = SweepSpec(
            delta=delta, alpha_grid=ALPHAS_FIG4, q=3, L=2,
            split=SplitPolicy.fixed((0.5, 0.5)),
        )
        out[delta] = sweep(spec)
    return out, time.monotonic() - started


def _initial_slope(points) -> float:
    return (points[1].r - points[0].r) / (points[1].alpha - points[0].alpha)


def test_criterion_07_fig4_properties(fig4_sweeps):
    sweeps, setup_s = fig4_sweeps
    started = time.monotonic() - setup_s
    for delta, points in sweeps.items():
        assert all(p.r > 0.0 for p in points), f"delta={delta}"
    for lo, hi in [(0.05, 0.1), (0.1, 0.2)]:
        for p_lo, p_hi in zip(sweeps[lo], sweeps[hi]):
            assert p_hi.r >= p_lo.r - 1e-9, (p_lo.alpha, lo, hi)
    slopes = [_initial_slope(sweeps[d]) for d in (0.05, 0.1, 0.2)]
    assert slopes[0] < slopes[1] < slopes[2], slopes
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 300s"
    _report(7, "positivity, r nondecreasing in delta, slope increasing in delta", started)


def test_criterion_08_fig5_slope_ordering():
    started = time.monotonic()
    slopes = []
    for f1 in (0.0, 0.5, 1.0):
        points = [
            r_point(AsymptoticQuery(q=3, L=2, alpha=a, beta=0.1 * a,
                                    split=SplitPolicy.fixed((f1, 1.0 - f1))))
            for a in (0.01, 0.02)
        ]
        slopes.append(_initial_slope(points))
    assert slopes[0] >= slopes[1] - 1e-9 and slopes[1] >= slopes[2] - 1e-9, slopes
    _report(8, "initial slope nonincreasing in beta_1/beta at delta=0.1", started)


def test_criterion_09_fig7_properties():
    started = time.monotonic()
    slopes = {}
    knees = {}
    knee_grid = tuple(round(0.04 * i, 10) for i in range(1, 23))  # 0.04 .. 0.88
    for L in (2, 3, 4):
        split = SplitPolicy.fixed(tuple([1.0] + [0.0] * (L - 1)))
        gp = None if L == 2 else 15
        points = [
            r_point(AsymptoticQuery(q=3, L=L, alpha=a, beta=0.1 * a, split=split),
                    grid_points=gp)
            for a in (0.01, 0.02)
        ]
        slopes[L] = _initial_slope(points)
        rs = np.array([
            r_point(AsymptoticQuery(q=3, L=L, alpha=a, beta=0.1 * a, split=split),
                    grid_points=gp).r
            for a in knee_grid
        ])
        second_diff = rs[2:] - 2 * rs[1:-1] + rs[:-2]
        knees[L] = knee_grid[1:-1][int(np.argmax(second_diff))]
    assert slopes[2] > slopes[3] > slopes[4], slopes
    assert knees[2] <= knees[3] <= knees[4], knees
    _report(9, f"slope decreasing in L {slopes}, knee nondecreasing {knees}", started)


def test_criterion_10_finite_to_asymptotic():
    # alpha counts every erroneous variable node of the chain, so it runs
    # over [0, 1/q + L]: the ray (1.2, 0.12) lies past alpha = 1.
    started = time.monotonic()

    def finite_log(N: int, alpha: float, beta: float) -> float:
        """ln of the class count at the rounded target, after the minimal
        parity fix on b (+-1); NEG_INF when no such sets exist yet."""
        config = EnsembleConfig(q=3, K=N // 3, L=2)
        a0, b0 = round(alpha * N), round(beta * N)
        for b in (b0, b0 + 1, b0 - 1):
            if b < 0:
                continue
            value = ensemble_tse(config, TrappingSetClass(a0, b), mode="log").value
            if value > NEG_INF:
                return value
        return NEG_INF

    rays = {}
    for alpha, beta in ((0.1, 0.02), (1.2, 0.12)):
        r = r_point(AsymptoticQuery(q=3, L=2, alpha=alpha, beta=beta)).r
        gaps = []
        for N in (24, 48, 96):
            ln_value = finite_log(N, alpha, beta)
            gap = math.inf if ln_value == NEG_INF else abs(ln_value / N - r)
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2], (alpha, beta, gaps)
        assert gaps[2] <= 0.15, (alpha, beta, gaps)
        rays[alpha, beta] = gaps
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds 600s"
    _report(10, f"gap strictly shrinking over N in (24,48,96): {rays}", started)


def test_criterion_11_sup_dominance():
    started = time.monotonic()
    fixed_splits = [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5), (0.25, 0.75), (0.0, 1.0)]
    for delta in (0.1, 0.2):
        for alpha in (0.05, 0.1, 0.2):
            query = AsymptoticQuery(q=3, L=2, alpha=alpha, beta=delta * alpha)
            free = r_point(query).r
            for fractions in fixed_splits:
                fixed = r_point(
                    AsymptoticQuery(q=3, L=2, alpha=alpha, beta=delta * alpha,
                                    split=SplitPolicy.fixed(fractions))
                ).r
                assert free >= fixed - 1e-6, (alpha, delta, fractions, free, fixed)
    _report(11, "free split dominates every tested fixed split within 1e-6", started)
