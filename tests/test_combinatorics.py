import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rma_tse.combinatorics import (
    NEG_INF,
    DomainError,
    binary_entropy,
    binomial,
    log_binomial,
    log_sum_exp,
)


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, -1) == 0
        assert binomial(4, -2) == 0
        assert binomial(-3, 1) == 0

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_symmetry(self, n, k):
        if k <= n:
            assert binomial(n, k) == binomial(n, n - k)

    @given(st.integers(1, 300), st.integers(-2, 302))
    def test_pascal_identity(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestLogBinomial:
    def test_small(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10), abs=1e-12)

    def test_out_of_range(self):
        assert log_binomial(10, 11) == NEG_INF
        assert log_binomial(-1, 0) == NEG_INF

    def test_against_exact_400_200(self):
        exact = math.log(binomial(400, 200))
        assert abs(log_binomial(400, 200) - exact) <= 1e-9 * abs(exact)

    @given(st.integers(0, 2000), st.data())
    @settings(max_examples=200)
    def test_against_exact_sampled(self, n, data):
        k = data.draw(st.integers(0, n))
        exact = math.log(binomial(n, k))
        got = log_binomial(n, k)
        # |exp(got)/C - 1| <= 1e-9 is |got - ln C| <= ~1e-9
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_exhaustive_row(self):
        n = 2000
        for k in range(0, n + 1, 37):
            exact = math.log(binomial(n, k))
            assert abs(log_binomial(n, k) - exact) <= 1e-9 * max(1.0, abs(exact))


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_clamp_window(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1 + 1e-13) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binary_entropy(-1e-6)
        with pytest.raises(DomainError):
            binary_entropy(1.0 + 1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        # NaN passed both range comparisons and came back as NaN.
        with pytest.raises(DomainError):
            binary_entropy(bad)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestLogSumExp:
    def test_two_terms(self):
        got = log_sum_exp([math.log(2), math.log(3)])
        assert got == pytest.approx(math.log(5), abs=1e-12)

    def test_empty(self):
        assert log_sum_exp([]) == NEG_INF

    def test_all_neg_inf(self):
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, 1e308, -1e308, -745.2, math.nan, NEG_INF])
    def test_one_term_is_the_loop_bit_for_bit(self, v):
        # The loop over one term: peak + log(exp(v - peak)), NEG_INF at a NEG_INF peak.
        loop = NEG_INF if v == NEG_INF else v + math.log(math.exp(v - v))
        assert log_sum_exp([v]).hex() == loop.hex()

    @pytest.mark.parametrize("terms", [[math.inf], [math.inf, 0.0], [0.0, math.inf, NEG_INF]])
    def test_inf_peak_is_inf(self, terms):
        assert log_sum_exp(terms) == math.inf

    def test_against_exact_rational_sum(self):
        # 1000 random positive rationals; oracle is the exact Fraction sum.
        import random

        rng = random.Random(20240817)
        ratios = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(1000)]
        terms = [math.log(r.numerator) - math.log(r.denominator) for r in ratios]
        total = sum(ratios, Fraction(0))
        exact = math.log(total.numerator) - math.log(total.denominator)
        assert abs(log_sum_exp(terms) - exact) <= 1e-9 * max(1.0, abs(exact))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30), st.randoms())
    @settings(max_examples=200)
    def test_permutation_invariance(self, terms, rnd):
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        assert log_sum_exp(shuffled) == pytest.approx(log_sum_exp(terms), abs=1e-12)
