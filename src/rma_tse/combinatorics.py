"""Exact and log-domain scalar arithmetic shared by the enumerator modules.

Counts are plain Python integers (arbitrary precision), ensemble averages are
``fractions.Fraction`` (always in lowest terms), and log-domain quantities are
floats holding natural logarithms with ``NEG_INF`` marking an exact zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "BigCount",
    "ExactRatio",
    "LogValue",
    "NEG_INF",
    "DomainError",
    "ROUNDING_TOL",
    "check_finite",
    "check_unit",
    "binomial",
    "log_binomial",
    "binary_entropy",
    "log_sum_exp",
]

# Type aliases documenting the three scalar representations.
BigCount = int
ExactRatio = Fraction
LogValue = float

NEG_INF = float("-inf")

# The package's one rounding tolerance: a value at most this far outside an
# interval lies on its end; one farther outside is not in the interval.
ROUNDING_TOL = 1e-12


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


def check_finite(name: str, x: float) -> float:
    """``x`` as a float; NaN and infinities raise ``DomainError``."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name}={x!r} is not finite")
    return x


def check_unit(name: str, x: float) -> float:
    """``x`` clamped into [0, 1]; ``DomainError`` if not finite or over ROUNDING_TOL outside."""
    x = check_finite(name, x)
    if x < -ROUNDING_TOL or x > 1.0 + ROUNDING_TOL:
        raise DomainError(f"{name}={x!r} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def binomial(n: int, k: int) -> BigCount:
    """Exact C(n, k), returning 0 for any out-of-range arguments.

    The zero convention (k < 0, k > n, or n < 0) lets summation bounds in the
    enumerators be enforced by the coefficients themselves.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def log_binomial(n: int, k: int) -> LogValue:
    """ln C(n, k) via the log-gamma function; NEG_INF when out of range."""
    if n < 0 or k < 0 or k > n:
        return NEG_INF
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binary_entropy(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x) of ``check_unit(x)``; H(0) = H(1) = 0."""
    x = check_unit("binary_entropy argument", x)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def log_sum_exp(terms: Iterable[LogValue]) -> LogValue:
    """ln(sum(exp(t))) over ``terms``, summed in the given order.

    The running sum is taken against the maximum term for stability; an empty
    sequence is an empty sum, i.e. NEG_INF.  The summation order is the input
    order, which fixes the result bit-for-bit for identical inputs.  The add
    stays a plain loop: builtin ``sum()`` compensates float sums since
    CPython 3.12 and numpy dispatches SIMD exp/log kernels, so either would
    make the log bits depend on the interpreter or the CPU.  One term v
    returns v + 0.0, which is the loop's peak + log(exp(0)), bit for bit.
    An infinite peak is the sum: ``+inf`` does not become ``nan``.
    """
    values = list(terms)
    if len(values) == 1:
        return values[0] + 0.0
    if not values:
        return NEG_INF
    peak = max(values)
    if math.isinf(peak):
        return peak
    acc = 0.0
    for v in values:
        acc += math.exp(v - peak)
    return peak + math.log(acc)
