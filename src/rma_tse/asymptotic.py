"""Asymptotic spectral shape of trapping sets in repeat-accumulate chains.

With a = alpha*N, b = beta*N and N -> infinity, Stirling's approximation
turns each binomial of the finite-length enumerators into an entropy term,
so the normalized log count becomes a constrained maximization:

    r(alpha, beta) = sup  H(omega)/q + sum_l f_acc(level l)
                          - H(omega) - sum_{l<L} H(alpha_o_l)

over omega in [0, 1], nonnegative per-level output fractions with
alpha = omega/q + sum_l alpha_o_l, and a split of beta over the levels.
The first level's input fraction equals omega, later levels chain
alpha_i_l = alpha_o_{l-1}.

``f_acc`` is the per-accumulator shape: a supremum of five entropy
perspectives over normalized type-2/type-1 event fractions (mu, nu).  The
objective is concave in (mu, nu) (sum of perspectives of a concave
function), the nu-maximization has a closed-form stationary point, and the
stationarity condition of the remaining one-dimensional problem in mu is a
cubic with exactly one root in the feasible interval, which a bracketed
Newton iteration finds: in arrays for many levels at once, or one level at a
time in Python floats where a call has too few levels for numpy's per-call
cost to pay, with results bit-identical to the arrays'.  The outer problem
is low-dimensional: its feasible set is a polytope in (omega, alpha_o_l,
beta_l), and it is searched by a deterministic coarse grid followed by one
SLSQP run from each of the best peaks of the grid (grid points that no
neighbour beats), so that each local maximum the grid resolves is refined
once.  The grid is never held whole: its points are made from its axes a
block at a time and screened against the polytope's inequalities, so that
only the feasible ones, mostly a small share of the grid, reach the inner
solve; one description of the polytope serves the grid, the refinement and
its interior point.  SLSQP gets the gradient in closed
form: by the envelope theorem the partials of f_acc are those of the inner
objective at its optimum, logarithms of the optimal fractions.  The search
is reproducible, but its witness is not certified globally optimal, and it
is stationary only as far as SLSQP's ``ftol`` stop makes it: with a free
split at L = 4, witnesses that SLSQP reported as converged were measured
with a largest box-interior gradient component of 1.6e-5 to 2.8e-4
(q = 4, alpha = 0.05, delta = 0.1 for the largest).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import entr

from .combinatorics import (NEG_INF, ROUNDING_TOL, DomainError, binary_entropy,
                            check_finite, check_unit)

__all__ = [
    "SplitPolicy",
    "AccShapeArgs",
    "InnerOptimum",
    "AsymptoticQuery",
    "LevelWitness",
    "OptimizerWitness",
    "AsymptoticPoint",
    "SweepSpec",
    "f_rep",
    "f_acc",
    "r_point",
    "sweep",
    "DEFAULT_GRID_POINTS",
]

DEFAULT_GRID_POINTS = 33
# The coarse stage caps its total candidate count; per-dimension resolution
# is reduced below DEFAULT_GRID_POINTS only when the dimension count forces it.
_GRID_BUDGET = 600_000
# Rows of the coarse grid per block: bounds the block's coordinates, its
# slack matrix and the inner solve of its feasible rows.  4,096 rows ran the
# grid about 5% faster at free L=3 but raised the figure queries' peak RSS
# by 6 MiB, from inner solves of up to 2,513 feasible rows (free L=2).
_SCREEN_BLOCK = 1024
# A grid point that the inner solve counts as feasible meets every row of
# the polytope of ``_layout`` to within 6 tolerances (ROUNDING_TOL): ``_unpack`` accepts
# levels up to one outside [0, 1] and clips them, which moves a row such as
# 2 alpha_o - (alpha_i - beta) by at most 4, and ``_inner`` accepts
# |alpha_i - beta| / 2 <= min(alpha_o, 1 - alpha_o) + ROUNDING_TOL on the
# clipped levels, 2 more.  A seventh covers the rounding of the two ways of
# computing the levels.  So the screen only prunes.
_SCREEN_SLACK = 7 * ROUNDING_TOL
# The coarse grid may have at most this many rows (points per free dimension
# to the power of the dimension count), which every default grid up to a
# free split at L=5 (5**9 rows) meets.  Measured on a 2-vCPU machine, an
# r_point on a grid of about this size took at most 13 s, where half or all
# of the rows are feasible (L=1 and L=2), and at most 155 MiB (L=1).
_GRID_MAX_ROWS = 2_000_000
_N_SEEDS = 8   # at most this many grid peaks, the best ones, are refined by SLSQP
# SLSQP keeps this fraction of each constraint's slack at an interior
# point, so that it evaluates no point on the boundary, where entropy
# slopes are infinite.
_SHRINK = 1e-9
# An inner solve of at most this many rows runs row by row in Python floats
# (``_inner_row``), a larger one in arrays.  Measured on a 2-vCPU machine on
# feasible uniform rows (best of 15 x 50 calls), the array path took
# 170-200 us whatever the count from 8 to 40 rows, the per-row path about
# 6.5 us a row: 8 rows 56 us against 170-195, 28 rows 177-186 us against
# 192-200, 32 rows 204-211 us against 192-198, 48 rows 307 us against 196.
_ROW_SOLVE_MAX = 32


@dataclass(frozen=True)
class SplitPolicy:
    """How the unsatisfied-check fraction beta is split over the levels.

    ``fractions is None`` leaves the split free (part of the supremum);
    otherwise beta_l = fractions[l] * beta with the fractions summing to 1.
    """

    fractions: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.fractions is not None:
            fr = tuple(check_finite("split fraction", f) for f in self.fractions)
            if any(f < -ROUNDING_TOL for f in fr):
                raise DomainError(f"split fractions must be nonnegative: {fr}")
            if abs(sum(fr) - 1.0) > 1e-9:
                raise DomainError(f"split fractions must sum to 1: {fr}")
            object.__setattr__(self, "fractions", fr)

    @classmethod
    def free(cls) -> "SplitPolicy":
        return cls(None)

    @classmethod
    def fixed(cls, fractions: Sequence[float]) -> "SplitPolicy":
        return cls(tuple(fractions))

    @property
    def is_free(self) -> bool:
        return self.fractions is None

    def describe(self) -> str:
        if self.is_free:
            return "free"
        return "fixed:" + ",".join(format(f, ".9g") for f in self.fractions)


@dataclass(frozen=True)
class AccShapeArgs:
    """Normalized input/output/unsatisfied-check fractions of one level."""

    alpha_i: float
    alpha_o: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha_i", "alpha_o", "beta"):
            object.__setattr__(self, name, check_unit(name, getattr(self, name)))


@dataclass(frozen=True)
class InnerOptimum:
    """Maximizing event fractions of one level and the attained value."""

    mu: float
    nu: float
    value: float

    @property
    def feasible(self) -> bool:
        return self.value > NEG_INF


@dataclass(frozen=True)
class AsymptoticQuery:
    """One point (alpha, beta) of the shape of the (q, L) chain, with a split.

    alpha and beta must be finite and nonnegative.  alpha counts every
    erroneous variable node of the chain, so its domain is [0, 1/q + L],
    and beta's is [0, L]; ``r_point`` answers a query past them as
    infeasible.
    """

    q: int
    L: int
    alpha: float
    beta: float
    split: SplitPolicy = SplitPolicy.free()

    def __post_init__(self) -> None:
        if self.q < 1 or self.L < 1:
            raise DomainError(f"q and L must be >= 1, got {self.q}, {self.L}")
        check_finite("alpha", self.alpha)
        check_finite("beta", self.beta)
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("alpha and beta must be nonnegative")
        if not self.split.is_free and len(self.split.fractions) != self.L:
            raise DomainError(
                f"split has {len(self.split.fractions)} fractions, L={self.L}"
            )


@dataclass(frozen=True)
class LevelWitness:
    alpha_o: float
    beta: float
    mu: float
    nu: float


@dataclass(frozen=True)
class OptimizerWitness:
    omega: float
    levels: Tuple[LevelWitness, ...]


@dataclass(frozen=True)
class AsymptoticPoint:
    alpha: float
    beta: float
    r: float
    witness: Optional[OptimizerWitness]

    @property
    def feasible(self) -> bool:
        return self.r > NEG_INF


@dataclass(frozen=True)
class SweepSpec:
    """A constant-ratio slice: beta = delta * alpha along an alpha grid.

    The spec checks the whole sweep when it is built, so a bad one fails
    before any point is solved.  ``queries`` holds one ``AsymptoticQuery(q,
    L, alpha, delta * alpha, split)`` per alpha of the grid as given, in grid
    order, whose own checks cover q, L, the split and each alpha (finite and
    nonnegative; ``r_point`` answers one past the query's domain as
    infeasible); an empty grid has none.  A finite alpha whose beta = delta
    * alpha overflows is refused with both factors named.  The grid must be
    strictly increasing.  ``grid_points`` holds the resolved points per
    axis of every ``r_point`` coarse grid (``_grid_resolution``), also where
    it was given as ``None``.
    """

    delta: float
    alpha_grid: Tuple[float, ...]
    q: int
    L: int
    split: SplitPolicy = SplitPolicy.free()
    grid_points: Optional[int] = None
    queries: Tuple[AsymptoticQuery, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if check_finite("delta", self.delta) < 0:
            raise DomainError(f"delta must be nonnegative, got {self.delta}")
        grid = tuple(self.alpha_grid)

        def query(alpha: float) -> AsymptoticQuery:
            beta = self.delta * alpha
            if math.isfinite(alpha) and math.isinf(beta):
                raise DomainError(
                    f"beta = delta * alpha overflows at delta={self.delta!r}, alpha={alpha!r}"
                )
            return AsymptoticQuery(self.q, self.L, alpha, beta, self.split)

        queries = tuple(map(query, grid))
        if any(y <= x for x, y in zip(grid, grid[1:])):
            raise DomainError("alpha grid must be strictly increasing")
        object.__setattr__(self, "alpha_grid", grid)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "grid_points", _grid_resolution(self.L, self.split, self.grid_points))


def f_rep(omega: float, q: int) -> float:
    """Normalized log count of repetition-code words: H(omega)/q."""
    omega = check_unit("omega", omega)
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return binary_entropy(omega) / q


# ---------------------------------------------------------------------------
# Inner problem: one accumulator level
# ---------------------------------------------------------------------------

def _entropy(x):
    """Binary entropy elementwise on [0, 1]."""
    return entr(x) + entr(1.0 - x)


def _term(t, s):
    """Entropy perspectives t*H(s/t) elementwise; NEG_INF marks an infeasible pair.

    t = 0 forces s = 0 (value 0); s is clipped into [0, t] within tolerance.
    """
    pos = t > ROUNDING_TOL
    bad = (t < -ROUNDING_TOL) | (s < -ROUNDING_TOL) | (s > t + ROUNDING_TOL)
    bad |= ~pos & (np.abs(s) > ROUNDING_TOL)
    ratio = np.minimum(np.maximum(s / np.where(pos, t, math.inf), 0.0), 1.0)
    return np.where(bad, NEG_INF, t * _entropy(ratio))


def _objective(ai, ao, b, mu, nu):
    """The five-term entropy objective elementwise; NEG_INF where infeasible."""
    half = 0.5 * (ai + b)
    # The five (t, s) pairs stacked on a leading axis: one _term call for all.
    shape = (5,) + np.broadcast(ai, ao, b, mu, nu).shape
    t, s = np.empty(shape), np.empty(shape)
    t[0], s[0] = 1.0 - ao, mu
    t[1], s[1] = ao, mu
    t[2], s[2] = ao - mu, half - nu - mu
    t[3], s[3] = 1.0 - ao - mu, nu
    t[4], s[4] = 2.0 * mu, 0.5 * (ai - b) + mu
    return _term(t, s).sum(axis=0)


def _mu_bounds(ai, ao, b):
    """Feasible mu interval [lo, hi] elementwise and whether it is nonempty.

    Besides the direct bounds, mu must leave the nu interval nonempty:
    nu_lo <= min(1 - ao - mu, (ai+b)/2 - mu).  An empty interval comes back
    as the one point lo, feasible if it was empty by at most ROUNDING_TOL.
    """
    half = 0.5 * (ai + b)
    nu_lo = np.maximum(0.0, half - ao)
    lo = np.abs(ai - b) * 0.5
    hi = np.minimum(np.minimum(ao, 1.0 - ao), np.minimum(1.0 - ao, half) - nu_lo)
    return lo, np.maximum(hi, lo), lo <= hi + ROUNDING_TOL


def _inner(ai, ao, b):
    """Inner optimum (mu, nu, value) elementwise over arrays of one shape.

    With nu at its maximum the objective g(mu) is strictly concave on the
    feasible interval [lo, hi], and g' is +inf at lo and -inf at hi.  Its
    stationarity condition, with h = (ai+b)/2 and d = (ai-b)/2,
    4(h-mu)(1-h-mu)(ao-mu)(1-ao-mu) = (mu^2-d^2)(1-2mu)^2, loses its quartic
    terms: the difference P of its sides is the cubic -4mu^3 + (4m+3)mu^2 -
    4m mu + 4ps + d^2 with p = h(1-h), s = ao(1-ao) and m = p + s + d^2.
    Below mu = 1/2, P has the sign of g', so it has exactly one root in
    [lo, hi] and falls through it.

    Each row solves P = 0 by a bracketed Newton iteration (``rtsafe`` of
    Press et al., Numerical Recipes, section 9.4) from the midpoint of its
    interval.  P is evaluated from the factors of the condition, which keep
    its sign where the expanded cubic cancels (mu near 1/2);
    P' = 4(1-2mu)(3mu/2 - m) and P'' come from the expansion.  The sign of
    P shrinks the bracket.  A step is Newton's,
    divided by Halley's factor 1 - P P''/(2P'^2) kept within [1/2, 2], so
    that it does not stall where P' vanishes (as at the double root
    mu = 1/2 = hi of P when h = ao = 1/2); it is a bisection instead where it
    would leave the bracket or is not a number.  A row stops when a step
    moves mu by at most 1e-15 of its size.  The arrays keep the input's
    shape: every iteration runs on all rows, and only the rows of a
    ``live`` mask (the feasible rows that have not stopped) update their
    bracket and mu, so a row's result does not depend on the other rows.
    Where the interval is empty the value is NEG_INF and mu, nu are NaN.

    A call of at most ``_ROW_SOLVE_MAX`` rows runs each row through
    ``_inner_row`` instead, the same iteration in Python floats, whose
    results are bit-identical to the arrays' (``TestInnerBatch`` compares
    their bit patterns on both sides of the cut): below the cut numpy's
    per-call cost is most of the time.  The grid blocks of ``_grid_stage``
    are mostly above it, the one-point evaluations of ``_refine`` below.
    """
    ai, ao, b = (np.asarray(v, dtype=float) for v in (ai, ao, b))
    if ai.size <= _ROW_SOLVE_MAX:
        rows = [_inner_row(*row) for row in zip(ai.ravel().tolist(), ao.ravel().tolist(),
                                                 b.ravel().tolist())]
        out = np.array(rows, dtype=float).reshape(ai.shape + (3,))
        return out[..., 0], out[..., 1], out[..., 2]
    lo, hi, feasible = _mu_bounds(ai, ao, b)
    h, d = 0.5 * (ai + b), 0.5 * (ai - b)
    h1, ao1 = 1.0 - h, 1.0 - ao
    m = h * h1 + ao * ao1 + d * d
    mu = np.where(feasible, 0.5 * (lo + hi), math.nan)
    below, above, live = lo, hi, feasible.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not live.any():
                break
            half = 0.5 - mu
            cubic = ((h - mu) * (h1 - mu) * ((ao - mu) * (ao1 - mu))
                     - (d - mu) * (-d - mu) * (half * half))  # P/4
            rise = 1.5 * mu
            tilt = rise - m
            slope = (half + half) * tilt  # P'/4
            np.copyto(below, mu, where=live & (cubic > 0.0))
            np.copyto(above, mu, where=live & (cubic < 0.0))
            newton = cubic / slope
            halley = 1.0 - newton * (0.75 - rise - tilt) / slope  # P''/8 = 3/4 + m - 3mu
            guess = mu - newton / np.minimum(np.maximum(halley, 0.5), 2.0)
            step = 0.5 * (below + above)
            np.copyto(step, guess, where=(below <= guess) & (guess <= above))
            done = np.abs(step - mu) <= 1e-15 * step
            np.copyto(mu, step, where=live)
            live &= ~done
        # The nu-maximum at mu: setting the nu-derivative of the two
        # nu-dependent terms to zero equates their inner ratios, nu* =
        # (1-ao-mu)(h-mu)/(1-2mu).  On the feasible mu interval nu* - (h-ao)
        # = (ao-mu)(1-h-mu)/(1-2mu) >= 0 and nu* <= min(1-ao-mu, h-mu), so
        # the clamp into the nu bounds only absorbs rounding and the
        # tolerance on the mu interval.
        nu_lo = np.maximum(0.0, h - ao)
        denom = 1.0 - 2.0 * mu
        star = np.where(denom > ROUNDING_TOL, (ao1 - mu) * (h - mu) / denom, 0.0)
        nu = np.minimum(np.maximum(star, nu_lo), np.maximum(np.minimum(ao1 - mu, h - mu), nu_lo))
    return mu, nu, np.where(feasible, _objective(ai, ao, b, mu, nu), NEG_INF)


def _maximum(x, y):
    """``np.maximum`` of two floats: a NaN wins, and a tie (0.0 and -0.0) gives y."""
    return x if x > y or x != x else y


def _minimum(x, y):
    """``np.minimum`` of two floats: a NaN wins, and a tie (0.0 and -0.0) gives y."""
    return x if x < y or x != x else y


def _entr(x):
    """scipy's ``entr`` of one float in [0, 1]: -x ln x, and 0 at x = 0.

    ``math.log`` is the libm log that ``entr`` calls, so the bits agree;
    numpy's SIMD ``np.log`` differs from it in the last bit on some arguments.
    """
    return -x * math.log(x) if x > 0.0 else 0.0


def _row_term(t, s):
    """``_term`` of one (t, s) pair in floats."""
    pos = t > ROUNDING_TOL
    if (t < -ROUNDING_TOL or s < -ROUNDING_TOL or s > t + ROUNDING_TOL
            or (not pos and abs(s) > ROUNDING_TOL)):
        return NEG_INF
    ratio = _minimum(_maximum(s / (t if pos else math.inf), 0.0), 1.0)
    return t * (_entr(ratio) + _entr(1.0 - ratio))


def _inner_row(ai, ao, b, start=None):
    """``_inner`` of one row in Python floats and ``math``: (mu, nu, value).

    The same iteration and the same IEEE operations in the same order as
    the array path, so the results are bit-identical to it.  What numpy lets
    pass and Python raises on (a division by zero, the log of 0) is spelled
    out, and ``_maximum``/``_minimum`` keep numpy's signed zeros.  Where P'
    is zero (at the double root mu = hi = 1/2 when h = ao = 1/2) the Newton
    step is +-inf or NaN in numpy, which the bracket turns into a bisection,
    so that is the step taken here.  ``start``, which only ``f_acc`` passes,
    replaces the midpoint by itself clamped into the interval.
    """
    h, d = 0.5 * (ai + b), 0.5 * (ai - b)
    h1, ao1 = 1.0 - h, 1.0 - ao
    nu_lo = _maximum(0.0, h - ao)
    lo = abs(ai - b) * 0.5
    hi = _minimum(_minimum(ao, ao1), _minimum(ao1, h) - nu_lo)
    if not lo <= hi + ROUNDING_TOL:
        return math.nan, math.nan, NEG_INF
    below = lo
    above = hi = _maximum(hi, lo)
    m = h * h1 + ao * ao1 + d * d
    mu = 0.5 * (lo + hi) if start is None else _minimum(_maximum(start, lo), hi)
    for _ in range(100):
        half = 0.5 - mu
        cubic = ((h - mu) * (h1 - mu) * ((ao - mu) * (ao1 - mu))
                 - (d - mu) * (-d - mu) * (half * half))
        rise = 1.5 * mu
        tilt = rise - m
        slope = (half + half) * tilt
        if cubic > 0.0:
            below = mu
        elif cubic < 0.0:
            above = mu
        step = 0.5 * (below + above)
        if slope != 0.0:
            newton = cubic / slope
            halley = 1.0 - newton * (0.75 - rise - tilt) / slope
            guess = mu - newton / _minimum(_maximum(halley, 0.5), 2.0)
            if below <= guess <= above:
                step = guess
        done = abs(step - mu) <= 1e-15 * step
        mu = step
        if done:
            break
    denom = 1.0 - 2.0 * mu
    star = (ao1 - mu) * (h - mu) / denom if denom > ROUNDING_TOL else 0.0
    nu = _minimum(_maximum(star, nu_lo), _maximum(_minimum(ao1 - mu, h - mu), nu_lo))
    value = (_row_term(ao1, mu) + _row_term(ao, mu) + _row_term(ao - mu, h - nu - mu)
             + _row_term(ao1 - mu, nu) + _row_term(2.0 * mu, d + mu))
    return mu, nu, value


def f_acc(args: AccShapeArgs, start: Optional[Tuple[float, float]] = None) -> InnerOptimum:
    """Supremum of the accumulator shape objective over feasible (mu, nu).

    nu is pinned to its closed-form maximum at each mu, and mu solves the
    cubic stationarity condition in mu by the bracketed Newton iteration of
    ``_inner``, in its per-row form ``_inner_row`` (Python floats, no
    arrays; bit-identical to the array form).  It starts from the middle of
    the feasible interval or, with ``start``, from ``start[0]`` clamped into
    it (nu follows mu, so ``start[1]`` is not used).  Any start reaches the
    same value, as the objective is strictly concave in mu; a start that is
    not finite raises ``DomainError``.  Returns value NEG_INF when the
    feasible polytope is empty.
    """
    mu0 = None if start is None else check_finite("start", start[0])
    return InnerOptimum(*_inner_row(args.alpha_i, args.alpha_o, args.beta, mu0))


# ---------------------------------------------------------------------------
# Outer problem
# ---------------------------------------------------------------------------

def _grid_resolution(L: int, split: SplitPolicy, grid_points: Optional[int]) -> int:
    """Points per free dimension of the coarse grid that ``r_point`` uses.

    An explicit ``grid_points`` is kept, and below 2 raises ``DomainError``;
    the default shrinks until the grid over omega, L-1 output shares and,
    with a free split, L-1 check shares fits ``_GRID_BUDGET``.  Either way a
    grid of more than ``_GRID_MAX_ROWS`` rows raises ``DomainError``, naming
    the most points per axis that fit, before anything is allocated.
    """
    d = L + (L - 1 if split.is_free else 0)
    if grid_points is not None:
        g = int(grid_points)
        if g < 2:
            raise DomainError(f"grid_points must be >= 2, got {grid_points}")
    else:
        g = DEFAULT_GRID_POINTS
        while g > 5 and g**d > _GRID_BUDGET:
            g -= 1
    if g**d > _GRID_MAX_ROWS:
        # The floor of the d-th root, exact also where the float root is off.
        fit = round(_GRID_MAX_ROWS ** (1.0 / d))
        fit -= fit**d > _GRID_MAX_ROWS
        raise DomainError(
            f"a grid of {g} points on each of {d} axes has {g**d} rows, "
            f"over the ceiling of {_GRID_MAX_ROWS}; "
            + (f"at most {fit} points per axis fit" if fit >= 2 else "no grid fits")
        )
    return g


@functools.lru_cache(maxsize=1)
def _layout(query: AsymptoticQuery):
    """The free vector of ``query``: its level map, its box and its polytope.

    The free vector is (omega, alpha_o_1..alpha_o_{L-1}), followed with a
    free split by (beta_1..beta_{L-1}).  The last level's output share
    alpha - omega/q - sum alpha_o_l and, with a free split, its check share
    beta - sum beta_l are pinned by the constraints.  Returns
    (K, k, box, free, A, a):

    - the level map: level l has (alpha_i, alpha_o, beta) = K[:, l] @ x +
      k[:, l]; its input fraction is omega for l = 0 and alpha_o_{l-1} after
      that;
    - the box [0, box] of the free vector (omega <= q alpha, each alpha_o_l
      <= alpha, each beta_l <= beta, and each <= 1), and ``free``, the
      coordinates whose box is more than one point (the others stay at 0);
    - the polytope A @ x[free] + a >= 0 on those coordinates: per level,
      |alpha_i - beta| <= 2 min(alpha_o, 1 - alpha_o) (the inner problem's
      mu interval is nonempty), plus 0 <= beta <= 1 for the pinned last
      check share (0 <= alpha_o <= 1 follows from the former); only the rows
      that involve a free coordinate are kept.

    This is the one place where the free vector's dimension, box and rows
    are derived.  The layout of the last query is kept, as ``r_point`` reads
    it at every evaluation, in its grid and in its refinement; its arrays
    are read-only, because every caller shares them.
    """
    q, L = query.q, query.L
    n = L + (L - 1 if query.split.is_free else 0)
    K, k = np.zeros((3, L, n)), np.zeros((3, L))
    ai, ao, b = K
    ao[:-1, 1:L] = np.eye(L - 1)
    ao[-1, 0], ao[-1, 1:L], k[1, -1] = -1.0 / q, -1.0, query.alpha
    ai[0, 0] = 1.0
    ai[1:] = ao[:-1]
    if query.split.is_free:
        b[:-1, L:] = np.eye(L - 1)
        b[-1, L:], k[2, -1] = -1.0, query.beta
    else:
        k[2] = np.asarray(query.split.fractions) * query.beta
    box = np.minimum(1.0, [q * query.alpha] + [query.alpha] * (L - 1) + [query.beta] * (n - L))
    D, d0 = K[0] - K[2], k[0] - k[2]
    O, o0 = 2.0 * K[1], 2.0 * k[1]
    A = np.concatenate([O - D, O + D, -O - D, -O + D, K[2, -1:], -K[2, -1:]])
    a = np.concatenate([o0 - d0, o0 + d0, 2.0 - o0 - d0, 2.0 - o0 + d0, k[2, -1:], 1.0 - k[2, -1:]])
    free = box > 0.0
    A = A[:, free]
    moving = np.any(A != 0.0, axis=1)  # rows on fixed coordinates only are constants
    layout = K, k, box, free, A[moving], a[moving]
    for array in layout:
        array.flags.writeable = False
    return layout


def _unpack(query: AsymptoticQuery, x: np.ndarray):
    """Free vectors (rows of ``x``) -> ((alpha_i, alpha_o, beta), ok).

    Each fraction has one row per free vector and one column per level and
    is clamped into [0, 1]; a row is infeasible (``ok`` false) when a
    fraction leaves [0, 1] by more than the tolerance, which only the pinned
    shares of the last level can do inside the box.  The fractions come
    from the level map (K, k) of the query's ``_layout``.
    """
    K, k = _layout(query)[:2]
    levels = np.swapaxes(K @ x.T, 1, 2) + k[:, None, :]
    ok = np.all((levels >= -ROUNDING_TOL) & (levels <= 1.0 + ROUNDING_TOL), axis=(0, 2))
    return np.clip(levels, 0.0, 1.0), ok


def _eval_candidate(query: AsymptoticQuery, x: np.ndarray):
    """Outer objective of each free vector (row of ``x``); NEG_INF if infeasible.

    Returns (values, (alpha_i, alpha_o, beta, mu, nu)), the latter with one
    column per level, the levels those of ``_unpack``.  One inner solve
    covers every level of every row.
    """
    (ai, ao, b), ok = _unpack(query, x)
    mu, nu, inner = _inner(ai, ao, b)
    h_omega = _entropy(ai[:, 0])
    values = h_omega / query.q - h_omega + inner.sum(axis=1) - _entropy(ao[:, :-1]).sum(axis=1)
    return np.where(ok, values, NEG_INF), (ai, ao, b, mu, nu)


def _value_and_grad(query: AsymptoticQuery, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """Outer objective at one free vector ``x`` and its gradient in ``x``.

    By the envelope theorem the partials of f_acc in (alpha_i, alpha_o,
    beta) are those of the five-term objective at the fixed optimum
    (mu, nu*).  With phi(t, s) = t*H(s/t), d(phi)/ds = ln((t-s)/s) and
    d(phi)/dt = ln(t/(t-s)); after substituting nu*, and with
    h = (alpha_i+beta)/2, d = (alpha_i-beta)/2, they are

        d/d alpha_i = [ln((1-h-mu)/(h-mu)) + ln((mu-d)/(mu+d))] / 2
        d/d beta    = [ln((1-h-mu)/(h-mu)) - ln((mu-d)/(mu+d))] / 2
        d/d alpha_o = ln(alpha_o (1-alpha_o-mu) / ((1-alpha_o)(alpha_o-mu)))

    A level with beta = 0 (or beta below rounding next to alpha_i) is
    pinned at mu = alpha_i/2, nu = 0, where the first two are 0/0.  There
    f_acc = (1-ao) H(mu/(1-ao)) + ao H(mu/ao), whose alpha_i-slope is
    ln((1-ao-mu)(ao-mu)/mu^2)/2, and beta is a constant (a zero share of a
    fixed split, or beta = 0, which leaves its coordinates no room), so its
    slope is set to 0.  A level with beta = 1 (up to rounding) is pinned
    too: its mu interval is the one point mu = 1-h = |d| = (1-alpha_i)/2,
    where 1-h-mu and mu-|d| both vanish, and nu* = 1-ao-mu.  f_acc is the
    same two terms, but d(mu)/d(alpha_i) = -1/2 negates their
    alpha_i-slope; beta is at its upper end, and its slope is set to 0.
    The alpha_o-slope is the general one in both cases.  The level map
    chains the level slopes to ``x``, and the entropy terms add
    (1/q - 1) H'(omega) and -H'(alpha_o) for every level but the last.
    Every logarithm is finite strictly inside the feasible polytope.
    """
    values, (ai, ao, b, mu, _) = _eval_candidate(query, x[None, :])
    ai, ao, b, mu = ai[0], ao[0], b[0], mu[0]
    h, d = 0.5 * (ai + b), 0.5 * (ai - b)
    pinned = h <= np.abs(d)  # beta = 0, or below rounding next to alpha_i
    full = 1.0 - h <= np.abs(d) + ROUNDING_TOL  # beta = 1: mu = 1-h = |d|
    # Logarithms of the factors of the stationarity condition in mu,
    # (mu-|d|)(mu+|d|)(1-2mu)^2 = 4(h-mu)(ao-mu)(1-ao-mu)(1-h-mu).  The
    # optimum can sit within rounding of an end of its interval, where one
    # factor vanishes and loses its digits, so the smallest factor is taken
    # from the others through the condition.  A pinned level has
    # mu-|d| = h-mu = 0, a full one mu-|d| = 1-h-mu = 0; neither uses those.
    sides = np.stack([mu - np.abs(d), h - mu, ao - mu, 1.0 - ao - mu, 1.0 - h - mu])
    sides[:2, pinned] = 1.0
    sides[::4, full] = 1.0
    signs = np.array([1.0, -1.0, -1.0, -1.0, -1.0])[:, None]
    smallest = (np.argmin(sides, axis=0) == np.arange(5)[:, None]) & ~(pinned | full)
    logs = np.log(np.where(smallest, 1.0, sides))
    balance = np.log((mu + np.abs(d)) * (1.0 - 2.0 * mu) ** 2 / 4.0) + (signs * logs).sum(axis=0)
    # ln of mu-|d|, h-mu, ao-mu, 1-ao-mu and 1-h-mu
    low, gap_h, gap_o, top_o, top_h = np.where(smallest, -signs * balance, logs)
    rate = top_h - gap_h
    bias = np.sign(d) * (low - np.log(mu + np.abs(d)))  # ln((mu-d)/(mu+d))
    slopes = np.empty((3, query.L))
    ends = 0.5 * (top_o + gap_o) - np.log(mu)  # alpha_i-slope of a pinned level
    slopes[0] = np.where(pinned, ends, np.where(full, -ends, 0.5 * (rate + bias)))
    slopes[1] = np.log(ao / (1.0 - ao)) + top_o - gap_o
    slopes[2] = np.where(pinned | full, 0.0, 0.5 * (rate - bias))
    slopes[1, :-1] -= np.log((1.0 - ao[:-1]) / ao[:-1])
    slopes[0, 0] += (1.0 / query.q - 1.0) * np.log((1.0 - ai[0]) / ai[0])
    return float(values[0]), np.einsum("vl,vln->n", slopes, _layout(query)[0])


def _coords(axes: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Coordinates of the grid rows ``rows`` (flat C-order indices), one row each."""
    index = np.unravel_index(rows, tuple(axis.size for axis in axes))
    return np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)


def _grid_stage(query: AsymptoticQuery, grid_points: Optional[int]):
    """Deterministic coarse grid; returns its axes, values and shape.

    The grid is the product of ``axes`` in C order, one axis per coordinate
    of the free vector, from 0 to its upper end in the box of ``_layout``:
    ``values`` reshaped to ``shape`` is the grid, and ``_coords`` gives the
    coordinates of any of its rows.  The loop makes the coordinates of
    ``_SCREEN_BLOCK`` rows at a time and screens them against the layout's
    polytope with the slack ``_SCREEN_SLACK``: every row the inner solve
    would count as feasible passes on to it, and the rest keep NEG_INF.
    ``_unpack`` and ``_inner`` still decide the feasibility of the rows that
    pass, so the values are those of evaluating every row.
    """
    g = _grid_resolution(query.L, query.split, grid_points)
    _, _, box, free, A, a = _layout(query)
    # A coordinate whose box is one point (upper end 0) has a one-point axis.
    axes = [np.linspace(0.0, upper, g if upper > 0.0 else 1) for upper in box]
    shape = tuple(axis.size for axis in axes)
    values = np.full(math.prod(shape), NEG_INF)
    for start in range(0, values.size, _SCREEN_BLOCK):
        rows = np.arange(start, min(start + _SCREEN_BLOCK, values.size))
        x = _coords(axes, rows)
        inside = np.all(x[:, free] @ A.T + a >= -_SCREEN_SLACK, axis=1)
        if inside.any():
            values[rows[inside]] = _eval_candidate(query, x[inside])[0]
    return axes, values, shape


def _peaks(values: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Indices of the best ``_N_SEEDS`` peaks of a grid of ``values``, best first.

    A peak is a feasible point whose value is at least that of every grid
    neighbour, diagonals included; so every point of a plateau on top is
    one, and the best grid point always is.  The neighbourhood maximum is
    separable: a 3-point maximum along each axis in turn, with the points
    beyond an end counting as NEG_INF.  Equal values keep grid order.
    """
    top = values.reshape(shape).copy()
    for axis in range(top.ndim):
        line = np.moveaxis(top, axis, 0)
        own = line.copy()
        np.maximum(line[1:], own[:-1], out=line[1:])
        np.maximum(line[:-1], own[1:], out=line[:-1])
        del own  # so that the next axis's copy does not coexist with it
    peaks = np.flatnonzero((values > NEG_INF) & (values >= top.ravel()))
    return peaks[np.argsort(-values[peaks], kind="stable")[:_N_SEEDS]]


def _deepest(A: np.ndarray, a: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The point of ``A @ y + a >= 0``, 0 <= y <= hi with the largest minimum slack.

    One linear program in (y, t): maximize t subject to t <= every slack.
    """
    n, m = hi.size, a.size
    ones = np.ones((m + 2 * n, 1))
    bound = np.concatenate([-A, -np.eye(n), np.eye(n)])
    res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([bound, ones]),
                  b_ub=np.concatenate([a, np.zeros(n), hi]),
                  bounds=[(0.0, h) for h in hi] + [(None, None)], method="highs")
    return res.x[:n]


def _refine(query: AsymptoticQuery, seeds: np.ndarray, center: np.ndarray) -> np.ndarray:
    """SLSQP ascent from each seed (row of ``seeds``); returns the end points.

    SLSQP gets the box of ``_layout`` as bounds, its polytope's rows as linear
    inequalities, and the gradient of ``_value_and_grad``.  Every constraint
    is tightened toward a strictly feasible point c by the fraction
    ``_SHRINK`` of its slack there (``_SCREEN_SLACK`` where that fraction is
    within ROUNDING_TOL of 0), and every point SLSQP asks for, starting
    with the seed, is first pulled toward c into the tightened polytope.  So
    a seed on the boundary is refined too, and every evaluation keeps each
    entropy argument positive and the gradient finite.  c is ``center`` when
    that is strictly feasible, else the point of largest minimum slack
    (``_deepest``); the centroid of the feasible grid points is not strictly
    feasible when, say, every one of them has omega = 0.  Coordinates whose
    box is one point stay at 0.  Without room (no such coordinate left, or
    no strictly feasible point) the seeds are returned as they are.
    """
    _, _, box, free, A, a = _layout(query)
    hi = box[free]
    if not free.any():
        return seeds

    def room(y):
        return np.concatenate([y, hi - y, A @ y + a])

    def margin(slack):
        # A margin within rounding of the boundary would let the inner solve
        # drop the terms of a level near 0; it is raised to _SCREEN_SLACK.
        kept = _SHRINK * slack
        return np.where(kept > ROUNDING_TOL, kept, _SCREEN_SLACK)

    c = center[free]
    if np.any(room(c) <= _SCREEN_SLACK):
        c = _deepest(A, a, hi)
        if np.any(room(c) <= _SCREEN_SLACK):
            return seeds
    lower = a - margin(A @ c + a)
    bottom, top = margin(c), hi - margin(hi - c)
    # Every tightened constraint as G @ y + g >= 0, and its slack at c.
    G = np.concatenate([A, np.eye(c.size), -np.eye(c.size)])
    g = np.concatenate([lower, -bottom, top])
    slack = G @ c + g

    def inside(y):
        # SLSQP can step past its linear constraints by rounding (up to about
        # 1e-9 seen); pull y toward c until it meets all of them.
        short = np.minimum(G @ y + g, 0.0)
        return y + np.max(-short / (slack - short)) * (c - y)

    def neg(y):
        x = np.zeros(free.shape)
        x[free] = inside(y)
        value, grad = _value_and_grad(query, x)
        return -value, -grad[free]

    rows = {"type": "ineq", "fun": lambda y: A @ y + lower, "jac": lambda y: A}
    ends = seeds.copy()
    for end, seed in zip(ends, seeds):
        res = minimize(neg, inside(seed[free]), jac=True, method="SLSQP",
                       bounds=list(zip(bottom, top)), constraints=rows,
                       options={"ftol": 1e-14, "maxiter": 200})
        end[free] = inside(res.x)
    return ends


def r_point(query: AsymptoticQuery, grid_points: Optional[int] = None) -> AsymptoticPoint:
    """Spectral-shape value r(alpha, beta) with its maximizing witness.

    Coarse grid (``grid_points`` per free dimension, default 33, reduced
    automatically when the dimension count would exceed the grid budget),
    then SLSQP with the envelope-theorem gradient from each of the best
    ``_N_SEEDS`` peaks of the grid (see ``_peaks`` and ``_refine``): the
    best grid points are mostly neighbours on one peak, and they would all
    climb to the same end.  The answer is the best of the refined points
    and the best grid point, compared by their true objective value.
    Infeasible queries return r = NEG_INF with no witness.  So does, once
    ``grid_points`` is checked and before anything is built, a query past
    the domain: omega is at most 1 and each level's fractions at most
    1 + ROUNDING_TOL, so a feasible point has alpha - 1/q and beta at most
    L (1 + ROUNDING_TOL).  (The layout of alpha = 1e308 would overflow.)
    """
    g = _grid_resolution(query.L, query.split, grid_points)
    if max(query.alpha - 1.0 / query.q, query.beta) > query.L * (1.0 + ROUNDING_TOL):
        return AsymptoticPoint(query.alpha, query.beta, NEG_INF, None)
    axes, values, shape = _grid_stage(query, g)
    feasible = np.flatnonzero(values > NEG_INF)
    if not feasible.size:
        return AsymptoticPoint(query.alpha, query.beta, NEG_INF, None)
    seeds = _coords(axes, _peaks(values, shape))
    ends = _refine(query, seeds, _coords(axes, feasible).mean(axis=0))
    tried = np.concatenate([seeds[:1], ends])
    values, (ai, ao, b, mu, nu) = _eval_candidate(query, tried)
    i = int(np.argmax(values))
    witness = OptimizerWitness(
        omega=float(ai[i, 0]),
        levels=tuple(
            LevelWitness(
                alpha_o=float(ao[i, l]), beta=float(b[i, l]), mu=float(mu[i, l]), nu=float(nu[i, l])
            )
            for l in range(query.L)
        ),
    )
    return AsymptoticPoint(query.alpha, query.beta, float(values[i]), witness)


def sweep(spec: SweepSpec) -> List[AsymptoticPoint]:
    """One ``r_point`` per query of ``spec`` (beta = delta * alpha), in grid order.

    Each runs on the spec's resolved ``grid_points``.  The spec checked its
    queries when it was built; infeasible rows carry the infeasibility
    marker and do not abort the sweep.
    """
    return [r_point(query, grid_points=spec.grid_points) for query in spec.queries]
