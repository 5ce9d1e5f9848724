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
cubic whose real roots, with the interval ends, contain the maximizer, so
the inner optimum is found in closed form and certified.  The outer problem
is low-dimensional: its feasible set is a polytope in (omega, alpha_o_l,
beta_l), and it is searched by a deterministic coarse grid followed by one
SLSQP run from each of the best peaks of the grid (grid points that no
neighbour beats), so that each local maximum the grid resolves is refined
once.  The grid points are screened against the polytope's inequalities
first, so that only the feasible ones, mostly a small share of the grid,
reach the inner solve; one description of the polytope serves the grid,
the refinement and its interior point.  SLSQP gets the gradient in closed
form: by the envelope theorem the partials of f_acc are those of the inner
objective at its optimum, logarithms of the optimal fractions.  The search
is reproducible, but its witness is not certified globally optimal, and it
is stationary only as far as SLSQP's ``ftol`` stop makes it: with a free
split at L = 4, witnesses that SLSQP reported as converged were measured
with a largest box-interior gradient component of 1.6e-5 to 2.8e-4
(q = 4, alpha = 0.05, delta = 0.1 for the largest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import entr

from .combinatorics import NEG_INF, DomainError, binary_entropy

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

_FEAS_TOL = 1e-9   # slack for boundary arithmetic on gridded candidates
_PIN_TOL = 1e-12   # slack for exactly-pinned quantities

DEFAULT_GRID_POINTS = 33
# The coarse stage caps its total candidate count; per-dimension resolution
# is reduced below DEFAULT_GRID_POINTS only when the dimension count forces it.
_GRID_BUDGET = 600_000
# Rows of the coarse grid per inner solve: bounds the memory of its
# per-root arrays without giving up vectorization.  Only the rows that pass
# the polytope screen reach it.
_GRID_BLOCK = 512
# Rows of the coarse grid per polytope screen: bounds the memory of the
# slack matrix (rows x constraints) while keeping the loop short.
_SCREEN_BLOCK = 4096
# A grid point that the inner solve counts as feasible meets every row of
# ``_polytope`` to within 6 * _FEAS_TOL: ``_unpack`` accepts levels up to
# _FEAS_TOL outside [0, 1] and clips them, which moves a row such as
# 2 alpha_o - (alpha_i - beta) by at most 4 * _FEAS_TOL, and ``_inner``
# accepts |alpha_i - beta| / 2 <= min(alpha_o, 1 - alpha_o) + _FEAS_TOL on
# the clipped levels, 2 * _FEAS_TOL more.  _PIN_TOL covers the rounding of
# the two ways of computing the levels.  So the screen only prunes.
_SCREEN_SLACK = 6 * _FEAS_TOL + _PIN_TOL
# The coarse grid may have at most this many rows (points per free dimension
# to the power of the dimension count), which every default grid up to a
# free split at L=5 (5**9 rows) meets.  Measured on a 2-vCPU machine, an
# r_point on a grid of about this size took at most 13 s, where half or all
# of the rows are feasible (L=1 and L=2), and at most 370 MiB (free L=5).
_GRID_MAX_ROWS = 2_000_000
_N_SEEDS = 8   # at most this many grid peaks, the best ones, are refined by SLSQP
# SLSQP keeps this fraction of each constraint's slack at an interior
# point, so that it evaluates no point on the boundary, where entropy
# slopes are infinite.
_SHRINK = 1e-9


@dataclass(frozen=True)
class SplitPolicy:
    """How the unsatisfied-check fraction beta is split over the levels.

    ``fractions is None`` leaves the split free (part of the supremum);
    otherwise beta_l = fractions[l] * beta with the fractions summing to 1.
    """

    fractions: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.fractions is not None:
            fr = tuple(_finite("split fraction", f) for f in self.fractions)
            if any(f < -_PIN_TOL for f in fr):
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


def _finite(name: str, x: float) -> float:
    """``x`` as a float; NaN and infinities raise ``DomainError``."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name}={x!r} is not finite")
    return x


def _check_unit(name: str, x: float) -> float:
    x = _finite(name, x)
    if x < -_PIN_TOL or x > 1.0 + _PIN_TOL:
        raise DomainError(f"{name}={x!r} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class AccShapeArgs:
    """Normalized input/output/unsatisfied-check fractions of one level."""

    alpha_i: float
    alpha_o: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha_i", "alpha_o", "beta"):
            object.__setattr__(self, name, _check_unit(name, getattr(self, name)))


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
    q: int
    L: int
    alpha: float
    beta: float
    split: SplitPolicy = SplitPolicy.free()

    def __post_init__(self) -> None:
        if self.q < 1 or self.L < 1:
            raise DomainError(f"q and L must be >= 1, got {self.q}, {self.L}")
        _finite("alpha", self.alpha)
        _finite("beta", self.beta)
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
    """A constant-ratio slice: beta = delta * alpha along an alpha grid."""

    delta: float
    alpha_grid: Tuple[float, ...]
    q: int
    L: int
    split: SplitPolicy = SplitPolicy.free()
    grid_points: Optional[int] = None

    def __post_init__(self) -> None:
        if _finite("delta", self.delta) < 0:
            raise DomainError(f"delta must be nonnegative, got {self.delta}")
        grid = tuple(_finite("alpha", a) for a in self.alpha_grid)
        if any(a <= 0.0 or a > 1.0 for a in grid):
            raise DomainError("alpha grid values must lie in (0, 1]")
        if any(y <= x for x, y in zip(grid, grid[1:])):
            raise DomainError("alpha grid must be strictly increasing")
        object.__setattr__(self, "alpha_grid", grid)
        _grid_resolution(self.L, self.split, self.grid_points)


def f_rep(omega: float, q: int) -> float:
    """Normalized log count of repetition-code words: H(omega)/q."""
    if omega < -_PIN_TOL or omega > 1.0 + _PIN_TOL:
        raise DomainError(f"omega={omega!r} outside [0, 1]")
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return binary_entropy(min(max(omega, 0.0), 1.0)) / q


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
    pos = t > _PIN_TOL
    bad = (t < -_FEAS_TOL) | (s < -_FEAS_TOL) | (s > t + _FEAS_TOL)
    bad |= ~pos & (np.abs(s) > _FEAS_TOL)
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
    """Feasible mu interval elementwise (may be empty: lo > hi).

    Besides the direct bounds, mu must leave the nu interval nonempty:
    nu_lo <= min(1 - ao - mu, (ai+b)/2 - mu).
    """
    half = 0.5 * (ai + b)
    nu_lo = np.maximum(0.0, half - ao)
    hi = np.minimum(np.minimum(ao, 1.0 - ao), np.minimum(1.0 - ao, half) - nu_lo)
    return np.abs(ai - b) * 0.5, hi


def _nu(ai, ao, b, mu):
    """The nu-maximum at fixed mu, elementwise.

    Setting the nu-derivative of the two nu-dependent terms to zero equates
    their inner ratios: nu* = (1-ao-mu)(h-mu)/(1-2mu) with h = (ai+b)/2.
    On the feasible mu interval nu* - (h-ao) = (ao-mu)(1-h-mu)/(1-2mu) >= 0
    and nu* <= min(1-ao-mu, h-mu), so the clamp into the nu bounds only
    absorbs rounding and the tolerance on the mu interval.
    """
    half = 0.5 * (ai + b)
    denom = 1.0 - 2.0 * mu
    usable = denom > _PIN_TOL
    star = np.where(usable, (1.0 - ao - mu) * (half - mu) / np.where(usable, denom, 1.0), 0.0)
    lo = np.maximum(0.0, half - ao)
    hi = np.maximum(np.minimum(1.0 - ao - mu, half - mu), lo)
    return np.minimum(np.maximum(star, lo), hi)


def _inner(ai, ao, b):
    """Inner optimum (mu, nu, value) elementwise over arrays of one shape.

    With nu at its maximum the objective g(mu) is strictly concave on the
    feasible interval [lo, hi], and g' is +inf at lo and -inf at hi.  Its
    stationarity condition, with h = (ai+b)/2 and d = (ai-b)/2,
    4(h-mu)(1-h-mu)(ao-mu)(1-ao-mu) = (mu^2-d^2)(1-2mu)^2, loses its quartic
    terms: it is the cubic -4mu^3 + (4m+3)mu^2 - 4m mu + 4ps + d^2 = 0 with
    p = h(1-h), s = ao(1-ao) and m = p + s + d^2, which has exactly one root
    in [lo, hi].  The best of the three roots (real parts, clipped into
    the interval) and the two endpoints is therefore the maximum, also when
    the interval is one point.  Where the interval is empty the value is
    NEG_INF and mu, nu are NaN.
    """
    ai, ao, b = (np.asarray(v, dtype=float) for v in (ai, ao, b))
    lo, hi = _mu_bounds(ai, ao, b)
    feasible = lo <= hi + _FEAS_TOL
    hi = np.maximum(hi, lo)
    h, d = 0.5 * (ai + b), 0.5 * (ai - b)
    p, s = h * (1.0 - h), ao * (1.0 - ao)
    m = p + s + d * d
    # The cubic's roots are the eigenvalues of its companion matrix.  The
    # balanced eigensolver keeps small roots accurate relative to their size;
    # Cardano's formula does not when two roots cluster near 0 (small ai, ao
    # and b), where the maximizer then is one of them.
    companion = np.zeros(m.shape + (3, 3))
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    companion[..., 0, 2] = p * s + 0.25 * d * d
    companion[..., 1, 2] = -m
    companion[..., 2, 2] = m + 0.75
    roots = np.linalg.eigvals(companion).real
    lo, hi = lo[..., None], hi[..., None]
    roots = np.minimum(np.maximum(roots, lo), hi)
    mu = np.concatenate([roots, lo, hi], axis=-1)
    args = ai[..., None], ao[..., None], b[..., None]
    nu = _nu(*args, mu)
    value = _objective(*args, mu, nu)
    best = np.argmax(value, axis=-1)[..., None] == np.arange(mu.shape[-1])
    return (
        np.where(feasible, (mu * best).sum(axis=-1), math.nan),
        np.where(feasible, (nu * best).sum(axis=-1), math.nan),
        np.where(feasible, value.max(axis=-1), NEG_INF),
    )


def _inner_from(ai: float, ao: float, b: float, mu: float) -> InnerOptimum:
    """Inner optimum by a bracketed Newton iteration on g'(mu) from ``mu``.

    At nu's maximum, g'(mu) = ln[4(h-nu-mu)(1-ao-mu-nu)/(mu^2-d^2)] is
    decreasing, +inf at the lower end of the feasible interval and -inf at
    the upper end, so the interval brackets its root; a Newton step that
    leaves the current bracket is replaced by bisection.
    """
    lo, hi = _mu_bounds(ai, ao, b)
    if lo > hi + _FEAS_TOL:
        return InnerOptimum(math.nan, math.nan, NEG_INF)
    hi = max(hi, lo)
    h, d = 0.5 * (ai + b), 0.5 * (ai - b)

    def slope(m):
        nu = _nu(ai, ao, b, m)
        return np.log(4.0 * (h - nu - m) * (1.0 - ao - m - nu)) - np.log(m * m - d * d)

    def curvature(m):
        return (
            4.0 / (1.0 - 2.0 * m) - 2.0 * m / (m * m - d * d)
            - 1.0 / (ao - m) - 1.0 / (1.0 - ao - m) - 1.0 / (h - m) - 1.0 / (1.0 - h - m)
        )

    below, above = lo, hi
    mu = np.clip(np.float64(mu), lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            s = slope(mu)
            if s > 0.0:
                below = mu
            elif s < 0.0:
                above = mu
            else:  # the root, or NaN on a one-point interval
                break
            step = mu - s / curvature(mu)
            if not below < step < above:
                step = 0.5 * (below + above)
            done = abs(step - mu) <= 1e-15 * step
            mu = step
            if done:
                break
    nu = _nu(ai, ao, b, mu)
    return InnerOptimum(float(mu), float(nu), float(_objective(ai, ao, b, mu, nu)))


def f_acc(args: AccShapeArgs, start: Optional[Tuple[float, float]] = None) -> InnerOptimum:
    """Supremum of the accumulator shape objective over feasible (mu, nu).

    nu is pinned to its closed-form maximum at each mu.  The default path
    takes mu from the real roots of the cubic stationarity condition in mu.
    Passing ``start`` instead runs a bracketed Newton iteration on the
    derivative in mu from ``start[0]``, clamped into the feasible interval
    (nu follows mu, so ``start[1]`` is not used); any start reaches the same
    value, as the objective is strictly concave in mu.  Returns value
    NEG_INF when the feasible polytope is empty.
    """
    ai, ao, b = args.alpha_i, args.alpha_o, args.beta
    if start is not None:
        return _inner_from(ai, ao, b, start[0])
    mu, nu, value = _inner(ai, ao, b)
    return InnerOptimum(float(mu), float(nu), float(value))


# ---------------------------------------------------------------------------
# Outer problem
# ---------------------------------------------------------------------------

def _grid_resolution(L: int, split: SplitPolicy, grid_points: Optional[int]) -> int:
    """Points per free dimension of the coarse grid that ``r_point`` uses.

    An explicit ``grid_points`` is kept (at least 2); the default shrinks
    until the grid over omega, L-1 output shares and, with a free split,
    L-1 check shares fits ``_GRID_BUDGET``.  Either way a grid of more than
    ``_GRID_MAX_ROWS`` rows raises ``DomainError``, before anything is
    allocated.
    """
    d = L + (L - 1 if split.is_free else 0)
    if grid_points is not None:
        g = max(int(grid_points), 2)
    else:
        g = DEFAULT_GRID_POINTS
        while g > 5 and g**d > _GRID_BUDGET:
            g -= 1
    if g**d > _GRID_MAX_ROWS:
        raise DomainError(
            f"a grid of {g} points on each of {d} axes has {g**d} rows, "
            f"over the ceiling of {_GRID_MAX_ROWS}"
        )
    return g


def _grid_axis(upper: float, g: int) -> np.ndarray:
    if upper <= 0.0:
        return np.array([0.0])
    return np.linspace(0.0, upper, g)


def _level_map(query: AsymptoticQuery) -> Tuple[np.ndarray, np.ndarray]:
    """The affine map from a free vector to the level fractions.

    The free vector is (omega, alpha_o_1..alpha_o_{L-1}), followed with a
    free split by (beta_1..beta_{L-1}).  The last level's output share
    alpha - omega/q - sum alpha_o_l and, with a free split, its check share
    beta - sum beta_l are pinned by the constraints.  Returns (K, k) such
    that level l has (alpha_i, alpha_o, beta) = K[:, l] @ x + k[:, l]; its
    input fraction is omega for l = 0 and alpha_o_{l-1} after that.
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
    return K, k


def _upper(query: AsymptoticQuery) -> np.ndarray:
    """Upper ends of the box of the free vector; every lower end is 0."""
    n_betas = query.L - 1 if query.split.is_free else 0
    return np.array(
        [min(1.0, query.q * query.alpha)]
        + [min(1.0, query.alpha)] * (query.L - 1)
        + [min(1.0, query.beta)] * n_betas
    )


def _unpack(query: AsymptoticQuery, x: np.ndarray):
    """Free vectors (rows of ``x``) -> ((alpha_i, alpha_o, beta), ok).

    Each fraction has one row per free vector and one column per level and
    is clamped into [0, 1]; a row is infeasible (``ok`` false) when a
    fraction leaves [0, 1] by more than the tolerance, which only the pinned
    shares of the last level can do inside the box.
    """
    K, k = _level_map(query)
    levels = np.swapaxes(K @ x.T, 1, 2) + k[:, None, :]
    ok = np.all((levels >= -_FEAS_TOL) & (levels <= 1.0 + _FEAS_TOL), axis=(0, 2))
    return np.clip(levels, 0.0, 1.0), ok


def _eval_candidate(query: AsymptoticQuery, x: np.ndarray):
    """Outer objective of each free vector (row of ``x``); NEG_INF if infeasible.

    Returns (values, (alpha_i, alpha_o, beta, mu, nu)), the latter with one
    column per level.  One inner solve covers every level of every row.
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
    slope is set to 0.  The level map chains the level slopes to ``x``, and
    the entropy terms add (1/q - 1) H'(omega) and -H'(alpha_o) for every
    level but the last.  Every logarithm is finite strictly inside the
    feasible polytope.
    """
    values, (ai, ao, b, mu, _) = _eval_candidate(query, x[None, :])
    ai, ao, b, mu = ai[0], ao[0], b[0], mu[0]
    h, d = 0.5 * (ai + b), 0.5 * (ai - b)
    pinned = h <= np.abs(d)  # beta = 0, or below rounding next to alpha_i
    # Logarithms of the factors of the stationarity condition in mu,
    # (mu-|d|)(mu+|d|)(1-2mu)^2 = 4(h-mu)(ao-mu)(1-ao-mu)(1-h-mu).  The
    # optimum can sit within rounding of an end of its interval, where one
    # factor vanishes and loses its digits, so the smallest factor is taken
    # from the others through the condition.  A pinned level has
    # mu-|d| = h-mu = 0 and uses neither.
    sides = np.stack([mu - np.abs(d), h - mu, ao - mu, 1.0 - ao - mu, 1.0 - h - mu])
    sides[:2, pinned] = 1.0
    signs = np.array([1.0, -1.0, -1.0, -1.0, -1.0])[:, None]
    smallest = (np.argmin(sides, axis=0) == np.arange(5)[:, None]) & ~pinned
    logs = np.log(np.where(smallest, 1.0, sides))
    balance = np.log((mu + np.abs(d)) * (1.0 - 2.0 * mu) ** 2 / 4.0) + (signs * logs).sum(axis=0)
    # ln of mu-|d|, h-mu, ao-mu, 1-ao-mu and 1-h-mu
    low, gap_h, gap_o, top_o, top_h = np.where(smallest, -signs * balance, logs)
    rate = top_h - gap_h
    bias = np.sign(d) * (low - np.log(mu + np.abs(d)))  # ln((mu-d)/(mu+d))
    slopes = np.empty((3, query.L))
    slopes[0] = np.where(pinned, 0.5 * (top_o + gap_o) - np.log(mu), 0.5 * (rate + bias))
    slopes[1] = np.log(ao / (1.0 - ao)) + top_o - gap_o
    slopes[2] = np.where(pinned, 0.0, 0.5 * (rate - bias))
    slopes[1, :-1] -= np.log((1.0 - ao[:-1]) / ao[:-1])
    slopes[0, 0] += (1.0 / query.q - 1.0) * np.log((1.0 - ai[0]) / ai[0])
    K, _ = _level_map(query)
    return float(values[0]), np.einsum("vl,vln->n", slopes, K)


def _grid_stage(query: AsymptoticQuery, grid_points: Optional[int]):
    """Deterministic coarse grid; returns candidate matrix, values and shape.

    The candidates are the rows of the grid in C order, so ``values``
    reshaped to ``shape`` (points per axis) is the grid.  Most rows lie
    outside the feasible polytope, so each row is first screened against
    the rows of ``_polytope``, ``_SCREEN_BLOCK`` rows at a time, with the
    slack ``_SCREEN_SLACK``: every row the inner solve would count as
    feasible passes, and the rest keep NEG_INF.  The rows that pass are
    evaluated ``_GRID_BLOCK`` at a time, which bounds the memory of the
    inner solve's per-root arrays; ``_unpack`` and ``_inner`` still decide
    their feasibility, so the values are those of evaluating every row.
    """
    g = _grid_resolution(query.L, query.split, grid_points)
    axes = [_grid_axis(upper, g) for upper in _upper(query)]
    mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else [axes[0]]
    cand = np.stack([m.ravel() for m in mesh], axis=1)

    free, A, a, _ = _polytope(query)
    inside = np.concatenate([
        np.all(cand[start : start + _SCREEN_BLOCK, free] @ A.T + a >= -_SCREEN_SLACK, axis=1)
        for start in range(0, cand.shape[0], _SCREEN_BLOCK)
    ])
    rows = np.flatnonzero(inside)
    values = np.full(cand.shape[0], NEG_INF)
    for start in range(0, rows.size, _GRID_BLOCK):
        block = rows[start : start + _GRID_BLOCK]
        values[block] = _eval_candidate(query, cand[block])[0]
    return cand, values, tuple(axis.size for axis in axes)


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
    peaks = np.flatnonzero((values > NEG_INF) & (values >= top.ravel()))
    return peaks[np.argsort(-values[peaks], kind="stable")[:_N_SEEDS]]


def _polytope(query: AsymptoticQuery):
    """The feasible set of the free vector: the box [0, hi] and A @ x + a >= 0.

    The box is that of ``_upper``; the rows are, per level, |alpha_i - beta|
    <= 2 min(alpha_o, 1 - alpha_o) (the inner problem's mu interval is
    nonempty) plus 0 <= beta <= 1 for the pinned last check share (0 <=
    alpha_o <= 1 follows from the former).  Returns (free, A, a, hi) on the
    coordinates whose box is more than one point (``free``; the others stay
    at 0): the rows that involve any of them, and their upper ends.
    """
    K, k = _level_map(query)
    D, d0 = K[0] - K[2], k[0] - k[2]
    O, o0 = 2.0 * K[1], 2.0 * k[1]
    A = np.concatenate([O - D, O + D, -O - D, -O + D, K[2, -1:], -K[2, -1:]])
    a = np.concatenate([o0 - d0, o0 + d0, 2.0 - o0 - d0, 2.0 - o0 + d0, k[2, -1:], 1.0 - k[2, -1:]])
    hi = _upper(query)
    free = hi > 0.0
    A = A[:, free]
    moving = np.any(A != 0.0, axis=1)  # rows on fixed coordinates only are constants
    return free, A[moving], a[moving], hi[free]


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

    SLSQP gets the box of ``_polytope`` as bounds, its rows as linear
    inequalities, and the gradient of ``_value_and_grad``.  Every constraint
    is tightened toward a strictly feasible point c by the fraction
    ``_SHRINK`` of its slack there, and every point SLSQP asks for, starting
    with the seed, is first pulled toward c into the tightened polytope.  So
    a seed on the boundary is refined too, and every evaluation keeps each
    entropy argument positive and the gradient finite.  c is ``center`` when
    that is strictly feasible, else the point of largest minimum slack
    (``_deepest``); the centroid of the feasible grid points is not strictly
    feasible when, say, every one of them has omega = 0.  Coordinates whose
    box is one point stay at 0.  Without room (no such coordinate left, or
    no strictly feasible point) the seeds are returned as they are.
    """
    free, A, a, hi = _polytope(query)
    if not free.any():
        return seeds

    def room(y):
        return np.concatenate([y, hi - y, A @ y + a])

    c = center[free]
    if np.any(room(c) <= 0.0):
        c = _deepest(A, a, hi)
        if np.any(room(c) <= 0.0):
            return seeds
    lower = a - _SHRINK * (A @ c + a)
    bottom, top = _SHRINK * c, hi - _SHRINK * (hi - c)
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
    Infeasible queries return r = NEG_INF with no witness.
    """
    cand, values, shape = _grid_stage(query, grid_points)
    feasible = values > NEG_INF
    if not feasible.any():
        return AsymptoticPoint(query.alpha, query.beta, NEG_INF, None)
    seeds = _peaks(values, shape)
    ends = _refine(query, cand[seeds], cand[feasible].mean(axis=0))
    tried = np.concatenate([cand[seeds[:1]], ends])
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
    """One r_point per grid alpha with beta = delta * alpha, in grid order.

    Infeasible rows carry the infeasibility marker; they do not abort the
    sweep.
    """
    points = []
    for alpha in spec.alpha_grid:
        query = AsymptoticQuery(
            q=spec.q, L=spec.L, alpha=alpha, beta=spec.delta * alpha, split=spec.split
        )
        points.append(r_point(query, grid_points=spec.grid_points))
    return points
