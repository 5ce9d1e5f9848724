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
remaining one-dimensional problem in mu is solved by golden-section search,
so the inner optimum is certified.  The outer problem is low-dimensional
and is searched by a deterministic coarse grid followed by Nelder-Mead
refinement from the best seeds; it is reproducible but not certified
globally optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FEAS_TOL = 1e-9   # slack for boundary arithmetic on gridded candidates
_PIN_TOL = 1e-12   # slack for exactly-pinned quantities

DEFAULT_GRID_POINTS = 33
# The coarse stage caps its total candidate count; per-dimension resolution
# is reduced below DEFAULT_GRID_POINTS only when the dimension count forces it.
_GRID_BUDGET = 600_000


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

def _term(t: float, s: float) -> Optional[float]:
    """Entropy perspective t*H(s/t); None marks an infeasible combination.

    t = 0 forces s = 0 (value 0); s is clipped into [0, t] within tolerance.
    """
    if t < -_FEAS_TOL or s < -_FEAS_TOL or s > t + _FEAS_TOL:
        return None
    if t <= _PIN_TOL:
        return 0.0 if abs(s) <= _FEAS_TOL else None
    ratio = min(max(s / t, 0.0), 1.0)
    return t * binary_entropy(ratio)


def _objective(ai: float, ao: float, b: float, mu: float, nu: float) -> float:
    """The five-term entropy objective at one (mu, nu); NEG_INF if infeasible."""
    half = 0.5 * (ai + b)
    parts = (
        _term(1.0 - ao, mu),
        _term(ao, mu),
        _term(ao - mu, half - nu - mu),
        _term(1.0 - ao - mu, nu),
        _term(2.0 * mu, 0.5 * (ai - b) + mu),
    )
    total = 0.0
    for p in parts:
        if p is None:
            return NEG_INF
        total += p
    return total


def _mu_bounds(ai: float, ao: float, b: float) -> Tuple[float, float]:
    """Feasible mu interval (may be empty: lo > hi).

    Besides the direct bounds, mu must leave the nu interval nonempty:
    nu_lo <= min(1 - ao - mu, (ai+b)/2 - mu).
    """
    lo = max(abs(ai - b) * 0.5, 0.0)
    nu_lo = max(0.0, 0.5 * (ai + b) - ao)
    hi = min(ao, 1.0 - ao, min(1.0 - ao, 0.5 * (ai + b)) - nu_lo)
    return lo, hi


def _nu_bounds(ai: float, ao: float, b: float, mu: float) -> Tuple[float, float]:
    lo = max(0.0, 0.5 * (ai + b) - ao)
    hi = min(1.0 - ao - mu, 0.5 * (ai + b) - mu)
    return lo, hi


def _nu_star(ai: float, ao: float, b: float, mu: float) -> float:
    """Unconstrained stationary nu of the two nu-dependent terms.

    Setting the nu-derivative of (ao-mu)H(...) + (1-ao-mu)H(nu/(1-ao-mu))
    to zero equates the two inner ratios, giving
    nu* = (1-ao-mu)(ai+b-2mu) / (2(1-2mu)).
    """
    denom = 2.0 * (1.0 - 2.0 * mu)
    if denom <= _PIN_TOL:
        return 0.0
    return (1.0 - ao - mu) * (ai + b - 2.0 * mu) / denom


def _best_nu(ai: float, ao: float, b: float, mu: float) -> Tuple[float, float]:
    """Exact nu-maximum at fixed mu (stationary point clamped to the box)."""
    lo, hi = _nu_bounds(ai, ao, b, mu)
    if lo > hi + _FEAS_TOL:
        return math.nan, NEG_INF
    hi = max(hi, lo)
    nu = min(max(_nu_star(ai, ao, b, mu), lo), hi)
    return nu, _objective(ai, ao, b, mu, nu)


def _golden_max(g, lo: float, hi: float, tol: float = 1e-13) -> Tuple[float, float]:
    """Golden-section maximization of a concave g on [lo, hi]."""
    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        return x, g(x)
    a, c = lo, hi
    x1 = c - _GOLDEN * (c - a)
    x2 = a + _GOLDEN * (c - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(200):
        if c - a <= tol:
            break
        if f1 >= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _GOLDEN * (c - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (c - a)
            f2 = g(x2)
    candidates = [(x1, f1), (x2, f2), (lo, g(lo)), (hi, g(hi))]
    return max(candidates, key=lambda p: p[1])


def _facc_scalar(ai: float, ao: float, b: float) -> InnerOptimum:
    mu_lo, mu_hi = _mu_bounds(ai, ao, b)
    if mu_lo > mu_hi + _FEAS_TOL:
        return InnerOptimum(math.nan, math.nan, NEG_INF)
    mu_hi = max(mu_hi, mu_lo)
    mu, _ = _golden_max(lambda m: _best_nu(ai, ao, b, m)[1], mu_lo, mu_hi)
    nu, value = _best_nu(ai, ao, b, mu)
    return InnerOptimum(mu, nu, value)


def _facc_from_start(
    ai: float, ao: float, b: float, start: Tuple[float, float]
) -> InnerOptimum:
    """Alternating projected line searches (golden section per axis).

    Converges to the same optimum as the direct path: the objective is
    concave with maximum in the relative interior, so coordinate ascent
    cannot stall at a corner.
    """
    mu_lo, mu_hi = _mu_bounds(ai, ao, b)
    if mu_lo > mu_hi + _FEAS_TOL:
        return InnerOptimum(math.nan, math.nan, NEG_INF)
    mu_hi = max(mu_hi, mu_lo)
    mu = min(max(start[0], mu_lo), mu_hi)
    nu_lo, nu_hi = _nu_bounds(ai, ao, b, mu)
    nu = min(max(start[1], nu_lo), max(nu_hi, nu_lo))
    best = _objective(ai, ao, b, mu, nu)
    for _ in range(200):
        nu_lo, nu_hi = _nu_bounds(ai, ao, b, mu)
        nu, _ = _golden_max(
            lambda y: _objective(ai, ao, b, mu, y), nu_lo, max(nu_hi, nu_lo)
        )
        # mu interval at fixed nu: the direct bounds plus room for nu itself.
        lo = mu_lo
        hi = min(mu_hi, 1.0 - ao - nu, 0.5 * (ai + b) - nu)
        mu, value = _golden_max(
            lambda x: _objective(ai, ao, b, x, nu), lo, max(hi, lo)
        )
        if value <= best + 1e-14:
            best = max(best, value)
            break
        best = value
    return InnerOptimum(mu, nu, best)


def f_acc(args: AccShapeArgs, start: Optional[Tuple[float, float]] = None) -> InnerOptimum:
    """Supremum of the accumulator shape objective over feasible (mu, nu).

    The default path pins nu to its closed-form conditional maximum and runs
    golden-section on mu.  Passing ``start`` instead runs alternating
    per-axis golden-section ascent from that point; any feasible start
    reaches the same value (the maximum of a concave function is unique).
    Returns value NEG_INF when the feasible polytope is empty.
    """
    if start is None:
        return _facc_scalar(args.alpha_i, args.alpha_o, args.beta)
    return _facc_from_start(args.alpha_i, args.alpha_o, args.beta, start)


# ---------------------------------------------------------------------------
# Vectorized inner solve for the coarse outer grid
# ---------------------------------------------------------------------------

def _entropy_arr(x: np.ndarray) -> np.ndarray:
    inside = (x > 0.0) & (x < 1.0)
    safe = np.where(inside, x, 0.5)
    return np.where(inside, -safe * np.log(safe) - (1 - safe) * np.log(1 - safe), 0.0)


def _term_arr(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    bad = (t < -_FEAS_TOL) | (s < -_FEAS_TOL) | (s > t + _FEAS_TOL)
    pos = t > _PIN_TOL
    ratio = np.clip(np.where(pos, s, 0.0) / np.where(pos, t, 1.0), 0.0, 1.0)
    val = np.where(pos, t * _entropy_arr(ratio), 0.0)
    return np.where(bad, NEG_INF, val)


def _objective_arr(ai, ao, b, mu, nu) -> np.ndarray:
    half = 0.5 * (ai + b)
    return (
        _term_arr(1.0 - ao, mu)
        + _term_arr(ao, mu)
        + _term_arr(ao - mu, half - nu - mu)
        + _term_arr(1.0 - ao - mu, nu)
        + _term_arr(2.0 * mu, 0.5 * (ai - b) + mu)
    )


def _g_arr(ai, ao, b, mu) -> np.ndarray:
    """Objective at the conditional nu-optimum, vectorized over levels."""
    nu_lo = np.maximum(0.0, 0.5 * (ai + b) - ao)
    nu_hi = np.maximum(np.minimum(1.0 - ao - mu, 0.5 * (ai + b) - mu), nu_lo)
    denom = 2.0 * (1.0 - 2.0 * mu)
    star = np.where(
        denom > _PIN_TOL,
        (1.0 - ao - mu) * (ai + b - 2.0 * mu) / np.where(denom > _PIN_TOL, denom, 1.0),
        0.0,
    )
    nu = np.clip(star, nu_lo, nu_hi)
    return _objective_arr(ai, ao, b, mu, nu)


def _facc_batch(ai: np.ndarray, ao: np.ndarray, b: np.ndarray, iters: int = 55) -> np.ndarray:
    """Inner supremum per element; NEG_INF where the polytope is empty."""
    mu_lo = np.maximum(np.abs(ai - b) * 0.5, 0.0)
    nu_lo = np.maximum(0.0, 0.5 * (ai + b) - ao)
    mu_hi = np.minimum(
        np.minimum(ao, 1.0 - ao), np.minimum(1.0 - ao, 0.5 * (ai + b)) - nu_lo
    )
    feasible = mu_lo <= mu_hi + _FEAS_TOL
    lo = np.where(feasible, mu_lo, 0.0)
    hi = np.where(feasible, np.maximum(mu_hi, mu_lo), 0.0)
    for _ in range(iters):
        d = hi - lo
        x1 = hi - _GOLDEN * d
        x2 = lo + _GOLDEN * d
        f1 = _g_arr(ai, ao, b, x1)
        f2 = _g_arr(ai, ao, b, x2)
        keep_low = f1 >= f2
        hi = np.where(keep_low, x2, hi)
        lo = np.where(keep_low, lo, x1)
    mid = 0.5 * (lo + hi)
    val = np.maximum(_g_arr(ai, ao, b, mid), np.maximum(_g_arr(ai, ao, b, mu_lo),
                                                        _g_arr(ai, ao, b, np.maximum(mu_hi, mu_lo))))
    return np.where(feasible, val, NEG_INF)


# ---------------------------------------------------------------------------
# Outer problem
# ---------------------------------------------------------------------------

def _grid_resolution(L: int, split: SplitPolicy, grid_points: Optional[int]) -> int:
    """Points per free dimension of the coarse grid that ``r_point`` uses.

    An explicit ``grid_points`` is kept (at least 2); the default shrinks
    until the grid over omega, L-1 output shares and, with a free split,
    L-1 check shares fits ``_GRID_BUDGET``.
    """
    if grid_points is not None:
        return max(int(grid_points), 2)
    d = L + (L - 1 if split.is_free else 0)
    g = DEFAULT_GRID_POINTS
    while g > 5 and g**d > _GRID_BUDGET:
        g -= 1
    return g


def _grid_axis(upper: float, g: int) -> np.ndarray:
    if upper <= 0.0:
        return np.array([0.0])
    return np.linspace(0.0, upper, g)


def _unpack(query: AsymptoticQuery, x: Sequence[float]):
    """Free vector -> (omega, alpha_o per level, beta per level) or None.

    The last level's output share and check share are pinned by the
    constraints; small negative residuals are clamped, larger ones mean the
    candidate is infeasible.
    """
    q, L, alpha, beta = query.q, query.L, query.alpha, query.beta
    omega = float(x[0])
    alpha_o = [float(v) for v in x[1:L]]
    last_ao = alpha - omega / q - sum(alpha_o)
    if last_ao < -_FEAS_TOL or last_ao > 1.0 + _FEAS_TOL:
        return None
    alpha_o.append(min(max(last_ao, 0.0), 1.0))
    if query.split.is_free:
        betas = [float(v) for v in x[L:]]
        last_b = beta - sum(betas)
        if last_b < -_FEAS_TOL:
            return None
        betas.append(max(last_b, 0.0))
    else:
        betas = [f * beta for f in query.split.fractions]
    if any(v > 1.0 + _FEAS_TOL for v in betas):
        return None
    betas = [min(max(v, 0.0), 1.0) for v in betas]
    return omega, alpha_o, betas


def _eval_candidate(query: AsymptoticQuery, x: Sequence[float]):
    """Scalar objective with per-level inner optima; (value, inner list)."""
    unpacked = _unpack(query, x)
    if unpacked is None:
        return NEG_INF, None
    omega, alpha_o, betas = unpacked
    if omega < 0.0 or omega > 1.0:
        return NEG_INF, None
    total = f_rep(omega, query.q) - binary_entropy(omega)
    inners: List[InnerOptimum] = []
    a_in = omega
    for level in range(query.L):
        inner = _facc_scalar(a_in, alpha_o[level], betas[level])
        if not inner.feasible:
            return NEG_INF, None
        inners.append(inner)
        total += inner.value
        if level < query.L - 1:
            total -= binary_entropy(alpha_o[level])
        a_in = alpha_o[level]
    return total, inners


def _grid_stage(query: AsymptoticQuery, grid_points: Optional[int]):
    """Deterministic coarse grid; returns candidate matrix and values."""
    q, L, alpha, beta = query.q, query.L, query.alpha, query.beta
    g = _grid_resolution(L, query.split, grid_points)
    axes = [_grid_axis(min(1.0, q * alpha), g)]
    axes += [_grid_axis(min(1.0, alpha), g) for _ in range(L - 1)]
    if query.split.is_free:
        axes += [_grid_axis(beta, g) for _ in range(L - 1)]
    mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else [axes[0]]
    cand = np.stack([m.ravel() for m in mesh], axis=1)

    omega = cand[:, 0]
    alpha_o_partial = cand[:, 1:L]
    last_ao = alpha - omega / q - alpha_o_partial.sum(axis=1)
    if query.split.is_free:
        beta_partial = cand[:, L:]
        last_b = beta - beta_partial.sum(axis=1)
    else:
        fr = np.asarray(query.split.fractions)
        beta_partial = np.broadcast_to(fr[: L - 1] * beta, (cand.shape[0], L - 1))
        last_b = np.full(cand.shape[0], fr[-1] * beta)

    ok = (
        (last_ao >= -_FEAS_TOL)
        & (last_ao <= 1.0 + _FEAS_TOL)
        & (last_b >= -_FEAS_TOL)
        & (last_b <= 1.0 + _FEAS_TOL)
    )
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return cand, np.full(cand.shape[0], NEG_INF)

    omega_f = omega[idx]
    ao_full = np.column_stack([alpha_o_partial[idx], np.clip(last_ao[idx], 0.0, 1.0)])
    b_full = np.column_stack([beta_partial[idx], np.clip(last_b[idx], 0.0, 1.0)])

    total = _entropy_arr(omega_f) / q - _entropy_arr(omega_f)
    a_in = omega_f
    for level in range(L):
        total = total + _facc_batch(a_in, ao_full[:, level], b_full[:, level])
        if level < L - 1:
            total = total - _entropy_arr(ao_full[:, level])
        a_in = ao_full[:, level]

    values = np.full(cand.shape[0], NEG_INF)
    values[idx] = total
    return cand, values


def _refine(query: AsymptoticQuery, x0: np.ndarray) -> Tuple[np.ndarray, float]:
    """Nelder-Mead ascent from one seed (bounded, deterministic)."""
    q, L, alpha, beta = query.q, query.L, query.alpha, query.beta
    bounds = [(0.0, min(1.0, q * alpha))]
    bounds += [(0.0, min(1.0, alpha))] * (L - 1)
    if query.split.is_free:
        bounds += [(0.0, beta)] * (L - 1)

    def neg(x):
        value, _ = _eval_candidate(query, x)
        if value == NEG_INF:
            # Finite penalty sloped toward feasibility keeps the simplex alive.
            unpacked_violation = 0.0
            omega = x[0]
            last_ao = alpha - omega / q - sum(x[1:L])
            if last_ao < 0:
                unpacked_violation += -last_ao
            if query.split.is_free:
                last_b = beta - sum(x[L:])
                if last_b < 0:
                    unpacked_violation += -last_b
            return 10.0 + 100.0 * unpacked_violation
        return -value

    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = np.maximum(hi - lo, 0.0)
    x0 = np.clip(x0, lo + 1e-6 * span, hi - 1e-6 * span)
    res = minimize(
        neg,
        x0,
        method="Nelder-Mead",
        bounds=bounds,
        options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": 4000, "maxfev": 4000},
    )
    return res.x, -res.fun


def r_point(
    query: AsymptoticQuery,
    grid_points: Optional[int] = None,
    n_seeds: int = 8,
) -> AsymptoticPoint:
    """Spectral-shape value r(alpha, beta) with its maximizing witness.

    Coarse grid (``grid_points`` per free dimension, default 33, reduced
    automatically when the dimension count would exceed the grid budget)
    followed by Nelder-Mead refinement from the best ``n_seeds`` seeds.
    Infeasible queries return r = NEG_INF with no witness.
    """
    cand, values = _grid_stage(query, grid_points)
    order = np.argsort(-values, kind="stable")
    seeds = [cand[i] for i in order[:n_seeds] if values[i] > NEG_INF]
    if not seeds:
        return AsymptoticPoint(query.alpha, query.beta, NEG_INF, None)

    best_x, best_v = None, NEG_INF
    for seed in seeds:
        x, v = _refine(query, np.asarray(seed, dtype=float))
        if v > best_v:
            best_x, best_v = x, v
    # Fall back to the raw grid winner if refinement went nowhere feasible.
    if best_x is None or best_v == NEG_INF:
        best_x = np.asarray(seeds[0], dtype=float)

    value, inners = _eval_candidate(query, best_x)
    if inners is None:
        return AsymptoticPoint(query.alpha, query.beta, NEG_INF, None)
    omega, alpha_o, betas = _unpack(query, best_x)
    witness = OptimizerWitness(
        omega=omega,
        levels=tuple(
            LevelWitness(alpha_o=alpha_o[i], beta=betas[i], mu=inners[i].mu, nu=inners[i].nu)
            for i in range(query.L)
        ),
    )
    return AsymptoticPoint(query.alpha, query.beta, value, witness)


def sweep(spec: SweepSpec, n_seeds: int = 8) -> List[AsymptoticPoint]:
    """One r_point per grid alpha with beta = delta * alpha, in grid order.

    Infeasible rows carry the infeasibility marker; they do not abort the
    sweep.
    """
    points = []
    for alpha in spec.alpha_grid:
        query = AsymptoticQuery(
            q=spec.q, L=spec.L, alpha=alpha, beta=spec.delta * alpha, split=spec.split
        )
        points.append(r_point(query, grid_points=spec.grid_points, n_seeds=n_seeds))
    return points
