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
is low-dimensional and is searched by a deterministic coarse grid followed
by Nelder-Mead refinement from the best seeds; it is reproducible but not
certified globally optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
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
# per-root arrays without giving up vectorization.
_GRID_BLOCK = 512
_N_SEEDS = 8   # best grid points refined by Nelder-Mead


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


def _unpack(query: AsymptoticQuery, x: np.ndarray):
    """Free vectors (rows of ``x``) -> (omega, alpha_o, betas, ok, violation).

    ``alpha_o`` and ``betas`` hold one column per level.  The last level's
    output share and check share are pinned by the constraints and clamped
    into [0, 1]; a row is infeasible (``ok`` false) when a pinned share
    leaves that range by more than the tolerance, a check share exceeds 1 or
    omega leaves [0, 1].  ``violation`` is how far the pinned shares fall
    below zero.
    """
    q, L, alpha, beta = query.q, query.L, query.alpha, query.beta
    omega = x[:, 0]
    last_ao = alpha - omega / q - x[:, 1:L].sum(axis=1)
    if query.split.is_free:
        last_b = beta - x[:, L:].sum(axis=1)
        betas = np.column_stack([x[:, L:], last_b])
    else:
        betas = np.broadcast_to(np.asarray(query.split.fractions) * beta, (x.shape[0], L))
        last_b = betas[:, -1]
    ok = (
        (omega >= 0.0)
        & (omega <= 1.0)
        & (last_ao >= -_FEAS_TOL)
        & (last_ao <= 1.0 + _FEAS_TOL)
        & (last_b >= -_FEAS_TOL)
        & np.all(betas <= 1.0 + _FEAS_TOL, axis=1)
    )
    alpha_o = np.column_stack([x[:, 1:L], np.clip(last_ao, 0.0, 1.0)])
    violation = np.maximum(-last_ao, 0.0) + np.maximum(-last_b, 0.0)
    return omega, alpha_o, np.clip(betas, 0.0, 1.0), ok, violation


def _eval_candidate(query: AsymptoticQuery, x: np.ndarray):
    """Outer objective of each free vector (row of ``x``); NEG_INF if infeasible.

    Returns (values, levels, violation): ``levels`` is (omega, alpha_o,
    betas, mu, nu) with one column per level for all but omega, and
    ``violation`` is as in ``_unpack``.  One inner solve covers every level
    of every row.
    """
    omega, alpha_o, betas, ok, violation = _unpack(query, x)
    mu, nu, inner = _inner(np.column_stack([omega, alpha_o[:, :-1]]), alpha_o, betas)
    h_omega = _entropy(omega)
    values = (
        h_omega / query.q - h_omega + inner.sum(axis=1) - _entropy(alpha_o[:, :-1]).sum(axis=1)
    )
    return np.where(ok, values, NEG_INF), (omega, alpha_o, betas, mu, nu), violation


def _grid_stage(query: AsymptoticQuery, grid_points: Optional[int]):
    """Deterministic coarse grid; returns candidate matrix and values.

    The grid is evaluated ``_GRID_BLOCK`` rows at a time, and only the
    feasible rows of a block reach the inner solve; this bounds the memory
    that its per-root arrays take.
    """
    q, L, alpha, beta = query.q, query.L, query.alpha, query.beta
    g = _grid_resolution(L, query.split, grid_points)
    axes = [_grid_axis(min(1.0, q * alpha), g)]
    axes += [_grid_axis(min(1.0, alpha), g) for _ in range(L - 1)]
    if query.split.is_free:
        axes += [_grid_axis(beta, g) for _ in range(L - 1)]
    mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else [axes[0]]
    cand = np.stack([m.ravel() for m in mesh], axis=1)

    values = np.full(cand.shape[0], NEG_INF)
    for start in range(0, cand.shape[0], _GRID_BLOCK):
        block = cand[start : start + _GRID_BLOCK]
        ok = _unpack(query, block)[3]
        values[start : start + _GRID_BLOCK][ok] = _eval_candidate(query, block[ok])[0]
    return cand, values


def _refine(query: AsymptoticQuery, x0: np.ndarray) -> Tuple[np.ndarray, float]:
    """Nelder-Mead ascent from one seed (bounded, deterministic)."""
    q, L, alpha, beta = query.q, query.L, query.alpha, query.beta
    bounds = [(0.0, min(1.0, q * alpha))]
    bounds += [(0.0, min(1.0, alpha))] * (L - 1)
    if query.split.is_free:
        bounds += [(0.0, beta)] * (L - 1)

    def neg(x):
        values, _, violation = _eval_candidate(query, x[None, :])
        if values[0] == NEG_INF:
            # Finite penalty sloped toward feasibility keeps the simplex alive.
            return 10.0 + 100.0 * violation[0]
        return -values[0]

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


def r_point(query: AsymptoticQuery, grid_points: Optional[int] = None) -> AsymptoticPoint:
    """Spectral-shape value r(alpha, beta) with its maximizing witness.

    Coarse grid (``grid_points`` per free dimension, default 33, reduced
    automatically when the dimension count would exceed the grid budget)
    followed by Nelder-Mead refinement from the best ``_N_SEEDS`` seeds.
    Infeasible queries return r = NEG_INF with no witness.
    """
    cand, values = _grid_stage(query, grid_points)
    order = np.argsort(-values, kind="stable")
    seeds = [cand[i] for i in order[:_N_SEEDS] if values[i] > NEG_INF]
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

    values, (omega, alpha_o, betas, mu, nu), _ = _eval_candidate(query, best_x[None, :])
    if values[0] == NEG_INF:
        return AsymptoticPoint(query.alpha, query.beta, NEG_INF, None)
    witness = OptimizerWitness(
        omega=float(omega[0]),
        levels=tuple(
            LevelWitness(
                alpha_o=float(alpha_o[0, i]),
                beta=float(betas[0, i]),
                mu=float(mu[0, i]),
                nu=float(nu[0, i]),
            )
            for i in range(query.L)
        ),
    )
    return AsymptoticPoint(query.alpha, query.beta, float(values[0]), witness)


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
