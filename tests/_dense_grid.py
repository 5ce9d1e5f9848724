"""Independent dense-grid oracle for the accumulator shape objective.

Transcribes the five-term entropy objective and its feasibility box
directly, evaluates it on a dense (mu, nu) grid with numpy, and returns the
grid maximum.  Shares no code with the optimizer under test.
"""

import numpy as np

_TOL = 1e-12


def _entropy(x):
    inside = (x > 0.0) & (x < 1.0)
    safe = np.where(inside, x, 0.5)
    return np.where(inside, -safe * np.log(safe) - (1 - safe) * np.log(1 - safe), 0.0)


def _term(t, s, tol):
    bad = (t < -tol) | (s < -tol) | (s > t + tol)
    pos = t > tol
    ratio = np.clip(np.where(pos, s, 0.0) / np.where(pos, t, 1.0), 0.0, 1.0)
    return np.where(bad, -np.inf, np.where(pos, t * _entropy(ratio), 0.0))


def facc_grid_max(ai: float, ao: float, b: float, n: int = 2000, tol: float = _TOL) -> float:
    """Grid supremum of the shape objective; -inf if the box is empty.

    Grid points up to ``tol`` outside the feasible set count as feasible,
    which absorbs rounding at the box edges.  There the objective's slope is
    unbounded, so such a point can exceed the true supremum by about
    tol*ln(1/tol); with ``tol=0`` every point counted is feasible and the
    result is a lower bound of the supremum.
    """
    mu_lo = max(abs(ai - b) / 2.0, 0.0)
    nu_lo = max(0.0, (ai + b) / 2.0 - ao)
    mu_hi = min(ao, 1.0 - ao, min(1.0 - ao, (ai + b) / 2.0) - nu_lo)
    if mu_lo > mu_hi + tol:
        return -np.inf
    mu_hi = max(mu_hi, mu_lo)  # an interval empty by at most tol is one point
    nu_hi = min(1.0 - ao - mu_lo, (ai + b) / 2.0 - mu_lo)
    nus = np.linspace(nu_lo, max(nu_hi, nu_lo), n)[None, :]
    half = (ai + b) / 2.0
    mu_grid = np.linspace(mu_lo, mu_hi, n)
    best = -np.inf
    # A block of mu rows at a time, with a running maximum: the same terms
    # on the same grid as one n x n evaluation.  A block holds at most 8,192
    # values (64 KiB), which the allocator reuses; 64 rows of 2,000 (1 MB)
    # were mapped afresh for each temporary, at 113k page faults per call.
    rows = max(1, 8192 // n)
    for i in range(0, n, rows):
        mus = mu_grid[i:i + rows, None]
        # Each term is evaluated on the smallest array its arguments span
        # (three depend on mu only); the sum broadcasts them to the block.
        obj = (
            _term(1.0 - ao, mus, tol)
            + _term(ao, mus, tol)
            + _term(ao - mus, half - nus - mus, tol)
            + _term(1.0 - ao - mus, nus, tol)
            + _term(2.0 * mus, (ai - b) / 2.0 + mus, tol)
        )
        best = max(best, float(np.max(obj)))
    return best


def sample_shape_args(rng: np.random.Generator):
    """One well-conditioned random argument triple (interior optimum)."""
    ao = rng.uniform(0.25, 0.6)
    b = rng.uniform(0.05, 0.3)
    ai = rng.uniform(0.1, 0.5)
    return ai, ao, b
