"""Symbol functions and partial-fraction weights.

These are the per-mode building blocks every solver shares: the weights
that distribute a factored operator over single-factor propagators, and
the divided differences of exp at the characteristic roots that give the
initial-boundary solver its mode amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpeeds, InvalidOrder, NonPositiveSpeed

__all__ = [
    "PartialFractionWeights",
    "first_order_weights",
    "second_order_weights",
    "exp_divided_differences",
    "require_distinct",
    "SPEED_SEPARATION",
]

# weights blow up like 1/separation; desk-scale speeds are O(1)
SPEED_SEPARATION = 1e-9


@dataclass(frozen=True)
class PartialFractionWeights:
    speeds: tuple[float, ...]
    weights: tuple[float, ...]


def require_distinct(a) -> None:
    """Raise DegenerateSpeeds naming the first pair closer than SPEED_SEPARATION."""
    for j in range(len(a)):
        for i in range(j):
            if abs(a[j] - a[i]) < SPEED_SEPARATION:
                raise DegenerateSpeeds(
                    f"speeds {a[i]} and {a[j]} closer than {SPEED_SEPARATION}"
                )


def _check_distinct(a):
    a = [float(v) for v in a]
    if len(a) < 2:
        raise InvalidOrder("partial-fraction weights need at least two speeds")
    require_distinct(a)
    return a


def first_order_weights(a) -> PartialFractionWeights:
    """Weights a_j^(m-1) / prod_{i != j} (a_j - a_i); they sum to 1."""
    a = _check_distinct(a)
    m = len(a)
    weights = []
    for j in range(m):
        denom = 1.0
        for i in range(m):
            if i != j:
                denom *= a[j] - a[i]
        weights.append(a[j] ** (m - 1) / denom)
    return PartialFractionWeights(tuple(a), tuple(weights))


def second_order_weights(a) -> PartialFractionWeights:
    """Weights a_j^(2m-2) / prod_{i != j} (a_j^2 - a_i^2) for positive speeds."""
    a = _check_distinct(a)
    m = len(a)
    if any(v <= 0 for v in a):
        raise NonPositiveSpeed(f"second-order weights need positive speeds: {a}")
    weights = []
    for j in range(m):
        denom = 1.0
        for i in range(m):
            if i != j:
                denom *= a[j] ** 2 - a[i] ** 2
        weights.append(a[j] ** (2 * m - 2) / denom)
    return PartialFractionWeights(tuple(a), tuple(weights))


# Taylor degree for exp of a matrix scaled to infinity norm <= 1: the
# remainder is at most sum_{k > 18} 1/k! < 1e-17
_EXP_TAYLOR_DEGREE = 18


def exp_divided_differences(roots, t):
    """phi_k(t) = e^{zt}[r_0, ..., r_k] for k = 0..N-1, batched over modes.

    ``roots`` has shape (N, ...) with the N roots of each mode along the
    first axis; ``t`` is a scalar or broadcasts against the mode axes.
    The result has the shape of ``roots``.  phi_0 = e^{r_0 t} and
    phi_k' = r_k phi_k + phi_{k-1}, so phi_{N-1} is the impulse response
    of prod_k (D - r_k).

    The divided differences are the first column of exp(t Z), with Z lower
    bidiagonal: the roots on the diagonal, ones below it (Opitz), so equal
    and nearly equal roots need no special case and lose no digits
    (McCurdy, Ng & Parlett 1984).  exp is a Taylor sum of t Z / 2^s,
    squared s times; each mode takes the least s that brings its norm to
    at most 1, since every needless squaring doubles its rounding error.
    """
    roots = np.asarray(roots)
    t = np.asarray(t, dtype=float)
    n = roots.shape[0]
    norm = np.abs(t) * (np.abs(roots).max(axis=0) + 1.0)
    s = np.ceil(np.log2(np.maximum(norm, 1.0)))
    h = t / 2.0**s
    diag = (roots * h)[:, None]
    eye = np.eye(n).reshape((n, n) + (1,) * (roots.ndim - 1))
    # Horner steps X <- I + A X / j; A is bidiagonal, so A X is X with its
    # rows scaled plus X shifted down one row
    x = eye + np.zeros_like(diag)
    for j in range(_EXP_TAYLOR_DEGREE, 0, -1):
        ax = diag * x
        ax[1:] += h * x[:-1]
        x = eye + ax / j
    for i in range(int(s.max())):
        square = sum(x[:, k, None] * x[None, k] for k in range(n))
        x = np.where(s > i, square, x)
    return x[:, 0]
