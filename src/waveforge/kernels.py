"""Symbol functions and partial-fraction weights.

These are the per-mode building blocks every solver shares: the weights
that distribute a factored operator over single-factor propagators, the
time-propagation symbol of the m-fold wave operator, and the per-eigenvalue
symbols used by the initial-boundary solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpeeds, InvalidOrder, NonPositiveSpeed
from .quadrature import double_factorial, iterated_time_integral

__all__ = [
    "PartialFractionWeights",
    "first_order_weights",
    "second_order_weights",
    "gm_wave_symbol",
    "eigen_symbol",
    "SPEED_SEPARATION",
]

# weights blow up like 1/separation; desk-scale speeds are O(1)
SPEED_SEPARATION = 1e-9


@dataclass(frozen=True)
class PartialFractionWeights:
    speeds: tuple[float, ...]
    weights: tuple[float, ...]
    order: str  # "first" (d/dt factors) or "second" (d^2/dt^2 factors)


def _check_distinct(a):
    a = [float(v) for v in a]
    m = len(a)
    if m < 2:
        raise InvalidOrder("partial-fraction weights need at least two speeds")
    for j in range(m):
        for i in range(j):
            if abs(a[j] - a[i]) < SPEED_SEPARATION:
                raise DegenerateSpeeds(
                    f"speeds {a[i]} and {a[j]} closer than {SPEED_SEPARATION}"
                )
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
    return PartialFractionWeights(tuple(a), tuple(weights), "first")


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
    return PartialFractionWeights(tuple(a), tuple(weights), "second")


def gm_wave_symbol(omega: float, m: int, t: float, rule_count: int = 48) -> float:
    """Time symbol of the m-fold wave kernel at frequency omega.

    m = 1 is sin(omega t)/omega; m >= 2 applies m-1 iterated time integrals
    (collapsed to one quadrature) with the 1/(2m-2)!! prefactor.
    """
    if m < 1:
        raise InvalidOrder(f"order must be >= 1, got {m}")
    if omega <= 0:
        raise InvalidOrder(f"frequency must be positive, got {omega}")
    if m == 1:
        return math.sin(omega * t) / omega
    integral = iterated_time_integral(
        lambda tau: np.sin(omega * tau) / omega, m - 1, t, rule_count
    )
    return integral / double_factorial(2 * m - 2)


def eigen_symbol(kind: str, lam, a: float, t):
    """Per-eigenvalue symbol: heat decay, or wave sin/cos at sqrt(lam).

    ``lam`` and ``t`` may be scalars or arrays that broadcast together; a
    scalar pair gives a float, anything else an array.  The lam -> 0 limit
    of the wave-sin branch is t; below a*sqrt(lam)*t of 1e-4 the Taylor
    form t - a^2 lam t^3 / 6 avoids cancellation.
    """
    lam = np.asarray(lam, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(lam < 0):
        raise InvalidOrder(f"eigenvalue must be >= 0, got {lam.min()}")
    if kind == "heat-exp":
        out = np.exp(-t * a * lam)
    elif kind == "wave-cos":
        out = np.cos(a * np.sqrt(lam) * t)
    elif kind == "wave-sin":
        s = a * np.sqrt(lam)
        # both branches are evaluated; the discarded one may divide by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                np.abs(s * t) < 1e-4,
                t - (a * a * lam) * t**3 / 6.0,
                np.sin(s * t) / s,
            )
    else:
        raise InvalidOrder(f"unknown symbol kind '{kind}'")
    return float(out) if out.ndim == 0 else out
