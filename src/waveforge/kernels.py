"""Partial-fraction weights and divided differences of exp.

These are the per-mode building blocks every solver shares: the
confluent partial fractions over speed clusters that distribute a
factored operator over single-factor propagators, and the divided
differences of exp at the characteristic roots that give the
initial-boundary solver its mode amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DegenerateSpeeds, InvalidOrder, NonPositiveSpeed

__all__ = [
    "PartialFractionWeights",
    "first_order_weights",
    "second_order_weights",
    "exp_divided_differences",
    "speed_clusters",
    "cluster_fractions",
    "require_distinct",
    "SPEED_SEPARATION",
]

# the simple-pole weights below blow up like 1/separation, so they and the
# wave-distinct input check refuse closer speeds; desk-scale speeds are O(1)
SPEED_SEPARATION = 1e-9

_EPS = np.finfo(float).eps


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
    # NaN and inf pass the separation check and give NaN weights
    if not all(math.isfinite(v) for v in a):
        raise NonPositiveSpeed(f"speeds must be finite: {a}")
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


def speed_clusters(values):
    """The sorted ``values`` grouped into clusters of near-equal ones.

    Returns (centres, sizes): the mean and the count of each cluster.  A
    value joins the cluster before it while the cluster's spread stays
    within eps^(1/(n+1)) of the value, n the grown cluster's size.  The
    solution is symmetric in the speeds, so merging them at their mean
    errs by O(spread^2), while separate poles lose eps/spread^(n-1) to
    cancellation; the two balance at that gap.
    """
    groups = []
    for v in np.sort(np.asarray(values, dtype=float)):
        if groups and v - groups[-1][0] <= v * _EPS ** (1 / (len(groups[-1]) + 2)):
            groups[-1].append(v)
        else:
            groups.append([v])
    # offsets from the first value keep an exact repeat exact
    centres = [g[0] + np.mean(np.subtract(g, g[0])) for g in groups]
    return np.array(centres), [len(g) for g in groups]


def cluster_fractions(values):
    """Confluent partial fractions of the data numerators over the clusters.

    With P(s) = prod_l (s - c_l)^(n_l) over the clusters of ``values``
    (:func:`speed_clusters`) and b_k its coefficients, datum r = 0..m-1
    enters as N_r(s) / P(s), N_r(s) = sum_{k>r} b_k s^(k-1-r).  Returns
    (centres, sizes, fractions) with fractions[r] = (p, alpha) and

        s^p N_r(s) / P(s) = sum_{l, i} alpha[l, i-1] / (s - c_l)^i.

    Restoring the Laplacian by homogeneity, the pole (l, i) carries
    Lap^(i-1-r+p).  p is the least power that keeps these nonnegative:
    0 for one cluster, whose poles below order r+1 vanish, and r for
    several, whose simple poles do not.  The coefficients are Taylor
    coefficients about each centre (Hermite interpolation), so a cluster
    needs no 1/separation weights.
    """
    centres, sizes = speed_clusters(values)
    poly = np.ones(1)
    for c, n in zip(centres, sizes):
        poly = P.polymul(poly, P.polypow([-c, 1.0], n))
    fractions = []
    for r in range(len(values)):
        p = 0 if len(centres) == 1 else r
        num = np.concatenate([np.zeros(p), poly[r + 1:]])
        alpha = np.zeros((len(centres), max(sizes)))
        for l, (c, n) in enumerate(zip(centres, sizes)):
            # num(c + h) / prod_{other clusters} (c + h - c2)^n2 to order h^(n-1)
            series = [P.polyval(c, P.polyder(num, j)) / math.factorial(j)
                      for j in range(n)]
            for l2, (c2, n2) in enumerate(zip(centres, sizes)):
                if l2 != l:
                    inverse = [(-1) ** k * math.comb(n2 + k - 1, k)
                               / (c - c2) ** (n2 + k) for k in range(n)]
                    series = np.convolve(series, inverse)[:n]
            alpha[l, :n] = series[::-1]
        fractions.append((p, alpha))
    return centres, sizes, fractions


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

    Every power of Z is lower triangular, so only the entries (i, k) with
    k <= i are kept, one array per diagonal.  Entry (i, k) of exp(hZ) is
    the divided difference e^{hz}[r_k..r_i], and a square follows the
    Leibniz rule for divided differences,
    (fg)[r_k..r_i] = sum_{m=k..i} f[r_k..r_m] g[r_m..r_i], summed in m
    order.  The products this leaves out are exact zeros of the full
    matrix product, so while the entries are finite each result is
    bit-identical to squaring the full N x N matrices.
    """
    roots = np.asarray(roots)
    t = np.asarray(t, dtype=float)
    n = roots.shape[0]
    norm = np.abs(t) * (np.abs(roots).max(axis=0) + 1.0)
    s = np.ceil(np.log2(np.maximum(norm, 1.0)))
    h = t / 2.0**s
    r = roots * h
    # x[a][k] is the entry (k + a, k) of the matrix, a = 0..N-1.  numpy's
    # complex multiply rounds a * b differently from b * a, and in its
    # scalar loop differently from its vector loops, so each product keeps
    # the operand order of the matrix products A X and X X and goes into a
    # new array of at least one axis: 0-d and in-place products of one
    # element take the scalar loop
    x = [np.ones_like(r)] + [np.zeros_like(r[a:]) for a in range(1, n)]
    # Horner steps X <- I + A X / j with A = hZ: (A X)[i, k] is
    # h r_i X[i, k] + h X[i - 1, k], and X[i - 1, k] lies on the diagonal
    # before; the diagonals go last to first, so x[a - 1] is still the old one
    for j in range(_EXP_TAYLOR_DEGREE, 0, -1):
        for a in range(n - 1, 0, -1):
            x[a] = r[a:] * x[a]
            x[a] += h * x[a - 1][:-1]
            x[a] /= j
        x[0] = r * x[0]
        x[0] /= j
        x[0] += 1.0
    for i in range(int(s.max())):
        # entry (k + c, k) of the square sums X[k + c, k + a] X[k + a, k]
        # over a = 0..c
        square = []
        for c in range(n):
            acc = x[c] * x[0][:n - c]
            for a in range(1, c + 1):
                acc += x[c - a][a:a + n - c] * x[a][:n - c]
            square.append(acc)
        x = [np.where(s > i, sq, old) for sq, old in zip(square, x)]
    return np.stack([diagonal[0] for diagonal in x])
