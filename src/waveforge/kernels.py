"""Partial-fraction weights and divided differences of exp.

These are the per-mode building blocks every solver shares: the
confluent partial fractions over speed clusters that distribute a
factored operator over single-factor propagators, and the divided
differences of exp at the characteristic roots that give the
initial-boundary solver its mode amplitudes: exp and expm1 in closed form
at one or two roots per mode, the Opitz matrix at three or more.
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
    "SPEED_SEPARATION",
]

# the simple-pole weights below blow up like 1/separation, so they refuse
# speeds whose differences are within this fraction of their size; the
# solvers take no such weights and merge near-equal speeds into one cluster
SPEED_SEPARATION = 1e-9

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PartialFractionWeights:
    speeds: tuple[float, ...]
    weights: tuple[float, ...]


def _fraction_weights(a, power: int) -> PartialFractionWeights:
    """Weights a_j^(power (m-1)) / prod_{i != j} (a_j^power - a_i^power)."""
    a = [float(v) for v in a]
    m = len(a)
    if m < 2:
        raise InvalidOrder("partial-fraction weights need at least two speeds")
    # NaN and inf give NaN weights
    if not all(math.isfinite(v) for v in a):
        raise NonPositiveSpeed(f"speeds must be finite: {a}")
    # a float power past the largest float raises OverflowError
    try:
        v = [x ** power for x in a]
        top = [x ** (power * (m - 1)) for x in a]
    except OverflowError:
        raise NonPositiveSpeed(f"speeds too large for their powers: {a}") from None
    # compared as the powers the weights divide by, so equal squares fail
    for j in range(m):
        for i in range(j):
            if math.isclose(v[i], v[j], rel_tol=SPEED_SEPARATION):
                raise DegenerateSpeeds(f"speeds {a[i]} and {a[j]} closer than "
                                       f"{SPEED_SEPARATION} of their size")
    return PartialFractionWeights(tuple(a), tuple(
        top[j] / math.prod(v[j] - v[i] for i in range(m) if i != j)
        for j in range(m)))


def first_order_weights(a) -> PartialFractionWeights:
    """Weights a_j^(m-1) / prod_{i != j} (a_j - a_i); they sum to 1."""
    return _fraction_weights(a, 1)


def second_order_weights(a) -> PartialFractionWeights:
    """Weights a_j^(2m-2) / prod_{i != j} (a_j^2 - a_i^2) for positive speeds."""
    if any(-math.inf < float(v) <= 0 for v in a):  # NaN, -inf: not finite
        raise NonPositiveSpeed(f"second-order weights need positive speeds: {a}")
    return _fraction_weights(a, 2)


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

    They are built at unit scale, the values over a power of two 2^e, so
    P's coefficients neither underflow nor overflow; the centres then take
    2^e and alpha[l, i-1] 2^(e q), q its Laplacian power, both exactly.
    """
    _, e = math.frexp(max(values))
    centres, sizes = speed_clusters(np.ldexp(values, -e))
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
        fractions.append((p, np.ldexp(alpha, e * (np.arange(max(sizes)) - r + p))))
    return np.ldexp(centres, e), sizes, fractions


# Taylor degree for exp of a matrix scaled to infinity norm <= 1: the
# remainder is at most sum_{k > 18} 1/k! < 1e-17
_EXP_TAYLOR_DEGREE = 18


def exp_divided_differences(roots, t):
    """phi_k(t) = e^{zt}[r_0, ..., r_k] for k = 0..N-1, batched over modes.

    ``roots`` has shape (N, ...) with the N roots of each mode along the
    first axis; ``t`` has no more axes, and the result has the shape
    np.broadcast_shapes(roots.shape, t.shape): roots (2, 1, 512) at t of
    shape (16, 1) give (2, 16, 512), roots (2,) at t of shape (1,) give (2,).
    phi_0 = e^{r_0 t} and phi_k' = r_k phi_k + phi_{k-1}, so phi_{N-1} is
    the impulse response of prod_k (D - r_k).

    One or two roots take closed forms, e^{zt}[r_0, r_1] = e^{bt} t expm1(d)/d
    with b the root of larger Re(r t) and d = (other - b) t, exact at any
    root gap; closed forms lose digits once three or more roots cluster.

    Otherwise the divided differences are the first column of exp(t Z),
    with Z lower bidiagonal: the roots on the diagonal, ones below it
    (Opitz), so equal and nearly equal roots need no special case and lose
    no digits (McCurdy, Ng & Parlett 1984).  exp is a Taylor sum of
    t Z / 2^s, squared s times; each mode takes the least s that brings its
    norm to at most 1, since every needless squaring doubles its rounding
    error.

    Every power of Z is lower triangular, so only the entries (i, k) with
    k <= i are kept, one array per diagonal.  Entry (i, k) of exp(hZ) is
    the divided difference e^{hz}[r_k..r_i], and a square follows the
    Leibniz rule for divided differences,
    (fg)[r_k..r_i] = sum_{m=k..i} f[r_k..r_m] g[r_m..r_i], summed in m
    order.  The products this leaves out are exact zeros of the full
    matrix product, so while the entries are finite each result is
    bit-identical to squaring the full N x N matrices, as is a square
    kept whole once every mode squares, and complex entries scaled by 1/j.
    """
    roots = np.asarray(roots)
    t = np.asarray(t, dtype=float)
    n = roots.shape[0]
    if n <= 2:
        # a trailing axis keeps each product off numpy's 0-d complex loop,
        # which rounds unlike its vector loop
        r = roots[..., None]
        t = np.broadcast_to(t, np.broadcast_shapes(roots.shape, t.shape))[0][..., None]
        phi = [np.exp(r[0] * t)]
        if n == 2:
            # b is r_1 where swap, else r_0; Re d <= 0, so expm1 cannot overflow
            d = (r[1] - r[0]) * t
            swap = d.real > 0
            np.negative(d, out=d, where=swap)
            psi = np.expm1(d, out=np.ones_like(d), where=d != 0)
            np.divide(psi, d, out=psi, where=d != 0)
            phi.append(np.exp(r[1] * t, out=phi[0].copy(), where=swap) * (t * psi))
        return np.stack(phi)[..., 0]
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
        # complex / j is Smith's algorithm, exactly * (1 / j) when finite, at
        # 4x the cost; a real a / j rounds unlike a * (1 / j), so it divides
        scale, by = (np.multiply, 1.0 / j) if np.iscomplexobj(r) else (np.true_divide, j)
        for a in range(n - 1, 0, -1):
            x[a] = r[a:] * x[a]
            x[a] += h * x[a - 1][:-1]
            scale(x[a], by, out=x[a])
        x[0] = r * x[0]
        scale(x[0], by, out=x[0])
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
        x = square if (s > i).all() else [np.where(s > i, sq, o) for sq, o in zip(square, x)]
    return np.stack([diagonal[0] for diagonal in x])
