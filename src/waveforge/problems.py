"""Problem descriptions and the one solve path of the whole-space solvers.

A :class:`CauchyProblem` bundles the operator family, its order, the
propagation speeds, the source, and the initial data.  Validation happens
at construction so solver code can assume a well-formed problem.
:func:`cluster_evaluator` evaluates G(Lap, t) = L^-1[1/P(Lap, s)] on the
data and the source for every family and every speed cluster; the heat
and wave solvers supply only their kernel.
"""

from __future__ import annotations

import functools
import math
import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    DataCountMismatch,
    DomainError,
    InvalidOrder,
    NegativeDiffusionTime,
    NonPositiveSpeed,
    UnsupportedDimension,
)
from .expr import Expr, Mesh, laplacian_power
from .kernels import cluster_fractions
from .quadrature import climb, double_factorial, gauss_legendre, row_dot

__all__ = ["CauchyProblem", "SolutionEvaluator", "KINDS", "TIME_LADDER",
           "check_counts", "cluster_evaluator"]

# operator families: m-fold wave with one speed, and products of wave or
# of heat factors with any speeds
KINDS = ("wave-multiple", "wave-distinct", "heat-product")

# Gauss-Legendre counts of the whole-space time rules a point climbs by
# quadrature.climb
TIME_LADDER = (8, 12, 16, 24, 32, 48, 64)

# fewest points a thread's slab takes (README "Threads")
MIN_SLAB_POINTS = 256


@dataclass(frozen=True)
class CauchyProblem:
    """Whole-space problem for a factored evolution operator.

    kind      one of :data:`KINDS`
    n         spatial dimension (wave kinds need odd n in {3, 5})
    m         number of operator factors, >= 1
    speeds    one positive speed per factor ("wave-multiple" repeats a
              single one); equal and near-equal speeds of the other kinds
              are merged into one cluster by cluster_evaluator
    source    right-hand side f(x, t), or None for the homogeneous problem
    data      initial data, lowest time-derivative first; wave kinds take
              2m entries, heat kinds m; None entries mean zero
    """

    kind: str
    n: int
    m: int
    speeds: tuple[float, ...]
    source: Optional[Expr]
    data: tuple[Optional[Expr], ...]

    def __post_init__(self):
        check_counts(self.kind, self.n, self.m, self.speeds)
        expected = 2 * self.m if self.kind != "heat-product" else self.m
        if len(self.data) != expected:
            raise DataCountMismatch(
                f"{self.kind} of order {self.m} needs {expected} data "
                f"entries, got {len(self.data)}"
            )
        # NaN fails both comparisons
        if not all(0 < a < math.inf for a in self.speeds):
            raise NonPositiveSpeed(
                f"speeds must be positive and finite: {self.speeds}")
        # the wave's factors take a^2, which must not overflow
        if self.kind != "heat-product" and not all(math.isfinite(a * a)
                                                   for a in self.speeds):
            raise NonPositiveSpeed(
                f"wave speeds must have a finite square: {self.speeds}")
        # equal up to rounding, relative to the speeds' size
        if self.kind == "wave-multiple" and not all(
                math.isclose(v, self.speeds[0], rel_tol=1e-14) for v in self.speeds):
            raise InvalidOrder(
                f"wave-multiple repeats one speed, got unequal speeds {self.speeds}"
            )
        for e in self.data:
            if e is not None and e.ndim != self.n:
                raise DataCountMismatch(
                    f"data expression has dimension {e.ndim}, problem has {self.n}"
                )
        if self.source is not None and self.source.ndim != self.n:
            raise DataCountMismatch(
                f"source has dimension {self.source.ndim}, problem has {self.n}"
            )


def check_counts(kind: str, n: int, m: int, speeds: Sequence[float]):
    """The checks of :class:`CauchyProblem` on its kind, dimension, order
    and speed count, which a config runs before it lists keys by n and m."""
    if kind not in KINDS:
        raise InvalidOrder(f"unknown problem kind '{kind}'")
    if m < 1:
        raise InvalidOrder(f"order must be >= 1, got {m}")
    # solvers impose their own sharper dimension limits (odd n for
    # whole-space wave kinds, n <= 3 for diffusion and boxes)
    if n < 1 or n > 5:
        raise UnsupportedDimension(f"dimension must be between 1 and 5, got {n}")
    if len(speeds) != m:
        raise DataCountMismatch(f"need one speed per factor ({m}), got {len(speeds)}")


class SolutionEvaluator:
    """The one evaluation entry point of every solver.

    ``evaluate(X, times (T,), threads=1)`` returns the solution on the
    product of X and the times, shape (P, T) for (P, n) points X and
    (g1, ..., gn, T) for an open mesh (:class:`~waveforge.expr.Mesh`).  The
    solver supplies ``at(t)``, its solution at one time as a function of a
    mesh, a point array being the mesh of its columns; a point's value must
    not depend on the other points in the call.  ``evaluate`` calls
    ``at(t)`` once per time, and with ``threads`` > 1 applies its function
    to slabs of X, of :data:`MIN_SLAB_POINTS` points or more, on at most
    that many threads; a non-finite value raises
    :class:`~waveforge.errors.DomainError` naming its point and time.
    ``__call__`` wraps it, and :meth:`check_times` is the time check of
    every entry point.
    """

    def __init__(self, problem: CauchyProblem, at: Callable):
        self.problem = problem
        self._at = at

    def evaluate(self, X, times, threads: int = 1) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        n = self.problem.n
        if isinstance(X, Mesh):
            X, got = Mesh(np.asarray(x, dtype=float) for x in X), f"{len(X)} axes"
        else:
            # the columns of (P, n) points, as views; no other shape has axes
            X = np.asarray(X, dtype=float)
            X, got = Mesh(X.T if X.ndim == 2 else ()), X.shape
        if len(X) != n or times.ndim != 1:
            raise DataCountMismatch(
                f"need points of shape (P, {n}) or a mesh of {n} axes, and "
                f"times of shape (T,), got {got} and {times.shape}"
            )
        try:
            shape = X.shape[:-1]
        except ValueError:
            raise DataCountMismatch(f"mesh axes of shapes {[x.shape for x in X]} "
                                    f"do not broadcast") from None
        self.check_times(times)
        out = np.empty(shape + (times.size,))
        # a point's value does not depend on its slab, so every thread count
        # gives the same values; the longest axis is cut once, this thread
        # takes the first slab, and no more pool threads start than there
        # are CPUs (with the bounded reductions a pool thread's own malloc
        # arena adds no measurable peak RSS)
        count = min(threads, max(shape, default=1), math.prod(shape) // MIN_SLAB_POINTS)
        first, mesh, rest = out, X, []
        if count > 1:
            a = int(np.argmax(shape)) - len(shape)  # from the end, as axes broadcast
            cuts = [np.array_split(x, count, axis=a) if x.ndim >= -a and x.shape[a] > 1
                    else [x] * count for x in X]
            (first, mesh), *rest = zip(np.array_split(out, count, axis=a - 1),
                                       map(Mesh, zip(*cuts)))
        with ThreadPoolExecutor(max(1, min(len(rest), os.cpu_count() or 1))) as pool:
            pending = []
            for j, t in enumerate(times):
                fn = self._at(float(t))
                # the pool finishes the previous time while at(t) runs
                for view, r in pending:
                    view[...] = r.result()
                pending = [(part[..., j], pool.submit(fn, s)) for part, s in rest]
                first[..., j] = fn(mesh)
            for view, r in pending:
                view[...] = r.result()
        if not np.isfinite(out).all():
            *i, j = np.argwhere(~np.isfinite(out))[0]
            x = [float(np.broadcast_to(v, shape)[tuple(i)]) for v in X]
            raise DomainError(
                f"the solution is not finite at x = {x}, t = {float(times[j])!r}")
        return out

    def check_times(self, times) -> None:
        """Reject a time, or an array of them, outside the solution's
        domain: a non-finite one, or for diffusion a negative one."""
        times = np.asarray(times, dtype=float)
        # diffusion runs forward only; backwards its modes blow up
        if self.problem.kind == "heat-product":
            bad = ~(np.isfinite(times) & (times >= 0))
            if bad.any():
                raise NegativeDiffusionTime(
                    f"heat time must be >= 0 and finite, got {times[bad][0]}")
        elif not np.isfinite(times).all():
            raise DomainError(
                f"time must be finite, got {times[~np.isfinite(times)][0]}")

    def __call__(self, x: Sequence[float], t: float) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)[None], [float(t)])[0, 0])


def _add2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two coefficient arrays c[i, j] of t^i tau^j."""
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[:a.shape[0], :a.shape[1]] += a
    out[:b.shape[0], :b.shape[1]] += b
    return out


def _weight(e: int, q: int, s: int, norm: float) -> np.ndarray:
    """Coefficients c[i, j] of t^i tau^j in (t^e - tau^e)^q tau^s / norm."""
    c = np.zeros((e * q + 1, e * q + s + 1))
    for j in range(q + 1):
        c[e * (q - j), e * j + s] = (-1) ** j * math.comb(q, j) / norm
    return c


def _polyval2d(c: np.ndarray, t, tau):
    """sum c[i, j] t^i tau^j, broadcast over t and tau."""
    return sum(v * t**i * tau**j for (i, j), v in np.ndenumerate(c) if v)


# A term (W, b) stands for
#     int_0^t W(t, tau) K(tau) dtau + sum_j b[j](t) K^(j)(t),
# W a coefficient array as in _weight, or None once it vanishes, and b[j]
# the coefficients of a polynomial in t.

def _pole(nu: int, i: int):
    """The term of L^-1[1/(s^nu - c Lap)^i], K = L^-1[1/(s^nu - c Lap)]:
    t^(i-1)/(i-1)! K(t) for the heat; for the wave K itself, or for i >= 2
    the weight (t^2 - tau^2)^(i-2) tau / ((2i-2)!! (2i-4)!!) against K."""
    if nu == 1:
        return None, [np.append(np.zeros(i - 1), 1 / math.factorial(i - 1))]
    if i == 1:
        return None, [np.ones(1)]
    norm = double_factorial(2 * i - 2) * double_factorial(2 * i - 4)
    return _weight(2, i - 2, 1, norm), []


def _integral(W, b):
    """int_0^t of the term (W, b), whose b holds at most K itself.

    int_0^t b0(t') K(t') dt' has the weight b0(tau); the integral over t'
    of int_0^t' W(t', tau) K(tau) dtau has the weight int_tau^t W(t', tau) dt'.
    """
    out = np.zeros((1, 1)) if not b else np.asarray(b[0])[None, :]
    if W is not None:
        upper = P.polyint(W, axis=0)
        lower = np.zeros((1, sum(upper.shape) - 1))
        for (i, j), v in np.ndenumerate(upper):
            lower[0, i + j] -= v
        out = _add2(_add2(out, upper), lower)
    return out, []


def _derivative(W, b, order: int):
    """The order-th t-derivative of the term (W, b), exactly."""
    b = list(b)
    for _ in range(order):
        # Leibniz on each boundary term: (b_j K^(j))' = b_j' K^(j) + b_j K^(j+1)
        b = [P.polyadd(P.polyder(bj), prev)
             for bj, prev in zip(b + [np.zeros(1)], [np.zeros(1)] + b)]
        if W is not None:
            # the upper limit adds W(t, t) K(t)
            diag = np.zeros(sum(W.shape) - 1)
            for (i, j), v in np.ndenumerate(W):
                diag[i + j] += v
            b[0] = P.polyadd(b[0], diag)
            W = P.polyder(W, axis=0)
            W = W if W.any() else None
    return W, b


def cluster_evaluator(problem: CauchyProblem, kernel: Callable) -> SolutionEvaluator:
    """Evaluator of prod_j (d^nu/dt^nu - c_j Lap) u = f on the whole space.

    The heat has nu = 1 and c_j its speeds, the wave nu = 2 and c_j the
    squared speeds.  In Laplace space datum r enters as N(s)/P(s) and the
    source as 1/P(s); :func:`~waveforge.kernels.cluster_fractions` splits
    both over the clusters of the c_j, each pole a nonnegative Laplacian
    power of the field under L^-1[s^(-nu p)/(s^nu - c Lap)^i].  For the
    wave, s^(2q+1) in a numerator adds one time derivative.  The source
    takes the last datum's term, integrated against it by Duhamel.

    The data's value terms b(t) K(t) need no rule.  Every other term is a
    row of one table, taken on the nodes z and weights wz of one
    Gauss-Legendre count of :data:`TIME_LADDER` as t sum_k wz_k beta_k
    K(tau_k), the kernel at tau_k of the field at its time arguments:

    * a datum's integral term: tau = t z, beta = W(t, tau);
    * the source's integral term, a double integral over the triangle
      sigma + tau <= t: tau = t z, beta = 1, and the source taken inside
      at sigma_kj = (t - tau_k) z_j with weight (t - tau_k) wz_j
      W(t - sigma_kj, tau_k), so a count-node rule asks each kernel for
      count entries per point, not count^2;
    * the source's value term: tau = t - t z at the source time t z,
      beta = b(t - t z).

    Each row kind (these three and the data's value terms), centre and K
    or K' is one kernel of its fields' Laplacian powers, stacked, with the
    betas as ``t_weights``; its ladders judge their sum, of size the same
    sum with |t|, |beta| and the kernel's sizes.  Each point is one entry
    of :func:`~waveforge.quadrature.climb` over the counts, so its rule
    does not depend on its batch; the first two counts are one call, the
    shorter rule's source times padded by its last at weight 0.  At t = 0
    the ruled terms vanish and none is taken.  A weight that is not finite
    makes u so with no kernel call.

    ``kernel(fields, c)`` is K = L^-1[1/(s^nu - c Lap)] of the fields, the
    speed in the kernel, a :class:`~waveforge.quadrature.SinhKernel` or a
    :class:`~waveforge.heat_solver.HeatPropagator`: K and the data's size
    are its ``apply_many(points, taus, t_args, t_weights=...)``, and K' on
    the wave's rows with ``cosh=True``.  K^(j) is c^(j//nu) Lap^(j//nu) K,
    or for odd j with nu = 2 its derivative.
    """
    nu = 1 if problem.kind == "heat-product" else 2
    centres, _, fractions = cluster_fractions(np.asarray(problem.speeds) ** nu)
    fields = problem.data + (problem.source,)
    source = len(fields) - 1
    # per row kind, centre c and K or K': per field g and Laplacian power q,
    # the weight W of its integral term or the polynomial b(t) of its value term
    rows = defaultdict(dict)
    for g, field in enumerate(fields):
        if field is None:
            continue
        r = min(g, nu * problem.m - 1)
        p, alpha = fractions[r // nu]
        for (l, i), coeff in np.ndenumerate(alpha):
            if coeff == 0.0:
                continue
            W, b = _pole(nu, i + 1)
            for _ in range(nu * p):
                W, b = _integral(W, b)
            W, b = _derivative(W, b, nu - 1 - r % nu)
            q, c = i - r // nu + p, centres[l]
            if W is not None:
                terms = rows["source" if g == source else "datum", c, False]
                terms[g, q] = _add2(terms.get((g, q), np.zeros((1, 1))), coeff * W)
            for j, bj in enumerate(b):
                if not bj.any():
                    continue
                terms = rows["value" if g == source else "data", c, j % nu == 1]
                key = (g, q + j // nu)
                terms[key] = P.polyadd(terms.get(key, np.zeros(1)),
                                       coeff * c ** (j // nu) * bj)
    # one kernel per row: (kind, its apply_many, the terms' W or b)
    ruled, data = [], []
    for (kind, c, odd), terms in rows.items():
        terms = {key: v for key, v in terms.items() if v.any()}
        if terms:
            kern = kernel(tuple(laplacian_power(fields[g], q) for g, q in terms), c)
            fn = functools.partial(kern.apply_many, cosh=True) if odd else kern.apply_many
            (data if kind == "data" else ruled).append((kind, fn, list(terms.values())))

    def summed(kernels, points, t, z, zs=None, ws=None):
        """The kernels' rows at time t on the nodes z in (0, 1], each node's
        source rule zs, ws on (0, 1), and their sizes, shape (P, len(z))
        each; a weight that is not finite makes them inf."""
        tau, rest = t * z, t - t * z
        calls = []
        for kind, fn, coeffs in kernels:
            if kind == "source":
                ts, args = tau, rest[:, None] * zs
                beta = [rest[:, None] * ws * _polyval2d(W, t - args, tau[:, None])
                        for W in coeffs]
            elif kind == "value":
                ts, args, beta = rest, tau[:, None], [P.polyval(rest, b) for b in coeffs]
            else:
                ts, args = tau, np.zeros((len(z), 1))
                beta = [_polyval2d(c, t, tau) if kind == "datum" else P.polyval(tau, c)
                        for c in coeffs]
            calls.append((fn, ts, args, np.stack(beta, axis=-1).reshape(len(z), -1)))
        out, mag = np.zeros((2, len(points), len(z)))
        if not all(np.isfinite(w).all() for *_, w in calls):
            return out + np.inf, mag + np.inf
        for fn, ts, args, w in calls:
            vals, size = fn(points, ts, args, t_weights=w)
            out += vals
            mag += size
        return out, mag

    def ruled_part(points, t, counts):
        """The ruled terms at time t on the rules of ``counts`` nodes, and
        their size: one pair of shape (P,) arrays per count."""
        rules = [gauss_legendre(count, 0.0, 1.0) for count in counts]
        own, width = np.repeat(np.arange(len(rules)), counts), max(counts)
        zs = np.array([np.pad(zc, (0, width - len(zc)), mode="edge") for zc, _ in rules])
        ws = np.array([np.pad(wc, (0, width - len(wc))) for _, wc in rules])
        out, mag = summed(ruled, points, t, np.concatenate([zc for zc, _ in rules]),
                          zs[own], ws[own])
        parts = np.cumsum(counts)[:-1]
        return [(t * row_dot(o, wz), abs(t) * row_dot(m, wz)) for o, m, (_, wz) in
                zip(np.split(out, parts, axis=1), np.split(mag, parts, axis=1), rules)]

    def evaluate(X, t):
        # climb's entries are points: the mesh's points as rows
        points = np.stack(np.broadcast_arrays(*X), axis=-1).reshape(-1, len(X))
        total = summed(data, points, t, np.ones(1))[0][:, 0]
        if t == 0.0 or not ruled or not np.isfinite(total).all():
            return total.reshape(X.shape[:-1])
        ruled_total, _ = climb(
            TIME_LADDER, lambda counts, idx: ruled_part(points[idx], t, counts),
            len(points),
            lambda e, lo, hi: (
                f"time integrals at t = {t!r}, x = {points[e].tolist()}: "
                f"the {lo}- and {hi}-node Gauss-Legendre time rules"),
            f"no setting raises the top of {TIME_LADDER[-1]} nodes")
        return (total + ruled_total).reshape(X.shape[:-1])

    return SolutionEvaluator(problem, lambda t: lambda X: evaluate(X, t))
