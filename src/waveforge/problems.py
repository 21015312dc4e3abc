"""Problem descriptions and the one solve path of the whole-space solvers.

A :class:`CauchyProblem` bundles the operator family, its order, the
propagation speeds, the source, and the initial data.  Validation happens
at construction so solver code can assume a well-formed problem.
:func:`cluster_evaluator` evaluates G(Lap, t) = L^-1[1/P(Lap, s)] on the
data and the source for every family and every speed cluster; the heat
and wave solvers supply only their kernel.
"""

from __future__ import annotations

import math
from collections import defaultdict
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
from .kernels import cluster_fractions, require_distinct
from .quadrature import climb, double_factorial, gauss_legendre, row_dot

__all__ = ["CauchyProblem", "SolutionEvaluator", "KINDS", "TIME_LADDER",
           "cluster_evaluator"]

# operator families: m-fold wave with one speed, product of wave factors
# with distinct speeds, and product of heat factors with any speeds
KINDS = ("wave-multiple", "wave-distinct", "heat-product")

# Gauss-Legendre counts of the whole-space time rules a point climbs by
# quadrature.climb
TIME_LADDER = (8, 12, 16, 24, 32, 48, 64)


@dataclass(frozen=True)
class CauchyProblem:
    """Whole-space problem for a factored evolution operator.

    kind      one of :data:`KINDS`
    n         spatial dimension (wave kinds need odd n in {3, 5})
    m         number of operator factors, >= 1
    speeds    one speed per factor ("wave-multiple" repeats a single one)
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
        if self.kind not in KINDS:
            raise InvalidOrder(f"unknown problem kind '{self.kind}'")
        if self.m < 1:
            raise InvalidOrder(f"order must be >= 1, got {self.m}")
        if self.n < 1 or self.n > 5:
            raise UnsupportedDimension(
                f"dimension must be between 1 and 5, got {self.n}"
            )
        # solvers impose their own sharper dimension limits (odd n for
        # whole-space wave kinds, n <= 3 for diffusion and boxes)
        expected = 2 * self.m if self.kind != "heat-product" else self.m
        if len(self.data) != expected:
            raise DataCountMismatch(
                f"{self.kind} of order {self.m} needs {expected} data "
                f"entries, got {len(self.data)}"
            )
        if len(self.speeds) != self.m:
            raise DataCountMismatch(
                f"need one speed per factor ({self.m}), got {len(self.speeds)}"
            )
        # NaN fails both comparisons
        if not all(0 < a < math.inf for a in self.speeds):
            raise NonPositiveSpeed(
                f"speeds must be positive and finite: {self.speeds}")
        if self.kind in ("wave-distinct",) and self.m >= 2:
            require_distinct(self.speeds)
        if self.kind == "wave-multiple" and any(
                abs(v - self.speeds[0]) >= 1e-14 for v in self.speeds):
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


class SolutionEvaluator:
    """The one evaluation entry point of every solver.

    ``evaluate(X, times (T,))`` returns the solution on the product of X
    and the times, shape (P, T) for (P, n) points X and (g1, ..., gn, T)
    for an open mesh (:class:`~waveforge.expr.Mesh`).  The solver supplies
    ``fn(X, t)``, its values on the mesh X at one time, a point array being
    the mesh of its columns; a point's value must not depend on the other
    points in the call.  ``__call__`` wraps it, and :meth:`check_times` is
    the time check of every entry point.
    """

    def __init__(self, problem: CauchyProblem, fn: Callable):
        self.problem = problem
        self._fn = fn

    def evaluate(self, X, times) -> np.ndarray:
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
        for j, t in enumerate(times):
            out[..., j] = self._fn(X, float(t))
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

    The size is the same sum with |t|, |beta| and the kernel's own size.
    Each point is one entry of :func:`~waveforge.quadrature.climb` over
    the counts, so its rule does not depend on its batch; at t = 0 every
    ruled term vanishes and none is taken.

    ``kernel(field)`` returns ``apply(points, c, taus, t_args=None,
    cosh=False, t_weights=None)``: K = L^-1[1/(s^nu - c Lap)] of the field
    at each time in ``taus``, or with ``cosh`` its time derivative, and the
    kernel applied to the absolute value of its integrand under its rule,
    the data's size there; shape (P, len(taus)) each.  ``t_args``, aligned
    with ``taus``, is the field's time argument.  With ``t_weights`` both
    have shape (len(taus), S), and the kernel at taus[k] is applied to
    sum_j t_weights[k, j] field(., t_args[k, j]), its size to the same sum
    of absolute values.  Then K^(j) is c^(j//nu) Lap^(j//nu) times K, or
    for odd j with nu = 2 its derivative.  One kernel serves each field and
    Laplacian power, K and K' alike.
    """
    nu = 1 if problem.kind == "heat-product" else 2
    centres, _, fractions = cluster_fractions(np.asarray(problem.speeds) ** nu)
    fields = problem.data + (problem.source,)
    source = len(fields) - 1
    # per field g, Laplacian power q and centre c: the weight of the
    # integral term, and the polynomial b(t) of the value term, K(t) or K'(t)
    integrals = defaultdict(lambda: np.zeros((1, 1)))
    values = defaultdict(lambda: np.zeros(1))
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
                integrals[g, q, c] = _add2(integrals[g, q, c], coeff * W)
            for j, bj in enumerate(b):
                key = (g, q + j // nu, c, j % nu == 1)
                values[key] = P.polyadd(values[key], coeff * c ** (j // nu) * bj)
    integrals = {key: W for key, W in integrals.items() if W.any()}
    values = {key: b for key, b in values.items() if b.any()}
    # one kernel per field and Laplacian power
    kernels = {}
    for g, q, *_ in list(integrals) + list(values):
        if (g, q) not in kernels:
            kernels[g, q] = kernel(laplacian_power(fields[g], q))
    # the ruled terms (kernel, c, cosh, row, coefficients): the integral
    # terms with their weight W, then the source's value terms with b
    terms = [(kernels[g, q], c, False, "source" if g == source else "datum", W)
             for (g, q, c), W in integrals.items()]
    terms += [(kernels[g, q], c, odd, "value", b)
              for (g, q, c, odd), b in values.items() if g == source]
    data_values = [(kernels[g, q], c, odd, b)
                   for (g, q, c, odd), b in values.items() if g != source]

    def ruled_part(points, t, count):
        """The ruled terms at time t on the count-node rule, and their
        size, shape (P,) each."""
        rule = gauss_legendre(count, 0.0, 1.0)
        z, wz = rule.nodes, rule.weights
        tau, rest = t * z, t - t * z
        sigma = rest[:, None] * z
        out, mag = np.zeros((2, len(points), count))
        for apply, c, cosh, row, coeffs in terms:
            if row == "datum":
                beta, args = _polyval2d(coeffs, t, tau), (tau,)
            elif row == "source":
                omega = rest[:, None] * wz * _polyval2d(coeffs, t - sigma, tau[:, None])
                beta, args = 1.0, (tau, sigma, False, omega)
            else:
                beta, args = P.polyval(rest, coeffs), (rest, tau, cosh)
            vals, size = apply(points, c, *args)
            out += beta * vals
            mag += np.abs(beta) * size
        return t * row_dot(out, wz), abs(t) * row_dot(mag, wz)

    def evaluate(X, t):
        # climb's entries are points: the mesh's points as rows
        points = np.stack(np.broadcast_arrays(*X), axis=-1).reshape(-1, len(X))
        total = np.zeros(points.shape[0])
        for apply, c, cosh, b in data_values:
            total += P.polyval(t, b) * apply(points, c, np.array([t]), None, cosh)[0][:, 0]
        if t == 0.0 or not terms:
            return total.reshape(X.shape[:-1])
        ruled_total, _ = climb(
            TIME_LADDER, lambda count, idx: ruled_part(points[idx], t, count),
            len(points),
            lambda e, lo, hi: (
                f"time integrals at t = {t!r}, x = {points[e].tolist()}: "
                f"the {lo}- and {hi}-node Gauss-Legendre time rules"),
            f"no setting raises the top of {TIME_LADDER[-1]} nodes")
        return (total + ruled_total).reshape(X.shape[:-1])

    return SolutionEvaluator(problem, evaluate)
