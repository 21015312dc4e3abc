"""Closed-form solvers for higher-order wave operators on the whole space.

Two operator families are covered:

* ``wave-multiple``: the m-fold power (d^2/dt^2 - a^2 Lap)^m u = f,
* ``wave-distinct``: the product prod_j (d^2/dt^2 - a_j^2 Lap) u = f
  with positive pairwise-distinct speeds.

Both reduce to compositions of the sinh kernel with one-dimensional time
quadratures and outer time derivatives.  Laplacian powers are applied to
the data symbolically, and time derivatives exactly: they move onto the
polynomial weight of the time integral and onto boundary terms, where
S_a'' = a^2 Lap S_a turns every derivative of the kernel into a sinh or
cosh kernel of a Laplacian power of the data.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InvalidOrder, UnsupportedDimension
from .expr import laplacian_power
from .kernels import second_order_weights
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import (QuadratureSpec, SinhKernel, double_factorial,
                         gauss_legendre, row_dot)

__all__ = ["solve_multiple_wave", "solve_distinct_speeds", "solve_wave"]


def _weight(e: int, q: int, s: int, norm: float) -> np.ndarray:
    """Coefficients c[i, j] of t^i tau^j in (t^e - tau^e)^q tau^s / norm."""
    c = np.zeros((e * q + 1, e * q + s + 1))
    for j in range(q + 1):
        c[e * (q - j), e * j + s] = (-1) ** j * math.comb(q, j) / norm
    return c


def _polyval2d(c: np.ndarray, t, tau):
    """sum c[i, j] t^i tau^j, broadcast over t and tau."""
    return sum(v * t**i * tau**j for (i, j), v in np.ndenumerate(c) if v)


def _derivative(w: np.ndarray | None, order: int):
    """The order-th t-derivative of int_0^t w(t, tau) K(tau) dtau, exactly.

    ``w`` holds the coefficients of w(t, tau) as in :func:`_weight`, or is
    None for K(t) itself.  Returns (W, b): the derivative equals
    int_0^t W(t, tau) K(tau) dtau + sum_j b[j](t) K^(j)(t), with W None
    once it vanishes and b[j] the coefficients of a polynomial in t.
    """
    W = w
    b = [np.ones(1)] if w is None else []
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


def solve_multiple_wave(problem: CauchyProblem,
                        spec: QuadratureSpec | None = None) -> SolutionEvaluator:
    """Solver for (d^2/dt^2 - a^2 Lap)^m u = f with 2m initial data."""
    if problem.kind != "wave-multiple":
        raise InvalidOrder(f"expected wave-multiple, got {problem.kind}")
    if problem.n not in (3, 5):
        raise UnsupportedDimension(
            f"whole-space wave solvers need n in {{3, 5}}, got {problem.n}"
        )
    m = problem.m
    a = problem.speeds[0]

    # coeff_k d^(2m-1-2k-r)/dt^(2m-1-2k-r) of the data integral of Lap^k phi_r
    terms = []
    for k in range(m):
        coeff_k = (-1.0) ** k * math.comb(m, k) * a ** (2 * k)
        for r in range(2 * m - 2 * k):
            terms.append((coeff_k, 2 * m - 1 - 2 * k - r, r, k))

    w = None
    if m > 1:
        norm = double_factorial(2 * m - 2) * double_factorial(2 * m - 4)
        w = _weight(2, m - 2, 1, norm)  # (t^2 - tau^2)^(m-2) tau / norm
    return _evaluator(problem, spec or QuadratureSpec(), terms, [(1.0, a)], w)


def solve_distinct_speeds(problem: CauchyProblem,
                          spec: QuadratureSpec | None = None) -> SolutionEvaluator:
    """Solver for prod_j (d^2/dt^2 - a_j^2 Lap) u = f, distinct speeds."""
    if problem.kind != "wave-distinct":
        raise InvalidOrder(f"expected wave-distinct, got {problem.kind}")
    if problem.n not in (3, 5):
        raise UnsupportedDimension(
            f"whole-space wave solvers need n in {{3, 5}}, got {problem.n}"
        )
    spec = spec or QuadratureSpec()
    m = problem.m
    if m == 1:
        inner = CauchyProblem(
            "wave-multiple", problem.n, 1, problem.speeds,
            problem.source, problem.data,
        )
        return SolutionEvaluator(problem, solve_multiple_wave(inner, spec)._fn)

    pf = second_order_weights(problem.speeds)
    # b_{2k}: coefficients of chi^{2k} in prod_i (chi^2 - a_i^2)
    poly = np.poly([v**2 for v in problem.speeds])  # highest power first
    terms = []
    for k in range(1, m + 1):
        for r in range(2 * k):
            terms.append((float(poly[m - k]), 2 * k - 1 - r, r, m - k))

    speeds = list(zip(pf.weights, pf.speeds))
    w = _weight(1, 2 * m - 3, 0, math.factorial(2 * m - 3))  # (t-tau)^(2m-3)/(2m-3)!
    return _evaluator(problem, spec, terms, speeds, w)


def solve_wave(problem: CauchyProblem,
               spec: QuadratureSpec | None = None) -> SolutionEvaluator:
    """Dispatch on the problem kind."""
    if problem.kind == "wave-multiple":
        return solve_multiple_wave(problem, spec)
    if problem.kind == "wave-distinct":
        return solve_distinct_speeds(problem, spec)
    raise InvalidOrder(f"not a wave problem kind: {problem.kind}")


def _evaluator(problem, spec, terms, speeds, w) -> SolutionEvaluator:
    """The evaluator shared by both families, batched over the points.

    Each of ``terms``, (coeff, order, r, p), stands for coeff times the
    order-th time derivative of int_0^t w(t, tau) K(tau) dtau, with K the
    sum over ``speeds`` (weight, a) of weight * S_a applied to Lap^p phi_r.
    ``w`` holds the weight's coefficients, or is None when m = 1 and the
    kernel applies directly.  The same weight, shifted, drives the double
    Duhamel integral of the source term.
    """
    # per field Lap^q phi_r and speed a: the weights of its integral terms
    # and the polynomial b(t) of its value at t, b(t) S_a(t) or b(t) C_a(t);
    # K^(2i) is sum weight a^(2i) S_a Lap^i, and K^(2i+1) the same with C_a
    integrals = []
    values = defaultdict(lambda: np.zeros(1))
    for coeff, order, r, p in terms:
        if problem.data[r] is None:
            continue
        W, b = _derivative(w, order)
        for weight, a in speeds:
            if W is not None:
                integrals.append((coeff * weight * W, (r, p, a)))
            for j, bj in enumerate(b):
                key = (r, p + j // 2, a, j % 2 == 1)
                values[key] = P.polyadd(
                    values[key], coeff * weight * a ** (2 * (j // 2)) * bj)
    values = {key: b for key, b in values.items() if b.any()}
    # one kernel per field and speed, with a cosh part only where one is used
    needed = dict.fromkeys([key for _, key in integrals] + [key[:3] for key in values])
    fields = {(r, q): laplacian_power(problem.data[r], q)
              for r, q in dict.fromkeys(key[:2] for key in needed)}
    cosh = {key[:3] for key in values if key[3]}
    kernels = {key: SinhKernel(fields[key[:2]], key[2], spec, cosh=key in cosh)
               for key in needed}
    src_kernels = []
    if problem.source is not None:
        src_kernels = [(weight, SinhKernel(problem.source, a, spec))
                       for weight, a in speeds]

    unit = gauss_legendre(spec.n_time, 0.0, 1.0)
    z, wz = unit.nodes, unit.weights

    def src_sum(points, ts, t_args):
        return sum(weight * kern.apply_many(points, ts, t_args)
                   for weight, kern in src_kernels)

    def source_value(points, t):
        if t == 0.0:
            return 0.0
        tau_o = t * z  # outer Duhamel times
        if w is None:
            vals = src_sum(points, t - tau_o, tau_o)
            return t * row_dot(vals, wz)
        # inner integral over tau' in (0, t - tau_o) for every outer node
        span = t - tau_o
        tau_i = span[:, None] * z[None, :]
        t_args = np.broadcast_to(tau_o[:, None], tau_i.shape)
        vals = src_sum(points, tau_i.reshape(-1), t_args.reshape(-1))
        vals = vals.reshape((-1,) + tau_i.shape)
        inner = (
            span[:, None] * wz[None, :] * _polyval2d(w, span[:, None], tau_i)
            * vals
        ).sum(axis=-1)
        return t * row_dot(inner, wz)

    def evaluate(points, t):
        total = np.zeros(points.shape[0])
        if t != 0.0:
            tau = t * z
            for c, key in integrals:
                vals = kernels[key].apply_many(points, tau)
                total += t * row_dot(_polyval2d(c, t, tau) * vals, wz)
        for (r, q, a, cosh), b in values.items():
            kern = kernels[r, q, a]
            total += P.polyval(t, b) * kern.apply_many(points, [t], cosh=cosh)[:, 0]
        if src_kernels:
            total += source_value(points, t)
        return total

    return SolutionEvaluator(problem, evaluate)
