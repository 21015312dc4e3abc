"""Closed-form solvers for higher-order wave operators on the whole space.

Two operator families are covered:

* ``wave-multiple``: the m-fold power (d^2/dt^2 - a^2 Lap)^m u = f,
* ``wave-distinct``: the product prod_j (d^2/dt^2 - a_j^2 Lap) u = f
  with positive pairwise-distinct speeds.

Both reduce to compositions of the sinh kernel with one-dimensional time
quadratures and outer time derivatives; Laplacian powers are applied to
the data symbolically, time derivatives by high-order centered stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder, UnsupportedDimension
from .expr import Expr, laplacian
from .fd import differentiate_samples
from .kernels import second_order_weights
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import (QuadratureSpec, SinhKernel, double_factorial,
                         gauss_legendre, row_dot)

__all__ = ["solve_multiple_wave", "solve_distinct_speeds", "solve_wave"]

def _fd_step(order: int, t: float) -> float:
    """Centered-stencil step balancing truncation against roundoff.

    The integrand samples carry relative noise around 1e-14; an order-d
    derivative amplifies it by h^-d while the stencil truncates at h^8,
    so the optimum scales like (1e-14)^(1/(d+8)).
    """
    return max(abs(t), 1.0) * 1e-14 ** (1.0 / (order + 8))


def laplacian_power(e: Expr, p: int) -> Expr:
    """Lap^p applied symbolically to an expression."""
    for _ in range(p):
        e = laplacian(e)
    return e


@dataclass
class _DataPiece:
    """One differentiated data integral: coeff * d^order/dt^order [...]"""

    order: int
    coeff: float
    kernels: list  # [(weight, SinhKernel)]


def _kernel_sum(kernels, points, ts, t_args=None):
    total = None
    for w, kern in kernels:
        vals = w * kern.apply_many(points, ts, t_args)
        total = vals if total is None else total + vals
    return total


def solve_multiple_wave(problem: CauchyProblem,
                        spec: QuadratureSpec | None = None) -> SolutionEvaluator:
    """Solver for (d^2/dt^2 - a^2 Lap)^m u = f with 2m initial data."""
    if problem.kind != "wave-multiple":
        raise InvalidOrder(f"expected wave-multiple, got {problem.kind}")
    if problem.n not in (3, 5):
        raise UnsupportedDimension(
            f"whole-space wave solvers need n in {{3, 5}}, got {problem.n}"
        )
    spec = spec or QuadratureSpec()
    m = problem.m
    a = problem.speeds[0]

    pieces: list[_DataPiece] = []
    for k in range(m):
        coeff_k = (-1.0) ** k * math.comb(m, k) * a ** (2 * k)
        for r in range(2 * m - 2 * k):
            phi = problem.data[r]
            if phi is None:
                continue
            psi = laplacian_power(phi, k)
            kern = SinhKernel(psi, a, spec)
            pieces.append(
                _DataPiece(2 * m - 1 - 2 * k - r, coeff_k, [(1.0, kern)])
            )

    src_kernels = None
    if problem.source is not None:
        src_kernels = [(1.0, SinhKernel(problem.source, a, spec))]

    if m == 1:
        weight = None
    else:
        norm = double_factorial(2 * m - 2) * double_factorial(2 * m - 4)

        def weight(t_outer, tau):
            return (t_outer**2 - tau**2) ** (m - 2) * tau / norm

    return _evaluator(problem, spec, pieces, src_kernels, weight)


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
    b = [poly[m - k] for k in range(m + 1)]

    def kernel_set(field: Expr):
        return [
            (w, SinhKernel(field, aj, spec))
            for aj, w in zip(pf.speeds, pf.weights)
        ]

    pieces: list[_DataPiece] = []
    for k in range(1, m + 1):
        for r in range(2 * k):
            phi = problem.data[r]
            if phi is None:
                continue
            psi = laplacian_power(phi, m - k)
            pieces.append(_DataPiece(2 * k - 1 - r, float(b[k]), kernel_set(psi)))

    src_kernels = None
    if problem.source is not None:
        src_kernels = kernel_set(problem.source)

    fact = math.factorial(2 * m - 3)

    def weight(t_outer, tau):
        return (t_outer - tau) ** (2 * m - 3) / fact

    return _evaluator(problem, spec, pieces, src_kernels, weight)


def solve_wave(problem: CauchyProblem,
               spec: QuadratureSpec | None = None) -> SolutionEvaluator:
    """Dispatch on the problem kind."""
    if problem.kind == "wave-multiple":
        return solve_multiple_wave(problem, spec)
    if problem.kind == "wave-distinct":
        return solve_distinct_speeds(problem, spec)
    raise InvalidOrder(f"not a wave problem kind: {problem.kind}")


def _evaluator(problem, spec, pieces, src_kernels, weight) -> SolutionEvaluator:
    """The evaluator shared by both families, batched over the points.

    ``weight`` is the data-integral weight w(t, tau), or None when m = 1
    and the kernel applies directly without an intermediate integral.
    The same weight, shifted, drives the double Duhamel integral of the
    source term.
    """
    unit = gauss_legendre(spec.n_time, 0.0, 1.0)
    z, wz = unit.nodes, unit.weights

    def data_value(piece: _DataPiece, points, t):
        if weight is None:
            g = lambda ts: _kernel_sum(piece.kernels, points, ts)
        else:

            def g(ts):
                tau = ts[:, None] * z[None, :]
                vals = _kernel_sum(piece.kernels, points, tau.reshape(-1))
                vals = vals.reshape((-1,) + tau.shape)
                integrand = weight(ts[:, None], tau) * vals
                return (ts[:, None] * wz[None, :] * integrand).sum(axis=-1)

        h = _fd_step(piece.order, t)
        return piece.coeff * differentiate_samples(g, t, piece.order, h)

    def source_value(points, t):
        if t == 0.0:
            return 0.0
        tau_o = t * z  # outer Duhamel times
        if weight is None:
            vals = _kernel_sum(src_kernels, points, t - tau_o, t_args=tau_o)
            return t * row_dot(vals, wz)
        # inner integral over tau' in (0, t - tau_o) for every outer node
        span = t - tau_o
        tau_i = span[:, None] * z[None, :]
        t_args = np.broadcast_to(tau_o[:, None], tau_i.shape)
        vals = _kernel_sum(
            src_kernels, points, tau_i.reshape(-1), t_args=t_args.reshape(-1)
        ).reshape((-1,) + tau_i.shape)
        inner = (
            span[:, None] * wz[None, :] * weight(span[:, None], tau_i) * vals
        ).sum(axis=-1)
        return t * row_dot(inner, wz)

    def evaluate(points, t):
        total = np.zeros(points.shape[0])
        for piece in pieces:
            total += data_value(piece, points, t)
        if src_kernels is not None:
            total += source_value(points, t)
        return total

    return SolutionEvaluator(problem, evaluate)
