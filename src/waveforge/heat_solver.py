"""Closed-form solvers for products of heat-type factors on the whole space.

Covers prod_j (d/dt - a_j Lap) u = f with m initial data, in the two
regimes the factorization allows:

* all speeds equal: the m-fold power with a polynomial-in-t correction
  of the initial data under a single diffusion semigroup,
* pairwise distinct speeds: partial-fraction weights distribute the
  inverse over single-factor semigroups.

The diffusion semigroup e^{lam Lap} is realized as a Gauss quadrature of
the Gaussian convolution, one axis at a time, on a truncated window.  The
weights are renormalized so constants propagate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder, NegativeDiffusionTime, UnsupportedDimension
from .expr import Expr, compile_field, laplacian_power
from .kernels import first_order_weights
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import QuadratureSpec, centre_chunks, gauss_legendre, row_dot

__all__ = [
    "HeatPropagatorSpec",
    "HeatPropagator",
    "heat_propagate",
    "solve_heat_product",
]


@dataclass(frozen=True)
class HeatPropagatorSpec:
    """Window half-width (in decay lengths) and per-axis node count."""

    c_trunc: float = 6.0
    n_nodes: int = 48

    def __post_init__(self):
        if self.c_trunc < 4.0:
            raise InvalidOrder("truncation window must be at least 4 decay lengths")
        if self.n_nodes < 16:
            raise InvalidOrder("need at least 16 nodes per axis")


class HeatPropagator:
    """Evaluator of e^{lam Lap} f at points, vectorized over lam.

    Substituting y = x + sqrt(lam) * zeta turns the Gaussian convolution
    into a lam-independent weight exp(-zeta^2/4) / (2 sqrt(pi)) on each
    axis, so one precomputed tensor rule serves every diffusion time.
    """

    def __init__(self, field: Expr, spec: HeatPropagatorSpec | None = None):
        spec = spec or HeatPropagatorSpec()
        n = field.ndim
        if n > 3:
            raise UnsupportedDimension(f"diffusion semigroup needs n <= 3, got {n}")
        self.n = n
        self.spec = spec
        self._f = compile_field(field)
        half = 2.0 * spec.c_trunc
        rule = gauss_legendre(spec.n_nodes, -half, half)
        zeta = rule.nodes
        w = rule.weights * np.exp(-0.25 * zeta**2)
        w /= w.sum()  # constants propagate exactly
        grids = np.meshgrid(*([zeta] * n), indexing="ij")
        self._zeta = np.stack([g.reshape(-1) for g in grids], axis=-1)
        wt = w
        for _ in range(n - 1):
            wt = np.multiply.outer(wt, w)
        self._w = wt.reshape(-1)

    def apply_many(self, x, lams: np.ndarray, t_args=None) -> np.ndarray:
        """Semigroup at each diffusion time in ``lams`` (zeros allowed).

        ``x`` is one point (n,) or many (P, n); the result has shape
        (len(lams),) or (P, len(lams)).  The stacked matmul reduces each
        centre's (L, nodes) values by its own BLAS call, so a centre's
        values do not depend on the other centres.
        """
        x = np.asarray(x, dtype=float)
        centres = np.atleast_2d(x)
        lams = np.asarray(lams, dtype=float)
        if np.any(lams < 0):
            raise NegativeDiffusionTime(
                f"diffusion times must be >= 0, got min {lams.min()}"
            )
        # the field's time argument for each diffusion time
        t_args = np.broadcast_to(0.0 if t_args is None else t_args, lams.shape)
        out = np.empty((len(centres), lams.size))
        frozen = lams == 0.0
        if np.any(frozen):
            pts = np.broadcast_to(centres[:, None, :], out[:, frozen].shape + (self.n,))
            out[:, frozen] = self._f(pts, t_args[frozen])
        live = ~frozen
        if np.any(live):
            s = np.sqrt(lams[live])[:, None, None]
            tl = t_args[live][:, None]
            for sl in centre_chunks(len(centres), s.size * len(self._w)):
                # unnamed, a chunk's arrays are freed before the next's exist
                out[sl, live] = (
                    self._f(centres[sl, None, None] + s * self._zeta, tl) @ self._w)
        return out[0] if x.ndim == 1 else out


def heat_propagate(field: Expr, lam: float, x,
                   spec: HeatPropagatorSpec | None = None) -> float:
    """One-shot e^{lam Lap} field at a single point."""
    return float(HeatPropagator(field, spec).apply_many(x, [lam])[0])


def solve_heat_product(problem: CauchyProblem,
                       spec: QuadratureSpec | None = None,
                       heat_spec: HeatPropagatorSpec | None = None
                       ) -> SolutionEvaluator:
    """Solver for prod_j (d/dt - a_j Lap) u = f with m initial data.

    Speeds must be either all equal or pairwise distinct; a mixed cluster
    has no closed form in this family.
    """
    if problem.kind != "heat-product":
        raise InvalidOrder(f"expected heat-product, got {problem.kind}")
    if problem.n > 3:
        raise UnsupportedDimension(
            f"diffusion solver needs n <= 3, got {problem.n}"
        )
    spec = spec or QuadratureSpec()
    heat_spec = heat_spec or HeatPropagatorSpec()
    if problem.equal_speeds:
        fn = _equal_speed_eval(problem, spec, heat_spec)
    elif problem.distinct_speeds:
        fn = _distinct_speed_eval(problem, spec, heat_spec)
    else:
        raise InvalidOrder(
            "speeds must be all equal or pairwise distinct, got "
            f"{problem.speeds}"
        )
    return SolutionEvaluator(problem, fn)


def _equal_speed_eval(problem, spec, heat_spec):
    """(d/dt - a Lap)^m: single semigroup, binomial data correction."""
    m = problem.m
    a = problem.speeds[0]

    # data pieces: coeff(t) * e^{t a Lap} [(a Lap)^{k-r} phi_r]
    pieces = []  # (k, factor, propagator)
    for k in range(m):
        for r in range(k + 1):
            phi = problem.data[r]
            if phi is None:
                continue
            psi = laplacian_power(phi, k - r)
            factor = (-1.0) ** (k - r) * math.comb(k, r) \
                * a ** (k - r) / math.factorial(k)
            pieces.append((k, factor, HeatPropagator(psi, heat_spec)))

    src = None
    if problem.source is not None:
        src = HeatPropagator(problem.source, heat_spec)
    unit = gauss_legendre(spec.n_time, 0.0, 1.0)
    z, wz = unit.nodes, unit.weights
    fact = math.factorial(m - 1)

    def evaluate(points, t):
        total = np.zeros(points.shape[0])
        for k, factor, prop in pieces:
            total += factor * t**k * prop.apply_many(points, np.asarray([a * t]))[:, 0]
        if src is not None and t > 0.0:
            tau = t * z
            span = t - tau
            vals = src.apply_many(points, a * span, t_args=tau)
            total += t * row_dot(span ** (m - 1) / fact * vals, wz)
        return total

    return evaluate


def _distinct_speed_eval(problem, spec, heat_spec):
    """prod (d/dt - a_j Lap): partial fractions over single semigroups."""
    m = problem.m
    pf = first_order_weights(problem.speeds)
    # b_k: coefficients of chi^k in prod_i (chi - a_i)
    poly = np.poly(problem.speeds)  # highest power first
    b = [poly[m - k] for k in range(m + 1)]

    # data pieces: the outer d^{k-1-r}/dt^{k-1-r} of the (t-tau)-weighted
    # integral collapses analytically; d <= m-2 keeps an integral with the
    # weight power reduced by d, d = m-1 evaluates the semigroup sum at t.
    pieces = []  # (b_k, d, propagator of Lap^{m-k} phi_r)
    for k in range(1, m + 1):
        for r in range(k):
            phi = problem.data[r]
            if phi is None:
                continue
            psi = laplacian_power(phi, m - k)
            # one propagator serves every speed: the speed only scales
            # the diffusion time
            pieces.append((float(b[k]), k - 1 - r, HeatPropagator(psi, heat_spec)))

    src = None
    if problem.source is not None:
        src = HeatPropagator(problem.source, heat_spec)
    unit = gauss_legendre(spec.n_time, 0.0, 1.0)
    z, wz = unit.nodes, unit.weights
    speeds = np.asarray(pf.speeds)
    weights = np.asarray(pf.weights)

    def semigroup_sum(prop, points, taus, t_args=None):
        total = np.zeros((points.shape[0], taus.size))
        for aj, w in zip(speeds, weights):
            total = total + w * prop.apply_many(points, aj * taus, t_args)
        return total

    def evaluate(points, t):
        total = np.zeros(points.shape[0])
        for bk, d, prop in pieces:
            if bk == 0.0:
                continue
            if d == m - 1:
                total += bk * semigroup_sum(prop, points, np.asarray([t]))[:, 0]
            elif t > 0.0:
                p = m - 2 - d
                tau = t * z
                vals = semigroup_sum(prop, points, tau)
                wfun = (t - tau) ** p / math.factorial(p)
                total += bk * t * row_dot(wfun * vals, wz)
        if src is not None and t > 0.0:
            tau_o = t * z
            span = t - tau_o
            tau_i = span[:, None] * z[None, :]
            t_args = np.broadcast_to(tau_o[:, None], tau_i.shape).reshape(-1)
            vals = semigroup_sum(src, points, tau_i.reshape(-1), t_args)
            vals = vals.reshape((-1,) + tau_i.shape)
            wfun = (span[:, None] - tau_i) ** (m - 2) / math.factorial(m - 2)
            inner = (span[:, None] * wz[None, :] * wfun * vals).sum(axis=-1)
            total += t * row_dot(inner, wz)
        return total

    return evaluate
