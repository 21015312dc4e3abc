"""Closed-form solver for products of heat-type factors on the whole space.

Covers prod_j (d/dt - a_j Lap) u = f with m initial data and any positive
speeds.  Confluent partial fractions over the speed clusters
(:func:`~waveforge.problems.cluster_evaluator`) write the solution as
t^(i-1)/(i-1)! e^{t c Lap} of Laplacian powers of the data, and time
integrals of such terms, for each cluster centre c.

The diffusion semigroup e^{lam Lap} is realized as a Gauss quadrature of
the Gaussian convolution, one axis at a time, on a truncated window.  The
weights are renormalized so constants propagate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder, NegativeDiffusionTime, UnsupportedDimension
from .expr import Expr, compile_field
from .problems import CauchyProblem, SolutionEvaluator, cluster_evaluator
from .quadrature import QuadratureSpec, centre_sums, gauss_legendre

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
        (len(lams),) or (P, len(lams)).  ``t_args``, aligned with ``lams``,
        is the field's time argument.
        """
        x = np.asarray(x, dtype=float)
        lams = np.asarray(lams, dtype=float)
        if np.any(lams < 0):
            raise NegativeDiffusionTime(
                f"diffusion times must be >= 0, got min {lams.min()}"
            )
        out = centre_sums(lambda pts, offs, t: self._f(pts, t), np.atleast_2d(x),
                          np.sqrt(lams), self._zeta, self._w, t_args)
        return out[0] if x.ndim == 1 else out


def heat_propagate(field: Expr, lam: float, x,
                   spec: HeatPropagatorSpec | None = None) -> float:
    """One-shot e^{lam Lap} field at a single point."""
    return float(HeatPropagator(field, spec).apply_many(x, [lam])[0])


def solve_heat_product(problem: CauchyProblem,
                       spec: QuadratureSpec | None = None,
                       heat_spec: HeatPropagatorSpec | None = None
                       ) -> SolutionEvaluator:
    """Solver for prod_j (d/dt - a_j Lap) u = f with m initial data, any
    positive speeds."""
    if problem.kind != "heat-product":
        raise InvalidOrder(f"expected heat-product, got {problem.kind}")
    if problem.n > 3:
        raise UnsupportedDimension(
            f"diffusion solver needs n <= 3, got {problem.n}"
        )

    def kernel(field, cosh):
        # one propagator serves every speed: the speed scales the diffusion time
        prop = HeatPropagator(field, heat_spec)
        return lambda points, c, taus, t_args=None, cosh=False: prop.apply_many(
            points, c * taus, t_args)

    return cluster_evaluator(problem, spec or QuadratureSpec(), kernel)
