"""Closed-form solver for higher-order wave operators on the whole space.

Two operator families are covered:

* ``wave-multiple``: the m-fold power (d^2/dt^2 - a^2 Lap)^m u = f,
* ``wave-distinct``: the product prod_j (d^2/dt^2 - a_j^2 Lap) u = f
  with any positive speeds, equal and near-equal ones included.

Both take one path, :func:`~waveforge.problems.cluster_evaluator` with
s^2 in place of s and the squared speeds: confluent partial fractions
over the speed clusters reduce the solution to sinh kernels S_a of
Laplacian powers of the data, integrated against polynomial weights in
time.  The kernel carries the speed: each cluster centre c = a^2 gets a
:class:`~waveforge.quadrature.SinhKernel` at a = sqrt(c).  Time
derivatives are exact: they move onto the weights and onto boundary
terms, where S_a'' = a^2 Lap S_a turns every derivative of the kernel
into a sinh or cosh kernel of a Laplacian power of the data.
"""

from __future__ import annotations

import math

from .errors import InvalidOrder
from .problems import CauchyProblem, SolutionEvaluator, cluster_evaluator
from .quadrature import QuadratureSpec, SinhKernel, check_sphere

__all__ = ["solve_wave"]


def solve_wave(problem: CauchyProblem,
               spec: QuadratureSpec | None = None) -> SolutionEvaluator:
    """Solver for both wave families, with 2m initial data."""
    if problem.kind not in ("wave-multiple", "wave-distinct"):
        raise InvalidOrder(f"not a wave problem kind: {problem.kind}")
    spec = spec or QuadratureSpec()
    check_sphere(problem.n, spec.sphere_degree)

    return cluster_evaluator(
        problem, lambda field, c: SinhKernel(field, math.sqrt(c), spec))
