"""Closed-form solver for products of heat-type factors on the whole space.

Covers prod_j (d/dt - a_j Lap) u = f with m initial data and any positive
speeds.  Confluent partial fractions over the speed clusters
(:func:`~waveforge.problems.cluster_evaluator`) write the solution as
t^(i-1)/(i-1)! e^{t c Lap} of Laplacian powers of the data, and time
integrals of such terms, for each cluster centre c; the propagator
carries the speed and the fields of a row, ``HeatPropagator(fields, c)``.

The diffusion semigroup e^{lam Lap} is the Gaussian convolution, realized
by tensor Gauss-Hermite rules on open meshes of per-axis nodes, so a
factor of one coordinate costs q values, not q^n.  Each (point, diffusion
time) climbs a ladder of per-axis node counts by
:func:`~waveforge.quadrature.ladder_sums`; data that no rule on the ladder
resolves raise :class:`~waveforge.errors.UnresolvedData`.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import InvalidOrder, NegativeDiffusionTime, UnsupportedDimension
from .expr import Expr, Mesh, compile_field
from .problems import CauchyProblem, SolutionEvaluator, cluster_evaluator
from .quadrature import brief, ladder_sums

__all__ = ["HeatPropagator", "check_heat", "heat_propagate", "solve_heat_product"]

# Per-axis Gauss-Hermite node counts a (point, diffusion time) climbs by
# quadrature.ladder_sums; the data's size under a rule is sum w |f|
LADDER = (8, 12, 16, 24, 32, 48, 64, 96)

# each 1-D rule once: hermgauss takes 0.1 ms at 8 nodes, 1.3 ms at 96
_hermgauss = functools.lru_cache(maxsize=None)(hermgauss)


def hermite_rule(n: int, count: int) -> tuple[Mesh, np.ndarray]:
    """Tensor Gauss-Hermite rule for the weight exp(-|zeta|^2/4) on R^n, new
    on every call: nodes as an open mesh, (count, 1, 1), (1, count, 1),
    (1, 1, count) at n = 3, and weights (count,) * n, summing to 1."""
    z, w = _hermgauss(count)
    w = w / w.sum()
    return (Mesh(np.meshgrid(*[2.0 * z] * n, indexing="ij", sparse=True)),
            functools.reduce(np.multiply.outer, [w] * n))


class HeatPropagator:
    """Evaluator of e^{a lam Lap} f at points, vectorized over lam, for the
    speed ``a`` (default 1), of one field or a tuple of Q compiled as one
    function and combined by each application's ``t_weights``.

    Substituting y = x + sqrt(lam) * zeta turns the Gaussian convolution
    into a lam-independent weight exp(-|zeta|^2/4) / (4 pi)^(n/2), so each
    tensor Gauss-Hermite rule serves every diffusion time.  Each
    application is one :func:`~waveforge.quadrature.ladder_sums`: each
    (point, diffusion time) entry climbs :data:`LADDER` from its first two
    rules, 8 and 12 nodes per axis, and each rung sums the pending entries
    by one :func:`~waveforge.quadrature.centre_sums` on its rule's mesh.
    """

    def __init__(self, fields, a: float = 1.0):
        self.fields = (fields,) if isinstance(fields, Expr) else tuple(fields)
        check_heat(self.fields[0].ndim)
        self.a = float(a)
        f = compile_field(self.fields)
        self._g = lambda pts, s, u, t: f(pts, t)

    def apply_many(self, x, lams: np.ndarray, t_args=None, t_weights=None):
        """Semigroup e^{a lam Lap} at each lam in ``lams`` (zeros allowed),
        and sum w |f| under each entry's accepted rule, the data's size there.

        ``x`` is one point (n,) or many (P, n); each result has shape
        (len(lams),) or (P, len(lams)).  ``t_args``, aligned with ``lams``,
        is the fields' time argument.  With ``t_weights`` (len(lams), S Q),
        which Q fields need, ``t_args`` is (len(lams), S), and the
        semigroup at lams[j] is applied to sum_kq t_weights[j, k Q + q]
        f_q(., t_args[j, k]), its size to the sum of the terms' absolute
        values, as :func:`~waveforge.quadrature.centre_sums` takes them.
        """
        lams = self.a * np.asarray(lams, dtype=float)
        bad = ~(np.isfinite(lams) & (lams >= 0))
        if bad.any():
            raise NegativeDiffusionTime(
                f"diffusion times must be finite and >= 0, got {lams[bad][0]}"
            )
        return ladder_sums(
            self._g, LADDER, functools.partial(hermite_rule, np.shape(x)[-1]), x,
            np.sqrt(lams), t_args, t_weights,
            lambda x, j, lo, hi: (
                f"e^(lam Lap) of {brief(self.fields)} at diffusion time lam = "
                f"{float(lams[j])!r}, x = {x}: "
                f"the {lo}- and {hi}-node Gauss-Hermite rules per axis"),
            f"no setting raises the top of {LADDER[-1]} nodes per axis")


def heat_propagate(field: Expr, lam: float, x) -> float:
    """One-shot e^{lam Lap} field at a single point."""
    return float(HeatPropagator(field).apply_many(x, [lam])[0][0])


def check_heat(n: int) -> None:
    """Raise unless the whole-space diffusion solver takes dimension n."""
    if n > 3:
        raise UnsupportedDimension(f"diffusion solver needs n <= 3, got {n}")


def solve_heat_product(problem: CauchyProblem) -> SolutionEvaluator:
    """Solver for prod_j (d/dt - a_j Lap) u = f with m initial data, any
    positive speeds.  It takes no rule sizes: its time rules climb
    :data:`~waveforge.problems.TIME_LADDER` per point by ``climb``, its
    Gauss-Hermite rules :data:`LADDER` per (point, diffusion time) by
    :func:`~waveforge.quadrature.ladder_sums`."""
    if problem.kind != "heat-product":
        raise InvalidOrder(f"expected heat-product, got {problem.kind}")
    check_heat(problem.n)

    return cluster_evaluator(problem, HeatPropagator)
