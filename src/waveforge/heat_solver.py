"""Closed-form solver for products of heat-type factors on the whole space.

Covers prod_j (d/dt - a_j Lap) u = f with m initial data and any positive
speeds.  Confluent partial fractions over the speed clusters
(:func:`~waveforge.problems.cluster_evaluator`) write the solution as
t^(i-1)/(i-1)! e^{t c Lap} of Laplacian powers of the data, and time
integrals of such terms, for each cluster centre c.

The diffusion semigroup e^{lam Lap} is the Gaussian convolution, realized
by tensor Gauss-Hermite rules on the whole space.  Each (point, diffusion
time) climbs a ladder of per-axis node counts by
:func:`~waveforge.quadrature.climb`; data that no rule on the ladder
resolves raise :class:`~waveforge.errors.UnresolvedData`.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import InvalidOrder, NegativeDiffusionTime, UnsupportedDimension
from .expr import Expr, compile_field
from .problems import CauchyProblem, SolutionEvaluator, cluster_evaluator
from .quadrature import brief, centre_sums, climb

__all__ = ["HeatPropagator", "check_heat", "heat_propagate", "solve_heat_product"]

# Per-axis Gauss-Hermite node counts a (point, diffusion time) climbs by
# quadrature.climb; the data's size under a rule is sum w |f|
LADDER = (8, 12, 16, 24, 32, 48, 64, 96)


@functools.lru_cache(maxsize=None)
def hermite_rule(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule for the weight exp(-|zeta|^2/4) on R^n:
    nodes (count^n, n) and weights (count^n,) normalized to sum to 1.
    Rules are cached and their arrays are read-only."""
    z, w = hermgauss(count)
    zeta = 2.0 * z
    w = w / w.sum()
    grids = np.meshgrid(*([zeta] * n), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wt = w
    for _ in range(n - 1):
        wt = np.multiply.outer(wt, w)
    wt = wt.reshape(-1)
    nodes.flags.writeable = False
    wt.flags.writeable = False
    return nodes, wt


class HeatPropagator:
    """Evaluator of e^{lam Lap} f at points, vectorized over lam.

    Substituting y = x + sqrt(lam) * zeta turns the Gaussian convolution
    into a lam-independent weight exp(-|zeta|^2/4) / (4 pi)^(n/2), so each
    tensor Gauss-Hermite rule serves every diffusion time.  Each (point,
    diffusion time) climbs :data:`LADDER` by
    :func:`~waveforge.quadrature.climb`, from its first two rules, 8 and 12
    nodes per axis; each block of pending entries it asks for is one
    :func:`~waveforge.quadrature.centre_sums` on that rung's rule.
    """

    def __init__(self, field: Expr):
        check_heat(field.ndim)
        self.field = field
        f = compile_field(field)
        self._g = lambda pts, offs, t: f(pts, t)

    def apply_many(self, x, lams: np.ndarray, t_args=None, t_weights=None):
        """Semigroup at each diffusion time in ``lams`` (zeros allowed), and
        sum w |f| under each entry's accepted rule, the data's size there.

        ``x`` is one point (n,) or many (P, n); each result has shape
        (len(lams),) or (P, len(lams)).  ``t_args``, aligned with ``lams``,
        is the field's time argument.  With ``t_weights`` both are
        (len(lams), S), and the semigroup at lams[j] is applied to the
        time-weighted field sum_k t_weights[j, k] f(., t_args[j, k]), its
        size to sum_k |t_weights[j, k]| |f(., t_args[j, k])|, both passed
        through every rung by :func:`~waveforge.quadrature.centre_sums`.
        """
        x = np.asarray(x, dtype=float)
        lams = np.asarray(lams, dtype=float)
        bad = ~(np.isfinite(lams) & (lams >= 0))
        if bad.any():
            raise NegativeDiffusionTime(
                f"diffusion times must be finite and >= 0, got {lams[bad][0]}"
            )
        centres = np.atleast_2d(x)
        steps = np.sqrt(lams)
        t_args = np.broadcast_to(0.0 if t_args is None else t_args,
                                 steps.shape if t_weights is None else np.shape(t_weights))
        out = climb(
            LADDER, lambda count, rows, cols: centre_sums(
                self._g, centres[rows], steps[cols],
                *hermite_rule(centres.shape[1], count), t_args[cols],
                None if t_weights is None else t_weights[cols]),
            (len(centres), steps.size),
            lambda entry, lo, hi: (
                f"e^(lam Lap) of {brief(self.field)} at diffusion time lam = "
                f"{float(lams[entry[1]])!r}, x = {centres[entry[0]].tolist()}: "
                f"the {lo}- and {hi}-node Gauss-Hermite rules per axis"),
            f"no setting raises the top of {LADDER[-1]} nodes per axis")
        return tuple(v[0] for v in out) if x.ndim == 1 else out


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
    :data:`~waveforge.problems.TIME_LADDER` per point and its Gauss-Hermite
    rules :data:`LADDER` per diffusion time, both by
    :func:`~waveforge.quadrature.climb`."""
    if problem.kind != "heat-product":
        raise InvalidOrder(f"expected heat-product, got {problem.kind}")
    check_heat(problem.n)

    def kernel(field):
        # one propagator serves every speed: the speed scales the diffusion time
        prop = HeatPropagator(field)
        return lambda points, c, taus, t_args=None, cosh=False, t_weights=None: (
            prop.apply_many(points, c * taus, t_args, t_weights))

    return cluster_evaluator(problem, kernel)
