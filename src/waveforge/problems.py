"""Problem descriptions for the whole-space (Cauchy) solvers.

A :class:`CauchyProblem` bundles the operator family, its order, the
propagation speeds, the source, and the initial data.  Validation happens
at construction so solver code can assume a well-formed problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DataCountMismatch,
    DegenerateSpeeds,
    InvalidOrder,
    NegativeDiffusionTime,
    NonPositiveSpeed,
    UnsupportedDimension,
)
from .expr import Expr
from .kernels import require_distinct

__all__ = ["CauchyProblem", "SolutionEvaluator", "KINDS"]

# operator families: m-fold wave with one speed, product of wave factors
# with distinct speeds, and product of heat factors (equal or distinct)
KINDS = ("wave-multiple", "wave-distinct", "heat-product")


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
        if any(a <= 0 for a in self.speeds):
            raise NonPositiveSpeed(f"speeds must be positive: {self.speeds}")
        if self.kind in ("wave-distinct",) and self.m >= 2:
            require_distinct(self.speeds)
        if self.kind == "wave-multiple" and not self.equal_speeds:
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

    @property
    def equal_speeds(self) -> bool:
        a = self.speeds
        return all(abs(v - a[0]) < 1e-14 for v in a)

    @property
    def distinct_speeds(self) -> bool:
        try:
            require_distinct(self.speeds)
        except DegenerateSpeeds:
            return False
        return True


class SolutionEvaluator:
    """The one evaluation entry point of every solver.

    ``evaluate(points (P, n), times (T,))`` returns the solution on their
    product, shape (P, T).  The solver supplies ``fn(points, t)``, its
    values at every point at one time; a point's value must not depend on
    the other points in the call.  ``__call__`` and ``grid`` wrap it.
    """

    def __init__(self, problem: CauchyProblem, fn: Callable):
        self.problem = problem
        self._fn = fn

    def evaluate(self, points, times) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        times = np.asarray(times, dtype=float)
        n = self.problem.n
        if points.ndim != 2 or points.shape[1] != n or times.ndim != 1:
            raise DataCountMismatch(
                f"need points of shape (P, {n}) and times of shape (T,), "
                f"got {points.shape} and {times.shape}"
            )
        # diffusion runs forward only; backwards its modes blow up
        if self.problem.kind == "heat-product" and np.any(times < 0):
            raise NegativeDiffusionTime(f"heat time must be >= 0, got {times.min()}")
        out = np.empty((points.shape[0], times.size))
        for j, t in enumerate(times):
            out[:, j] = self._fn(points, float(t))
        return out

    def __call__(self, x: Sequence[float], t: float) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)[None], [float(t)])[0, 0])

    def grid(self, points, t: float) -> np.ndarray:
        return self.evaluate(points, [float(t)])[:, 0]
