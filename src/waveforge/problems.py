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
    """Callable wrapper around a pointwise solver closure.

    ``__call__`` accepts a single point (sequence of n floats) and a time
    and returns the solution value there.  ``grid`` evaluates over an
    array of points at one time.
    """

    def __init__(self, problem: CauchyProblem, fn: Callable):
        self.problem = problem
        self._fn = fn

    def __call__(self, x: Sequence[float], t: float) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.problem.n,):
            raise DataCountMismatch(
                f"point must have shape ({self.problem.n},), got {x.shape}"
            )
        return float(self._fn(x, float(t)))

    def grid(self, points: np.ndarray, t: float) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.array([self._fn(p, float(t)) for p in points])
