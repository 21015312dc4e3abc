"""Independent verification tools.

Nothing here shares numerical machinery with the solver pipelines: modes
are integrated as scalar ODE systems with an adaptive order-8 method, and
PDE residuals are measured by composed central differences.  The solvers
are trusted only to the extent they agree with these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegratorFailure, InvalidOrder
from .expr import Expr, eval_real
from .problems import CauchyProblem

__all__ = [
    "ModeProblem",
    "mode_solve",
    "ResidualReport",
    "residual_check",
    "heat_closed_form",
]

_TOL = 1e-11


@dataclass(frozen=True)
class ModeProblem:
    """A single Fourier mode of a factored evolution operator.

    The spatial part is sin(k.x + delta); its time amplitude T satisfies
    prod_j (d^2/dt^2 + a_j^2 lam) T = g(t)  (wave) or
    prod_j (d/dt + a_j lam) T = g(t)        (heat),
    with lam = |k|^2.  ``source`` may be None, a callable g(t), or an
    expression in t alone.
    """

    kind: str  # "wave" or "heat"
    speeds: tuple[float, ...]
    k: tuple[float, ...]
    data: tuple[float, ...]
    source: object = None
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("wave", "heat"):
            raise InvalidOrder(f"mode kind must be wave or heat, got {self.kind}")
        m = len(self.speeds)
        order = 2 * m if self.kind == "wave" else m
        if len(self.data) != order:
            raise InvalidOrder(
                f"{self.kind} mode of {m} factors needs {order} initial "
                f"values, got {len(self.data)}"
            )
        if self.kind == "wave" and self.lam == 0.0:
            raise InvalidOrder("wave modes need a nonzero wavenumber")

    @property
    def lam(self) -> float:
        return float(sum(v * v for v in self.k))

    def source_fn(self) -> Optional[Callable[[float], float]]:
        if self.source is None:
            return None
        if isinstance(self.source, Expr):
            e = self.source
            return lambda t: eval_real(e, [0.0] * e.ndim, t)
        return self.source


def _ode_coefficients(mp: ModeProblem) -> np.ndarray:
    """Expanded monic coefficients (highest derivative first)."""
    lam = mp.lam
    coeffs = np.array([1.0])
    for a in mp.speeds:
        factor = [1.0, 0.0, a * a * lam] if mp.kind == "wave" else [1.0, a * lam]
        coeffs = np.convolve(coeffs, factor)
    return coeffs


def mode_solve(mp: ModeProblem, t) -> float | np.ndarray:
    """Amplitude T at time(s) t via adaptive order-8 integration."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    scalar = np.isscalar(t) or np.asarray(t).ndim == 0
    if np.any(ts < 0):
        raise InvalidOrder("mode solutions are defined for t >= 0")
    coeffs = _ode_coefficients(mp)
    order = coeffs.size - 1
    g = mp.source_fn()

    def rhs(tt, y):
        dy = np.empty_like(y)
        dy[:-1] = y[1:]
        top = 0.0 if g is None else g(tt)
        dy[-1] = top - np.dot(coeffs[1:], y[::-1])
        return dy

    t_end = float(ts.max())
    if t_end == 0.0:
        out = np.full(ts.shape, mp.data[0])
        return float(out[0]) if scalar else out
    sol = solve_ivp(
        rhs, (0.0, t_end), np.asarray(mp.data, dtype=float),
        method="DOP853", rtol=_TOL, atol=_TOL, dense_output=True,
    )
    if not sol.success:
        raise IntegratorFailure(f"mode integration failed: {sol.message}")
    out = sol.sol(ts)[0]
    return float(out[0]) if scalar else np.asarray(out)


# ---------------------------------------------------------------------------
# Finite-difference residuals


@dataclass(frozen=True)
class ResidualReport:
    """Residual magnitudes under grid refinement and the implied order."""

    steps: tuple[float, ...]
    residuals: tuple[float, ...]
    orders: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def order(self) -> float:
        return float(np.mean(self.orders))


# 4th-order central stencil for the second derivative (unit spacing)
_S2 = {-2: -1.0 / 12.0, -1: 4.0 / 3.0, 0: -5.0 / 2.0,
       1: 4.0 / 3.0, 2: -1.0 / 12.0}
# 4th-order central stencil for the first derivative
_S1 = {-2: 1.0 / 12.0, -1: -2.0 / 3.0, 1: 2.0 / 3.0, 2: -1.0 / 12.0}


def _convolve(sa: dict, sb: dict) -> dict:
    out: dict = {}
    for oa, ca in sa.items():
        for ob, cb in sb.items():
            key = tuple(i + j for i, j in zip(oa, ob))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _axis_stencil(ndim: int, axis: int, base: dict) -> dict:
    out = {}
    for off, c in base.items():
        key = [0] * ndim
        key[axis] = off
        out[tuple(key)] = c
    return out


def _identity(ndim: int) -> dict:
    return {tuple([0] * ndim): 1.0}


def _merge(sa: dict, sb: dict) -> dict:
    out = dict(sa)
    for k, v in sb.items():
        out[k] = out.get(k, 0.0) + v
    return out


def _scale(s: dict, c: float) -> dict:
    return {k: v * c for k, v in s.items()}


def residual_check(u, problem: CauchyProblem, point: Sequence[float],
                   t: float, h0: float = 0.08, levels: int = 3,
                   refine: float = 2.0) -> ResidualReport:
    """Max |L u - f| at one space-time point under grid refinement.

    The operator L is composed from 4th-order central stencils, one
    factor at a time, so a solver that satisfies the equation shows
    residuals shrinking at 4th order as h decreases.

    The stencil composition above mixes derivative orders, so instead of
    one global h-power each factor is built at spacing h directly: the
    unit-offset stencils are scaled per level.
    """
    if levels < 3:
        raise InvalidOrder("order estimation needs at least 3 levels")
    point = np.asarray(point, dtype=float)
    is_heat = problem.kind == "heat-product"

    def operator_residual(h: float) -> float:
        ndim = problem.n + 1
        lap = None
        for ax in range(1, ndim):
            s = _axis_stencil(ndim, ax, _scale(_S2, 1.0 / (h * h)))
            lap = s if lap is None else _merge(lap, s)
        stencil = _identity(ndim)
        for a in problem.speeds:
            if is_heat:
                dt = _axis_stencil(ndim, 0, _scale(_S1, 1.0 / h))
                factor = _merge(dt, _scale(lap, -a))
            else:
                dtt = _axis_stencil(ndim, 0, _scale(_S2, 1.0 / (h * h)))
                factor = _merge(dtt, _scale(lap, -a * a))
            stencil = _convolve(stencil, factor)
        acc = 0.0
        for off, c in stencil.items():
            if c == 0.0:
                continue
            tt = t + off[0] * h
            xx = point + h * np.asarray(off[1:], dtype=float)
            acc += c * u(xx, tt)
        if problem.source is not None:
            acc -= eval_real(problem.source, point, t)
        return abs(acc)

    steps = [h0 / refine**i for i in range(levels)]
    residuals = [operator_residual(h) for h in steps]
    orders = []
    for i in range(1, levels):
        if residuals[i] == 0.0 or residuals[i - 1] == 0.0:
            orders.append(float("nan"))
        else:
            orders.append(
                math.log(residuals[i - 1] / residuals[i]) / math.log(refine)
            )
    return ResidualReport(tuple(steps), tuple(residuals), tuple(orders))


def heat_closed_form(sigma: float, t: float, x: Sequence[float]) -> float:
    """Evolution of the Gaussian exp(-|x|^2 / (4 sigma)) under e^{t Lap}."""
    if sigma <= 0:
        raise InvalidOrder(f"width parameter must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    n = x.size
    s = sigma + t
    return (sigma / s) ** (n / 2.0) * math.exp(-float(x @ x) / (4.0 * s))
