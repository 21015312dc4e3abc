"""Operator-calculus utilities: complex shifts, dilation, and Abel-Poisson
summation of Fourier series.

A shift operator cos(h d/dx) or sin(h d/dx) applied to an analytic
function is the real or imaginary part of the function continued to the
complex point x + ih.  Fourier series are summed through their power
series generator evaluated just inside the unit circle, which is the
same regularization as convolving with the Poisson kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    GridTooCoarse,
    InsufficientDerivatives,
    InvalidInterval,
    InvalidOrder,
)
from .expr import Expr, eval_complex, eval_real

__all__ = [
    "complex_shift_cos",
    "complex_shift_sin",
    "dilation_apply",
    "FourierSeriesSpec",
    "abel_poisson_sum",
    "poisson_kernel_sum",
    "square_derivative_expand",
]

Generator = Union[Expr, Sequence[float]]


def _shift_value(f: Expr, h, x) -> complex:
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.shape != (f.ndim,) or h.shape != (f.ndim,):
        raise InvalidOrder(
            f"point and shift must both have {f.ndim} components"
        )
    return eval_complex(f, x + 1j * h)


def complex_shift_cos(f: Expr, h, x) -> float:
    """cos(h . grad) f at x, i.e. Re f(x + i h)."""
    return _shift_value(f, h, x).real


def complex_shift_sin(f: Expr, h, x) -> float:
    """sin(h . grad) f at x, i.e. Im f(x + i h)."""
    return _shift_value(f, h, x).imag


def dilation_apply(f: Expr, a, x) -> float:
    """The dilation operator: f evaluated at (a_1 x_1, ..., a_n x_n)."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.shape != (f.ndim,) or a.shape != (f.ndim,):
        raise InvalidOrder(
            f"point and scale must both have {f.ndim} components"
        )
    return eval_real(f, a * x)


@dataclass(frozen=True)
class FourierSeriesSpec:
    """A Fourier series given by its power-series generator(s).

    The cosine channel S_plus and sine channel S_minus are each either a
    one-variable expression S(t) = sum a_n t^n or an explicit coefficient
    list (a_0, a_1, ...) summed directly.  ``l`` is the half-period.
    """

    l: float
    s_plus: Optional[Generator] = None
    s_minus: Optional[Generator] = None

    def __post_init__(self):
        if self.l <= 0:
            raise InvalidInterval(f"half-period must be positive, got {self.l}")
        if self.s_plus is None and self.s_minus is None:
            raise InvalidOrder("need at least one generator")
        for g in (self.s_plus, self.s_minus):
            if g is not None and isinstance(g, Expr) and g.ndim != 1:
                raise InvalidOrder("generators are expressions in one variable")


def _generator_value(g: Generator, w: complex) -> complex:
    if isinstance(g, Expr):
        return eval_complex(g, [w])
    coeffs = list(g)
    acc = 0.0 + 0.0j
    for a_n in reversed(coeffs):
        acc = acc * w + a_n
    return acc


def abel_poisson_sum(spec: FourierSeriesSpec, x: float, z: float,
                     extrapolate: bool = False) -> float:
    """Regularized Fourier sum f_z(x) at radius e^z < 1.

    f_z(x) = Re S_plus(e^{z + i pi x / l}) + Im S_minus(same point); as
    z -> 0- this converges to the series sum away from discontinuities.
    With ``extrapolate`` the values at z, 2z, 4z are fitted by a
    quadratic in z and read off at 0, sharpening smooth-point limits.
    """
    if z >= 0:
        raise InvalidInterval(f"radius parameter must satisfy z < 0, got {z}")

    def value(zz: float) -> float:
        w = cmath.exp(complex(zz, math.pi * x / spec.l))
        total = 0.0
        if spec.s_plus is not None:
            total += _generator_value(spec.s_plus, w).real
        if spec.s_minus is not None:
            total += _generator_value(spec.s_minus, w).imag
        return total

    if not extrapolate:
        return value(z)
    zs = np.array([4 * z, 2 * z, z])
    vals = np.array([value(v) for v in zs])
    return float(np.polyval(np.polyfit(zs, vals, 2), 0.0))


def poisson_kernel_sum(f_values: Sequence[float], l: float, x, z: float
                       ) -> float | np.ndarray:
    """Poisson-kernel convolution of uniform samples of f on [-l, l].

    The samples must include both endpoints.  This is the integral form
    of the same regularization as :func:`abel_poisson_sum`; the two agree
    up to quadrature error, which makes them mutual cross-checks.
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_values.size < 16:
        raise GridTooCoarse(
            f"need at least 16 samples, got {f_values.size}"
        )
    if z >= 0:
        raise InvalidInterval(f"radius parameter must satisfy z < 0, got {z}")
    if l <= 0:
        raise InvalidInterval(f"half-period must be positive, got {l}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.linspace(-l, l, f_values.size)
    r = math.exp(z)
    out = np.empty(xs.shape)
    for i, xq in enumerate(xs):
        kern = (1.0 - r * r) / (
            1.0 - 2.0 * r * np.cos(math.pi * (xq - xi) / l) + r * r
        )
        # trapezoid over the periodic window [-l, l]
        out[i] = np.trapezoid(f_values * kern, xi) / (2.0 * l)
    return float(out[0]) if np.isscalar(x) else out


def square_derivative_expand(f_derivs: Sequence[float], x: float, k: int
                             ) -> float:
    """k-th x-derivative of f(x^2) from derivatives of f at y = x^2.

    d^k/dx^k f(x^2) = sum_{j=0}^{[k/2]} k!/(j! (k-2j)!) (2x)^{k-2j}
    f^{(k-j)}(x^2).
    """
    if k < 0:
        raise InvalidOrder(f"derivative order must be >= 0, got {k}")
    if len(f_derivs) < k + 1:
        raise InsufficientDerivatives(
            f"need {k + 1} derivative values, got {len(f_derivs)}"
        )
    total = 0.0
    for j in range(k // 2 + 1):
        coeff = math.factorial(k) / (
            math.factorial(j) * math.factorial(k - 2 * j)
        )
        total += coeff * (2.0 * x) ** (k - 2 * j) * f_derivs[k - j]
    return total
