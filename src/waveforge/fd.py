"""Finite-difference weights on arbitrary stencils (Fornberg recursion)."""

from __future__ import annotations

import numpy as np

from .quadrature import row_dot

__all__ = ["fornberg_weights", "central_stencil", "differentiate_samples"]


def fornberg_weights(z: float, x: np.ndarray, d: int) -> np.ndarray:
    """Weights approximating the d-th derivative at z from samples at x."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if d >= n:
        raise ValueError("stencil too small for requested derivative order")
    c = np.zeros((n, d + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, d)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, d]


def central_stencil(order: int, accuracy: int = 8) -> np.ndarray:
    """Symmetric integer offsets giving at least the requested accuracy."""
    half = (order + accuracy + 1) // 2
    return np.arange(-half, half + 1, dtype=float)


def differentiate_samples(g, t: float, order: int, h: float,
                          accuracy: int = 8) -> np.ndarray:
    """d^order/dt^order at t, by a centered stencil, of g: S sample times ->
    (P, S) values at P points, so callers batch what one sample costs."""
    if order == 0:
        return g(np.array([t]))[:, 0]
    offsets = central_stencil(order, accuracy)
    times = t + h * offsets
    weights = fornberg_weights(t, times, order)
    return row_dot(g(times), weights)
