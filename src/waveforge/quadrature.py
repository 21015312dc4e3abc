"""Gauss rules, hypersphere surface means, and the sinh-kernel realization.

The sinh kernel is the workhorse of every wave-type solver here: in
Darboux's form it is one spherical mean of the field and its radial
derivatives per time, over the sphere of radius a*t.  Sphere means and the
heat propagator's Gaussian sums share one bounded reduction,
:func:`centre_sums`, which returns the data's size with every sum, and
every rule sized by a companion-rule estimate (the sphere degree, the
Gauss-Hermite count and the time rule) climbs one ladder, :func:`climb`,
which splits the entries still pending into product blocks.  All rules
are immutable value objects and all operations are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInterval, InvalidOrder, UnresolvedData, UnsupportedDimension
from .expr import Expr, compile_field, differentiate, laplacian

__all__ = [
    "GaussRule",
    "SphereRule",
    "QuadratureSpec",
    "gauss_legendre",
    "sphere_rule",
    "spherical_mean",
    "iterated_time_integral",
    "SinhKernel",
    "SPHERE_LADDER",
    "climb",
    "double_factorial",
]


def double_factorial(k: int) -> float:
    """k!! with the degenerate values 0!! = (-1)!! = 1."""
    if k <= 0:
        return 1.0
    result = 1.0
    while k > 0:
        result *= k
        k -= 2
    return result


@dataclass(frozen=True)
class GaussRule:
    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


@dataclass(frozen=True)
class SphereRule:
    """Unit-sphere directions with mean-normalized weights (sum to 1)."""

    n: int
    directions: np.ndarray  # shape (count, n), unit vectors
    weights: np.ndarray  # shape (count,), sums to 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the solver pipelines.

    ``n_time`` is the box solver's Duhamel rule; the whole-space time rules
    are sized per point (:data:`~waveforge.problems.TIME_LADDER`).
    ``sphere_degree`` is the top rung of the sinh kernel's sphere ladder
    (:data:`SPHERE_LADDER`), which each sphere mean climbs.  ``n_radial``
    is accepted and validated but unused: the sinh kernel needs no radial
    rule.
    """

    n_time: int = 32
    n_radial: int = 32
    sphere_degree: int = 16

    def __post_init__(self):
        for name in ("n_time", "n_radial", "sphere_degree"):
            if getattr(self, name) < 2:
                raise InvalidOrder(f"{name} must be at least 2")


def gauss_legendre(count: int, a: float, b: float) -> GaussRule:
    """Gauss-Legendre rule with ``count`` nodes mapped to (a, b)."""
    if count < 1:
        raise InvalidOrder("node count must be positive")
    if a >= b:
        raise InvalidInterval(f"need a < b, got ({a}, {b})")
    nodes, weights = leggauss(count)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return GaussRule(mid + half * nodes, half * weights, (a, b))


def _jacobi11_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi(1, 1) nodes and unnormalized weights, weight (1-u^2).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the monic recurrence, the weights the squared first
    components of its eigenvectors.
    """
    k = np.arange(1, count, dtype=float)
    off = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


def _chebyu_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Chebyshev-U nodes (ascending) and unnormalized weights,
    weight sqrt(1-u^2), in closed form."""
    theta = np.arange(count, 0, -1) * (np.pi / (count + 1))
    return np.cos(theta), np.sin(theta) ** 2


@functools.lru_cache(maxsize=None)
def sphere_rule(n: int, degree: int) -> SphereRule:
    """Product quadrature for surface means over the unit sphere in R^n.

    n=3 uses Gauss-Legendre in cos(theta) times a uniform azimuth grid;
    n=5 uses Gauss rules matched to the sin^k surface weights of the
    (theta1, theta2, theta3, phi) parametrization.  Rules are cached and
    their arrays are read-only.
    """
    if degree < 2:
        raise InvalidOrder("degree must be at least 2")

    if n == 3:
        u, wu = leggauss(degree)
        phi = np.arange(2 * degree) * (np.pi / degree)
        s = np.sqrt(1.0 - u**2)
        dirs = np.empty((degree, 2 * degree, 3))
        dirs[:, :, 0] = u[:, None]
        dirs[:, :, 1] = s[:, None] * np.cos(phi)[None, :]
        dirs[:, :, 2] = s[:, None] * np.sin(phi)[None, :]
        w = np.broadcast_to(
            wu[:, None] / (wu.sum() * 2 * degree), (degree, 2 * degree)
        )
        rule = SphereRule(3, dirs.reshape(-1, 3), w.reshape(-1).copy())
    elif n == 5:
        # surface element sin^3(t1) sin^2(t2) sin(t3) dt1 dt2 dt3 dphi;
        # substituting u = cos(t) turns the three polar weights into
        # (1-u^2), sqrt(1-u^2) and 1.
        u1, w1 = _jacobi11_rule(degree)
        u2, w2 = _chebyu_rule(degree)
        u3, w3 = leggauss(degree)
        phi = np.arange(2 * degree) * (np.pi / degree)
        s1 = np.sqrt(np.clip(1.0 - u1**2, 0.0, None))
        s2 = np.sqrt(np.clip(1.0 - u2**2, 0.0, None))
        s3 = np.sqrt(np.clip(1.0 - u3**2, 0.0, None))
        shape = (degree, degree, degree, 2 * degree)
        dirs = np.empty(shape + (5,))
        dirs[..., 0] = u1[:, None, None, None]
        dirs[..., 1] = (s1[:, None] * u2[None, :])[:, :, None, None]
        dirs[..., 2] = (s1[:, None, None] * s2[None, :, None] * u3[None, None, :])[
            :, :, :, None
        ]
        tail = s1[:, None, None] * s2[None, :, None] * s3[None, None, :]
        dirs[..., 3] = tail[:, :, :, None] * np.cos(phi)
        dirs[..., 4] = tail[:, :, :, None] * np.sin(phi)
        w = (
            w1[:, None, None, None]
            * w2[None, :, None, None]
            * w3[None, None, :, None]
            * np.ones(2 * degree)
        )
        w /= w.sum()
        rule = SphereRule(5, dirs.reshape(-1, 5), w.reshape(-1))
    else:
        raise UnsupportedDimension(f"sphere rules exist for n in {{3, 5}}, not {n}")

    rule.directions.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


# Two neighbouring rules of a ladder agree when they differ by at most this
# fraction of the data's size under the larger rule
TOLERANCE = 1e-10

# Sphere-rule degrees a sinh kernel's (point, time) climbs by climb, up to
# its QuadratureSpec.sphere_degree, the top rung; a degree-d rule takes 2d^2
# directions at n = 3 and 2d^4 at n = 5
SPHERE_LADDER = (4, 6, 8, 12, 16, 24, 32)


def climb(rungs: Sequence[int], sums: Callable, shape: tuple,
          unresolved: Callable[[tuple, int, int], str]):
    """Values and sizes of every entry of a (P, J) array of ``shape``,
    each on the first rule of the ladder ``rungs`` that agrees with the
    one below.

    ``sums(rung, rows, cols)`` returns the values and the data's size on
    rule ``rung`` for one product block of entries, the index arrays
    ``rows`` x ``cols``, shape (len(rows), len(cols)) each.  Every rung
    asks only for pending entries: columns pending at the same rows share
    one block, and while every entry is pending the block is the whole
    array.  An entry moves up one rung while the last two differ by
    more than :data:`TOLERANCE` of its size under the larger.  One still
    pending on the top rung raises
    :class:`~waveforge.errors.UnresolvedData`: ``unresolved(entry, lo,
    hi)`` names the entry (an index pair) and the top two rungs, and the
    gap and the size follow.  A one-rung ladder is that rule alone,
    unchecked.
    """
    out, mag = np.empty(shape), np.empty(shape)
    pending = np.ones(shape, dtype=bool)

    def blocks(rung):
        if pending.all():
            return sums(rung, np.arange(shape[0]), np.arange(shape[1]))
        vals, size = np.zeros(shape), np.zeros(shape)
        cols, group = np.unique(pending, axis=1, return_inverse=True)
        for k, col in enumerate(cols.T):
            rows, js = np.flatnonzero(col), np.flatnonzero(group.reshape(-1) == k)
            if rows.size:
                block = np.ix_(rows, js)
                vals[block], size[block] = sums(rung, rows, js)
        return vals, size

    lo, size = blocks(rungs[0])
    if len(rungs) == 1:
        return lo, size
    for rung in rungs[1:]:
        hi, size = blocks(rung)
        gap = np.abs(hi - lo)
        done = pending & (gap <= TOLERANCE * size)
        out[done], mag[done] = hi[done], size[done]
        pending &= ~done
        if not pending.any():
            return out, mag
        lo = hi
    entry = tuple(np.argwhere(pending)[0].tolist())
    raise UnresolvedData(
        f"{unresolved(entry, rungs[-2], rungs[-1])} differ by {gap[entry]:.3g}, "
        f"more than {TOLERANCE:g} of the data's size {size[entry]:.3g}"
    )


# Most field points one reduction builds at once: chunks of whole centres
# while one centre's rows fit, else rows of a single centre, so no array
# outgrows BATCH_POINTS unless one row of nodes does.  Larger chunks were
# no faster, and freeing their larger arrays raises malloc's mmap
# threshold, so more freed memory stays resident: 1 << 20 added 25 MiB to
# the whole-space configs' peak RSS.
BATCH_POINTS = 1 << 16
# A row of more nodes is summed in chunks of this many, in node order; the
# boundaries are fixed, so a value depends neither on its batch nor on
# BATCH_POINTS
ROW_CHUNK = 1 << 16


def row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights . values[..., :] for every row of a (..., S) array, shape
    (...), by the dot product a lone row gets: a (P, S) @ (S,) product
    switches BLAS routine with P, which would make a row's rounding depend
    on the batch."""
    return (values[..., None, :] @ weights[:, None])[..., 0, 0]


def centre_sums(g, centres: np.ndarray, steps, nodes: np.ndarray,
                weights: np.ndarray, t_args=None):
    """sum_d weights[d] g(x + s_j u_d) for every centre x (P, n) and step
    s_j (J,), and the data's size sum_d weights[d] |g(x + s_j u_d)| from
    the same values, shape (P, J) each, with u_d the rows of ``nodes``
    (D, n).

    ``g(points, offsets, t)`` maps points (C, J', D', n), their offsets
    s_j u_d (J', D', n) and the time arguments (J', 1) from ``t_args`` to
    values (C, J', D').  A zero step is g at the centre itself, exactly.
    Each (centre, step) is reduced by its own dot product per chunk of
    :data:`ROW_CHUNK` nodes, the chunks' sums added in node order, so its
    value does not depend on how the work is chunked.
    """
    steps = np.asarray(steps, dtype=float)
    t_args = np.broadcast_to(0.0 if t_args is None else t_args, steps.shape)[:, None]
    out = np.empty((len(centres), steps.size))
    mag = np.empty_like(out)
    zero = steps == 0.0
    # a zero step takes one node of weight 1: the centre
    for idx, u, w in ((np.flatnonzero(zero), np.zeros_like(nodes[:1]), np.ones(1)),
                      (np.flatnonzero(~zero), nodes, weights)):
        width = min(len(w), ROW_CHUNK)
        rows = max(1, min(idx.size, BATCH_POINTS // width))
        step = max(1, BATCH_POINTS // (rows * width))
        for i in range(0, len(centres), step):
            for j in range(0, idx.size, rows):
                r = idx[j:j + rows]
                block = np.s_[i:i + step, r]
                for k in range(0, len(w), width):
                    offs = steps[r, None, None] * u[k:k + width]
                    # the points are unnamed and the values deleted, so a
                    # chunk's arrays are freed before the next's exist
                    vals = g(centres[i:i + step, None, None] + offs, offs, t_args[r])
                    part = row_dot(vals, w[k:k + width])
                    out[block] = part if k == 0 else out[block] + part
                    part = row_dot(np.abs(vals), w[k:k + width])
                    mag[block] = part if k == 0 else mag[block] + part
                    del vals
    return out, mag


def spherical_mean(field: Expr, center: Sequence[float], radius: float,
                   rule: SphereRule) -> float:
    """Mean of ``field`` over the sphere of given radius around ``center``."""
    f = compile_field(field)
    center = np.asarray(center, dtype=float)
    means, _ = centre_sums(lambda pts, offs, t: f(pts, t), center[None, :],
                           [radius], rule.directions, rule.weights)
    return float(means[0, 0])


def iterated_time_integral(g: Callable[[np.ndarray], np.ndarray], m: int,
                           t: float, rule_count: int = 32) -> float:
    """m-fold iterated integral (int_0^t . tau dtau)^m of g, collapsed.

    The m-fold nesting collapses to a single weighted integral
    int_0^t (t^2 - tau^2)^{m-1}/(2m-2)!! g(tau) tau dtau; for m = 1 this
    is the plain single integral.
    """
    if m < 1:
        raise InvalidOrder(f"fold count must be >= 1, got {m}")
    if t == 0.0:
        return 0.0
    nodes, weights = leggauss(rule_count)
    tau = 0.5 * t * (nodes + 1.0)
    w = 0.5 * t * weights
    values = np.asarray(g(tau), dtype=float)
    if m == 1:
        integrand = values * tau
    else:
        integrand = (t**2 - tau**2) ** (m - 1) / double_factorial(2 * m - 2) \
            * values * tau
    return float(np.dot(w, integrand))


class SinhKernel:
    """Evaluator of S_a(t) = sinh(a t Lap^(1/2)) / (a Lap^(1/2)) applied to a
    field, and, when built with ``cosh``, of its time derivative
    C_a(t) = cosh(a t Lap^(1/2)).

    Both take Darboux's form (Evans, *Partial Differential Equations*,
    2.4.1), S_a(t) = (t^-1 d/dt)^((n-3)/2) (t^(n-2) M(t)) / (n-2)!! in the
    sphere mean M of radius r = a t, which needs one mean per time:

    * n = 3: S_a = t M[f] and C_a = M[f + r w.grad f];
    * n = 5: S_a = t M[f + (r/3) w.grad f] and
      C_a = M[f + (r/3) w.grad f + (r^2/3) Lap f], by Darboux's equation
      M'' + (4/r) M' = M[Lap f].

    The field and the derivatives these need are compiled once; each
    application reduces the Darboux integrand over them by
    :func:`centre_sums`, vectorized over points and times, and returns the
    data's size with the values.  Each (point, time) climbs the sphere
    degrees of :data:`SPHERE_LADDER` below ``spec.sphere_degree``, then
    that degree, the top rung, by :func:`climb`; data that the top two
    rules do not resolve raise :class:`~waveforge.errors.UnresolvedData`.
    A top at or below the first rung is one fixed rule, unchecked.
    ``rule`` is the top rung's rule.
    """

    def __init__(self, field: Expr, a: float, spec: QuadratureSpec | None = None,
                 cosh: bool = False):
        spec = spec or QuadratureSpec()
        n = field.ndim
        if n not in (3, 5):
            raise UnsupportedDimension(
                f"sinh kernel implemented for n in {{3, 5}}, not {n}"
            )
        self.n = n
        self.a = float(a)
        self.spec = spec
        self.field = field
        top = spec.sphere_degree
        self.rungs = tuple(d for d in SPHERE_LADDER if d < top) + (top,)
        self.rule = sphere_rule(n, top)
        self._cosh = cosh
        self._f = compile_field(field)
        self._grad = ()
        if cosh or n == 5:
            self._grad = tuple(compile_field(differentiate(field, f"x{i + 1}"))
                               for i in range(n))
        self._lap = compile_field(laplacian(field)) if cosh and n == 5 else None

    def apply(self, x: Sequence[float], t: float) -> float:
        return float(self.apply_many(x, np.asarray([t]))[0][0])

    def apply_many(self, x, ts: np.ndarray, t_args=None, cosh: bool = False):
        """Kernel applied at each time in ``ts`` (may include 0), and the
        same kernel applied to the integrand's absolute value under each
        entry's accepted sphere rule, the data's size there.

        ``x`` is one point (n,) or many (P, n); each result has shape
        (len(ts),) or (P, len(ts)).  ``t_args``, if given, is an array
        aligned with ``ts`` holding the parameter passed to the field as
        its explicit time argument.  ``cosh`` applies C_a in place of S_a.
        """
        if cosh and not self._cosh:
            raise InvalidOrder("this kernel was built without its cosh part")
        x = np.asarray(x, dtype=float)
        ts = np.asarray(ts, dtype=float)
        f, k = self._f, 1.0 / (self.n - 2)
        grad = self._grad if cosh or self.n == 5 else ()
        lap = self._lap if cosh else None

        def integrand(pts, offs, t):
            # f + k r w.grad(f), and with the Laplacian + k r^2 Lap f
            vals = f(pts, t)
            if grad:
                slope = k * offs  # k r w
                for i, g in enumerate(grad):
                    vals += slope[..., i] * g(pts, t)
                if lap is not None:
                    vals += (slope * offs).sum(axis=-1) * lap(pts, t)
            return vals

        centres = np.atleast_2d(x)
        steps = self.a * ts
        t_args = np.broadcast_to(0.0 if t_args is None else t_args, steps.shape)

        def sums(degree, rows, cols):
            rule = sphere_rule(self.n, degree)
            return centre_sums(integrand, centres[rows], steps[cols],
                               rule.directions, rule.weights, t_args[cols])

        means, mag = climb(
            self.rungs, sums, (len(centres), steps.size),
            lambda entry, lo, hi: (
                f"sphere means of {self.field} at t = {float(ts[entry[1]])!r}, "
                f"x = {centres[entry[0]].tolist()}: the degree-{lo} and "
                f"degree-{hi} sphere rules"))
        out = (means, mag) if cosh else (ts * means, np.abs(ts) * mag)
        return tuple(v[0] for v in out) if x.ndim == 1 else out
