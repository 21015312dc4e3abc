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
from .expr import Expr, Mesh, compile_field, differentiate, laplacian

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
    "check_sphere",
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


@dataclass(frozen=True)
class SphereRule:
    """Unit-sphere directions with mean-normalized weights (sum to 1)."""

    n: int
    directions: np.ndarray  # shape (count, n), unit vectors
    weights: np.ndarray  # shape (count,), sums to 1


# Most directions a sphere rule takes, 2 d^(n-1) at degree d, so d <= 1448
# at n = 3 and d <= 38 at n = 5: on one x86-64 core these top rules build
# in 0.39 s and 0.13 s, peaking 160 and 290 MiB above the import
MAX_SPHERE_DIRECTIONS = 1 << 22
# Most Duhamel-rule nodes: leggauss(1024) takes 0.12 s there, 2048 0.59 s
MAX_TIME_NODES = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the solver pipelines.

    ``n_time`` is the box solver's Duhamel rule; the whole-space time rules
    are sized per point (:data:`~waveforge.problems.TIME_LADDER`).
    ``sphere_degree`` is the top rung of the sinh kernel's sphere ladder
    (:data:`SPHERE_LADDER`), which each sphere mean climbs.  ``n_radial``
    is accepted and validated but unused: the sinh kernel needs no radial
    rule.  Every count is at least 2, ``n_time`` at most
    :data:`MAX_TIME_NODES` and ``sphere_degree`` at most 1448, the n = 3
    bound of :func:`check_sphere`.
    """

    n_time: int = 32
    n_radial: int = 32
    sphere_degree: int = 16

    def __post_init__(self):
        for name in ("n_time", "n_radial", "sphere_degree"):
            if getattr(self, name) < 2:
                raise InvalidOrder(f"{name} must be at least 2")
        if self.n_time > MAX_TIME_NODES:
            raise InvalidOrder(f"n_time = {self.n_time} is more than "
                               f"{MAX_TIME_NODES} nodes")
        check_sphere(3, self.sphere_degree)


def check_sphere(n: int, degree: int) -> None:
    """Raise unless the degree-``degree`` rule on S^(n-1) exists: n is 3 or
    5, the degree at least 2, and its 2 degree^(n-1) directions at most
    :data:`MAX_SPHERE_DIRECTIONS`."""
    if n not in (3, 5):
        raise UnsupportedDimension(f"sphere rules exist for n in {{3, 5}}, not {n}")
    if degree < 2:
        raise InvalidOrder("degree must be at least 2")
    count = 2 * degree ** (n - 1)
    if count > MAX_SPHERE_DIRECTIONS:
        raise InvalidOrder(f"sphere_degree = {degree} gives {count} directions "
                           f"at n = {n}, more than {MAX_SPHERE_DIRECTIONS}")


@functools.lru_cache(maxsize=64)
def _unit_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(count)``, the Gauss-Legendre rule on (-1, 1), computed
    once per count; the arrays are read-only because the cache hands the
    same ones to every caller."""
    nodes, weights = leggauss(count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(count: int, a: float, b: float) -> GaussRule:
    """Gauss-Legendre rule with ``count`` nodes mapped to (a, b).

    The rule on (-1, 1) is computed once per count (:func:`_unit_rule`)
    and scaled here, so the returned arrays are new on every call.
    """
    if count < 1:
        raise InvalidOrder("node count must be positive")
    if a >= b:
        raise InvalidInterval(f"need a < b, got ({a}, {b})")
    nodes, weights = _unit_rule(count)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return GaussRule(mid + half * nodes, half * weights, (a, b))


def _polar_rule(count: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and unnormalized weights for (1-u^2)^alpha on (-1, 1):
    :func:`_unit_rule` at alpha = 0, else Golub-Welsch on the Gegenbauer
    Jacobi matrix (its eigenvalues and squared first eigenvector entries)."""
    if alpha == 0:
        return _unit_rule(count)
    k = np.arange(1, count, dtype=float)
    off = np.sqrt(k * (k + 2 * alpha)
                  / ((2 * k + 2 * alpha - 1) * (2 * k + 2 * alpha + 1)))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


@functools.lru_cache(maxsize=None)
def sphere_rule(n: int, degree: int) -> SphereRule:
    """Product quadrature for surface means over the unit sphere in R^n.

    One recursion: S^1 is the uniform circle of 2 degree angles, and a
    point of S^(k-1) is (u, sqrt(1-u^2) w) with w on S^(k-2) and u on the
    degree-node Gauss rule for (1-u^2)^((k-3)/2).  The 2 degree^(n-1)
    directions integrate every polynomial of degree below 2 degree exactly.
    Rules are cached and their arrays are read-only.
    """
    check_sphere(n, degree)
    phi = np.arange(2 * degree) * (np.pi / degree)
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    weights, total = np.ones(2 * degree), 2 * degree
    for k in range(3, n + 1):
        u, wu = _polar_rule(degree, (k - 3) / 2)
        out = np.empty((degree, len(dirs), k))
        out[..., 0] = u[:, None]
        out[..., 1:] = np.sqrt(1.0 - u**2)[:, None, None] * dirs
        dirs = out.reshape(-1, k)
        weights = np.multiply.outer(wu, weights).reshape(-1)
        total *= wu.sum()
    rule = SphereRule(n, dirs, weights / total)
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


# characters of a field's text that an UnresolvedData message quotes: a
# Laplacian power of n = 5 data prints to over a thousand
FIELD_TEXT = 60


def brief(field) -> str:
    """``field``'s text for a message, cut to :data:`FIELD_TEXT` characters."""
    text = str(field)
    return text if len(text) <= FIELD_TEXT else text[:FIELD_TEXT] + "..."


def _pending_blocks(pending: np.ndarray) -> list:
    """The product blocks (rows, cols) of a (P, J) boolean array's true
    entries: the columns true at the same rows, in order of their first
    column, each with those rows.  Columns with no true entry are left out."""
    groups = {}
    for j, col in enumerate(pending.T):
        if col.any():
            groups.setdefault(col.tobytes(), []).append(j)
    return [(np.flatnonzero(pending[:, cols[0]]), np.array(cols))
            for cols in groups.values()]


def climb(rungs: Sequence[int], sums: Callable, shape: tuple,
          unresolved: Callable[[tuple, int, int], str], remedy: str = ""):
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
    hi)`` names the entry (an index pair) and the top two rungs, the gap
    and the size follow, and ``remedy``, if given, ends the message: what
    raises the top, or that nothing does.  A one-rung ladder is that rule
    alone, unchecked.
    """
    out, mag = np.empty(shape), np.empty(shape)
    pending = np.ones(shape, dtype=bool)

    def blocks(rung):
        if pending.all():
            return sums(rung, np.arange(shape[0]), np.arange(shape[1]))
        vals, size = np.zeros(shape), np.zeros(shape)
        for rows, cols in _pending_blocks(pending):
            block = np.ix_(rows, cols)
            vals[block], size[block] = sums(rung, rows, cols)
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
    message = (f"{unresolved(entry, rungs[-2], rungs[-1])} differ by {gap[entry]:.3g}, "
               f"more than {TOLERANCE:g} of the data's size {size[entry]:.3g}")
    raise UnresolvedData(f"{message}; {remedy}" if remedy else message)


# Most field values one reduction builds at once, a value being a point at
# one source time: chunks of whole centres while one centre's rows fit,
# else rows of a single centre, else runs of one row's nodes, so no field
# call outgrows BATCH_POINTS unless one row of nodes does, and then none
# builds more values than that row has nodes.  Larger chunks were no
# faster, and freeing their larger arrays raises malloc's mmap threshold,
# so more freed memory stays resident: 1 << 20 added 25 MiB to the
# whole-space configs' peak RSS.
BATCH_POINTS = 1 << 16
# A row of more nodes is summed in chunks of this many, in node order; the
# boundaries are fixed, so a value depends neither on its batch nor on
# BATCH_POINTS
ROW_CHUNK = 1 << 16


def row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights . values[..., :] for every row of a (..., S) array, shape
    (...), ``weights`` (S,) or (..., S) broadcasting against the rows, by
    the dot product a lone row gets: a (P, S) @ (S,) product switches BLAS
    routine with P, which would make a row's rounding depend on the batch."""
    return (values[..., None, :] @ weights[..., :, None])[..., 0, 0]


def centre_sums(g, centres: np.ndarray, steps, nodes: np.ndarray,
                weights: np.ndarray, t_args=None, t_weights=None):
    """sum_d weights[d] g(x + s_j u_d) for every centre x (P, n) and step
    s_j (J,), and the data's size sum_d weights[d] |g(x + s_j u_d)| from
    the same values, shape (P, J) each, with u_d the rows of ``nodes``
    (D, n).

    ``g(points, offsets, t)`` takes per-axis arrays: ``points`` is a
    :class:`~waveforge.expr.Mesh` of the n coordinates x_a + s_j u_da,
    (C, J', D', 1) each, ``offsets`` one of the offsets s_j u_da, (J', D',
    1) each, and ``t`` the time arguments (J', 1, S); it returns values
    (C, J', D', S).  ``t_args`` is each step's time argument, (J,), zero if
    None.  With ``t_weights`` both are (J, S), S source times per step: g
    is then sum_k t_weights[j, k] g(., t_args[j, k]), of size sum_k
    |t_weights[j, k]| |g(., t_args[j, k])|.  The field is evaluated once on
    that trailing source-time axis, so a subexpression that does not read
    t is computed once per point, and the axis is contracted per point by
    :func:`row_dot`, before the node sum.

    A zero step is g at the centre itself, exactly.  Each (centre, step)
    is reduced by its own dot product per chunk of :data:`ROW_CHUNK`
    nodes, the chunks' sums added in node order, so its value does not
    depend on how the work is chunked.
    """
    steps = np.asarray(steps, dtype=float)
    if t_weights is None:
        t_args = np.broadcast_to(0.0 if t_args is None else t_args, steps.shape)[:, None]
    sources = t_args.shape[1]
    axes = range(centres.shape[1])
    out = np.empty((len(centres), steps.size))
    mag = np.empty_like(out)
    zero = steps == 0.0
    # a zero step takes one node of weight 1: the centre
    for idx, u, w in ((np.flatnonzero(zero), np.zeros_like(nodes[:1]), np.ones(1)),
                      (np.flatnonzero(~zero), nodes, weights)):
        width = min(len(w), ROW_CHUNK)  # nodes a row sums at once
        budget = max(BATCH_POINTS, width)  # most values a field call builds
        span = max(1, min(width, budget // sources))  # nodes a field call takes
        rows = max(1, min(idx.size, budget // (span * sources)))
        step = max(1, budget // (rows * span * sources))
        for i in range(0, len(centres), step):
            x = centres[i:i + step]
            for j in range(0, idx.size, rows):
                r = idx[j:j + rows]
                t = t_args[r, None]
                tw = None if t_weights is None else t_weights[r, None]

                def reduced(a, b):
                    """Nodes a:b's values and sizes, (C, R, b - a) each; the
                    field's values are freed on return."""
                    offs = Mesh(steps[r, None, None] * u[a:b, k, None] for k in axes)
                    vals = g(Mesh(x[:, k, None, None, None] + offs[k] for k in axes),
                             offs, t)
                    if tw is None:
                        return vals[..., 0], np.abs(vals[..., 0])
                    return row_dot(vals, tw), row_dot(np.abs(vals), np.abs(tw))

                block = np.s_[i:i + step, r]
                for k in range(0, len(w), width):
                    end = min(k + width, len(w))
                    parts = [reduced(a, min(a + span, end)) for a in range(k, end, span)]
                    vals, sizes = parts[0] if len(parts) == 1 else (
                        np.concatenate(p, axis=-1) for p in zip(*parts))
                    part = row_dot(vals, w[k:end])
                    out[block] = part if k == 0 else out[block] + part
                    part = row_dot(sizes, w[k:end])
                    mag[block] = part if k == 0 else mag[block] + part
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
    nodes, weights = _unit_rule(rule_count)
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
    field, and of its time derivative C_a(t) = cosh(a t Lap^(1/2)).

    Both take Darboux's form (Evans, *Partial Differential Equations*,
    2.4.1), S_a(t) = (t^-1 d/dt)^((n-3)/2) (t^(n-2) M(t)) / (n-2)!! in the
    sphere mean M of radius r = a t, which needs one mean per time:

    * n = 3: S_a = t M[f] and C_a = M[f + r w.grad f];
    * n = 5: S_a = t M[f + (r/3) w.grad f] and
      C_a = M[f + (r/3) w.grad f + (r^2/3) Lap f], by Darboux's equation
      M'' + (4/r) M' = M[Lap f].

    The field is compiled once, its gradient and Laplacian and each rule
    by the first mean that uses them.  Each application reduces the
    Darboux integrand by :func:`centre_sums`, vectorized over points and
    times, and returns the data's size with the values.  Each (point,
    time) climbs the sphere degrees of :data:`SPHERE_LADDER` below
    ``spec.sphere_degree``, then that degree, the top rung, by
    :func:`climb`; data that the top two rules do not resolve raise
    :class:`~waveforge.errors.UnresolvedData`.  A top at or below the
    first rung is one fixed rule, unchecked.  ``rule`` is the top rung's
    rule.
    """

    def __init__(self, field: Expr, a: float, spec: QuadratureSpec | None = None):
        spec = spec or QuadratureSpec()
        n = field.ndim
        check_sphere(n, spec.sphere_degree)
        self.n = n
        self.a = float(a)
        self.spec = spec
        self.field = field
        top = spec.sphere_degree
        self.rungs = tuple(d for d in SPHERE_LADDER if d < top) + (top,)
        self._f = compile_field(field)

    @property
    def rule(self) -> SphereRule:
        return sphere_rule(self.n, self.rungs[-1])

    @functools.cached_property
    def _grad(self) -> tuple:
        return tuple(compile_field(differentiate(self.field, f"x{i + 1}"))
                     for i in range(self.n))

    @functools.cached_property
    def _lap(self):
        return compile_field(laplacian(self.field))

    def apply(self, x: Sequence[float], t: float) -> float:
        return float(self.apply_many(x, np.asarray([t]))[0][0])

    def apply_many(self, x, ts: np.ndarray, t_args=None, cosh: bool = False,
                   t_weights=None):
        """Kernel applied at each time in ``ts`` (may include 0), and the
        same kernel applied to the integrand's absolute value under each
        entry's accepted sphere rule, the data's size there.

        ``x`` is one point (n,) or many (P, n); each result has shape
        (len(ts),) or (P, len(ts)).  ``t_args``, if given, is an array
        aligned with ``ts`` holding the parameter passed to the field as
        its explicit time argument.  With ``t_weights`` both are
        (len(ts), S), and the kernel at ts[j] is applied to the time-weighted
        field sum_k t_weights[j, k] f(., t_args[j, k]), its size to
        sum_k |t_weights[j, k]| |f(., t_args[j, k])|, both passed through
        every rung by :func:`centre_sums`.  ``cosh`` applies C_a in place
        of S_a.
        """
        x = np.asarray(x, dtype=float)
        ts = np.asarray(ts, dtype=float)
        f, k = self._f, 1.0 / (self.n - 2)
        grad = self._grad if cosh or self.n == 5 else ()
        lap = self._lap if cosh and self.n == 5 else None

        def integrand(pts, offs, t):
            # f + k r w.grad(f), and with the Laplacian + k r^2 Lap f
            vals = f(pts, t)
            if grad:
                slope = [k * o for o in offs]  # k r w
                for s, g in zip(slope, grad):
                    vals += s * g(pts, t)
                if lap is not None:
                    r2 = np.stack([s * o for s, o in zip(slope, offs)], axis=-1)
                    vals += r2.sum(axis=-1) * lap(pts, t)
            return vals

        centres = np.atleast_2d(x)
        steps = self.a * ts
        t_args = np.broadcast_to(0.0 if t_args is None else t_args,
                                 steps.shape if t_weights is None else np.shape(t_weights))

        def sums(degree, rows, cols):
            rule = sphere_rule(self.n, degree)
            return centre_sums(integrand, centres[rows], steps[cols],
                               rule.directions, rule.weights, t_args[cols],
                               None if t_weights is None else t_weights[cols])

        means, mag = climb(
            self.rungs, sums, (len(centres), steps.size),
            lambda entry, lo, hi: (
                f"sphere means of {brief(self.field)} at t = {float(ts[entry[1]])!r}, "
                f"x = {centres[entry[0]].tolist()}: the degree-{lo} and "
                f"degree-{hi} sphere rules"),
            f"raise [quadrature] sphere_degree above {self.rungs[-1]}")
        out = (means, mag) if cosh else (ts * means, np.abs(ts) * mag)
        return tuple(v[0] for v in out) if x.ndim == 1 else out
