"""Gauss rules, hypersphere surface means, and the sinh-kernel realization.

The sinh kernel is the workhorse of every wave-type solver here: in
Darboux's form it is one spherical mean of the field and its radial
derivatives per time, over the sphere of radius a*t.  Sphere means and the
heat propagator's Gaussian sums share one bounded reduction,
:func:`centre_sums`, which takes every rule's nodes as an open mesh and
returns the data's size with every sum, and every rule sized by a
companion-rule estimate (the sphere degree, the Gauss-Hermite count and
the time rule) climbs one ladder, :func:`climb`, on flat entries: a point
of the time ladder, a (centre, step) pair of the sphere and Gauss-Hermite
ladders, which :func:`ladder_sums` maps to a kernel's points x times.
All operations are pure.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (DimensionError, DomainError, InvalidInterval, InvalidOrder,
                     UnresolvedData, UnsupportedDimension)
from .expr import Expr, Mesh, compile_field, differentiate, laplacian

__all__ = [
    "SphereRule",
    "QuadratureSpec",
    "gauss_legendre",
    "sphere_rule",
    "iterated_time_integral",
    "SinhKernel",
    "SPHERE_LADDER",
    "check_sphere",
    "climb",
    "ladder_sums",
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
    rule.  Every count is an integer, at least 2, ``n_time`` at most
    :data:`MAX_TIME_NODES` and ``sphere_degree`` at most 1448, the n = 3
    bound of :func:`check_sphere`.
    """

    n_time: int = 32
    n_radial: int = 32
    sphere_degree: int = 16

    def __post_init__(self):
        for name in ("n_time", "n_radial", "sphere_degree"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise InvalidOrder(f"{name} must be an integer, got {value!r}")
            if value < 2:
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
    count = 2 * int(degree) ** (n - 1)
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


def gauss_legendre(count: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule with ``count`` nodes
    mapped to (a, b), a finite interval.

    The rule on (-1, 1) is computed once per count (:func:`_unit_rule`)
    and scaled here, so the returned arrays are new on every call.
    """
    if count < 1:
        raise InvalidOrder("node count must be positive")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise InvalidInterval(f"need finite a < b, got ({a}, {b})")
    nodes, weights = _unit_rule(count)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return mid + half * nodes, half * weights


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


def brief(fields: Sequence[Expr]) -> str:
    """The fields' text for a message, cut to :data:`FIELD_TEXT` characters."""
    text = ", ".join(map(str, fields))
    return text if len(text) <= FIELD_TEXT else text[:FIELD_TEXT] + "..."


def climb(rungs: Sequence[int], sums: Callable, count: int,
          unresolved: Callable[[int, int, int], str], remedy: str = ""):
    """Values and sizes of entries 0..count-1, each on the first rule of
    the ladder ``rungs`` that agrees with the one below.

    ``sums(asked, idx)`` returns the values and the data's size, shape
    (len(idx),) each, for the entries of the index array ``idx`` on each
    rule of the tuple ``asked``: the first two rungs together, for every
    entry, then each rung once, for the entries still pending, in order.
    An entry moves up one rung while the last two differ by more than
    :data:`TOLERANCE` of its size under the larger.  One still pending on
    the top rung raises :class:`~waveforge.errors.UnresolvedData`:
    ``unresolved(entry, lo, hi)`` names the first such entry and the top
    two rungs, the gap and the size follow, and ``remedy``, if given, ends
    the message: what raises the top, or that nothing does.  A value or
    size that is not finite raises :class:`~waveforge.errors.DomainError`
    at the first pair of rungs that compares it, ``unresolved`` naming its
    entry and that pair.  A one-rung ladder is that rule alone, unchecked.
    """
    idx = np.arange(count)
    asked = list(sums(tuple(rungs[:2]), idx))
    lo, size = asked.pop(0)
    if len(rungs) == 1:
        return lo, size
    out, mag = np.empty(count), np.empty(count)
    for below, rung in zip(rungs, rungs[1:]):
        hi, size = asked.pop(0) if asked else sums((rung,), idx)[0]
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & np.isfinite(size))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"{unresolved(int(idx[i]), below, rung)} give {lo[i]:.3g} "
                              f"and {hi[i]:.3g} of size {size[i]:.3g}: not finite")
        gap = np.abs(hi - lo)
        done = gap <= TOLERANCE * size
        out[idx[done]], mag[idx[done]] = hi[done], size[done]
        keep = ~done
        idx, lo, gap, size = idx[keep], hi[keep], gap[keep], size[keep]
        if not idx.size:
            return out, mag
    message = (f"{unresolved(int(idx[0]), rungs[-2], rungs[-1])} differ by {gap[0]:.3g}, "
               f"more than {TOLERANCE:g} of the data's size {size[0]:.3g}")
    raise UnresolvedData(f"{message}; {remedy}" if remedy else message)


def ladder_sums(g, rungs: Sequence[int], rule: Callable, centres, steps,
                t_args, t_weights, unresolved: Callable, remedy: str):
    """:func:`climb` over the product of points and steps: the values and
    sizes of :func:`centre_sums` at every point of ``centres`` and step of
    ``steps`` (J,), shape (P, J) each for (P, n) points and (J,) for one
    point (n,).

    Entry e is point e // J at step e % J, and each rung sums the pending
    entries on ``rule(rung)``, its node mesh and weights, passing them to
    :func:`centre_sums` as (point, step) index pairs.  ``t_args`` (J,),
    or (J, S) with ``t_weights`` (J, S Q), are each step's time arguments,
    zero if None, as :func:`centre_sums` takes them.  ``unresolved(x, j, lo, hi)``
    names an unresolved entry by its point x, a list, and step index j.
    """
    x = np.asarray(centres, dtype=float)
    centres, steps = np.atleast_2d(x), np.asarray(steps, dtype=float)
    J = steps.size
    out = climb(rungs, lambda asked, idx: [centre_sums(
                    g, centres, steps, *rule(rung), t_args, t_weights, np.divmod(idx, J))
                    for rung in asked],
                len(centres) * J,
                lambda e, lo, hi: unresolved(centres[e // J].tolist(), e % J, lo, hi),
                remedy)
    return tuple(v.reshape(x.shape[:-1] + (J,)) for v in out)


# Most field values one reduction builds at once, a value being a point at
# one source time: chunks of whole entries while one entry's row fits, else
# runs of slices of the row's first node axis, so no field call outgrows
# BATCH_POINTS unless one row, or one slice at all source times, does.
# Larger chunks were no faster, and freeing their larger arrays raises
# malloc's mmap threshold, so more freed memory stays resident: 1 << 20
# added 25 MiB to the whole-space configs' peak RSS.
BATCH_POINTS = 1 << 16
# A row of more nodes is summed in chunks of whole slices of its first
# node axis, at most this many nodes or one slice, in node order; the
# boundaries are fixed, so a value depends neither on its batch nor on
# BATCH_POINTS
ROW_CHUNK = 1 << 16


def row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights . values[..., :] for every row of a (..., S) array, shape
    (...), ``weights`` (S,) or (..., S) broadcasting against the rows, by
    the dot product a lone row gets: a (P, S) @ (S,) product switches BLAS
    routine with P, which would make a row's rounding depend on the batch.
    A row of one value is the product, which is that dot product too."""
    if values.shape[-1] == 1:
        return values[..., 0] * weights[..., 0]
    return (values[..., None, :] @ weights[..., :, None])[..., 0, 0]


def centre_sums(g, centres: np.ndarray, steps, nodes: Mesh,
                weights: np.ndarray, t_args=None, t_weights=None, pairs=None):
    """sum_d weights[d] g(x_e + s_e u_d) for every entry e, a centre x_e of
    ``centres`` (E, n) with its own step s_e of ``steps`` (E,), and the
    data's size sum_d weights[d] |g(x_e + s_e u_d)| from the same values,
    shape (E,) each, with u_d the points of the open mesh ``nodes``: n
    arrays with the axes of ``weights`` that broadcast to its shape, a
    sphere rule's (D,) direction coordinates or a tensor rule's (q, 1, 1),
    (1, q, 1), (1, 1, q).  With index arrays ``pairs`` (E,) each, entry e
    is centre pairs[0][e] at step pairs[1][e], with that step's times,
    gathered one chunk at a time.

    ``g(points, steps, nodes, t)`` takes arrays with an entry axis first,
    then the node axes, D' slices of the first, then a source-time axis:
    the :class:`~waveforge.expr.Mesh` of the coordinates
    x_ea + s_e u_da, (E', D', 1) each for (D,) nodes, the steps (E', 1, 1),
    the Mesh of the u_da, (D', 1) each, and the time arguments (E', 1, S);
    it returns values (E', D', S), or (E', D', S, Q) for Q fields.  On a
    tensor rule x1 is (E', D', 1, 1, 1) and x3 (E', 1, 1, q, 1), so what
    reads x1 alone costs D' values.  ``t_args`` is each step's time
    argument, aligned with ``steps``, zero if None.  With ``t_weights``
    (len(steps), S Q) it has S source times: g at step j is then
    sum_kq t_weights[j, k Q + q] g_q(., t_args[j, k]), of size the sum of
    the terms' absolute values; without, S and Q are 1, of weight 1.  The
    fields are evaluated once on that source-time axis, so a subexpression
    that does not read t is computed once per point, and the S Q values are
    contracted per point by :func:`row_dot`, before the node sum.

    A zero step is g at the centre itself, exactly.  Each entry is reduced
    by its own dot product per chunk of :data:`ROW_CHUNK` nodes, over its
    values with the node axes flattened, the chunks' sums added in node
    order, so its value does not depend on how the work is chunked.
    """
    if np.shape(centres)[-1] != len(nodes):
        raise DimensionError(f"{np.shape(centres)[-1]}-D centres, {len(nodes)}-D rule")
    steps = np.asarray(steps, dtype=float)
    if t_weights is None:  # one source time of weight 1
        t_args = np.broadcast_to(0.0 if t_args is None else t_args, steps.shape)[:, None]
        t_weights = np.ones((steps.size, 1))
    t_args = np.asarray(t_args, dtype=float)
    sources, cols = t_args.shape[1], t_weights.shape[1]  # cols: values a node takes
    point, step = (np.arange(steps.size),) * 2 if pairs is None else pairs
    out = np.empty(step.size)
    mag = np.empty_like(out)
    zero = (steps == 0.0)[step]
    # a zero step takes one node of weight 1: the centre
    for idx, u, w in ((np.flatnonzero(zero), Mesh(np.zeros(1) for _ in nodes), np.ones(1)),
                      (np.flatnonzero(~zero), nodes, weights)):
        inner = w[0].size  # nodes in one slice of the first node axis
        width = min(len(w), max(1, ROW_CHUNK // inner))  # slices a row sums at once
        budget = max(BATCH_POINTS, width * inner)  # most values a field call builds
        span = max(1, min(width, budget // (inner * cols)))  # slices a field call takes
        rows = max(1, budget // (span * inner * cols))  # entries a field call takes
        lead = (-1,) + (1,) * w.ndim  # an entry axis, then the node axes
        flat = w.reshape(-1)
        for j in range(0, idx.size, rows):
            r = idx[j:j + rows]
            p, q = point[r], step[r]
            x = centres[p].T.reshape((len(nodes),) + lead + (1,))
            s, t = steps[q].reshape(lead + (1,)), t_args[q].reshape(lead + (sources,))
            tw = t_weights[q, None]

            def reduced(a, b):
                """Slices a:b's values and sizes, (E', nodes) each; the
                field's values are freed on return."""
                ua = Mesh((uk[a:b] if len(uk) > 1 else uk)[..., None] for uk in u)
                pts = Mesh(s * uk for uk in ua)
                for pk, xk in zip(pts, x):
                    pk += xk
                vals = g(pts, s, ua, t).reshape(len(r), (b - a) * inner, cols)
                return row_dot(vals, tw), row_dot(np.abs(vals), np.abs(tw))

            for k in range(0, len(w), width):
                end = min(k + width, len(w))
                parts = [reduced(a, min(a + span, end)) for a in range(k, end, span)]
                vals, sizes = parts[0] if len(parts) == 1 else (
                    np.concatenate(p, axis=-1) for p in zip(*parts))
                part = row_dot(vals, flat[k * inner:end * inner])
                out[r] = part if k == 0 else out[r] + part
                part = row_dot(sizes, flat[k * inner:end * inner])
                mag[r] = part if k == 0 else mag[r] + part
    return out, mag


def iterated_time_integral(g: Callable[[np.ndarray], np.ndarray], m: int,
                           t: float, rule_count: int = 32) -> float:
    """m-fold iterated integral (int_0^t . tau dtau)^m of g, collapsed.

    The m-fold nesting collapses to a single weighted integral
    int_0^t (t^2 - tau^2)^{m-1}/(2m-2)!! g(tau) tau dtau; for m = 1 this
    is the plain single integral.
    """
    if m < 1:
        raise InvalidOrder(f"fold count must be >= 1, got {m}")
    if rule_count < 1:
        raise InvalidOrder(f"rule_count must be >= 1, got {rule_count}")
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    if t == 0.0:
        return 0.0
    nodes, weights = _unit_rule(rule_count)
    tau = 0.5 * t * (nodes + 1.0)
    w = 0.5 * t * weights
    values = np.asarray(g(tau), dtype=float)
    integrand = ((t - tau) * (t + tau)) ** (m - 1) / double_factorial(2 * m - 2) * values * tau
    return float(np.dot(w, integrand))


class SinhKernel:
    """Evaluator of S_a(t) = sinh(a t Lap^(1/2)) / (a Lap^(1/2)) applied to
    fields, and of its time derivative C_a(t) = cosh(a t Lap^(1/2)), at the
    kernel's own speed a >= 0 (a = 0 gives S_0(t) = t, C_0 = 1).

    Both take Darboux's form (Evans, *Partial Differential Equations*,
    2.4.1), S_a(t) = (t^-1 d/dt)^((n-3)/2) (t^(n-2) M(t)) / (n-2)!! in the
    sphere mean M of radius r = a t, which needs one mean per time:

    * n = 3: S_a = t M[f] and C_a = M[f + r w.grad f];
    * n = 5: S_a = t M[f + (r/3) w.grad f] and
      C_a = M[f + (r/3) w.grad f + (r^2/3) Lap f], by Darboux's equation
      M'' + (4/r) M' = M[Lap f].

    ``fields`` is one :class:`~waveforge.expr.Expr` or a tuple of Q that
    share every mean, compiled at once as one function that computes each
    node they share once; their derivatives along each axis, their
    Laplacians and the rules are built so by the first mean that uses
    them.  Each application is one :func:`ladder_sums` of the Darboux
    integrand over the points and times, and returns the data's size with
    the values: each (point, time) entry climbs the sphere degrees of
    :data:`SPHERE_LADDER` below ``spec.sphere_degree``, then that degree,
    the top rung; data that the top two rules do not resolve raise
    :class:`~waveforge.errors.UnresolvedData`.  A top at or below the
    first rung is one fixed rule, unchecked.  ``rule`` is the top rung's
    rule.
    """

    def __init__(self, fields, a: float, spec: QuadratureSpec | None = None):
        spec = spec or QuadratureSpec()
        self.fields = (fields,) if isinstance(fields, Expr) else tuple(fields)
        n = self.fields[0].ndim
        check_sphere(n, spec.sphere_degree)
        self.n = n
        self.a = float(a)
        self.spec = spec
        top = spec.sphere_degree
        self.rungs = tuple(d for d in SPHERE_LADDER if d < top) + (top,)
        self._f = compile_field(self.fields)

    @property
    def rule(self) -> SphereRule:
        return sphere_rule(self.n, self.rungs[-1])

    @functools.cached_property
    def _grad(self) -> tuple:
        return tuple(compile_field([differentiate(f, f"x{i + 1}") for f in self.fields])
                     for i in range(self.n))

    @functools.cached_property
    def _lap(self):
        return compile_field([laplacian(f) for f in self.fields])

    def apply(self, x: Sequence[float], t: float) -> float:
        return float(self.apply_many(x, np.asarray([t]))[0][0])

    def apply_many(self, x, ts: np.ndarray, t_args=None, cosh: bool = False,
                   t_weights=None):
        """Kernel applied at each time in ``ts`` (may include 0), and the
        same kernel applied to the integrand's absolute value under each
        entry's accepted sphere rule, the data's size there.

        ``x`` is one point (n,) or many (P, n); each result has shape
        (len(ts),) or (P, len(ts)).  ``t_args``, if given, aligned with
        ``ts``, is the fields' time argument.  With ``t_weights`` (len(ts),
        S Q), which Q fields need, ``t_args`` is (len(ts), S), and the
        kernel at ts[j] is applied to sum_kq t_weights[j, k Q + q] f_q(.,
        t_args[j, k]), its size to the sum of the terms' absolute values,
        as :func:`centre_sums` takes them.  ``cosh`` applies C_a.
        """
        ts = np.asarray(ts, dtype=float)
        f, k = self._f, 1.0 / (self.n - 2)
        grad = self._grad if cosh or self.n == 5 else ()
        lap = self._lap if cosh and self.n == 5 else None

        def integrand(pts, r, u, t):
            # f + k r w.grad(f), and with the Laplacian + k r^2 Lap f, with
            # the fields on a last axis
            vals = f(pts, t)
            if grad:
                r, u = r[..., None], [ua[..., None] for ua in u]
                slope = u[0] * grad[0](pts, t)
                for ua, g in zip(u[1:], grad[1:]):
                    slope += ua * g(pts, t)
                slope *= k * r
                vals += slope
                if lap is not None:
                    vals += k * r * r * lap(pts, t)
            return vals

        def sphere_nodes(degree):
            rule = sphere_rule(self.n, degree)
            return Mesh(rule.directions.T), rule.weights

        means, mag = ladder_sums(
            integrand, self.rungs, sphere_nodes, x, self.a * ts, t_args, t_weights,
            lambda x, j, lo, hi: (
                f"sphere means of {brief(self.fields)} at t = {float(ts[j])!r}, "
                f"x = {x}: the degree-{lo} and degree-{hi} sphere rules"),
            f"raise [quadrature] sphere_degree above {self.rungs[-1]}")
        return (means, mag) if cosh else (ts * means, np.abs(ts) * mag)
