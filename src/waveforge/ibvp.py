"""Initial-boundary solver on boxes with homogeneous Dirichlet walls.

The box eigenfunctions are products of sines; every operator in the
package acts on them by multiplying with a scalar time symbol, so the
solution is: project the data, evolve each mode amplitude in time, and
sum the series at the evaluation points.  Projection evaluates a field on
the open mesh of per-axis Gauss nodes and contracts one axis at a time.

On mode k the factored operator is a constant-coefficient ODE
P(lam_k, D) T = g whose solutions are sums of divided differences of
e^{zt} at the roots of P(lam_k, .).  One closed form covers every family
and every speed cluster: the data in Newton form against those divided
differences, plus a Duhamel integral of the last one, taken at all the
time rule's nodes in as few calls as BATCH_POINTS allows.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataCountMismatch, InvalidBox, InvalidOrder
from .expr import Expr, Mesh, compile_field
from .kernels import exp_divided_differences
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import BATCH_POINTS, QuadratureSpec, gauss_legendre

__all__ = [
    "EigenBasis",
    "ModeCoefficients",
    "build_basis",
    "check_box",
    "project",
    "solve_ibvp",
    "IbvpEvaluator",
]

DEFAULT_K_MAX = 24
# Most modes a basis holds, k_max^d: 8 MiB per mode array.  At d = 3,
# k_max 101 projects on 210^3 Gauss nodes, 74 MB per field value there:
# one projection of x1*x2*x3 peaks at about 244 MiB resident, one of a
# field that holds two such values at once, such as exp(-x1*x2*x3), at 315
MAX_MODES = 1 << 20
BOUNDARY_DATA_TOL = 1e-8


@dataclass(frozen=True)
class EigenBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on a box.

    Modes are all multi-indices in {1..k_max}^d in the C order of the
    (k_max,)^d index tensor, not in eigenvalue order: every mode array a
    has a[k] at k - 1 of ``a.reshape((k_max,) * d)``.
    """

    L: tuple[float, ...]
    k_max: int
    modes: np.ndarray  # (M, d) integer multi-indices
    eigenvalues: np.ndarray  # (M,) lam_k = sum_i (k_i pi / L_i)^2
    norm: float  # prod_i sqrt(2 / L_i)

    @property
    def d(self) -> int:
        return len(self.L)

    @property
    def count(self) -> int:
        return self.modes.shape[0]


@dataclass(frozen=True)
class ModeCoefficients:
    basis: EigenBasis
    values: np.ndarray  # aligned with basis.modes

    def coeff(self, k) -> float:
        k = np.asarray(k)
        hit = np.flatnonzero((self.basis.modes == k).all(axis=1))
        if hit.size != 1:
            raise InvalidOrder(f"mode {tuple(k)} not in basis")
        return float(self.values[hit[0]])


def check_box(L, k_max: int) -> tuple[float, ...]:
    """The side lengths of the box prod [0, L_i] as floats, once they and
    the mode cutoff ``k_max`` are valid: 1 to 3 sides, each positive and
    finite, and 1 <= k_max with k_max^d <= :data:`MAX_MODES`.  Raises
    :class:`~waveforge.errors.InvalidBox` otherwise."""
    L = tuple(float(v) for v in np.atleast_1d(L))
    if len(L) not in (1, 2, 3):
        raise InvalidBox(f"box dimension must be 1..3, got {len(L)}")
    if not all(0 < v < math.inf for v in L):
        raise InvalidBox(f"box side lengths must be positive and finite: {L}")
    if k_max < 1:
        raise InvalidBox(f"k_max must be >= 1, got {k_max}")
    if k_max ** len(L) > MAX_MODES:
        raise InvalidBox(f"k_max = {k_max} gives {k_max ** len(L)} modes in "
                         f"{len(L)} dimensions, more than {MAX_MODES}")
    return L


def build_basis(L, k_max: int = DEFAULT_K_MAX) -> EigenBasis:
    """All sine modes up to ``k_max`` per axis on the box prod [0, L_i],
    checked by :func:`check_box`."""
    L = check_box(L, k_max)
    axes = [np.arange(1, k_max + 1)] * len(L)
    grids = np.meshgrid(*axes, indexing="ij")
    modes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    lam = ((modes * (np.pi / np.asarray(L))) ** 2).sum(axis=1)
    norm = float(np.prod([math.sqrt(2.0 / v) for v in L]))
    return EigenBasis(L, int(k_max), modes, lam, norm)


@functools.lru_cache(maxsize=8)
def _projection_plan(L: tuple[float, ...], k_max: int, quad_count: int):
    """Gauss nodes as an open mesh, and the weighted per-axis sine matrices.

    The mesh holds each axis's nodes along its own axis of the q^d grid,
    shapes (q, 1, 1), (1, q, 1), (1, 1, q) at d = 3.  The plan depends only
    on the box, the mode cutoff and the rule size, so every projection
    onto one basis shares it.  The arrays are read-only because the cache
    hands the same ones to every caller.
    """
    rules = [gauss_legendre(quad_count, 0.0, Li) for Li in L]
    mesh = Mesh(np.meshgrid(*[r.nodes for r in rules], indexing="ij", sparse=True))
    # per-axis sine matrices k x q, weights folded in
    k = np.arange(1, k_max + 1)
    mats = tuple(
        math.sqrt(2.0 / Li)
        * np.sin(np.outer(k, rule.nodes) * (np.pi / Li))
        * rule.weights[None, :]
        for rule, Li in zip(rules, L)
    )
    for arr in (*mesh, *mats):
        arr.flags.writeable = False
    return mesh, mats


def project(field, basis: EigenBasis, quad_count: int | None = None,
            t: float = 0.0) -> ModeCoefficients:
    """Coefficients c_k = integral of field * e_k over the box.

    ``field`` may be an expression or a compiled callable that takes an
    open mesh (:func:`~waveforge.expr.compile_field`); ``t`` is passed
    through for fields with explicit time dependence.  The field is
    evaluated on the tensor Gauss grid as an open mesh, so a factor that
    reads one coordinate costs q values, not q^d, and the Gauss sum is
    contracted one axis at a time (sum factorisation).  The result is the
    (k_1, ..., k_d) tensor flattened, already the basis's mode order.
    """
    f = compile_field(field) if isinstance(field, Expr) else field
    if quad_count is None:
        quad_count = max(2 * basis.k_max + 8, 32)
    mesh, mats = _projection_plan(basis.L, basis.k_max, quad_count)
    tensor = f(mesh, t)
    # each step contracts the leading node axis and appends a mode axis,
    # so after d steps the axes are (k_1, ..., k_d)
    for mat in mats:
        tensor = np.tensordot(tensor, mat, axes=([0], [1]))
    return ModeCoefficients(basis, tensor.reshape(-1))


class IbvpEvaluator(SolutionEvaluator):
    """Series evaluator with per-mode amplitudes, aligned with basis.modes
    and cached per time; ``amplitudes``, ``amplitude_derivatives`` and so
    ``energy`` check t by ``check_times``, as ``evaluate`` does."""

    def __init__(self, problem, basis, amplitude_fn, derivative_fn=None):
        self.basis = basis
        self._amp_fn = amplitude_fn
        self._der_fn = derivative_fn
        self._cache: dict[float, np.ndarray] = {}
        self._lock = threading.Lock()
        super().__init__(problem, self._synthesize)

    def amplitudes(self, t: float) -> np.ndarray:
        self.check_times(t)
        t = float(t)
        # threads evaluating chunks of points wait for one computation
        with self._lock:
            if t not in self._cache:
                self._cache[t] = self._amp_fn(t)
        return self._cache[t]

    def amplitude_derivatives(self, t: float) -> np.ndarray:
        if self._der_fn is None:
            raise InvalidOrder(
                "amplitude derivatives available only for single-factor "
                "homogeneous problems"
            )
        self.check_times(t)
        return self._der_fn(float(t))

    def energy(self, t: float) -> float:
        """Sum over modes of T'^2 + a^2 lam T^2 (single-factor wave)."""
        amps = self.amplitudes(t)
        ders = self.amplitude_derivatives(t)
        a = self.problem.speeds[0]
        return float(np.sum(ders**2 + a * a * self.basis.eigenvalues * amps**2))

    def _synthesize(self, X, t):
        """The series on the mesh X by sum factorisation (Orszag 1980): the
        amplitudes, read as the (k_max,)^d mode tensor they are laid out
        in, are contracted one axis at a time with the sine table of that
        axis's own coordinates, so a grid's intermediates hold
        g_1..g_i k_max^(d-i) values.  Elementwise multiply-adds in a fixed
        order, unlike a BLAS product, keep a point's value independent of
        its batch and mesh.
        """
        b = self.basis
        k = np.arange(1, b.k_max + 1)
        acc = self.amplitudes(t)
        for x, Li in zip(X, b.L):
            table = np.multiply.outer(x, k * (np.pi / Li))
            np.sin(table, out=table)
            # an explicit size: on an empty mesh axis -1 cannot be inferred
            acc = acc.reshape(acc.shape[:-1] + (b.k_max, acc.shape[-1] // b.k_max))
            out = table[..., 0, None] * acc[..., 0, :]
            for j in range(1, b.k_max):
                out += table[..., j, None] * acc[..., j, :]
            acc = out
        return b.norm * acc[..., 0]


def _check_boundary_data(problem: CauchyProblem, basis: EigenBasis):
    probes = []
    for i, Li in enumerate(basis.L):
        for edge in (0.0, Li):
            for frac in (0.25, 0.7):
                p = [frac * v for v in basis.L]
                p[i] = edge
                probes.append(p)
    probes = np.asarray(probes)
    for e in problem.data:
        if e is None:
            continue
        vals = compile_field(e)(probes)
        if np.max(np.abs(vals)) > BOUNDARY_DATA_TOL:
            warnings.warn(
                "initial data does not vanish on the box boundary; the "
                "sine series converges slowly there (Gibbs oscillations)",
                stacklevel=3,
            )
            break


def solve_ibvp(problem: CauchyProblem, basis: EigenBasis,
               spec: QuadratureSpec | None = None) -> IbvpEvaluator:
    """Eigenfunction-expansion solver for any of the three families."""
    if problem.n != basis.d:
        raise DataCountMismatch(
            f"problem dimension {problem.n} != box dimension {basis.d}"
        )
    spec = spec or QuadratureSpec()
    _check_boundary_data(problem, basis)
    m = problem.m
    lam = basis.eigenvalues
    data = np.array([
        np.zeros(basis.count) if e is None else project(e, basis).values
        for e in problem.data
    ])
    src = None if problem.source is None else compile_field(problem.source)

    unit = gauss_legendre(spec.n_time, 0.0, 1.0)
    z, wz = unit.nodes, unit.weights
    heat = problem.kind == "heat-product"
    # roots of each mode's characteristic polynomial, shape (N, M): heat
    # factors s + a lam, wave factors s^2 + a^2 lam
    a = np.asarray(problem.speeds)[:, None]
    if heat:
        roots = -a * lam
    else:
        w = 1j * a * np.sqrt(lam)
        roots = np.stack([w, -w], axis=1).reshape(2 * m, basis.count)

    # Newton form c_j = [(D - r_{j-1}) ... (D - r_0) T](0) of the data;
    # the rows of `poly` are the coefficients of that operator in D
    poly = np.zeros_like(roots)
    poly[0] = 1.0
    newton = np.empty_like(roots)
    for j, r in enumerate(roots):
        newton[j] = (poly * data).sum(axis=0)
        # np.roll wraps the top row, which is zero until the last pass
        poly = np.roll(poly, 1, axis=0) - r * poly

    # Duhamel nodes per impulse-response call: nodes x modes stays within
    # BATCH_POINTS, or one node when the modes alone exceed it
    chunk = max(1, BATCH_POINTS // basis.count)

    def amplitude_fn(t):
        out = np.real((newton * exp_divided_differences(roots, t)).sum(axis=0))
        if src is not None and t != 0.0:
            # the impulse response is the last divided difference, for a
            # chunk of nodes per call; the source is projected one node at
            # a time and the terms are added in node order
            for i in range(0, len(z), chunk):
                zs, ws = z[i:i + chunk], wz[i:i + chunk]
                g = exp_divided_differences(roots[:, None], (t - t * zs)[:, None])[-1]
                for gi, zi, wi in zip(np.real(g), zs, ws):
                    out = out + t * wi * gi * project(src, basis, t=t * zi).values
        return out

    derivative_fn = None
    if m == 1 and src is None:

        def derivative_fn(t):
            phi = exp_divided_differences(roots, t)
            dphi = roots * phi
            dphi[1:] += phi[:-1]
            return np.real((newton * dphi).sum(axis=0))

    return IbvpEvaluator(problem, basis, amplitude_fn, derivative_fn)
