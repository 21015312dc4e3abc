"""Initial-boundary solver on boxes with homogeneous Dirichlet walls.

The box eigenfunctions are products of sines; every operator in the
package acts on them by multiplying with a scalar time symbol, so the
solution is: project the data, evolve each mode amplitude in time, and
sum the series at the evaluation points.  Projection evaluates a field on
the open mesh of per-axis Gauss nodes and contracts one axis at a time.

On mode k the factored operator is a constant-coefficient ODE
P(lam_k, D) T = g whose solutions are sums of divided differences of
e^{zt} at the roots of P(lam_k, .), exp and expm1 at one or two roots (a
heat of one or two speeds, the single wave).  One form covers every family
and every speed cluster: the data in Newton form against those divided
differences, plus a Duhamel integral of the last one: per time, one kernel
pass over the data's time and the rule's nodes, and the source projected at
blocks of nodes.  :class:`IbvpEvaluator` builds roots, Newton form and rule once.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataCountMismatch, DomainError, InvalidBox, InvalidOrder
from .expr import Expr, Mesh, compile_field
from .kernels import exp_divided_differences
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import BATCH_POINTS, QuadratureSpec, gauss_legendre

__all__ = [
    "EigenBasis",
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


def check_box(L, k_max: int) -> tuple[float, ...]:
    """The side lengths of the box prod [0, L_i] as floats, once they and
    the mode cutoff ``k_max`` are valid: 1 to 3 sides, each positive and
    finite, and an integer 1 <= k_max with k_max^d <= :data:`MAX_MODES`.
    Raises :class:`~waveforge.errors.InvalidBox` otherwise."""
    L = tuple(float(v) for v in np.atleast_1d(L))
    if len(L) not in (1, 2, 3):
        raise InvalidBox(f"box dimension must be 1..3, got {len(L)}")
    if not all(0 < v < math.inf for v in L):
        raise InvalidBox(f"box side lengths must be positive and finite: {L}")
    if not isinstance(k_max, numbers.Integral):
        raise InvalidBox(f"k_max must be an integer, got {k_max!r}")
    if k_max < 1:
        raise InvalidBox(f"k_max must be >= 1, got {k_max}")
    if int(k_max) ** len(L) > MAX_MODES:
        raise InvalidBox(f"k_max = {k_max} gives {int(k_max) ** len(L)} modes in "
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
def _projection_plan(L: tuple[float, ...], k_max: int, quad_count: int | None):
    """Gauss nodes as an open mesh, and the weighted per-axis sine matrices.

    The mesh holds each axis's nodes along its own axis of the q^d grid,
    shapes (q, 1, 1), (1, q, 1), (1, 1, q) at d = 3.  The plan depends only
    on the box, the mode cutoff and the rule size, so every projection
    onto one basis shares it.  The arrays are read-only because the cache
    hands the same ones to every caller.
    """
    if quad_count is None:
        quad_count = max(2 * k_max + 8, 32)
    rules = [gauss_legendre(quad_count, 0.0, Li) for Li in L]
    mesh = Mesh(np.meshgrid(*[z for z, _ in rules], indexing="ij", sparse=True))
    # per-axis sine matrices k x q, weights folded in
    k = np.arange(1, k_max + 1)
    mats = tuple(
        math.sqrt(2.0 / Li)
        * np.sin(np.outer(k, z) * (np.pi / Li))
        * w[None, :]
        for (z, w), Li in zip(rules, L)
    )
    for arr in (*mesh, *mats):
        arr.flags.writeable = False
    return mesh, mats


def project(field, basis: EigenBasis, quad_count: int | None = None,
            t: float | np.ndarray = 0.0) -> np.ndarray:
    """Coefficients c_k = integral of field * e_k over the box.

    ``field`` may be an expression or a compiled callable that takes an
    open mesh (:func:`~waveforge.expr.compile_field`); ``t`` is passed
    through for fields with explicit time dependence.  The field is
    evaluated on the tensor Gauss grid as an open mesh, so a factor that
    reads one coordinate costs q values, not q^d, and the Gauss sum is
    contracted one axis at a time (sum factorisation).  The result, shape
    (M,), is the (k_1, ..., k_d) tensor flattened, already the basis's mode
    order.  Times of shape (C,) give (C, M), from one field call with a
    leading time axis, each row bit for bit its own time's projection.
    """
    f = compile_field(field) if isinstance(field, Expr) else field
    mesh, mats = _projection_plan(basis.L, basis.k_max, quad_count)
    ts = np.reshape(t, (-1,) + (1,) * basis.d)
    tensor = f(Mesh(x[None] for x in mesh), ts)
    # each step contracts every time's leading node axis and appends a mode
    # axis: one matrix product per time, the one a lone time makes, so a row
    # does not depend on its block; after d steps the axes are (C, k_1..k_d)
    for mat in mats:
        tensor = np.matmul(tensor.reshape(len(ts), mat.shape[1], -1).swapaxes(1, 2), mat.T)
    return tensor.reshape(np.shape(t) + (basis.count,))


class IbvpEvaluator(SolutionEvaluator):
    """The box solver: the series over basis.modes of the mode amplitudes.

    The constructor checks the problem against the box, warns where the
    data do not vanish on its walls, projects the data and keeps each
    mode's characteristic roots, the data's Newton form, the compiled
    source and the ``n_time`` Gauss rule of the Duhamel integral.
    ``at(t)`` computes the amplitudes at t once and returns the series over
    them, so every slab of a threaded ``evaluate`` shares them and the time
    loop holds at most two times' amplitudes.  Each amplitude method, and
    ``energy``, checks t by ``check_times`` first, as ``evaluate`` does.
    """

    def __init__(self, problem: CauchyProblem, basis: EigenBasis,
                 spec: QuadratureSpec | None = None):
        if problem.n != basis.d:
            raise DataCountMismatch(
                f"problem dimension {problem.n} != box dimension {basis.d}"
            )
        _check_boundary_data(problem, basis)
        super().__init__(problem, self._series_at)
        self.basis = basis
        data = np.array([
            np.zeros(basis.count) if e is None else project(e, basis)
            for e in problem.data
        ])
        self._source = None if problem.source is None else compile_field(problem.source)
        mesh, _ = _projection_plan(basis.L, basis.k_max, None)
        self._block = max(1, BATCH_POINTS // math.prod(mesh.shape[:-1]))  # nodes
        self._rule = gauss_legendre((spec or QuadratureSpec()).n_time, 0.0, 1.0)

        # roots of each mode's characteristic polynomial, shape (N, M): heat
        # factors s + a lam, wave factors s^2 + a^2 lam
        a = np.asarray(problem.speeds)[:, None]
        if problem.kind == "heat-product":
            roots = -a * basis.eigenvalues
        else:
            w = 1j * a * np.sqrt(basis.eigenvalues)
            roots = np.stack([w, -w], axis=1).reshape(2 * problem.m, basis.count)

        # Newton form c_j = [(D - r_{j-1}) ... (D - r_0) T](0) of the data;
        # the rows of `poly` are the coefficients of that operator in D
        poly = np.zeros_like(roots)
        poly[0] = 1.0
        newton = np.empty_like(roots)
        for j, r in enumerate(roots):
            newton[j] = (poly * data).sum(axis=0)
            # np.roll wraps the top row, which is zero until the last pass
            poly = np.roll(poly, 1, axis=0) - r * poly
        self._roots, self._newton = roots, newton

    def _series_at(self, t: float):
        amps = self.amplitudes(t)
        return lambda X: self._synthesize(X, amps)

    def amplitudes(self, t: float) -> np.ndarray:
        self.check_times(t)
        t = float(t)
        if self._source is None or t == 0.0:
            return np.real((self._newton * exp_divided_differences(self._roots, t)).sum(axis=0))
        # one kernel pass over [t, t - t z], the data's time then the Duhamel
        # nodes (impulse response: the last divided difference), BATCH_POINTS
        # values per call as per projection block; terms added in node order
        z, wz = self._rule
        zs = np.concatenate([[0.0], z])[:, None]  # entry j > 0 is node z[j - 1]
        chunk = max(1, BATCH_POINTS // self.basis.count)
        for i in range(0, len(zs), chunk):
            phi = exp_divided_differences(self._roots[:, None], t - t * zs[i:i + chunk])
            if i == 0:
                out = np.real((self._newton * phi[:, 0]).sum(axis=0))
            for j in range(max(i, 1), i + phi.shape[1], self._block):
                c = project(self._source, self.basis,
                            t=t * zs[j:min(j + self._block, i + phi.shape[1]), 0])
                for gi, wi, ci in zip(np.real(phi[-1, j - i:]), wz[j - 1:], c):
                    out = out + t * wi * gi * ci
        return out

    def amplitude_derivatives(self, t: float) -> np.ndarray:
        return self._homogeneous(t)[1]

    def energy(self, t: float) -> float:
        """Sum over modes of T'^2 + a^2 lam T^2 (single-factor wave)."""
        self.check_times(t)
        if self.problem.kind == "heat-product":
            raise InvalidOrder("energy is defined for the single-factor wave only")
        amps, ders = self._homogeneous(t)
        a = self.problem.speeds[0]
        return float(np.sum(ders**2 + a * a * self.basis.eigenvalues * amps**2))

    def _homogeneous(self, t: float):
        """(T, T') at t from one kernel call: phi_k' = r_k phi_k + phi_{k-1}."""
        self.check_times(t)
        if self.problem.m != 1 or self._source is not None:
            raise InvalidOrder("amplitude derivatives available only for "
                               "single-factor homogeneous problems")
        phi = exp_divided_differences(self._roots, float(t))
        dphi = self._roots * phi
        dphi[1:] += phi[:-1]
        return tuple(np.real((self._newton * p).sum(axis=0)) for p in (phi, dphi))

    def _synthesize(self, X, amps):
        """The series with mode amplitudes ``amps`` on the mesh X by sum
        factorisation (Orszag 1980): the amplitudes, read as the
        (k_max,)^d mode tensor they are laid out in, are contracted one
        axis at a time with the sine table of that axis's own coordinates,
        so a grid's intermediates hold g_1..g_i k_max^(d-i) values.  A
        coordinate outside [0, L_i] raises
        :class:`~waveforge.errors.DomainError`; the walls are in the box.
        Elementwise multiply-adds in a fixed order, unlike a BLAS product,
        keep a point's value independent of its batch and mesh.
        """
        b = self.basis
        k = np.arange(1, b.k_max + 1)
        acc = amps
        for i, (x, Li) in enumerate(zip(X, b.L)):
            # past a wall the series is the data's odd periodic extension
            lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, Li)
            if not lo >= 0:
                raise DomainError(f"x{i + 1} = {lo!r} lies outside the box, "
                                  "below its wall at 0")
            if not hi <= Li:
                raise DomainError(f"x{i + 1} = {hi!r} lies outside the box, "
                                  f"above its wall at {Li!r}")
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
    # two points on each face, every other coordinate a fraction of its side
    probes = np.array([[edge if j == i else frac * v for j, v in enumerate(basis.L)]
                       for i, Li in enumerate(basis.L) for edge in (0.0, Li)
                       for frac in (0.25, 0.7)])
    if any(e is not None and np.max(np.abs(compile_field(e)(probes))) > BOUNDARY_DATA_TOL
           for e in problem.data):
        # point at the user's call of solve_ibvp or IbvpEvaluator
        frame, level = sys._getframe(), 1
        while frame.f_globals["__name__"] == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "initial data does not vanish on the box boundary; the "
            "sine series converges slowly there (Gibbs oscillations)",
            stacklevel=level,
        )


def solve_ibvp(problem: CauchyProblem, basis: EigenBasis,
               spec: QuadratureSpec | None = None) -> IbvpEvaluator:
    """Eigenfunction-expansion solver for any of the three families."""
    return IbvpEvaluator(problem, basis, spec)
