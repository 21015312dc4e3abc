"""Initial-boundary solver on boxes with homogeneous Dirichlet walls.

The box eigenfunctions are products of sines; every operator in the
package acts on them by multiplying with a scalar time symbol, so the
solution is: project the data, evolve each mode amplitude in time, and
sum the series at the evaluation points.

Mode amplitudes for first-order-in-each-factor problems use closed
forms; higher-order wave products delegate the per-mode time behavior to
the independent ODE integrator, which doubles as cross-validation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataCountMismatch,
    InvalidBox,
    InvalidOrder,
    NegativeDiffusionTime,
)
from .expr import Expr, compile_field
from .kernels import eigen_symbol
from .oracle import ModeProblem, mode_solve
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import QuadratureSpec, gauss_legendre

__all__ = [
    "EigenBasis",
    "ModeCoefficients",
    "build_basis",
    "project",
    "solve_ibvp",
    "IbvpEvaluator",
]

DEFAULT_K_MAX = 24
BOUNDARY_DATA_TOL = 1e-8


@dataclass(frozen=True)
class EigenBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on a box.

    Modes are all multi-indices in {1..k_max}^d, flattened in order of
    nondecreasing eigenvalue lam_k = sum_i (k_i pi / L_i)^2.
    """

    L: tuple[float, ...]
    k_max: int
    modes: np.ndarray  # (M, d) integer multi-indices
    eigenvalues: np.ndarray  # (M,) sorted nondecreasing
    norm: float  # prod_i sqrt(2 / L_i)

    @property
    def d(self) -> int:
        return len(self.L)

    @property
    def count(self) -> int:
        return self.modes.shape[0]

    def frequencies(self) -> np.ndarray:
        """k_i pi / L_i per mode and axis, shape (M, d)."""
        return self.modes * (np.pi / np.asarray(self.L))

    def evaluate_modes(self, points: np.ndarray) -> np.ndarray:
        """Matrix of e_k(x): shape (P, M)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        phases = points[:, None, :] * self.frequencies()[None, :, :]
        return self.norm * np.sin(phases).prod(axis=2)


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


def build_basis(L, k_max: int = DEFAULT_K_MAX) -> EigenBasis:
    """All sine modes up to ``k_max`` per axis on the box prod [0, L_i]."""
    L = tuple(float(v) for v in np.atleast_1d(L))
    if len(L) not in (1, 2, 3):
        raise InvalidBox(f"box dimension must be 1..3, got {len(L)}")
    if any(v <= 0 for v in L):
        raise InvalidBox(f"side lengths must be positive: {L}")
    if k_max < 1:
        raise InvalidBox(f"k_max must be >= 1, got {k_max}")
    axes = [np.arange(1, k_max + 1)] * len(L)
    grids = np.meshgrid(*axes, indexing="ij")
    modes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    lam = ((modes * (np.pi / np.asarray(L))) ** 2).sum(axis=1)
    order = np.argsort(lam, kind="stable")
    norm = float(np.prod([math.sqrt(2.0 / v) for v in L]))
    return EigenBasis(L, int(k_max), modes[order], lam[order], norm)


@functools.lru_cache(maxsize=8)
def _projection_plan(L: tuple[float, ...], k_max: int, quad_count: int):
    """Tensor Gauss nodes, weighted per-axis sine matrices, reorder index.

    Depends only on the box, the mode cutoff and the rule size, so every
    projection onto one basis shares it.  The arrays are read-only because
    the cache hands the same ones to every caller.
    """
    rules = [gauss_legendre(quad_count, 0.0, Li) for Li in L]
    grids = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    # per-axis sine matrices k x q, weights folded in
    k = np.arange(1, k_max + 1)
    mats = tuple(
        math.sqrt(2.0 / Li)
        * np.sin(np.outer(k, rule.nodes) * (np.pi / Li))
        * rule.weights[None, :]
        for rule, Li in zip(rules, L)
    )
    # from the k-grid layout to the basis's eigenvalue ordering
    modes = build_basis(L, k_max).modes
    idx = np.ravel_multi_index(tuple((modes - 1).T), [k_max] * len(L))
    for arr in (points, idx, *mats):
        arr.flags.writeable = False
    return points, mats, idx


def project(field, basis: EigenBasis, quad_count: int | None = None,
            t: float = 0.0) -> ModeCoefficients:
    """Coefficients c_k = integral of field * e_k over the box.

    ``field`` may be an expression or a compiled callable; ``t`` is
    passed through for fields with explicit time dependence.  The tensor
    Gauss sum is contracted one axis at a time (sum factorisation).
    """
    f = compile_field(field) if isinstance(field, Expr) else field
    if quad_count is None:
        quad_count = max(2 * basis.k_max + 8, 32)
    points, mats, idx = _projection_plan(basis.L, basis.k_max, quad_count)
    tensor = f(points, t).reshape([quad_count] * basis.d)
    # each step contracts the leading node axis and appends a mode axis,
    # so after d steps the axes are (k_1, ..., k_d)
    for mat in mats:
        tensor = np.tensordot(tensor, mat, axes=([0], [1]))
    return ModeCoefficients(basis, tensor.reshape(-1)[idx])


class IbvpEvaluator(SolutionEvaluator):
    """Series evaluator with access to per-mode amplitudes."""

    def __init__(self, problem, basis, amplitude_fn, derivative_fn=None):
        self.basis = basis
        self._amp_fn = amplitude_fn
        self._der_fn = derivative_fn
        self._cache: dict[float, np.ndarray] = {}
        super().__init__(problem, self._evaluate)

    def amplitudes(self, t: float) -> np.ndarray:
        t = float(t)
        if t not in self._cache:
            self._cache[t] = self._amp_fn(t)
        return self._cache[t]

    def amplitude_derivatives(self, t: float) -> np.ndarray:
        if self._der_fn is None:
            raise InvalidOrder(
                "amplitude derivatives available only for single-factor "
                "homogeneous problems"
            )
        return self._der_fn(float(t))

    def energy(self, t: float) -> float:
        """Sum over modes of T'^2 + a^2 lam T^2 (single-factor wave)."""
        amps = self.amplitudes(t)
        ders = self.amplitude_derivatives(t)
        a = self.problem.speeds[0]
        return float(np.sum(ders**2 + a * a * self.basis.eigenvalues * amps**2))

    def _evaluate(self, x, t):
        return float(self.grid(np.asarray(x, dtype=float)[None, :], t)[0])

    def grid(self, points, t):
        return self.basis.evaluate_modes(points) @ self.amplitudes(t)


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
    data_coeffs = [
        np.zeros(basis.count) if e is None else project(e, basis).values
        for e in problem.data
    ]
    src = None
    if problem.source is not None:
        src_field = compile_field(problem.source)
        src_cache: dict[float, np.ndarray] = {}

        def src(tau: float) -> np.ndarray:
            if tau not in src_cache:
                src_cache[tau] = project(src_field, basis, t=tau).values
            return src_cache[tau]

    unit = gauss_legendre(spec.n_time, 0.0, 1.0)
    z, wz = unit.nodes, unit.weights
    wave = problem.kind in ("wave-multiple", "wave-distinct")

    if wave and m == 1:
        a = problem.speeds[0]

        def amplitude_fn(t):
            out = (
                data_coeffs[0] * eigen_symbol("wave-cos", lam, a, t)
                + data_coeffs[1] * eigen_symbol("wave-sin", lam, a, t)
            )
            if src is not None and t != 0.0:
                g_nodes = np.stack([src(t * zi) for zi in z])  # (Q, M)
                G = eigen_symbol("wave-sin", lam[None, :], a, (t - t * z)[:, None])
                out = out + t * (wz[:, None] * G * g_nodes).sum(axis=0)
            return out

        def derivative_fn(t):
            if src is not None:
                raise InvalidOrder(
                    "amplitude derivatives implemented for homogeneous "
                    "problems only"
                )
            omega = a * np.sqrt(lam)
            return (
                -data_coeffs[0] * omega * np.sin(omega * t)
                + data_coeffs[1] * np.cos(omega * t)
            )

        return IbvpEvaluator(problem, basis, amplitude_fn, derivative_fn)

    if wave:
        speeds = problem.speeds

        def amplitude_fn(t):
            out = np.empty(basis.count)
            g_nodes = None
            if src is not None and t != 0.0:
                g_nodes = np.stack([src(t * zi) for zi in z])  # (Q, M)
            impulse = (0.0,) * (2 * m - 1) + (1.0,)
            for i, lv in enumerate(lam):
                kvec = (math.sqrt(lv),)
                mp = ModeProblem(
                    "wave", speeds, kvec,
                    tuple(c[i] for c in data_coeffs),
                )
                val = mode_solve(mp, t)
                if g_nodes is not None:
                    gi = mode_solve(
                        ModeProblem("wave", speeds, kvec, impulse),
                        t - t * z,
                    )
                    val += float(t * np.dot(wz, gi * g_nodes[:, i]))
                out[i] = val
            return out

        return IbvpEvaluator(problem, basis, amplitude_fn)

    # heat-product
    speeds = problem.speeds
    equal = problem.equal_speeds
    if not (equal or problem.distinct_speeds):
        raise InvalidOrder(
            "speeds must be all equal or pairwise distinct, got "
            f"{problem.speeds}"
        )

    def impulse_response(s: np.ndarray) -> np.ndarray:
        """G(s) per mode, shape (len(s), M)."""
        s = np.asarray(s, dtype=float)
        if equal:
            a = speeds[0]
            base = s[:, None] ** (m - 1) / math.factorial(m - 1)
            return base * np.exp(-a * lam[None, :] * s[:, None])
        out = np.zeros((s.size, lam.size))
        for j, aj in enumerate(speeds):
            denom = np.prod([ai - aj for i, ai in enumerate(speeds) if i != j])
            out += np.exp(-aj * lam[None, :] * s[:, None]) / (
                denom * lam[None, :] ** (m - 1)
            )
        return out

    def homogeneous(t: float) -> np.ndarray:
        if equal:
            a = speeds[0]
            acc = np.zeros(basis.count)
            for kk in range(m):
                for r in range(kk + 1):
                    acc += (
                        (-1.0) ** (kk - r)
                        * math.comb(kk, r)
                        * t**kk
                        / math.factorial(kk)
                        * (-a * lam) ** (kk - r)
                        * data_coeffs[r]
                    )
            return np.exp(-a * lam * t) * acc
        # distinct speeds: fit sum_j alpha_j e^{-a_j lam t} to the data
        out = np.empty(basis.count)
        rates = -np.outer(np.asarray(speeds), lam)  # (m, M)
        for i in range(basis.count):
            A = np.vander(rates[:, i], m, increasing=True).T  # rows: T^(r)(0)
            rhs = np.array([c[i] for c in data_coeffs])
            alpha = np.linalg.solve(A, rhs)
            out[i] = float(alpha @ np.exp(rates[:, i] * t))
        return out

    def check_time(t):
        # the modes decay forward in time only; backwards they overflow
        if t < 0:
            raise NegativeDiffusionTime(f"heat time must be >= 0, got {t}")

    def amplitude_fn(t):
        check_time(t)
        out = homogeneous(t)
        if src is not None and t != 0.0:
            g_nodes = np.stack([src(t * zi) for zi in z])  # (Q, M)
            G = impulse_response(t - t * z)  # (Q, M)
            out = out + t * (wz[:, None] * G * g_nodes).sum(axis=0)
        return out

    derivative_fn = None
    if m == 1 and problem.source is None:
        a0 = problem.speeds[0]

        def derivative_fn(t):
            check_time(t)
            return -a0 * lam * np.exp(-a0 * lam * t) * data_coeffs[0]

    return IbvpEvaluator(problem, basis, amplitude_fn, derivative_fn)
