"""Seeded `waveforge solve` workloads and their independent references.

Every config solves a problem whose exact solution is one spatial mode
times a time amplitude: a plane wave sin(k.x + delta) on the whole space,
or a product of sines on a Dirichlet box.  The seed draws wave vectors,
amplitudes, speeds, source parameters, box sides and grid offsets; it
never changes a config's structure, quadrature sizes or point counts, so
the cost of a workload does not depend on the seed.

References are computed here, outside any timed region:

* whole-space configs use ``waveforge.oracle.mode_solve`` on the mode ODE;
* box configs use the closed-form amplitude of the mode ODE, a sum of
  exponentials fitted to the initial values plus the particular solution
  for the cos(nu t) source.  The box wave-distinct solver itself calls
  ``mode_solve``, so that reference must not.

Tolerances are the acceptance gate's for the family (tests/
test_acceptance.py): whole-space wave-multiple n=3 relative 1e-6 with a
1e-3 floor (criterion 01), wave-distinct absolute 1e-6 (criterion 02),
n=5 absolute 1e-5 (criterion 03), heat absolute 1e-6 (criterion 06b),
box absolute 1e-10 (criterion 07a).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("cauchy-high-order", "box-modes", "dense-grid")

# size "full" is the benchmark; "min" is the self-test's smallest run with
# the same configs and code paths
SIZES = ("full", "min")

TOL_WAVE_REL = 1e-6  # criterion 01, relative with floor
REL_FLOOR = 1e-3
TOL_WAVE_DISTINCT = 1e-6  # criterion 02
TOL_WAVE5 = 1e-5  # criterion 03
TOL_HEAT = 1e-6  # criterion 06b
TOL_BOX = 1e-10  # criterion 07a

SPEED_GAP = 0.3


@dataclass
class Config:
    """One INI file plus what is needed to check the CSV it produces."""

    name: str
    n: int
    sections: dict  # section -> {key: value}
    axes: list  # [(lo, hi, count)] for x1..xn, then t
    reference: Callable  # (X (P, n), t (P,)) -> (P,)
    tol: float
    rel_floor: Optional[float] = None  # None: absolute error
    output: str = ""

    def ini_text(self) -> str:
        lines = []
        for sec, kv in self.sections.items():
            lines.append(f"[{sec}]")
            lines += [f"{k} = {v}" for k, v in kv.items()]
            lines.append("")
        return "\n".join(lines)

    def rows(self) -> np.ndarray:
        """Grid rows in the CLI's order: itertools.product(x1..xn, t)."""
        pts = [np.array([lo]) if c == 1 else np.linspace(lo, hi, c)
               for lo, hi, c in self.axes]
        mesh = np.meshgrid(*pts, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)


def _r(v: float) -> float:
    return round(float(v), 6)


def _num(v: float) -> str:
    return repr(float(v))


def _linear(coeffs, offset: float) -> str:
    """Text of sum_i c_i x_i + offset."""
    terms = [f"{_num(c)}*x{i + 1}" for i, c in enumerate(coeffs)]
    return " + ".join(terms + [_num(offset)])


def _distinct_speeds(rng, m: int, lo: float, hi: float):
    while True:
        a = np.sort(rng.uniform(lo, hi, size=m))
        if m < 2 or np.min(np.diff(a)) >= SPEED_GAP:
            return tuple(_r(v) for v in a)


def _wave_vector(rng, n: int, lo: float, hi: float):
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    return tuple(_r(v) for v in d * rng.uniform(lo, hi))


def _amplitudes(rng, count: int):
    return tuple(_r(s * v) for s, v in zip(
        rng.choice([-1.0, 1.0], size=count), rng.uniform(0.3, 1.0, size=count)))


def _axes(rng, n: int, counts, span: float, times):
    axes = []
    for i in range(n):
        lo = _r(rng.uniform(-0.5, 0.5))
        axes.append((lo, _r(lo + span), counts[i]))
    axes.append(times)
    return axes


def _domain(axes, box=None, k_max=None) -> dict:
    dom = {}
    for i, (lo, hi, c) in enumerate(axes[:-1]):
        dom[f"x{i + 1}"] = f"{_num(lo)}:{_num(hi)}:{c}"
    lo, hi, c = axes[-1]
    dom["t"] = f"{_num(lo)}:{_num(hi)}:{c}"
    if box is not None:
        dom["box"] = ",".join(_num(v) for v in box)
        dom["k_max"] = str(k_max)
    return dom


# ---------------------------------------------------------------------------
# whole-space plane waves, referenced by the mode integrator


def _plane_wave(rng, name, kind, n, m, speeds, counts, span, times, *,
                source, tol, rel_floor=None, quadrature=None):
    from waveforge.oracle import ModeProblem, mode_solve

    k = _wave_vector(rng, n, 0.6, 1.2)
    delta = _r(rng.uniform(0.0, math.pi))
    n_data = m if kind == "heat-product" else 2 * m
    data = _amplitudes(rng, n_data)
    phase = _linear(k, delta)
    sections = {"problem": {"kind": kind, "n": n, "m": m,
                            "speeds": ",".join(_num(a) for a in speeds)},
                "data": {}}
    g = None
    if source:
        s, nu = _r(rng.uniform(0.2, 0.6)), _r(rng.uniform(0.3, 1.5))
        sections["data"]["f"] = f"{_num(s)}*cos({_num(nu)}*t)*sin({phase})"
        g = lambda t, s=s, nu=nu: s * math.cos(nu * t)
    for r, c in enumerate(data):
        sections["data"][f"phi{r}"] = f"{_num(c)}*sin({phase})"
    axes = _axes(rng, n, counts, span, times)
    sections["domain"] = _domain(axes)
    if quadrature:
        sections["quadrature"] = dict(quadrature)
    mode_kind = "heat" if kind == "heat-product" else "wave"
    mp = ModeProblem(mode_kind, tuple(speeds), k, data, source=g, delta=delta)
    kvec = np.asarray(k)

    def reference(X, t):
        ts, inv = np.unique(t, return_inverse=True)
        amp = np.atleast_1d(mode_solve(mp, ts))
        return amp[inv] * np.sin(X @ kvec + delta)

    return Config(name, n, sections, axes, reference, tol, rel_floor)


# ---------------------------------------------------------------------------
# box sine modes, referenced by the closed-form mode amplitude


def ode_amplitude(roots, data, t, source=None):
    """Exact solution of prod_j (D - r_j) T = Re(s e^{beta t}).

    ``roots`` are the distinct roots r_j of the characteristic polynomial,
    ``data`` the initial values T(0), T'(0), ...; ``source`` is
    ``(s, beta)`` or None.  The homogeneous part sum_j alpha_j e^{r_j t} is
    fitted to the initial values left after the particular solution
    Re(s e^{beta t} / P(beta)).
    """
    roots = np.asarray(roots, dtype=complex)
    t = np.asarray(t, dtype=float)
    rhs = np.asarray(data, dtype=complex)
    particular = np.zeros_like(t)
    if source is not None:
        s, beta = source
        amp = s / np.prod(beta - roots)
        rhs = rhs - np.real(amp * beta ** np.arange(roots.size))
        particular = np.real(amp * np.exp(beta * t))
    V = roots[None, :] ** np.arange(roots.size)[:, None]
    alpha = np.linalg.solve(V, rhs)
    return np.real(np.exp(np.outer(t, roots)) @ alpha) + particular


def _box_mode(rng, name, kind, n, m, speeds, k_max, counts, times, *,
              source, n_modes_max, quadrature=None):
    # narrow side range: the wave-distinct box integrates every mode with an
    # adaptive ODE solver whose step count grows with the mode frequencies
    L = tuple(_r(math.pi * rng.uniform(0.95, 1.05)) for _ in range(n))
    p = tuple(int(v) for v in rng.integers(1, n_modes_max + 1, size=n))
    freqs = np.array([pi * math.pi / Li for pi, Li in zip(p, L)])
    lam = float(freqs @ freqs)
    mode = "*".join(f"sin({_num(f)}*x{i + 1})" for i, f in enumerate(freqs))
    n_data = m if kind == "heat-product" else 2 * m
    data = _amplitudes(rng, n_data)
    sections = {"problem": {"kind": kind, "n": n, "m": m,
                            "speeds": ",".join(_num(a) for a in speeds)},
                "data": {}}
    if kind == "heat-product":
        roots = [-a * lam for a in speeds]
    else:
        omegas = [a * math.sqrt(lam) for a in speeds]
        roots = [z for w in omegas for z in (1j * w, -1j * w)]
    src = None
    if source:
        s = _r(rng.uniform(0.2, 0.6))
        # keep the forcing frequency away from every mode frequency
        while True:
            nu = _r(rng.uniform(0.3, 3.0))
            if all(abs(abs(z) - nu) >= SPEED_GAP for z in roots):
                break
        sections["data"]["f"] = f"{_num(s)}*cos({_num(nu)}*t)*{mode}"
        src = (s, 1j * nu)
    for r, c in enumerate(data):
        sections["data"][f"phi{r}"] = f"{_num(c)}*{mode}"
    axes = []
    for i in range(n):
        lo = _r(L[i] * rng.uniform(0.05, 0.2))
        hi = _r(L[i] * rng.uniform(0.8, 0.95))
        axes.append((lo, hi, counts[i]))
    axes.append(times)
    sections["domain"] = _domain(axes, box=L, k_max=k_max)
    if quadrature:
        sections["quadrature"] = dict(quadrature)

    def reference(X, t):
        ts, inv = np.unique(t, return_inverse=True)
        amp = ode_amplitude(roots, data, ts, src)
        return amp[inv] * np.prod(np.sin(X * freqs), axis=1)

    return Config(name, n, sections, axes, reference, TOL_BOX)


# ---------------------------------------------------------------------------
# the three workloads


def build(workload: str, seed: int, size: str = "full") -> list[Config]:
    """Configs of one workload, in the order they are solved."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    full = size == "full"
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    one = (1, 1, 1)
    if workload == "cauchy-high-order":
        t1 = (1.0, 1.0, 1)
        configs = [
            _plane_wave(rng, "wave3-m2-source", "wave-multiple", 3, 2,
                        (_r(rng.uniform(0.6, 1.4)),) * 2,
                        (2, 1, 1) if full else one, 0.4,
                        (0.6, 1.0, 2) if full else t1,
                        source=True, tol=TOL_WAVE_REL, rel_floor=REL_FLOOR),
            _plane_wave(rng, "wave3-m3", "wave-multiple", 3, 3,
                        (_r(rng.uniform(0.6, 1.4)),) * 3,
                        (3, 1, 1) if full else one, 0.4, t1,
                        source=False, tol=TOL_WAVE_REL, rel_floor=REL_FLOOR),
            _plane_wave(rng, "wave3-distinct-m2-source", "wave-distinct", 3, 2,
                        _distinct_speeds(rng, 2, 0.5, 1.5),
                        (3, 1, 1) if full else one, 0.4, t1,
                        source=True, tol=TOL_WAVE_DISTINCT),
            _plane_wave(rng, "wave5-m1", "wave-multiple", 5, 1,
                        (_r(rng.uniform(0.5, 1.0)),),
                        (2, 1, 1, 1, 1) if full else (1,) * 5, 0.4, (0.8, 0.8, 1),
                        source=False, tol=TOL_WAVE5,
                        quadrature={"sphere_degree": 8, "n_radial": 16}),
            _plane_wave(rng, "heat2-m3-distinct-source", "heat-product", 2, 3,
                        _distinct_speeds(rng, 3, 0.3, 1.5),
                        (2, 1) if full else (1, 1), 0.4, t1,
                        source=True, tol=TOL_HEAT),
            _plane_wave(rng, "heat3-m2-equal-source", "heat-product", 3, 2,
                        (_r(rng.uniform(0.3, 1.0)),) * 2,
                        (2, 1, 1) if full else one, 0.4, t1,
                        source=True, tol=TOL_HEAT),
        ]
    elif workload == "box-modes":
        configs = [
            _box_mode(rng, "box3-wave-m1-source", "wave-multiple", 3, 1,
                      (_r(rng.uniform(0.6, 1.4)),), 8 if full else 4,
                      (5, 5, 5) if full else one,
                      (0.0, 1.0, 2) if full else (1.0, 1.0, 1),
                      source=True, n_modes_max=3, quadrature={"n_time": 16}),
            _box_mode(rng, "box2-wave-distinct-m2", "wave-distinct", 2, 2,
                      (_r(rng.uniform(0.6, 0.7)), _r(rng.uniform(1.2, 1.3))),
                      16 if full else 4,
                      (4, 4) if full else (1, 1),
                      (0.5, 1.5, 2) if full else (1.0, 1.0, 1),
                      source=False, n_modes_max=3),
            _box_mode(rng, "box2-heat-m2-distinct-source", "heat-product", 2, 2,
                      _distinct_speeds(rng, 2, 0.3, 1.5), 24 if full else 4,
                      (5, 5) if full else (1, 1),
                      (0.2, 0.8, 2) if full else (0.5, 0.5, 1),
                      source=True, n_modes_max=4),
        ]
    else:
        configs = [
            _plane_wave(rng, "wave3-m1-grid", "wave-multiple", 3, 1,
                        (_r(rng.uniform(0.6, 1.4)),),
                        (40, 40, 1) if full else (2, 2, 1), 1.5,
                        (0.5, 1.0, 2), source=False,
                        tol=TOL_WAVE_REL, rel_floor=REL_FLOOR),
            _box_mode(rng, "box2-heat-m1-grid", "heat-product", 2, 1,
                      (_r(rng.uniform(0.3, 1.0)),), 24 if full else 4,
                      (100, 100) if full else (2, 2), (0.1, 0.5, 2),
                      source=False, n_modes_max=4),
        ]
    return configs


def check_csv(cfg: Config, path: str, expected: np.ndarray) -> tuple[bool, float, str]:
    """Compare a solve's CSV with the grid and the reference values.

    ``expected`` holds the reference at ``cfg.rows()``.  Returns (passed,
    worst error in the config's own measure, reason when failed).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty CSV fails below
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return False, math.inf, f"unreadable CSV: {exc}"
    rows = cfg.rows()
    if table.shape != (rows.shape[0], cfg.n + 2):
        return False, math.inf, f"CSV shape {table.shape}, expected {(rows.shape[0], cfg.n + 2)}"
    if not np.array_equal(table[:, :-1], rows):
        return False, math.inf, "grid columns differ from the config's grid"
    err = np.abs(table[:, -1] - expected)
    if cfg.rel_floor is not None:
        err = err / np.maximum(np.abs(expected), cfg.rel_floor)
    worst = float(np.max(err)) if np.all(np.isfinite(err)) else math.inf
    if not worst <= cfg.tol:
        return False, worst, f"error {worst:.3e} exceeds {cfg.tol:.0e}"
    return True, worst, ""
