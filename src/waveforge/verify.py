"""Built-in verification suites backing ``waveforge verify``.

Each check compares a solver output against an oracle that shares no
numerical machinery with it and reports the measured error next to its
tolerance.  The suites are deliberately small and fast; the full test
suite runs the same comparisons more exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnresolvedData
from .expr import parse
from .heat_solver import solve_heat_product
from .ibvp import build_basis, solve_ibvp
from .opcalc import (
    FourierSeriesSpec,
    abel_poisson_sum,
    complex_shift_cos,
    poisson_kernel_sum,
)
from .oracle import ModeProblem, heat_closed_form, mode_solve, residual_check
from .problems import CauchyProblem
from .wave_solver import solve_wave

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{word} {self.suite}/{self.name}: "
            f"measured {self.measured:.3e} vs tolerance {self.tolerance:.1e}"
        )


def _raises_unresolved(suite: str, name: str, run) -> CheckResult:
    """A check that passes, measuring 0, when ``run()`` raises
    :class:`~waveforge.errors.UnresolvedData`, and fails, measuring 1, when
    it returns."""
    try:
        run()
    except UnresolvedData:
        return CheckResult(suite, name, 0.0, 0.0)
    return CheckResult(suite, name, 1.0, 0.0)


def _suite_modes() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20240811)
    x = np.array([0.4, -0.2, 0.7, 0.1, 0.3])
    # wave-distinct-near: speeds 1e-6 apart, merged into one cluster;
    # wave-distinct-equal: one speed twice, a double pole
    for name, kind, n, m, gap in (
            ("wave-multiple-m1", "wave-multiple", 3, 1, 0.0),
            ("wave-multiple-m2", "wave-multiple", 3, 2, 0.0),
            ("wave-multiple-m3", "wave-multiple", 3, 3, 0.0),
            ("wave-distinct-m2", "wave-distinct", 3, 2, 0.5),
            ("wave-distinct-near", "wave-distinct", 3, 2, 1e-6),
            ("wave5-multiple-m2", "wave-multiple", 5, 2, 0.0),
            ("wave-distinct-equal", "wave-distinct", 3, 2, 0.0),
            ("wave-multiple-m5", "wave-multiple", 3, 5, 0.0)):
        k = tuple(float(v) for v in rng.uniform(0.5, 1.5, size=n))
        a = float(rng.uniform(0.8, 1.6))
        speeds = (a,) * m if kind == "wave-multiple" else (a, a + gap)
        data_vals = tuple(float(v) for v in rng.uniform(-1, 1, size=2 * m))
        kx = float(np.dot(k, x[:n]))
        phase = "+".join(f"{v!r}*x{i + 1}" for i, v in enumerate(k))
        data = tuple(parse(f"{v!r}*sin({phase})", n) for v in data_vals)
        p = CauchyProblem(kind, n, m, speeds, None, data)
        ev = solve_wave(p)
        mp = ModeProblem("wave", speeds, k, data_vals)
        worst = 0.0
        for t in (0.5, 1.2):
            got = ev(x[:n], t)
            ref = mode_solve(mp, t) * math.sin(kx)
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
        out.append(CheckResult("modes", name, worst, 1e-6))
    return out


def _suite_wave() -> list[CheckResult]:
    # a sharp mode the sphere ladder resolves, and one beyond its default
    # top rung, where the degree-16 rule alone gives -2.29 for 0.186:
    # u = cos(k t) sin(k x1)
    x, out = [0.3, -0.2, 0.5], []

    def mode(k):
        return solve_wave(CauchyProblem("wave-multiple", 3, 1, (1.0,), None,
                                        (parse(f"sin({k}*x1)", 3), None)))

    err = abs(mode(5)(x, 1.0) - math.cos(5.0) * math.sin(1.5))
    out.append(CheckResult("wave", "sphere-mode-resolved", err, 1e-12))
    out.append(_raises_unresolved("wave", "sphere-unresolved-raises",
                                  lambda: mode(20)(x, 2.0)))
    return out


def _suite_residual() -> list[CheckResult]:
    p = CauchyProblem(
        "wave-multiple", 3, 1, (1.0,), None,
        (parse("sin(x1)*sin(x2)", 3), None),
    )
    ev = solve_wave(p)
    rep = residual_check(ev, p, [0.4, -0.3, 0.7], 0.9, h0=0.16, levels=3)
    dev = abs(rep.order - 4.0)
    return [CheckResult("residual", "wave-m1-order", dev, 0.5)]


def _suite_heat() -> list[CheckResult]:
    out = []
    # Gaussian initial data against the closed-form evolution
    g = parse("exp(-(x1^2+x2^2)/4)", 2)
    p = CauchyProblem("heat-product", 2, 1, (1.0,), None, (g,))
    ev = solve_heat_product(p)
    x = [0.3, -0.2]
    err = abs(ev(x, 0.8) - heat_closed_form(1.0, 0.8, x))
    out.append(CheckResult("heat", "gaussian-closed-form", err, 1e-8))
    # manufactured two-factor solution (1 + t) e^{-t} sin(x1)
    p = CauchyProblem(
        "heat-product", 1, 2, (1.0, 1.0), None,
        (parse("sin(x1)", 1), None),
    )
    ev = solve_heat_product(p)
    t = 0.9
    err = abs(ev([0.6], t) - (1 + t) * math.exp(-t) * math.sin(0.6))
    out.append(CheckResult("heat", "two-factor-manufactured", err, 1e-6))
    # a mixed speed cluster with a source against the mode integrator
    p = CauchyProblem(
        "heat-product", 1, 3, (1.0, 1.0, 2.0), parse("sin(x1)*cos(t)", 1),
        (parse("sin(x1)", 1), None, parse("0.5*sin(x1)", 1)),
    )
    ev = solve_heat_product(p)
    mp = ModeProblem(
        "heat", (1.0, 1.0, 2.0), (1.0,), (1.0, 0.0, 0.5),
        source=parse("cos(t)", 0),
    )
    err = max(
        abs(ev([0.7], t) - mode_solve(mp, t) * math.sin(0.7)) for t in (0.4, 1.1)
    )
    out.append(CheckResult("heat", "mixed-cluster-modes", err, 1e-9))
    # a sharp mode the Gauss-Hermite ladder resolves, and one beyond it
    p = CauchyProblem("heat-product", 1, 1, (1.0,), None,
                      (parse("sin(5.5*x1)", 1),))
    err = abs(solve_heat_product(p)([0.3], 1.0)
              - math.exp(-30.25) * math.sin(5.5 * 0.3))
    out.append(CheckResult("heat", "sharp-mode-resolved", err, 1e-12))
    p = CauchyProblem("heat-product", 1, 1, (1.0,), None,
                      (parse("sin(8*x1)", 1),))
    out.append(_raises_unresolved("heat", "unresolved-raises",
                                  lambda: solve_heat_product(p)([0.3], 1.0)))
    # a fast source the time-rule ladder resolves, and one beyond it:
    # u(1, x) = sin(x1) Re[(e^{i nu} - e^{-1/2}) / (1/2 + i nu)]
    def forced(nu):
        return solve_heat_product(CauchyProblem(
            "heat-product", 1, 1, (0.5,), parse(f"cos({nu}*t)*sin(x1)", 1),
            (None,)))

    exact = math.sin(0.7) * ((complex(math.cos(120), math.sin(120))
                              - math.exp(-0.5)) / complex(0.5, 120)).real
    err = abs(forced(120)([0.7], 1.0) - exact)
    out.append(CheckResult("heat", "time-rule-resolved", err, 1e-12))
    out.append(_raises_unresolved("heat", "time-rule-unresolved-raises",
                                  lambda: forced(300)([0.7], 1.0)))
    return out


def _suite_ibvp() -> list[CheckResult]:
    out = []
    basis = build_basis([math.pi], 16)
    p = CauchyProblem(
        "wave-multiple", 1, 1, (1.0,), None, (parse("sin(x1)", 1), None)
    )
    ev = solve_ibvp(p, basis)
    err = abs(ev([0.7], 1.3) - math.sin(0.7) * math.cos(1.3))
    out.append(CheckResult("ibvp", "single-mode-wave", err, 1e-10))
    trace = max(abs(ev([0.0], 1.3)), abs(ev([math.pi], 1.3)))
    out.append(CheckResult("ibvp", "boundary-trace", trace, 1e-12))
    e0 = ev.energy(0.0)
    drift = max(abs(ev.energy(t) - e0) for t in (1.0, 2.0, 3.0))
    out.append(CheckResult("ibvp", "energy-drift", drift, 1e-8))
    # two-factor resonant forcing of the first mode against the integrator
    p = CauchyProblem(
        "wave-multiple", 1, 2, (1.0, 1.0), parse("sin(x1)*sin(t)", 1),
        (parse("0.5*sin(x1)", 1), None, None, parse("sin(x1)", 1)),
    )
    ev = solve_ibvp(p, build_basis([math.pi], 8))
    mp = ModeProblem(
        "wave", (1.0, 1.0), (1.0,), (0.5, 0.0, 0.0, 1.0),
        source=parse("sin(t)", 0),
    )
    err = max(
        abs(ev([0.7], t) - mode_solve(mp, t) * math.sin(0.7)) for t in (0.9, 2.1)
    )
    out.append(CheckResult("ibvp", "wave-m2-source-modes", err, 1e-9))
    # two distinct heat speeds forcing the (1, 2) mode of a square, whose
    # source is projected on the open mesh at every Duhamel node
    mode = "sin(x1)*sin(2*x2)"
    p = CauchyProblem(
        "heat-product", 2, 2, (0.6, 1.1), parse(f"cos(0.7*t)*{mode}", 2),
        (parse(f"0.5*{mode}", 2), parse(f"-0.3*{mode}", 2)),
    )
    ev = solve_ibvp(p, build_basis([math.pi, math.pi], 4))
    mp = ModeProblem(
        "heat", (0.6, 1.1), (1.0, 2.0), (0.5, -0.3), source=parse("cos(0.7*t)", 0)
    )
    x = [0.7, 1.1]
    err = max(
        abs(ev(x, t) - mode_solve(mp, t) * math.sin(0.7) * math.sin(2.2))
        for t in (0.4, 1.1)
    )
    out.append(CheckResult("ibvp", "heat2-m2-source-modes", err, 1e-9))
    # equal and near-equal heat speeds: the mode kernel's closed form at root gaps 0 and small
    err = 0.0
    for speeds in ((1.0, 1.0), (1.0, 1.0 + 1e-12), (1.0, 1.0 + 1e-6)):
        ev = solve_ibvp(CauchyProblem(
            "heat-product", 1, 2, speeds, parse("cos(0.7*t)*sin(x1)", 1),
            (parse("0.5*sin(x1)", 1), parse("-0.3*sin(x1)", 1))), build_basis([math.pi], 8))
        mp = ModeProblem("heat", speeds, (1.0,), (0.5, -0.3), source=parse("cos(0.7*t)", 0))
        err = max(err, *(abs(ev([0.7], t) - mode_solve(mp, t) * math.sin(0.7))
                         for t in (0.4, 1.1)))
    out.append(CheckResult("ibvp", "heat2-near-equal-modes", err, 1e-9))
    return out


def _suite_opcalc() -> list[CheckResult]:
    out = []
    b, h, x = 1.7, 0.6, 0.4
    f = parse(f"tan({b!r}*x1)", 1)
    exact = math.sin(2 * b * x) / (math.cosh(2 * b * h) + math.cos(2 * b * x))
    err = abs(complex_shift_cos(f, [h], [x]) - exact)
    out.append(CheckResult("opcalc", "tan-shift-closed-form", err, 1e-12))
    sq = FourierSeriesSpec(1.0, s_plus=parse("4/pi*atan(x1)", 1))
    err = max(
        abs(abel_poisson_sum(sq, 0.0, -1e-3) - 1.0),
        abs(abel_poisson_sum(sq, 1.0, -1e-3) + 1.0),
    )
    out.append(CheckResult("opcalc", "square-wave-values", err, 0.01))
    xs = np.linspace(-1.0, 1.0, 4001)
    samples = np.sign(np.cos(math.pi * xs))
    samples[np.isclose(np.abs(xs), 0.5)] = 0.0  # midpoint value at the jumps
    err = max(
        abs(
            poisson_kernel_sum(samples, 1.0, xq, -0.05)
            - abel_poisson_sum(sq, xq, -0.05)
        )
        for xq in (0.1, 0.3, 0.8)
    )
    out.append(CheckResult("opcalc", "kernel-cross-check", err, 1e-6))
    return out


SUITES = {
    "modes": _suite_modes,
    "wave": _suite_wave,
    "residual": _suite_residual,
    "heat": _suite_heat,
    "ibvp": _suite_ibvp,
    "opcalc": _suite_opcalc,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite, or every suite for name 'all'."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key]())
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
