"""The mode integrator and finite-difference residual checker themselves."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import waveforge
from waveforge.errors import InvalidOrder
from waveforge.expr import parse
from waveforge.oracle import (
    ModeProblem,
    heat_closed_form,
    mode_solve,
    residual_check,
)
from waveforge.problems import CauchyProblem


class TestModeSolve:
    def test_harmonic_oscillator(self):
        mp = ModeProblem("wave", (1.0,), (1.0,), (1.0, 0.0))
        for t in (0.0, 0.5, 2.0):
            assert mode_solve(mp, t) == pytest.approx(math.cos(t), abs=1e-10)

    def test_velocity_branch(self):
        mp = ModeProblem("wave", (2.0,), (1.5,), (0.0, 1.0))
        s = 2.0 * 1.5
        t = 0.8
        assert mode_solve(mp, t) == pytest.approx(math.sin(s * t) / s, abs=1e-10)

    def test_heat_decay(self):
        mp = ModeProblem("heat", (1.0,), (1.0,), (1.0,))
        assert mode_solve(mp, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_resonant_fourth_order(self):
        # (d^2/dt^2 + 1)^2 has basis {cos, sin, t cos, t sin}; data
        # (0, 1, 0, -3) select T = t cos t
        mp = ModeProblem("wave", (1.0, 1.0), (1.0,), (0.0, 1.0, 0.0, -3.0))
        for t in (0.4, 1.3):
            assert mode_solve(mp, t) == pytest.approx(
                t * math.cos(t), abs=1e-9
            )

    def test_forced_oscillator(self):
        # T'' + T = sin t from rest gives (sin t - t cos t)/2
        mp = ModeProblem(
            "wave", (1.0,), (1.0,), (0.0, 0.0), source=parse("sin(t)", 0)
        )
        t = 1.1
        exact = (math.sin(t) - t * math.cos(t)) / 2
        assert mode_solve(mp, t) == pytest.approx(exact, abs=1e-10)

    def test_callable_source(self):
        mp = ModeProblem(
            "heat", (1.0,), (1.0,), (0.0,), source=lambda t: math.exp(-t)
        )
        # T' + T = e^{-t} from 0 gives t e^{-t}
        t = 0.7
        assert mode_solve(mp, t) == pytest.approx(t * math.exp(-t), abs=1e-10)

    def test_array_times(self):
        mp = ModeProblem("wave", (1.0,), (1.0,), (1.0, 0.0))
        ts = np.array([0.0, 0.3, 0.9, 1.5])
        out = mode_solve(mp, ts)
        assert out.shape == ts.shape
        assert np.allclose(out, np.cos(ts), atol=1e-9)

    def test_zero_time_shortcut(self):
        mp = ModeProblem("heat", (1.0,), (2.0,), (0.7,))
        assert mode_solve(mp, 0.0) == 0.7

    def test_negative_time_rejected(self):
        mp = ModeProblem("heat", (1.0,), (1.0,), (1.0,))
        with pytest.raises(InvalidOrder):
            mode_solve(mp, -0.5)

    def test_phase_shift_field(self):
        # delta only shifts the spatial factor; the amplitude ODE is the
        # same, so results agree with the unshifted problem
        a = ModeProblem("wave", (1.0,), (1.0,), (1.0, 0.0), delta=0.4)
        b = ModeProblem("wave", (1.0,), (1.0,), (1.0, 0.0))
        assert mode_solve(a, 0.8) == mode_solve(b, 0.8)

    def test_validation(self):
        with pytest.raises(InvalidOrder):
            ModeProblem("elastic", (1.0,), (1.0,), (1.0, 0.0))
        with pytest.raises(InvalidOrder):
            ModeProblem("wave", (1.0,), (1.0,), (1.0,))
        with pytest.raises(InvalidOrder):
            ModeProblem("wave", (1.0,), (0.0,), (1.0, 0.0))


class TestResidualCheck:
    def test_exact_wave_solution_fourth_order(self):
        # sin(x1) sin(x2) cos(sqrt(2) t) solves the 2-factor equal-speed
        # equation; the composed stencil should converge at order 4
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), None, (None, None)
        )
        root2 = math.sqrt(2.0)

        def u(x, t):
            return math.sin(x[0]) * math.sin(x[1]) * math.cos(root2 * t)

        rep = residual_check(u, p, [0.4, 0.7, -0.2], 0.9)
        assert abs(rep.order - 4.0) < 0.5

    def test_heat_solution_fourth_order(self):
        p = CauchyProblem("heat-product", 2, 1, (1.0,), None, (None,))

        def u(x, t):
            return math.exp(-2.0 * t) * math.sin(x[0]) * math.sin(x[1])

        rep = residual_check(u, p, [0.4, 0.7], 0.6)
        assert abs(rep.order - 4.0) < 0.5

    def test_wrong_solution_flagged(self):
        p = CauchyProblem("wave-multiple", 3, 1, (1.0,), None, (None, None))

        def u(x, t):
            return math.sin(x[0]) * math.cos(2.0 * t)  # wrong frequency

        # residual is (4 - 1) sin(x1) cos(2t), order 1e-1 at this point
        rep = residual_check(u, p, [0.4, -0.2, 0.7], 0.9)
        assert rep.max_residual > 0.1

    def test_zero_solution_zero_residual(self):
        p = CauchyProblem("wave-multiple", 3, 1, (1.0,), None, (None, None))
        rep = residual_check(lambda x, t: 0.0, p, [0.1, 0.2, 0.3], 0.5)
        assert rep.max_residual == 0.0

    def test_source_subtracted(self):
        # u = sin(x1) t sin(t)/2 solves u_tt - Lap u = sin(x1) cos(t)
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), parse("sin(x1)*cos(t)", 3),
            (None, None),
        )

        def u(x, t):
            return math.sin(x[0]) * t * math.sin(t) / 2

        rep = residual_check(u, p, [0.4, -0.2, 0.7], 0.9)
        assert rep.max_residual < 1e-4
        assert abs(rep.order - 4.0) < 0.6

    def test_report_shape(self):
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None, (None,))
        rep = residual_check(
            lambda x, t: math.exp(-t) * math.sin(x[0]), p, [0.5], 0.4,
            levels=4,
        )
        assert len(rep.steps) == 4
        assert len(rep.residuals) == 4
        assert len(rep.orders) == 3
        assert rep.steps[0] / rep.steps[1] == pytest.approx(2.0)

    def test_level_validation(self):
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None, (None,))
        with pytest.raises(InvalidOrder):
            residual_check(lambda x, t: 0.0, p, [0.5], 0.4, levels=2)


class TestHeatClosedForm:
    def test_initial_value(self):
        x = [0.3, -0.4]
        assert heat_closed_form(1.0, 0.0, x) == pytest.approx(
            math.exp(-(0.09 + 0.16) / 4)
        )

    def test_mass_spreads(self):
        assert heat_closed_form(1.0, 3.0, [0.0]) == pytest.approx(0.5)

    def test_width_validation(self):
        with pytest.raises(InvalidOrder):
            heat_closed_form(0.0, 1.0, [0.0])


class TestIndependence:
    def test_solvers_do_not_import_oracle(self):
        # the oracle checks the solvers only while they share none of it;
        # only verify runs it (the CLI imports verify for that command alone)
        allowed = {"oracle", "verify"}
        importers = set()
        for path in Path(waveforge.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                    names += [f"{node.module or ''}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(n.split(".")[-1] == "oracle" for n in names):
                    importers.add(path.stem)
        assert importers <= allowed, sorted(importers - allowed)
        assert "verify" in importers
