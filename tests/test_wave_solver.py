"""Whole-space wave solvers against manufactured solutions and the mode
oracle."""

import math

import numpy as np
import pytest

from waveforge.errors import (
    DataCountMismatch,
    DegenerateSpeeds,
    InvalidOrder,
    NonPositiveSpeed,
    UnsupportedDimension,
)
from waveforge.expr import parse
from waveforge.oracle import ModeProblem, mode_solve
from waveforge.problems import CauchyProblem, SolutionEvaluator
from waveforge.quadrature import QuadratureSpec
from waveforge.wave_solver import solve_distinct_speeds, solve_multiple_wave, solve_wave

X3 = np.array([0.4, -0.2, 0.7])


class TestValidation:
    def test_data_count(self):
        with pytest.raises(DataCountMismatch):
            CauchyProblem("wave-multiple", 3, 1, (1.0,), None, (None,))

    def test_speed_count(self):
        with pytest.raises(DataCountMismatch):
            CauchyProblem("wave-multiple", 3, 2, (1.0,), None, (None,) * 4)

    def test_positive_speeds(self):
        with pytest.raises(NonPositiveSpeed):
            CauchyProblem("wave-multiple", 3, 1, (-1.0,), None, (None, None))

    def test_distinct_speeds_required(self):
        with pytest.raises(DegenerateSpeeds):
            CauchyProblem("wave-distinct", 3, 2, (1.0, 1.0), None, (None,) * 4)
        # wave-multiple repeats one speed; unequal ones are not silently dropped
        with pytest.raises(InvalidOrder, match=r"\(1\.0, 2\.0\)"):
            CauchyProblem("wave-multiple", 3, 2, (1.0, 2.0), None, (None,) * 4)

    def test_even_dimension_rejected_at_solve(self):
        p = CauchyProblem("wave-multiple", 2, 1, (1.0,), None, (None, None))
        with pytest.raises(UnsupportedDimension):
            solve_multiple_wave(p)

    def test_data_dimension_must_match(self):
        with pytest.raises(DataCountMismatch):
            CauchyProblem(
                "wave-multiple", 3, 1, (1.0,), None,
                (parse("x1", 2), None),
            )


class TestSingleFactor:
    def test_velocity_mode(self):
        # phi1 = sin(x1) propagates as sin(x1) sin(a t)/a
        a = 1.3
        p = CauchyProblem(
            "wave-multiple", 3, 1, (a,), None, (None, parse("sin(x1)", 3))
        )
        ev = solve_wave(p)
        for t in (0.0, 0.5, 1.2):
            exact = math.sin(X3[0]) * math.sin(a * t) / a
            assert ev(X3, t) == pytest.approx(exact, abs=1e-12)

    def test_position_mode(self):
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), None, (parse("sin(x1)", 3), None)
        )
        ev = solve_wave(p)
        assert ev(X3, 1.1) == pytest.approx(
            math.sin(X3[0]) * math.cos(1.1), abs=1e-11
        )

    def test_constant_velocity_grows_linearly(self):
        # phi1 = 1 gives u = t
        p = CauchyProblem(
            "wave-multiple", 3, 1, (2.0,), None, (None, parse("1", 3))
        )
        ev = solve_wave(p)
        assert ev(X3, 0.9) == pytest.approx(0.9, abs=1e-14)

    def test_source_only(self):
        # f = sin(x1) cos(t) drives u = sin(x1) t sin(t)/2
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), parse("sin(x1)*cos(t)", 3),
            (None, None),
        )
        ev = solve_wave(p)
        for t in (0.5, 1.2):
            exact = math.sin(X3[0]) * t * math.sin(t) / 2
            assert ev(X3, t) == pytest.approx(exact, abs=1e-12)

    def test_n5_position_mode(self):
        p = CauchyProblem(
            "wave-multiple", 5, 1, (1.0,), None,
            (parse("sin(x1)", 5), None),
        )
        spec = QuadratureSpec(sphere_degree=8, n_radial=24)
        ev = solve_wave(p, spec)
        x = np.array([0.4, -0.2, 0.7, 0.1, 0.0])
        assert ev(x, 0.8) == pytest.approx(
            math.sin(0.4) * math.cos(0.8), abs=1e-9
        )


class TestMultipleFactor:
    def test_resonant_manufactured(self):
        # u = sin(x1) t cos t solves the two-fold equal-speed problem
        p = CauchyProblem(
            "wave-multiple", 3, 2, (1.0, 1.0), None,
            (None, parse("sin(x1)", 3), None, parse("-3*sin(x1)", 3)),
        )
        ev = solve_wave(p)
        for t in (0.0, 0.5, 1.0):
            exact = math.sin(X3[0]) * t * math.cos(t)
            assert ev(X3, t) == pytest.approx(exact, abs=1e-10)

    def test_against_mode_oracle(self):
        k = (0.9, 0.5, 1.1)
        a = 1.2
        lam_data = (0.3, -0.8, 0.5, 1.0)
        kx = "0.9*x1 + 0.5*x2 + 1.1*x3"
        data = tuple(parse(f"{v}*sin({kx})", 3) for v in lam_data)
        p = CauchyProblem("wave-multiple", 3, 2, (a, a), None, data)
        ev = solve_wave(p)
        mp = ModeProblem("wave", (a, a), k, lam_data)
        phase = math.sin(float(np.dot(k, X3)))
        for t in (0.6, 1.4):
            assert ev(X3, t) == pytest.approx(
                mode_solve(mp, t) * phase, abs=1e-8
            )

    def test_source_against_mode_oracle(self):
        p = CauchyProblem(
            "wave-multiple", 3, 2, (1.0, 1.0), parse("sin(x1)*sin(t)", 3),
            (None,) * 4,
        )
        ev = solve_wave(p)
        mp = ModeProblem(
            "wave", (1.0, 1.0), (1.0,), (0.0,) * 4, source=parse("sin(t)", 0)
        )
        t = 0.9
        assert ev(X3, t) == pytest.approx(
            mode_solve(mp, t) * math.sin(X3[0]), abs=1e-10
        )


class TestDistinctSpeeds:
    def test_manufactured_beat(self):
        # u = sin(x1)(cos t - cos 2t) for speeds (1, 2)
        p = CauchyProblem(
            "wave-distinct", 3, 2, (1.0, 2.0), None,
            (None, None, parse("3*sin(x1)", 3), None),
        )
        ev = solve_wave(p)
        for x1 in (0.2, 0.6, 1.0):
            for t in (0.25, 0.7, 1.0):
                x = np.array([x1, -0.2, 0.7])
                exact = math.sin(x1) * (math.cos(t) - math.cos(2 * t))
                assert ev(x, t) == pytest.approx(exact, abs=1e-10)

    def test_against_mode_oracle_three_speeds(self):
        k = (1.0, 0.0, 0.7)
        speeds = (0.8, 1.3, 2.1)
        vals = (1.0, 0.0, -0.5, 0.2, 0.0, 0.3)
        kx = "x1 + 0.7*x3"
        data = tuple(parse(f"{v}*sin({kx})", 3) for v in vals)
        p = CauchyProblem("wave-distinct", 3, 3, speeds, None, data)
        ev = solve_wave(p)
        mp = ModeProblem("wave", speeds, k, vals)
        phase = math.sin(float(np.dot(k, X3)))
        t = 0.8
        assert ev(X3, t) == pytest.approx(mode_solve(mp, t) * phase, abs=1e-7)

    def test_single_factor_delegates(self):
        p = CauchyProblem(
            "wave-distinct", 3, 1, (1.3,), None,
            (None, parse("sin(x1)", 3)),
        )
        ev = solve_distinct_speeds(p)
        exact = math.sin(X3[0]) * math.sin(1.3 * 0.7) / 1.3
        assert ev(X3, 0.7) == pytest.approx(exact, abs=1e-12)

    def test_source_against_mode_oracle(self):
        speeds = (1.0, 2.0)
        p = CauchyProblem(
            "wave-distinct", 3, 2, speeds, parse("sin(x1)*cos(t)", 3),
            (None,) * 4,
        )
        ev = solve_wave(p)
        mp = ModeProblem(
            "wave", speeds, (1.0,), (0.0,) * 4, source=parse("cos(t)", 0)
        )
        t = 1.1
        assert ev(X3, t) == pytest.approx(
            mode_solve(mp, t) * math.sin(X3[0]), abs=1e-9
        )


class TestEvaluatorInterface:
    def test_point_shape_checked(self):
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), None, (None, parse("1", 3))
        )
        ev = solve_wave(p)
        with pytest.raises(DataCountMismatch):
            ev([0.0, 0.0], 1.0)

    def test_grid(self):
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), None, (None, parse("1", 3))
        )
        ev = solve_wave(p)
        pts = np.zeros((3, 3))
        assert np.allclose(ev.grid(pts, 0.5), 0.5)
