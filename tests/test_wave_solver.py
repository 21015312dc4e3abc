"""Whole-space wave solvers against manufactured solutions and the mode
oracle."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from waveforge import heat_solver, problems, quadrature
from waveforge.errors import (
    DataCountMismatch,
    DegenerateSpeeds,
    DomainError,
    InvalidOrder,
    NonPositiveSpeed,
    UnresolvedData,
    UnsupportedDimension,
)
from waveforge.expr import Mesh, parse
from waveforge.heat_solver import solve_heat_product
from waveforge.ibvp import build_basis, solve_ibvp
from waveforge.kernels import exp_divided_differences
from waveforge.oracle import ModeProblem, mode_solve
from waveforge.problems import CauchyProblem, SolutionEvaluator
from waveforge.quadrature import QuadratureSpec
from waveforge.wave_solver import solve_wave

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

    @pytest.mark.parametrize("kind", problems.KINDS)
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_speeds(self, kind, a):
        m = 2 if kind == "wave-distinct" else 1
        speeds = (1.0, a) if m == 2 else (a,)
        data = (None,) * (m if kind == "heat-product" else 2 * m)
        with pytest.raises(NonPositiveSpeed, match="positive and finite"):
            CauchyProblem(kind, 3, m, speeds, None, data)

    def test_distinct_speeds_required(self):
        with pytest.raises(DegenerateSpeeds):
            CauchyProblem("wave-distinct", 3, 2, (1.0, 1.0), None, (None,) * 4)
        # wave-multiple repeats one speed; unequal ones are not silently dropped
        with pytest.raises(InvalidOrder, match=r"\(1\.0, 2\.0\)"):
            CauchyProblem("wave-multiple", 3, 2, (1.0, 2.0), None, (None,) * 4)

    def test_even_dimension_rejected_at_solve(self):
        p = CauchyProblem("wave-multiple", 2, 1, (1.0,), None, (None, None))
        with pytest.raises(UnsupportedDimension):
            solve_wave(p)

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

    def test_n5_ignores_n_radial(self):
        p = CauchyProblem("wave-multiple", 5, 1, (0.9,), None,
                          (parse("sin(x1 + 0.5*x4)*cos(x5)", 5),
                           parse("cos(x2 - x3)", 5)))
        points = np.random.default_rng(5).uniform(-1, 1, size=(3, 5))
        times = np.array([0.0, 0.6, -1.1])
        got = [solve_wave(p, QuadratureSpec(n_time=8, n_radial=r, sphere_degree=4))
               .evaluate(points, times) for r in (4, 32)]
        assert np.array_equal(got[0], got[1])


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
        ev = solve_wave(p)
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

    def test_oscillating_source_against_mode_oracle(self, monkeypatch):
        # cos(80 t) at t = 1.3 takes the 64-node time rule; the fixed
        # 32 x 32 grid gave 9.32e-5 for 5.13e-5
        speeds = (0.8, 1.5)
        p = CauchyProblem("wave-distinct", 3, 2, speeds,
                          parse("sin(x1 + 0.5*x3)*cos(80*t)", 3), (None,) * 4)
        mp = ModeProblem("wave", speeds, (1.0, 0.0, 0.5), (0.0,) * 4,
                         source=parse("cos(80*t)", 0))
        ev = solve_wave(p)
        assert _stopping_counts(ev, X3[None], 1.3, monkeypatch) == [64]
        for t in (0.6, 1.3):
            exact = mode_solve(mp, t) * math.sin(X3[0] + 0.5 * X3[2])
            assert abs(ev(X3, t) - exact) <= 1e-12


def _stopping_degrees(ev, points, t, monkeypatch):
    """The highest sphere degree each one-point evaluation asks for."""
    rule = quadrature.sphere_rule
    out = []
    for p in points:
        degrees = []
        monkeypatch.setattr(quadrature, "sphere_rule",
                            lambda n, d: degrees.append(d) or rule(n, d))
        ev.evaluate(p[None], [t])
        out.append(max(degrees))
    monkeypatch.setattr(quadrature, "sphere_rule", rule)
    return out


def _stopping_counts(ev, points, t, monkeypatch):
    """The last time-rule count each one-point evaluation asks for."""
    rule = problems.gauss_legendre
    out = []
    for p in points:
        counts = []
        monkeypatch.setattr(problems, "gauss_legendre",
                            lambda c, a, b: counts.append(c) or rule(c, a, b))
        ev.evaluate(p[None], [t])
        out.append(max(counts))
    monkeypatch.setattr(problems, "gauss_legendre", rule)
    return out


def _plane_wave_amplitude(speeds, kk, t, kind="wave"):
    """T(t) of prod_j (D^2 + a_j^2 kk^2) T = 0, or for the heat of
    prod_j (D + a_j kk^2) T = 0, with T(0) = 1 and every other initial
    derivative 0, in Newton form: the coefficients prod_{i<j} (-r_i)
    against the divided differences e^{zt}[r_0..r_j]."""
    if kind == "heat":
        roots = -kk**2 * np.asarray(speeds, dtype=complex)
    else:
        w = 1j * kk * np.asarray(speeds)
        roots = np.stack([w, -w], axis=1).reshape(-1)
    newton = np.concatenate([[1.0], np.cumprod(-roots[:-1])])
    return float(np.real(newton @ exp_divided_differences(roots, t)))


class TestHighOrderAccuracy:
    """Time derivatives are exact, so accuracy holds as the order grows."""

    @pytest.mark.parametrize("t", [2.0, -2.0])
    @pytest.mark.parametrize("kind, n, speeds", [
        ("wave-multiple", 3, (1.0,)),
        ("wave-multiple", 3, (1.0,) * 2),
        ("wave-multiple", 3, (1.0,) * 3),
        ("wave-multiple", 3, (1.0,) * 4),
        ("wave-distinct", 3, (1.0, 1.3, 1.6)),
        ("wave-multiple", 5, (1.0,)),
        ("wave-multiple", 5, (1.0,) * 2),
    ])
    def test_position_data_against_closed_form(self, kind, n, speeds, t):
        m = len(speeds)
        data = (parse("sin(0.95*x1)", n),) + (None,) * (2 * m - 1)
        p = CauchyProblem(kind, n, m, speeds, None, data)
        spec = QuadratureSpec() if n == 3 else QuadratureSpec(
            sphere_degree=12, n_radial=16)
        x = np.array([0.4, -0.2, 0.7, 0.1, 0.3][:n])
        exact = _plane_wave_amplitude(speeds, 0.95, t) * math.sin(0.95 * x[0])
        assert solve_wave(p, spec)(x, t) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_initial_value_reproduces_phi0(self, m):
        phi0 = "sin(0.9*x1 + 0.4*x2) + x3^2"
        others = ("cos(x3)", "x1*x2", "sin(x2)", "exp(-x1^2)", "0.5*x3")
        data = (parse(phi0, 3),) + tuple(parse(e, 3) for e in others[:2 * m - 1])
        p = CauchyProblem("wave-multiple", 3, m, (0.8,) * m, None, data)
        ev = solve_wave(p, QuadratureSpec(n_time=8, sphere_degree=4))
        points = np.random.default_rng(3).uniform(-1, 1, size=(5, 3))
        got = ev.evaluate(points, [0.0])[:, 0]
        exact = np.sin(0.9 * points[:, 0] + 0.4 * points[:, 1]) + points[:, 2] ** 2
        assert np.allclose(got, exact, rtol=0, atol=1e-14)


class TestNearEqualSpeeds:
    """Speeds closing in on each other keep their accuracy: a cluster is
    expanded about its centre, without 1/separation weights."""

    @pytest.mark.parametrize("kind, delta", [
        *[("wave", d) for d in (1e-2, 1e-4, 1e-6, 1e-8)],
        *[("heat", d) for d in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)],
    ])
    def test_position_data_against_closed_form(self, kind, delta):
        speeds, t = (1.0, 1.0 + delta), 1.0
        if kind == "heat":
            data = (parse("sin(0.95*x1)", 1), None)
            p = CauchyProblem("heat-product", 1, 2, speeds, None, data)
            got = solve_heat_product(p)([0.4], t)
        else:
            data = (parse("sin(0.95*x1)", 3),) + (None,) * 3
            p = CauchyProblem("wave-distinct", 3, 2, speeds, None, data)
            got = solve_wave(p)(X3, t)
        exact = _plane_wave_amplitude(speeds, 0.95, t, kind) * math.sin(0.95 * 0.4)
        assert got == pytest.approx(exact, rel=1e-10, abs=0)

    @pytest.mark.parametrize("delta", [1e-4, 1e-8])
    def test_distinct_tends_to_multiple(self, delta):
        data = (parse("sin(x1)", 3), parse("0.5*sin(2*x1)", 3), None,
                parse("0.3*cos(x2)", 3))
        source = parse("sin(x1)*cos(t)", 3)

        def value(kind, speeds):
            p = CauchyProblem(kind, 3, 2, speeds, source, data)
            return solve_wave(p)(X3, 1.0)

        near = value("wave-distinct", (1.0, 1.0 + delta))
        assert abs(near - value("wave-multiple", (1.0, 1.0))) <= 2 * delta


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
        assert np.allclose(ev.evaluate(pts, [0.5])[:, 0], 0.5)

    @pytest.mark.parametrize("family", ["wave-m1", "heat-equal", "box"])
    @pytest.mark.parametrize("width", ["one", "n+1"])
    def test_grid_rejects_wrong_width(self, family, width):
        # a (P, 1) array must not broadcast to (x, x, ..., x)
        ev = _evaluator(family)
        width = 1 if width == "one" else ev.problem.n + 1
        with pytest.raises(DataCountMismatch, match=rf"got \(2, {width}\)"):
            ev.evaluate(np.full((2, width), 0.3), [0.5])[:, 0]

    def test_evaluate_rejects_bad_shapes(self):
        ev = _evaluator("wave-m1")
        with pytest.raises(DataCountMismatch, match=r"got \(3,\) and \(1,\)"):
            ev.evaluate(np.zeros(3), [0.5])
        with pytest.raises(DataCountMismatch, match=r"and \(1, 2\)"):
            ev.evaluate(np.zeros((2, 3)), [[0.5, 1.0]])
        with pytest.raises(DataCountMismatch, match=r"and \(\)"):
            ev.evaluate(np.zeros((2, 3)), 0.5)
        with pytest.raises(DataCountMismatch, match=r"got 2 axes and \(1,\)"):
            ev.evaluate(Mesh(np.meshgrid([0.1], [0.2], sparse=True)), [0.5])
        # axes that do not broadcast, on an n = 3 wave mesh and a 2-D box
        with pytest.raises(DataCountMismatch, match=(
                r"mesh axes of shapes \[\(3,\), \(2,\), \(1,\)\] do not broadcast")):
            ev.evaluate(Mesh((np.zeros(3), np.zeros(2), np.zeros(1))), [0.5])
        with pytest.raises(DataCountMismatch, match=(
                r"mesh axes of shapes \[\(3,\), \(2,\)\] do not broadcast")):
            _evaluator("box").evaluate(Mesh((np.zeros(3), np.zeros(2))), [0.5])

    @pytest.mark.parametrize("family", ["wave-m2-source", "heat-equal", "box"])
    def test_mesh_matches_its_points(self, family):
        # on an open mesh the result has the grid's shape + (T,), each value
        # bit for bit the one its point gives in the stacked grid
        ev = _evaluator(family)
        axes = [np.linspace(0.1, 0.9, 4 - i) for i in range(ev.problem.n)]
        mesh = Mesh(np.meshgrid(*axes, indexing="ij", sparse=True))
        points = np.array(list(itertools.product(*axes)))
        times = [0.0, 0.4]
        got = ev.evaluate(mesh, times)
        assert got.shape == tuple(len(a) for a in axes) + (2,)
        assert np.array_equal(got.reshape(-1, 2), ev.evaluate(points, times))

    @pytest.mark.parametrize("family", ["wave-m1", "heat-equal", "box"])
    def test_no_points(self, family):
        # an empty point set, or a mesh with one empty axis, gives its
        # point shape + (T,) from every solver
        ev = _evaluator(family)
        n, times = ev.problem.n, [0.0, 0.5]
        assert ev.evaluate(np.zeros((0, n)), times).shape == (0, 2)
        axes = [np.linspace(0.1, 0.9, 3 if i else 0) for i in range(n)]
        mesh = Mesh(np.meshgrid(*axes, indexing="ij", sparse=True))
        assert ev.evaluate(mesh, times).shape == (0,) + (3,) * (n - 1) + (2,)

    @pytest.mark.parametrize("kind", ["wave-multiple", "wave-distinct"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, kind, t):
        speeds = (1.0, 1.0) if kind == "wave-multiple" else (1.0, 1.6)
        p = CauchyProblem(kind, 3, 2, speeds, parse("sin(x1)*cos(t)", 3),
                          (parse("sin(x1)", 3), None, None, parse("x2", 3)))
        ev = solve_wave(p)
        # rejected before any kernel runs: no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"time must be finite, got {t}"):
                ev.evaluate(np.zeros((1, 3)), [0.5, t])

    def test_evaluate_shape(self):
        p = CauchyProblem(
            "wave-multiple", 3, 1, (1.0,), None, (None, parse("1", 3))
        )
        ev = solve_wave(p)
        out = ev.evaluate(np.zeros((4, 3)), [0.5, 1.0])
        assert out.shape == (4, 2)
        assert np.allclose(out, [[0.5, 1.0]] * 4)


def _evaluator(family):
    """A small instance of each solver family, with cheap rules."""
    small = QuadratureSpec(n_time=8, n_radial=6, sphere_degree=4)
    wave = "sin(0.9*x1 + 0.4*x2) + x3^2"
    if family == "wave-m1":
        p = CauchyProblem("wave-multiple", 3, 1, (1.2,), None,
                          (parse(wave, 3), parse("cos(x3)", 3)))
        return solve_wave(p, small)
    if family == "wave-m3":
        p = CauchyProblem("wave-multiple", 3, 3, (0.9,) * 3, None,
                          (parse(wave, 3), parse("cos(x3)", 3), None,
                           parse("x1*x2", 3), parse("sin(x2)", 3), None))
        return solve_wave(p, small)
    if family == "wave-m2-source":
        p = CauchyProblem("wave-multiple", 3, 2, (0.8, 0.8),
                          parse("sin(x1)*cos(t)", 3),
                          (parse(wave, 3), None, parse("cos(x2)", 3),
                           parse("x1*x2", 3)))
        return solve_wave(p, small)
    if family == "wave-distinct-source":
        p = CauchyProblem("wave-distinct", 3, 2, (1.0, 1.7),
                          parse("x2*exp(-t)", 3),
                          (None, parse(wave, 3), parse("sin(x3)", 3), None))
        return solve_wave(p, small)
    if family == "wave-n5":
        p = CauchyProblem("wave-multiple", 5, 1, (1.0,), None,
                          (parse("sin(x1 + 0.5*x4)*cos(x5)", 5), None))
        return solve_wave(p, small)
    if family == "heat-equal":
        p = CauchyProblem("heat-product", 2, 2, (0.7, 0.7),
                          parse("sin(x1)*exp(-t)", 2),
                          (parse("cos(x1 - x2)", 2), parse("x1*x2", 2)))
        return solve_heat_product(p)
    if family == "heat-distinct":
        p = CauchyProblem("heat-product", 2, 2, (0.6, 1.3),
                          parse("cos(x2)*t", 2),
                          (parse("sin(x1 + x2)", 2), parse("cos(x1)", 2)))
        return solve_heat_product(p)
    # an odd k_max puts each mode at a different SIMD lane per point
    p = CauchyProblem("wave-multiple", 2, 1, (1.1,), parse("x1*(1-x1)*t", 2),
                      (parse("sin(pi*x1)*sin(x2)*x2*(1.5-x2)", 2), None))
    return solve_ibvp(p, build_basis([1.0, 1.5], 7), small)


FAMILIES = ["wave-m1", "wave-m3", "wave-m2-source", "wave-distinct-source",
            "wave-n5", "heat-equal", "heat-distinct", "box"]


class TestSphereLadder:
    """Each sphere mean climbs the sphere degrees up to the spec's
    sphere_degree, its top rung, and past the top raises UnresolvedData
    instead of the top rule's answer."""

    def test_n5_past_a_top_of_8_raises(self):
        # the degree-8 rule alone gives -32.1 for cos(20) sin(6) = -0.114
        p = CauchyProblem("wave-multiple", 5, 1, (1.0,), None,
                          (parse("sin(20*x1)", 5), None))
        ev = solve_wave(p, QuadratureSpec(sphere_degree=8))
        with pytest.raises(UnresolvedData,
                           match="the degree-6 and degree-8 sphere rules") as info:
            ev([0.3, -0.2, 0.5, 0.1, 0.2], 1.0)
        assert str(info.value).endswith("; raise [quadrature] sphere_degree above 8")

    def test_message_quotes_a_cut_field(self):
        # verify's n=5 modes data at a top of 8: the message cuts the
        # field's text and still names the entry and the two degrees
        k = (0.903368797097569, 1.4245091068512243, 1.11262522856881,
             0.8035291105000132, 0.774250348931936)
        phase = "+".join(f"{v!r}*x{i + 1}" for i, v in enumerate(k))
        data = tuple(parse(f"{v!r}*sin({phase})", 5) for v in
                     (0.47989194201301966, 0.5103401203508973,
                      -0.0646696201363639, 0.693919716079709))
        field = str(data[0])
        assert len(field) > 100
        p = CauchyProblem("wave-multiple", 5, 2, (1.5980237801883719,) * 2,
                          None, data)
        ev = solve_wave(p, QuadratureSpec(sphere_degree=8))
        with pytest.raises(UnresolvedData) as info:
            ev([0.4, -0.2, 0.7, 0.1, 0.3], 1.2)
        msg = str(info.value)
        assert f"sphere means of {field[:60]}... at t = " in msg
        assert "x = [0.4, -0.2, 0.7, 0.1, 0.3]" in msg
        assert "the degree-6 and degree-8 sphere rules" in msg
        # the cut field keeps the message short; the remedy follows it
        head, _, remedy = msg.rpartition("; ")
        assert len(head) < 260
        assert remedy == "raise [quadrature] sphere_degree above 8"


class TestBatchIndependence:
    """A point's value does not depend on the points evaluated with it, so
    the CLI's output is the same however its points are chunked."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_equals_single_points(self, family, monkeypatch):
        ev = _evaluator(family)
        n = ev.problem.n
        rng = np.random.default_rng(7)
        points = rng.uniform(0.05, 0.95, size=(5, n))
        times = np.array([0.0, 0.35, 0.8])
        single = np.array([[ev(p, t) for t in times] for p in points])
        assert np.array_equal(ev.evaluate(points, times), single)
        # a budget that splits the small rules' work into chunks of one to
        # three centres, and n=5's into rows of a single centre
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 1000)
        assert np.array_equal(ev.evaluate(points, times), single)
        # one that splits every family's rows
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 64)
        assert np.array_equal(ev.evaluate(points, times), single)

    def test_batch_with_different_sphere_degrees(self, monkeypatch):
        # the data's frequency grows with x1, so the points stop on
        # different degrees of the sphere ladder
        p = CauchyProblem("wave-multiple", 3, 1, (1.0,), None,
                          (parse("sin(x1*x1 + x2)", 3), parse("cos(x1*x1)", 3)))
        ev = solve_wave(p)
        points = np.array([[x1, 0.6, -0.2] for x1 in (0.0, 1.0, 3.0)])
        degrees = _stopping_degrees(ev, points, 0.5, monkeypatch)
        assert len(set(degrees)) > 1
        times = np.array([0.0, 0.5, -0.3])
        single = np.array([[ev(x, t) for t in times] for x in points])
        assert np.array_equal(ev.evaluate(points, times), single)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 64)
        assert np.array_equal(ev.evaluate(points, times), single)

    def test_batch_with_different_stopping_counts(self, monkeypatch):
        # the source's frequency in time grows with x1, so the points stop
        # on different counts of the time ladder
        p = CauchyProblem("wave-distinct", 3, 2, (1.0, 1.7),
                          parse("cos(40*x1*t)*sin(x2)", 3), (None,) * 4)
        ev = solve_wave(p)
        points = np.array([[x1, 0.6, -0.2] for x1 in (0.25, 1.0, 2.0, 3.0)])
        counts = _stopping_counts(ev, points, 0.5, monkeypatch)
        assert len(set(counts)) > 1 and min(counts) > problems.TIME_LADDER[1]
        times = np.array([0.0, 0.5, -0.4])
        single = np.array([[ev(x, t) for t in times] for x in points])
        assert np.array_equal(ev.evaluate(points, times), single)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 64)
        assert np.array_equal(ev.evaluate(points, times), single)


class TestMemoryBound:
    """No field evaluation builds more than BATCH_POINTS values, a value
    being a point at one source time, unless one row of nodes is larger; a
    row is never more than ROW_CHUNK nodes."""

    @staticmethod
    def _record_sizes(monkeypatch, budget=1000) -> list:
        """Values per field call, points times source times, recorded from
        the next evaluators built, under a budget of ``budget`` values
        (None: the default)."""
        sizes = []

        def recording(compile_field):
            def compile_recorded(e):
                field = compile_field(e)

                def recorded(X, t=0.0):
                    sizes.append(int(np.prod(np.broadcast_shapes(np.shape(X)[:-1],
                                                                 np.shape(t)))))
                    return field(X, t)

                return recorded

            return compile_recorded

        for module in (quadrature, heat_solver):
            monkeypatch.setattr(module, "compile_field",
                                recording(module.compile_field))
        if budget is not None:
            monkeypatch.setattr(quadrature, "BATCH_POINTS", budget)
        return sizes

    # one row: the degree-4 sphere rule's directions, or the 24^n nodes of
    # the larger heat rule of the first pair
    @pytest.mark.parametrize("family, row", [
        ("wave-n5", 4**3 * 8), ("wave-m2-source", 4 * 8),
        ("heat-equal", 24**2), ("heat-distinct", 24**2)])
    def test_field_calls_within_budget(self, family, row, monkeypatch):
        sizes = self._record_sizes(monkeypatch)
        ev = _evaluator(family)
        points = np.random.default_rng(7).uniform(0.05, 0.95, size=(5, ev.problem.n))
        ev.evaluate(points, np.array([0.0, 0.35, 0.8]))
        assert sizes and max(sizes) <= max(1000, row)

    def test_heat_escalation_within_budget(self, monkeypatch):
        # sin(4 x1) at lam = 2 climbs to the top rule, 96^2 nodes a row
        sizes = self._record_sizes(monkeypatch)
        prop = heat_solver.HeatPropagator(parse("sin(4*x1)*cos(x2)", 2))
        points = np.random.default_rng(7).uniform(0.05, 0.95, size=(3, 2))
        prop.apply_many(points, np.array([0.0, 0.3, 2.0]))
        top = heat_solver.LADDER[-1] ** 2
        assert max(sizes) == top  # the top rule ran, one row a call
        assert max(sizes) <= max(quadrature.BATCH_POINTS, top)

    def test_long_rows_split_into_node_chunks(self, monkeypatch):
        # at lam = 2 sin(4 x1) climbs to the 64^3-node rule, whose one row
        # is 4 times BATCH_POINTS; it is summed in fixed node chunks
        sizes = self._record_sizes(monkeypatch, budget=None)
        prop = heat_solver.HeatPropagator(parse("sin(4*x1)*cos(x2)*cos(x3)", 3))
        prop.apply_many([[0.3, 0.2, 0.1]], [2.0])
        assert sum(sizes) >= 64**3 > quadrature.BATCH_POINTS  # that rule ran
        assert max(sizes) <= quadrature.BATCH_POINTS

    def test_source_times_split_long_rows(self, monkeypatch):
        # this field climbs to the 32^3-node rule, 393,216 values a row at
        # 12 source times: each field call takes a run of the row's nodes,
        # and the values do not depend on the runs
        sizes = self._record_sizes(monkeypatch, budget=None)
        prop = heat_solver.HeatPropagator(parse("sin(3*x1 - t)*cos(x2)*x3", 3))
        points = np.array([[0.3, 0.2, 0.1], [-1.1, 0.4, 2.0]])
        lams = np.array([0.5, 0.9])
        z = quadrature.gauss_legendre(12, 0.0, 1.0).nodes
        sigmas, omegas = np.outer(lams, z), np.outer(lams, np.cos(z))
        split = prop.apply_many(points, lams, sigmas, omegas)
        assert max(sizes) <= quadrature.BATCH_POINTS < 32**3 * 12
        assert sum(sizes) > 32**3 * 12  # the 32-node rule ran
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 1 << 20)
        sizes.clear()
        whole = prop.apply_many(points, lams, sigmas, omegas)
        assert max(sizes) > 1 << 16
        assert np.array_equal(split[0], whole[0]) and np.array_equal(split[1], whole[1])

    def test_step_times_not_copied_per_entry(self):
        # 256 points x 8 diffusion times x 512 source times: a per-entry
        # copy of the times and their weights would take 16 MiB
        prop = heat_solver.HeatPropagator(parse("x1*t", 1))
        points = np.linspace(-1.0, 1.0, 256)[:, None]
        lams = np.linspace(0.0, 1.0, 8)
        sigmas = np.tile(np.linspace(0.0, 1.0, 512), (8, 1))
        omegas = np.full((8, 512), 1.0 / 512)
        tracemalloc.start()
        try:
            vals, _ = prop.apply_many(points, lams, sigmas, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        np.testing.assert_allclose(vals, np.broadcast_to(0.5 * points, vals.shape),
                                   rtol=1e-13, atol=1e-15)

    def test_node_chunks_batch_independent(self):
        prop = heat_solver.HeatPropagator(parse("sin(4*x1)*cos(x2)*cos(x3)", 3))
        points = np.array([[0.3, 0.2, 0.1], [-1.1, 0.4, 2.0]])
        lams = np.array([0.5, 2.0])
        single = np.array([[prop.apply_many(x, [lam])[0][0] for lam in lams]
                           for x in points])
        assert np.array_equal(prop.apply_many(points, lams)[0], single)
