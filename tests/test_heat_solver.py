"""Diffusion semigroup and the heat-product solvers."""

import math

import numpy as np
import pytest

from waveforge import heat_solver, problems, quadrature
from waveforge.errors import (
    InvalidOrder,
    NegativeDiffusionTime,
    UnresolvedData,
    UnsupportedDimension,
)
from waveforge.expr import parse
from waveforge.heat_solver import (
    HeatPropagator,
    heat_propagate,
    solve_heat_product,
)
from waveforge.ibvp import build_basis, solve_ibvp
from waveforge.oracle import ModeProblem, heat_closed_form, mode_solve
from waveforge.problems import CauchyProblem
from test_wave_solver import _plane_wave_amplitude, _stopping_counts


class TestPropagator:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_mode_decay(self, k):
        # e^{lam Lap} sin(kx) = e^{-k^2 lam} sin(kx)
        e = parse(f"sin({k}*x1)", 1)
        lam = 0.4
        got = heat_propagate(e, lam, [0.3])
        exact = math.exp(-k * k * lam) * math.sin(k * 0.3)
        assert got == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian_closed_form(self, n):
        quad = "+".join(f"x{i + 1}^2" for i in range(n))
        e = parse(f"exp(-({quad})/4)", n)
        x = np.linspace(0.1, 0.5, n)
        got = heat_propagate(e, 0.7, x)
        assert got == pytest.approx(heat_closed_form(1.0, 0.7, x), abs=1e-10)

    def test_constant_preserved(self):
        assert heat_propagate(parse("3", 2), 1.5, [0.0, 0.0]) == pytest.approx(
            3.0, abs=1e-14
        )

    def test_zero_time_identity(self):
        e = parse("sin(x1)*x2", 2)
        assert heat_propagate(e, 0.0, [0.4, 2.0]) == pytest.approx(
            math.sin(0.4) * 2.0
        )

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeDiffusionTime):
            heat_propagate(parse("x1", 1), -0.1, [0.0])
        # the box solver, which decays each sine mode, rejects t < 0 too
        box = solve_ibvp(
            CauchyProblem(
                "heat-product", 1, 1, (1.0,), None, (parse("sin(x1)", 1),)
            ),
            build_basis([math.pi], 24),
        )
        for t in (-0.5, -2.0):
            with pytest.raises(NegativeDiffusionTime):
                box([1.0], t)

    @pytest.mark.parametrize("speeds, source, data", [
        ((1.0, 2.0), None, (None, "sin(x1)")),
        ((1.0,), "sin(x1)*t", (None,)),
        ((1.5, 1.5), "sin(x1)*t", (None, None)),
    ], ids=["distinct-phi1-only", "m1-source-only", "m2-source-only"])
    def test_negative_time_rejected_whole_space(self, speeds, source, data):
        # each term of these problems is an integral over (0, t), so no
        # propagator call would see the negative time
        p = CauchyProblem(
            "heat-product", 1, len(speeds), speeds,
            None if source is None else parse(source, 1),
            tuple(None if d is None else parse(d, 1) for d in data),
        )
        ev = solve_heat_product(p)
        with pytest.raises(NegativeDiffusionTime):
            ev([0.3], -0.5)
        with pytest.raises(NegativeDiffusionTime):
            ev.evaluate(np.array([[0.3]]), [0.5, -0.5])

    def test_semigroup_property(self):
        # two short steps equal one long step on a Gaussian
        sigma, t1, t2 = 1.0, 0.3, 0.4
        x = [0.25]
        s1 = sigma + t1
        mid = parse(f"({sigma / s1})^0.5*exp(-x1^2/(4*{s1}))", 1)
        got = heat_propagate(mid, t2, x)
        assert got == pytest.approx(
            heat_closed_form(sigma, t1 + t2, x), abs=1e-10
        )

    def test_dimension_limit(self):
        # the propagator and the solver share one check and its message
        with pytest.raises(UnsupportedDimension, match="diffusion solver needs n <= 3, got 4"):
            HeatPropagator(parse("x1", 4))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("text", ["3", "sin(x1)"])
    def test_non_finite_time_rejected(self, lam, text):
        with pytest.raises(NegativeDiffusionTime, match="finite"):
            heat_propagate(parse(text, 2), lam, [0.0, 0.0])
        with pytest.raises(NegativeDiffusionTime, match="finite"):
            HeatPropagator(parse(text, 2)).apply_many([0.0, 0.0], [0.5, lam])
        p = CauchyProblem("heat-product", 2, 1, (1.0,), None, (parse(text, 2),))
        with pytest.raises(NegativeDiffusionTime):
            solve_heat_product(p).evaluate(np.zeros((1, 2)), [0.5, lam])


class TestResolution:
    """Each (point, diffusion time) climbs the Gauss-Hermite ladder until
    two neighbouring rules agree, or raises UnresolvedData past its top."""

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5])
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_sharp_modes_resolved(self, k, lam):
        # e^{lam Lap} sin(kx) = e^{-k^2 lam} sin(kx)
        x = np.array([[0.3], [-1.7], [2.9]])
        got = HeatPropagator(parse(f"sin({k}*x1)", 1)).apply_many(x, [lam])[0][:, 0]
        exact = math.exp(-k * k * lam) * np.sin(k * x[:, 0])
        assert np.max(np.abs(got - exact)) <= 1e-12

    @pytest.mark.parametrize("k", [8.0, 12.0])
    def test_unresolved_modes_raise(self, k):
        with pytest.raises(UnresolvedData) as info:
            heat_propagate(parse(f"sin({k}*x1)", 1), 1.0, [0.3])
        msg = str(info.value)
        assert f"sin({k:g}*x1)" in msg
        assert "diffusion time lam = 1.0" in msg
        assert "Gauss-Hermite" in msg
        assert msg.endswith("; no setting raises the top of 96 nodes per axis")

    def test_unresolved_through_the_solver(self):
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None,
                          (parse("sin(8*x1)", 1),))
        ev = solve_heat_product(p)
        # short times are resolved; t = 1 is not
        assert ev([0.3], 0.01) == pytest.approx(
            math.exp(-0.64) * math.sin(2.4), abs=1e-12)
        with pytest.raises(UnresolvedData):
            ev([0.3], 1.0)

    def test_escalation_is_per_entry(self, monkeypatch):
        # sin(4x) escalates further as lam grows, except at x = 0, where
        # every rule gives 0; the t argument separates equal lams
        prop = HeatPropagator(parse("sin(4*x1)*exp(-t)", 1))
        points = np.array([[0.3], [1.1], [0.0], [-2.5]])
        lams = np.array([0.0, 0.05, 0.3, 1.0, 0.3, 1.0])
        t_args = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        asked = {}  # node count: entries asked on that rule, in rung order
        sums = heat_solver.centre_sums

        def recording(g, centres, steps, nodes, w, *times):
            asked[len(w)] = asked.get(len(w), 0) + len(centres) * len(steps)
            return sums(g, centres, steps, nodes, w, *times)

        monkeypatch.setattr(heat_solver, "centre_sums", recording)
        batch, _ = prop.apply_many(points, lams, t_args)
        rungs, ladder = list(asked.items()), heat_solver.LADDER
        # the ladder in order: every entry is asked on the first pair, some
        # stop there, others climb to 64 nodes
        assert [count for count, _ in rungs] == list(ladder[:ladder.index(64) + 1])
        assert rungs[0] == (ladder[0], 24) and rungs[1] == (ladder[1], 24)
        assert 0 < rungs[2][1] < 24
        single = np.array([[prop.apply_many(p, [lam], [ta])[0][0]
                            for lam, ta in zip(lams, t_args)] for p in points])
        assert np.array_equal(batch, single)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 64)
        assert np.array_equal(prop.apply_many(points, lams, t_args)[0], single)
        exact = np.exp(-16 * lams - t_args) * np.sin(4 * points)
        assert np.max(np.abs(batch - exact)) <= 1e-12


    def test_time_weighted_field(self):
        # e^(lam Lap) of sum_k w_k f(., s_k) is sum_k w_k e^(lam Lap) f(., s_k)
        prop = HeatPropagator(parse("sin(x1 - t)*exp(-0.1*x2^2) + x2*t", 2))
        points = np.array([[0.3, -0.4], [1.2, 0.8]])
        lams = np.array([0.0, 0.2, 0.7])
        sigmas = np.array([[0.1, 0.4, 0.7], [0.2, 0.5, 0.9], [0.3, 0.6, 0.8]])
        omegas = np.array([[0.5, -0.3, 0.2], [0.1, 0.6, -0.4], [0.2, 0.2, 0.2]])
        vals, size = prop.apply_many(points, lams, sigmas, omegas)
        each = [prop.apply_many(points, lams, sigmas[:, k]) for k in range(3)]
        want = sum(omegas[:, k] * each[k][0] for k in range(3))
        np.testing.assert_allclose(vals, want, rtol=0, atol=1e-13 * size.max())
        assert (size >= np.abs(vals)).all()
        single = np.array([[prop.apply_many(x, [lam], sigmas[j:j + 1], omegas[j:j + 1])[0][0]
                            for j, lam in enumerate(lams)] for x in points])
        assert np.array_equal(vals, single)


def _oscillating_source(nu):
    """u_t = 0.5 u_xx + cos(nu t) sin(x1) on R from zero data."""
    return CauchyProblem("heat-product", 1, 1, (0.5,),
                         parse(f"cos({nu}*t)*sin(x1)", 1), (None,))


class TestTimeRules:
    """The whole-space time rules climb TIME_LADDER per point until two
    neighbouring Gauss-Legendre counts agree, or raise UnresolvedData."""

    @pytest.mark.parametrize("nu", [10, 40, 80, 120])
    def test_oscillating_source_resolved(self, nu):
        # u(1, x) = sin(x1) Re[(e^{i nu} - e^{-1/2}) / (1/2 + i nu)]; the
        # fixed 32 x 32 grid gave 3.62e-2 for 3.12e-3 at nu = 120
        got = solve_heat_product(_oscillating_source(nu))([0.7], 1.0)
        exact = math.sin(0.7) * ((complex(math.cos(nu), math.sin(nu))
                                  - math.exp(-0.5)) / complex(0.5, nu)).real
        assert abs(got - exact) <= 1e-12

    @pytest.mark.parametrize("nu", [200, 300])
    def test_oscillating_source_unresolved(self, nu):
        ev = solve_heat_product(_oscillating_source(nu))
        with pytest.raises(UnresolvedData) as info:
            ev([0.7], 1.0)
        msg = str(info.value)
        assert "t = 1.0, x = [0.7]" in msg
        assert "48- and 64-node Gauss-Legendre time rules" in msg
        assert "data's size" in msg
        assert msg.endswith("; no setting raises the top of 64 nodes")

    def test_batch_with_different_stopping_counts(self, monkeypatch):
        # the source's frequency in time grows with x1, so the points stop
        # on different counts; each must match its one-point value exactly
        p = CauchyProblem("heat-product", 2, 1, (0.5,),
                          parse("cos(40*x1*t)*sin(x2)", 2), (None,))
        ev = solve_heat_product(p)
        points = np.array([[0.25, 0.6], [1.0, -0.3], [2.0, 0.6], [3.0, 1.1]])
        counts = _stopping_counts(ev, points, 0.25, monkeypatch)
        assert len(set(counts)) > 1 and min(counts) > problems.TIME_LADDER[1]
        times = np.array([0.0, 0.25, 0.5])
        single = np.array([[ev(x, t) for t in times] for x in points])
        assert np.array_equal(ev.evaluate(points, times), single)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 64)
        assert np.array_equal(ev.evaluate(points, times), single)

    def test_unforced_single_factor_builds_no_rule(self, monkeypatch):
        calls, rule = [], problems.gauss_legendre
        monkeypatch.setattr(problems, "gauss_legendre",
                            lambda c, a, b: calls.append(c) or rule(c, a, b))
        p = CauchyProblem("heat-product", 1, 1, (0.5,), None,
                          (parse("sin(x1)", 1),))
        got = solve_heat_product(p).evaluate(np.array([[0.7], [1.2]]), [0.0, 1.0])
        assert calls == []
        assert got[0, 1] == pytest.approx(math.exp(-0.5) * math.sin(0.7), abs=1e-12)


class TestEqualSpeeds:
    def test_single_factor_gaussian(self):
        g = parse("exp(-x1^2/4)", 1)
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None, (g,))
        ev = solve_heat_product(p)
        for t in (0.0, 0.5, 1.0):
            assert ev([0.3], t) == pytest.approx(
                heat_closed_form(1.0, t, [0.3]), abs=1e-12
            )

    def test_two_factor_manufactured(self):
        # (1 + 2t) e^{-t} sin(x1) solves the squared single-speed problem
        p = CauchyProblem(
            "heat-product", 1, 2, (1.0, 1.0), None,
            (parse("sin(x1)", 1), parse("sin(x1)", 1)),
        )
        ev = solve_heat_product(p)
        for t in (0.0, 0.6, 1.2):
            exact = (1 + 2 * t) * math.exp(-t) * math.sin(0.4)
            assert ev([0.4], t) == pytest.approx(exact, abs=1e-12)

    def test_source_against_mode_oracle(self):
        p = CauchyProblem(
            "heat-product", 1, 2, (1.0, 1.0), parse("sin(x1)*cos(t)", 1),
            (None, None),
        )
        ev = solve_heat_product(p)
        mp = ModeProblem(
            "heat", (1.0, 1.0), (1.0,), (0.0, 0.0), source=parse("cos(t)", 0)
        )
        t = 0.9
        assert ev([0.4], t) == pytest.approx(
            mode_solve(mp, t) * math.sin(0.4), abs=1e-10
        )

    def test_speed_scales_decay(self):
        a = 2.5
        p = CauchyProblem(
            "heat-product", 1, 1, (a,), None, (parse("sin(x1)", 1),)
        )
        ev = solve_heat_product(p)
        t = 0.7
        assert ev([0.4], t) == pytest.approx(
            math.exp(-a * t) * math.sin(0.4), abs=1e-12
        )


class TestDistinctSpeeds:
    def test_two_factor_manufactured(self):
        # (e^{-t} - e^{-3t}) sin(x1) for speeds (1, 3)
        p = CauchyProblem(
            "heat-product", 1, 2, (1.0, 3.0), None,
            (None, parse("2*sin(x1)", 1)),
        )
        ev = solve_heat_product(p)
        for t in (0.0, 0.6, 1.5):
            exact = (math.exp(-t) - math.exp(-3 * t)) * math.sin(0.4)
            assert ev([0.4], t) == pytest.approx(exact, abs=1e-12)

    def test_three_factor_pure_mode(self):
        # data chosen so only the e^{-2t} branch is excited
        p = CauchyProblem(
            "heat-product", 1, 3, (1.0, 2.0, 4.0), None,
            (
                parse("sin(x1)", 1),
                parse("-2*sin(x1)", 1),
                parse("4*sin(x1)", 1),
            ),
        )
        ev = solve_heat_product(p)
        t = 0.5
        assert ev([0.4], t) == pytest.approx(
            math.exp(-2 * t) * math.sin(0.4), abs=1e-12
        )

    def test_source_against_mode_oracle(self):
        speeds = (1.0, 3.0)
        p = CauchyProblem(
            "heat-product", 1, 2, speeds, parse("sin(x1)*cos(t)", 1),
            (None, None),
        )
        ev = solve_heat_product(p)
        mp = ModeProblem(
            "heat", speeds, (1.0,), (0.0, 0.0), source=parse("cos(t)", 0)
        )
        t = 1.1
        assert ev([0.4], t) == pytest.approx(
            mode_solve(mp, t) * math.sin(0.4), abs=1e-10
        )

    def test_2d_mode(self):
        p = CauchyProblem(
            "heat-product", 2, 2, (1.0, 2.0), None,
            (parse("sin(x1)*sin(x2)", 2), parse("-2*sin(x1)*sin(x2)", 2)),
        )
        # lam = 2: factors decay at 2 and 4; data select e^{-2t}
        ev = solve_heat_product(p)
        t = 0.4
        exact = math.exp(-2 * t) * math.sin(0.3) * math.sin(0.8)
        assert ev([0.3, 0.8], t) == pytest.approx(exact, abs=1e-11)

    def test_mixed_cluster_with_source(self):
        p = CauchyProblem(
            "heat-product", 1, 3, (1.0, 1.0, 2.0), parse("sin(x1)*cos(t)", 1),
            (parse("sin(x1)", 1), None, parse("0.5*sin(x1)", 1)),
        )
        ev = solve_heat_product(p)
        mp = ModeProblem(
            "heat", (1.0, 1.0, 2.0), (1.0,), (1.0, 0.0, 0.5),
            source=parse("cos(t)", 0),
        )
        for t in (0.4, 1.1):
            assert ev([0.7], t) == pytest.approx(
                mode_solve(mp, t) * math.sin(0.7), abs=1e-10
            )

    def test_mixed_cluster_against_closed_form(self):
        speeds = (0.5, 1.1, 1.1, 1.1)
        p = CauchyProblem(
            "heat-product", 1, 4, speeds, None,
            (parse("sin(0.95*x1)", 1), None, None, None),
        )
        ev = solve_heat_product(p)
        for t in (0.4, 1.1):
            exact = _plane_wave_amplitude(speeds, 0.95, t, "heat") * math.sin(0.38)
            assert ev([0.4], t) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12])
    def test_near_equal_speeds_limit(self, delta):
        # speeds closing in on each other tend to the equal-speed answer
        # at the rate of its speed derivative, without 1/delta weights
        data = (parse("sin(x1)", 1), parse("0.5*sin(2*x1)", 1))

        def value(speeds):
            p = CauchyProblem(
                "heat-product", 1, 2, speeds, parse("sin(x1)*cos(t)", 1), data
            )
            return solve_heat_product(p)([0.7], 1.0)

        assert abs(value((1.0, 1.0 + delta)) - value((1.0, 1.0))) <= 2 * delta
