"""Box eigenbasis, projection, and the initial-boundary solver."""

import itertools
import math
import warnings

import numpy as np
import pytest

from waveforge import ibvp
from waveforge.errors import (
    DataCountMismatch,
    DomainError,
    InvalidBox,
    NegativeDiffusionTime,
)
from waveforge.expr import compile_field, parse
from waveforge.ibvp import build_basis, project, solve_ibvp
from waveforge.oracle import ModeProblem, mode_solve
from waveforge.problems import CauchyProblem

PI = math.pi


class TestBasis:
    def test_1d_eigenvalues(self):
        b = build_basis([PI], 5)
        assert np.allclose(b.eigenvalues, [1.0, 4.0, 9.0, 16.0, 25.0])

    def test_2d_unit_box_lowest_mode(self):
        b = build_basis([1.0, 1.0], 4)
        assert b.eigenvalues[0] == pytest.approx(2 * PI**2)
        assert tuple(b.modes[0]) == (1, 1)

    def test_orthonormality(self):
        b = build_basis([PI], 6)
        nodes, weights = np.polynomial.legendre.leggauss(48)
        x = 0.5 * PI * (nodes + 1.0)
        w = 0.5 * PI * weights
        mat = b.norm * np.sin(np.outer(x, b.modes[:, 0]))
        gram = mat.T @ (w[:, None] * mat)
        assert np.allclose(gram, np.eye(6), atol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidBox):
            build_basis([0.0], 4)
        with pytest.raises(InvalidBox):
            build_basis([1.0], 0)
        with pytest.raises(InvalidBox):
            build_basis([1.0, 1.0, 1.0, 1.0], 2)
        for side in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidBox, match="positive and finite"):
                build_basis([1.0, side], 4)

    def test_mode_count_bounded(self):
        # checked before any mode array exists: 2000^3 would be 64 GB
        assert build_basis([1.0] * 3, 101).count == 101**3
        for L, k_max in (([1.0] * 3, 102), ([1.0] * 3, 2000), ([1.0] * 2, 1025)):
            with pytest.raises(InvalidBox, match=f"k_max = {k_max} gives"):
                build_basis(L, k_max)


class TestProjection:
    def test_projects_own_mode(self):
        b = build_basis([PI], 8)
        mc = project(parse("sqrt(2/pi)*sin(x1)", 1), b)
        assert mc.coeff([1]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(mc.values[1:])) < 1e-10

    def test_zero_field(self):
        b = build_basis([PI], 8)
        mc = project(parse("0", 1), b)
        assert np.max(np.abs(mc.values)) == 0.0

    def test_parabola_series(self):
        # x(pi - x) on [0, pi]: orthonormal coefficients
        # c_k = sqrt(2/pi) * 2 (1 - (-1)^k) / k^3
        b = build_basis([PI], 8)
        mc = project(parse("x1*(pi - x1)", 1), b)
        for k in range(1, 9):
            exact = math.sqrt(2 / PI) * 2 * (1 - (-1) ** k) / k**3
            assert mc.coeff([k]) == pytest.approx(exact, abs=1e-12)

    def test_parseval_partial_sums(self):
        b = build_basis([PI], 16)
        mc = project(parse("x1*(pi - x1)", 1), b)
        partial = np.cumsum(mc.values**2)
        assert np.all(np.diff(partial) >= 0)

    @pytest.mark.parametrize(
        "L, k", [((1.0, 2.0), (2, 1)), ((1.0, 1.5, 0.8), (1, 3, 2))]
    )
    def test_multi_dimensional_product_mode(self, L, k):
        # a different index on each axis catches an axis-order slip
        d = len(L)
        norm = math.prod(math.sqrt(2 / Li) for Li in L)
        mode = parse(
            f"{norm}*"
            + "*".join(
                f"sin({ki}*pi*x{i + 1}/{Li})"
                for i, (ki, Li) in enumerate(zip(k, L))
            ),
            d,
        )
        mc = project(mode, build_basis(L, 6))
        assert mc.coeff(k) == pytest.approx(1.0, abs=1e-12)
        hit = (mc.basis.modes == k).all(axis=1)
        assert np.max(np.abs(mc.values[~hit])) < 1e-10

        # every coefficient against an explicit Gauss sum, mode by mode
        basis = build_basis(L, 3)
        bump = parse(
            "*".join(f"x{i + 1}*({Li} - x{i + 1})" for i, Li in enumerate(L))
            + "*exp(x1)",
            d,
        )
        q = 12
        mc = project(bump, basis, quad_count=q)
        unit, unit_w = np.polynomial.legendre.leggauss(q)
        axes = [0.5 * Li * (unit + 1.0) for Li in L]
        weights = [0.5 * Li * unit_w for Li in L]
        f = compile_field(bump)
        nodes = list(itertools.product(range(q), repeat=d))
        values = {
            idx: float(f(np.array([axes[i][j] for i, j in enumerate(idx)])))
            for idx in nodes
        }
        for kvec, got in zip(basis.modes, mc.values):
            total = 0.0
            for idx in nodes:
                term = values[idx]
                for i, j in enumerate(idx):
                    term *= (
                        weights[i][j]
                        * math.sqrt(2 / L[i])
                        * math.sin(kvec[i] * PI * axes[i][j] / L[i])
                    )
                total += term
            assert got == pytest.approx(total, abs=1e-13)

    def test_plan_holds_per_axis_nodes(self):
        # the field is evaluated on an open mesh; no array of q^d points
        q = 20
        mesh, mats = ibvp._projection_plan((1.0, 2.0, PI), 6, q)
        assert [x.shape for x in mesh] == [(q, 1, 1), (1, q, 1), (1, 1, q)]
        assert max(a.size for a in (*mesh, *mats)) < q**3


class TestDuhamelBatch:
    """One divided-difference call gives the impulse responses of every
    Duhamel node, each as its own call would."""

    @staticmethod
    def _problem():
        return CauchyProblem(
            "heat-product", 2, 2, (0.6, 1.1), parse("cos(0.7*t)*sin(x1)*sin(2*x2)", 2),
            (parse("sin(x1)*sin(x2)", 2), None))

    @staticmethod
    def _record(monkeypatch):
        calls, exp_dd = [], ibvp.exp_divided_differences

        def recording(roots, t):
            calls.append(np.shape(t))
            return exp_dd(roots, t)

        monkeypatch.setattr(ibvp, "exp_divided_differences", recording)
        return calls

    def test_one_call_per_time(self, monkeypatch):
        calls = self._record(monkeypatch)
        ev = solve_ibvp(self._problem(), build_basis([PI, PI], 6))
        ev.amplitudes(0.8)
        ev.amplitudes(1.3)
        # each time: the data's call, then one for all 32 Duhamel nodes
        assert calls == [(), (32, 1)] * 2

    def test_chunks_match_one_call(self, monkeypatch):
        basis = build_basis([PI, PI], 6)
        whole = solve_ibvp(self._problem(), basis).amplitudes(0.8)
        calls = self._record(monkeypatch)
        monkeypatch.setattr(ibvp, "BATCH_POINTS", 5 * basis.count)
        chunked = solve_ibvp(self._problem(), basis).amplitudes(0.8)
        assert calls == [()] + [(5, 1)] * 6 + [(2, 1)]
        assert chunked.tolist() == whole.tolist()


class TestSynthesis:
    @pytest.mark.parametrize("L", [(PI,), (1.0, 2.0), (1.0, 1.5, 0.8)])
    def test_grid_matches_mode_sum(self, L):
        d = len(L)
        bump = "*".join(f"x{i + 1}*({Li} - x{i + 1})" for i, Li in enumerate(L))
        p = CauchyProblem(
            "wave-multiple", d, 1, (1.0,), None, (parse(bump, d), None)
        )
        basis = build_basis(L, 5)
        ev = solve_ibvp(p, basis)
        points = np.random.default_rng(d).uniform(0.0, 1.0, (20, d)) * L
        t = 0.6
        amps = ev.amplitudes(t)
        expected = []
        for x in points:
            total = 0.0
            for k, amp in zip(basis.modes, amps):
                term = basis.norm * amp
                for ki, xi, Li in zip(k, x, L):
                    term *= math.sin(ki * PI * xi / Li)
                total += term
            expected.append(total)
        assert np.max(np.abs(ev.evaluate(points, [t])[:, 0] - expected)) < 1e-13


class TestWaveSolutions:
    def test_single_mode_exact(self):
        b = build_basis([PI], 12)
        p = CauchyProblem(
            "wave-multiple", 1, 1, (1.0,), None, (parse("sin(x1)", 1), None)
        )
        ev = solve_ibvp(p, b)
        for t in (0.0, 1.0, 2.5):
            assert ev([0.7], t) == pytest.approx(
                math.sin(0.7) * math.cos(t), abs=1e-12
            )

    def test_boundary_trace(self):
        b = build_basis([PI], 12)
        p = CauchyProblem(
            "wave-multiple", 1, 1, (1.0,), None,
            (parse("sin(x1) + 0.3*sin(2*x1)", 1), None),
        )
        ev = solve_ibvp(p, b)
        for t in (0.3, 1.7):
            assert abs(ev([0.0], t)) < 1e-12
            assert abs(ev([PI], t)) < 1e-12

    def test_energy_conserved(self):
        b = build_basis([PI], 12)
        p = CauchyProblem(
            "wave-multiple", 1, 1, (1.3,), None,
            (parse("sin(x1) - 0.2*sin(3*x1)", 1), parse("0.5*sin(2*x1)", 1)),
        )
        ev = solve_ibvp(p, b)
        e0 = ev.energy(0.0)
        for t in np.linspace(0.25, 3.0, 12):
            assert abs(ev.energy(t) - e0) < 1e-8 * max(1.0, e0)

    def test_two_factor_resonant(self):
        b = build_basis([PI], 10)
        p = CauchyProblem(
            "wave-multiple", 1, 2, (1.0, 1.0), None,
            (None, parse("sin(x1)", 1), None, parse("-3*sin(x1)", 1)),
        )
        ev = solve_ibvp(p, b)
        t = 1.2
        assert ev([0.7], t) == pytest.approx(
            math.sin(0.7) * t * math.cos(t), abs=1e-10
        )

    def test_distinct_speeds_beat(self):
        b = build_basis([PI], 10)
        p = CauchyProblem(
            "wave-distinct", 1, 2, (1.0, 2.0), None,
            (None, None, parse("3*sin(x1)", 1), None),
        )
        ev = solve_ibvp(p, b)
        t = 0.8
        exact = math.sin(0.7) * (math.cos(t) - math.cos(2 * t))
        assert ev([0.7], t) == pytest.approx(exact, abs=1e-10)

    def test_wave_source_duhamel(self):
        # f = sin(x1) sin(t) drives T = (sin t - t cos t)/2 on the first mode
        b = build_basis([PI], 10)
        p = CauchyProblem(
            "wave-multiple", 1, 1, (1.0,), parse("sin(x1)*sin(t)", 1),
            (None, None),
        )
        ev = solve_ibvp(p, b)
        t = 1.1
        exact = (math.sin(t) - t * math.cos(t)) / 2 * math.sin(0.7)
        assert ev([0.7], t) == pytest.approx(exact, abs=1e-12)

    def test_two_factor_source_against_oracle(self):
        b = build_basis([PI], 8)
        p = CauchyProblem(
            "wave-multiple", 1, 2, (1.0, 1.0), parse("sin(x1)*sin(t)", 1),
            (None,) * 4,
        )
        ev = solve_ibvp(p, b)
        mp = ModeProblem(
            "wave", (1.0, 1.0), (1.0,), (0.0,) * 4, source=parse("sin(t)", 0)
        )
        t = 0.9
        assert ev([0.7], t) == pytest.approx(
            mode_solve(mp, t) * math.sin(0.7), abs=1e-9
        )

    def test_two_factor_time_reversal(self):
        # the operator is even in t, so T(-t; d_j) = T(t; (-1)^j d_j)
        b = build_basis([PI], 8)
        d = ("sin(x1)", "0.4*sin(2*x1)", "-0.3*sin(x1)", "0.2*sin(3*x1)")

        def solve(signs):
            data = tuple(parse(f"{sg}*({e})", 1) for sg, e in zip(signs, d))
            p = CauchyProblem("wave-multiple", 1, 2, (1.3, 1.3), None, data)
            return solve_ibvp(p, b)

        forward = solve((1, -1, 1, -1))
        backward = solve((1, 1, 1, 1))
        for x, t in ((0.7, 0.9), (2.2, 2.4)):
            assert backward([x], -t) == pytest.approx(forward([x], t), abs=1e-13)

    def test_2d_product_mode(self):
        b = build_basis([PI, PI], 6)
        p = CauchyProblem(
            "wave-multiple", 2, 1, (1.0,), None,
            (parse("sin(x1)*sin(x2)", 2), None),
        )
        ev = solve_ibvp(p, b)
        t = 1.3
        exact = math.sin(0.7) * math.sin(1.1) * math.cos(math.sqrt(2) * t)
        assert ev([0.7, 1.1], t) == pytest.approx(exact, abs=1e-12)

    def test_truncation_consistency(self):
        # doubling the mode cutoff barely moves interior values of smooth data
        p = CauchyProblem(
            "wave-multiple", 1, 1, (1.0,), None,
            (parse("x1*(pi - x1)", 1), None),
        )
        coarse = solve_ibvp(p, build_basis([PI], 12))
        fine = solve_ibvp(p, build_basis([PI], 24))
        # tail bound from the projected data of the finer basis
        tail = np.sum(np.abs(fine.amplitudes(0.0)[12:])) * math.sqrt(2 / PI)
        for x in (0.5, 1.5, 2.5):
            assert abs(coarse([x], 0.7) - fine([x], 0.7)) <= tail + 1e-12


class TestHeatSolutions:
    def test_single_mode(self):
        b = build_basis([PI], 10)
        p = CauchyProblem(
            "heat-product", 1, 1, (1.0,), None, (parse("sin(x1)", 1),)
        )
        ev = solve_ibvp(p, b)
        assert ev([0.7], 0.8) == pytest.approx(
            math.sin(0.7) * math.exp(-0.8), abs=1e-12
        )

    def test_distinct_speeds(self):
        b = build_basis([PI], 10)
        p = CauchyProblem(
            "heat-product", 1, 2, (1.0, 3.0), None,
            (None, parse("2*sin(x1)", 1)),
        )
        ev = solve_ibvp(p, b)
        t = 0.8
        exact = (math.exp(-t) - math.exp(-3 * t)) * math.sin(0.7)
        assert ev([0.7], t) == pytest.approx(exact, abs=1e-12)

    def test_equal_speeds_with_source(self):
        b = build_basis([PI], 8)
        p = CauchyProblem(
            "heat-product", 1, 2, (1.0, 1.0), parse("sin(x1)*cos(t)", 1),
            (None, None),
        )
        ev = solve_ibvp(p, b)
        mp = ModeProblem(
            "heat", (1.0, 1.0), (1.0,), (0.0, 0.0), source=parse("cos(t)", 0)
        )
        t = 0.9
        assert ev([0.7], t) == pytest.approx(
            mode_solve(mp, t) * math.sin(0.7), abs=1e-10
        )


    def test_mixed_cluster_with_source(self):
        b = build_basis([PI], 8)
        p = CauchyProblem(
            "heat-product", 1, 3, (1.0, 1.0, 2.0), parse("sin(x1)*cos(t)", 1),
            (parse("sin(x1)", 1), None, parse("0.5*sin(x1)", 1)),
        )
        ev = solve_ibvp(p, b)
        mp = ModeProblem(
            "heat", (1.0, 1.0, 2.0), (1.0,), (1.0, 0.0, 0.5),
            source=parse("cos(t)", 0),
        )
        for t in (0.4, 1.1):
            assert ev([0.7], t) == pytest.approx(
                mode_solve(mp, t) * math.sin(0.7), abs=1e-10
            )

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12])
    def test_near_equal_speeds_limit(self, delta):
        # speeds closing in on each other tend to the equal-speed answer
        # at the rate of its speed derivative, without 1/delta weights
        b = build_basis([PI], 8)
        data = (parse("sin(x1)", 1), parse("0.5*sin(2*x1)", 1))

        def value(speeds):
            p = CauchyProblem(
                "heat-product", 1, 2, speeds, parse("sin(x1)*cos(t)", 1), data
            )
            return solve_ibvp(p, b)([0.7], 1.0)

        assert abs(value((1.0, 1.0 + delta)) - value((1.0, 1.0))) <= 2 * delta


class TestTimeCheck:
    """The amplitude methods check t as evaluate checks its times, before
    any mode kernel runs."""

    @pytest.mark.parametrize("kind", ["wave-multiple", "heat-product"])
    @pytest.mark.parametrize("method", ["amplitudes", "amplitude_derivatives", "energy"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, kind, method, t):
        heat = kind == "heat-product"
        data = (parse("sin(x1)", 1),) if heat else (parse("sin(x1)", 1), None)
        ev = solve_ibvp(CauchyProblem(kind, 1, 1, (1.0,), None, data),
                        build_basis([PI], 8))
        error, message = ((NegativeDiffusionTime, "heat time must be >= 0 and finite")
                          if heat else (DomainError, "time must be finite"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"{message}, got {t}"):
                getattr(ev, method)(t)


class TestDiagnostics:
    def test_dimension_mismatch(self):
        b = build_basis([PI, PI], 4)
        p = CauchyProblem(
            "heat-product", 1, 1, (1.0,), None, (parse("sin(x1)", 1),)
        )
        with pytest.raises(DataCountMismatch):
            solve_ibvp(p, b)

    def test_boundary_violating_data_warns(self):
        b = build_basis([PI], 8)
        p = CauchyProblem(
            "heat-product", 1, 1, (1.0,), None, (parse("1", 1),)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_ibvp(p, b)
        assert any("boundary" in str(w.message) for w in caught)

    def test_zero_problem(self):
        b = build_basis([PI], 8)
        p = CauchyProblem("wave-multiple", 1, 1, (1.0,), None, (None, None))
        ev = solve_ibvp(p, b)
        assert ev([0.7], 1.0) == 0.0
