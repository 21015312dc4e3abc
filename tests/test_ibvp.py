"""Box eigenbasis, projection, and the initial-boundary solver."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from waveforge import ibvp
from waveforge.errors import (
    DataCountMismatch,
    DomainError,
    InvalidBox,
    InvalidOrder,
    NegativeDiffusionTime,
    UnresolvedData,
)
from waveforge.expr import Mesh, compile_field, parse
from waveforge.ibvp import IbvpEvaluator, build_basis, project, solve_ibvp
from waveforge.oracle import ModeProblem, mode_solve
from waveforge.problems import CauchyProblem
from waveforge.quadrature import QuadratureSpec

PI = math.pi


def _coeff(values, basis, k):
    """The coefficient of mode k in a projection onto ``basis``."""
    return values.reshape((basis.k_max,) * basis.d)[tuple(np.subtract(k, 1))]


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

    @pytest.mark.parametrize("k_max", [2.5, 3.0, math.nan, "3"])
    def test_k_max_must_be_an_integer(self, k_max):
        # 2.5 built 3 float modes under k_max 2, and NaN failed in numpy
        with pytest.raises(InvalidBox, match="k_max must be an integer"):
            build_basis([PI], k_max)

    def test_numpy_integer_k_max_accepted(self):
        b = build_basis([PI, 1.0], np.int64(3))
        assert b.count == 9 and b.modes.dtype.kind == "i"
        # the mode count is an exact integer, not a wrapped int32
        with pytest.raises(InvalidBox, match="k_max = 2000 gives 8000000000 modes"):
            build_basis([1.0] * 3, np.int32(2000))

    def test_mode_count_bounded(self):
        # checked before any mode array exists: 2000^3 would be 64 GB
        assert build_basis([1.0] * 3, 101).count == 101**3
        for L, k_max in (([1.0] * 3, 102), ([1.0] * 3, 2000), ([1.0] * 2, 1025)):
            with pytest.raises(InvalidBox, match=f"k_max = {k_max} gives"):
                build_basis(L, k_max)


class TestProjection:
    def test_projects_own_mode(self):
        b = build_basis([PI], 8)
        values = project(parse("sqrt(2/pi)*sin(x1)", 1), b)
        assert values.shape == (8,)
        assert _coeff(values, b, [1]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(values[1:])) < 1e-10

    def test_zero_field(self):
        b = build_basis([PI], 8)
        values = project(parse("0", 1), b)
        assert np.max(np.abs(values)) == 0.0

    def test_parabola_series(self):
        # x(pi - x) on [0, pi]: orthonormal coefficients
        # c_k = sqrt(2/pi) * 2 (1 - (-1)^k) / k^3
        b = build_basis([PI], 8)
        values = project(parse("x1*(pi - x1)", 1), b)
        for k in range(1, 9):
            exact = math.sqrt(2 / PI) * 2 * (1 - (-1) ** k) / k**3
            assert _coeff(values, b, [k]) == pytest.approx(exact, abs=1e-12)

    def test_parseval_partial_sums(self):
        b = build_basis([PI], 16)
        values = project(parse("x1*(pi - x1)", 1), b)
        partial = np.cumsum(values**2)
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
        b = build_basis(L, 6)
        values = project(mode, b)
        assert _coeff(values, b, k) == pytest.approx(1.0, abs=1e-12)
        hit = (b.modes == k).all(axis=1)
        assert np.max(np.abs(values[~hit])) < 1e-10

        # every coefficient against an explicit Gauss sum, mode by mode
        basis = build_basis(L, 3)
        bump = parse(
            "*".join(f"x{i + 1}*({Li} - x{i + 1})" for i, Li in enumerate(L))
            + "*exp(x1)",
            d,
        )
        q = 12
        values = project(bump, basis, quad_count=q)
        unit, unit_w = np.polynomial.legendre.leggauss(q)
        axes = [0.5 * Li * (unit + 1.0) for Li in L]
        weights = [0.5 * Li * unit_w for Li in L]
        f = compile_field(bump)
        nodes = list(itertools.product(range(q), repeat=d))
        at_nodes = {
            idx: float(f(np.array([axes[i][j] for i, j in enumerate(idx)])))
            for idx in nodes
        }
        for kvec, got in zip(basis.modes, values):
            total = 0.0
            for idx in nodes:
                term = at_nodes[idx]
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
    """One divided-difference call per time gives the data's divided
    differences and the impulse responses of every Duhamel node, each as
    its own call would."""

    @staticmethod
    def _problem(source="cos(0.7*t)*sin(x1)*sin(2*x2)"):
        return CauchyProblem(
            "heat-product", 2, 2, (0.6, 1.1), source and parse(source, 2),
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
        # each time: one call over the data's time and the 32 Duhamel nodes
        assert calls == [(33, 1)] * 2
        # at t = 0, and without a source, there is no Duhamel integral
        ev.amplitudes(0.0)
        solve_ibvp(self._problem(None), build_basis([PI, PI], 6)).amplitudes(0.8)
        assert calls[2:] == [(), ()]

    def test_chunks_match_one_call(self, monkeypatch):
        basis = build_basis([PI, PI], 6)
        whole = solve_ibvp(self._problem(), basis).amplitudes(0.8)
        calls = self._record(monkeypatch)
        monkeypatch.setattr(ibvp, "BATCH_POINTS", 5 * basis.count)
        chunked = solve_ibvp(self._problem(), basis).amplitudes(0.8)
        # the data's time and 32 nodes, five times per call
        assert calls == [(5, 1)] * 6 + [(3, 1)]
        assert chunked.tolist() == whole.tolist()


class TestBlockProjection:
    """A block of times projects in one field call, each row bit for bit
    its own time's projection; the Duhamel source goes in blocks of at
    most BATCH_POINTS field values."""

    @pytest.mark.parametrize("L, k_max", [
        ((PI,), 6), ((PI,), 1), ((1.0, 2.0), 5), ((1.0, 2.0), 1),
        ((1.0, 1.5, 0.8), 4), ((1.0, 1.5, 0.8), 1)])
    @pytest.mark.parametrize("text", ["sin(x1)*cos(0.7*t)", "exp(-t*x1) + t^2",
                                      "x1*(1 - x1)"])
    def test_rows_match_single_times(self, L, k_max, text):
        # k_max 1 and d = 1 included, where one time's contractions are
        # matrix-vector products, which BLAS sums in another order than
        # matrix products: a block still makes one product per time
        basis = build_basis(L, k_max)
        f = compile_field(parse(text, len(L)))
        ts = np.linspace(0.05, 1.6, 7)
        block = project(f, basis, t=ts)
        assert block.shape == (ts.size, basis.count)
        for row, t in zip(block, ts):
            assert row.tolist() == project(f, basis, t=t).tolist()

    def test_source_blocks_within_bound(self, monkeypatch):
        # q = 32 Gauss nodes per axis: 2 Duhamel nodes of 32^3 values each
        # per field call, and every field the solver compiles is recorded
        sizes, compile_field_ = [], ibvp.compile_field

        def recording_compile(e):
            f = compile_field_(e)

            def field(X, t=0.0):
                sizes.append(math.prod(np.broadcast_shapes(
                    *(np.shape(x) for x in X), np.shape(t))))
                return f(X, t)
            return field

        monkeypatch.setattr(ibvp, "compile_field", recording_compile)
        p = CauchyProblem("wave-multiple", 3, 1, (0.9,),
                          parse("cos(t)*sin(x1)*sin(x2)*sin(2*x3)", 3),
                          (parse("sin(x1)*sin(x2)*sin(x3)", 3), None))
        ev = solve_ibvp(p, build_basis([PI] * 3, 4))
        sizes.clear()
        ev.amplitudes(0.9)
        assert sizes == [ibvp.BATCH_POINTS] * 16

        # 2-D, 36 modes, 32^2 values per node, 100 nodes: kernel calls of 56
        # entries and blocks of 2 nodes, which end where a call ends, so
        # each node is projected once and the values are as one call's
        p = TestDuhamelBatch._problem()
        basis, spec = build_basis([PI, PI], 6), QuadratureSpec(n_time=100)
        whole = solve_ibvp(p, basis, spec).amplitudes(0.8)
        monkeypatch.setattr(ibvp, "BATCH_POINTS", 2 * 32**2)
        ev = solve_ibvp(p, basis, spec)
        sizes.clear()
        assert ev.amplitudes(0.8).tolist() == whole.tolist()
        assert max(sizes) == 2 * 32**2 and sum(sizes) == 100 * 32**2

    def test_blocks_match_single_nodes(self, monkeypatch):
        # blocks of 3 nodes, blocks of 2, and one node at a time
        p = CauchyProblem("heat-product", 3, 2, (0.6, 1.1),
                          parse("cos(t)*sin(x1)*x2*(2 - x2)*sin(2*x3)", 3),
                          (parse("sin(x1)*sin(pi*x2)*sin(x3)", 3), None))
        basis = build_basis([PI, 2.0, PI], 4)
        default = solve_ibvp(p, basis).amplitudes(0.9)
        for nodes in (3, 1):
            monkeypatch.setattr(ibvp, "BATCH_POINTS", nodes * 32**3)
            got = solve_ibvp(p, basis).amplitudes(0.9)
            assert got.tolist() == default.tolist()

    def test_many_nodes_small_box(self):
        # k_max 1 takes all 1,025 times in one kernel call; the blocks keep
        # the projections to 2 nodes of 32^3 values at a time, where the
        # whole chunk at once would hold 256 MiB
        p = CauchyProblem("heat-product", 3, 1, (1.0,),
                          parse("sin(x1)*sin(x2)*sin(x3)*cos(t)", 3),
                          (parse("sin(x1)*sin(x2)*sin(x3)", 3),))
        ev = solve_ibvp(p, build_basis([PI] * 3, 1), QuadratureSpec(n_time=1024))
        t = 0.9
        tracemalloc.start()
        try:
            amp = ev.amplitudes(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # T' + 3 T = c cos(t), T(0) = c, c = (pi/2)^(3/2) the data's coefficient
        c = (PI / 2) ** 1.5
        exact = c * math.exp(-3 * t) + c * (3 * math.cos(t) + math.sin(t)
                                            - 3 * math.exp(-3 * t)) / 10
        assert amp.tolist() == pytest.approx([exact], rel=1e-14)


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


    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_points_outside_the_box_rejected(self, axis, side):
        # the walls are in the box, where the series vanishes; a coordinate
        # past one raises, as a point and on a mesh
        L = (1.0, 2.0)
        p = CauchyProblem("wave-multiple", 2, 1, (1.0,), None,
                          (parse("x1*(1 - x1)*x2*(2 - x2)", 2), None))
        ev = solve_ibvp(p, build_basis(L, 5))
        corners = np.array(list(itertools.product((0.0, 1.0), (0.0, 2.0))))
        assert np.all(np.abs(ev.evaluate(corners, [0.6])) < 1e-12)
        x, wall = (L[axis] + 1e-9, repr(L[axis])) if side == "above" else (-1e-9, "0")
        past = np.array([[0.5, 1.0]])
        past[0, axis] = x
        message = f"x{axis + 1} = {x!r} lies outside the box, {side} its wall at {wall}"
        for X in (past, Mesh(np.meshgrid(*past.T, indexing="ij", sparse=True))):
            with pytest.raises(DomainError, match=re.escape(message) + "$"):
                ev.evaluate(X, [0.6])


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

    def test_distinct_equal_speeds_are_wave_multiple(self):
        # a repeated speed is a repeated root of each mode, bit for bit the
        # same as wave-multiple
        b = build_basis([PI, PI], 6)
        data = (parse("sin(x1)*sin(2*x2)", 2), None, None,
                parse("x1*(x1 - pi)*sin(x2)", 2))
        points = np.array([[0.7, 0.4], [2.0, 1.5]])

        def values(kind):
            p = CauchyProblem(kind, 2, 2, (1.0, 1.0), parse("sin(x1)*sin(x2)*t", 2), data)
            return solve_ibvp(p, b).evaluate(points, [0.0, 0.8, 1.9])

        assert values("wave-distinct").tobytes() == values("wave-multiple").tobytes()

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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: a series that outruns its basis is silently wrong"))
    def test_data_past_the_basis_not_silent(self):
        # sin(25 x1) on [0, pi] is mode 25, past k_max 24: the series holds
        # none of it.  A value must be right, or be refused
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None,
                          (parse("sin(25*x1)", 1),))
        try:
            got = solve_ibvp(p, build_basis([PI], 24))([0.3], 1e-3)
        except UnresolvedData:
            return
        assert got == pytest.approx(math.exp(-0.625) * math.sin(7.5), rel=1e-10)


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


    @pytest.mark.parametrize("method", ["amplitude_derivatives", "energy"])
    def test_bad_time_reported_before_the_order(self, method):
        # an m = 2 sourced wave has no amplitude derivatives, and a bad time
        # is still what is reported
        p = CauchyProblem("wave-multiple", 1, 2, (1.0, 1.0), parse("sin(x1)*t", 1),
                          (parse("sin(x1)", 1), None, None, None))
        ev = solve_ibvp(p, build_basis([PI], 8))
        with pytest.raises(DomainError, match="time must be finite"):
            getattr(ev, method)(math.nan)
        with pytest.raises(InvalidOrder, match="amplitude derivatives available only"):
            getattr(ev, method)(0.5)


class TestEvaluator:
    """IbvpEvaluator is the box solver, and solve_ibvp only constructs it."""

    @staticmethod
    def _heat_source():
        mode = "sin(x1)*sin(2*x2)"
        return CauchyProblem("heat-product", 2, 2, (0.6, 1.1),
                             parse(f"cos(0.7*t)*{mode}", 2),
                             (parse(f"0.5*{mode}", 2), parse(f"-0.3*{mode}", 2)))

    @staticmethod
    def _wave():
        return CauchyProblem("wave-multiple", 2, 1, (1.3,), None,
                             (parse("x1*(3 - x1)*sin(x2)", 2), parse("sin(2*x1)*x2*(2 - x2)", 2)))

    @pytest.mark.parametrize("make, L", [("_heat_source", (PI, PI)), ("_wave", (3.0, 2.0))])
    def test_direct_construction_matches_solve_ibvp(self, make, L):
        p, basis, spec = getattr(self, make)(), build_basis(L, 6), QuadratureSpec(n_time=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct, solved = IbvpEvaluator(p, basis, spec), solve_ibvp(p, basis, spec)
        points = np.random.default_rng(3).uniform(0.0, 1.0, (7, 2)) * L
        times = [0.0, 0.4, 1.1]
        for t in times:
            assert direct.amplitudes(t).tolist() == solved.amplitudes(t).tolist()
        assert direct.evaluate(points, times).tolist() == solved.evaluate(points, times).tolist()
        if p.kind == "wave-multiple":
            assert direct.energy(0.7) == solved.energy(0.7)
            assert (direct.amplitude_derivatives(0.7).tolist()
                    == solved.amplitude_derivatives(0.7).tolist())

    @pytest.mark.parametrize("m, source", [(1, "sin(x1)*sin(t)"), (2, None)])
    def test_energy_refused_before_any_mode_kernel(self, monkeypatch, m, source):
        # energy computed the amplitudes, a sourced problem's whole Duhamel
        # sum included, before it refused the problem
        p = CauchyProblem("wave-multiple", 1, m, (1.0,) * m,
                          None if source is None else parse(source, 1),
                          (parse("sin(x1)", 1),) + (None,) * (2 * m - 1))
        ev = solve_ibvp(p, build_basis([PI], 8))
        calls, exp_dd = [], ibvp.exp_divided_differences

        def counted(*args):
            calls.append(args)
            return exp_dd(*args)

        monkeypatch.setattr(ibvp, "exp_divided_differences", counted)
        with pytest.raises(InvalidOrder, match="amplitude derivatives available only"):
            ev.energy(0.5)
        assert calls == []

    def test_energy_one_kernel_call(self, monkeypatch):
        # the amplitudes and their derivatives share one divided-difference
        # call, and give the energy of the two apart bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ev = solve_ibvp(self._wave(), build_basis((3.0, 2.0), 6))
        amps, ders = ev.amplitudes(0.7), ev.amplitude_derivatives(0.7)
        a2_lam = 1.3 * 1.3 * ev.basis.eigenvalues
        apart = float(np.sum(ders**2 + a2_lam * amps**2))
        calls, exp_dd = [], ibvp.exp_divided_differences

        def counted(*args):
            calls.append(args)
            return exp_dd(*args)

        monkeypatch.setattr(ibvp, "exp_divided_differences", counted)
        assert ev.energy(0.7) == apart
        assert len(calls) == 1


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

    @pytest.mark.parametrize("build", [solve_ibvp, IbvpEvaluator])
    def test_boundary_warning_points_at_the_call(self, build):
        p = CauchyProblem("heat-product", 1, 1, (1.0,), None, (parse("1", 1),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build(p, build_basis([PI], 8))
        assert [w.filename for w in caught] == [__file__]

    def test_zero_problem(self):
        b = build_basis([PI], 8)
        p = CauchyProblem("wave-multiple", 1, 1, (1.0,), None, (None, None))
        ev = solve_ibvp(p, b)
        assert ev([0.7], 1.0) == 0.0

    def test_heat_has_no_energy(self):
        # the wave energy of a heat box's amplitudes would be a meaningless
        # number (1.1557 here); a bad time is still reported as a bad time
        ev = solve_ibvp(CauchyProblem("heat-product", 1, 1, (1.0,), None,
                                      (parse("sin(x1)", 1),)),
                        build_basis([PI], 8))
        with pytest.raises(InvalidOrder, match="energy is defined for the "
                                               "single-factor wave"):
            ev.energy(0.5)
        with pytest.raises(NegativeDiffusionTime):
            ev.energy(-0.5)


class TestTimeLoopMemory:
    def test_amplitudes_do_not_accumulate(self):
        # one time's amplitudes at a time: 2,000 times of 576 modes held for
        # the evaluator's life would peak at 9.2 MB
        ev = solve_ibvp(CauchyProblem("heat-product", 2, 1, (1.0,), None,
                                      (parse("sin(x1)*sin(x2)", 2),)),
                        build_basis([PI, PI], 24))
        times = np.linspace(0.0, 1.0, 2000)
        tracemalloc.start()
        try:
            values = ev.evaluate(np.array([[0.5, 1.0]]), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        exact = np.exp(-2 * times) * math.sin(0.5) * math.sin(1.0)
        assert np.allclose(values[0], exact, rtol=0, atol=1e-13)
