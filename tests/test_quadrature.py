"""Gauss rules, sphere means, iterated integrals, and the sinh kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_chebyu, roots_jacobi

from waveforge import quadrature
from waveforge.errors import (
    InvalidInterval,
    InvalidOrder,
    UnresolvedData,
    UnsupportedDimension,
)
from waveforge.expr import parse
from waveforge.quadrature import (
    QuadratureSpec,
    SinhKernel,
    _chebyu_rule,
    _jacobi11_rule,
    centre_sums,
    climb,
    double_factorial,
    gauss_legendre,
    iterated_time_integral,
    sphere_rule,
    spherical_mean,
)


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(0) == 1.0
        assert double_factorial(-1) == 1.0
        assert double_factorial(5) == 15.0
        assert double_factorial(6) == 48.0


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        rule = gauss_legendre(8, 0.0, 2.0)
        # degree 15 polynomial integrated exactly
        vals = rule.nodes**15
        assert rule.integrate(vals) == pytest.approx(2.0**16 / 16, rel=1e-14)

    def test_interval_validation(self):
        with pytest.raises(InvalidInterval):
            gauss_legendre(4, 1.0, 1.0)

    def test_count_validation(self):
        with pytest.raises(InvalidOrder):
            gauss_legendre(0, 0.0, 1.0)

    def test_unit_rule_once_per_count(self, monkeypatch):
        # every rule of one count scales one cached, read-only unit rule
        calls = []

        def counting(count):
            calls.append(count)
            return np.polynomial.legendre.leggauss(count)

        monkeypatch.setattr(quadrature, "leggauss", counting)
        quadrature._unit_rule.cache_clear()
        rules = [gauss_legendre(13, a, b) for a, b in ((0.0, 1.0), (-1.0, 1.0), (0.0, 2.5))]
        iterated_time_integral(np.cos, 2, 0.7, rule_count=13)
        assert calls == [13]
        nodes, weights = quadrature._unit_rule(13)
        assert quadrature._unit_rule(13)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        # the returned rules are scaled copies: changing one reaches no cache
        unit = np.polynomial.legendre.leggauss(13)
        assert rules[1].nodes.tolist() == unit[0].tolist()
        rules[1].nodes[:] = 0.0
        rules[1].weights[:] = 0.0
        again = gauss_legendre(13, -1.0, 1.0)
        assert again.nodes.tolist() == unit[0].tolist()
        assert again.weights.tolist() == unit[1].tolist()
        assert calls == [13]


class TestSphereRules:
    @pytest.mark.parametrize("n", [3, 5])
    def test_weights_normalized(self, n):
        rule = sphere_rule(n, 8)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.allclose((rule.directions**2).sum(axis=1), 1.0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_coordinate_moments(self, n):
        # mean of xi_i^2 over the unit sphere is 1/n; odd moments vanish;
        # E[xi_i^4] = 3/(n(n+2)) and E[xi_i^2 xi_j^2] = 1/(n(n+2)), i != j
        rule = sphere_rule(n, 10)
        xi = rule.directions
        for i in range(n):
            m2 = np.dot(rule.weights, xi[:, i] ** 2)
            assert m2 == pytest.approx(1.0 / n, abs=1e-12)
            m1 = np.dot(rule.weights, xi[:, i])
            assert abs(m1) < 1e-12
            m4 = np.dot(rule.weights, xi[:, i] ** 4)
            assert m4 == pytest.approx(3.0 / (n * (n + 2)), abs=1e-15)
            for j in range(i + 1, n):
                m22 = np.dot(rule.weights, xi[:, i] ** 2 * xi[:, j] ** 2)
                assert m22 == pytest.approx(1.0 / (n * (n + 2)), abs=1e-15)

    @pytest.mark.parametrize("degree", range(2, 25))
    @pytest.mark.parametrize("ours, reference", [
        (_jacobi11_rule, lambda d: roots_jacobi(d, 1.0, 1.0)),
        (_chebyu_rule, roots_chebyu),
    ], ids=["jacobi11", "chebyu"])
    def test_polar_rules_match_scipy(self, ours, reference, degree):
        # the n=5 polar factors; scipy serves only as the reference here
        nodes, weights = ours(degree)
        ref_nodes, ref_weights = reference(degree)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights / weights.sum(),
                                   ref_weights / ref_weights.sum(),
                                   rtol=0, atol=1e-14)

    def test_rule_cached_and_read_only(self):
        rule = sphere_rule(5, 6)
        assert sphere_rule(5, 6) is rule
        assert not rule.directions.flags.writeable
        assert not rule.weights.flags.writeable

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            sphere_rule(4, 8)

    def test_mean_of_exponential_n3(self):
        # mean of e^{x1} over radius-r sphere is sinh(r)/r
        rule = sphere_rule(3, 16)
        r = 1.3
        got = spherical_mean(parse("exp(x1)", 3), [0, 0, 0], r, rule)
        assert got == pytest.approx(math.sinh(r) / r, rel=1e-12)

    def test_mean_of_plane_wave_n5(self):
        # mean of sin(k.x) around x0: multiplies by the radial symbol
        rule = sphere_rule(5, 12)
        e = parse("sin(x1 + 2*x2)", 5)
        x0 = np.array([0.4, -0.1, 0.2, 0.0, 0.3])
        r = 0.9
        kr = math.sqrt(5.0) * r
        # radial factor for n=5: 3 (sin s / s^3 - cos s / s^2)
        factor = 3.0 * (math.sin(kr) / kr**3 - math.cos(kr) / kr**2)
        exact = factor * math.sin(x0[0] + 2 * x0[1])
        got = spherical_mean(e, x0, r, rule)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_zero_radius(self):
        rule = sphere_rule(3, 4)
        e = parse("x1^2 + 5", 3)
        assert spherical_mean(e, [2, 0, 0], 0.0, rule) == pytest.approx(9.0)


class TestCentreSums:
    """The sums and the data's size sum_d w_d |g| come from the same values."""

    @staticmethod
    def _g(pts, offs, t):
        # changes sign on every sphere of radius >= 0.4 used below
        return np.sin(3.0 * pts[..., 0]) - 0.2

    CENTRES = np.array([[0.1, 0.2, -0.3], [1.0, 0.0, 0.5]])
    STEPS = np.array([0.0, 0.4, 1.3])

    def _reduce(self):
        rule = sphere_rule(3, 6)
        return centre_sums(self._g, self.CENTRES, self.STEPS,
                           rule.directions, rule.weights)

    def test_sizes_are_weighted_absolute_values(self):
        rule = sphere_rule(3, 6)
        sums, sizes = self._reduce()
        for p, x in enumerate(self.CENTRES):
            for j, s in enumerate(self.STEPS[1:], 1):
                vals = self._g(x + s * rule.directions, None, 0.0)
                assert vals.min() < 0 < vals.max()
                assert sums[p, j] == pytest.approx(np.dot(rule.weights, vals),
                                                   rel=1e-13)
                assert sizes[p, j] == pytest.approx(
                    np.dot(rule.weights, np.abs(vals)), rel=1e-13)
                assert sizes[p, j] > abs(sums[p, j])

    def test_zero_step_size_is_the_centre_value(self):
        sums, sizes = self._reduce()
        at_centre = self._g(self.CENTRES, None, 0.0)
        assert sums[:, 0].tolist() == at_centre.tolist()
        assert sizes[:, 0].tolist() == np.abs(at_centre).tolist()

    def test_long_rows_give_the_same_sizes(self, monkeypatch):
        # 72 directions a row, summed in chunks of 7 nodes
        sums, sizes = self._reduce()
        monkeypatch.setattr(quadrature, "ROW_CHUNK", 7)
        chunked_sums, chunked_sizes = self._reduce()
        np.testing.assert_allclose(chunked_sums, sums, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(chunked_sizes, sizes, rtol=1e-14, atol=0)


class TestIteratedTimeIntegral:
    def test_single_fold(self):
        got = iterated_time_integral(lambda t: np.ones_like(t), 1, 2.0)
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_double_fold_of_one(self):
        # two folds of 1: t^4 / 8
        got = iterated_time_integral(lambda t: np.ones_like(t), 2, 1.0)
        assert got == pytest.approx(1.0 / 8.0, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_collapse_matches_nested(self, m, p):
        # the collapsed weight reproduces literal nesting for monomials
        t = 1.1

        def nested(g, folds, upper):
            if folds == 0:
                return g(upper)
            nodes, weights = np.polynomial.legendre.leggauss(48)
            tau = 0.5 * upper * (nodes + 1.0)
            w = 0.5 * upper * weights
            inner = np.array([nested(g, folds - 1, u) for u in tau])
            return float(np.dot(w, inner * tau))

        collapsed = iterated_time_integral(lambda tau: tau**p, m, t, 48)
        literal = nested(lambda tau: tau**p, m, t)
        assert collapsed == pytest.approx(literal, rel=1e-12, abs=1e-13)

    def test_fold_count_validation(self):
        with pytest.raises(InvalidOrder):
            iterated_time_integral(lambda t: t, 0, 1.0)


class TestSinhKernel:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("kvec", [(1.0, 0.0), (1.2, 0.9)])
    def test_symbol_on_plane_waves(self, n, kvec):
        # applying the kernel to sin(k.x) multiplies by sin(a|k|t)/(a|k|)
        a = 1.3
        k1, k2 = kvec
        e = parse(f"sin({k1}*x1 + {k2}*x2)", n)
        x = np.zeros(n)
        x[0], x[1] = 0.5, -0.3
        mag = math.hypot(k1, k2)
        spec = QuadratureSpec(sphere_degree=12)
        kern = SinhKernel(e, a, spec)
        for t in (0.4, 1.0):
            exact = (
                math.sin(a * mag * t) / (a * mag)
                * math.sin(k1 * x[0] + k2 * x[1])
            )
            assert kern.apply(x, t) == pytest.approx(exact, abs=5e-13)

    @pytest.mark.parametrize("n", [3, 5])
    def test_cosh_on_plane_waves(self, n):
        # C_a = d/dt S_a multiplies sin(k.x) by cos(a|k|t); at t = 0 it is
        # the identity
        a, k1, k2 = 1.3, 1.2, 0.9
        e = parse(f"sin({k1}*x1 + {k2}*x2)", n)
        x = np.array([0.5, -0.3, 0.2, 0.1, -0.4][:n])
        mag = math.hypot(k1, k2)
        # at n = 3, a|k|t = 3.9 leaves degrees 8 and 12 apart by 3e-9
        spec = QuadratureSpec(sphere_degree=16 if n == 3 else 12)
        ts = np.array([0.0, 0.5, 2.0, -1.5])
        got, _ = SinhKernel(e, a, spec, cosh=True).apply_many(x, ts, cosh=True)
        exact = np.cos(a * mag * ts) * math.sin(k1 * x[0] + k2 * x[1])
        assert np.allclose(got, exact, rtol=0, atol=1e-13)
        assert got[0] == math.sin(k1 * x[0] + k2 * x[1])

    def test_zero_time(self):
        e = parse("exp(x1)", 3)
        assert SinhKernel(e, 1.0).apply([0.3, 0, 0], 0.0) == 0.0

    def test_small_time_linear(self):
        # sinh(at sqrt(Lap))/(a sqrt(Lap)) f ~ t f as t -> 0
        e = parse("exp(-(x1^2+x2^2+x3^2))", 3)
        x = [0.2, 0.1, -0.3]
        t = 1e-6
        got = SinhKernel(e, 2.0).apply(x, t)
        from waveforge.expr import eval_real

        assert got == pytest.approx(t * eval_real(e, x), rel=1e-9)

    def test_even_dimension_rejected(self):
        with pytest.raises(UnsupportedDimension):
            SinhKernel(parse("x1", 2), 1.0)

    def test_escalation_is_per_entry(self, monkeypatch):
        # sin(4 x1) climbs further as the radius grows, except at t = 0 and
        # at x1 = 0, where every rule gives the exact mean
        kern = SinhKernel(parse("sin(4*x1)", 3), 1.0)
        assert kern.rungs == (4, 6, 8, 12, 16)
        points = np.array([[0.3, 0.1, 0.0], [1.1, 0.2, -0.4], [0.0, 0.5, 0.2]])
        ts = np.array([0.0, 0.2, 0.8, 1.5])
        asked = {}  # directions: entries asked on that rule, in rung order
        sums = quadrature.centre_sums

        def recording(g, centres, steps, nodes, w, t):
            asked[len(w)] = asked.get(len(w), 0) + len(centres) * len(steps)
            return sums(g, centres, steps, nodes, w, t)

        monkeypatch.setattr(quadrature, "centre_sums", recording)
        batch, _ = kern.apply_many(points, ts)
        rungs = list(asked.items())
        # the n = 3 degree-d rule has 2 d^2 directions
        assert [count for count, _ in rungs] == [2 * d * d for d in kern.rungs]
        assert rungs[0][1] == rungs[1][1] == 12
        assert 0 < rungs[2][1] < 12 and 0 < rungs[-1][1] < rungs[2][1]
        single = np.array([[kern.apply(p, t) for t in ts] for p in points])
        assert np.array_equal(batch, single)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 64)
        assert np.array_equal(kern.apply_many(points, ts)[0], single)
        exact = np.sin(4 * ts) / 4 * np.sin(4 * points[:, :1])
        assert np.max(np.abs(batch - exact)) <= 1e-14

    def test_top_rung_is_the_sphere_degree(self):
        e = parse("sin(x1)", 3)
        kern = SinhKernel(e, 1.0, QuadratureSpec(sphere_degree=10))
        assert kern.rungs == (4, 6, 8, 10)
        assert kern.rule is sphere_rule(3, 10)
        # a top at or below the first rung is one fixed rule, never checked
        kern = SinhKernel(parse("sin(20*x1)", 3), 1.0, QuadratureSpec(sphere_degree=4))
        assert kern.rungs == (4,)
        x, t = np.array([0.3, -0.2, 0.5]), 2.0
        rule = sphere_rule(3, 4)
        fixed = t * spherical_mean(parse("sin(20*x1)", 3), x, t, rule)
        assert kern.apply(x, t) == fixed

    def test_past_the_top_rung(self):
        kern = SinhKernel(parse("sin(20*x1)", 3), 1.0)
        with pytest.raises(UnresolvedData, match=(
                r"sphere means of sin\(20\*x1\) at t = 2.0, x = \[0.3, -0.2, 0.5\]: "
                r"the degree-12 and degree-16 sphere rules differ by")):
            kern.apply([0.3, -0.2, 0.5], 2.0)

    def test_batched_matches_single(self):
        e = parse("sin(x1)*cos(x2)", 3)
        kern = SinhKernel(e, 1.1)
        x = np.array([0.3, 0.4, -0.2])
        ts = np.array([0.2, 0.0, 0.9])
        batch, _ = kern.apply_many(x, ts)
        for i, t in enumerate(ts):
            assert batch[i] == pytest.approx(kern.apply(x, t), abs=1e-15)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(InvalidOrder):
            QuadratureSpec(n_time=1)

    @given(st.integers(2, 40))
    @settings(max_examples=20, deadline=None)
    def test_gauss_weight_sum(self, count):
        rule = gauss_legendre(count, -1.0, 3.0)
        assert rule.weights.sum() == pytest.approx(4.0, rel=1e-13)


class TestClimb:
    RUNGS = (2, 3, 5, 8)

    @staticmethod
    def _sums(stop, calls):
        """Synthetic rules: entry e on rung r gives 1 + r 1e-12 from the rung
        stop[e] on, so neighbours agree there, and r below it; its size is
        1 + e.  Each block asked for is recorded as (rung, rows, cols)."""
        stop = np.asarray(stop)
        size = 1.0 + np.arange(stop.size).reshape(stop.shape)

        def sums(rung, rows, cols):
            calls.append((rung, rows.copy(), cols.copy()))
            block = np.ix_(rows, cols)
            vals = np.where(rung >= stop[block], 1.0 + rung * 1e-12, float(rung))
            return vals, size[block]
        return sums

    @staticmethod
    def _asked(calls, shape):
        """Per rung, in order, how often each entry was asked for."""
        asked = {}
        for rung, rows, cols in calls:
            asked.setdefault(rung, np.zeros(shape, dtype=int))[np.ix_(rows, cols)] += 1
        return asked

    def test_entries_stop_on_different_rungs(self):
        stop = [[2, 3, 5], [2, 5, 3]]
        calls = []
        out, mag = climb(self.RUNGS, self._sums(stop, calls), (2, 3),
                         lambda entry, lo, hi: "never")
        # accepted on the upper rule of the first agreeing pair: 3, 5 or 8
        upper = {2: 3, 3: 5, 5: 8}
        want = [[1.0 + upper[s] * 1e-12 for s in row] for row in stop]
        assert out.tolist() == want
        assert mag.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        # each rung asks once for each entry still climbing, and for no other
        asked = self._asked(calls, (2, 3))
        assert list(asked) == [2, 3, 5, 8]
        assert (asked[2] == 1).all() and (asked[3] == 1).all()
        assert asked[5].tolist() == [[0, 1, 1], [0, 1, 1]]
        assert asked[8].tolist() == [[0, 0, 1], [0, 1, 0]]

    def test_blocks_are_pending_products(self):
        # columns 0 and 2 stay pending at the same rows; 0 and 3 differ on
        # rung 5 and agree on rung 8
        stop = np.array([[2, 5, 2, 3], [5, 3, 5, 5], [2, 5, 2, 2]])
        calls = []
        climb(self.RUNGS, self._sums(stop, calls), stop.shape,
              lambda entry, lo, hi: "never")
        for rung, rows, cols in calls:
            i = self.RUNGS.index(rung)
            # pending on rung i: no pair below it agreed
            pending = stop > self.RUNGS[i - 2] if i >= 2 else np.ones_like(stop, bool)
            for j in cols:
                # every entry of the block pending, and the column's every
                # pending row in it
                assert np.flatnonzero(pending[:, j]).tolist() == rows.tolist()
        blocks = [(rung, rows.tolist(), cols.tolist()) for rung, rows, cols in calls]
        assert sorted(blocks) == [
            (2, [0, 1, 2], [0, 1, 2, 3]), (3, [0, 1, 2], [0, 1, 2, 3]),
            (5, [0, 1], [3]), (5, [0, 1, 2], [1]), (5, [1], [0, 2]),
            (8, [0, 2], [1]), (8, [1], [0, 2, 3])]

    def test_all_pending_is_one_block(self, monkeypatch):
        # nothing agrees below rung 5, so rungs 2, 3 and 5 each ask for the
        # whole array at once, without grouping columns; rung 8 asks for
        # the two entries whose pair (3, 5) differed, in separate blocks
        stop = [[3, 3, 5], [5, 3, 3]]
        calls, grouped = [], []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: grouped.append(1)
                            or unique(*a, **k))
        climb(self.RUNGS, self._sums(stop, calls), (2, 3),
              lambda entry, lo, hi: "never")
        blocks = [(rung, rows.tolist(), cols.tolist()) for rung, rows, cols in calls]
        assert blocks[:3] == [(r, [0, 1], [0, 1, 2]) for r in (2, 3, 5)]
        assert sorted(blocks[3:]) == [(8, [0], [2]), (8, [1], [0])]
        assert len(grouped) == 1

    def test_one_rung_is_unchecked(self):
        calls = []
        out, mag = climb((4,), self._sums([[6], [4]], calls), (2, 1),
                         lambda entry, lo, hi: "never")
        assert out.tolist() == [[4.0], [1.0 + 4e-12]]
        assert mag.tolist() == [[1.0], [2.0]] and len(calls) == 1

    def test_two_rungs(self):
        calls = []
        out, mag = climb((4, 6), self._sums([[4], [4]], calls), (2, 1),
                         lambda entry, lo, hi: "never")
        assert out.tolist() == [[1.0 + 6e-12]] * 2
        assert mag.tolist() == [[1.0], [2.0]]
        with pytest.raises(UnresolvedData, match="the 4- and 6-node rules"):
            climb((4, 6), self._sums([[4], [6]], []), (2, 1),
                  lambda entry, lo, hi: f"entry {entry}: the {lo}- and {hi}-node rules")

    def test_past_the_top(self):
        stop = [[2, 3, 5], [9, 5, 9]]
        with pytest.raises(UnresolvedData) as err:
            climb(self.RUNGS, self._sums(stop, []), (2, 3),
                  lambda entry, lo, hi: f"entry {entry}: rules {lo} and {hi}")
        # the first unresolved entry; the top pair gives 8 and 5
        assert str(err.value) == (
            "entry (1, 0): rules 5 and 8 differ by 3, more than 1e-10 of the "
            "data's size 4")
