"""Gauss rules, sphere means, iterated integrals, and the sinh kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, roots_jacobi

from waveforge import quadrature
from waveforge.errors import (
    DomainError,
    InvalidInterval,
    InvalidOrder,
    UnresolvedData,
    UnsupportedDimension,
)
from waveforge.expr import parse
from waveforge.quadrature import (
    QuadratureSpec,
    SPHERE_LADDER,
    SinhKernel,
    _polar_rule,
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
        assert np.dot(rule.weights, vals) == pytest.approx(2.0**16 / 16, rel=1e-14)

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


def _monomials(x, top):
    """Exponents alpha (M, k) of every monomial of degree at most ``top`` in
    k variables, and its values x^alpha (D, M) at the rows of x (D, k)."""
    k = x.shape[1]
    alphas = np.indices((top + 1,) * k).reshape(k, -1).T
    alphas = alphas[alphas.sum(axis=1) <= top]
    vals = np.ones((len(x), len(alphas)))
    for i in range(k):
        vals *= x[:, i:i + 1] ** alphas[:, i]
    return alphas, vals


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
    @pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["jacobi11", "chebyu"])
    def test_polar_rules_match_scipy(self, alpha, degree):
        # the n=5 polar factors, weight (1-u^2)^alpha; scipy serves only as
        # the reference here
        nodes, weights = _polar_rule(degree, alpha)
        ref_nodes, ref_weights = roots_jacobi(degree, alpha, alpha)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights / weights.sum(),
                                   ref_weights / ref_weights.sum(),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, degree", [(3, d) for d in SPHERE_LADDER]
                             + [(5, 4), (5, 6), (5, 8)])
    def test_monomial_means_exact(self, n, degree):
        # every monomial x^alpha of degree below 2 degree has its closed-form
        # mean (Folland, Amer. Math. Monthly 108, 2001): 0 if any alpha_i is
        # odd, else Gamma(n/2) prod Gamma(b_i) / (pi^(n/2) Gamma(sum b_i))
        # with b_i = (alpha_i + 1) / 2
        rule = sphere_rule(n, degree)
        top = 2 * degree - 1
        # the monomials in the first h coordinates times those in the rest
        h = n // 2
        left, lvals = _monomials(rule.directions[:, :h], top)
        right, rvals = _monomials(rule.directions[:, h:], top)
        means = (rule.weights[:, None] * lvals).T @ rvals
        keep = left.sum(axis=1)[:, None] + right.sum(axis=1) <= top
        li, ri = np.nonzero(keep)
        alphas = np.concatenate([left[li], right[ri]], axis=1)
        b = (alphas + 1) / 2
        exact = np.exp(gammaln(n / 2) + gammaln(b).sum(axis=1)
                       - n / 2 * math.log(math.pi) - gammaln(b.sum(axis=1)))
        exact[(alphas % 2).any(axis=1)] = 0.0
        np.testing.assert_allclose(means[keep], exact, rtol=0, atol=1e-14)

    def test_too_many_directions_rejected(self):
        # 2 d^(n-1) directions, at most 2^22: d <= 1448 at n = 3, 38 at n = 5
        quadrature.check_sphere(3, 1448)
        quadrature.check_sphere(5, 38)
        for n, degree in ((3, 1449), (5, 39), (3, 30000)):
            with pytest.raises(InvalidOrder, match=rf"sphere_degree = {degree} gives"):
                sphere_rule(n, degree)

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
        # changes sign on every sphere of radius >= 0.4 used below; the
        # points come as per-axis coordinate arrays
        return np.sin(3.0 * pts[0]) - 0.2

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
                vals = self._g(tuple((x + s * rule.directions).T), None, 0.0)
                assert vals.min() < 0 < vals.max()
                assert sums[p, j] == pytest.approx(np.dot(rule.weights, vals),
                                                   rel=1e-13)
                assert sizes[p, j] == pytest.approx(
                    np.dot(rule.weights, np.abs(vals)), rel=1e-13)
                assert sizes[p, j] > abs(sums[p, j])

    def test_zero_step_size_is_the_centre_value(self):
        sums, sizes = self._reduce()
        at_centre = self._g(tuple(self.CENTRES.T), None, 0.0)
        assert sums[:, 0].tolist() == at_centre.tolist()
        assert sizes[:, 0].tolist() == np.abs(at_centre).tolist()

    def test_long_rows_give_the_same_sizes(self, monkeypatch):
        # 72 directions a row, summed in chunks of 7 nodes
        sums, sizes = self._reduce()
        monkeypatch.setattr(quadrature, "ROW_CHUNK", 7)
        chunked_sums, chunked_sizes = self._reduce()
        np.testing.assert_allclose(chunked_sums, sums, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(chunked_sizes, sizes, rtol=1e-14, atol=0)

    # per step: three source times and their weights, some negative
    SIGMAS = np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.7], [0.3, 0.6, 0.8]])
    OMEGAS = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6], [0.2, 0.2, 0.2]])

    @staticmethod
    def _gt(pts, offs, t):
        return np.sin(3.0 * pts[0]) * np.cos(2.0 * t) - 0.2 * t

    def _weighted(self, g=None, centres=None):
        rule = sphere_rule(3, 6)
        return centre_sums(g or self._gt, self.CENTRES if centres is None else centres,
                           self.STEPS, rule.directions, rule.weights,
                           self.SIGMAS, self.OMEGAS)

    def test_source_times_weighted_before_the_node_sum(self):
        rule = sphere_rule(3, 6)
        sums, sizes = self._weighted()
        for p, x in enumerate(self.CENTRES):
            for j, s in enumerate(self.STEPS):
                nodes, w = ((x[None], np.ones(1)) if s == 0.0
                            else (x + s * rule.directions, rule.weights))
                vals = np.array([self._gt(tuple(nodes.T), None, sigma)
                                 for sigma in self.SIGMAS[j]])  # (S, D)
                assert sums[p, j] == pytest.approx(
                    w @ (self.OMEGAS[j] @ vals), rel=1e-13, abs=1e-15)
                # sizes are weighted absolute values, in time and on the sphere
                assert sizes[p, j] == pytest.approx(
                    w @ (np.abs(self.OMEGAS[j]) @ np.abs(vals)), rel=1e-13)
                assert sizes[p, j] > abs(sums[p, j])

    def test_one_call_per_chunk_on_a_source_time_axis(self):
        # coordinates carry a length-1 time axis, so what reads no t is
        # computed once per point; the times carry all S source times
        shapes = []

        def g(pts, offs, t):
            shapes.append((tuple(x.shape for x in pts), np.shape(t)))
            return self._gt(pts, offs, t)

        self._weighted(g)
        # the zero step's centres, then the two other steps' 72 directions
        assert shapes == [(((2, 1, 1, 1),) * 3, (1, 1, 3)),
                          (((2, 2, 72, 1),) * 3, (2, 1, 3))]

    def test_weighted_values_independent_of_the_batch(self, monkeypatch):
        sums, sizes = self._weighted()
        for p in range(len(self.CENTRES)):
            alone = self._weighted(centres=self.CENTRES[p:p + 1])
            assert np.array_equal(alone[0][0], sums[p])
            assert np.array_equal(alone[1][0], sizes[p])
        # 72 directions at 3 source times: a field call takes 24 nodes of
        # one centre and step, the most one 72-node row allows
        values = []

        def g(pts, offs, t):
            values.append(int(np.prod(np.broadcast_shapes(*(x.shape for x in pts),
                                                          np.shape(t)))))
            return self._gt(pts, offs, t)

        monkeypatch.setattr(quadrature, "BATCH_POINTS", 40)
        small = self._weighted(g)
        assert max(values) == 72 and values.count(72) == 12
        assert np.array_equal(small[0], sums) and np.array_equal(small[1], sizes)
        # rows of 16 nodes: calls of 13 nodes, within the budget; values
        # differ from one 72-node sum by rounding only, and not with the
        # budget
        monkeypatch.setattr(quadrature, "ROW_CHUNK", 16)
        values.clear()
        chunked = self._weighted(g)
        assert max(values) <= 40
        np.testing.assert_allclose(chunked[0], sums, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(chunked[1], sizes, rtol=1e-14, atol=0)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 1 << 16)
        wide = self._weighted()
        assert np.array_equal(wide[0], chunked[0])
        assert np.array_equal(wide[1], chunked[1])

    @pytest.mark.parametrize("text", ["1/(t - 0.5)", "(t - 0.45)^0.5"])
    def test_every_source_time_checked(self, text):
        # a pole at the second source time of the first step, a complex
        # value at its first
        f = quadrature.compile_field(parse(text, 3))
        with pytest.raises(DomainError):
            self._weighted(lambda pts, offs, t: f(pts, t))


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
        got, _ = SinhKernel(e, a, spec).apply_many(x, ts, cosh=True)
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

        def recording(g, centres, steps, nodes, w, *times):
            asked[len(w)] = asked.get(len(w), 0) + len(centres) * len(steps)
            return sums(g, centres, steps, nodes, w, *times)

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
                r"the degree-12 and degree-16 sphere rules differ by")) as info:
            kern.apply([0.3, -0.2, 0.5], 2.0)
        assert str(info.value).endswith("; raise [quadrature] sphere_degree above 16")

    @pytest.mark.parametrize("n, sinh, cosh", [(3, 1, 4), (5, 6, 7)])
    def test_fields_compiled_by_their_first_use(self, n, sinh, cosh, monkeypatch):
        # the field at once; its gradient (n = 5, or a cosh mean) and its
        # Laplacian (an n = 5 cosh mean) when a mean first uses them
        compiled = []
        compile_field = quadrature.compile_field
        monkeypatch.setattr(quadrature, "compile_field",
                            lambda e: compiled.append(e) or compile_field(e))
        kern = SinhKernel(parse("sin(x1)*cos(x2)", n), 1.0)
        assert len(compiled) == 1
        x = np.full(n, 0.2)
        for _ in range(2):
            kern.apply_many(x, np.array([0.3, 0.7]))
            assert len(compiled) == sinh
        for _ in range(2):
            kern.apply_many(x, np.array([0.3, 0.7]), cosh=True)
            assert len(compiled) == cosh

    def test_rules_built_by_their_first_use(self, monkeypatch):
        # a quadratic's means agree on the first two rungs, so the top rule
        # is never built
        built = []
        rule = quadrature.sphere_rule
        monkeypatch.setattr(quadrature, "sphere_rule",
                            lambda n, d: built.append(d) or rule(n, d))
        kern = SinhKernel(parse("x1*x2 + x3^2", 3), 1.0,
                          QuadratureSpec(sphere_degree=32))
        assert built == []
        points = np.array([[0.3, 0.1, 0.2], [1.0, -0.5, 0.4]])
        kern.apply_many(points, np.array([0.5, 1.2]))
        assert built == [4, 6]
        assert kern.rule is rule(3, 32)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("cosh", [False, True])
    def test_time_weighted_field(self, n, cosh):
        # the kernel of sum_k w_k f(., s_k) is sum_k w_k times the kernel of
        # f(., s_k), and its size sum_k |w_k| times theirs on one rule
        e = parse("sin(x1 - t)*cos(0.5*x2) + x2*t^2", n)
        points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, n))
        ts = np.array([0.3, 0.8])
        sigmas = np.array([[0.1, 0.4, 0.7], [0.2, 0.5, 0.9]])
        omegas = np.array([[0.5, -0.3, 0.2], [0.1, 0.6, -0.4]])
        for spec, tol in ((QuadratureSpec(sphere_degree=4), 1e-14), (None, 1e-13)):
            kern = SinhKernel(e, 1.3, spec)
            vals, size = kern.apply_many(points, ts, sigmas, cosh, omegas)
            each = [kern.apply_many(points, ts, sigmas[:, k], cosh) for k in range(3)]
            want = sum(omegas[:, k] * each[k][0] for k in range(3))
            np.testing.assert_allclose(vals, want, rtol=0, atol=tol * size.max())
            assert (size >= np.abs(vals)).all()
        # on one fixed rule the sizes add up too
        fixed = SinhKernel(e, 1.3, QuadratureSpec(sphere_degree=4))
        _, size = fixed.apply_many(points, ts, sigmas, cosh, omegas)
        each = [fixed.apply_many(points, ts, sigmas[:, k], cosh) for k in range(3)]
        np.testing.assert_allclose(
            size, sum(np.abs(omegas[:, k]) * each[k][1] for k in range(3)), rtol=1e-14)

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

    def test_sizes_bounded(self):
        assert QuadratureSpec(n_time=1024, sphere_degree=1448).n_time == 1024
        with pytest.raises(InvalidOrder, match="n_time = 1025 is more than 1024"):
            QuadratureSpec(n_time=1025)
        with pytest.raises(InvalidOrder, match="sphere_degree = 1449 gives"):
            QuadratureSpec(sphere_degree=1449)
        # the spec allows the n = 3 top; an n = 5 kernel checks its own
        with pytest.raises(InvalidOrder, match="sphere_degree = 39 gives .* at n = 5"):
            SinhKernel(parse("x1", 5), 1.0, QuadratureSpec(sphere_degree=39))

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
        pending_blocks = quadrature._pending_blocks
        monkeypatch.setattr(quadrature, "_pending_blocks",
                            lambda pending: grouped.append(1) or pending_blocks(pending))
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

    def test_remedy_ends_the_message(self):
        stop = [[2, 3, 5], [9, 5, 9]]
        with pytest.raises(UnresolvedData) as err:
            climb(self.RUNGS, self._sums(stop, []), (2, 3),
                  lambda entry, lo, hi: f"entry {entry}: rules {lo} and {hi}",
                  "raise the top")
        assert str(err.value) == (
            "entry (1, 0): rules 5 and 8 differ by 3, more than 1e-10 of the "
            "data's size 4; raise the top")
