"""Gauss rules, sphere means, iterated integrals, and the sinh kernel."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, roots_jacobi

from waveforge import quadrature
from waveforge.errors import (
    DimensionError,
    DomainError,
    InvalidInterval,
    InvalidOrder,
    UnresolvedData,
    UnsupportedDimension,
)
from waveforge.expr import Mesh, compile_field, differentiate, laplacian, parse
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
)


def _sphere_mean(text, n, centre, radius, rule):
    """The mean of the field ``text`` on R^n over the sphere of the given
    radius around ``centre``, by :func:`centre_sums` on ``rule``."""
    f = compile_field(parse(text, n))
    means, _ = centre_sums(lambda pts, s, u, t: f(pts, t),
                           np.asarray(centre, dtype=float)[None], [radius],
                           Mesh(rule.directions.T), rule.weights)
    return float(means[0])


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(0) == 1.0
        assert double_factorial(-1) == 1.0
        assert double_factorial(5) == 15.0
        assert double_factorial(6) == 48.0


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre(8, 0.0, 2.0)
        # degree 15 polynomial integrated exactly
        vals = nodes**15
        assert np.dot(weights, vals) == pytest.approx(2.0**16 / 16, rel=1e-14)

    def test_interval_validation(self):
        with pytest.raises(InvalidInterval):
            gauss_legendre(4, 1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan),
                                      (-math.inf, 1.0), (0.0, math.inf)])
    def test_bounds_must_be_finite(self, a, b):
        # a NaN bound gave an all-NaN rule, an infinite one a RuntimeWarning
        with pytest.raises(InvalidInterval, match="finite"):
            gauss_legendre(4, a, b)

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
        assert rules[1][0].tolist() == unit[0].tolist()
        rules[1][0][:] = 0.0
        rules[1][1][:] = 0.0
        again = gauss_legendre(13, -1.0, 1.0)
        assert again[0].tolist() == unit[0].tolist()
        assert again[1].tolist() == unit[1].tolist()
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
        got = _sphere_mean("exp(x1)", 3, [0, 0, 0], r, rule)
        assert got == pytest.approx(math.sinh(r) / r, rel=1e-12)

    def test_mean_of_plane_wave_n5(self):
        # mean of sin(k.x) around x0: multiplies by the radial symbol
        rule = sphere_rule(5, 12)
        x0 = np.array([0.4, -0.1, 0.2, 0.0, 0.3])
        r = 0.9
        kr = math.sqrt(5.0) * r
        # radial factor for n=5: 3 (sin s / s^3 - cos s / s^2)
        factor = 3.0 * (math.sin(kr) / kr**3 - math.cos(kr) / kr**2)
        exact = factor * math.sin(x0[0] + 2 * x0[1])
        got = _sphere_mean("sin(x1 + 2*x2)", 5, x0, r, rule)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_zero_radius(self):
        rule = sphere_rule(3, 4)
        assert _sphere_mean("x1^2 + 5", 3, [2, 0, 0], 0.0, rule) == pytest.approx(9.0)

    @pytest.mark.parametrize("n, centre", [(5, [0, 0, 0]), (3, [0, 0, 0, 0, 0]),
                                           (3, [0, 0])])
    def test_dimensions_must_match_the_field(self, n, centre):
        # three coordinates of five-dimensional directions gave -5e-17
        with pytest.raises(DimensionError):
            _sphere_mean("x1", 3, centre, 1.0, sphere_rule(n, 4))


class TestCentreSums:
    """The sums and the data's size sum_d w_d |g| come from the same values."""

    @staticmethod
    def _g(pts, s, u, t):
        # changes sign on every sphere of radius >= 0.4 used below; the
        # points come as per-axis coordinate arrays
        return np.sin(3.0 * pts[0]) - 0.2

    CENTRES = np.array([[0.1, 0.2, -0.3], [1.0, 0.0, 0.5]])
    STEPS = np.array([0.0, 0.4, 1.3])

    @classmethod
    def _entries(cls, centres, *per_step):
        """Every (centre, step) pair as flat entries, centre-major: the
        entries' centres, then each per-step array repeated per centre."""
        reps = len(centres)
        return (np.repeat(centres, len(cls.STEPS), axis=0),
                *(np.tile(a, (reps,) + (1,) * (a.ndim - 1)) for a in per_step))

    def _reduce(self):
        rule = sphere_rule(3, 6)
        centres, steps = self._entries(self.CENTRES, self.STEPS)
        sums, sizes = centre_sums(self._g, centres, steps,
                                  Mesh(rule.directions.T), rule.weights)
        return sums.reshape(2, 3), sizes.reshape(2, 3)

    def test_sizes_are_weighted_absolute_values(self):
        rule = sphere_rule(3, 6)
        sums, sizes = self._reduce()
        for p, x in enumerate(self.CENTRES):
            for j, s in enumerate(self.STEPS[1:], 1):
                vals = self._g(tuple((x + s * rule.directions).T), None, None, 0.0)
                assert vals.min() < 0 < vals.max()
                assert sums[p, j] == pytest.approx(np.dot(rule.weights, vals),
                                                   rel=1e-13)
                assert sizes[p, j] == pytest.approx(
                    np.dot(rule.weights, np.abs(vals)), rel=1e-13)
                assert sizes[p, j] > abs(sums[p, j])

    def test_zero_step_size_is_the_centre_value(self):
        sums, sizes = self._reduce()
        at_centre = self._g(tuple(self.CENTRES.T), None, None, 0.0)
        assert sums[:, 0].tolist() == at_centre.tolist()
        assert sizes[:, 0].tolist() == np.abs(at_centre).tolist()

    def test_long_rows_give_the_same_sizes(self, monkeypatch):
        # 72 directions a row, summed in chunks of 7 nodes
        sums, sizes = self._reduce()
        monkeypatch.setattr(quadrature, "ROW_CHUNK", 7)
        chunked_sums, chunked_sizes = self._reduce()
        np.testing.assert_allclose(chunked_sums, sums, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(chunked_sizes, sizes, rtol=1e-14, atol=0)

    def test_entries_are_pairs_in_any_order(self):
        # an entry's sum depends on its own centre and step only
        rule = sphere_rule(3, 6)
        sums, sizes = self._reduce()
        centres = self.CENTRES[[1, 0, 1, 0]]
        steps = self.STEPS[[2, 1, 0, 2]]
        got = centre_sums(self._g, centres, steps, Mesh(rule.directions.T),
                          rule.weights)
        assert got[0].tolist() == [sums[1, 2], sums[0, 1], sums[1, 0], sums[0, 2]]
        assert got[1].tolist() == [sizes[1, 2], sizes[0, 1], sizes[1, 0], sizes[0, 2]]

    # per step: three source times and their weights, some negative
    SIGMAS = np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.7], [0.3, 0.6, 0.8]])
    OMEGAS = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6], [0.2, 0.2, 0.2]])

    @staticmethod
    def _gt(pts, s, u, t):
        return np.sin(3.0 * pts[0]) * np.cos(2.0 * t) - 0.2 * t

    def _weighted(self, g=None, centres=None):
        rule = sphere_rule(3, 6)
        centres = self.CENTRES if centres is None else centres
        entries = self._entries(centres, self.STEPS, self.SIGMAS, self.OMEGAS)
        sums, sizes = centre_sums(g or self._gt, entries[0], entries[1],
                                  Mesh(rule.directions.T), rule.weights, *entries[2:])
        return sums.reshape(-1, 3), sizes.reshape(-1, 3)

    def test_pairs_index_centres_and_steps(self):
        # entries named by (centre, step) index pairs take the step's times
        # and give the sums of the same entries spelled out, in any order
        rule = sphere_rule(3, 6)
        sums, sizes = self._weighted()
        point, step = np.array([1, 0, 1, 0, 1]), np.array([2, 1, 0, 2, 1])
        got = centre_sums(self._gt, self.CENTRES, self.STEPS, Mesh(rule.directions.T),
                          rule.weights, self.SIGMAS, self.OMEGAS, (point, step))
        assert got[0].tolist() == sums[point, step].tolist()
        assert got[1].tolist() == sizes[point, step].tolist()

    def test_source_times_weighted_before_the_node_sum(self):
        rule = sphere_rule(3, 6)
        sums, sizes = self._weighted()
        for p, x in enumerate(self.CENTRES):
            for j, s in enumerate(self.STEPS):
                nodes, w = ((x[None], np.ones(1)) if s == 0.0
                            else (x + s * rule.directions, rule.weights))
                vals = np.array([self._gt(tuple(nodes.T), None, None, sigma)
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

        def g(pts, s, u, t):
            shapes.append((tuple(x.shape for x in pts), s.shape,
                           tuple(x.shape for x in u), np.shape(t)))
            return self._gt(pts, s, u, t)

        self._weighted(g)
        # the two zero-step entries' centres, then the four other entries'
        # 72 directions
        assert shapes == [(((2, 1, 1),) * 3, (2, 1, 1), ((1, 1),) * 3, (2, 1, 3)),
                          (((4, 72, 1),) * 3, (4, 1, 1), ((72, 1),) * 3, (4, 1, 3))]

    def test_points_are_centre_plus_step_times_node(self):
        # the field gets each entry's points x_e + s_e u_d, its step s_e and
        # the nodes u_d: the zero-step entries' centres, then the others
        rule = sphere_rule(3, 6)
        centres, steps = self._entries(self.CENTRES, self.STEPS)
        calls = [centres[steps == 0.0], centres[steps != 0.0]]

        def g(pts, s, u, t):
            x = calls.pop(0)
            for k in range(3):
                assert np.array_equal(pts[k], s * u[k] + x[:, k, None, None])
            return self._g(pts, s, u, t)

        centre_sums(g, centres, steps, Mesh(rule.directions.T), rule.weights)
        assert not calls

    def test_weighted_values_independent_of_the_batch(self, monkeypatch):
        sums, sizes = self._weighted()
        for p in range(len(self.CENTRES)):
            alone = self._weighted(centres=self.CENTRES[p:p + 1])
            assert np.array_equal(alone[0][0], sums[p])
            assert np.array_equal(alone[1][0], sizes[p])
        # 72 directions at 3 source times: a field call takes 24 nodes of
        # one entry, the most one 72-node row allows
        values = []

        def g(pts, s, u, t):
            values.append(int(np.prod(np.broadcast_shapes(*(x.shape for x in pts),
                                                          np.shape(t)))))
            return self._gt(pts, s, u, t)

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
            self._weighted(lambda pts, s, u, t: f(pts, t))

    def test_tensor_mesh_sliced_along_its_first_axis(self, monkeypatch):
        # a 3 x 4 x 2 tensor rule: each coordinate keeps its own node axis,
        # calls take whole slices of the first, and the sums are those over
        # the flat (24, 3) nodes
        axes = (np.array([-1.0, 0.2, 0.9]), np.array([-0.7, -0.1, 0.4, 1.1]),
                np.array([-0.5, 0.6]))
        w = functools.reduce(np.multiply.outer, [np.linspace(0.1, 0.3, a.size) for a in axes])
        nodes = Mesh(np.meshgrid(*axes, indexing="ij", sparse=True))
        flat = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        centres, steps = self._entries(self.CENTRES, self.STEPS)
        shapes = []

        def g(pts, s, u, t):
            shapes.append((tuple(x.shape for x in pts), tuple(x.shape for x in u)))
            return np.cos(pts[0]) * np.exp(pts[1] * pts[2]) - 0.4

        sums, sizes = centre_sums(g, centres, steps, nodes, w)
        assert shapes[1] == (((4, 3, 1, 1, 1), (4, 1, 4, 1, 1), (4, 1, 1, 2, 1)),
                             ((3, 1, 1, 1), (1, 4, 1, 1), (1, 1, 2, 1)))
        for e, (x, s) in enumerate(zip(centres, steps)):
            u, wf = (flat, w.ravel()) if s else (np.zeros((1, 3)), np.ones(1))
            vals = g(tuple((x + s * u).T), None, (), 0.0)
            assert sums[e] == pytest.approx(wf @ vals, rel=1e-14, abs=1e-15)
            assert sizes[e] == pytest.approx(wf @ np.abs(vals), rel=1e-14)
        # rows of 8 nodes each sum one 4 x 2 slice
        monkeypatch.setattr(quadrature, "ROW_CHUNK", 8)
        shapes.clear()
        chunked = centre_sums(g, centres, steps, nodes, w)
        assert shapes[1][0] == ((4, 1, 1, 1, 1), (4, 1, 4, 1, 1), (4, 1, 1, 2, 1))
        np.testing.assert_allclose(chunked[0], sums, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(chunked[1], sizes, rtol=1e-14, atol=0)


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

    @pytest.mark.parametrize("m", [1, 2])
    def test_overflow_gives_inf(self, m):
        # the weight is a numpy product: a square past the float range
        # overflows to inf, not to a Python OverflowError
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = iterated_time_integral(lambda t: np.ones_like(t), m, 1e160)
        assert got == math.inf

    def test_fold_count_validation(self):
        with pytest.raises(InvalidOrder):
            iterated_time_integral(lambda t: t, 0, 1.0)

    def test_rule_count_validation(self):
        with pytest.raises(InvalidOrder, match="rule_count"):
            iterated_time_integral(np.cos, 1, 1.0, rule_count=0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_must_be_finite(self, t):
        # NaN gave nan, an infinite time a RuntimeWarning
        with pytest.raises(DomainError, match="finite"):
            iterated_time_integral(np.cos, 1, t)


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

        def recording(g, centres, steps, nodes, w, t_args, t_weights, pairs):
            asked[len(w)] = asked.get(len(w), 0) + len(pairs[1])
            return sums(g, centres, steps, nodes, w, t_args, t_weights, pairs)

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
        fixed = t * _sphere_mean("sin(20*x1)", 3, x, t, rule)
        assert kern.apply(x, t) == fixed

    def test_past_the_top_rung(self):
        kern = SinhKernel(parse("sin(20*x1)", 3), 1.0)
        with pytest.raises(UnresolvedData, match=(
                r"sphere means of sin\(20\*x1\) at t = 2.0, x = \[0.3, -0.2, 0.5\]: "
                r"the degree-12 and degree-16 sphere rules differ by")) as info:
            kern.apply([0.3, -0.2, 0.5], 2.0)
        assert str(info.value).endswith("; raise [quadrature] sphere_degree above 16")

    def test_message_names_the_unresolved_entry(self):
        # every rule gives the exact mean 0 at x1 = 0 and at t = 0, and
        # resolves t = 0.1, so the first unresolved entry is point 1 at
        # t = 2, flat entry 4 of 6
        kern = SinhKernel(parse("sin(20*x1)", 3), 1.0)
        with pytest.raises(UnresolvedData) as info:
            kern.apply_many([[0.0, 0.1, 0.2], [0.3, -0.2, 0.5]], [0.0, 2.0, 0.1])
        assert str(info.value).startswith(
            "sphere means of sin(20*x1) at t = 2.0, x = [0.3, -0.2, 0.5]: "
            "the degree-12 and degree-16 sphere rules differ by")

    @pytest.mark.parametrize("n, sinh, cosh", [(3, 1, 4), (5, 6, 7)])
    def test_fields_compiled_by_their_first_use(self, n, sinh, cosh, monkeypatch):
        # the field at once; its gradient (n = 5, or a cosh mean) and its
        # Laplacian (an n = 5 cosh mean) when a mean first uses them, each
        # as a stack of one field
        compiled = []
        compile_field = quadrature.compile_field
        monkeypatch.setattr(quadrature, "compile_field",
                            lambda e: compiled.append(tuple(e)) or compile_field(e))
        e = parse("sin(x1)*cos(x2)", n)
        grad = [(differentiate(e, f"x{i + 1}"),) for i in range(n)]
        kern = SinhKernel(e, 1.0)
        assert compiled == [(e,)]
        x = np.full(n, 0.2)
        for _ in range(2):
            kern.apply_many(x, np.array([0.3, 0.7]))
            assert compiled == [(e,)] + grad * (n == 5)
            assert len(compiled) == sinh
        for _ in range(2):
            kern.apply_many(x, np.array([0.3, 0.7]), cosh=True)
            assert compiled == [(e,)] + grad + [(laplacian(e),)] * (n == 5)
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

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("cosh", [False, True])
    def test_stacked_fields_add(self, n, cosh):
        # Q fields on one kernel: the kernel of sum_kq w_kq f_q(., s_k) is the
        # sum over q of each field's kernel with its weights w_.q, values and
        # sizes alike, on one fixed rule
        rng = np.random.default_rng(n + cosh)
        fields = tuple(parse(text, n) for text in (
            "sin(x1 - t)*cos(0.5*x2)", "x2*t^2 + x1^3", "exp(-0.3*x1^2)*cos(t*x2)"))
        spec = QuadratureSpec(sphere_degree=4)
        points = rng.uniform(-1.0, 1.0, size=(3, n))
        ts = np.array([0.0, 0.3, 0.8, 1.4])
        sigmas = rng.uniform(0.0, 1.0, size=(4, 2))
        omegas = rng.normal(size=(4, 2 * len(fields)))
        vals, size = SinhKernel(fields, 1.3, spec).apply_many(points, ts, sigmas, cosh,
                                                               omegas)
        each = [SinhKernel(f, 1.3, spec).apply_many(points, ts, sigmas, cosh,
                                                    omegas[:, q::len(fields)])
                for q, f in enumerate(fields)]
        want = sum(v for v, _ in each)
        np.testing.assert_allclose(vals, want, rtol=0, atol=1e-14 * np.abs(want).max())
        np.testing.assert_allclose(size, sum(s for _, s in each), rtol=1e-14)

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

    @pytest.mark.parametrize("name", ["n_time", "n_radial", "sphere_degree"])
    @pytest.mark.parametrize("value", [8.5, 8.0, math.nan, "8"])
    def test_counts_must_be_integers(self, name, value):
        # sphere_degree = 8.5 ran a 17-angle rule; n_time = 8.5 or NaN
        # failed later in numpy
        with pytest.raises(InvalidOrder, match=f"{name} must be an integer"):
            QuadratureSpec(**{name: value})

    def test_numpy_integers_accepted(self):
        spec = QuadratureSpec(n_time=np.int64(8), sphere_degree=np.int32(6))
        assert spec.n_time == 8 and spec.sphere_degree == 6
        with pytest.raises(InvalidOrder, match="sphere_degree = 50000 gives"):
            QuadratureSpec(sphere_degree=np.int32(50000))

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
        _, weights = gauss_legendre(count, -1.0, 3.0)
        assert weights.sum() == pytest.approx(4.0, rel=1e-13)


class TestClimb:
    RUNGS = (2, 3, 5, 8)

    @staticmethod
    def _sums(stop, calls):
        """Synthetic rules: entry e on rung r gives 1 + r 1e-12 from the rung
        stop[e] on, so neighbours agree there, and r below it; its size is
        1 + e.  Each call is recorded as (rungs asked, idx)."""
        stop = np.asarray(stop)
        size = 1.0 + np.arange(stop.size)

        def sums(asked, idx):
            calls.append((asked, idx.copy()))
            return [(np.where(rung >= stop[idx], 1.0 + rung * 1e-12, float(rung)),
                     size[idx]) for rung in asked]
        return sums

    @staticmethod
    def _asked(calls, count):
        """Per rung, in order, how often each entry was asked for."""
        asked = {}
        for rungs, idx in calls:
            for rung in rungs:
                np.add.at(asked.setdefault(rung, np.zeros(count, dtype=int)), idx, 1)
        return asked

    def test_entries_stop_on_different_rungs(self):
        stop = [2, 3, 5, 2, 5, 3]
        calls = []
        out, mag = climb(self.RUNGS, self._sums(stop, calls), 6,
                         lambda entry, lo, hi: "never")
        # accepted on the upper rule of the first agreeing pair: 3, 5 or 8
        upper = {2: 3, 3: 5, 5: 8}
        assert out.tolist() == [1.0 + upper[s] * 1e-12 for s in stop]
        assert mag.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        # each rung asks once for each entry still climbing, and for no other
        asked = self._asked(calls, 6)
        assert list(asked) == [2, 3, 5, 8]
        assert (asked[2] == 1).all() and (asked[3] == 1).all()
        assert asked[5].tolist() == [0, 1, 1, 0, 1, 1]
        assert asked[8].tolist() == [0, 0, 1, 0, 1, 0]
        # the first two rungs in one call, then one call per rung, the
        # pending entries in order
        assert [(rungs, idx.tolist()) for rungs, idx in calls] == [
            ((2, 3), [0, 1, 2, 3, 4, 5]), ((5,), [1, 2, 4, 5]), ((8,), [2, 4])]

    def test_one_rung_is_unchecked(self):
        calls = []
        out, mag = climb((4,), self._sums([6, 4], calls), 2,
                         lambda entry, lo, hi: "never")
        assert out.tolist() == [4.0, 1.0 + 4e-12]
        assert mag.tolist() == [1.0, 2.0] and [c[0] for c in calls] == [(4,)]

    def test_two_rungs(self):
        calls = []
        out, mag = climb((4, 6), self._sums([4, 4], calls), 2,
                         lambda entry, lo, hi: "never")
        assert out.tolist() == [1.0 + 6e-12] * 2
        assert mag.tolist() == [1.0, 2.0] and [c[0] for c in calls] == [(4, 6)]
        with pytest.raises(UnresolvedData, match="the 4- and 6-node rules"):
            climb((4, 6), self._sums([4, 6], []), 2,
                  lambda entry, lo, hi: f"entry {entry}: the {lo}- and {hi}-node rules")

    def test_past_the_top(self):
        stop = [2, 3, 5, 9, 5, 9]
        with pytest.raises(UnresolvedData) as err:
            climb(self.RUNGS, self._sums(stop, []), 6,
                  lambda entry, lo, hi: f"entry {entry}: rules {lo} and {hi}")
        # the first unresolved entry; the top pair gives 8 and 5
        assert str(err.value) == (
            "entry 3: rules 5 and 8 differ by 3, more than 1e-10 of the "
            "data's size 4")

    def test_remedy_ends_the_message(self):
        stop = [2, 3, 5, 9, 5, 9]
        with pytest.raises(UnresolvedData) as err:
            climb(self.RUNGS, self._sums(stop, []), 6,
                  lambda entry, lo, hi: f"entry {entry}: rules {lo} and {hi}",
                  "raise the top")
        assert str(err.value) == (
            "entry 3: rules 5 and 8 differ by 3, more than 1e-10 of the "
            "data's size 4; raise the top")
