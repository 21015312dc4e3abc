"""Partial-fraction weights, time symbols and divided differences of exp."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveforge.errors import DegenerateSpeeds, InvalidOrder, NonPositiveSpeed
from waveforge.kernels import (
    cluster_fractions,
    exp_divided_differences,
    first_order_weights,
    second_order_weights,
    speed_clusters,
)

_distinct_speeds = st.lists(
    st.floats(0.3, 5.0), min_size=2, max_size=4, unique=True
).filter(lambda a: min(abs(x - y) for i, x in enumerate(a)
                       for y in a[:i]) > 1e-3 if len(a) > 1 else True)


class TestFirstOrderWeights:
    def test_two_speeds(self):
        pf = first_order_weights([1.0, 3.0])
        # a_j^{m-1} / prod(a_j - a_i): 1/(1-3) and 3/(3-1)
        assert pf.weights == pytest.approx((-0.5, 1.5))

    def test_sum_is_one(self):
        pf = first_order_weights([0.5, 1.2, 2.7])
        assert sum(pf.weights) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpeeds, match="of their size"):
            first_order_weights([1.0, 1.0 + 1e-12])

    @pytest.mark.parametrize("speeds", [[0.0, 0.0],
                                        [1e-10, 2e-10, 2e-10 + 1e-20]])
    def test_degenerate_rejected_at_any_scale(self, speeds):
        with pytest.raises(DegenerateSpeeds, match="of their size"):
            first_order_weights(speeds)

    def test_separation_relative_to_size(self):
        # 2e-10 apart is three times apart at this scale
        pf = first_order_weights([1e-10, 3e-10])
        assert pf.weights == pytest.approx((-0.5, 1.5), rel=1e-15)

    def test_single_speed_rejected(self):
        with pytest.raises(InvalidOrder):
            first_order_weights([1.0])

    @given(_distinct_speeds)
    @settings(max_examples=80, deadline=None)
    def test_moment_identities(self, speeds):
        # sum_j a_j^p / prod_{i!=j}(a_j - a_i) vanishes for p <= m-2 and
        # equals 1 at p = m-1 (Lagrange interpolation of x^p at the a_j)
        m = len(speeds)
        pf = first_order_weights(speeds)
        for p in range(m):
            s = sum(
                w * a ** (p - (m - 1)) for w, a in zip(pf.weights, pf.speeds)
            )
            expected = 1.0 if p == m - 1 else 0.0
            assert s == pytest.approx(expected, abs=1e-9)


class TestSecondOrderWeights:
    def test_two_speeds(self):
        pf = second_order_weights([1.0, 2.0])
        # a_j^2 / prod(a_j^2 - a_i^2): 1/(1-4) and 4/(4-1)
        assert pf.weights == pytest.approx((-1.0 / 3.0, 4.0 / 3.0))

    def test_negative_speed_rejected(self):
        with pytest.raises(NonPositiveSpeed):
            second_order_weights([1.0, -2.0])

    def test_separation_relative_to_size(self):
        pf = second_order_weights([1e-10, 2e-10])
        assert pf.weights == pytest.approx((-1.0 / 3.0, 4.0 / 3.0), rel=1e-15)
        # squares that underflow to one value are refused, not divided by
        for speeds in ([1.0, 1.0 + 1e-12], [1e-200, 3e-200]):
            with pytest.raises(DegenerateSpeeds):
                second_order_weights(speeds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("weights", [first_order_weights, second_order_weights])
    def test_non_finite_speed_rejected(self, weights, bad):
        # these gave NaN weights, or for inf (nan, -0.0)
        for speeds in ([bad, 1.0], [1.0, 2.0, bad]):
            with pytest.raises(NonPositiveSpeed, match="finite"):
                weights(speeds)

    @pytest.mark.parametrize("weights, speeds", [
        (first_order_weights, [1e200, 2e200, 3e200]),
        (second_order_weights, [1e200, 2e200]),
        (first_order_weights, [1e110, 2e110, 3e110, 4e110]),
    ])
    def test_overflowing_powers_rejected(self, weights, speeds):
        # the float powers raised a bare OverflowError
        with pytest.raises(NonPositiveSpeed, match="too large"):
            weights(speeds)

    @given(_distinct_speeds)
    @settings(max_examples=80, deadline=None)
    def test_moment_identities(self, speeds):
        m = len(speeds)
        pf = second_order_weights(speeds)
        for p in range(m):
            s = sum(
                w * a ** (2 * p - (2 * m - 2))
                for w, a in zip(pf.weights, pf.speeds)
            )
            expected = 1.0 if p == m - 1 else 0.0
            assert s == pytest.approx(expected, abs=1e-9)


def _wave_symbol(omega, m, t):
    """Time symbol of the m-fold wave kernel at frequency omega: the
    impulse response e^{zt}[iw, -iw, ..., iw, -iw] of (D^2 + w^2)^m."""
    roots = np.array([1j * omega, -1j * omega] * m)
    return float(exp_divided_differences(roots, t)[-1].real)


class TestGmWaveSymbol:
    def test_first_order(self):
        assert _wave_symbol(2.0, 1, 0.7) == pytest.approx(
            math.sin(1.4) / 2.0
        )

    @pytest.mark.parametrize("t", [0.3, 1.0, math.pi])
    def test_second_order_closed_form(self, t):
        # one fold of sin(w tau)/w gives (sin wt - wt cos wt)/(2 w^3)
        w = 1.7
        exact = (math.sin(w * t) - w * t * math.cos(w * t)) / (2 * w**3)
        assert _wave_symbol(w, 2, t) == pytest.approx(exact, abs=1e-13)

    def test_odd_symbol_in_t(self):
        # the kernel symbol is odd in t, which the solvers rely on when
        # centered difference stencils dip below zero
        w, t = 1.3, 0.6
        assert _wave_symbol(w, 2, -t) == pytest.approx(
            -_wave_symbol(w, 2, t), abs=1e-13
        )


def _time_symbol(kind, lam, a, t):
    """The time symbols of the box solvers, read off the divided differences:
    e^{-a lam t} at the root -a lam, cos(wt) and sin(wt)/w at +-iw."""
    lam = np.asarray(lam, dtype=float)
    if kind == "heat-exp":
        return exp_divided_differences((-a * lam)[None], t)[0].real
    w = 1j * a * np.sqrt(lam)
    phi = exp_divided_differences(np.stack([w, -w]), t)
    return phi[0].real if kind == "wave-cos" else phi[1].real


class TestEigenSymbol:
    @pytest.mark.parametrize("kind", ["heat-exp", "wave-cos", "wave-sin"])
    def test_array_matches_scalar_calls(self, kind):
        # 0, tiny a*sqrt(lam)*t and ordinary values
        lam = np.array([0.0, 1e-12, 3e-9, 0.5, 2.0, 37.0, 900.0])
        a, t = 1.3, 0.7
        got = _time_symbol(kind, lam, a, t)
        assert isinstance(got, np.ndarray) and got.shape == lam.shape
        expected = [float(_time_symbol(kind, lv, a, t)) for lv in lam]
        assert got.tolist() == expected
        w = a * np.sqrt(lam)
        closed = {
            "heat-exp": np.exp(-a * lam * t),
            "wave-cos": np.cos(w * t),
            "wave-sin": np.where(w > 0, np.sin(w * t) / np.where(w > 0, w, 1.0), t),
        }[kind]
        # e^{-33.7} at lam = 37 carries exp's own conditioning, |a lam t| eps
        assert np.allclose(got, closed, rtol=1e-13, atol=0.0)
        # lam and t broadcast against each other, as in the Duhamel sum
        ts = np.array([0.0, 0.25, 0.7])
        grid = _time_symbol(kind, lam[None, :], a, ts[:, None])
        assert grid.tolist() == [
            [float(_time_symbol(kind, lv, a, tv)) for lv in lam]
            for tv in ts
        ]


def _explicit_divided_differences(roots, t):
    """Textbook formula for distinct roots: sum_j e^{r_j t} / prod_{i!=j} (r_j - r_i)."""
    out = []
    for k in range(len(roots)):
        rs = roots[: k + 1]
        out.append(sum(
            np.exp(rj * t) / np.prod([rj - ri for i, ri in enumerate(rs) if i != j])
            for j, rj in enumerate(rs)
        ))
    return np.array(out)


class TestExpDividedDifferences:
    def test_single_root_is_exp(self):
        # the heat decay e^{-a lam t} of one factor
        a, lam, t = 0.5, 4.0, 1.0
        got = exp_divided_differences(np.array([-a * lam]), t)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_wave_pair(self):
        # roots +-i w: e^{iwt} and sin(wt)/w, so the real parts carry cos
        lam, a, t = 2.0, 1.5, 0.8
        w = a * math.sqrt(lam)
        phi = exp_divided_differences(np.array([1j * w, -1j * w]), t)
        assert phi[0].real == pytest.approx(math.cos(w * t), abs=1e-15)
        assert phi[0].imag == pytest.approx(math.sin(w * t), abs=1e-15)
        assert phi[1].real == pytest.approx(math.sin(w * t) / w, abs=1e-15)
        assert abs(phi[1].imag) < 1e-15

    def test_wave_sin_small_argument(self):
        # nearly coalescing roots +-i w: sin(wt)/w tends to t
        w, t = 1e-6, 0.5
        phi = exp_divided_differences(np.array([1j * w, -1j * w]), t)
        assert phi[1].real == pytest.approx(t - w * w * t**3 / 6, rel=1e-15)

    @pytest.mark.parametrize("t", [0.3, 1.7, -0.9])
    def test_distinct_roots_match_formula(self, t):
        roots = np.array([-1.0, 0.5j, -2.5 + 1j, 3.0])
        got = exp_divided_differences(roots, t)
        want = _explicit_divided_differences(roots, t)
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("r", [-3.0, 0.0, 2j])
    def test_confluent_roots(self, r):
        # an N-fold root gives t^k e^{rt} / k!
        t = 1.3
        got = exp_divided_differences(np.full(4, r), t)
        want = [t**k * np.exp(r * t) / math.factorial(k) for k in range(4)]
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12])
    def test_near_confluent_roots_keep_digits(self, delta):
        # the 1/delta weights of the textbook formula are never formed:
        # the result moves from the confluent one by O(delta) only
        t = 0.9
        roots = np.array([-1.0, -1.0 - delta, -2.0])
        got = exp_divided_differences(roots, t)
        conf = exp_divided_differences(np.array([-1.0, -1.0, -2.0]), t)
        assert np.max(np.abs(got - conf)) <= delta
        assert conf[1] == pytest.approx(t * math.exp(-t), rel=1e-14)

    def test_zero_time(self):
        got = exp_divided_differences(np.array([-4.0, 3j, -3j]), 0.0)
        assert got.tolist() == [1.0, 0.0, 0.0]

    @staticmethod
    def _mode_roots(kind):
        # two heat speeds and one wave speed take the closed form for two
        # roots, two wave speeds the Opitz matrix; the slower heat speed
        # first, or second, where the closed form swaps the roots
        lam = np.array([1e-12, 0.5, 2.0, 37.0, 900.0, 1.2e4])
        speeds = np.array([[0.7], [1.3]])
        if kind.startswith("heat"):
            return -(speeds[::-1] if kind == "heat-swapped" else speeds) * lam
        if kind == "wave-pair":
            speeds = speeds[:1]
        w = 1j * speeds * np.sqrt(lam)
        return np.stack([w, -w], axis=1).reshape(-1, lam.size)

    @pytest.mark.parametrize("kind", ["heat", "heat-swapped", "wave", "wave-pair"])
    def test_batch_matches_single_calls(self, kind):
        # per-mode time arrays broadcast against the mode axis; each mode
        # is scaled on its own, so the large eigenvalues' many squarings
        # leave the others' values bit for bit as in single calls
        roots = self._mode_roots(kind)
        ts = np.linspace(0.05, 1.0, roots.shape[1])
        got = exp_divided_differences(roots, ts)
        assert got.shape == roots.shape
        for i, t in enumerate(ts):
            assert got[:, i].tolist() == exp_divided_differences(roots[:, i], t).tolist()

    @pytest.mark.parametrize("kind", ["heat", "heat-swapped", "wave", "wave-pair"])
    def test_node_axis_matches_single_calls(self, kind):
        # roots (N, 1, M) against times (Q, 1): every Duhamel node of the
        # box solver in one call, each equal to its own call
        roots = self._mode_roots(kind)
        ts = 1.7 - 1.7 * np.linspace(0.02, 0.98, 7)
        got = exp_divided_differences(roots[:, None], ts[:, None])
        assert got.shape == (roots.shape[0], ts.size, roots.shape[1])
        for q, t in enumerate(ts):
            assert got[:, q].tolist() == exp_divided_differences(roots, t).tolist()


def _full_matrix_divided_differences(roots, t):
    """The kernel's algorithm on full N x N matrices, upper triangle and
    all: the reference that the lower-triangle kernel matches bit for bit
    at three or more roots."""
    roots = np.asarray(roots)
    t = np.asarray(t, dtype=float)
    n = roots.shape[0]
    norm = np.abs(t) * (np.abs(roots).max(axis=0) + 1.0)
    s = np.ceil(np.log2(np.maximum(norm, 1.0)))
    h = t / 2.0**s
    diag = (roots * h)[:, None]
    eye = np.eye(n).reshape((n, n) + (1,) * (roots.ndim - 1))
    # Horner steps X <- I + A X / j; A is bidiagonal, so A X is X with its
    # rows scaled plus X shifted down one row
    x = eye + np.zeros_like(diag)
    for j in range(18, 0, -1):
        ax = diag * x
        ax[1:] += h * x[:-1]
        x = eye + ax / j
    for i in range(int(s.max())):
        square = sum(x[:, k, None] * x[None, k] for k in range(n))
        x = np.where(s > i, square, x)
    return x[:, 0]


def _exact_divided_differences(roots, t):
    """e^{zt}[r_0] and e^{zt}[r_0, r_1] at 50 digits, per mode: e^{r_0 t},
    then (e^{r_1 t} - e^{r_0 t}) / (r_1 - r_0), or t e^{r_0 t} at equal roots."""
    mpmath = pytest.importorskip("mpmath")
    roots = np.asarray(roots)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(roots.shape, t.shape)
    rs, ts = np.broadcast_to(roots, shape), np.broadcast_to(t, shape)
    out = np.empty(shape, dtype=complex)
    with mpmath.workdps(50):
        for idx in np.ndindex(shape[1:]):
            tk = mpmath.mpf(float(ts[(0,) + idx]))
            r = [mpmath.mpc(complex(rs[(k,) + idx])) for k in range(shape[0])]
            e = [mpmath.exp(rk * tk) for rk in r]
            out[(0,) + idx] = complex(e[0])
            if len(r) == 2:
                out[(1,) + idx] = complex(
                    tk * e[0] if r[0] == r[1] else (e[1] - e[0]) / (r[1] - r[0]))
    return out


# one or two roots take closed forms, which round unlike the Opitz matrix:
# the bound on their distance from it and from the exact values, relative
# to max(1, |t|) e^{max Re(r t)}; the worst measured over this file's
# inputs is 1.4e-13 from the matrix and 1.0e-13 from the exact values
_CLOSED_FORM_TOL = 1e-12


def _assert_near(got, want, roots, t):
    top = (np.asarray(roots) * np.asarray(t, dtype=float)).real.max(axis=0)
    scale = np.maximum(1.0, np.abs(t)) * np.exp(top)
    assert np.all(np.abs(got - want) <= _CLOSED_FORM_TOL * scale)


def _roots_of_kind(kind, n):
    if kind == "real":
        return np.linspace(-3.0, 1.5, n)
    if kind == "imaginary":
        w = 0.8 + 0.6 * np.arange((n + 1) // 2)
        return np.stack([1j * w, -1j * w], axis=1).reshape(-1)[:n]
    if kind == "equal":
        return np.full(n, -1.3 + 0.4j)
    return -1.3 + 1e-9 * np.arange(n)  # near-equal


class TestLowerTriangle:
    """At three or more roots the lower-triangle kernel equals the
    full-matrix algorithm bit for bit: every product it leaves out is an
    exact zero of the full one.  One or two roots take closed forms, within
    _CLOSED_FORM_TOL of that algorithm and of the exact values."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["real", "imaginary", "equal", "near-equal"])
    @pytest.mark.parametrize("t", [0.0, -0.8, np.array(1.3), np.array([0.6])],
                             ids=["zero", "negative", "0-d", "1-element"])
    def test_matches_full_matrices(self, n, kind, t):
        roots = _roots_of_kind(kind, n)
        got = exp_divided_differences(roots, t)
        want = _full_matrix_divided_differences(roots, t)
        assert got.shape == want.shape
        if n <= 2:
            _assert_near(got, want, roots, t)
            _assert_near(got, _exact_divided_differences(roots, t), roots, t)
        else:
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["heat", "wave"])
    def test_node_axis_and_many_squarings(self, n, kind):
        # roots (N, 1, M) against times (Q, 1), as in the box Duhamel sum,
        # with eigenvalues up to 1.2e6: the top modes square 10 or more
        # times, the bottom ones not at all
        lam = np.array([1e-12, 0.5, 37.0, 900.0, 1.2e4, 1.2e6])
        if kind == "heat":
            roots = -np.linspace(0.4, 1.3, n)[:, None] * lam
        else:
            w = np.sqrt(lam) * np.linspace(0.7, 1.3, (n + 1) // 2)[:, None]
            roots = np.stack([1j * w, -1j * w], axis=1).reshape(-1, lam.size)[:n]
        ts = 1.7 - 1.7 * np.linspace(0.02, 0.98, 5)
        norm = ts[:, None] * (np.abs(roots).max(axis=0) + 1.0)
        assert np.ceil(np.log2(norm)).max() >= 10
        roots, ts = roots[:, None], ts[:, None]
        got = exp_divided_differences(roots, ts)
        want = _full_matrix_divided_differences(roots, ts)
        assert got.shape == want.shape == (n, ts.size, lam.size)
        if n <= 2:
            _assert_near(got, want, roots, ts)
            _assert_near(got, _exact_divided_differences(roots, ts), roots, ts)
        else:
            assert got.tolist() == want.tolist()

    def test_random_roots(self):
        # numpy's complex multiply rounds differently by loop (scalar or
        # vector, a * b or b * a), which fixed values may not show: random
        # roots over six decades, one to six per mode, several layouts
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            modes = [(), (int(rng.integers(1, 9)),), (1, int(rng.integers(1, 9)))][
                int(rng.integers(0, 3))]
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            roots = scale * (rng.normal(size=(n,) + modes)
                             + 1j * rng.normal(size=(n,) + modes))
            if len(modes) == 2:
                t = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 5)), 1))
            else:
                t = [rng.uniform(-2.0, 2.0), np.array([rng.uniform(-2.0, 2.0)])][
                    int(rng.integers(0, 2))]
            with np.errstate(over="ignore", invalid="ignore"):
                want = _full_matrix_divided_differences(roots, t)
                got = exp_divided_differences(roots, t)
            if np.isfinite(want).all():
                if n <= 2:
                    _assert_near(got, want, roots, t)
                else:
                    assert got.tolist() == want.tolist()


class TestClosedForms:
    """One root gives e^{r_0 t}; two give e^{bt} t expm1(d) / d, b the root
    with the larger Re(r t) and d = (other - b) t, or e^{bt} t at d = 0."""

    @pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-12, 1e-8, 1e-4])
    @pytest.mark.parametrize("kind", ["heat", "wave"])
    def test_close_roots(self, kind, gap):
        # roots r and r (1 + gap) at eigenvalues up to 1.2e6 and times of
        # both signs; the heat runs backwards only while e^{r t} is finite
        lam = np.array([1e-12, 0.5, 37.0, 900.0, 1.2e4, 1.2e6])
        if kind == "heat":
            base, ts = -0.7 * lam, np.array([-5e-4, 0.0, 0.03, 0.4, 1.7])
        else:
            base, ts = 0.7j * np.sqrt(lam), np.array([-1.7, -0.4, 0.0, 0.4, 1.7])
        roots, ts = np.stack([base, base * (1.0 + gap)])[:, None], ts[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = exp_divided_differences(roots, ts)
        # the matrix squares every mode as often as the largest needs, and
        # the squares it then discards overflow at e^{420}
        with np.errstate(over="ignore"):
            want = _full_matrix_divided_differences(roots, ts)
        assert got.shape == want.shape == (2, ts.size, lam.size)
        _assert_near(got, want, roots, ts)
        _assert_near(got, _exact_divided_differences(roots, ts), roots, ts)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shape_contract(self, n):
        # np.broadcast_shapes(roots.shape, t.shape) on either path: t meets
        # the trailing axes, the root axis too when the roots are 1-D
        roots = _roots_of_kind("imaginary", n)
        for modes, t in [((), 0.5), ((), np.array([0.5])), ((4,), np.full(4, 0.5)),
                         ((1, 4), np.full((3, 1), 0.5)), ((3, 1), np.full((1, 4), 0.5))]:
            r = np.broadcast_to(roots.reshape((n,) + (1,) * len(modes)), (n,) + modes)
            got = exp_divided_differences(r, t)
            assert got.shape == np.broadcast_shapes(r.shape, np.shape(t))
            assert got.reshape(n, -1).T.tolist() == [
                exp_divided_differences(roots, 0.5).tolist()] * (got.size // n)
        if n > 1:
            with pytest.raises(ValueError):
                exp_divided_differences(roots, np.full(n + 1, 0.5))


class TestClusterFractions:
    """The confluent partial fractions reproduce the mode ODE in Newton form."""

    @staticmethod
    def _newton(speeds, lam, r, t):
        # prod_j (D + a_j lam) T = 0 with T^(r)(0) = 1: the coefficients
        # [prod_{i<k} (D - z_i) T](0) against e^{zt}[z_0..z_k]
        z = -lam * np.asarray(speeds, dtype=float)
        coeffs = [np.polynomial.polynomial.polyfromroots(z[:k])[r]
                  if r <= k else 0.0 for k in range(len(z))]
        return float(np.dot(coeffs, exp_divided_differences(z, t)))

    @staticmethod
    def _fractions(speeds, lam, r, t):
        # pole (l, i) with s^-p: Lap^(i-1-r+p) under the impulse response of
        # D^p (D - z_l)^i, which is e^{zt}[0 (p times), z_l (i times)]
        centres, _, fractions = cluster_fractions(speeds)
        p, alpha = fractions[r]
        total = 0.0
        for (l, i), coeff in np.ndenumerate(alpha):
            if coeff != 0.0:
                assert i - r + p >= 0
                roots = np.array([0.0] * p + [-lam * centres[l]] * (i + 1))
                total += coeff * (-lam) ** (i - r + p) \
                    * exp_divided_differences(roots, t)[-1]
        return total

    @pytest.mark.parametrize("speeds", [
        (1.0, 1.0), (1.0, 2.0), (1.0, 1.0, 2.0), (0.7, 0.7, 0.7),
        (0.5, 1.1, 1.1, 1.1), (0.3, 0.9, 1.5),
    ])
    def test_against_newton_form(self, speeds):
        for lam in (0.5, 2.0):
            for t in (0.4, 1.1):
                for r in range(len(speeds)):
                    assert self._fractions(speeds, lam, r, t) == pytest.approx(
                        self._newton(speeds, lam, r, t), rel=0, abs=1e-14)

    @pytest.mark.parametrize("speeds", [(1.0, 2.0, 3.0), (1.0, 1.0, 3.0), (0.7, 0.7, 0.7)])
    @pytest.mark.parametrize("e", [-700, 300])
    def test_scale_is_exact(self, speeds, e):
        # at 2^e times the values, the centres are 2^e times the unit ones
        # and each pole 2^(e q) times, q its Laplacian power, though the
        # products of 2^-700-sized values underflow
        centres, sizes, fractions = cluster_fractions(speeds)
        got_centres, got_sizes, got = cluster_fractions(np.ldexp(speeds, e))
        assert got_sizes == sizes
        assert got_centres.tobytes() == np.ldexp(centres, e).tobytes()
        for r, ((p, alpha), (got_p, got_alpha)) in enumerate(zip(fractions, got)):
            q = np.arange(alpha.shape[1]) - r + p
            assert got_p == p
            assert got_alpha.tobytes() == np.ldexp(alpha, e * q).tobytes()

    def test_one_cluster_needs_no_integrals(self):
        _, _, fractions = cluster_fractions((1.3,) * 4)
        assert [p for p, _ in fractions] == [0] * 4
        _, _, fractions = cluster_fractions((1.0, 1.0, 2.0))
        assert [p for p, _ in fractions] == [0, 1, 2]

    def test_near_equal_speeds_merge(self):
        centres, sizes = speed_clusters((1.0 + 1e-7, 1.0))
        assert sizes == [2] and centres[0] == pytest.approx(1.0 + 5e-8, abs=1e-15)
        assert speed_clusters((1.0, 1.0 + 1e-4))[1] == [1, 1]
        # a merged pair takes in a third value at a wider spread
        assert speed_clusters((1.0, 1.0 + 1e-6, 1.0 + 1e-4))[1] == [3]
        assert speed_clusters((1.0, 1.0 + 1e-4, 1.0 + 2e-4))[1] == [1, 1, 1]
        # an exact repeat keeps its exact value
        centres, sizes = speed_clusters((0.7, 0.7, 0.7, 2.0))
        assert sizes == [3, 1] and centres[0] == 0.7
