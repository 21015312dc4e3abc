"""Partial-fraction weights and scalar time symbols."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveforge.errors import DegenerateSpeeds, InvalidOrder, NonPositiveSpeed
from waveforge.kernels import (
    eigen_symbol,
    first_order_weights,
    gm_wave_symbol,
    second_order_weights,
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
        with pytest.raises(DegenerateSpeeds):
            first_order_weights([1.0, 1.0 + 1e-12])

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


class TestGmWaveSymbol:
    def test_first_order(self):
        assert gm_wave_symbol(2.0, 1, 0.7) == pytest.approx(
            math.sin(1.4) / 2.0
        )

    @pytest.mark.parametrize("t", [0.3, 1.0, math.pi])
    def test_second_order_closed_form(self, t):
        # one fold of sin(w tau)/w gives (sin wt - wt cos wt)/(2 w^3)
        w = 1.7
        exact = (math.sin(w * t) - w * t * math.cos(w * t)) / (2 * w**3)
        assert gm_wave_symbol(w, 2, t) == pytest.approx(exact, abs=1e-13)

    def test_odd_symbol_in_t(self):
        # the kernel symbol is odd in t, which the solvers rely on when
        # centered difference stencils dip below zero
        w, t = 1.3, 0.6
        assert gm_wave_symbol(w, 2, -t) == pytest.approx(
            -gm_wave_symbol(w, 2, t), abs=1e-13
        )

    def test_validation(self):
        with pytest.raises(InvalidOrder):
            gm_wave_symbol(1.0, 0, 1.0)
        with pytest.raises(InvalidOrder):
            gm_wave_symbol(-1.0, 1, 1.0)


class TestEigenSymbol:
    def test_heat_decay(self):
        assert eigen_symbol("heat-exp", 4.0, 0.5, 1.0) == pytest.approx(
            math.exp(-2.0)
        )

    def test_wave_pair(self):
        lam, a, t = 2.0, 1.5, 0.8
        s = a * math.sqrt(lam)
        assert eigen_symbol("wave-cos", lam, a, t) == pytest.approx(
            math.cos(s * t)
        )
        assert eigen_symbol("wave-sin", lam, a, t) == pytest.approx(
            math.sin(s * t) / s
        )

    def test_wave_sin_small_argument(self):
        # tiny s*t switches to the series branch; limit is t
        assert eigen_symbol("wave-sin", 1e-12, 1.0, 0.5) == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(InvalidOrder):
            eigen_symbol("nope", 1.0, 1.0, 1.0)

    def test_negative_eigenvalue(self):
        with pytest.raises(InvalidOrder):
            eigen_symbol("heat-exp", -1.0, 1.0, 1.0)
        with pytest.raises(InvalidOrder):
            eigen_symbol("wave-sin", np.array([0.0, 2.0, -1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("kind", ["heat-exp", "wave-cos", "wave-sin"])
    def test_array_matches_scalar_calls(self, kind):
        # 0, the Taylor regime (a*sqrt(lam)*t < 1e-4) and ordinary values
        lam = np.array([0.0, 1e-12, 3e-9, 0.5, 2.0, 37.0, 900.0])
        a, t = 1.3, 0.7
        got = eigen_symbol(kind, lam, a, t)
        assert isinstance(got, np.ndarray) and got.shape == lam.shape
        expected = [eigen_symbol(kind, float(lv), a, t) for lv in lam]
        assert got.tolist() == expected
        # lam and t broadcast against each other, as in the Duhamel sum
        ts = np.array([0.0, 0.25, 0.7])
        grid = eigen_symbol(kind, lam[None, :], a, ts[:, None])
        assert grid.tolist() == [
            [eigen_symbol(kind, float(lv), a, float(tv)) for lv in lam]
            for tv in ts
        ]
