"""Small-s1 limit profile F, the comparison function G, and the constant a."""

import numpy as np
import pytest

from hardyconst import (
    Exponents,
    ParamPoint,
    big_f,
    big_f_deriv,
    big_g,
    endgame_constants,
    gamma_eval,
    solve_t,
    threshold,
)
from hardyconst.asymptotics import _g_at
from hardyconst.errors import DomainError, SingularityError

E2 = Exponents(2.0, 1.5)
E_PAIRS = [E2, Exponents(3.0, 2.0), Exponents(2.5, 1.3)]


class TestConstants:
    def test_p2_values(self):
        c = endgame_constants(E2)
        assert c.a == pytest.approx(2.0 * 2.0**1.5, abs=1e-14)
        assert c.threshold == pytest.approx(0.7071067811865476, abs=1e-15)
        assert c.f_at_threshold == pytest.approx(-3.0, abs=1e-14)

    @pytest.mark.parametrize("e", E_PAIRS, ids=lambda e: f"p{e.p}q{e.q}")
    def test_a_dominates(self, e):
        c = endgame_constants(e)
        assert (e.q / (e.q - 1.0)) ** e.q < c.a
        assert c.f_at_threshold < 0.0


class TestBigF:
    def test_threshold_closed_form(self):
        c = endgame_constants(E2)
        assert abs(big_f(E2, c.threshold) - c.f_at_threshold) <= 1e-10
        assert big_f(E2, c.threshold) == pytest.approx(-3.0, abs=1e-10)

    def test_divergence_toward_zero(self):
        # divergence trend, magnitudes frozen from direct evaluation
        assert big_f(E2, 0.1) == pytest.approx(-6.637467937250726, abs=1e-10)
        assert big_f(E2, 0.5) < 0.0
        assert big_f(E2, 0.01) < big_f(E2, 0.1) < big_f(E2, 0.2) < 0.0
        assert big_f(E2, 0.001) < -400.0

    @pytest.mark.parametrize("e", E_PAIRS, ids=lambda e: f"p{e.p}q{e.q}")
    def test_negative_below_threshold(self, e):
        thr = threshold(e)
        for k in range(1, 101):
            assert big_f(e, thr * k / 101.0) < 0.0

    @pytest.mark.parametrize("s2", [0.0, 1.0, -1.0, 1.5])
    def test_domain(self, s2):
        with pytest.raises(DomainError):
            big_f(E2, s2)


class TestBigFDeriv:
    @pytest.mark.parametrize("e", E_PAIRS, ids=lambda e: f"p{e.p}q{e.q}")
    def test_positive_below_threshold(self, e):
        thr = threshold(e)
        for k in range(1, 101):
            assert big_f_deriv(e, thr * k / 101.0) > 0.0

    def test_matches_finite_differences(self):
        fd_step = 1e-7
        for s2 in np.linspace(0.05, 0.95, 19):
            s2 = float(s2)
            fd = (big_f(E2, s2 + fd_step) - big_f(E2, s2 - fd_step)) / (2.0 * fd_step)
            d = big_f_deriv(E2, s2)
            assert abs(d - fd) / max(abs(d), 1e-12) <= 1e-5

    def test_sign_matches_a_minus_g(self):
        c = endgame_constants(E2)
        for s2 in np.linspace(0.05, 0.95, 19):
            s2 = float(s2)
            assert (big_f_deriv(E2, s2) > 0.0) == (c.a > big_g(E2, s2))

    def test_vanishes_exactly_at_threshold(self):
        # G(threshold) = a algebraically, so F' crosses zero there
        assert abs(big_f_deriv(E2, threshold(E2))) <= 1e-12


class TestBigG:
    def test_threshold_closed_form(self):
        # (p/(q-1)) * threshold + (p/(p-1))^q
        expected = 4.0 * 0.7071067811865476 + 2.0**1.5
        assert big_g(E2, threshold(E2)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(5.656854249492381, abs=1e-15)

    @pytest.mark.parametrize("e", E_PAIRS, ids=lambda e: f"p{e.p}q{e.q}")
    def test_strictly_increasing(self, e):
        grid = np.linspace(0.02, 0.98, 200)
        vals = [big_g(e, float(s2)) for s2 in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_blows_up_toward_one(self):
        assert big_g(E2, 1.0 - 1e-10) > 1e4

    def test_singular_where_omega_is_one(self):
        # omega_q(s2) = 1 only at s2 = 1, which big_g's domain leaves out
        with pytest.raises(SingularityError, match="G is singular"):
            _g_at(E2, 0.5, 1.0)


class TestGammaLimitLink:
    @pytest.mark.parametrize("s2", [0.3, 0.45, 0.6])
    def test_gamma_approaches_big_f(self, s2):
        pt = ParamPoint(1e-8, s2)
        g = gamma_eval(E2, pt, solve_t(E2, pt))
        assert g == pytest.approx(big_f(E2, s2), abs=5e-2)
