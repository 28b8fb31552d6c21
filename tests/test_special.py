"""Inverse-function layer: H_r, its derivative, and omega_r = H_r^{-1}."""

import math

import mpmath as mp
import numpy as np
import pytest

from hardyconst import Exponents, conjugate, h_deriv, h_eval, omega, omega_deriv
from hardyconst.errors import DomainError, SingularityError
from hardyconst.special import _omega_between

R_SET = [1.05, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0]


class TestExponents:
    def test_valid(self):
        e = Exponents(2.0, 1.5)
        assert e.p_conj == 2.0
        assert e.q_conj == 3.0

    @pytest.mark.parametrize("p,q", [(1.5, 1.5), (1.5, 2.0), (2.0, 1.0), (2.0, 0.5), (1.0, 0.9)])
    def test_invalid_order(self, p, q):
        with pytest.raises(DomainError):
            Exponents(p, q)

    def test_conjugate(self):
        assert conjugate(2.0) == 2.0
        assert conjugate(1.5) == 3.0
        with pytest.raises(DomainError):
            conjugate(1.0)


class TestHEval:
    def test_fixed_points(self):
        # H_r(1) = 1 and H_r(r/(r-1)) = 0 for every r
        assert h_eval(2.0, 1.0) == 1.0
        assert h_eval(2.0, 2.0) == 0.0
        for r in R_SET:
            assert h_eval(r, 1.0) == 1.0
            assert abs(h_eval(r, conjugate(r))) <= 1e-13

    def test_interior_value(self):
        # closed form 0.75 * sqrt(1.5)
        assert h_eval(1.5, 1.5) == pytest.approx(0.75 * math.sqrt(1.5), abs=1e-15)

    def test_range(self):
        for r in R_SET:
            for z in np.linspace(1.0, conjugate(r), 101):
                assert 0.0 <= h_eval(r, float(z)) <= 1.0

    @pytest.mark.parametrize("z", [0.99, -1.0, 2.0000001, 10.0])
    def test_outside_bracket(self, z):
        with pytest.raises(DomainError):
            h_eval(2.0, z)

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            h_eval(1.0, 1.0)


class TestHDeriv:
    def test_values(self):
        assert h_deriv(2.0, 1.0) == 0.0
        assert h_deriv(2.0, 1.5) == pytest.approx(-1.0, abs=1e-15)
        expected = 1.5 * 0.5 * 1.5 ** (-0.5) * (-0.5)
        assert h_deriv(1.5, 1.5) == pytest.approx(expected, abs=1e-15)

    def test_nonpositive_on_bracket(self):
        for r in R_SET:
            for z in np.linspace(1.0, conjugate(r), 101):
                assert h_deriv(r, float(z)) <= 0.0

    def test_outside_bracket(self):
        with pytest.raises(DomainError):
            h_deriv(2.0, 0.5)


class TestOmega:
    def test_endpoints_exact(self):
        for r in R_SET:
            assert omega(r, 1.0) == 1.0
            assert omega(r, 0.0) == conjugate(r)

    def test_interior_values(self):
        assert omega(2.0, 0.75) == pytest.approx(1.5, abs=1e-13)
        assert omega(1.5, 0.9185586535436918) == pytest.approx(1.5, abs=1e-13)

    @pytest.mark.parametrize("r", R_SET)
    def test_round_trip(self, r):
        for s in np.linspace(0.0, 1.0, 1000):
            s = float(s)
            assert abs(h_eval(r, omega(r, s)) - s) <= 1e-12

    @pytest.mark.parametrize("r", R_SET)
    def test_strictly_decreasing(self, r):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        vals = [omega(r, float(s)) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", R_SET)
    def test_range(self, r):
        for s in np.linspace(0.0, 1.0, 200):
            assert 1.0 <= omega(r, float(s)) <= conjugate(r)

    def test_p2_closed_form(self):
        for s in np.linspace(0.0, 1.0, 2000):
            s = float(s)
            assert abs(omega(2.0, s) - (1.0 + math.sqrt(1.0 - s))) <= 1e-13

    @pytest.mark.parametrize("s", [-0.1, 1.1, math.inf])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            omega(2.0, s)


def _mp_omega(r: float, s: float) -> mp.mpf:
    """omega_r(s) at 40 digits for the exact float inputs, from ``findroot``.

    It solves sqrt(1 - H_r(z)) = sqrt(1 - s), which is near linear in z at
    z = 1, where H_r - s has a double point as s -> 1; on H_r = s directly
    the bracketing solver stalls there, 1e-7 short of the root at r = 1.3.
    """
    with mp.workdps(40):
        r_, s_ = mp.mpf(r), mp.mpf(s)
        return mp.findroot(
            lambda z: mp.sqrt(1 - z ** (r_ - 1) * (r_ - (r_ - 1) * z)) - mp.sqrt(1 - s_),
            (mp.mpf(1), r_ / (r_ - 1)), solver="anderson", verify=False,
        )


@pytest.mark.parametrize("r", [1.0001, 1.05, 1.3, 2.0, 5.0, 20.0, 1e3])
def test_omega_against_mpmath(r):
    # uniform s, s down to 1e-300 and 1 - s down to 1e-16.  The bound is the
    # bracket tolerance plus H_r's conditioning: the float H_r is off by up
    # to a few r eps ((r-1) z rounds to its last bit), which moves the root
    # by that over |H_r'|, up to 2e-10 at r = 1e3 near s = 1
    rng = np.random.default_rng(int(100 * r))
    eps, top = np.finfo(float).eps, conjugate(r)
    for s in np.concatenate([
        rng.uniform(0.0, 1.0, 20), 10.0 ** rng.uniform(-300, -1, 20),
        1.0 - 10.0 ** rng.uniform(-16, -1, 20),
    ]).tolist():
        z = _mp_omega(r, s)
        slope = abs(r * (r - 1) * z ** (r - 2) * (1 - z))
        assert abs(omega(r, s) - z) <= 4e-15 * top + 4 * r * eps / slope


class TestOmegaBetween:
    @staticmethod
    def _sub_brackets(r, rng, n=200):
        """(s, z_lo, z_hi) with omega_r(s) inside [z_lo, z_hi] and H strictly across s.

        Widths run from about one ulp to the whole of [1, r']; one end is
        sometimes the natural one.
        """
        top = conjugate(r)
        out = []
        while len(out) < n:
            s = float(rng.uniform(0.001, 0.999))
            z = omega(r, s)
            lo_gap, hi_gap = 10.0 ** rng.uniform(-16, 0, size=2) * (top - 1.0)
            z_lo = 1.0 if rng.random() < 0.1 else max(1.0, z - float(lo_gap))
            z_hi = top if rng.random() < 0.1 else min(top, z + float(hi_gap))
            if h_eval(r, z_lo) > s > h_eval(r, z_hi):
                out.append((s, z_lo, z_hi))
        return out

    @pytest.mark.parametrize("r", R_SET)
    def test_agrees_with_omega_inside_the_bracket(self, r):
        rng = np.random.default_rng(int(100 * r))
        top = conjugate(r)
        for s, z_lo, z_hi in self._sub_brackets(r, rng):
            z = _omega_between(r, s, z_lo, h_eval(r, z_lo), z_hi, h_eval(r, z_hi))
            assert z_lo <= z <= z_hi
            assert abs(z - omega(r, s)) <= 1e-15 * top

    @pytest.mark.parametrize("r", R_SET)
    def test_bracket_already_within_tolerance(self, r):
        # the tightest float bracket around the root: no iteration is needed
        top = conjugate(r)
        n_tight = 0
        for s in np.linspace(0.01, 0.99, 99):
            s = float(s)
            z_lo = z_hi = omega(r, s)
            while not h_eval(r, z_lo) > s:
                z_lo = math.nextafter(z_lo, 0.0)
            while not h_eval(r, z_hi) < s:
                z_hi = math.nextafter(z_hi, 2.0 * top)
            if z_hi - z_lo > 1e-15 * top:
                continue
            n_tight += 1
            z = _omega_between(r, s, z_lo, h_eval(r, z_lo), z_hi, h_eval(r, z_hi))
            assert z_lo <= z <= z_hi
            assert abs(z - omega(r, s)) <= 1e-15 * top
        assert n_tight >= 50


class TestOmegaDeriv:
    def test_values(self):
        # d/ds (1 + sqrt(1-s)) = -1/(2 sqrt(1-s))
        assert omega_deriv(2.0, 0.75) == pytest.approx(-1.0, abs=1e-12)
        assert omega_deriv(2.0, 0.96) == pytest.approx(-2.5, abs=1e-11)
        assert omega_deriv(1.5, 0.9185586535436918) == pytest.approx(
            -3.265986323710904, abs=1e-12
        )

    def test_negative(self):
        for r in R_SET:
            for s in np.linspace(0.01, 0.99, 99):
                assert omega_deriv(r, float(s)) < 0.0

    @pytest.mark.parametrize("r", R_SET)
    def test_matches_finite_differences(self, r):
        fd_step = 1e-6
        for s in np.linspace(0.05, 0.95, 91):
            s = float(s)
            fd = (omega(r, s + fd_step) - omega(r, s - fd_step)) / (2.0 * fd_step)
            d = omega_deriv(r, s)
            assert abs(d - fd) / abs(d) <= 1e-5

    def test_singular_endpoints(self):
        for s in (0.0, 1.0):
            with pytest.raises(SingularityError):
                omega_deriv(2.0, s)
        with pytest.raises(DomainError):
            omega_deriv(2.0, 1.5)
