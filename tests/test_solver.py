"""Implicit-equation residual and the root solve for the constant."""

import numpy as np
import pytest

from hardyconst import (
    Exponents,
    ParamPoint,
    alpha_eval,
    eq_omega_curve,
    omega,
    residual,
    solve_t,
    tau_eval,
)
from hardyconst.errors import (
    DomainError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)

E2 = Exponents(2.0, 1.5)
E3 = Exponents(3.0, 2.0)
ANCHOR = ParamPoint(0.75, 0.9185586535436918)  # on the equal-omega curve


class TestTauEval:
    def test_equal_omega_identity(self):
        # on the equal-omega curve tau(t) = s2 at t = omega_p(s1)
        assert tau_eval(E2, ANCHOR, 1.5) == pytest.approx(ANCHOR.s2, abs=1e-12)

    def test_small_s1_collapses_to_power(self):
        # both s1 terms vanish, leaving ((p-q)/p) t^q
        pt = ParamPoint(1e-13, 0.5)
        assert tau_eval(E2, pt, 2.0) == pytest.approx(
            0.7071067811865476, abs=1e-12
        )

    def test_frozen_oracle_value(self):
        # independently recomputed: 0.25*(1.2^2 - 0.5)/(1.2^0.5 - 0.625)
        got = tau_eval(E2, ParamPoint(0.5, 0.8), 1.2)
        assert got == pytest.approx(0.4995269214238494, abs=1e-15)

    def test_denominator_singularity(self):
        with pytest.raises(SingularityError):
            tau_eval(E2, ParamPoint(0.81, 0.5), 1.0)

    def test_t_below_one(self):
        with pytest.raises(DomainError):
            tau_eval(E2, ANCHOR, 0.99)


class TestAlphaEval:
    def test_equal_omega_point(self):
        assert alpha_eval(E2, 0.9185586535436918) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_point(self):
        # omega_{1.5}(H_{1.5}(2)) = 2, so alpha = 2^1.5 / H_{1.5}(2) - 1 = 3
        assert alpha_eval(E2, 0.7071067811865476) == pytest.approx(3.0, abs=1e-12)

    def test_vanishes_at_one(self):
        assert alpha_eval(E2, 1.0 - 1e-9) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("s2", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, s2):
        with pytest.raises(DomainError):
            alpha_eval(E2, s2)


class TestResidual:
    def test_zero_on_equal_omega_curve(self):
        assert abs(residual(E2, ANCHOR, 1.5)) <= 1e-12

    def test_negative_at_one(self):
        assert residual(E2, ANCHOR, 1.0) < 0.0

    def test_zero_at_solution(self):
        for pt in (ANCHOR, ParamPoint(0.5, 0.8), ParamPoint(0.3, 0.9)):
            sol = solve_t(E2, pt)
            assert abs(residual(E2, pt, sol.t)) <= 1e-10

    def test_infeasible_tau(self):
        # near the top of the bracket tau exceeds 1 for this point
        pt = ParamPoint(0.9, 0.96)
        assert tau_eval(E2, pt, 2.0 - 1e-9) > 1.0
        with pytest.raises(InfeasibleTauError):
            residual(E2, pt, 2.0 - 1e-9)


class TestSolveT:
    def test_equal_omega_anchor(self):
        sol = solve_t(E2, ANCHOR)
        assert sol.t == pytest.approx(1.5, abs=1e-9)
        assert sol.tau == pytest.approx(ANCHOR.s2, abs=1e-9)
        assert sol.omega_q_tau == pytest.approx(1.5, abs=1e-9)

    def test_small_s1_limit(self):
        sol = solve_t(E2, ParamPoint(1e-8, 0.5))
        assert 2.0 - 1e-3 <= sol.t < 2.0

    def test_two_step_bound(self):
        # the moment point of the 2-on-(0,1/4], 1-on-(1/4,1] step function;
        # the averaging inequality forces t^2 >= 1.5032269603199688
        sol = solve_t(E2, ParamPoint(0.8928571428571429, 0.9591215304065261))
        assert 1.0 < sol.t < 2.0
        assert sol.t**2 >= 1.5032269603199688
        assert sol.t == pytest.approx(1.3261541980440503, abs=1e-9)

    @pytest.mark.parametrize(
        "pt",
        [ParamPoint(0.81, 0.5), ParamPoint(0.25, 0.5), ParamPoint(0.5, 1.0)],
        ids=["outside", "on-boundary", "top-edge"],
    )
    def test_rejects_non_interior(self, pt):
        with pytest.raises(OutsideDomainError):
            solve_t(E2, pt)

    def test_root_within_ulps_of_upper_endpoint(self):
        # the root lies 3e-13 (about 1400 ulp) below p/(p-1); the reference
        # value is a 40-digit mpmath solve
        sol = solve_t(Exponents(5.0, 1.2), ParamPoint(4.9e-13, 0.3424))
        assert sol.t == pytest.approx(1.2499999999996787, rel=1e-15)

    def test_no_root_near_lower_boundary(self):
        # residual is single-signed here: operationally outside the region
        with pytest.raises(NoRootError):
            solve_t(E3, ParamPoint(0.98 * 0.85**2, 0.85))

    def test_solution_invariants(self):
        for pt in (ANCHOR, ParamPoint(0.2, 0.6), ParamPoint(0.05, 0.9), ParamPoint(0.6, 0.95)):
            sol = solve_t(E2, pt)
            assert 1.0 < sol.t < E2.p_conj
            assert 0.0 < sol.tau < 1.0
            assert abs(sol.residual) <= 1e-10
            assert abs(sol.tau - tau_eval(E2, pt, sol.t)) <= 1e-13
            assert sol.bracket_width <= 1.01e-13

    @pytest.mark.parametrize("e", [E2, E3], ids=["p2q1.5", "p3q2"])
    def test_equal_omega_curve_identity(self, e):
        for s1 in np.linspace(0.05, 0.95, 10):
            s1 = float(s1)
            s2 = eq_omega_curve(e, s1)
            sol = solve_t(e, ParamPoint(s1, s2))
            assert abs(sol.t - omega(e.p, s1)) <= 1e-8
            assert abs(sol.tau - s2) <= 1e-8

    @pytest.mark.parametrize("s2", [0.3, 0.5, 0.65])
    def test_limit_monotone_in_s1(self, s2):
        ts = [solve_t(E2, ParamPoint(s1, s2)).t for s1 in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[-1] < E2.p_conj
        assert E2.p_conj - ts[-1] <= 1e-3

    def test_strictly_decreasing_in_s1(self):
        s2 = 0.92
        grid = np.linspace(0.02, 0.8, 20)
        ts = [solve_t(E2, ParamPoint(float(s1), s2)).t for s1 in grid]
        diffs = np.diff(ts)
        assert np.all(diffs < -1e-9)

    def test_deterministic(self):
        a = solve_t(E2, ParamPoint(0.4, 0.8))
        b = solve_t(E2, ParamPoint(0.4, 0.8))
        assert a == b
