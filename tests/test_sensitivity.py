"""Derivative identity dt/ds1 * delta = t * gamma and the tau partials."""

import numpy as np
import pytest

from hardyconst import (
    Exponents,
    ParamPoint,
    big_f,
    delta_eval,
    dt_ds1,
    dt_ds1_analytic,
    dtau_ds1,
    dtau_dt,
    eq_omega_curve,
    gamma_eval,
    lambda_eval,
    solve_t,
    tau_eval,
)
from hardyconst.errors import HardyConstError, SingularityError, StencilError
from hardyconst.solver import alpha_eval, has_root
from hardyconst.verify import feasible_s1_grid

E2 = Exponents(2.0, 1.5)
ANCHOR = ParamPoint(0.75, 0.9185586535436918)


class TestLambda:
    def test_anchor_value(self):
        assert lambda_eval(E2, ANCHOR, 1.5) == pytest.approx(0.75, abs=1e-13)

    def test_small_s1_reduces_to_leading_term(self):
        # q * t^p with the s1 terms gone: 1.5 * 1.44 = 2.16
        pt = ParamPoint(1e-300, 0.7)
        assert lambda_eval(E2, pt, 1.2) == pytest.approx(2.16, abs=1e-12)

    def test_positive_at_one_across_region(self):
        for s1 in np.linspace(0.01, 0.97, 25):
            s1 = float(s1)
            s2 = 0.5 * (s1 ** ((E2.q - 1) / (E2.p - 1)) + 1.0)  # midway to the top edge
            assert lambda_eval(E2, ParamPoint(s1, s2), 1.0) > 0.0

    def test_nondecreasing_in_t(self):
        pt = ParamPoint(0.4, 0.8)
        grid = np.linspace(1.0, E2.p_conj - 1e-9, 200)
        vals = [lambda_eval(E2, pt, float(t)) for t in grid]
        lam1 = lambda_eval(E2, pt, 1.0)
        assert all(v >= lam1 - 1e-14 for v in vals)
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestGammaDelta:
    def test_anchor_values(self):
        sol = solve_t(E2, ANCHOR)
        assert gamma_eval(E2, ANCHOR, sol) == pytest.approx(-1.5, abs=1e-9)
        assert delta_eval(E2, ANCHOR, sol) == pytest.approx(2.25, abs=1e-9)
        assert dt_ds1_analytic(E2, ANCHOR, sol) == pytest.approx(-1.0, abs=1e-9)

    def test_gamma_negative_on_equal_omega_curve(self):
        for s1 in np.linspace(0.1, 0.9, 17):
            s1 = float(s1)
            pt = ParamPoint(s1, eq_omega_curve(E2, s1))
            assert gamma_eval(E2, pt, solve_t(E2, pt)) < 0.0

    def test_gamma_small_s1_above_threshold(self):
        # for s2 above the threshold the small-s1 gamma stays below the
        # strictly negative bound -(p-q)/(q-1) and approaches F(s2)
        pt = ParamPoint(1e-8, 0.9)
        g = gamma_eval(E2, pt, solve_t(E2, pt))
        bound = -(E2.p - E2.q) / (E2.q - 1.0)
        assert g < 0.0
        assert g <= bound + 5e-2
        assert g == pytest.approx(big_f(E2, 0.9), abs=5e-2)

    def test_delta_positive_small_s1(self):
        # the (p-q) s1 alpha summand vanishes linearly; delta stays positive
        pt = ParamPoint(1e-10, 0.6)
        sol = solve_t(E2, pt)
        assert delta_eval(E2, pt, sol) > 0.0

    @pytest.mark.parametrize(
        "e",
        [E2, Exponents(3.0, 2.0), Exponents(2.5, 1.3), Exponents(5.0, 1.2)],
        ids=["p2q1.5", "p3q2", "p2.5q1.3", "p5q1.2"],
    )
    def test_solution_alpha_matches_alpha_eval(self, e):
        # the formulas with alpha(s2) recomputed and B at the solve's u, bit for bit
        for s2 in (0.3, 0.6, 0.9):
            s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
            for frac in (1e-9, 1e-4, 0.1, 0.5, 0.9):
                pt = ParamPoint(frac * s1_top, s2)
                if not has_root(e, pt):
                    continue
                sol = solve_t(e, pt)
                a2 = alpha_eval(e, s2)
                b = (e.p - 1.0) * (e.p - e.q * sol.u) / (e.p * (e.q - 1.0) * (1.0 - sol.u))
                assert gamma_eval(e, pt, sol) == a2 - b * (sol.t**e.q / s2 - 1.0)
                assert delta_eval(e, pt, sol) == (
                    b * lambda_eval(e, pt, sol.t) + (e.p - e.q) * pt.s1 * a2
                )


class TestDtDs1:
    def test_anchor_report(self):
        rep = dt_ds1(E2, ANCHOR)
        assert rep.dt_ds1 == pytest.approx(-1.0, abs=1e-9)
        assert rep.lambda_val > 0.0
        assert rep.delta_val > 0.0
        assert rep.fd_rel_err <= 1e-5

    def test_identity_is_exact(self):
        pt = ParamPoint(0.3, 0.85)
        rep = dt_ds1(E2, pt)
        assert rep.dt_ds1 == rep.t * rep.gamma_val / rep.delta_val
        assert (rep.dt_ds1 < 0.0) == (rep.gamma_val < 0.0)

    @pytest.mark.parametrize("e", [E2, Exponents(3.0, 2.0)], ids=["p2q1.5", "p3q2"])
    def test_fd_agreement_across_region(self, e):
        for s2 in (0.4, 0.7, 0.9):
            for s1 in feasible_s1_grid(e, s2, 5, lo_frac=0.05, hi_frac=0.9):
                rep = dt_ds1(e, ParamPoint(s1, s2))
                assert rep.dt_ds1 < 0.0
                assert rep.fd_rel_err <= 1e-5

    def test_stencil_error_near_solvability_frontier(self):
        # sit 1e-8 inside the no-root frontier: the point solves, the
        # s1 + h stencil point (h ~ 7e-7) does not
        e = Exponents(3.0, 2.0)
        s2 = 0.85

        def solvable(s1):
            try:
                solve_t(e, ParamPoint(s1, s2))
                return True
            except HardyConstError:
                return False

        s1_top = s2 ** ((e.p - 1) / (e.q - 1))
        lo, hi = 0.9 * s1_top, 0.999 * s1_top
        assert solvable(lo) and not solvable(hi)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if solvable(mid):
                lo = mid
            else:
                hi = mid
        s1 = lo - 1e-8
        solve_t(e, ParamPoint(s1, s2))  # the point itself is fine
        with pytest.raises(StencilError):
            dt_ds1(e, ParamPoint(s1, s2))


class TestTauPartials:
    def test_dtau_dt_anchor(self):
        expected = 0.25 * 1.5**-0.5 * 0.75 / (1.5**0.5 - 0.75 / ANCHOR.s2) ** 2
        assert dtau_dt(E2, ANCHOR, 1.5) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize(
        "pt,t",
        [
            (ANCHOR, 1.5),
            (ParamPoint(0.5, 0.8), 1.2),
            (ParamPoint(0.1, 0.6), 1.8),
        ],
    )
    def test_dtau_dt_matches_fd(self, pt, t):
        fd_step = 1e-7
        fd = (tau_eval(E2, pt, t + fd_step) - tau_eval(E2, pt, t - fd_step)) / (
            2.0 * fd_step
        )
        d = dtau_dt(E2, pt, t)
        assert d > 0.0
        assert abs(d - fd) / abs(d) <= 1e-6

    @pytest.mark.parametrize(
        "pt,t",
        [
            (ANCHOR, 1.5),
            (ParamPoint(0.5, 0.8), 1.2),
            (ParamPoint(0.1, 0.6), 1.8),
        ],
    )
    def test_dtau_ds1_matches_fd(self, pt, t):
        fd_step = 1e-7
        up = tau_eval(E2, ParamPoint(pt.s1 + fd_step, pt.s2), t)
        dn = tau_eval(E2, ParamPoint(pt.s1 - fd_step, pt.s2), t)
        fd = (up - dn) / (2.0 * fd_step)
        d = dtau_ds1(E2, pt, t)
        assert d > 0.0
        assert abs(d - fd) / abs(d) <= 1e-6

    def test_dtau_dt_where_the_tau_denominator_is_not_positive(self):
        # t^(p-q) - s1/s2 = 1 - 1.8 < 0 at t = 1
        with pytest.raises(SingularityError, match="tau denominator"):
            dtau_dt(E2, ParamPoint(0.9, 0.5), 1.0)

    def test_dtau_ds1_small_near_top_edge(self):
        val = dtau_ds1(E2, ParamPoint(0.5, 0.999), 1.0)
        assert 0.0 < val < 0.005


class TestInequalityStar:
    @pytest.mark.parametrize(
        "e",
        [E2, Exponents(3.0, 2.0), Exponents(5.0, 1.2)],
        ids=["p2q1.5", "p3q2", "p5q1.2"],
    )
    def test_holds_on_grid(self, e):
        for s1 in np.linspace(0.0, 1.0, 202)[1:-1]:
            s1 = float(s1)
            assert e.p * s1 ** ((e.p - e.q) / (e.p - 1.0)) < (e.p - e.q) * s1 + e.q
