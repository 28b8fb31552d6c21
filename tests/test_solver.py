"""Implicit-equation residual and the root solve for the constant."""

import math
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

import hardyconst.solver
from hardyconst import (
    Exponents,
    ParamPoint,
    alpha_eval,
    eq_omega_curve,
    has_root,
    omega,
    residual,
    solve_t,
    tau_eval,
)
from hardyconst.errors import (
    DomainError,
    HardyConstError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)
from hardyconst.sensitivity import delta_eval, gamma_eval
from hardyconst.solver import _alpha, _residual_at, solve_lanes
from hardyconst.special import _BRACKET_REL_TOL, _bracketed_root, _h, _omega_near, h_eval

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
        assert sol.t == pytest.approx(1.2499999999996787, rel=1e-15, abs=0.0)

    def test_root_far_below_the_u_bracket_top(self):
        # u_b is about 60 u* here, so a bracket width relative to u_b would
        # leave t 7.7e-15 off; the reference value is a 40-digit mpmath solve
        sol = solve_t(Exponents(1.5, 1.1), ParamPoint(7.656332914888871e-06, 0.9983599468268123))
        assert sol.t == pytest.approx(2.9999907044774363, rel=2e-15, abs=0.0)

    def test_q_within_1e_11_of_p_keeps_t_above_1(self):
        # X = t^(p-q) resolves t only to ~2e-5 here, and t(u*) rounds to 1.0
        e = Exponents(1.01, 1.00999999999)
        sol = solve_t(e, ParamPoint(0.999999999, 0.9999999999999999))
        assert 1.0 < sol.t < 1.0 + sol.bracket_width

    def test_q_near_p(self):
        # omega_q(tau(1 + 1e-12)) < p/(p-1) here, unlike on the pairs above;
        # the reference value is a 40-digit mpmath solve
        e, pt = Exponents(20.0, 19.0), ParamPoint(0.109368876001114, 0.12287917809280041)
        assert solve_t(e, pt).t == pytest.approx(1.0498387238814844, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize(
        "e,pt,expected",
        [
            (Exponents(5.0, 1.2), ParamPoint(1.9389152882672358e-16, 0.17635458561734324),
             1.2499999999999996),
            (Exponents(5.0, 1.2), ParamPoint(4.015179437779812e-16, 0.3601024638871064),
             1.2499999999999996),
            (Exponents(5.0, 1.2), ParamPoint(1.4434987340448712e-16, 0.1807121115831557),
             1.2499999999999996),
            (Exponents(5.0, 1.2), ParamPoint(1.4498558327084564e-16, 0.1687177657308814),
             1.2499999999999996),
            (Exponents(10.0, 1.05), ParamPoint(6.9958314993777825e-15, 0.8344187984703154),
             1.1111111111111103),
            (Exponents(10.0, 1.05), ParamPoint(3.0094899488502778e-15, 0.8454090460454174),
             1.1111111111111105),
            (Exponents(10.0, 1.05), ParamPoint(3.1023740023843006e-15, 0.9107319755363885),
             1.1111111111111107),
            (Exponents(5.0, 1.2), ParamPoint(1.8596079720156958e-16, 0.8348991263097012),
             1.2499999999999996),
            (Exponents(1.5, 1.1), ParamPoint(5.305999832035473e-16, 0.7880427309890956),
             2.999999999999999),
        ],
        ids=["p5-a", "p5-b", "p5-c", "p5-d", "p10-a", "p10-b", "p10-c", "p5-e", "p1.5"],
    )
    def test_root_an_ulp_below_upper_endpoint(self, e, pt, expected):
        # t an ulp or two below p/(p-1): rounding gives the explicit equation
        # the wrong sign at the u bracket's lower end at p10-b, p10-c, p5-e
        # and p1.5, and X(u)^(1/(p-q)) rounds up to p/(p-1) at the last
        # three; the reference values come from the earlier t-space iteration
        assert has_root(e, pt)
        sol = solve_t(e, pt)
        assert 1.0 < sol.t < e.p_conj
        assert sol.t == pytest.approx(expected, rel=2e-15, abs=0.0)

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


#: points of extreme pairs where has_root is True but tau(t) rounds above 1,
#: so solve_t raises InfeasibleTauError: without that test, at the first the
#: certificate hands ``_omega_near`` a bracket whose ends have one sign and
#: ZeroDivisionError leaks from ``_bracketed_root``, and at the second
#: solve_t returns tau = 1.0000000000011475 and residual 522.8
TAU_ABOVE_ONE = {
    "zero-division": (
        Exponents(1.0000000000728846, 1.0000000000012503),
        ParamPoint(0.9999960651987733, 0.9999999325003993),
    ),
    "returned": (
        Exponents(18683881648.77494, 28501.89607527246),
        ParamPoint(0.9997549884389365, 0.9999999999999962),
    ),
}


class TestTauAboveOne:
    @pytest.mark.parametrize("case", list(TAU_ABOVE_ONE))
    def test_solve_t_certifies_or_names_the_failure(self, case):
        e, pt = TAU_ABOVE_ONE[case]
        try:
            sol = solve_t(e, pt)
        except HardyConstError:
            return
        assert all(math.isfinite(v) for v in astuple(sol))
        assert 0.0 <= sol.tau <= 1.0

    def test_solve_lanes_raises_what_solve_t_raises(self):
        # the lane's tau leaves [0, 1], so solve_lanes hands the lane to
        # solve_t, which raises; without that test the lane would be ok
        e, pt = TAU_ABOVE_ONE["zero-division"]
        assert has_root(e, pt)
        with pytest.raises(InfeasibleTauError) as scalar:
            solve_t(e, pt)
        with pytest.raises(InfeasibleTauError) as lanes:
            solve_lanes(e, np.array([pt.s1]), np.array([pt.s2]))
        assert str(lanes.value) == str(scalar.value)


class TestHasRoot:
    @staticmethod
    def _solve_outcome(e, pt):
        try:
            solve_t(e, pt)
        except NoRootError:
            return "no-root"
        except OutsideDomainError:
            return "outside"
        return "ok"

    @pytest.mark.parametrize(
        "e",
        [E2, E3, Exponents(2.5, 1.3), Exponents(5.0, 1.2)],
        ids=["p2q1.5", "p3q2", "p2.5q1.3", "p5q1.2"],
    )
    def test_agrees_with_solve_t_across_the_cutoff(self, e):
        # s1 runs from deep inside, through the no-root band along the lower
        # curve, to past the curve itself
        seen = set()
        for s2 in (0.45, 0.85, 0.97):
            s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
            for frac in [1e-6, 0.5, *np.linspace(0.9, 1.01, 45)]:
                pt = ParamPoint(float(frac * s1_top), s2)
                outcome = self._solve_outcome(e, pt)
                seen.add(outcome)
                assert has_root(e, pt) == (outcome == "ok"), (pt, outcome)
        assert seen == {"ok", "no-root", "outside"}

    @pytest.mark.parametrize(
        "e,pt,expected",
        [
            (Exponents(5.0, 1.2), ParamPoint(4.9e-13, 0.3424), True),
            (E2, ParamPoint(0.81, 0.5), False),
            (E3, ParamPoint(0.98 * 0.85**2, 0.85), False),
            # q - 1 so small that H_q > 1 - 1e-14 p/(p-q) on all of [1, p']
            (Exponents(50.0, 1.000000000049), ParamPoint(0.125, 1.0 - 1e-12), False),
        ],
        ids=["root-3e-13-below-top", "beyond-lower-curve", "no-root-band", "u-top-negative"],
    )
    def test_edge_points(self, e, pt, expected):
        assert has_root(e, pt) is expected
        assert (self._solve_outcome(e, pt) == "ok") is expected

    @pytest.mark.parametrize("s1", [1e-300, 1e-290])
    def test_p_conj_at_the_floor_is_no_root(self, s1):
        # p/(p-1) = 1 + 1e-14 leaves no t above the floor 1 + 1e-12: no
        # root counts at any point of the pair, K at its floor included
        e, pt = Exponents(1e14, 2e13), ParamPoint(s1, 0.5)
        assert not has_root(e, pt)
        with pytest.raises(NoRootError, match=(
            r"^no root counts for p=100000000000000\.0, q=20000000000000\.0: .* "
            r"p/\(p-1\) = 1\.00000000000001 > 1 \+ 1e-12;"
        )):
            solve_t(e, pt)


def _g_at_one(e, s1, s2, a2):
    """g(1) = 1 - c ((s1/s2 + K)^(p/(p-q)) - s1), written out afresh."""
    p, q = e.p, e.q
    k = (p - q) * s1 * a2 / q
    return 1.0 - q / (p * s1 * a2) * ((s1 / s2 + k) ** (p / (p - q)) - s1)


def _frontier(e, s2):
    """The s1 where g(1) changes sign on the row, by bisection, or None."""
    a2 = alpha_eval(e, s2)
    s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
    lo, hi = 1e-6 * s1_top, (1.0 - 1e-9) * s1_top
    if not _g_at_one(e, lo, s2, a2) > 0.0 > _g_at_one(e, hi, s2, a2):
        return None
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _g_at_one(e, mid, s2, a2) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


class TestFrontier:
    """has_root near the g(1) = 0 frontier, where tau at the root nears 1."""

    @staticmethod
    def _usable(e, pt):
        try:
            sol = solve_t(e, pt)
        except (NoRootError, OutsideDomainError):
            return False
        assert 0.0 < sol.tau < 1.0 < sol.omega_q_tau, (pt, sol)
        assert math.isfinite(gamma_eval(e, pt, sol) + delta_eval(e, pt, sol)), (pt, sol)
        return True

    @pytest.mark.parametrize(
        "pair", [(2.0, 1.5), (3.0, 2.0), (2.5, 1.3), (5.0, 1.2), (20.0, 19.0), (1.5, 1.1)], ids=str
    )
    def test_has_root_exactly_where_the_solve_is_usable(self, pair):
        # s1 from 1e-16 to 1e-3 relative on either side of the frontier
        e = Exponents(*pair)
        seen, rows = set(), 0
        for s2 in (0.45, 0.85, 0.97):
            f = _frontier(e, s2)
            if f is None:
                continue
            rows += 1
            for d in np.logspace(-16.0, -3.0, 27):
                for s1 in (f * (1.0 - d), f * (1.0 + d)):
                    pt = ParamPoint(float(s1), s2)
                    usable = self._usable(e, pt)
                    assert has_root(e, pt) == usable, pt
                    seen.add(usable)
        assert rows >= 1
        assert seen == {True, False}


class TestMemos:
    """The kept alpha(s2) never changes a result."""

    E = Exponents(3.0, 2.0)
    ROWS = (0.5, 0.6, 0.7, 0.8)

    def _row(self, s2):
        s1_top = s2 ** ((self.E.p - 1.0) / (self.E.q - 1.0))
        return [ParamPoint(float(s1), s2) for s1 in np.linspace(0.05, 0.95, 6) * s1_top]

    @staticmethod
    def _bits(sol):
        return [x.hex() for x in astuple(sol)]

    def _cold(self, e, pt):
        _alpha.cache_clear()
        return self._bits(solve_t(e, pt))

    def test_after_has_root_on_the_same_point(self):
        for pt in self._row(0.7):
            cold = self._cold(self.E, pt)
            _alpha.cache_clear()
            assert has_root(self.E, pt)
            assert self._bits(solve_t(self.E, pt)) == cold

    def test_after_a_different_point(self):
        row, other_row = self._row(0.7), self._row(0.5)
        # the same point under another p, or another q: the keys must tell
        # them apart
        others = (self.E, Exponents(2.5, 2.0), Exponents(3.0, 2.5))
        for pt, before in zip(row, [*row[1:], other_row[0]]):
            cold = self._cold(self.E, pt)
            for e_before in others:
                _alpha.cache_clear()
                if has_root(e_before, before):
                    solve_t(e_before, before)
                has_root(e_before, pt)
                assert self._bits(solve_t(self.E, pt)) == cold

    def test_a_failed_alpha_is_not_kept(self, monkeypatch):
        pt = self._row(0.7)[2]
        cold = self._cold(self.E, pt)
        _alpha.cache_clear()

        def failing_alpha_eval(e, s2):
            raise DomainError("injected")

        with monkeypatch.context() as m:
            m.setattr(hardyconst.solver, "alpha_eval", failing_alpha_eval)
            with pytest.raises(DomainError, match="injected"):
                solve_t(self.E, pt)
        assert self._bits(solve_t(self.E, pt)) == cold

    def test_threads_over_interleaved_rows(self):
        rows = [self._row(s2) for s2 in self.ROWS]
        cold = {pt: self._cold(self.E, pt) for row in rows for pt in row}
        _alpha.cache_clear()
        got, errors = {}, []

        def work(i):
            # thread i walks the rows starting from row i, testing each point
            # before it solves it
            try:
                for j in range(len(rows)):
                    for pt in rows[(i + j) % len(rows)]:
                        assert has_root(self.E, pt)
                        got[(i, pt)] = self._bits(solve_t(self.E, pt))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(got) == 4 * len(cold)
        assert all(bits == cold[pt] for (_, pt), bits in got.items())


class TestOmegaCertificate:
    Q = 1.5
    TAU = 0.6

    def test_close_estimate_is_refined_in_its_bracket(self):
        w = omega(self.Q, self.TAU)
        got = _omega_near(self.Q, self.TAU, w + 2e-15)
        assert abs(got - w) <= 1e-15 * 3.0
        assert abs(h_eval(self.Q, got) - self.TAU) <= 1e-15

    @pytest.mark.parametrize("estimate", [1.0, 2.5, 3.0], ids=["low", "high", "top"])
    def test_bracket_missing_the_root_falls_back_to_natural(self, estimate):
        # the kernel on [1, q'] = [1, 3] with omega's xtol and k1
        natural = _bracketed_root(
            lambda x: self.TAU - _h(self.Q, x), 1.0, 3.0, self.TAU - 1.0, self.TAU - 0.0,
            3.0 * _BRACKET_REL_TOL, 0.1,
        )[2]
        assert _omega_near(self.Q, self.TAU, estimate) == natural


class TestSolutionRecord:
    @pytest.mark.parametrize(
        "e",
        [E2, E3, Exponents(2.5, 1.3), Exponents(5.0, 1.2)],
        ids=["p2q1.5", "p3q2", "p2.5q1.3", "p5q1.2"],
    )
    def test_fields_come_from_the_evaluation_at_t(self, e):
        n_ok = 0
        for s2 in (0.3, 0.6, 0.9):
            s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
            for frac in (1e-9, 1e-4, 0.1, 0.5, 0.9):
                pt = ParamPoint(frac * s1_top, s2)
                if not has_root(e, pt):
                    continue
                n_ok += 1
                sol = solve_t(e, pt)
                assert sol.alpha == alpha_eval(e, pt.s2)
                assert sol.tau == tau_eval(e, pt, sol.t)
                assert abs(h_eval(e.q, sol.omega_q_tau) - sol.tau) <= 1e-15
                at_t = _residual_at(e, pt.s1, pt.s1 / pt.s2, sol.t, sol.omega_q_tau, sol.alpha)
                assert sol.residual == at_t
        assert n_ok >= 12
