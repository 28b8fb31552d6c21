"""Verification suites skip only points without a constant, never defects.

``_reference_sign_suite`` is a verbatim copy of ``sign_suite``'s
point-by-point loop before the suite came to solve its grid in lanes: the
lane suite must report the same checks, failures, skips and failure
messages, in the same order.
"""

import dataclasses
import math

import numpy as np
import pytest

import hardyconst.solver
import hardyconst.verify
from hardyconst import Exponents, ParamPoint
from hardyconst.errors import ConvergenceError, DomainError, NoRootError
from hardyconst.sensitivity import delta_eval, gamma_eval, lambda_eval
from hardyconst.solver import solve_t
from hardyconst.verify import (
    SuiteResult,
    equal_omega_suite,
    fd_suite,
    feasible_s1_grid,
    inverse_suite,
    limit_suite,
    sign_suite,
)

E2 = Exponents(2.0, 1.5)


def _reference_sign_suite(e: Exponents, n: int = 30, solve=solve_t) -> SuiteResult:
    """gamma < 0, delta > 0 and lambda(t) > 0 across a feasible (s1, s2) grid."""
    res = SuiteResult("sign suite (gamma<0, delta>0, lambda>0)")
    for s2 in np.linspace(0.15, 0.97, n):
        s2 = float(s2)
        s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        for s1 in np.linspace(0.02 * s1_top, 0.98 * s1_top, n):
            pt = ParamPoint(float(s1), s2)
            try:
                sol = solve(e, pt)
            except NoRootError:
                res.skipped += 1
                continue
            g = gamma_eval(e, pt, sol)
            d = delta_eval(e, pt, sol)
            lam = lambda_eval(e, pt, sol.t)
            res.check(g < 0.0, lambda: f"gamma = {g} >= 0 at ({s1}, {s2})")
            res.check(d > 0.0, lambda: f"delta = {d} <= 0 at ({s1}, {s2})")
            res.check(lam > 0.0, lambda: f"lambda = {lam} <= 0 at ({s1}, {s2})")
    return res


def _fields(res: SuiteResult) -> tuple:
    return res.name, res.checks, res.failed, res.skipped, res.failures


#: the benchmark's verify pairs, then the stiff scan pairs, a stiffer one and
#: one with q near p
SIGN_PAIRS = [
    (2.0, 1.5), (3.0, 2.0), (2.5, 1.5), (2.5, 1.3), (5.0, 1.2), (10.0, 1.05), (20.0, 19.0),
]


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("pair", SIGN_PAIRS, ids=str)
def test_sign_suite_matches_the_point_by_point_loop(pair, n):
    e = Exponents(*pair)
    assert _fields(sign_suite(e, n)) == _fields(_reference_sign_suite(e, n))


def test_suites_run_a_grid_of_one_point():
    # np.linspace's grid of one point is its start
    e = Exponents(3.0, 2.0)
    assert _fields(sign_suite(e, 1)) == _fields(_reference_sign_suite(e, 1))
    res = equal_omega_suite(e, 1)
    assert (res.checks, res.failed) == (2, 0)


@pytest.mark.parametrize("lanes", [7, 25])
def test_sign_suite_matches_the_loop_over_several_lane_solves(monkeypatch, lanes):
    # 25 lanes solve two whole rows of 10 per call, and 7 one row per call
    monkeypatch.setattr(hardyconst.verify, "_SIGN_LANES", lanes)
    e = Exponents(5.0, 1.2)
    assert _fields(sign_suite(e, 10)) == _fields(_reference_sign_suite(e, 10))


def _doctored(s1: float, s2: float, t: float, alpha: float) -> tuple[float, float]:
    """(t, alpha) made to fail some of a point's checks: gamma alone, delta
    alone, or all three with t = nan; most points are left as they are."""
    kind = hash((s1, s2)) % 7
    if kind == 0:
        return t, 1e300
    if kind == 1:
        return t, -1e300
    if kind == 2:
        return math.nan, alpha
    return t, alpha


def test_sign_suite_reports_failures_in_the_loops_order(monkeypatch):
    # per point in grid order, then gamma, delta, lambda; every failure counts
    lanes = hardyconst.verify.solve_lanes

    def doctored_lanes(e, s1, s2):
        sol = lanes(e, s1, s2)
        t, alpha = sol.t.copy(), sol.alpha.copy()
        for i, (x, y) in enumerate(zip(s1.tolist(), s2.tolist())):
            t[i], alpha[i] = _doctored(x, y, t[i], alpha[i])
        return dataclasses.replace(sol, t=t, alpha=alpha)

    def doctored_solve(e, pt):
        sol = solve_t(e, pt)
        t, alpha = _doctored(pt.s1, pt.s2, sol.t, sol.alpha)
        return dataclasses.replace(sol, t=t, alpha=alpha)

    monkeypatch.setattr(hardyconst.verify, "solve_lanes", doctored_lanes)
    res = sign_suite(E2, 10)
    assert _fields(res) == _fields(_reference_sign_suite(E2, 10, doctored_solve))
    assert res.failed > 40
    assert [m.split(" = ")[0] for m in res.failures] == [
        "delta", "gamma", "gamma", "delta", "lambda"
    ]


def _failing_at_call(solve, n):
    """solve, except that the n-th call (1-based) raises ConvergenceError."""
    calls = [0]

    def wrapped(e, *args):
        calls[0] += 1
        if calls[0] == n:
            raise ConvergenceError(f"injected at call {n}")
        return solve(e, *args)

    return wrapped


def _failing_g(u_equation):
    """_u_equation, except that each g it returns on floats raises
    ConvergenceError."""

    def wrapped(e, s1, ratio, k, pw):
        g, t_of = u_equation(e, s1, ratio, k, pw)
        if pw is not math.pow:
            return g, t_of

        def failing(u):
            raise ConvergenceError("injected in a straggler's g")

        return failing, t_of

    return wrapped


def _failing_lane_g(u_equation, n):
    """_u_equation, except that the n-th evaluation (1-based) of a g it
    returns on lanes raises ConvergenceError."""
    calls = [0]

    def wrapped(e, s1, ratio, k, pw):
        g, t_of = u_equation(e, s1, ratio, k, pw)
        if pw is math.pow:
            return g, t_of

        def counted(u):
            calls[0] += 1
            if calls[0] == n:
                raise ConvergenceError(f"injected at lane evaluation {n}")
            return g(u)

        return counted, t_of

    return wrapped


def test_sign_suite_raises_solver_defect(monkeypatch):
    # sign_suite solves its grid in lanes, and only the stragglers of its u
    # solve evaluate g on floats, through _u_equation with math.pow: the
    # defect is injected there, and must propagate, not count as a skip
    failing = _failing_g(hardyconst.solver._u_equation)
    monkeypatch.setattr(hardyconst.solver, "_u_equation", failing)
    with pytest.raises(ConvergenceError, match="injected in a straggler's g"):
        sign_suite(E2, 10)


def test_sign_suite_raises_a_lock_step_pass_defect(monkeypatch):
    # g's lane calls are g(u_top), g(u_a), then the u solve's passes: the
    # third is the first lock-step pass
    monkeypatch.setattr(
        hardyconst.solver, "_u_equation", _failing_lane_g(hardyconst.solver._u_equation, 3)
    )
    with pytest.raises(ConvergenceError, match="injected at lane evaluation 3"):
        sign_suite(E2, 10)


@pytest.mark.parametrize("n", [1, 2], ids=["u_top", "u_a"])
def test_fd_suite_raises_a_lane_solve_defect(monkeypatch, n):
    # the nodes' lane solve evaluates g on lanes at u_top, then at u_a; its
    # 48 lanes are few enough that the u solve runs on each lane's scalar g.
    # A defect propagates, and counts as no skip
    monkeypatch.setattr(
        hardyconst.solver, "_u_equation", _failing_lane_g(hardyconst.solver._u_equation, n)
    )
    with pytest.raises(ConvergenceError, match=f"injected at lane evaluation {n}"):
        fd_suite(E2, 12)


@pytest.mark.parametrize("n", [1, 4], ids=["row-1-a", "row-2-b"])
def test_fd_suite_raises_an_end_solve_defect(monkeypatch, n):
    # each row solves t(a), then t(b), by solve_t
    monkeypatch.setattr(
        hardyconst.verify, "solve_t", _failing_at_call(hardyconst.solver.solve_t, n)
    )
    with pytest.raises(ConvergenceError, match=f"injected at call {n}"):
        fd_suite(E2, 12)


def test_fd_suite_names_a_row_whose_s1_underflows():
    # fd_suite's first row, s2 = 0.3, has 0.05 * 0.3^999 = 0 as its smallest s1
    with pytest.raises(DomainError, match=(
        r"^feasible_s1_grid: the s1 row at s2=0\.3 for p=1000\.0, q=2\.0 starts "
        r"at 0\.05 \* s2\^\(\(p-1\)/\(q-1\)\), which underflows to 0$"
    )):
        fd_suite(Exponents(1000.0, 2.0), 12)


@pytest.mark.parametrize("n", [2**61, 10**20], ids=["2**61", "10**20"])
def test_feasible_s1_grid_names_a_grid_too_large_for_memory(n):
    # its 2n candidates are one s1 row: numpy's linspace would raise a plain
    # ValueError here
    with pytest.raises(DomainError, match=f"^a verify grid of {2 * n} points does not fit"):
        feasible_s1_grid(E2, 0.5, n)


def test_fd_suite_skips_a_row_without_feasible_s1():
    # p/(p-1) <= 1 + 1e-12 leaves no root that counts: no candidate has one,
    # so each of fd_suite's 3 rows is skipped, and the lane solve has no lane
    e = Exponents(1e14, 2e13)
    with pytest.raises(NoRootError, match="^only 0 of 2 requested feasible s1 values exist"):
        feasible_s1_grid(e, 0.5, 2)
    res = fd_suite(e, 10)
    assert (res.checks, res.failed, res.skipped) == (0, 0, 3)


def test_check_many_matches_check_lane_by_lane():
    ok = np.ones(40, dtype=bool)
    ok[[3, 7, 8, 20, 21, 22, 39]] = False
    for prior in ([], [True, False], [False] * 6):
        one, many = SuiteResult("one"), SuiteResult("many")
        for res in (one, many):
            for i, flag in enumerate(prior):
                res.check(flag, lambda: f"prior {i}")
        formatted_one, reported = [], len(one.failures)
        for i, flag in enumerate(ok):
            one.check(bool(flag), lambda: formatted_one.append(i) or f"lane {i}")
        formatted = []
        many.check_many(ok, lambda i: formatted.append(i) or f"lane {i}")
        assert many.checks == one.checks and many.failed == one.failed
        assert many.failures == one.failures
        # only the failures that are reported get a message, from either
        assert formatted == formatted_one == [3, 7, 8, 20, 21][: len(many.failures) - reported]


def test_summary_names_the_failures_and_the_first_message():
    res = SuiteResult("demo")
    res.skipped = 2
    for i, ok in enumerate([True, False, True, False]):
        res.check(ok, lambda i=i: f"check {i} failed")
    assert not res.passed
    assert res.summary() == "[FAIL] demo: 4 checks, 2 skipped; 2 failed (first: check 1 failed)"


def test_limit_suite_checks_rows_above_the_threshold():
    # threshold(20, 19) is about 0.05: every row lies above it, and gamma's
    # limit there is F(s2) too (asymptotics)
    res = limit_suite(Exponents(20.0, 19.0))
    assert (res.passed, res.checks, res.skipped) == (True, 27, 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8 (cancellation-free unknowns at both ends of t): every rung "
    "of the s1 ladder falls below the 1e-12 floor",
)
def test_limit_suite_checks_a_pair_whose_lower_curve_starts_below_the_floor():
    # at s2 = 0.3 the lower-curve abscissa 0.3^(19/0.1) is about 1e-99, and
    # the rows at 0.5 and 0.65 fall below the floor too: 0 checks, 3 skipped
    assert limit_suite(Exponents(20.0, 1.1)).passed


@pytest.mark.parametrize("pair", [(100.0, 99.0), (50.0, 49.0)], ids=str)
def test_fd_suite_passes_where_p_minus_q_is_one(pair):
    # t is up to 37 ulp off near s1 = 0.0148, s2 = 0.3, which a central
    # difference over h = 1.5e-8 turns into a 9.3e-5 error of a right
    # dt/ds1 (test_oracle.py); in the row integral t's error enters once
    assert fd_suite(Exponents(*pair), 10).passed


@pytest.mark.parametrize("pair", [(2.0, 1.5), (5.0, 1.2), (100.0, 99.0)], ids=str)
def test_fd_suite_sees_gamma_off_by_1e_7(monkeypatch, pair):
    # 1e-7 relative in gamma, so in dt/ds1, is ten times the default tol
    e, sign_factors = Exponents(*pair), hardyconst.verify.sign_factors
    assert fd_suite(e, 10).passed

    def scaled(e, *args):
        gamma, delta, lam = sign_factors(e, *args)
        return gamma * (1.0 + 1e-7), delta, lam

    monkeypatch.setattr(hardyconst.verify, "sign_factors", scaled)
    res = fd_suite(e, 10)
    assert res.failed > 0
    assert res.failures[0].startswith("integral of dt/ds1 off by ")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the fixed 1e-12 round-trip bound is about 2 ulp of z wide at r = 885",
)
def test_inverse_suite_passes_at_a_large_exponent():
    # one round trip of 8,000 is off by 1.16e-12 at r = p, s = 0.0721: there
    # omega is 2.3 ulp off the exact root, and one ulp of z moves H_r by
    # 5.0e-13 (a pair of tests/verify_sweep.py's spread)
    assert inverse_suite(Exponents(885.1104966075147, 4.9622091627914315)).passed
