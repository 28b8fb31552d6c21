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

import hardyconst.sensitivity
import hardyconst.solver
import hardyconst.special
import hardyconst.verify
from hardyconst import Exponents, ParamPoint
from hardyconst.errors import ConvergenceError, NoRootError
from hardyconst.sensitivity import delta_eval, gamma_eval, lambda_eval
from hardyconst.solver import solve_t
from hardyconst.verify import SuiteResult, fd_suite, sign_suite

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


@pytest.mark.parametrize("lanes", [7, 25])
def test_sign_suite_matches_the_loop_over_several_lane_solves(monkeypatch, lanes):
    # 25 lanes solve two whole rows of 10 per call and 7 split each row
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
    """_u_equation, except that each g it returns raises ConvergenceError."""

    def wrapped(e, pt, k):
        def g(u):
            raise ConvergenceError("injected in a straggler's g")

        return g, u_equation(e, pt, k)[1]

    return wrapped


def _failing_h(r, z):
    raise ConvergenceError("injected in a straggler's H_q")


def test_sign_suite_raises_solver_defect(monkeypatch):
    # sign_suite solves its grid in lanes, and only the stragglers of its u
    # solve evaluate g through the solver's scalar _u_equation: the defect
    # is injected there, and must propagate, not count as a skip
    failing = _failing_g(hardyconst.solver._u_equation)
    monkeypatch.setattr(hardyconst.solver, "_u_equation", failing)
    with pytest.raises(ConvergenceError, match="injected in a straggler's g"):
        sign_suite(E2, 10)


def test_sign_suite_raises_a_certificate_stragglers_defect(monkeypatch):
    # the stragglers of the certificate's inversion are the only scalar H_q
    # evaluations inside the solver's call of _omega_lanes
    omega_lanes = hardyconst.solver._omega_lanes

    def failing_stragglers(*args):
        with monkeypatch.context() as m:
            m.setattr(hardyconst.special, "_h", _failing_h)
            return omega_lanes(*args)

    monkeypatch.setattr(hardyconst.solver, "_omega_lanes", failing_stragglers)
    with pytest.raises(ConvergenceError, match="injected in a straggler's H_q"):
        sign_suite(E2, 10)


def test_sign_suite_raises_a_lock_step_pass_defect(monkeypatch):
    # g's lane calls are g(u_b), g(u_a), g(u_top), then the u solve's passes
    monkeypatch.setattr(
        hardyconst.solver, "_g_lanes", _failing_at_call(hardyconst.solver._g_lanes, 4)
    )
    with pytest.raises(ConvergenceError):
        sign_suite(E2, 10)


@pytest.mark.parametrize("n", [1, 2], ids=["centre", "stencil"])
def test_fd_suite_raises_solver_defect(monkeypatch, n):
    # dt_ds1's first solve is the centre, its second the stencil's upper point
    monkeypatch.setattr(
        hardyconst.sensitivity, "solve_t", _failing_at_call(hardyconst.solver.solve_t, n)
    )
    with pytest.raises(ConvergenceError):
        fd_suite(E2, 12)


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
