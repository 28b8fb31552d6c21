"""Verification suites skip only points without a constant, never defects."""

import numpy as np
import pytest

import hardyconst.sensitivity
import hardyconst.solver
import hardyconst.verify
from hardyconst import Exponents
from hardyconst.errors import ConvergenceError
from hardyconst.verify import SuiteResult, fd_suite, sign_suite

E2 = Exponents(2.0, 1.5)


def _failing_at_call(solve, n):
    """solve, except that the n-th call (1-based) raises ConvergenceError."""
    calls = [0]

    def wrapped(e, pt):
        calls[0] += 1
        if calls[0] == n:
            raise ConvergenceError(f"injected at ({pt.s1}, {pt.s2})")
        return solve(e, pt)

    return wrapped


def test_sign_suite_raises_solver_defect(monkeypatch):
    monkeypatch.setattr(
        hardyconst.verify, "solve_t", _failing_at_call(hardyconst.solver.solve_t, 5)
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
