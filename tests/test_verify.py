"""Verification suites skip only points without a constant, never defects."""

import pytest

import hardyconst.sensitivity
import hardyconst.verify
from hardyconst import Exponents
from hardyconst.errors import ConvergenceError
from hardyconst.verify import fd_suite, sign_suite

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
        hardyconst.verify, "solve_t", _failing_at_call(hardyconst.verify.solve_t, 5)
    )
    with pytest.raises(ConvergenceError):
        sign_suite(E2, 10)


@pytest.mark.parametrize("n", [1, 2], ids=["centre", "stencil"])
def test_fd_suite_raises_solver_defect(monkeypatch, n):
    monkeypatch.setattr(
        hardyconst.sensitivity,
        "solve_t",
        _failing_at_call(hardyconst.sensitivity.solve_t, n),
    )
    with pytest.raises(ConvergenceError):
        fd_suite(E2, 12)
