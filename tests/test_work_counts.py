"""Work-count guards: h_eval calls for one scan row and for one solve.

Counts are deterministic, unlike wall times on a shared host, so they are
the gate for the solver's cost.  Each limit is 1.2x the count measured when
the guard was set: an inner omega_q inversion that stopped starting from
its neighbours' bracket would exceed it (inverting every omega_q on the
natural bracket took 4322 calls per row and 136 per solve).
"""

import pytest

import hardyconst.special
from hardyconst import Exponents, ParamPoint, solve_t
from hardyconst.cli import main

E3 = Exponents(3.0, 2.0)
S2 = 0.7
S1_TOP = S2 ** ((E3.p - 1.0) / (E3.q - 1.0))

#: h_eval calls measured for the row and the solve below
ROW_CALLS = 1973
SOLVE_CALLS = 81


@pytest.fixture
def h_eval_calls(monkeypatch):
    """A one-item list holding the number of h_eval calls made so far."""
    calls = [0]
    h_eval = hardyconst.special.h_eval

    def counted(r, z):
        calls[0] += 1
        return h_eval(r, z)

    monkeypatch.setattr(hardyconst.special, "h_eval", counted)
    return calls


def test_scan_row(h_eval_calls, capsys):
    # one 24-point row from 1e-3 to 0.999 of s1's top, like the benchmark's rows
    code = main([
        "scan", "--p", "3", "--q", "2", "--s2", str(S2),
        "--s1-min", repr(1e-3 * S1_TOP), "--s1-max", repr(0.999 * S1_TOP), "--n", "24",
    ])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok"] * 24
    assert h_eval_calls[0] <= 1.2 * ROW_CALLS


def test_solve(h_eval_calls):
    solve_t(E3, ParamPoint(0.2, S2))
    assert h_eval_calls[0] <= 1.2 * SOLVE_CALLS
