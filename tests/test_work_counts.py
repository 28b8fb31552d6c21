"""Work-count guards: H_r and explicit-equation evaluations for one scan row
and for one solve.

Counts are deterministic, unlike wall times on a shared host, so they are
the gate for the solver's cost.  Each limit is 1.2x the count measured when
the guard was set.  H_r is counted at ``special._h``, which every H_r
evaluation goes through: the root kernel's, and ``h_eval``'s after its
checks.  Inverting omega_q inside the refinement again, as the t-space
iteration did (1973 H_r per row, 81 per solve), would exceed the H_r limits,
and so, on the stiff pair, would a certificate that inverted omega_q on its
natural bracket; the limits on g, the explicit equation in u, catch a
costlier u solve.
"""

import pytest

import hardyconst.solver
import hardyconst.special
from hardyconst import Exponents, ParamPoint, solve_t
from hardyconst.cli import main

E3 = Exponents(3.0, 2.0)
S2 = 0.7
S1_TOP = S2 ** ((E3.p - 1.0) / (E3.q - 1.0))

#: H_r evaluations measured for the row and the solve below
ROW_CALLS = 834
SOLVE_CALLS = 32
#: evaluations of the explicit equation g(u) for the same row and solve
ROW_G_CALLS = 275
SOLVE_G_CALLS = 11
#: H_r and g evaluations for one solve on a stiff pair, where the natural
#: omega_q bracket costs the certificate 10 H_r evaluations more
STIFF_CALLS = 34
STIFF_G_CALLS = 10


@pytest.fixture
def calls(monkeypatch):
    """Counts of H_r and of g evaluations made so far, as a dict."""
    counts = {"h": 0, "g": 0}
    h = hardyconst.special._h
    u_equation = hardyconst.solver._u_equation

    def counted_h(r, z):
        counts["h"] += 1
        return h(r, z)

    def counted_u_equation(e, pt, k):
        g, t_of = u_equation(e, pt, k)

        def counted_g(u):
            counts["g"] += 1
            return g(u)

        return counted_g, t_of

    monkeypatch.setattr(hardyconst.special, "_h", counted_h)
    monkeypatch.setattr(hardyconst.solver, "_u_equation", counted_u_equation)
    return counts


def test_scan_row(calls, capsys):
    # one 24-point row from 1e-3 to 0.999 of s1's top, like the benchmark's rows
    code = main([
        "scan", "--p", "3", "--q", "2", "--s2", str(S2),
        "--s1-min", repr(1e-3 * S1_TOP), "--s1-max", repr(0.999 * S1_TOP), "--n", "24",
    ])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok"] * 24
    assert calls["h"] <= 1.2 * ROW_CALLS
    assert calls["g"] <= 1.2 * ROW_G_CALLS


def test_solve(calls):
    solve_t(E3, ParamPoint(0.2, S2))
    assert calls["h"] <= 1.2 * SOLVE_CALLS
    assert calls["g"] <= 1.2 * SOLVE_G_CALLS


def test_solve_stiff_pair(calls):
    e, s2 = Exponents(10.0, 1.05), 0.9
    solve_t(e, ParamPoint(0.3 * s2 ** ((e.p - 1.0) / (e.q - 1.0)), s2))
    assert calls["h"] <= 1.2 * STIFF_CALLS
    assert calls["g"] <= 1.2 * STIFF_G_CALLS
