"""Work-count guards: H_r and explicit-equation evaluations for one scan row
and for one solve, and alpha(s2) evaluations per scan row.

Counts are deterministic, unlike wall times on a shared host, so they are
the gate for the solver's cost.  Each limit is 1.2x the count measured when
the guard was set.  H_r is counted at ``special._h``, which every H_r
evaluation goes through: the root kernel's, and ``h_eval``'s after its
checks.  Deciding solvability in t again, with a tau-feasibility solve and
omega_q inverted at the bracket's top (374 H_r per row, 22 per solve, 25 on
the stiff pair), would exceed the H_r limits, and so, on the stiff pair,
would a certificate that inverted omega_q on its natural bracket; the
limits on g, the explicit equation in u, catch a costlier u solve.
Inverting omega_q at the left end (10 H_r per decision with q near p), or
alpha(s2) once per point of a row instead of once per row, would exceed
them too.

``verify``'s round-trip grids are inverted lane by lane.  The twin must do
exactly the scalar kernel's evaluations, in as many lock-step passes as the
costliest single inversion takes; a fallback to one inversion per point
would show as many more passes.

The solver keeps the last alpha(s2), and decides solvability by one sign of
g, at min(u_lo, u_top): ``has_root`` on a point whose alpha is known inverts
nothing, with q near p too, a solve right after it inverts only for its
certificate, and ``dt_ds1``'s stencil, like a row of ``dt_ds1`` calls at one
s2, evaluates alpha(s2) once.
"""

import numpy as np
import pytest

import hardyconst.solver
import hardyconst.special
from hardyconst import Exponents, ParamPoint, has_root, solve_t
from hardyconst.cli import main
from hardyconst.sensitivity import dt_ds1
from hardyconst.solver import _alpha
from hardyconst.special import _omega_lanes, omega
from hardyconst.verify import feasible_s1_grid, inverse_suite

E3 = Exponents(3.0, 2.0)
S2 = 0.7
S1_TOP = S2 ** ((E3.p - 1.0) / (E3.q - 1.0))

#: H_r evaluations measured for the row and the solve below
ROW_CALLS = 101
SOLVE_CALLS = 13
#: evaluations of the explicit equation g(u) for the same row and solve
ROW_G_CALLS = 275
SOLVE_G_CALLS = 11
#: H_r and g evaluations for one solve on a stiff pair, where the natural
#: omega_q bracket costs the certificate 10 H_r evaluations more
STIFF_CALLS = 11
STIFF_G_CALLS = 10
#: H_r and g evaluations for one cold solve with q near p: alpha(s2) and the
#: certificate
NEAR_CALLS = 35
NEAR_G_CALLS = 13
#: H_r evaluations for the solve below when ``has_root`` has just tested its
#: point: the certificate's, none for the decision
AFTER_HAS_ROOT_CALLS = 4


@pytest.fixture
def calls(monkeypatch):
    """Counts of H_r, g and alpha(s2) evaluations made so far, as a dict."""
    counts = {"h": 0, "g": 0, "alpha": 0}
    h = hardyconst.special._h
    u_equation = hardyconst.solver._u_equation
    alpha_eval = hardyconst.solver.alpha_eval

    def counted_h(r, z):
        counts["h"] += 1
        return h(r, z)

    def counted_u_equation(e, pt, k):
        g, t_of = u_equation(e, pt, k)

        def counted_g(u):
            counts["g"] += 1
            return g(u)

        return counted_g, t_of

    def counted_alpha_eval(e, s2):
        counts["alpha"] += 1
        return alpha_eval(e, s2)

    monkeypatch.setattr(hardyconst.special, "_h", counted_h)
    monkeypatch.setattr(hardyconst.solver, "_u_equation", counted_u_equation)
    monkeypatch.setattr(hardyconst.solver, "alpha_eval", counted_alpha_eval)
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
    assert calls["alpha"] == 1


def test_solve(calls):
    solve_t(E3, ParamPoint(0.2, S2))
    assert calls["h"] <= 1.2 * SOLVE_CALLS
    assert calls["g"] <= 1.2 * SOLVE_G_CALLS


def test_solve_after_has_root_reuses_the_bracket(calls):
    pt = ParamPoint(0.2, S2)
    assert has_root(E3, pt)
    for key in calls:
        calls[key] = 0
    solve_t(E3, pt)
    assert calls["h"] <= 1.2 * AFTER_HAS_ROOT_CALLS
    assert calls["g"] <= 1.2 * SOLVE_G_CALLS
    assert calls["alpha"] == 0


def test_has_root_on_a_row_inverts_nothing(calls):
    # alpha(s2) is known from the row's first point; at the next one the
    # decision is one evaluation of g, which needs no inversion
    row = [ParamPoint(f * S1_TOP, S2) for f in (0.1, 0.4)]
    assert has_root(E3, row[0])
    for key in calls:
        calls[key] = 0
    assert has_root(E3, row[1])
    assert calls["h"] == 0
    assert calls["alpha"] == 0


def test_dt_ds1_evaluates_alpha_once(calls):
    dt_ds1(E3, ParamPoint(0.2, S2))
    assert calls["alpha"] == 1


def test_dt_ds1_row_evaluates_alpha_once(calls):
    # fd_suite's pattern: the row's feasible points, then dt_ds1 at each
    for s1 in feasible_s1_grid(E3, S2, 6):
        dt_ds1(E3, ParamPoint(s1, S2))
    assert calls["alpha"] == 1


def test_solve_stiff_pair(calls):
    e, s2 = Exponents(10.0, 1.05), 0.9
    solve_t(e, ParamPoint(0.3 * s2 ** ((e.p - 1.0) / (e.q - 1.0)), s2))
    assert calls["h"] <= 1.2 * STIFF_CALLS
    assert calls["g"] <= 1.2 * STIFF_G_CALLS


E_NEAR, S2_NEAR = Exponents(20.0, 19.0), 0.5
PT_NEAR = ParamPoint(0.9 * S2_NEAR ** ((E_NEAR.p - 1.0) / (E_NEAR.q - 1.0)), S2_NEAR)


def test_solve_q_near_p_inverts_for_alpha_and_the_certificate(calls):
    assert has_root(E_NEAR, PT_NEAR)
    # a cold solve, alpha(s2) included
    _alpha.cache_clear()
    for key in calls:
        calls[key] = 0
    solve_t(E_NEAR, PT_NEAR)
    assert calls["h"] <= 1.2 * NEAR_CALLS
    assert calls["g"] <= 1.2 * NEAR_G_CALLS


def test_has_root_q_near_p_inverts_nothing(calls):
    # q near p is where a left-end test in t-space inverted omega_q (10 H_r)
    assert has_root(E_NEAR, PT_NEAR)
    for key in calls:
        calls[key] = 0
    assert has_root(E_NEAR, PT_NEAR)
    assert calls["h"] == 0
    assert calls["g"] == 1


def test_omega_lanes_do_the_scalar_kernels_work(calls, monkeypatch):
    grid = np.linspace(0.0, 1.0, 1000)
    per_call = []
    for s in grid:
        before = calls["h"]
        omega(2.0, float(s))
        per_call.append(calls["h"] - before)
    lanes = []
    h_lanes = hardyconst.special._h_lanes

    def counted_h_lanes(r, z):
        lanes.append(z.size)
        return h_lanes(r, z)

    monkeypatch.setattr(hardyconst.special, "_h_lanes", counted_h_lanes)
    _omega_lanes(2.0, grid)
    assert sum(lanes) == sum(per_call)
    assert len(lanes) <= max(per_call) + 1


def test_inverse_suite_makes_no_scalar_inversion(calls):
    assert inverse_suite(E3).passed
    assert calls["h"] == 0
