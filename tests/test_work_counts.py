"""Work-count guards: H_r and explicit-equation evaluations for one scan row
and for one solve, and alpha(s2) evaluations per scan row.

Counts are deterministic, unlike wall times on a shared host, so they are
the gate for the solver's cost.  Each limit is 1.2x the count measured when
the guard was set.  H_r is counted at ``special._h``, which the root
kernel's evaluations, ``h_eval``'s after its checks and ``_omega_near``'s
at its bracket ends go through, and at ``special._h_slope``, which
evaluates H_r and H_r' for ``omega``'s Newton steps.  g is counted at the
functions ``solver._u_equation`` returns, once per lane on arrays.
Deciding solvability in t again, with a tau-feasibility solve and
omega_q inverted at the bracket's top (374 H_r per row, 22 per solve, 25 on
the stiff pair), would exceed the H_r limits, and so, on the stiff pair,
would a certificate that inverted omega_q on its natural bracket; the
limits on g, the explicit equation in u, catch a costlier u solve.
Inverting omega_q at the left end (10 H_r per decision with q near p), or
alpha(s2) once per point of a row instead of once per row, would exceed
them too.

``verify``'s round-trip grids are inverted lane by lane.  The twin's
lock-step passes and the stragglers it finishes in the scalar kernel must
together do exactly the scalar kernel's evaluations, in no more passes than
the costliest single inversion's evaluations.  ``inverse_suite`` inverts
all of its exponents' grids in one call, and ``endgame_suite`` every s2 it
reads in one call, once each, with no scalar ``omega`` or ``_omega_near``
call (counted at every binding, so a fallback to one inversion per point
shows), and forms F, F' and G from those values
exactly as ``big_f``, ``big_f_deriv`` and ``big_g`` do.  inverse_suite's
call brackets each lane narrowly around omega's Newton estimate: its
lock-step passes and lane H_r evaluations, Newton's included, and its traced
peak memory are pinned too.  Scalar ``omega`` and the certificate try a
bracket of 1e-15 r' around their estimate, then one of 4e-15 r', then
[1, r']: the z of their ``_h`` calls show each bracket reached.

``sign_suite`` solves its grid through ``solve_lanes``, with no scalar
``solve_t`` call: its lock-step passes and the stragglers it finishes on
their own scalar g must together evaluate g exactly as often as one
``solve_t`` per point does.  The lane solve returns no certificate, so it
evaluates H_r only for alpha(s2): as often as the scalar loop less its
certificates' inversions (counted at ``solver._omega_near``), and never on
lanes.
``fd_suite`` solves all its rows' quadrature nodes in one ``solve_lanes``
call and each row's two ends by ``solve_t``, and calls no ``dt_ds1``.

A scan row forms gamma and delta together, with one bracket factor B per
ok row.  ``omega`` validates its exponent once per call, and the
certificate, whose q ``Exponents`` has validated, not at all.

The solver keeps the last alpha(s2), and decides solvability by one sign of
g, at u_top, which the u solve reuses as its bracket's upper value:
``has_root`` on a point whose alpha is known inverts nothing, with q near p too, a solve right after it inverts only for its
certificate, and ``dt_ds1``'s stencil, like a row of ``dt_ds1`` calls at one
s2, evaluates alpha(s2) once.

``hardy`` keeps no moments: ``verify_hardy`` computes its step function's
at every call, so a raised moment error is raised again.  The ``hardy``
command draws, decides and solves each sample in one pass, so it computes
moments and alpha(s2), and decides solvability, once per draw that reaches
the decision, as a sample-by-sample loop computed them, and runs the
quadrature once per chunk; a second decision per accepted sample, as
``has_root`` before ``solve_t`` made, would show.
"""

import tracemalloc

import numpy as np
import pytest

import hardyconst.asymptotics
import hardyconst.errors
import hardyconst.cli
import hardyconst.hardy
import hardyconst.lanes
import hardyconst.sensitivity
import hardyconst.solver
import hardyconst.special
import hardyconst.verify
from hardyconst import Exponents, ParamPoint, StepFunction, has_root, solve_t
from hardyconst.errors import DomainError
from hardyconst.hardy import verify_hardy
from hardyconst.cli import main
from hardyconst.sensitivity import dt_ds1
from hardyconst.solver import _alpha
from hardyconst.asymptotics import big_f, big_f_deriv, big_g
from hardyconst.special import _omega_start, omega
from hardyconst.verify import (
    endgame_suite,
    fd_suite,
    feasible_s1_grid,
    inverse_suite,
    sign_suite,
)

E3 = Exponents(3.0, 2.0)
S2 = 0.7
S1_TOP = S2 ** ((E3.p - 1.0) / (E3.q - 1.0))
#: one 24-point row from 1e-3 to 0.999 of s1's top, like the benchmark's rows
SCAN_ROW = [
    "scan", "--p", "3", "--q", "2", "--s2", str(S2),
    "--s1-min", repr(1e-3 * S1_TOP), "--s1-max", repr(0.999 * S1_TOP), "--n", "24",
]

#: H_r evaluations measured for the row and the solve below
ROW_CALLS = 98
SOLVE_CALLS = 11
#: evaluations of the explicit equation g(u) for the same row and solve
ROW_G_CALLS = 275
SOLVE_G_CALLS = 11
#: H_r and g evaluations for one solve on a stiff pair, where the natural
#: omega_q bracket costs the certificate 10 H_r evaluations more
STIFF_CALLS = 9
STIFF_G_CALLS = 8
#: H_r and g evaluations for one cold solve with q near p: alpha(s2) and the
#: certificate
NEAR_CALLS = 14
NEAR_G_CALLS = 13
#: H_r evaluations for the solve below when ``has_root`` has just tested its
#: point: the certificate's, none for the decision: its two bracket ends and
#: three ITP steps, one step more than on the t that alpha(s2) gave when
#: omega inverted from its natural bracket
AFTER_HAS_ROOT_CALLS = 5


@pytest.fixture
def calls(monkeypatch):
    """Counts of scalar H_r, g and alpha(s2) evaluations made so far, as a
    dict.  g counts lane evaluations too, one per lane, and "g_lanes" counts
    those alone; H_r's lane evaluations are ``lane_calls``'."""
    counts = {"h": 0, "g": 0, "g_lanes": 0, "alpha": 0}
    h, h_slope = hardyconst.special._h, hardyconst.special._h_slope
    u_equation = hardyconst.solver._u_equation
    alpha_eval = hardyconst.solver.alpha_eval

    def counted_h(r, z):
        counts["h"] += 1
        return h(r, z)

    def counted_h_slope(r, z, pw):
        counts["h"] += np.ndim(z) == 0
        return h_slope(r, z, pw)

    def counted_u_equation(e, s1, ratio, k, pw):
        g, t_of = u_equation(e, s1, ratio, k, pw)

        def counted_g(u):
            out = g(u)
            counts["g"] += np.size(out)
            counts["g_lanes"] += np.size(out) if np.ndim(out) else 0
            return out

        return counted_g, t_of

    def counted_alpha_eval(e, s2):
        counts["alpha"] += 1
        return alpha_eval(e, s2)

    monkeypatch.setattr(hardyconst.special, "_h", counted_h)
    monkeypatch.setattr(hardyconst.special, "_h_slope", counted_h_slope)
    monkeypatch.setattr(hardyconst.solver, "_u_equation", counted_u_equation)
    monkeypatch.setattr(hardyconst.solver, "alpha_eval", counted_alpha_eval)
    return counts


def test_scan_row(calls, capsys):
    code = main(SCAN_ROW)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok"] * 24
    assert calls["h"] <= 1.2 * ROW_CALLS
    assert calls["g"] <= 1.2 * ROW_G_CALLS
    assert calls["alpha"] == 1


def test_scan_row_forms_the_signs_once_per_row(monkeypatch, capsys):
    # gamma and delta share one B(u) per ok row: a row that formed them
    # apart, through gamma_eval and delta_eval, would form it twice
    sign_factors, formed = hardyconst.solver.sign_factors, []

    def counted(e, s1, s2, t, u, a2, pw):
        formed.append(u)
        return sign_factors(e, s1, s2, t, u, a2, pw)

    for module in (hardyconst.cli, hardyconst.sensitivity, hardyconst.solver):
        monkeypatch.setattr(module, "sign_factors", counted)
    code = main(SCAN_ROW)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert len(formed) == sum(row.endswith(",ok") for row in rows) == 24


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
    # a caller's row at one s2: its feasible points, then dt_ds1 at each
    for s1 in feasible_s1_grid(E3, S2, 6):
        dt_ds1(E3, ParamPoint(s1, S2))
    assert calls["alpha"] == 1


def test_fd_suite_solves_its_nodes_in_one_lane_call(calls, monkeypatch):
    # grid 10 is 3 rows: their 16 nodes each in one lane solve, each row's
    # two ends by solve_t while alpha(s2) is kept for the row, and no
    # dt_ds1 (counted at the solve_t it calls, however it is bound)
    seen = {"solve_lanes": [], "solve_t": 0, "dt_ds1 solves": 0}

    def counter(module, name, key):
        inner = getattr(module, name)

        def counted(e, *args):
            if key == "solve_lanes":
                seen[key].append(args[0].size)
            else:
                seen[key] += 1
            return inner(e, *args)

        monkeypatch.setattr(module, name, counted)

    counter(hardyconst.verify, "solve_lanes", "solve_lanes")
    counter(hardyconst.verify, "solve_t", "solve_t")
    counter(hardyconst.sensitivity, "solve_t", "dt_ds1 solves")
    _alpha.cache_clear()
    res = fd_suite(E3, 10)
    assert (res.passed, res.checks, res.skipped) == (True, 3 * 16 + 3, 0)
    assert seen == {"solve_lanes": [48], "solve_t": 2 * 3, "dt_ds1 solves": 0}
    # once per row in the loop, once per row again in the lane solve
    assert calls["alpha"] == 2 * 3


@pytest.fixture
def checks(monkeypatch):
    """The exponents ``special._check_exponent`` has been called on, in order."""
    seen, check = [], hardyconst.special._check_exponent

    def counted_check(r):
        seen.append(r)
        check(r)

    monkeypatch.setattr(hardyconst.special, "_check_exponent", counted_check)
    return seen


def test_omega_validates_the_exponent_once(checks):
    for s in (0.0, 0.3, 1.0 - 1e-9, 1.0):
        checks.clear()
        omega(2.5, s)
        assert checks == [2.5]


def test_certificate_validates_no_exponent(monkeypatch, checks):
    # q was validated when Exponents was built: the certificate does not
    # check it again, neither for the kernel nor at each bracket end
    certificate = hardyconst.solver._omega_near
    per_certificate = []

    def counted_certificate(q, tau, w):
        before = len(checks)
        result = certificate(q, tau, w)
        per_certificate.append(len(checks) - before)
        return result

    monkeypatch.setattr(hardyconst.solver, "_omega_near", counted_certificate)
    solve_t(E3, ParamPoint(0.2, S2))
    assert per_certificate == [0]


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


def _scalar_work(r, s, calls) -> list[int]:
    """H_r evaluations of scalar ``omega`` at each lane's (r, s), in order."""
    per_call = []
    for x, y in zip(np.broadcast_to(r, s.shape).tolist(), s.tolist()):
        before = calls["h"]
        omega(x, y)
        per_call.append(calls["h"] - before)
    return per_call


@pytest.fixture
def lane_calls(monkeypatch, calls):
    """The (r, s) of each ``_omega_lanes`` call, at ``lanes`` and in
    ``verify``, the lane count of each ``_h_lanes`` call and each
    ``_h_slope`` call on lanes, i.e. of each bracket end's evaluation and
    each lock-step ITP or Newton pass, and the scalar H_r evaluations of the
    stragglers that each ``_omega_lanes`` call finishes in the scalar
    kernel."""
    seen = {"omega": [], "h": [], "newton": [], "stragglers": []}
    omega_lanes = hardyconst.lanes._omega_lanes
    h_lanes, h_slope = hardyconst.lanes._h_lanes, hardyconst.special._h_slope

    def counted_omega_lanes(r, s):
        seen["omega"].append((r, s))
        before = calls["h"]
        z = omega_lanes(r, s)
        seen["stragglers"].append(calls["h"] - before)
        return z

    def counted_h_lanes(r, z):
        seen["h"].append(z.size)
        return h_lanes(r, z)

    def counted_h_slope(r, z, pw):
        if np.ndim(z):
            seen["newton"].append(z.size)
        return h_slope(r, z, pw)

    monkeypatch.setattr(hardyconst.lanes, "_omega_lanes", counted_omega_lanes)
    monkeypatch.setattr(hardyconst.verify, "_omega_lanes", counted_omega_lanes)
    monkeypatch.setattr(hardyconst.lanes, "_h_lanes", counted_h_lanes)
    monkeypatch.setattr(hardyconst.special, "_h_slope", counted_h_slope)
    return seen


def _lane_evaluations(seen) -> int:
    """H_r lane evaluations of the lane calls seen: bracket ends, ITP and
    Newton passes."""
    return sum(seen["h"]) + sum(seen["newton"])


def _passes(seen) -> int:
    """Lock-step evaluations of H_r seen, each over all of its live lanes."""
    return len(seen["h"]) + len(seen["newton"])


@pytest.fixture
def scalar_inversions(monkeypatch):
    """The (r, s) of each scalar ``omega`` and ``_omega_near`` call, at
    every module binding of each."""
    seen = []
    for module in (hardyconst.special, hardyconst.solver, hardyconst.verify, hardyconst.asymptotics):
        for name in ("omega", "_omega_near"):
            if hasattr(module, name):

                def counted(r, s, *rest, inner=getattr(module, name)):
                    seen.append((r, s))
                    return inner(r, s, *rest)

                monkeypatch.setattr(module, name, counted)
    return seen


def test_omega_lanes_do_the_scalar_kernels_work(calls, lane_calls):
    # the lock-step passes and the stragglers that finish in the scalar
    # kernel evaluate H_r exactly as often as one omega call per point does,
    # in fewer passes than the costliest single inversion's evaluations
    grid = np.linspace(0.0, 1.0, 1000)
    per_call = _scalar_work(2.0, grid, calls)
    hardyconst.lanes._omega_lanes(2.0, grid)
    (stragglers,) = lane_calls["stragglers"]
    assert _lane_evaluations(lane_calls) + stragglers == sum(per_call)
    assert _passes(lane_calls) <= max(per_call)
    assert stragglers > 0


def test_inverse_suite_makes_no_scalar_inversion(calls, lane_calls, scalar_inversions):
    assert inverse_suite(E3).passed
    assert len(lane_calls["omega"]) == 1
    assert scalar_inversions == []
    # every H_r evaluation of the suite is the lane call's
    assert calls["h"] == lane_calls["stragglers"][0]


def test_inverse_suite_inverts_every_exponent_in_one_call(
    calls, lane_calls, scalar_inversions
):
    e = Exponents(4.023077022296251, 1.8959193885654708)
    assert inverse_suite(e).passed
    ((r, s),) = lane_calls["omega"]
    assert sorted(set(r.tolist())) == sorted({1.3, 1.5, 2.0, 3.0, 5.0, e.p, e.q})
    assert scalar_inversions == []
    # every H_r evaluation of the suite is the lane call's
    (stragglers,) = lane_calls["stragglers"]
    assert calls["h"] == stragglers
    per_call = _scalar_work(r, s, calls)
    assert _lane_evaluations(lane_calls) + stragglers == sum(per_call)
    assert _passes(lane_calls) <= max(per_call)


#: lock-step passes of inverse_suite's one ``_omega_lanes`` call on (2.5,
#: 1.5), bracket ends and Newton passes included, and its lane H_r
#: evaluations: 8 and 34,209 measured (3 Newton passes, one pass per bracket
#: rung and 3 ITP passes), 9 and 38,102 from a ±4e-15 r' bracket alone, and
#: 21 and 60,772 when every lane ran ITP from the natural bracket [1, r']
INVERSE_PASSES = 8
INVERSE_LANE_CALLS = 36_000
#: inverse_suite's traced peak memory on (2.5, 1.5), bytes: 1.56 MB, 32.5
#: floats per lane, from the natural bracket, plus 10 %
INVERSE_PEAK_BYTES = 1.1 * 1.56e6


def test_inverse_suite_counts_its_passes(calls, lane_calls):
    assert inverse_suite(Exponents(2.5, 1.5)).passed
    assert _passes(lane_calls) <= INVERSE_PASSES
    assert _lane_evaluations(lane_calls) <= INVERSE_LANE_CALLS


def test_inverse_suite_peak_memory():
    e = Exponents(2.5, 1.5)
    inverse_suite(e)
    tracemalloc.start()
    try:
        assert inverse_suite(e).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= INVERSE_PEAK_BYTES


@pytest.fixture
def h_points(monkeypatch):
    """The z of each scalar ``special._h`` call, in order."""
    seen, h = [], hardyconst.special._h

    def recorded(r, z):
        seen.append(z)
        return h(r, z)

    monkeypatch.setattr(hardyconst.special, "_h", recorded)
    return seen


def _rung(r: float, z0: float, zs: list[float]):
    """The bracket that an inversion from the estimate z0 ran ITP in, read
    from the z of its ``_h`` calls: the two ends of the 1e-15 r' rung, then,
    where those miss, the two of the 4e-15 r' rung, then the kernel's steps,
    all inside the rung that bracketed, or outside both on [1, r']."""
    top = r / (r - 1.0)
    ends = [[max(1.0, z0 - w * top), min(top, z0 + w * top)] for w in (1e-15, 4e-15)]
    assert zs[:2] == ends[0]
    if all(ends[0][0] < z < ends[0][1] for z in zs[2:]):
        return 1
    assert zs[2:4] == ends[1]
    if all(ends[1][0] < z < ends[1][1] for z in zs[4:]):
        return 4
    return "natural"


@pytest.mark.parametrize("s, rung", [(0.5, 1), (0.999, 4), (1.0 - 1e-7, "natural")])
def test_omega_tries_the_narrow_rung_then_the_wide_one(h_points, s, rung):
    # omega's Newton steps go through _h_slope: every _h call is a rung's
    # end or a kernel step
    omega(2.5, s)
    assert _rung(2.5, _omega_start(2.5, s), h_points) == rung


@pytest.mark.parametrize(
    "s1, s2, rung",
    [(0.00025, 0.5, 1), (0.4772230653266331, 0.7, 4), (0.7807545226130653, 0.9, "natural")],
)
def test_certificate_tries_the_narrow_rung_then_the_wide_one(monkeypatch, h_points, s1, s2, rung):
    # the certificate inverts omega_q(tau) around w(u*), which is not
    # Newton-converged: 7.5 % of scan rows' certificates need the wide rung
    seen, certificate = [], hardyconst.solver._omega_near

    def counted_certificate(q, tau, w):
        h_points.clear()
        z = certificate(q, tau, w)
        seen.append((q, w, list(h_points)))
        return z

    monkeypatch.setattr(hardyconst.solver, "_omega_near", counted_certificate)
    solve_t(E3, ParamPoint(s1, s2))
    ((q, w, zs),) = seen
    assert _rung(q, w, zs) == rung


def test_endgame_suite_inverts_each_target_once(calls, lane_calls, scalar_inversions):
    assert endgame_suite(E3).passed
    ((r, s),) = lane_calls["omega"]
    assert scalar_inversions == []
    assert r == E3.q
    # 100 interior points, the threshold and G's 193-point grid, all distinct
    assert s.size == np.unique(s).size == 294
    (stragglers,) = lane_calls["stragglers"]
    assert calls["h"] == stragglers
    per_call = _scalar_work(r, s, calls)
    assert _lane_evaluations(lane_calls) + stragglers == sum(per_call)
    assert _passes(lane_calls) <= max(per_call)


def _sign_grid(e: Exponents, n: int) -> list[ParamPoint]:
    """sign_suite's grid, row by row."""
    pts = []
    for s2 in np.linspace(0.15, 0.97, n).tolist():
        top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        pts += [ParamPoint(s1, s2) for s1 in np.linspace(0.02 * top, 0.98 * top, n).tolist()]
    return pts


@pytest.mark.parametrize("pair", [(3.0, 2.0), (5.0, 1.2), (20.0, 19.0)], ids=str)
def test_sign_suite_does_the_scalar_solves_work(calls, monkeypatch, pair):
    e, n = Exponents(*pair), 12
    # H_r evaluations of each scalar solve's certificate
    certificates, omega_near = [], hardyconst.solver._omega_near

    def counted_certificate(q, tau, w):
        before = calls["h"]
        z = omega_near(q, tau, w)
        certificates.append(calls["h"] - before)
        return z

    monkeypatch.setattr(hardyconst.solver, "_omega_near", counted_certificate)
    _alpha.cache_clear()
    for pt in _sign_grid(e, n):
        try:
            solve_t(e, pt)
        except hardyconst.errors.NoRootError:
            pass
    scalar, certificate_h = dict(calls), sum(certificates)
    assert certificate_h > 0
    for key in calls:
        calls[key] = 0
    certificates.clear()
    lanes = {"_h_lanes": 0, "solve_t": 0}
    for module, name in [
        (hardyconst.lanes, "_h_lanes"),
        (hardyconst.solver, "solve_t"),
        (hardyconst.verify, "solve_t"),
    ]:

        def counted(*args, inner=getattr(module, name), name=name):
            lanes[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
    _alpha.cache_clear()
    sign_suite(e, n)
    # no scalar solve, no H_r on lanes and no certificate
    assert lanes == {"_h_lanes": 0, "solve_t": 0}
    assert certificates == []
    # g in the lock-step passes and in the stragglers' scalar kernel
    assert calls["g_lanes"] > 0 and calls["g"] > calls["g_lanes"]
    assert calls["g"] == scalar["g"]
    # the scalar loop's H_r less its certificates': alpha(s2)'s alone
    assert calls["h"] == scalar["h"] - certificate_h
    assert calls["alpha"] == scalar["alpha"] == n


@pytest.mark.parametrize("pair", [(2.0, 1.5), (2.5, 1.3), (5.0, 1.2)])
def test_endgame_suite_forms_f_and_g_as_the_public_functions(pair, monkeypatch):
    e = Exponents(*pair)
    formed = {"_f_at": [], "_f_deriv_at": [], "_g_at": []}
    for name, seen in formed.items():
        helper = getattr(hardyconst.verify, name)

        def recorded(e, s2, w, helper=helper, seen=seen):
            seen.append((s2, helper(e, s2, w)))
            return seen[-1][1]

        monkeypatch.setattr(hardyconst.verify, name, recorded)
    endgame_suite(e)
    assert [len(v) for v in formed.values()] == [101, 100, 193]
    for name, public in (("_f_at", big_f), ("_f_deriv_at", big_f_deriv), ("_g_at", big_g)):
        assert formed[name] == [(s2, public(e, s2)) for s2, _ in formed[name]]


@pytest.fixture
def moment_calls(monkeypatch):
    """The step functions ``hardy.step_moments`` has been called on, in order."""
    seen = []
    step_moments = hardyconst.hardy.step_moments

    def counted_step_moments(h, e):
        seen.append(h)
        return step_moments(h, e)

    monkeypatch.setattr(hardyconst.hardy, "step_moments", counted_step_moments)
    return seen


def test_a_moment_error_is_not_kept(moment_calls):
    e = Exponents(5.0, 1.2)
    h = StepFunction(1.0, (0.0, 0.5, 1.0), (1e70, 1.0))
    for _ in range(2):
        with pytest.raises(DomainError, match=r"int h\^p overflows"):
            verify_hardy(h, e)
    assert moment_calls == [h, h]


@pytest.mark.parametrize("samples, steps, draws, chunks", [(8, 4, 8, 1), (300, 8, 320, 3)])
def test_hardy_command_draws_and_solves_once_per_sample(
    calls, moment_calls, monkeypatch, capsys, samples, steps, draws, chunks
):
    # draws: the sample-by-sample loop's count on (3, 2) with the default
    # seed; 300 samples of 8 pieces take 128 + 128 + 44 per chunk
    passes, decisions = [], []
    lhs_rows, decide = hardyconst.hardy._lhs_rows, hardyconst.solver._decide

    def counted_lhs_rows(hs, e):
        passes.append(len(hs))
        return lhs_rows(hs, e)

    def counted_decide(e, pt):
        decisions.append(pt)
        return decide(e, pt)

    monkeypatch.setattr(hardyconst.hardy, "_lhs_rows", counted_lhs_rows)
    monkeypatch.setattr(hardyconst.solver, "_decide", counted_decide)
    argv = ["hardy", "--p", "3", "--q", "2", "--samples", str(samples), "--steps", str(steps)]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == samples + 1
    assert len(moment_calls) == calls["alpha"] == len(decisions) == draws
    assert len(passes) == chunks
    assert sum(passes) == samples
