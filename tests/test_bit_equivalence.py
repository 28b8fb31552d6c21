"""Bit-for-bit equivalence of the root kernel, and the solvability decision.

``_reference_bracketed_root`` is a verbatim copy of the ITP kernel before
its per-step arithmetic was streamlined (running projection scale,
comparisons in place of ``abs``/``max``, the side of f(b) hoisted), when it
solved f(x) = y for f rising or falling.  The kernel now solves f(x) = 0
for f rising through its root, so a reference call (f, y) maps onto a
kernel call on y - f with end values y - f(a) and y - f(b) where f falls,
and onto one on f itself where y = 0 and f rises; negation is exact, so
both take the same steps.  The kernel must return the reference's floats
on every input, so every verdict and every CSV byte of the package stays
the same: ``solve_t`` must return every field, its certificate included,
as it does on the reference kernel.  One exception: a w/xtol just above a
power of two >= 16, where the reference's ``math.log2`` schedule rounds
ceil(log2(w/xtol)) down and is one step short of the kernel's exact one
(``test_special.TestItpSchedule``).  Writing
``(b - a) ** 2`` as a product changes omega_r on some inputs, mostly at
r = 1.05 and 1.1, so the random brackets below include those exponents.

``_omega_lanes`` and ``_h_lanes``, the lane-wise twins that invert whole
grids in ``verify``, must equal ``omega`` and ``_h`` bit for bit too, on the
suite's grid and on every exponent a tested ``verify`` pair brings in, with
one exponent per call and with a different exponent in each lane.  So
must their hand-off to the scalar kernel, which finishes the last few lanes
from the state they reached: on calls of 1, N - 1, N and N + 1 targets, N
the straggler threshold, and with the threshold at 0 (every lane runs its
lock-step passes to the end) and above the lane count (every lane is
``omega``'s).  So must the Newton start, at its edges (a start that rounds
to 1, r' near 1e9 and near 1 + 1e-15, subnormal s, and 1 - s down to 1e-16,
where most lanes fall back to the natural bracket, in calls that mix both
kinds), and a call whose lanes start on each of the three brackets, 1e-15 r'
and 4e-15 r' around the estimate and [1, r'].  A call of no lane returns an
empty array.

``solve_lanes``, the lane twin of ``solve_t`` that ``sign_suite`` and
``fd_suite`` solve with, is the loop that calls ``solve_t`` on each lane in
order and marks the lane not ok where it raises NoRootError.  It must return
that loop's verdict and the bits of the fields it returns (t, u and alpha,
the ones those suites read), through the same hand-off and at either end of
it, on top-cap points, a batch whose lanes all take the top cap and one of
no lane, s1 down to 5e-324, s2 within 1e-11 of the lower curve, rows of
equal s2, no-root points, a pair with u_top <= 0, a pair with p/(p-1) <=
1 + 1e-12 and a lane whose g(u_top) is not finite, which ``solve_t``
solves; and raise what the loop raises first, type and
message, where an outside or invalid point or a lane that ``solve_t``
redoes raises.  Its lane twins of ``in_domain``
(``lanes._outside_lanes``) and of gamma, delta and lambda
(``solver.sign_factors`` on arrays) must equal the scalar functions bit for
bit on the same points.

``has_root`` tests the sign of g at u_top alone: it must reject each point
where the residual's sign at t = 1 + 1e-12, with omega_q inverted there,
puts the root below that floor, and elsewhere decide as the mpmath oracle's
sign of g(u_top) does.

``hardy_lhs`` evaluates every segment's quadrature in one array expression
with its sums in a fixed order.  ``_reference_hardy_lhs`` is a verbatim copy
of the per-segment loop it replaced, whose node sums went through
``np.dot``, with that sum written out in the same fixed order, so that the
reference does not follow the dot kernel OpenBLAS picks for the CPU; both
returned floats must be equal.  ``_lhs_rows``, the pass
over a whole chunk of step functions that ``hardy_lhs`` is one row of, must
give each row the floats of its own one-row pass and of the loop.
"""

import math
from collections.abc import Callable
from functools import partial

import numpy as np
import pytest
from mp_oracle import g_at

import hardyconst.lanes
import hardyconst.solver
import hardyconst.special
from hardyconst import (
    Exponents,
    Membership,
    ParamPoint,
    StepFunction,
    hardy_lhs,
    has_root,
    in_domain,
    solve_t,
)
from hardyconst.errors import DomainError, NoRootError, OutsideDomainError, SingularityError
from hardyconst.hardy import _lhs_rows
from hardyconst.lanes import _STRAGGLER_LANES, _h_lanes, _omega_lanes, _outside_lanes
from hardyconst.sensitivity import delta_eval, gamma_eval, lambda_eval
from hardyconst.solver import (
    _u_top,
    residual,
    sign_factors,
    solve_lanes,
    tau_eval,
)
from hardyconst.special import (
    _BRACKET_REL_TOL,
    _bracketed_root,
    _h,
    _omega_start,
    omega,
)

#: R_SET of test_special.py, plus exponents near 1 where the pow trap showed
R_KERNEL = [1.001, 1.05, 1.1, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0]
#: the benchmark's pairs, then pairs with q near p and a few stiffer ones
PAIRS = [
    (2.0, 1.5), (3.0, 2.0), (2.5, 1.3), (5.0, 1.2), (2.5, 1.5), (10.0, 1.05),
    (1.5, 1.1), (1.5, 1.45), (20.0, 19.0), (2.0, 1.999),
]
#: R_KERNEL plus the exponents that the tested verify pairs bring into
#: inverse_suite: (2.5, 1.3), (5, 1.2) and (4.023..., 1.8959...)
R_LANES = R_KERNEL + [1.2, 2.5, 4.023077022296251, 1.8959193885654708]
#: every field of a ``solve_t`` solution, and the ones ``solve_lanes`` returns
SOLUTION_FIELDS = ("t", "u", "tau", "omega_q_tau", "residual", "bracket_width", "alpha")
FIELDS = ("t", "u", "alpha")


def _reference_bracketed_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float,
    y: float = 0.0,
    k1: float | None = None,
) -> tuple[float, float, float, float]:
    """ITP search for x in (a, b) with f(x) = y.

    fa = f(a) and fb = f(b) lie on opposite sides of y; the caller may know
    them exactly, and either may equal y.  Iterates
    until the bracket is at most xtol wide, or its ends are adjacent floats,
    or f hits y exactly.  Returns the final bracket (a, b), whose ends keep
    the sides of fa and fb, the evaluated interior point x with the smallest
    |f(x) - y| and f(x) as f returned it; when the bracket needed no
    evaluation, the initial midpoint and nan.  ITP's parameters are
    k1 = 0.2/(b-a) unless given, k2 = 2 and n0 = 3: at most three
    evaluations more than bisection to reach xtol.  With n0 = 1 a few slow
    regula falsi steps early on use up the slack and the rest is plain
    bisection (50 evaluations for omega_2 at s = 0.99575; 11 with n0 = 3).
    """
    if k1 is None:
        k1 = 0.2 / (b - a)
    fa, fb = fa - y, fb - y
    n_max = max(math.ceil(math.log2((b - a) / xtol)), 0) + 3
    best_x, best_f, best_g = 0.5 * (a + b), math.nan, math.inf
    j = 0
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        # Projection radius: keeps the step close enough to the midpoint
        # that the bracket reaches xtol within n_max evaluations.
        radius = max(xtol * 2.0 ** (n_max - j - 1) - 0.5 * (b - a), 0.0)
        x_f = (fb * a - fa * b) / (fb - fa)
        sigma = 1.0 if mid >= x_f else -1.0
        delta = k1 * (b - a) ** 2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if not a < x < b:
            x = mid
        fx = f(x)
        g = fx - y
        j += 1
        if abs(g) < abs(best_g):
            best_x, best_f, best_g = x, fx, g
        if g == 0.0:
            return x, x, x, fx
        if (g > 0.0) == (fb > 0.0):
            b, fb = x, g
        else:
            a, fa = x, g
    return a, b, best_x, best_f



def _points(e: Exponents, n: int, seed: int) -> list[ParamPoint]:
    """n points below the lower-curve abscissa, half of them at s1/s1_top
    log-uniform down to 1e-9, a few past it."""
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n):
        s2 = float(rng.uniform(0.01, 0.999))
        top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        frac = 10.0 ** rng.uniform(-9.0, 0.0) if i % 2 else rng.uniform(0.0, 1.05)
        pts.append(ParamPoint(float(min(max(top * frac, 1e-300), 0.999999)), s2))
    return pts


@pytest.mark.parametrize("r", R_KERNEL)
def test_kernel_matches_reference_on_omega_brackets(r):
    rng = np.random.default_rng(int(r * 1000))
    top = r / (r - 1.0)
    xtol, k1 = _BRACKET_REL_TOL * top, 0.2 / (top - 1.0)
    f = partial(_h, r)
    for _ in range(300):
        s = float(rng.uniform(0.0, 1.0))
        z = sorted(rng.uniform(1.0, top, 2)) if rng.uniform() < 0.5 else (1.0, top)
        z_lo, z_hi = float(z[0]), float(z[1])
        h_lo, h_hi = _h(r, z_lo), _h(r, z_hi)
        if not h_lo > s > h_hi:
            z_lo, h_lo, z_hi, h_hi = 1.0, 1.0, top, 0.0
        # the kernel on s - H_r against the reference on H_r = s
        new = _bracketed_root(lambda x: s - f(x), z_lo, z_hi, s - h_lo, s - h_hi, xtol, k1)
        ref = _reference_bracketed_root(f, z_lo, z_hi, h_lo, h_hi, xtol, s, k1)[:3]
        # bit patterns, so that -0.0 and 0.0 differ too
        assert [x.hex() for x in new] == [x.hex() for x in ref], (r, s, z_lo, z_hi)


def test_kernel_matches_reference_with_default_k1():
    # solve_t's call for the u equation: k1 from the bracket, y = 0
    for c in np.linspace(0.01, 0.99, 50):
        f = lambda x, c=float(c): x**3 - c  # noqa: E731
        args = (f, 0.0, 1.0, -float(c), 1.0 - float(c), 1e-15)
        assert _bracketed_root(*args) == _reference_bracketed_root(*args)[:3]


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_solve_matches_reference_kernel(monkeypatch, pair):
    e = Exponents(*pair)
    pts = [pt for pt in _points(e, 80, 7) if has_root(e, pt)]
    assert len(pts) >= 10
    sols = [solve_t(e, pt) for pt in pts]
    # callers pass the kernel's (f, a, b, fa, fb, xtol, k1), the reference's
    # with y = 0; it also returns f at its best point, and callers take three
    def reference(f, a, b, fa, fb, xtol, k1=None):
        return _reference_bracketed_root(f, a, b, fa, fb, xtol, 0.0, k1)[:3]

    monkeypatch.setattr(hardyconst.special, "_bracketed_root", reference)
    monkeypatch.setattr(hardyconst.solver, "_bracketed_root", reference)
    # so that the reference kernel computes every alpha again
    hardyconst.solver._alpha.cache_clear()
    for pt, sol in zip(pts, sols):
        ref = solve_t(e, pt)
        assert [getattr(sol, f).hex() for f in SOLUTION_FIELDS] == [
            getattr(ref, f).hex() for f in SOLUTION_FIELDS
        ]


def _lane_points(e: Exponents, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n points in rows of 8 at one s2 each: a quarter at s1/s1_top uniform in
    (0, 1.05), a quarter log-uniform down to 1e-320 (the top cap) with
    5e-324 among them, a quarter within 1e-11 relative below s1_top and a
    quarter with s2 within 1e-11 of the lower curve."""
    rng = np.random.default_rng(seed)
    s2 = np.repeat(rng.uniform(0.01, 0.999, n // 8 + 1), 8)[:n]
    top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
    kind = np.arange(n) % 4
    frac = np.select(
        [kind == 0, kind == 1],
        [rng.uniform(0.0, 1.05, n), 10.0 ** rng.uniform(-320.0, 0.0, n)],
        1.0 - 10.0 ** rng.uniform(-11.0, 0.0, n),
    )
    s1 = np.clip(top * frac, 5e-324, 0.999999)
    s1[1] = 5e-324
    near = kind == 3
    lower = s1[near] ** ((e.q - 1.0) / (e.p - 1.0))
    s2[near] = np.clip(lower + rng.uniform(-1e-11, 1e-11, near.sum()), 5e-324, 1.0)
    return s1, s2


def _solved(e: Exponents, s1: np.ndarray, s2: np.ndarray) -> list[tuple[str, ...]]:
    """``solve_t``'s verdict and the bits of its t, u and alpha, point by
    point; an outside point carries its OutsideDomainError's message."""
    out = []
    for x, y in zip(s1.tolist(), s2.tolist()):
        try:
            sol = solve_t(e, ParamPoint(x, y))
        except NoRootError:
            out.append(("no-root",))
        except OutsideDomainError as exc:
            out.append(("outside", str(exc)))
        else:
            out.append(("ok", *(getattr(sol, f).hex() for f in FIELDS)))
    return out


def _solved_lanes(e: Exponents, s1: np.ndarray, s2: np.ndarray) -> list[tuple[str, ...]]:
    """``_solved`` from one ``solve_lanes`` call on points none of which is
    outside."""
    sol = solve_lanes(e, s1, s2)
    fields = [getattr(sol, f).tolist() for f in FIELDS]
    return [
        ("ok", *(v[i].hex() for v in fields)) if sol.ok[i] else ("no-root",)
        for i in range(s1.size)
    ]


def _assert_lanes_match(e: Exponents, s1: np.ndarray, s2: np.ndarray, expected: list) -> None:
    """``solve_lanes`` gives ``_solved``'s verdicts and bits on the points
    that are not outside, and on all the points raises what a loop of
    ``solve_t`` raises first: the first outside point's OutsideDomainError,
    with its message."""
    inside = np.array([v[0] != "outside" for v in expected])
    assert _solved_lanes(e, s1[inside], s2[inside]) == [v for v in expected if v[0] != "outside"]
    first = next(v[1] for v in expected if v[0] == "outside")
    with pytest.raises(OutsideDomainError) as info:
        solve_lanes(e, s1, s2)
    assert (type(info.value), str(info.value)) == (OutsideDomainError, first)


@pytest.fixture(scope="module")
def lane_cases() -> dict[tuple[float, float], tuple]:
    """Each pair's ``_lane_points`` with ``_solved`` on them."""
    cases = {}
    for i, pair in enumerate(PAIRS):
        e = Exponents(*pair)
        s1, s2 = _lane_points(e, 320, 100 + i)
        cases[pair] = s1, s2, _solved(e, s1, s2)
    return cases


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_solve_lanes_match_solve_t(lane_cases, pair):
    e = Exponents(*pair)
    s1, s2, expected = lane_cases[pair]
    _assert_lanes_match(e, s1, s2, expected)
    verdicts = [v[0] for v in expected]
    cap = math.nextafter(e.p_conj, 0.0).hex()
    assert {"ok", "outside"} <= set(verdicts)
    assert sum(v[0] == "ok" and v[1] == cap for v in expected) >= 3


@pytest.mark.parametrize(
    "n", [1, _STRAGGLER_LANES - 1, _STRAGGLER_LANES, _STRAGGLER_LANES + 1]
)
def test_solve_lanes_match_solve_t_across_the_hand_off(lane_cases, n):
    for pair in [(2.0, 1.5), (5.0, 1.2), (2.0, 1.999)]:
        e = Exponents(*pair)
        s1, s2, expected = lane_cases[pair]
        # points with a root below the top cap, so that the u solve sees n
        # lanes
        cap = math.nextafter(e.p_conj, 0.0).hex()
        ok = np.flatnonzero([v[0] == "ok" and v[1] != cap for v in expected])[:n]
        assert ok.size == n
        assert _solved_lanes(e, s1[ok], s2[ok]) == [expected[i] for i in ok]


@pytest.mark.parametrize("handoff", ["pure lanes", "pure scalar"])
def test_solve_lanes_match_solve_t_at_either_end_of_the_hand_off(
    monkeypatch, lane_cases, handoff
):
    lanes = 0 if handoff == "pure lanes" else 10**6
    monkeypatch.setattr(hardyconst.lanes, "_STRAGGLER_LANES", lanes)
    for pair in [(2.0, 1.5), (2.5, 1.3), (10.0, 1.05), (1.5, 1.45)]:
        s1, s2, expected = lane_cases[pair]
        _assert_lanes_match(Exponents(*pair), s1, s2, expected)


@pytest.fixture
def brackets(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """The initial brackets (a, b) of each ``_root_lanes`` call."""
    seen = []
    root_lanes = hardyconst.lanes._root_lanes

    def counted(f_lanes, f_of_lane, a, b, *rest):
        seen.append((a.copy(), b.copy()))
        return root_lanes(f_lanes, f_of_lane, a, b, *rest)

    monkeypatch.setattr(hardyconst.lanes, "_root_lanes", counted)
    return seen


def _natural(bracket: tuple[np.ndarray, np.ndarray], r: float) -> int:
    """Lanes of a ``brackets`` entry on omega_r's natural bracket [1, r']."""
    a, b = bracket
    return np.count_nonzero((a == 1.0) & (b == r / (r - 1.0)))


def test_solve_lanes_where_u_top_is_not_positive():
    # q (q-1) < 2e-14 p/(p-q) (p-1)^2: no point of the pair has a root that
    # counts; s2 near 1 keeps s1's top, s2^(2e7), above the float range's floor
    e = Exponents(1e7, 1.5)
    assert _u_top(e) <= 0.0
    s2 = 1.0 - np.geomspace(1e-5, 1e-7, 40)
    s1 = s2 ** ((e.p - 1.0) / (e.q - 1.0)) * np.linspace(0.01, 1.01, 40)
    expected = _solved(e, s1, s2)
    _assert_lanes_match(e, s1, s2, expected)
    assert "no-root" in {v[0] for v in expected}


def test_solve_lanes_with_nothing_to_root_solve(brackets):
    # every lane takes the top cap, and a batch of no lane: a _root_lanes
    # call of the u solve gets no lane
    e = Exponents(3.0, 2.0)
    s1, s2 = np.array([1e-300, 1e-200, 1e-100]), np.array([0.3, 0.5, 0.9])
    expected = _solved(e, s1, s2)
    cap = math.nextafter(e.p_conj, 0.0).hex()
    assert [v[:2] for v in expected] == [("ok", cap)] * 3
    assert _solved_lanes(e, s1, s2) == expected
    empty = np.array([])
    assert _solved_lanes(e, empty, empty) == []
    assert all(a.size == 0 for a, _ in brackets)


def test_solve_lanes_raise_what_solve_t_raises(monkeypatch):
    # p/(p-1) <= 1 + 1e-12 leaves no t above the floor: every lane is no-root,
    # and none is redone
    redone, failing = [], set()
    scalar = hardyconst.solver.solve_t

    def recorded(e, pt):
        redone.append(pt)
        if pt in failing:
            raise SingularityError("injected")
        return scalar(e, pt)

    monkeypatch.setattr(hardyconst.solver, "solve_t", recorded)
    e, s2 = Exponents(1e14, 2e13), np.full(3, 0.5)
    s1 = np.array([1e-100, 1e-300, 1e-200])
    assert _solved_lanes(e, s1, s2) == _solved(e, s1, s2) == [("no-root",)] * 3
    assert redone == []

    # g(u_top) is nan on the lane of s1 = 0.71 alone, so solve_t redoes that
    # lane and finds no root there; 0.1 and 0.5 are ok
    e, no_root = Exponents(3.0, 2.0), 0.71
    u_equation = hardyconst.solver._u_equation

    def doctored(e, s1, ratio, k, pw):
        g, t_of = u_equation(e, s1, ratio, k, pw)
        if pw is math.pow:
            return g, t_of
        return lambda u: np.where(s1 == no_root, math.nan, g(u)), t_of

    monkeypatch.setattr(hardyconst.solver, "_u_equation", doctored)
    s1, s2 = np.array([0.1, no_root, 0.5]), np.full(3, 0.85)
    lanes = _solved_lanes(e, s1, s2)
    assert lanes == _solved(e, s1, s2) and [v[0] for v in lanes] == ["ok", "no-root", "ok"]
    assert redone == [ParamPoint(no_root, 0.85)]

    # any other error of a redone lane propagates, and the first lane that
    # raises decides what, as in a loop of solve_t: an invalid point (s1 =
    # 0), an outside one (s1 = 0.9, below the lower curve) or a redone lane
    failing.add(ParamPoint(no_root, 0.85))
    kinds = set()
    for lanes in ([0.1, no_root], [0.9, no_root], [no_root, 0.9], [0.5, 0.0, 0.9, no_root],
                  [0.9, 0.0], [0.1, 0.9, 0.5]):
        s1, s2 = np.array(lanes), np.full(len(lanes), 0.85)
        want = _first_raised(recorded, e, s1, s2)
        with pytest.raises(DomainError) as info:
            solve_lanes(e, s1, s2)
        assert (type(info.value), str(info.value)) == (type(want), str(want))
        kinds.add(type(want))
    assert kinds == {DomainError, OutsideDomainError, SingularityError}


def test_solve_lanes_redo_a_lane_that_solve_t_solves(monkeypatch):
    # g(u_top), the first lane evaluation of g, is nan on lane 1 alone: solve_t
    # solves that lane, and it is ok with solve_t's bits
    e = Exponents(2.0, 1.5)
    s1, s2 = 0.25 ** 2.0 * np.array([0.2, 0.5, 0.8]), np.full(3, 0.25)
    expected = _solved(e, s1, s2)
    assert [v[0] for v in expected] == ["ok"] * 3
    u_equation, calls, redone = hardyconst.solver._u_equation, [0], []
    scalar = hardyconst.solver.solve_t

    def doctored(e, s1, ratio, k, pw):
        g, t_of = u_equation(e, s1, ratio, k, pw)
        if pw is math.pow:
            return g, t_of

        def lane_g(u):
            calls[0] += 1
            out = g(u)
            if calls[0] == 1:
                out[1] = math.nan
            return out

        return lane_g, t_of

    def recorded(e, pt):
        redone.append(pt)
        return scalar(e, pt)

    monkeypatch.setattr(hardyconst.solver, "_u_equation", doctored)
    monkeypatch.setattr(hardyconst.solver, "solve_t", recorded)
    assert _solved_lanes(e, s1, s2) == expected
    assert calls[0] > 1 and redone == [ParamPoint(float(s1[1]), 0.25)]


def _first_raised(solve, e: Exponents, s1: np.ndarray, s2: np.ndarray) -> Exception | None:
    """What a loop of solve over the points raises first, NoRootError aside."""
    for x, y in zip(s1.tolist(), s2.tolist()):
        try:
            solve(e, ParamPoint(x, y))
        except NoRootError:
            continue
        except DomainError as exc:
            return exc
    return None


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_outside_lanes_match_in_domain(lane_cases, pair):
    e = Exponents(*pair)
    s1, s2, _ = lane_cases[pair]
    expected = [
        in_domain(e, ParamPoint(x, y)) is not Membership.INSIDE
        for x, y in zip(s1.tolist(), s2.tolist())
    ]
    assert _outside_lanes(e, s1, s2).tolist() == expected
    assert set(expected) == {False, True}


def test_outside_lanes_on_the_lower_boundary():
    e = Exponents(2.5, 1.3)
    s1 = np.array([0.3, 0.3, 0.3, 0.999999, 1.0, 0.2])
    lower = 0.3 ** ((e.q - 1.0) / (e.p - 1.0))
    s2 = np.array([lower + 5e-13, lower + 2e-12, lower - 2e-12, 0.99999999, 1.0, 1.0])
    kinds = [in_domain(e, ParamPoint(x, y)) for x, y in zip(s1.tolist(), s2.tolist())]
    assert Membership.ON_LOWER_BOUNDARY in kinds and Membership.INSIDE in kinds
    assert _outside_lanes(e, s1, s2).tolist() == [k is not Membership.INSIDE for k in kinds]


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_signs_lanes_match_the_scalar_signs(lane_cases, pair):
    e = Exponents(*pair)
    s1, s2, expected = lane_cases[pair]
    ok = np.array([v[0] == "ok" for v in expected])
    s1, s2 = s1[ok], s2[ok]
    sol = solve_lanes(e, s1, s2)
    scalar = []
    for x, y in zip(s1.tolist(), s2.tolist()):
        pt = ParamPoint(x, y)
        ref = solve_t(e, pt)
        scalar.append((gamma_eval(e, pt, ref), delta_eval(e, pt, ref), lambda_eval(e, pt, ref.t)))
    lanes = sign_factors(e, s1, s2, sol.t, sol.u, sol.alpha, np.float_power)
    assert [_bits(v) for v in lanes] == [_bits(v) for v in zip(*scalar)]


def _left_end_inverted(e: Exponents, pt: ParamPoint, lo: float = 1.0 + 1e-12) -> bool | None:
    """residual(lo) < 0, with omega_q inverted at lo, or None outside."""
    if in_domain(e, pt) is not Membership.INSIDE:
        return None
    return tau_eval(e, pt, lo) <= 1.0 and residual(e, pt, lo) < 0.0


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_closed_form_lo_test_keeps_the_decision(pair):
    # has_root is in_domain and g(u_top) > 0: with the left end inverted in
    # t-space and g(u_top)'s sign from the 40-digit oracle (mp_oracle, at
    # every third point, as it costs ~1 ms), it must decide the same
    e = Exponents(*pair)
    u_top = _u_top(e)
    oracle_checks = 0
    for i, pt in enumerate(_points(e, 120, 11)):
        left = _left_end_inverted(e, pt)
        if left is None:
            assert not has_root(e, pt), pt
            continue
        if not left:
            assert not has_root(e, pt), pt
        elif i % 3 == 0:
            g_top = g_at(e.p, e.q, pt.s1, pt.s2, u_top)
            assert abs(g_top) > 1e-12, pt
            assert has_root(e, pt) == (g_top > 0), pt
            oracle_checks += 1
    assert oracle_checks >= 20


def _bits(x) -> list[int]:
    """The IEEE bit patterns of an array of floats, so nan and -0.0 compare too."""
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _lane_targets(seed: int) -> np.ndarray:
    """inverse_suite's grid, seeded uniform s, s down to the smallest subnormal
    and s within a few ulp of 1."""
    rng = np.random.default_rng(seed)
    near_0 = [5e-324, 1e-323, 2.2250738585072014e-308, 1e-300, 1e-17]
    near_1 = [1.0 - k * 2.0**-53 for k in (1, 2, 3, 5, 8)]
    near_1 += [1.0 - k * 2.0**-52 for k in (1, 2, 3)]
    grid = np.linspace(0.0, 1.0, 1000)
    return np.concatenate([grid, rng.uniform(0.0, 1.0, 2000), near_0, near_1])


@pytest.mark.parametrize("r", R_LANES)
def test_omega_lanes_match_scalar_omega(r):
    s = _lane_targets(int(r * 1000))
    assert _bits(_omega_lanes(r, s)) == _bits([omega(r, float(x)) for x in s])


@pytest.mark.parametrize("r", R_LANES)
def test_h_lanes_match_scalar_h(r):
    rng = np.random.default_rng(int(r * 1000) + 1)
    top = r / (r - 1.0)
    z = np.concatenate([
        [1.0, top, math.nextafter(top, 0.0)],
        _omega_lanes(r, _lane_targets(int(r * 1000))),
        rng.uniform(1.0, top, 2000),
    ])
    assert _bits(_h_lanes(r, z)) == _bits([_h(r, float(x)) for x in z])


def test_omega_lanes_on_a_bracket_within_tolerance():
    # r' - 1 is below omega's bracket tolerance: omega returns the midpoint
    s = np.linspace(0.0, 1.0, 11)
    for r in (4e15, 1e16, 1e300):
        assert _bits(_omega_lanes(r, s)) == _bits([omega(r, float(x)) for x in s])


#: exponents of one mixed call: R_LANES' range, then exponents whose bracket
#: [1, r'] is within omega's tolerance
R_MIXED = [1.05, 1.3, 2.5, 5.0, 20.0, 4e15, 1e16, 1e300]


def _mixed_lanes(exps: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Every exponent's ``_lane_targets``, one lane each, in a seeded shuffle."""
    r = np.concatenate([np.full(_lane_targets(i).size, x) for i, x in enumerate(exps)])
    s = np.concatenate([_lane_targets(i) for i in range(len(exps))])
    order = np.random.default_rng(17).permutation(r.size)
    return r[order], s[order]


@pytest.fixture(scope="module")
def mixed_lanes() -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``_mixed_lanes(R_MIXED)`` and the bits of ``omega`` on each lane."""
    r, s = _mixed_lanes(R_MIXED)
    return r, s, _bits([omega(float(x), float(y)) for x, y in zip(r, s)])


def test_omega_lanes_with_one_exponent_per_lane_match_scalar_omega(mixed_lanes):
    r, s, expected = mixed_lanes
    assert _bits(_omega_lanes(r, s)) == expected


@pytest.mark.parametrize(
    "n", [1, _STRAGGLER_LANES - 1, _STRAGGLER_LANES, _STRAGGLER_LANES + 1]
)
def test_omega_lanes_match_scalar_omega_across_the_hand_off(mixed_lanes, n):
    # up to _STRAGGLER_LANES targets finish in the scalar kernel before any
    # pass; one more runs a lock-step pass first, or with s = 0 and 1 among
    # them, hands its interior lanes to the scalar kernel before any pass
    for i, x in enumerate(R_MIXED):
        t = _lane_targets(i)
        s = t[np.random.default_rng(n + i).choice(t.size, n, replace=False)]
        cases = [s, np.concatenate([[0.0, 1.0], s[2:]])] if n > 2 else [s]
        for s in cases:
            assert _bits(_omega_lanes(x, s)) == _bits([omega(x, float(y)) for y in s])
    r, s, expected = mixed_lanes
    assert _bits(_omega_lanes(r[:n], s[:n])) == expected[:n]


@pytest.mark.parametrize("handoff", ["pure lanes", "pure scalar"])
def test_omega_lanes_match_scalar_omega_at_either_end_of_the_hand_off(
    monkeypatch, mixed_lanes, handoff
):
    # the straggler threshold at 0 runs every lane to its end in lock-step
    # passes; above the lane count every lane is omega's
    r, s, expected = mixed_lanes
    lanes = 0 if handoff == "pure lanes" else r.size + 1
    monkeypatch.setattr(hardyconst.lanes, "_STRAGGLER_LANES", lanes)
    assert _bits(_omega_lanes(r, s)) == expected
    for x in (1.05, 2.5, 4.023077022296251):
        t = _lane_targets(int(x * 1000))
        assert _bits(_omega_lanes(x, t)) == _bits([omega(x, float(y)) for y in t])


#: exponents at the Newton start's edges: r' near 1e9 and r' - 1 near 1e-8
#: and 1e-15, where the start rounds to 1 for s within an ulp of 1
R_EDGE = [1.0 + 1e-9, 1.05, 2.5, 20.0, 1e3, 1e8, 1e15]


def _edge_targets(seed: int) -> np.ndarray:
    """s within a few ulp of 1 and down to the smallest subnormal, 1 - s from
    1e-16 to 1e-6, where H_r varies by less than rounding across the narrow
    bracket and most lanes fall back to the natural one, and uniform s."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        _lane_targets(seed)[-13:], 1.0 - np.geomspace(1e-16, 1e-6, 300),
        rng.uniform(0.0, 1.0, 300),
    ])


@pytest.mark.parametrize("handoff", ["threshold", "pure lanes", "pure scalar"])
def test_omega_lanes_match_scalar_omega_at_the_newton_starts_edges(
    monkeypatch, brackets, handoff
):
    lanes = {"threshold": _STRAGGLER_LANES, "pure lanes": 0, "pure scalar": 10**6}[handoff]
    monkeypatch.setattr(hardyconst.lanes, "_STRAGGLER_LANES", lanes)
    for i, r in enumerate(R_EDGE):
        s = _edge_targets(i)
        assert _bits(_omega_lanes(r, s)) == _bits([omega(r, float(x)) for x in s])
    # every call with r' - 1 above 1e-8 mixes narrow lanes with lanes that
    # fall back to the natural bracket
    for r, bracket in list(zip(R_EDGE, brackets))[:6]:
        assert 0 < _natural(bracket, r) < bracket[0].size
    assert _omega_start(1e15, 1.0 - 2.0**-53) == 1.0


def _rung_lanes(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n lanes, one r per lane, a third each of uniform s (the 1e-15 r'
    rung), 1 - s log-uniform in [1e-4, 1e-3], where some lanes need the
    4e-15 r' rung, and in [1e-9, 1e-6], where most fall back to [1, r']."""
    rng = np.random.default_rng(seed)
    k = n // 3
    s = np.concatenate([
        rng.uniform(0.0, 1.0, n - 2 * k),
        1.0 - 10.0 ** rng.uniform(-4.0, -3.0, k),
        1.0 - 10.0 ** rng.uniform(-9.0, -6.0, k),
    ])
    return rng.choice([1.5, 2.5, 20.0], n), rng.permutation(s)


@pytest.mark.parametrize("n", [_STRAGGLER_LANES, 6 * _STRAGGLER_LANES])
def test_omega_lanes_match_scalar_omega_on_every_rung(brackets, n):
    # one call whose lanes start on each of the three brackets, finished in
    # the scalar kernel alone, or in lock-step passes and then the kernel
    r, s = _rung_lanes(n, n)
    assert _bits(_omega_lanes(r, s)) == _bits([omega(float(x), float(y)) for x, y in zip(r, s)])
    ((a, b),) = brackets
    top = r / (r - 1.0)
    natural = (a == 1.0) & (b == top)
    wide = ~natural & (b - a > 4e-15 * top)
    assert natural.sum() > 0 and wide.sum() > 0 and (~natural & ~wide).sum() > 0


def test_omega_lanes_of_no_lane():
    for r in (2.0, np.array([])):
        z = _omega_lanes(r, np.array([]))
        assert z.dtype == float and z.shape == (0,)
    assert _bits(_omega_lanes(2.0, np.array([0.0, 1.0, 0.0]))) == _bits([2.0, 1.0, 2.0])


def test_h_lanes_with_one_exponent_per_lane_match_scalar_h():
    r, s = _mixed_lanes(R_LANES)
    z = _omega_lanes(r, s)
    assert _bits(_h_lanes(r, z)) == _bits([_h(float(x), float(y)) for x, y in zip(r, z)])


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, -math.inf])
def test_omega_lanes_reject_what_omega_rejects(bad):
    with pytest.raises(DomainError) as scalar:
        omega(2.0, bad)
    with pytest.raises(DomainError) as lanes:
        _omega_lanes(2.0, np.array([0.5, bad, 0.25]))
    assert str(lanes.value) == str(scalar.value)


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, -math.inf])
def test_omega_lanes_name_the_exponent_of_the_rejected_lane(bad):
    with pytest.raises(DomainError) as scalar:
        omega(3.0, bad)
    with pytest.raises(DomainError) as lanes:
        _omega_lanes(np.array([2.0, 5.0, 3.0, 2.0]), np.array([0.5, 0.25, bad, -1.0]))
    assert str(lanes.value) == str(scalar.value)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _piece_quad(p: float, v: float, c: float, lo: float, hi: float) -> float:
    """Gauss-Legendre integral of (v + c/t)^p over (lo, hi), 0 < lo < hi.

    v + c/t is the running average on a segment whose accumulated integral
    at its left breakpoint b0 is A: there c = A - v*b0, and the numerator
    A + v*(t - b0) = c + v*t stays nonnegative.  The 16 products are summed
    in four strided partial sums, as (s0 + s2) + (s1 + s3), written out so
    that the order does not depend on the dot kernel of the CPU's BLAS.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid + half * _GL_NODES
    f = (_GL_WEIGHTS * (v + c / t) ** p).tolist()
    s0, s1, s2, s3 = (f[n] + f[n + 4] + f[n + 8] + f[n + 12] for n in range(4))
    return half * ((s0 + s2) + (s1 + s3))


def _reference_hardy_lhs(h: StepFunction, e: Exponents) -> tuple[float, float]:
    """The averaging functional int ((1/t) int_0^t h)^p dt with an error estimate.

    Returns (value, error_estimate): value from the per-segment halved rule,
    error estimate as |halved - unhalved|.  On the first segment the running
    average is exactly the constant v_1 (c = 0), so the rule is exact there.
    """
    coarse = 0.0
    refined = 0.0
    accum = 0.0
    for v, b0, b1 in zip(h.values, h.breakpoints, h.breakpoints[1:]):
        c = accum - v * b0
        mid = 0.5 * (b0 + b1)
        coarse += _piece_quad(e.p, v, c, b0, b1)
        refined += _piece_quad(e.p, v, c, b0, mid) + _piece_quad(e.p, v, c, mid, b1)
        accum += v * (b1 - b0)
    return refined, abs(refined - coarse)


#: the benchmark's hardy pairs, then a pair near p = 1 and a large p
HARDY_PAIRS = [(2.0, 1.5), (3.0, 2.0), (2.5, 1.3), (5.0, 1.2), (1.05, 1.01), (50.0, 1.5)]


def _step_functions(n: int, seed: int) -> list[StepFunction]:
    """n step functions with 1, 64 or 2..63 pieces, about a quarter of the
    values 0, and kappa log-uniform in each of 1e-100.., 1e-3.., 1.. and 1e3..
    up to 1e100 in turn."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = (1, 64)[i % 2] if i % 5 < 2 else int(rng.integers(2, 64))
        lo, hi = ((-100.0, -3.0), (-3.0, 0.0), (0.0, 3.0), (3.0, 100.0))[i % 4]
        kappa = 10.0 ** rng.uniform(lo, hi)
        cuts = np.sort(rng.uniform(0.0, kappa, k - 1))
        values = np.where(rng.uniform(size=k) < 0.25, 0.0, rng.uniform(0.0, 4.0, k))
        values[rng.integers(k)] = rng.uniform(0.05, 4.0)
        out.append(StepFunction(kappa, (0.0, *cuts, kappa), tuple(values)))
    return out


@pytest.mark.parametrize("pair", HARDY_PAIRS, ids=lambda pq: f"p{pq[0]:g}q{pq[1]:g}")
def test_hardy_lhs_matches_the_per_segment_loop(pair):
    e = Exponents(*pair)
    for h in _step_functions(50, int(pair[0] * 100 + pair[1] * 10)):
        assert hardy_lhs(h, e) == _reference_hardy_lhs(h, e)


def _equal_pieces(k: int, n: int, seed: int) -> list[StepFunction]:
    """n step functions of k pieces each, about a quarter of the values 0,
    kappa 0.5, 1 or 3 for every other one and log-uniform in 1e-100..1e100
    for the rest."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kappa = (0.5, 1.0, 3.0)[i // 2 % 3] if i % 2 else 10.0 ** rng.uniform(-100.0, 100.0)
        cuts = np.sort(rng.uniform(0.0, kappa, k - 1))
        values = np.where(rng.uniform(size=k) < 0.25, 0.0, rng.uniform(0.0, 4.0, k))
        values[rng.integers(k)] = rng.uniform(0.05, 4.0)
        out.append(StepFunction(kappa, (0.0, *cuts, kappa), tuple(values)))
    return out


@pytest.mark.parametrize("pair", HARDY_PAIRS, ids=lambda pq: f"p{pq[0]:g}q{pq[1]:g}")
def test_lhs_rows_match_one_row_passes_and_the_loop(pair):
    e = Exponents(*pair)
    for k in (1, 2, 64):
        for size in (1, 4, 100):
            hs = _equal_pieces(k, size, int(pair[0] * 100 + pair[1] * 10) + 1000 * k + size)
            rows = [(v.hex(), err.hex()) for v, err in _lhs_rows(hs, e)]
            one_row = [tuple(x.hex() for x in hardy_lhs(h, e)) for h in hs]
            loop = [tuple(x.hex() for x in _reference_hardy_lhs(h, e)) for h in hs]
            assert rows == one_row == loop, (k, size)
