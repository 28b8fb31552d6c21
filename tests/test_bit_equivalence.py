"""Bit-for-bit equivalence of the root kernel, and the solvability decision.

``_reference_bracketed_root`` is a verbatim copy of the ITP kernel before
its per-step arithmetic was streamlined (running projection scale,
comparisons in place of ``abs``/``max``, the side of f(b) hoisted).  The
streamlined kernel must return the same floats on every input, so every
verdict and every CSV byte of the package stays the same.  Writing
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
kinds), and ``_omega_lanes`` from given estimates, against ``_omega_near``.

``solve_lanes``, the lane twin of ``solve_t`` that ``sign_suite`` solves
its grid with, must return ``solve_t``'s verdict and every field bit for
bit, through the same hand-off and at either end of it, on top-cap points,
s1 down to 5e-324, s2 within 1e-11 of the lower curve, rows of equal s2,
no-root and outside points, certificates that fall back to omega_q's
natural bracket, a pair with u_top <= 0 and points where u_lo underflows
to 0; and raise what ``solve_t`` raises where it raises something else.  Its lane twins of ``in_domain``
(``domain._outside_lanes``) and of gamma, delta and lambda
(``sensitivity._signs_lanes``) must equal the scalar functions bit for bit
on the same points.

``has_root`` tests the sign of g at min(u_lo, u_top): where u_lo binds, it
must decide as the residual's sign at t = 1 + 1e-12, with omega_q inverted
there, would, and elsewhere as the mpmath oracle's sign of g(u_top) does.
That holds with the left end moved up to where it rejects points, too.

``hardy_lhs`` evaluates every segment's quadrature in one array expression
with its sums in a fixed order.  ``_reference_hardy_lhs`` is a verbatim copy
of the per-segment loop it replaced, whose node sums went through
``np.dot``; both returned floats must be equal.  ``_lhs_rows``, the pass
over a whole chunk of step functions that ``hardy_lhs`` is one row of, must
give each row the floats of its own one-row pass and of the loop.
"""

import math
from collections.abc import Callable
from functools import partial

import numpy as np
import pytest
from mp_oracle import g_at

import hardyconst.solver
import hardyconst.special
from hardyconst import (
    Exponents,
    Membership,
    ParamPoint,
    StepFunction,
    alpha_eval,
    hardy_lhs,
    has_root,
    in_domain,
    solve_t,
)
from hardyconst.domain import _outside_lanes
from hardyconst.errors import DomainError, NoRootError, OutsideDomainError, SingularityError
from hardyconst.hardy import _lhs_rows
from hardyconst.sensitivity import _signs_lanes, delta_eval, gamma_eval, lambda_eval
from hardyconst.solver import (
    _K_MIN,
    _u_equation,
    _u_top,
    residual,
    solve_lanes,
    tau_eval,
)
from hardyconst.special import (
    _BRACKET_REL_TOL,
    _NEAR_HALF_WIDTH,
    _STRAGGLER_LANES,
    _bracketed_root,
    _h,
    _h_lanes,
    _omega_lanes,
    _omega_near,
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
FIELDS = ("t", "u", "tau", "omega_q_tau", "residual", "bracket_width", "alpha")


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
        args = (f, z_lo, z_hi, h_lo, h_hi, xtol, s, k1)
        new, ref = _bracketed_root(*args), _reference_bracketed_root(*args)[:3]
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
    # the reference kernel also returns f at its best point; callers take three
    reference = lambda *args: _reference_bracketed_root(*args)[:3]  # noqa: E731
    monkeypatch.setattr(hardyconst.special, "_bracketed_root", reference)
    monkeypatch.setattr(hardyconst.solver, "_bracketed_root", reference)
    # so that the reference kernel computes every alpha again
    hardyconst.solver._alpha.cache_clear()
    for pt, sol in zip(pts, sols):
        ref = solve_t(e, pt)
        assert [getattr(sol, f).hex() for f in FIELDS] == [getattr(ref, f).hex() for f in FIELDS]


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
    """``solve_t``'s verdict and the bits of its fields, point by point."""
    out = []
    for x, y in zip(s1.tolist(), s2.tolist()):
        try:
            sol = solve_t(e, ParamPoint(x, y))
        except NoRootError:
            out.append(("no-root",))
        except OutsideDomainError:
            out.append(("outside",))
        else:
            out.append(("ok", *(getattr(sol, f).hex() for f in FIELDS)))
    return out


def _solved_lanes(e: Exponents, s1: np.ndarray, s2: np.ndarray) -> list[tuple[str, ...]]:
    """``_solved`` from one ``solve_lanes`` call."""
    sol = solve_lanes(e, s1, s2)
    fields = [getattr(sol, f).tolist() for f in FIELDS]
    return [
        ("ok", *(v[i].hex() for v in fields)) if sol.ok[i]
        else ("outside",) if sol.outside[i] else ("no-root",)
        for i in range(s1.size)
    ]


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
    assert _solved_lanes(e, s1, s2) == expected
    verdicts = [v[0] for v in expected]
    top_cap = (e.p_conj - math.nextafter(e.p_conj, 0.0)).hex()
    assert {"ok", "outside"} <= set(verdicts)
    assert sum(v[0] == "ok" and v[6] == top_cap for v in expected) >= 3


@pytest.mark.parametrize(
    "n", [1, _STRAGGLER_LANES - 1, _STRAGGLER_LANES, _STRAGGLER_LANES + 1]
)
def test_solve_lanes_match_solve_t_across_the_hand_off(lane_cases, n):
    for pair in [(2.0, 1.5), (5.0, 1.2), (2.0, 1.999)]:
        e = Exponents(*pair)
        s1, s2, expected = lane_cases[pair]
        # points with a root below the top cap, so that the u solve and the
        # certificate's each see n lanes
        top_cap = (e.p_conj - math.nextafter(e.p_conj, 0.0)).hex()
        ok = np.flatnonzero([v[0] == "ok" and v[6] != top_cap for v in expected])[:n]
        assert ok.size == n
        assert _solved_lanes(e, s1[ok], s2[ok]) == [expected[i] for i in ok]


@pytest.mark.parametrize("handoff", ["pure lanes", "pure scalar"])
def test_solve_lanes_match_solve_t_at_either_end_of_the_hand_off(
    monkeypatch, lane_cases, handoff
):
    lanes = 0 if handoff == "pure lanes" else 10**6
    monkeypatch.setattr(hardyconst.special, "_STRAGGLER_LANES", lanes)
    for pair in [(2.0, 1.5), (2.5, 1.3), (10.0, 1.05), (1.5, 1.45)]:
        s1, s2, expected = lane_cases[pair]
        assert _solved_lanes(Exponents(*pair), s1, s2) == expected


@pytest.fixture
def brackets(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """The initial brackets (a, b) of each ``_root_lanes`` call of ``special``."""
    seen = []
    root_lanes = hardyconst.special._root_lanes

    def counted(f_lanes, f_of_lane, a, b, *rest):
        seen.append((a.copy(), b.copy()))
        return root_lanes(f_lanes, f_of_lane, a, b, *rest)

    monkeypatch.setattr(hardyconst.special, "_root_lanes", counted)
    return seen


def _natural(bracket: tuple[np.ndarray, np.ndarray], r: float) -> int:
    """Lanes of a ``brackets`` entry on omega_r's natural bracket [1, r']."""
    a, b = bracket
    return np.count_nonzero((a == 1.0) & (b == r / (r - 1.0)))


def test_solve_lanes_match_solve_t_where_the_certificate_falls_back(
    monkeypatch, lane_cases, brackets
):
    # at half the omega tolerance about a fifth of certificates fall back to
    # the natural bracket; both solves read the patched width
    monkeypatch.setattr(hardyconst.special, "_NEAR_HALF_WIDTH", _NEAR_HALF_WIDTH / 8.0)
    fallbacks = 0
    for pair in [(3.0, 2.0), (5.0, 1.2)]:
        e = Exponents(*pair)
        s1, s2, _ = lane_cases[pair]
        brackets.clear()
        assert _solved_lanes(e, s1, s2) == _solved(e, s1, s2)
        fallbacks += sum(_natural(bracket, e.q) for bracket in brackets)
    assert fallbacks >= 50


def test_solve_lanes_where_u_top_is_not_positive():
    # q (q-1) < 2e-14 p/(p-q) (p-1)^2: no point of the pair has a root that
    # counts; s2 near 1 keeps s1's top, s2^(2e7), above the float range's floor
    e = Exponents(1e7, 1.5)
    assert _u_top(e) <= 0.0
    s2 = 1.0 - np.geomspace(1e-5, 1e-7, 40)
    s1 = s2 ** ((e.p - 1.0) / (e.q - 1.0)) * np.linspace(0.01, 1.01, 40)
    expected = _solved(e, s1, s2)
    assert _solved_lanes(e, s1, s2) == expected
    assert "no-root" in {v[0] for v in expected}


def test_solve_lanes_raise_what_solve_t_raises(monkeypatch):
    # K is at its floor and (1 + 1e-12)^(p-q) ~ 1e35, so u_lo underflows to
    # 0 at s1 = 1e-300, where g -> -inf: solve_t raises NoRootError, and the
    # lane, whose g(0) is not finite, is handed to solve_t for that verdict
    e = Exponents(1e14, 2e13)
    s1, s2 = np.array([1e-100, 1e-300, 1e-200]), np.full(3, 0.5)
    redone = []
    scalar = hardyconst.solver.solve_t

    def recorded(e, pt):
        redone.append(pt)
        return scalar(e, pt)

    monkeypatch.setattr(hardyconst.solver, "solve_t", recorded)
    assert _solved_lanes(e, s1, s2) == _solved(e, s1, s2) == [("no-root",)] * 3
    assert redone == [ParamPoint(1e-300, 0.5)]

    # any other error of the redone lane propagates
    def failing(e, pt):
        raise SingularityError("injected")

    monkeypatch.setattr(hardyconst.solver, "solve_t", failing)
    with pytest.raises(SingularityError, match="injected"):
        solve_lanes(e, s1, s2)
    with pytest.raises(DomainError, match="s1 must lie in"):
        solve_lanes(Exponents(2.0, 1.5), np.array([0.1, 0.0]), np.array([0.5, 0.5]))


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
    lanes = _signs_lanes(e, s1, s2, sol.t, sol.u, sol.alpha)
    assert [_bits(v) for v in lanes] == [_bits(v) for v in zip(*scalar)]


def _left_end_inverted(e: Exponents, pt: ParamPoint, lo: float = 1.0 + 1e-12) -> bool | None:
    """residual(lo) < 0, with omega_q inverted at lo, or None outside."""
    if in_domain(e, pt) is not Membership.INSIDE:
        return None
    return tau_eval(e, pt, lo) <= 1.0 and residual(e, pt, lo) < 0.0


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_closed_form_lo_test_keeps_the_decision(monkeypatch, pair):
    # has_root is in_domain and g > 0 at min(u_lo, u_top): with the left end
    # inverted in t-space and g(u_top)'s sign from the 40-digit oracle
    # (mp_oracle, at every third point, as it costs ~1 ms), it must decide
    # the same, and the test point must be u_lo at some points
    e = Exponents(*pair)
    u_top = _u_top(e)
    u_lo = hardyconst.solver._u_lo
    at_u_lo = oracle_checks = 0

    def spied_u_lo(*args):
        nonlocal at_u_lo
        u = u_lo(*args)
        at_u_lo += u < u_top
        return u

    monkeypatch.setattr(hardyconst.solver, "_u_lo", spied_u_lo)
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
    assert at_u_lo > 0
    assert oracle_checks >= 20


def _corner_points(e: Exponents, n: int, seed: int) -> list[ParamPoint]:
    """n points near the corner (1, 1), where t* -> 1: s2 = 1 - 10^U(-7, -0.5),
    s1 = s1_top (1 - 10^U(-10, 0))."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        s2 = 1.0 - 10.0 ** rng.uniform(-7.0, -0.5)
        top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        pts.append(ParamPoint(float(top * (1.0 - 10.0 ** rng.uniform(-10.0, 0.0))), float(s2)))
    return pts


@pytest.mark.parametrize("margin", [0.05, 0.2])
@pytest.mark.parametrize("pair", [(2.0, 1.5), (3.0, 2.0), (5.0, 1.2), (20.0, 19.0)], ids=str)
def test_left_end_decides_where_it_binds(monkeypatch, pair, margin):
    # at 1e-12 the left end has rejected no sampled point: t* - 1 is only
    # small near the corner (1, 1).  Moved up to 1 + margin, it rejects
    # there, and must do so as the t-space test does: residual(lo) < 0 with
    # omega_q inverted at lo, beside g(u_top) > 0 on the right
    monkeypatch.setattr(hardyconst.solver, "_ENDPOINT_MARGIN", margin)
    e = Exponents(*pair)
    u_top = _u_top(e)
    left_alone = 0
    for pt in _corner_points(e, 250, 13):
        left = _left_end_inverted(e, pt, 1.0 + margin)
        if left is None:
            assert not has_root(e, pt), pt
            continue
        k = max((e.p - e.q) * pt.s1 * alpha_eval(e, pt.s2) / e.q, _K_MIN)
        right = _u_equation(e, pt, k)[0](u_top) > 0.0
        assert has_root(e, pt) == (left and right), pt
        left_alone += right and not left
    assert left_alone > 0


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
    monkeypatch.setattr(hardyconst.special, "_STRAGGLER_LANES", lanes)
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
    monkeypatch.setattr(hardyconst.special, "_STRAGGLER_LANES", lanes)
    for i, r in enumerate(R_EDGE):
        s = _edge_targets(i)
        assert _bits(_omega_lanes(r, s)) == _bits([omega(r, float(x)) for x in s])
    # every call with r' - 1 above 1e-8 mixes narrow lanes with lanes that
    # fall back to the natural bracket
    for r, bracket in list(zip(R_EDGE, brackets))[:6]:
        assert 0 < _natural(bracket, r) < bracket[0].size
    assert _omega_start(1e15, 1.0 - 2.0**-53) == 1.0


@pytest.mark.parametrize("handoff", ["threshold", "pure lanes"])
def test_omega_lanes_from_estimates_match_omega_near(monkeypatch, brackets, handoff):
    # estimates within the narrow half-width of the root, beyond it, and at
    # either end of [1, r']
    if handoff == "pure lanes":
        monkeypatch.setattr(hardyconst.special, "_STRAGGLER_LANES", 0)
    rng = np.random.default_rng(31)
    exps = [1.05, 1.5, 2.0, 5.0, 19.0]
    for i, r in enumerate(exps):
        top = r / (r - 1.0)
        s = np.concatenate([_edge_targets(i), [0.0, 1.0]])
        offset = rng.choice([0.0, 0.5, -0.9, 3.0, -1e3, 1e9], s.size)
        near = np.clip(_omega_lanes(r, s) + offset * _NEAR_HALF_WIDTH * top, 1.0, top)
        expected = [_omega_near(r, float(x), float(z)) for x, z in zip(s, near)]
        assert _bits(_omega_lanes(r, s, near)) == _bits(expected)
    for r, bracket in zip(exps, brackets[1::2]):
        assert 0 < _natural(bracket, r) < bracket[0].size


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
    A + v*(t - b0) = c + v*t stays nonnegative.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, (v + c / t) ** p))


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
