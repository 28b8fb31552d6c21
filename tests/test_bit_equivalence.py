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
suite's grid and on every exponent a tested ``verify`` pair brings in.

``has_root`` tests the sign of g at min(u_lo, u_top): where u_lo binds, it
must decide as the residual's sign at t = 1 + 1e-12, with omega_q inverted
there, would, and elsewhere as the mpmath oracle's sign of g(u_top) does.
That holds with the left end moved up to where it rejects points, too.
"""

import math
from collections.abc import Callable
from functools import partial

import numpy as np
import pytest
from mp_oracle import g_at

import hardyconst.solver
import hardyconst.special
from hardyconst import Exponents, Membership, ParamPoint, alpha_eval, has_root, in_domain, solve_t
from hardyconst.errors import DomainError
from hardyconst.solver import _K_MIN, _u_equation, _u_top, residual, tau_eval
from hardyconst.special import (
    _BRACKET_REL_TOL,
    _bracketed_root,
    _h,
    _h_lanes,
    _omega_lanes,
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
FIELDS = ("t", "tau", "omega_q_tau", "residual", "bracket_width", "alpha")


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


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, -math.inf])
def test_omega_lanes_reject_what_omega_rejects(bad):
    with pytest.raises(DomainError) as scalar:
        omega(2.0, bad)
    with pytest.raises(DomainError) as lanes:
        _omega_lanes(2.0, np.array([0.5, bad, 0.25]))
    assert str(lanes.value) == str(scalar.value)
