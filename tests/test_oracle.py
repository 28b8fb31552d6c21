"""The constant and its s1-derivative against the independent mpmath oracle
in ``mp_oracle``.

t must lie within 2 ulp of the oracle's, or be the top cap (the largest
float below p/(p-1)) where the oracle's root lies less than an ulp below
p/(p-1).  gamma, delta and dt/ds1 must match the oracle's to 1e-13 relative
at interior and small-s1 points.  At the has_root frontier, where tau is
within ~3e-14 of 1 and 1 - u* is ~1e-7, the rounding of u* leaves gamma and
delta ~1e-8 off, and bounds of 1e-7 and 1e-12 (dt/ds1, whose B cancels)
apply; with B formed from omega_q(tau) they were up to 1.5e-2 and 4.1e-8
off at these points.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from mp_oracle import g_at, omega_q, reference_sensitivity, reference_t

from hardyconst import Exponents, Membership, ParamPoint, has_root, in_domain, solve_t
from hardyconst.sensitivity import delta_eval, dt_ds1, dt_ds1_analytic, gamma_eval
from hardyconst.solver import _u_top


def _top_cap(e: Exponents) -> float:
    return math.nextafter(e.p_conj, 0.0)


def _check_against_oracle(e: Exponents, pt: ParamPoint) -> float:
    """Assert that the oracle finds a root in (1, p') and that t matches it;
    return the oracle's p' - t in ulp of the top cap."""
    ref = reference_t(e.p, e.q, pt.s1, pt.s2)
    assert ref is not None, pt
    t_ref, gap = ref
    assert 1 < t_ref and gap > 0, (pt, t_ref)
    t, cap = solve_t(e, pt).t, _top_cap(e)
    spacing = e.p_conj - cap
    off = abs(t - t_ref) / math.ulp(t)
    assert off <= 2 or (t == cap and gap < spacing), (pt, t, t_ref, off)
    return float(gap / spacing)


def test_sub_ulp_points_of_the_verify_grid():
    # sign_suite's grid under `verify --p 5 --q 1.2 --grid 10`: exactly ten
    # points have their root less than an ulp below p' = 1.25, all on the
    # s2 = 0.15 row; a bracket with its top at the cap called them no-root
    e, n = Exponents(5.0, 1.2), 10
    near_top = []
    for s2 in np.linspace(0.15, 0.97, n):
        s1_top = float(s2) ** ((e.p - 1.0) / (e.q - 1.0))
        for s1 in np.linspace(0.02 * s1_top, 0.98 * s1_top, n):
            pt = ParamPoint(float(s1), float(s2))
            if has_root(e, pt) and e.p_conj - solve_t(e, pt).t <= 4 * math.ulp(1.25):
                near_top.append(pt)
    assert len(near_top) == 10
    assert {pt.s2 for pt in near_top} == {0.15}
    for pt in near_top:
        assert _check_against_oracle(e, pt) < 1.0


@pytest.mark.parametrize("pair", [(10.0, 1.05), (50.0, 1.5), (1.01, 1.001)], ids=str)
def test_seeded_sub_ulp_points_on_stiff_pairs(pair):
    # s1 far below the lower curve's abscissa: the root lies less than an
    # ulp below p', where a bracket with its top at the cap saw no root
    e = Exponents(*pair)
    rng = np.random.default_rng(7)
    for _ in range(4):
        s2 = float(rng.uniform(0.05, 0.95))
        s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        pt = ParamPoint(max(s1_top * 10.0 ** float(rng.uniform(-60.0, -16.0)), 1e-300), s2)
        assert has_root(e, pt), pt
        assert _check_against_oracle(e, pt) < 1.0


@pytest.mark.parametrize("s1", [1e-300, 5e-324], ids=["1e-300", "5e-324"])
@pytest.mark.parametrize("pair", [(10.0, 1.05), (5.0, 1.2), (50.0, 1.5), (1.01, 1.001)], ids=str)
def test_tiny_s1(pair, s1):
    # p' - t is of the order of s1 here; K = (p-q) s1 alpha/q is floored
    e, pt = Exponents(*pair), ParamPoint(s1, 0.5)
    assert has_root(e, pt)
    sol = solve_t(e, pt)
    assert 1.0 < sol.t <= _top_cap(e)
    assert 0.0 < sol.tau < 1.0 < sol.omega_q_tau
    assert math.isfinite(gamma_eval(e, pt, sol)) and math.isfinite(delta_eval(e, pt, sol))
    assert _check_against_oracle(e, pt) < 1e-200


#: the pairs whose derivative the oracle checks
DERIVATIVE_PAIRS = [(2.0, 1.5), (3.0, 2.0), (2.5, 1.3), (5.0, 1.2)]


def _derivative_errors(e: Exponents, pt: ParamPoint) -> list[float]:
    """Relative errors of gamma, delta and dt/ds1 against the oracle."""
    sol = solve_t(e, pt)
    got = (gamma_eval(e, pt, sol), delta_eval(e, pt, sol), dt_ds1_analytic(e, pt, sol))
    ref = reference_sensitivity(e.p, e.q, pt.s1, pt.s2)
    assert ref is not None, pt
    return [float(abs((x - r) / r)) for x, r in zip(got, ref)]


def _has_root_frontier(e: Exponents, s2: float) -> ParamPoint:
    """The largest s1 of the row at which has_root holds, bisected to an ulp."""
    lo, hi = 1e-3 * s2 ** ((e.p - 1.0) / (e.q - 1.0)), s2 ** ((e.p - 1.0) / (e.q - 1.0))
    assert has_root(e, ParamPoint(lo, s2)) and not has_root(e, ParamPoint(hi, s2))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if has_root(e, ParamPoint(mid, s2)) else (lo, mid)
    return ParamPoint(lo, s2)


@pytest.mark.parametrize("s2", [0.97, 0.99])
@pytest.mark.parametrize("pair", DERIVATIVE_PAIRS, ids=str)
def test_derivative_at_the_has_root_frontier(pair, s2):
    e = Exponents(*pair)
    pt = _has_root_frontier(e, s2)
    assert 1.0 - solve_t(e, pt).tau < 1e-13, pt
    gamma, delta, dt = _derivative_errors(e, pt)
    assert gamma <= 1e-7 and delta <= 1e-7 and dt <= 1e-12, (pt, gamma, delta, dt)


@pytest.mark.parametrize("frac", [1e-20, 1e-8, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("pair", DERIVATIVE_PAIRS, ids=str)
def test_derivative_inside(pair, frac):
    e = Exponents(*pair)
    for s2 in (0.4, 0.8):
        pt = ParamPoint(frac * s2 ** ((e.p - 1.0) / (e.q - 1.0)), s2)
        assert has_root(e, pt), pt
        assert max(_derivative_errors(e, pt)) <= 1e-13, pt


#: points on (100, 99) and (50, 49), both at s2 = 0.3, where ``dt_ds1``'s
#: finite-difference report misses the analytic value by more than 1e-5:
#: the reason ``verify`` integrates dt/ds1 along s1 instead
FD_FAILURE_POINTS = {
    "(100, 99)": (Exponents(100.0, 99.0), ParamPoint(0.01481684581653415, 0.3)),
    "(50, 49)": (Exponents(50.0, 49.0), ParamPoint(0.014628437881958355, 0.3)),
}


@pytest.mark.parametrize("case", list(FD_FAILURE_POINTS))
def test_derivative_where_the_finite_difference_check_fails(case):
    # the analytic dt/ds1 is 3.2e-12 and 7.5e-13 off; it is t, 18 and 9 ulp
    # off, that fails the check: over the FD step h = 1.5e-8 such errors at
    # the stencil alone give FD errors of 9.3e-5 and 2.3e-5 (tolerance 1e-5)
    e, pt = FD_FAILURE_POINTS[case]
    ref = reference_sensitivity(e.p, e.q, pt.s1, pt.s2)[2]
    assert abs((dt_ds1(e, pt).dt_ds1 - ref) / ref) <= 1e-10


def _bisected_omega(q: float, s2: float) -> mp.mpf:
    """omega_q(s2) by bisection on H_q(z) = s2 over [1, q'] to 2^-240 of its
    width, at the caller's precision; H_q decreases there."""
    q_, s2_ = mp.mpf(q), mp.mpf(s2)
    lo, hi = mp.mpf(1), q_ / (q_ - 1)
    for _ in range(240):
        mid = (lo + hi) / 2
        if mid ** (q_ - 1) * (q_ - (q_ - 1) * mid) > s2_:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("q", [1.2, 1.5, 2.0])
@pytest.mark.parametrize("gap", [1e-10, 1e-12, 1e-14])
def test_oracle_omega_where_s2_nears_one(q, gap):
    # H_q - s2 has a near-double point at z = 1 here; the oracle, at 40
    # digits, must agree with a 70-digit bisection
    s2 = 1.0 - gap
    with mp.workdps(40):
        got = omega_q(q, s2)
    with mp.workdps(70):
        assert abs(got - _bisected_omega(q, s2)) <= mp.mpf(10) ** -35


#: a point of (20, 19) next to the corner (1, 1): the float omega_q(s2) - 1
#: is 2.2e-16 against 1.14e-9, so the float alpha is 4.4e-15 against 2.17e-8
ALPHA_ERROR_POINT = Exponents(20.0, 19.0), ParamPoint(0.9999999999946025, 0.9999999999999998)


def test_the_root_lies_above_the_left_end_at_the_alpha_error_point():
    e, pt = ALPHA_ERROR_POINT
    t_ref, gap = reference_t(e.p, e.q, pt.s1, pt.s2)
    assert 1e-9 < t_ref - 1 < 2e-9 and gap > 0


def test_has_root_where_the_float_alpha_loses_its_digits():
    # the oracle's t is 1 + 1.15e-9, far above the floor 1 + 1e-12; the
    # t-space test with omega_q inverted at the floor rejects the point
    e, pt = ALPHA_ERROR_POINT
    assert has_root(e, pt)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7 (omega and alpha near s = 1 in y = omega - 1): alpha's "
    "error near s2 = 1 puts t on the floor 1 + 1e-12",
)
def test_t_matches_the_oracle_where_the_float_alpha_loses_its_digits():
    e, pt = ALPHA_ERROR_POINT
    t_ref, _ = reference_t(e.p, e.q, pt.s1, pt.s2)
    t = solve_t(e, pt).t
    assert abs(t - t_ref) <= 4 * math.ulp(t)


@pytest.mark.parametrize("pair", [(20.0, 19.0), (44.0, 43.99)], ids=str)
def test_has_root_where_the_oracle_finds_one_near_the_corner(pair):
    # 1 - s2 = k 2^-53 <= 1.1e-15 and s1 within 1e-10 relative below s1_top,
    # where the float alpha loses its digits: each root the oracle puts above
    # the floor 1 + 1e-12, at an inside point with g(u_top) clear of 0, must
    # count
    e = Exponents(*pair)
    u_top = _u_top(e)
    rng = np.random.default_rng(int(pair[0]))
    pts = [ALPHA_ERROR_POINT[1]] if e == ALPHA_ERROR_POINT[0] else []
    for k in range(1, 11):
        s2 = 1.0 - k * 2.0**-53
        top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        pts += [ParamPoint(float(top * (1.0 - 10.0**x)), s2) for x in rng.uniform(-12, -10, 2)]
    checked = 0
    for pt in pts:
        if in_domain(e, pt) is not Membership.INSIDE:
            continue
        ref = reference_t(e.p, e.q, pt.s1, pt.s2)
        if ref is not None and ref[0] - 1 > 1e-12 and g_at(e.p, e.q, pt.s1, pt.s2, u_top) > 1e-12:
            assert has_root(e, pt), pt
            checked += 1
    assert checked >= 15
