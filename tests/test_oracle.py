"""The constant against the independent mpmath oracle in ``mp_oracle``.

t must lie within 2 ulp of the oracle's, or be the top cap (the largest
float below p/(p-1)) where the oracle's root lies less than an ulp below
p/(p-1).
"""

import math

import numpy as np
import pytest
from mp_oracle import reference_t

from hardyconst import Exponents, ParamPoint, has_root, solve_t
from hardyconst.sensitivity import delta_eval, gamma_eval


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
