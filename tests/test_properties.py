"""Property test: every input gives a certified constant or a named error.

Hypothesis draws exponent pairs with p in (1.01, 50) and q = 1 + (p-1) f,
f in (1e-13, 1 - 1e-9), so that q - 1 reaches below 2e-14 (p-1)^2, where no
root counts (``solver``), and points with s1 down to the smallest subnormal, s2 near 0 and near 1,
and s2 within 1e-11 relative of the lower curve.  ``has_root`` must be true
exactly when ``solve_t`` returns; a returned constant lies in (1, p/(p-1))
with a finite residual and finite gamma and delta, delta > 0, and every
other outcome is a ``HardyConstError``.  gamma < 0 is not asserted: near the
corner (1, 1) with p - q tiny, t resolves only to ~1e-16/(p-q) and the float
gamma can come out positive.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyconst import Exponents, ParamPoint, has_root, solve_t
from hardyconst.errors import HardyConstError
from hardyconst.sensitivity import delta_eval, gamma_eval

UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
#: s1 uniform on (0, 1) with subnormals, and log-uniform down to 1e-323
S1 = st.one_of(
    st.floats(5e-324, 1.0, exclude_max=True),
    st.floats(-323.0, 0.0, exclude_max=True).map(lambda k: 10.0**k),
)


@st.composite
def cases(draw) -> tuple[float, float, float, float]:
    p = draw(st.floats(1.01, 50.0))
    q = 1.0 + (p - 1.0) * draw(st.floats(1e-13, 1.0 - 1e-9))
    s1 = draw(S1)
    lower = s1 ** ((q - 1.0) / (p - 1.0))
    s2 = draw(st.one_of(
        UNIT.map(lambda v: lower + (1.0 - lower) * v),
        st.floats(-300.0, -1.0).map(lambda k: 10.0**k),
        st.floats(-16.0, -1.0).map(lambda k: 1.0 - 10.0**k),
        st.floats(-1e-11, 1e-11).map(lambda d: min(lower * (1.0 + d), 1.0)),
    ))
    return p, q, s1, s2


@settings(derandomize=True, deadline=None, database=None, max_examples=350)
@given(cases())
# p - q = 1e-11 near the corner (1, 1): t(u*) rounded to 1.0
@example((1.01, 1.00999999999, 0.999999999, 0.9999999999999999))
def test_has_root_exactly_when_solve_t_returns(case):
    p, q, s1, s2 = case
    try:
        e, pt = Exponents(p, q), ParamPoint(s1, s2)
    except HardyConstError:
        return
    root = has_root(e, pt)
    try:
        sol = solve_t(e, pt)
    except HardyConstError:
        assert not root
        return
    assert root
    assert 1.0 < sol.t < e.p_conj
    assert math.isfinite(sol.residual)
    gamma, delta = gamma_eval(e, pt, sol), delta_eval(e, pt, sol)
    assert math.isfinite(gamma) and math.isfinite(delta) and delta > 0.0, (gamma, delta)
