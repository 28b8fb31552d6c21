"""Step functions, moments, quadrature, and the averaging inequality."""

import math

import pytest

from hardyconst import (
    Exponents,
    Membership,
    MomentTriple,
    StepFunction,
    decreasing_rearrangement,
    hardy_lhs,
    in_domain,
    moments_to_params,
    sample_step,
    step_moments,
    verify_hardy,
)
from hardyconst.errors import (
    BoundaryCaseError,
    DomainError,
    InconsistentMomentsError,
)

E2 = Exponents(2.0, 1.5)
E3 = Exponents(3.0, 2.0)

TWO_STEP = StepFunction(kappa=1.0, breakpoints=(0.0, 0.25, 1.0), values=(2.0, 1.0))


def lhs_closed_form_p2(h: StepFunction) -> float:
    """Independent p = 2 oracle: per segment the running average is
    v + c/t with c = A - v*b0, and (v + c/t)^2 integrates to
    v^2 t + 2 v c ln t - c^2 / t."""
    total = 0.0
    accum = 0.0
    for v, b0, b1 in zip(h.values, h.breakpoints, h.breakpoints[1:]):
        c = accum - v * b0
        if b0 == 0.0:
            total += v * v * (b1 - b0)  # c = 0 on the first segment
        else:
            anti = lambda t: v * v * t + 2.0 * v * c * math.log(t) - c * c / t
            total += anti(b1) - anti(b0)
        accum += v * (b1 - b0)
    return total


class TestStepFunction:
    def test_valid(self):
        assert TWO_STEP.lengths == (0.25, 0.75)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=1.0, breakpoints=(0.0, 1.0), values=()),
            dict(kappa=1.0, breakpoints=(0.1, 1.0), values=(1.0,)),
            dict(kappa=1.0, breakpoints=(0.0, 0.9), values=(1.0,)),
            dict(kappa=1.0, breakpoints=(0.0, 0.5, 0.5, 1.0), values=(1.0, 2.0, 3.0)),
            dict(kappa=1.0, breakpoints=(0.0, 0.5, 1.0), values=(1.0, -2.0)),
            dict(kappa=1.0, breakpoints=(0.0, 0.5, 1.0), values=(0.0, 0.0)),
            dict(kappa=-1.0, breakpoints=(0.0, -1.0), values=(1.0,)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            StepFunction(**kwargs)


class TestStepMoments:
    def test_constant(self):
        h = StepFunction(kappa=2.0, breakpoints=(0.0, 2.0), values=(3.0,))
        m = step_moments(h, E2)
        assert m.x == pytest.approx(6.0, abs=1e-15)
        assert m.y == pytest.approx(3.0**1.5 * 2.0, abs=1e-14)
        assert m.z == pytest.approx(18.0, abs=1e-14)

    def test_two_step_example(self):
        m = step_moments(TWO_STEP, E2)
        assert m.x == pytest.approx(1.25, abs=1e-15)
        assert m.y == pytest.approx(2.0**1.5 * 0.25 + 0.75, abs=1e-15)
        assert m.z == pytest.approx(1.75, abs=1e-15)

    def test_scaling_homogeneity(self):
        h = sample_step(3, 5, 1.0, E2)
        m = step_moments(h, E2)
        c = 2.7
        hc = StepFunction(kappa=h.kappa, breakpoints=h.breakpoints,
                          values=tuple(c * v for v in h.values))
        mc = step_moments(hc, E2)
        assert mc.x == pytest.approx(c * m.x, rel=1e-13, abs=0.0)
        assert mc.y == pytest.approx(c**E2.q * m.y, rel=1e-13, abs=0.0)
        assert mc.z == pytest.approx(c**E2.p * m.z, rel=1e-13, abs=0.0)


class TestMomentsToParams:
    def test_constant_maps_to_corner(self):
        h = StepFunction(kappa=0.5, breakpoints=(0.0, 0.5), values=(2.0,))
        pt = moments_to_params(step_moments(h, E2), E2)
        assert pt.s1 == pytest.approx(1.0, abs=1e-14)
        assert pt.s2 == pytest.approx(1.0, abs=1e-14)
        assert in_domain(E2, pt) is not Membership.OUTSIDE

    def test_two_step_example(self):
        pt = moments_to_params(step_moments(TWO_STEP, E2), E2)
        assert pt.s1 == pytest.approx(0.8928571428571429, abs=1e-15)
        assert pt.s2 == pytest.approx(0.9591215304065261, abs=1e-15)

    def test_scale_invariance(self):
        h = sample_step(11, 4, 3.0, E2)
        pt = moments_to_params(step_moments(h, E2), E2)
        for c in (0.1, 7.3):
            hc = StepFunction(kappa=h.kappa, breakpoints=h.breakpoints,
                              values=tuple(c * v for v in h.values))
            ptc = moments_to_params(step_moments(hc, E2), E2)
            assert ptc.s1 == pytest.approx(pt.s1, rel=1e-12, abs=0.0)
            assert ptc.s2 == pytest.approx(pt.s2, rel=1e-12, abs=0.0)

    def test_inconsistent_moments_rejected(self):
        m = MomentTriple(x=10.0, y=1.0, z=1.0, kappa=1.0)
        with pytest.raises(InconsistentMomentsError):
            moments_to_params(m, E2)

    @pytest.mark.parametrize("e", [E2, E3], ids=["p2q1.5", "p3q2"])
    def test_samples_land_inside(self, e):
        # Hoelder interpolation puts every genuine sample strictly inside
        for seed in range(30):
            h = sample_step(seed, 2 + seed % 6, 1.0, e)
            pt = moments_to_params(step_moments(h, e), e)
            assert in_domain(e, pt) is Membership.INSIDE


class TestHardyLhs:
    def test_constant_exact(self):
        h = StepFunction(kappa=2.0, breakpoints=(0.0, 2.0), values=(1.5,))
        val, est = hardy_lhs(h, E2)
        assert val == pytest.approx(1.5**2 * 2.0, abs=1e-13)
        assert est <= 1e-13

    def test_two_step_closed_form(self):
        # 1 + [t + 0.5 ln t - 0.0625/t] from 1/4 to 1 = 1.9375 + ln 2
        val, est = hardy_lhs(TWO_STEP, E2)
        assert val == pytest.approx(2.6306471805599453, abs=1e-9)
        assert abs(val - lhs_closed_form_p2(TWO_STEP)) <= 1e-12
        assert est <= 1e-9

    def test_matches_p2_antiderivative_on_samples(self):
        for seed in range(20):
            h = sample_step(100 + seed, 2 + seed % 7, (0.5, 1.0, 3.0)[seed % 3], E2)
            val, _ = hardy_lhs(h, E2)
            assert abs(val - lhs_closed_form_p2(h)) <= 1e-10 * max(1.0, val)

    def test_refinement_stability(self):
        for seed in range(5):
            h = sample_step(200 + seed, 6, 3.0, E3)
            val, est = hardy_lhs(h, E3)
            # split every segment once more by evaluating on a finer copy
            fine_pts, fine_vals = [0.0], []
            for v, b0, b1 in zip(h.values, h.breakpoints, h.breakpoints[1:]):
                fine_pts.extend([0.5 * (b0 + b1), b1])
                fine_vals.extend([v, v])
            finer = StepFunction(kappa=h.kappa, breakpoints=tuple(fine_pts),
                                 values=tuple(fine_vals))
            val2, _ = hardy_lhs(finer, E3)
            assert abs(val2 - val) <= max(est, 1e-12)


class TestVerifyHardy:
    def test_two_step_passes_with_margin(self):
        rep = verify_hardy(TWO_STEP, E2)
        assert rep.passed
        assert rep.t**2 >= 2.6306471805599453 / 1.75
        assert rep.ratio == pytest.approx(rep.lhs / 1.75, rel=1e-12, abs=0.0)
        assert rep.lhs <= rep.rhs

    def test_constant_is_boundary_case(self):
        h = StepFunction(kappa=1.0, breakpoints=(0.0, 1.0), values=(2.0,))
        with pytest.raises(BoundaryCaseError):
            verify_hardy(h, E2)

    @pytest.mark.parametrize("e", [E2, E3], ids=["p2q1.5", "p3q2"])
    def test_random_samples_pass(self, e):
        for seed in range(100):
            h = sample_step(1000 + seed, 2 + seed % 7, (0.5, 1.0, 3.0)[seed % 3], e)
            rep = verify_hardy(h, e)
            assert rep.passed, f"violation at seed {1000 + seed}"

    def test_nonincreasing_samples_pass(self):
        for seed in range(100):
            h = decreasing_rearrangement(sample_step(2000 + seed, 5, 1.0, E2))
            assert verify_hardy(h, E2).passed


class TestRearrangement:
    def test_preserves_distribution(self):
        h = sample_step(42, 6, 3.0, E2)
        r = decreasing_rearrangement(h)
        assert sorted(zip(h.values, h.lengths)) == sorted(zip(r.values, r.lengths))
        assert all(a >= b for a, b in zip(r.values, r.values[1:]))

    def test_dominates_original(self):
        # the maximal averaging ratio is attained by nonincreasing h, and
        # the inequality holds on both sides of the rearrangement
        for seed in range(40):
            h = sample_step(3000 + seed, 4, 1.0, E2)
            r = decreasing_rearrangement(h)
            lhs_orig, est_o = hardy_lhs(h, E2)
            lhs_dec, est_d = hardy_lhs(r, E2)
            assert lhs_dec >= lhs_orig - est_o - est_d
            assert verify_hardy(h, E2).passed
            assert verify_hardy(r, E2).passed

    def test_ratio_scale_invariant(self):
        h = sample_step(77, 5, 0.5, E2)
        base = hardy_lhs(h, E2)[0] / step_moments(h, E2).z
        for c in (0.01, 3.0, 250.0):
            hc = StepFunction(kappa=h.kappa, breakpoints=h.breakpoints,
                              values=tuple(c * v for v in h.values))
            ratio = hardy_lhs(hc, E2)[0] / step_moments(hc, E2).z
            assert ratio == pytest.approx(base, rel=1e-10, abs=0.0)


class TestSampleStep:
    def test_deterministic(self):
        a = sample_step(7, 4, 1.0, E2)
        b = sample_step(7, 4, 1.0, E2)
        assert a == b

    def test_minimal_two_pieces(self):
        h = sample_step(1, 2, 1.0, E2)
        assert len(h.values) == 2
        assert all(v > 0 for v in h.values)

    def test_power_mean_chain_holds(self):
        for seed in range(20):
            m = step_moments(sample_step(seed, 3 + seed % 5, 0.5, E2), E2)
            k = m.kappa
            assert m.x / k <= (m.y / k) ** (1 / E2.q) * (1 + 1e-12)
            assert (m.y / k) ** (1 / E2.q) <= (m.z / k) ** (1 / E2.p) * (1 + 1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            sample_step(0, 1, 1.0, E2)
