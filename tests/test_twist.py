import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnteich.conformal import (affine_dilatation, twist_min_dilatation,
                               twist_min_dilatation_derivative)
from fnteich.errors import DomainError, UsageError
from fnteich.hyperbolic import collar_data, hp
from fnteich.twist import (MultiTwistFamily, SeamAngleInstance,
                           TwistScenario, multitwist_fn_bound,
                           seam_angle_bound, seam_angle_cot_bounds,
                           seam_angle_kit, twist_delta, twist_dilatation,
                           twist_factor, twist_lower_bound_check,
                           twist_map_eval, twist_sector)

# frozen with a 40-digit arithmetic oracle before implementation
THETA_ALPHA_AT_2 = 0.705026843555238

lengths = st.floats(min_value=0.1, max_value=10.0)
times = st.floats(min_value=-10.0, max_value=10.0)


class TestTwistMap:
    def test_identity_sector(self):
        # length 5 gives a narrow collar angle (< pi/4)
        s = TwistScenario(5.0, 3.7)
        assert s.collar.angle < math.pi / 4.0
        p = hp(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))
        q = twist_map_eval(s, p)
        assert (q.x, q.y) == (p.x, p.y)

    def test_outer_boundary_factor(self):
        s = TwistScenario(2.0, 1.3)
        ang = math.pi / 2.0 + s.collar.angle
        p = hp(2.0 * math.cos(ang), 2.0 * math.sin(ang))
        q = twist_map_eval(s, p)
        factor = math.exp(s.twist_time)
        assert q.x == pytest.approx(p.x * factor, rel=1e-12)
        assert q.y == pytest.approx(p.y * factor, rel=1e-12)

    def test_continuity_at_upper_boundary(self):
        s = TwistScenario(2.0, 1.3)
        ang = math.pi / 2.0 + s.collar.angle
        middle = twist_factor(s, ang, "middle")
        outer = twist_factor(s, ang, "outer")
        assert middle == pytest.approx(outer, rel=1e-12)

    def test_continuity_at_lower_boundary(self):
        s = TwistScenario(2.0, 1.3)
        ang = math.pi / 2.0 - s.collar.angle
        middle = twist_factor(s, ang, "middle")
        assert middle == pytest.approx(1.0, rel=1e-12)

    def test_boundary_rays_belong_to_middle(self):
        s = TwistScenario(2.0, 1.3)
        assert twist_sector(s, math.pi / 2.0 - s.collar.angle) == "middle"
        assert twist_sector(s, math.pi / 2.0 + s.collar.angle) == "middle"

    @given(l=lengths, t=times,
           ang=st.floats(min_value=0.05, max_value=math.pi - 0.05),
           r=st.floats(min_value=0.1, max_value=10.0))
    def test_deck_equivariance_in_sectors(self, l, t, ang, r):
        # scaling by lambda = e^l fixes the argument, so the map commutes
        # with it away from the sector boundaries
        s = TwistScenario(l, t)
        lam = math.exp(l)
        p = hp(r * math.cos(ang), r * math.sin(ang))
        q1 = twist_map_eval(s, p.scaled(lam))
        q2 = twist_map_eval(s, p).scaled(lam)
        assert q1.x == pytest.approx(q2.x, rel=1e-12, abs=1e-12)
        assert q1.y == pytest.approx(q2.y, rel=1e-12)


class TestTwistDilatation:
    def test_no_twist(self):
        k, mu = twist_dilatation(TwistScenario(1.0, 0.0))
        assert k == 1.0
        assert mu == 0.0

    def test_shear_coefficient_three_halves(self):
        angle = collar_data(2.0).angle
        assert angle == pytest.approx(THETA_ALPHA_AT_2, rel=1e-13)
        s = TwistScenario(2.0, 2.0 * angle * 1.5)
        assert s.shear_coefficient == pytest.approx(1.5, rel=1e-15)
        k, mu = twist_dilatation(s)
        assert k == pytest.approx(4.0, rel=1e-13)
        assert mu == pytest.approx(0.6, rel=1e-13)

    @given(l=lengths, t=times)
    def test_even_in_time(self, l, t):
        assert twist_dilatation(TwistScenario(l, t)).k == twist_dilatation(
            TwistScenario(l, -t)).k

    @given(l=lengths, t=times)
    def test_matches_shear_route_exactly(self, l, t):
        s = TwistScenario(l, t)
        assert twist_dilatation(s) == affine_dilatation(s.shear_coefficient)


class TestTwistLowerBound:
    @pytest.mark.parametrize("l,t", [(1.0, 1.0), (5.0, 8.0), (0.1, 0.5),
                                     (2.0, 10.0)])
    def test_passes(self, l, t):
        rep = twist_lower_bound_check(TwistScenario(l, t))
        assert rep.passed

    def test_zero_twist_limit(self):
        s = TwistScenario(1.0, 1e-8)
        rep = twist_lower_bound_check(s)
        assert rep.passed
        assert rep.total == 1
        assert abs(twist_dilatation(s).k - 1.0) < 1e-6
        assert abs(twist_min_dilatation(s.twist_time) - 1.0) < 1e-6

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            twist_lower_bound_check(TwistScenario(1.0, 0.0))
        with pytest.raises(DomainError):
            twist_lower_bound_check(TwistScenario(1.0, -1.0))


class TestTwistDelta:
    def test_small_cap_gives_small_threshold(self):
        res = twist_delta(1.0 + 1e-9)
        assert res.threshold_time < 1e-7

    @pytest.mark.parametrize("cap", [1.5, 2.0, 5.0, 10.0])
    def test_threshold_inverts_floor(self, cap):
        res = twist_delta(cap)
        assert abs(res.floor_at_threshold - cap) <= 1e-12

    @pytest.mark.parametrize("cap", [1.5, 2.0, 5.0, 10.0])
    def test_contract_on_grid(self, cap):
        res = twist_delta(cap)
        for k in range(1, 101):
            t = res.threshold_time * k / 100.0
            assert t <= res.delta * math.log(twist_min_dilatation(t)) + 1e-12

    def test_domain(self):
        for cap in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError):
                twist_delta(cap)

    def test_floor_derivative_increasing(self):
        # the least slope of the floor on [0, T] is then h'(0)
        slopes = [twist_min_dilatation_derivative(12.0 * k / 2000)
                  for k in range(2001)]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))

    @pytest.mark.parametrize("cap", [1.5, 2.0, 5.0, 10.0])
    def test_min_slope_is_slope_at_zero(self, cap):
        assert (twist_delta(cap).min_slope
                == twist_min_dilatation_derivative(0.0))


class TestSeamAngleKit:
    def test_perpendicular_case(self):
        inst = SeamAngleInstance(0.0, 0.9)
        assert inst.lambda_ == pytest.approx(1.0, rel=1e-15)
        assert inst.point_a.x == pytest.approx(math.sin(0.9), rel=1e-15)
        assert inst.point_a.y == pytest.approx(math.cos(0.9), rel=1e-15)

    @given(c=st.floats(min_value=0.0, max_value=100.0),
           theta=st.floats(min_value=0.05, max_value=1.5))
    def test_point_on_circle(self, c, theta):
        rep = seam_angle_kit(SeamAngleInstance(c, theta))
        assert abs(rep.circle_residual_scaled) <= 1e-12

    def test_half_angle_sine_identity(self):
        # with theta = angle_of_distance(d), sin theta = tanh(d)
        from fnteich.hyperbolic import angle_of_distance
        d = 1.0
        assert math.sin(angle_of_distance(d)) == pytest.approx(
            math.tanh(d), rel=1e-15)

    @given(c=st.floats(min_value=0.0, max_value=50.0),
           theta=st.floats(min_value=0.05, max_value=1.5))
    @settings(max_examples=200)
    def test_quantity_is_exponentiated_distance(self, c, theta):
        rep = seam_angle_kit(SeamAngleInstance(c, theta))
        assert rep.interpretation == "exp(2*distance)"
        assert rep.dist_quantity == pytest.approx(
            math.exp(2.0 * rep.direct_distance), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            SeamAngleInstance(-1.0, 0.5)
        with pytest.raises(DomainError):
            SeamAngleInstance(1.0, math.pi / 2.0)
        with pytest.raises(DomainError):
            SeamAngleInstance(1.0, 0.0)


class TestSeamAngleBound:
    def test_positive_on_range(self):
        for k in range(40):
            cap = 0.1 * (200.0 ** (k / 39.0))   # 0.1 .. 20
            assert seam_angle_bound(cap) > 0.0

    def test_decreasing(self):
        caps = [0.1 * (200.0 ** (k / 39.0)) for k in range(40)]
        vals = [seam_angle_bound(c) for c in caps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_cap_limit(self):
        assert seam_angle_bound(1e-12) > 1.5   # approaches pi/2

    def test_printed_variant_not_monotone(self):
        printed = [seam_angle_cot_bounds(m)[1] for m in (0.01, 0.1, 1.0)]
        phis = [math.atan(1.0 / v) for v in printed]
        rising = [b > a for a, b in zip(phis, phis[1:])]
        assert True in rising and False in rising

    def test_domain(self):
        with pytest.raises(DomainError):
            seam_angle_bound(0.0)


class TestMultiTwist:
    def test_all_zero_twists(self):
        fam = MultiTwistFamily((1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                               cap_length=2.0, cap_time=1.0)
        rep = multitwist_fn_bound(fam, 3)
        assert rep.lower == 0.0
        assert rep.upper == 0.0
        assert rep.assumptions["empirical_twist_constant"] == 0.0

    def test_single_curve_reduces_to_floor(self):
        fam = MultiTwistFamily((1.5,), (2.0,), cap_length=2.0, cap_time=3.0)
        rep = multitwist_fn_bound(fam, 1)
        _, _, t, lower_k, upper_k = rep.details[0]
        assert lower_k == pytest.approx(twist_min_dilatation(2.0), rel=1e-12)
        assert upper_k == pytest.approx(
            twist_dilatation(TwistScenario(1.5, 2.0)).k, rel=1e-15)

    def test_constant_family(self):
        fam = MultiTwistFamily((1.0,) * 5, (1.0,) * 5, cap_length=1.0,
                               cap_time=2.0)
        rep = multitwist_fn_bound(fam, 5)
        c = rep.assumptions["empirical_twist_constant"]
        assert math.isfinite(c) and c > 0.0
        assert rep.lower <= rep.upper
        assert len(rep.details) == 5

    def test_interval_never_empty_on_grid(self):
        for length in (0.2, 1.0, 4.9):
            for t in (0.5, 2.0, 8.0):
                fam = MultiTwistFamily((length,) * 3, (t,) * 3,
                                       cap_length=5.0, cap_time=10.0)
                rep = multitwist_fn_bound(fam, 3)
                assert rep.lower <= rep.upper

    def test_window_errors(self):
        fam = MultiTwistFamily((1.0, 1.0), (0.5, 0.5), cap_length=2.0,
                               cap_time=1.0)
        with pytest.raises(UsageError):
            multitwist_fn_bound(fam, 3)
        with pytest.raises(UsageError):
            multitwist_fn_bound(fam, 0)

    def test_cap_violation(self):
        fam = MultiTwistFamily((3.0,), (0.5,), cap_length=2.0, cap_time=1.0)
        with pytest.raises(DomainError):
            multitwist_fn_bound(fam, 1)

    def test_mismatched_sequences(self):
        with pytest.raises(UsageError):
            MultiTwistFamily((1.0, 2.0), (0.5,), cap_length=2.0,
                             cap_time=1.0)
