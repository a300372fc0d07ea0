import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from fnteich.conformal import (IdealQuadrilateral, affine_dilatation,
                               cylinder_interval, elliptic_k,
                               grotzsch_lower_bound, grotzsch_modulus,
                               grotzsch_modulus_derivative,
                               normalized_quad_modulus, quad_modulus,
                               twist_min_dilatation,
                               twist_min_dilatation_derivative)
from fnteich.errors import DomainError
from fnteich.hyperbolic import angle_of_distance

# frozen with a 40-digit arithmetic oracle before implementation
K_LEMNISCATE = 1.8540746773013719       # K(1/sqrt 2)
MU_LB_AT_HALF = 1.2355316728106278      # (2/pi) log((1+sqrt(3)/2)^2 * 2)
H_AT_1 = 1.2521724373905647
S_AT_LOG3 = 1.8545904360032244          # = 4 arctan(1/2)


def elliptic_k_quadrature(r: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(lambda x: 1.0 / math.sqrt((1.0 - x * x)
                                            * (1.0 - r * r * x * x)),
                  0.0, 1.0)
    return val


class TestEllipticK:
    def test_at_zero(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_lemniscatic_value(self):
        assert elliptic_k(1.0 / math.sqrt(2.0)) == pytest.approx(
            K_LEMNISCATE, rel=1e-14)

    def test_monotone(self):
        assert elliptic_k(0.3) < elliptic_k(0.7)
        grid = np.linspace(0.0, 0.99, 34)
        vals = [elliptic_k(r) for r in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.3, 1.0 / math.sqrt(2.0),
                                   0.9, 0.99])
    def test_quadrature_oracle(self, r):
        assert elliptic_k(r) == pytest.approx(elliptic_k_quadrature(r),
                                              rel=1e-10)

    def test_domain(self):
        for r in (1.0, 1.5, -0.1):
            with pytest.raises(DomainError):
                elliptic_k(r)


class TestGrotzschModulus:
    def test_symmetric_point(self):
        assert grotzsch_modulus(1.0 / math.sqrt(2.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-10)

    def test_lower_bound_at_half(self):
        lb = grotzsch_lower_bound(0.5)
        assert lb == pytest.approx(MU_LB_AT_HALF, rel=1e-14)
        assert grotzsch_modulus(0.5) > lb

    def test_lower_bound_on_grid(self):
        for k in range(1, 100):
            r = k / 100.0
            assert grotzsch_modulus(r) > grotzsch_lower_bound(r)

    def test_monotone_decreasing(self):
        assert grotzsch_modulus(0.3) > grotzsch_modulus(0.7)
        grid = np.linspace(0.01, 0.99, 50)
        vals = [grotzsch_modulus(r) for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_derivative_vs_central_difference(self, r):
        step = 1e-6
        fd = (grotzsch_modulus(r + step)
              - grotzsch_modulus(r - step)) / (2.0 * step)
        assert grotzsch_modulus_derivative(r) == pytest.approx(fd, rel=1e-6)

    @given(r=st.floats(min_value=0.01, max_value=0.99))
    def test_product_identity(self, r):
        prod = grotzsch_modulus(r) * grotzsch_modulus(
            math.sqrt(1.0 - r * r))
        assert prod == pytest.approx(math.pi ** 2 / 4.0, abs=1e-9)

    def test_domain(self):
        for r in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                grotzsch_modulus(r)


class TestDilatationFloor:
    def test_at_zero(self):
        assert twist_min_dilatation(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_value_at_one(self):
        assert twist_min_dilatation(1.0) == pytest.approx(H_AT_1, rel=1e-13)

    def test_strictly_increasing(self):
        assert twist_min_dilatation(1.0) > twist_min_dilatation(0.0)
        grid = np.linspace(0.0, 20.0, 201)
        vals = [twist_min_dilatation(t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_unbounded(self):
        assert twist_min_dilatation(200.0) > 30.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_agrees_with_quad_modulus_route(self, t):
        q = IdealQuadrilateral(math.inf, -1.0, 0.0, math.exp(t))
        assert twist_min_dilatation(t) == pytest.approx(quad_modulus(q),
                                                        rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            twist_min_dilatation(-0.1)

    def test_derivative_positive(self):
        assert twist_min_dilatation_derivative(0.0) > 0.0
        assert twist_min_dilatation_derivative(5.0) > 0.0

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_derivative_vs_central_difference(self, t):
        step = 1e-6
        fd = (twist_min_dilatation(t + step)
              - twist_min_dilatation(t - step)) / (2.0 * step)
        assert twist_min_dilatation_derivative(t) == pytest.approx(
            fd, rel=1e-6)

    @pytest.mark.parametrize("t", [474.0, 600.0, 700.0])
    def test_derivative_finite_against_mpmath(self, t):
        # h'(t) = pi / (4 K(r)^2) with r^2 = 1 / (1 + e^t); mpmath's
        # ellipk takes the parameter r^2
        import mpmath
        with mpmath.workdps(50):
            exact = mpmath.pi / (4 * mpmath.ellipk(
                1 / (1 + mpmath.exp(mpmath.mpf(t)))) ** 2)
            assert abs(twist_min_dilatation_derivative(t) - exact) \
                <= 5e-16 * exact


def random_quadruple(rng):
    pts = sorted(rng.uniform(-20.0, 20.0, size=4))
    if pts[0] == pts[1] or pts[1] == pts[2] or pts[2] == pts[3]:
        return random_quadruple(rng)
    if rng.random() < 0.3:
        pts[3] = math.inf
    return IdealQuadrilateral(*pts)


def apply_moebius(m, p):
    a, b, c, d = m
    if p == math.inf:
        return math.inf if c == 0.0 else a / c
    den = c * p + d
    return math.inf if den == 0.0 else (a * p + b) / den


class TestQuadModulus:
    def test_square_quadrilateral(self):
        q = IdealQuadrilateral(-1.0, 0.0, 1.0, math.inf)
        assert quad_modulus(q) == pytest.approx(1.0, rel=1e-14)

    def test_two_normalizations_agree(self):
        t = 1.0
        q1 = IdealQuadrilateral(-math.exp(t), 0.0, 1.0, math.inf)
        q2 = IdealQuadrilateral(math.inf, -1.0, 0.0, math.exp(t))
        assert quad_modulus(q1) == pytest.approx(quad_modulus(q2), rel=1e-13)

    def test_reciprocity_random(self):
        rng = np.random.default_rng(20240911)
        for _ in range(500):
            q = random_quadruple(rng)
            prod = quad_modulus(q) * quad_modulus(q.rotated())
            assert prod == pytest.approx(1.0, abs=1e-8)

    def test_moebius_invariance(self):
        rng = np.random.default_rng(5150)
        for _ in range(500):
            q = random_quadruple(rng)
            while True:
                a, b, c, d = rng.uniform(-3.0, 3.0, size=4)
                if a * d - b * c > 0.1:
                    break
            pts = [apply_moebius((a, b, c, d), p) for p in q]
            if sum(p == math.inf for p in pts) > 1 or len(set(pts)) != 4:
                continue
            if any(p != math.inf and abs(p) > 1e12 for p in pts):
                continue
            q2 = IdealQuadrilateral(*pts)
            assert quad_modulus(q2) == pytest.approx(quad_modulus(q),
                                                     rel=1e-8)

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            IdealQuadrilateral(0.0, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            IdealQuadrilateral(math.inf, 0.0, 1.0, math.inf)

    def test_wrong_cyclic_order_rejected(self):
        with pytest.raises(DomainError):
            IdealQuadrilateral(0.0, -1.0, 1.0, math.inf)
        with pytest.raises(DomainError):
            IdealQuadrilateral(-1.0, math.inf, 0.0, 1.0)

    def test_rotations_of_valid_order_accepted(self):
        IdealQuadrilateral(1.0, 2.0, -3.0, 0.0)

    def test_negative_infinity_rejected(self):
        with pytest.raises(DomainError):
            IdealQuadrilateral(-math.inf, -1.0, 0.0, 1.0)

    def test_normalized_domain(self):
        with pytest.raises(DomainError):
            normalized_quad_modulus(0.0)


class TestCylinderInterval:
    def test_log3(self):
        assert cylinder_interval(math.log(3.0)) == pytest.approx(
            S_AT_LOG3, rel=1e-14)

    def test_large_b_limit(self):
        assert cylinder_interval(60.0) == pytest.approx(math.pi, rel=1e-12)

    @given(b=st.floats(min_value=1e-3, max_value=40.0))
    def test_double_angle_identity(self, b):
        assert cylinder_interval(b) == 2.0 * angle_of_distance(b)

    def test_domain(self):
        with pytest.raises(DomainError):
            cylinder_interval(0.0)


class TestAffineDilatation:
    def test_identity_map(self):
        k, mu = affine_dilatation(0.0)
        assert k == 1.0
        assert mu == 0.0

    def test_exact_rational_point(self):
        k, mu = affine_dilatation(1.5)
        assert k == 4.0
        assert mu == 0.6

    def test_even_in_shear(self):
        assert affine_dilatation(-1.5).k == 4.0

    @given(a=st.floats(min_value=-8.0, max_value=8.0))
    def test_two_route_agreement(self, a):
        k, mu = affine_dilatation(a)
        assert k == pytest.approx((1.0 + mu) / (1.0 - mu), rel=1e-14)
        assert k <= 1.0 + abs(a) * math.sqrt(4.0 + a * a) + 1e-12

    @given(a=st.floats(min_value=-50.0, max_value=50.0))
    def test_beltrami_route_agreement(self, a):
        # the inverse identity mu = (K-1)/(K+1) is well conditioned even
        # for strong shears, where (1+mu)/(1-mu) amplifies rounding by K
        k, mu = affine_dilatation(a)
        assert (k - 1.0) / (k + 1.0) == pytest.approx(mu, rel=1e-14,
                                                      abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            affine_dilatation(math.inf)
        with pytest.raises(DomainError):
            affine_dilatation(math.nan)

    @pytest.mark.parametrize("a", [1.4e154, -1e155, 1e300,
                                   1.7976931348623157e308])
    def test_dilatation_out_of_range(self, a):
        # a^2 overflows, so K is not a double
        with pytest.raises(DomainError,
                           match=re.escape(f"shear coefficient {a}")):
            affine_dilatation(a)

    def test_largest_shears_in_range(self):
        for a in (1e150, -1.3e154):
            k, mu = affine_dilatation(a)
            assert k == pytest.approx(a * a, rel=1e-15) and mu == 1.0
