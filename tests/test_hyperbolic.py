import csv
import io
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnteich.errors import DomainError, UsageError
from fnteich.hyperbolic import (HalfPlanePoint, HexagonAlternatingSides,
                                PantsBoundaryLengths, PantsLengthGrid,
                                angle_of_distance,
                                arcosh1p, collar_data, collar_halfwidth,
                                collar_margin, halfseam_intermediate_bound,
                                hexagon_altitude, hexagon_sides, hp,
                                hyp_distance, hyp_distance_crossratio,
                                on_columns, verify_pants_collar)
from fnteich.families import pants1_arc_length
from fnteich.reports import VerificationReport
from fnteich.suites import _check_oracle

# frozen with a 40-digit arithmetic oracle before implementation
B_AT_2 = 0.13617073445591577
B_AT_LOG3 = 0.34657359027997264          # = (1/2) log 2
OMEGA_AT_2 = 0.7719368329053047
THETA_AT_LOG3 = 0.9272952180016122       # = 2 arctan(1/2)
HEX_B_111 = 1.7049128323580136           # = arcosh(cosh1/(cosh1-1))
HEX_H_COSH_SQ_111 = 9.768855646461656
HEX_H_111 = 1.806112999841126

lengths = st.floats(min_value=0.05, max_value=20.0)
coords = st.floats(min_value=-50.0, max_value=50.0)
heights = st.floats(min_value=1e-3, max_value=1e3)


class TestDistance:
    def test_identity_point(self):
        p = hp(0.3, 2.0)
        assert hyp_distance(p, p) == 0.0
        assert hyp_distance_crossratio(p, p) == 0.0

    def test_vertical_geodesic(self):
        d = hyp_distance(hp(0, 1), hp(0, 2))
        assert d == pytest.approx(math.log(2.0), rel=1e-14)
        # cosh d = 1.25 for this pair
        assert math.cosh(d) == pytest.approx(1.25, rel=1e-14)
        assert hyp_distance_crossratio(hp(0, 1), hp(0, 2)) == pytest.approx(
            math.log(2.0), rel=1e-14)

    def test_unit_circle_point(self):
        # w = exp(i(pi/2 + theta)) with tan(theta/2) = 1/3 means
        # sin theta = 3/5, cos theta = 4/5, and d(i, w) = log 2
        w = hp(-0.6, 0.8)
        i = hp(0.0, 1.0)
        assert hyp_distance(i, w) == pytest.approx(math.log(2.0), rel=1e-14)
        assert hyp_distance_crossratio(i, w) == pytest.approx(
            math.log(2.0), rel=1e-12)

    @given(x1=coords, y1=heights, x2=coords, y2=heights)
    def test_symmetric_nonnegative(self, x1, y1, x2, y2):
        z, w = hp(x1, y1), hp(x2, y2)
        d = hyp_distance(z, w)
        assert d >= 0.0
        assert d == hyp_distance(w, z)

    @given(x1=coords, y1=heights, x2=coords, y2=heights)
    @settings(max_examples=300)
    def test_crossratio_route_agrees(self, x1, y1, x2, y2):
        z, w = hp(x1, y1), hp(x2, y2)
        d1 = hyp_distance(z, w)
        d2 = hyp_distance_crossratio(z, w)
        assert d2 == pytest.approx(d1, rel=1e-10, abs=1e-13)

    def test_invalid_points(self):
        with pytest.raises(DomainError):
            hp(0.0, 0.0)
        with pytest.raises(DomainError):
            hp(0.0, -1.0)
        with pytest.raises(DomainError):
            HalfPlanePoint(math.nan, 1.0)

    @pytest.mark.parametrize("z,w", [
        (hp(0.0, 1.0), hp(5e-324, 2.0)),           # subnormal separation
        (hp(0.0, 1.0), hp(3e-308, 2.0)),           # center near the range limit
        (hp(50.0, 1e-3), hp(50.0 + 1e-300, 1e3)),  # near-vertical, far out
        (hp(1e300, 1.0), hp(1e300, 2.0)),          # vertical far from origin
    ])
    def test_crossratio_near_vertical_limits(self, z, w):
        d1 = hyp_distance(z, w)
        d2 = hyp_distance_crossratio(z, w)
        assert math.isfinite(d2)
        assert d2 == pytest.approx(d1, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("z,w", [
        (hp(0.0, 1e-200), hp(0.0, 2e-200)),        # 2 y y' underflows
        (hp(1e-160, 3e-170), hp(0.0, 5e-160)),     # so would dx^2
        (hp(0.0, 1e-310), hp(1e-310, 1e-310)),     # subnormal heights
        (hp(0.0, 1e200), hp(-3e200, 2e200)),       # 2 y y' overflows
        (hp(1e300, 1e-200), hp(1e300, 3e-200)),
        # normal heights whose separation |z - w| is subnormal
        (hp(3e-301, 1e-300), hp(3e-301 + 3e-312, 1e-300 + 4e-312)),
    ])
    def test_extreme_heights_against_mpmath(self, z, w):
        with mpmath.workdps(50):
            dz = mpmath.mpc(*z) - mpmath.mpc(*w)
            exact = mpmath.acosh(1 + abs(dz) ** 2
                                 / (2 * mpmath.mpf(z.y) * mpmath.mpf(w.y)))
        assert hyp_distance(z, w) == pytest.approx(float(exact), rel=1e-15)
        assert hyp_distance(w, z) == hyp_distance(z, w)
        for a, b in ((z, w), (w, z)):
            d = hyp_distance_crossratio(a, b)
            assert abs(d - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("z,w", [
        (hp(0.0, 1.0), hp(0.0, 1e300)),            # dy^2 overflows
        (hp(0.0, 1.0), hp(1e300, 1.0)),            # dx^2 overflows
        (hp(-1e200, 1e-100), hp(1e200, 1e-100)),
        (hp(0.0, 1e-300), hp(1e-100, 1e-300)),     # after the rescale
        (hp(0.0, 1e-200), hp(0.0, 1e100)),         # u finite, u^2 not
        (hp(0.0, 1.0), hp(0.0, 1e155)),
    ])
    def test_distance_past_the_overflow_of_u(self, z, w):
        with mpmath.workdps(50):
            dz = mpmath.mpc(*z) - mpmath.mpc(*w)
            exact = mpmath.acosh(1 + abs(dz) ** 2
                                 / (2 * mpmath.mpf(z.y) * mpmath.mpf(w.y)))
        assert abs(hyp_distance(z, w) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("sep", [1e-160, 1e-170, 1e-300])
    @pytest.mark.parametrize("y,angle", [(1.0, 0.0), (2.0, 0.6),
                                         (1e-150, 2.5)])
    def test_separation_whose_square_underflows(self, sep, y, angle):
        z = hp(0.0, y)
        w = hp(sep * math.cos(angle), y + sep * math.sin(angle))
        with mpmath.workdps(50):
            # 1 + |z - w|^2 / (2 y y') rounds to 1 even at 50 digits
            dz = mpmath.mpc(*z) - mpmath.mpc(*w)
            exact = 2 * mpmath.asinh(
                abs(dz) / (2 * mpmath.sqrt(mpmath.mpf(z.y) * w.y)))
        assert exact > 0
        for a, b in ((z, w), (w, z)):
            assert abs(hyp_distance(a, b) - exact) <= 1e-15 * exact
            assert abs(hyp_distance_crossratio(a, b) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 1001, 2 ** 52 - 1,
                                   2 ** 52 + 1, 2 ** 53 - 1])
    @pytest.mark.parametrize("y", [1.0, 1e-300, 1e300])
    def test_subnormal_separation_against_mpmath(self, k, y):
        # at y = 1 the distance is the separation itself; both routes
        # halved it, giving 0 at k = 1 and losing the last bit of odd k
        # (from 2^52 on, where s is normal and s / 2 is not, in the cosh
        # route); at y = 1e300 it rounds to 0
        z, w = hp(0.0, y), hp(k * 5e-324, y)
        with mpmath.workdps(60):
            exact = float(2 * mpmath.asinh(mpmath.mpf(w.x) / (2 * y)))
        if y == 1.0:
            assert exact == w.x
        for a, b in ((z, w), (w, z)):
            for route in (hyp_distance, hyp_distance_crossratio):
                assert route(a, b) == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("z,w", [
        (hp(0.0, 1.0), hp(1e300, 1.0)),
        (hp(-1e200, 1e-100), hp(1e200, 1e-100)),
        (hp(0.0, 1e-10), hp(1e150, 1e-10)),
    ])
    def test_crossratio_past_the_overflow(self, z, w):
        d = hyp_distance(z, w)
        assert d > 710.0
        for a, b in ((z, w), (w, z)):
            assert abs(hyp_distance_crossratio(a, b) - d) <= 1e-15 * d

    def test_oracle_columns_match_scalar_loop(self):
        rng = np.random.default_rng(20261020)
        n = 6000
        y = 10.0 ** rng.uniform(-300.0, 300.0, n)
        r = y * 10.0 ** rng.uniform(-15.0, 0.0, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        x = y * rng.uniform(-5.0, 5.0, n)
        points = np.column_stack((x, y, x + r * np.cos(phi),
                                  y + r * np.sin(phi)))
        points = np.vstack((points, [(0.0, 1.0, 0.0, 1e300),
                                     (0.0, 1.0, 1e300, 1.0),
                                     (-1e200, 1e-100, 1e200, 1e-100),
                                     (0.0, 1e-200, 0.0, 1e100)]))

        def report():
            buf = io.StringIO()
            return VerificationReport("t", csv_writer=csv.writer(buf)), buf

        columns, columns_buf = report()
        _check_oracle(columns, points)
        loop, loop_buf = report()
        inputs, rel = [], []
        for zx, zy, wx, wy in points.tolist():
            z, w = hp(zx, zy), hp(wx, wy)
            d1 = hyp_distance(z, w)
            d2 = hyp_distance_crossratio(z, w)
            inputs.append((z.x, z.y, w.x, w.y))
            rel.append((abs(d1 - d2) / d1,))
        loop.check_many(("crossratio_vs_cosh_rel",), inputs, 1e-10, rel)
        assert columns.failures == loop.failures
        assert repr(columns.min_slack) == repr(loop.min_slack)
        assert columns_buf.getvalue() == loop_buf.getvalue()
        # the overflow pairs included: the cross-ratio route stays finite
        assert columns.failures == []

    @pytest.mark.parametrize("bad", [(0.0, 0.0), (0.0, -1.0), (math.inf, 1.0),
                                     (math.nan, 1.0)])
    def test_oracle_columns_reject_bad_points(self, bad):
        points = np.array([(0.0, 1.0, 0.5, 2.0), (0.0, 1.0, *bad)])
        with pytest.raises(DomainError, match="point"):
            _check_oracle(VerificationReport("t"), points)

    def test_heights_beyond_double_range_rejected(self):
        with pytest.raises(DomainError,
                           match=r"\(0\.0, 1\.0\) and \(0\.0, 1e-320\)"):
            hyp_distance(hp(0.0, 1.0), hp(0.0, 1e-320))


class TestAngleOfDistance:
    def test_small_d_limit(self):
        assert angle_of_distance(1e-12) < 1e-9

    @pytest.mark.parametrize("d", [5e-324, 1e-310, 2.2250738585072014e-308])
    def test_subnormal_d_is_its_own_angle(self, d):
        # theta(d) = d - d^3/12 + ..., and d / 2 would lose bits
        assert angle_of_distance(d) == d

    def test_log3(self):
        assert angle_of_distance(math.log(3.0)) == pytest.approx(
            THETA_AT_LOG3, rel=1e-15)

    def test_large_d_limit(self):
        assert angle_of_distance(50.0) == pytest.approx(math.pi / 2.0,
                                                        rel=1e-12)

    @given(d=st.floats(min_value=1e-3, max_value=30.0))
    def test_range(self, d):
        assert 0.0 < angle_of_distance(d) < math.pi / 2.0

    def test_monotone(self):
        # below the range where tanh(d/2) saturates to 1
        grid = [0.01 * 1.5 ** k for k in range(19)]
        vals = [angle_of_distance(d) for d in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            angle_of_distance(0.0)
        with pytest.raises(DomainError):
            angle_of_distance(-1.0)


class TestCollar:
    def test_margin_log3(self):
        assert collar_margin(math.log(3.0)) == pytest.approx(B_AT_LOG3,
                                                             rel=1e-15)

    def test_margin_at_2(self):
        assert collar_margin(2.0) == pytest.approx(B_AT_2, rel=1e-15)

    def test_margin_monotone_decreasing(self):
        assert collar_margin(1.0) > collar_margin(2.0)
        grid = [0.05 * 1.4 ** k for k in range(18)]
        vals = [collar_margin(l) for l in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_margin_limits(self):
        assert collar_margin(1e-8) > 9.0          # blows up like log(2/l)/2
        assert collar_margin(40.0) < 1e-15

    def test_halfwidth_at_2(self):
        assert collar_halfwidth(2.0) == pytest.approx(OMEGA_AT_2, rel=1e-14)

    @given(l=lengths)
    def test_halfwidth_defining_identity(self, l):
        w = collar_halfwidth(l)
        assert math.sinh(w) * math.sinh(l / 2.0) == pytest.approx(
            1.0, rel=1e-13)

    def test_halfwidth_limit(self):
        assert collar_halfwidth(60.0) < 1e-12

    def test_halfwidth_monotone(self):
        grid = [0.05 * 1.4 ** k for k in range(18)]
        vals = [collar_halfwidth(l) for l in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domains(self):
        for fn in (collar_margin, collar_halfwidth):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(-2.0)

    @pytest.mark.parametrize("l", [5e-324, 1e-320, 1e-310, 1e-308,
                                   2.2250738585072014e-308, 3e-308])
    def test_subnormal_lengths_against_mpmath(self, l):
        with mpmath.workdps(50):
            length = mpmath.mpf(l)
            margin = 0.5 * mpmath.log1p(2 / mpmath.expm1(length))
            halfwidth = mpmath.asinh(1 / mpmath.sinh(length / 2))
        assert collar_margin(l) == pytest.approx(float(margin), rel=1e-15)
        assert collar_halfwidth(l) == pytest.approx(float(halfwidth),
                                                    rel=1e-15)

    @pytest.mark.parametrize("l", [1420.5, 1421.0, 1430.0, 1460.0, 1489.0])
    def test_halfwidth_past_the_overflow_of_sinh(self, l):
        # sinh(l/2) overflows past l ~ 1420.95; omega = 2 e^(-l/2) is
        # subnormal there, so the error is counted in units of 5e-324
        with mpmath.workdps(50):
            exact = mpmath.asinh(1 / mpmath.sinh(mpmath.mpf(l) / 2))
        assert abs(collar_halfwidth(l) - exact) <= 1e-323

    def test_halfwidth_below_the_overflow_keeps_its_formula(self):
        for l in (700.0, 1419.0, 1420.0):
            assert collar_halfwidth(l) == math.asinh(1.0
                                                     / math.sinh(l / 2.0))

    def test_halfwidth_that_underflows(self):
        assert collar_halfwidth(1490.0) > 0.0
        with pytest.raises(DomainError, match="curve length 1495.0"):
            collar_halfwidth(1495.0)

    def test_collar_data_consistent(self):
        data = collar_data(2.0)
        assert data.halfwidth == collar_halfwidth(2.0)
        assert data.margin == collar_margin(2.0)
        assert data.angle == angle_of_distance(data.halfwidth)


class TestHexagon:
    def test_regular(self):
        b = hexagon_sides(HexagonAlternatingSides(1.0, 1.0, 1.0))
        for v in b:
            assert v == pytest.approx(HEX_B_111, rel=1e-13)

    def test_swap_equivariance(self):
        b = hexagon_sides(HexagonAlternatingSides(0.7, 1.3, 2.9))
        b_swapped = hexagon_sides(HexagonAlternatingSides(0.7, 2.9, 1.3))
        assert b_swapped[0] == pytest.approx(b[0], rel=1e-15)
        assert b_swapped[1] == pytest.approx(b[2], rel=1e-15)
        assert b_swapped[2] == pytest.approx(b[1], rel=1e-15)

    @given(a1=lengths, a2=lengths, a3=lengths)
    @settings(max_examples=300)
    def test_roundtrip(self, a1, a2, a3):
        b = hexagon_sides(HexagonAlternatingSides(a1, a2, a3))
        back = hexagon_sides(HexagonAlternatingSides(*b))
        for got, want in zip(back, (a1, a2, a3)):
            assert got == pytest.approx(want, rel=1e-9)

    def test_roundtrip_thin_corner(self):
        # nearly-degenerate seam: two long sides, one short
        a = (0.05, 10.0, 10.0)
        b = hexagon_sides(HexagonAlternatingSides(*a))
        back = hexagon_sides(HexagonAlternatingSides(*b))
        for got, want in zip(back, a):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a", [(5e-324, 1.0, 1.0), (1e-310, 2.0, 0.5),
                                   (5e-324, 5e-324, 3.0), (1e-160, 1.0, 1.0)])
    def test_tiny_side_against_mpmath(self, a):
        # the seam excess, or its square, overflows; its log is a double
        with mpmath.workdps(50):
            x = [mpmath.mpf(v) for v in a]
            exact = [mpmath.acosh(
                (mpmath.cosh(x[i]) + mpmath.cosh(x[j]) * mpmath.cosh(x[k]))
                / (mpmath.sinh(x[j]) * mpmath.sinh(x[k])))
                for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
        for got, want in zip(hexagon_sides(HexagonAlternatingSides(*a)),
                             exact):
            assert abs(got - want) <= 1e-15 * want

    def test_columns_match_scalar_kernel(self):
        values = (5e-324, 1e-300, 1e-160, 1e-8, 0.05, 1.0, 10.0, 200.0, 355.0,
                  700.0)
        rows = [(a1, a2, a3) for a1 in values for a2 in values
                for a3 in values]
        columns = on_columns(hexagon_sides, np.array(rows).T, np.array(rows))
        assert columns.tolist() == [
            list(hexagon_sides(HexagonAlternatingSides(*a))) for a in rows]

    def test_domain(self):
        with pytest.raises(DomainError):
            HexagonAlternatingSides(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            HexagonAlternatingSides(1.0, math.inf, 1.0)
        with pytest.raises(DomainError):
            HexagonAlternatingSides(1.0, -1.0, 1.0)


class TestAltitude:
    def test_regular_value(self):
        hexa = HexagonAlternatingSides(1.0, 1.0, 1.0)
        h = hexagon_altitude(hexa, 1)
        assert math.cosh(h) ** 2 == pytest.approx(HEX_H_COSH_SQ_111,
                                                  rel=1e-12)
        assert h == pytest.approx(HEX_H_111, rel=1e-13)

    def test_regular_symmetry(self):
        hexa = HexagonAlternatingSides(1.0, 1.0, 1.0)
        vals = {hexagon_altitude(hexa, i) for i in (1, 2, 3)}
        assert max(vals) - min(vals) < 1e-15

    def test_bad_index(self):
        hexa = HexagonAlternatingSides(1.0, 1.0, 1.0)
        for i in (0, 4, -1):
            with pytest.raises(UsageError):
                hexagon_altitude(hexa, i)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_cusp_limit_matches_returning_arc(self, n):
        # the altitude h2 with cosh a1 -> 1 (cusp) at full side lengths
        # (n, 1), sinh^2 h2 = (cosh^2 1 + 1 + 2 cosh n cosh 1) / sinh^2 n,
        # reproduces the chained-pants arc formula
        ch2, ch3 = math.cosh(float(n)), math.cosh(1.0)
        cusp_altitude = math.asinh(math.sqrt(ch3 * ch3 + 1.0 + 2.0 * ch2 * ch3)
                                   / math.sinh(float(n)))
        assert cusp_altitude == pytest.approx(pants1_arc_length(n).length,
                                              rel=1e-14)


def assert_grid_matches_loop_over_pants(axes):
    def report():
        buf = io.StringIO()
        return VerificationReport("t", csv_writer=csv.writer(buf)), buf

    grid, grid_buf = report()
    verify_pants_collar(PantsLengthGrid(*axes), grid)
    loop, loop_buf = report()
    for l1 in axes[0]:
        for l2 in axes[1]:
            for l3 in axes[2]:
                verify_pants_collar(PantsBoundaryLengths(l1, l2, l3), loop)
    assert grid.total == loop.total == 9 * math.prod(map(len, axes))
    assert grid.failures == loop.failures
    assert repr(grid.min_slack) == repr(loop.min_slack)
    assert grid_buf.getvalue() == loop_buf.getvalue()


class TestPantsCollar:
    def test_regular_pants(self):
        rep = verify_pants_collar(PantsBoundaryLengths(1.0, 1.0, 1.0))
        assert rep.passed
        assert rep.total == 9
        assert not rep.skipped

    def test_spread_pants(self):
        rep = verify_pants_collar(PantsBoundaryLengths(10.0, 0.05, 3.0))
        assert rep.passed
        assert rep.total == 9

    def test_one_cusp(self):
        rep = verify_pants_collar(PantsBoundaryLengths(0.0, 1.0, 1.0))
        assert rep.passed
        assert rep.total == 6
        assert rep.skipped == 3

    def test_three_cusps(self):
        rep = verify_pants_collar(PantsBoundaryLengths(0.0, 0.0, 0.0))
        assert rep.total == 0
        assert rep.skipped == 9

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            PantsBoundaryLengths(-1.0, 1.0, 1.0)

    @given(axes=st.lists(st.lists(
        st.floats(min_value=0.01, max_value=30.0), min_size=1, max_size=3),
        min_size=3, max_size=3))
    def test_grid_matches_loop_over_pants(self, axes):
        assert_grid_matches_loop_over_pants(axes)

    def test_grid_matches_loop_at_extreme_lengths(self):
        axis = [1e-320, 1e-200, 1e-5, 0.05, 1.0, 50.0, 300.0, 700.0]
        assert_grid_matches_loop_over_pants([axis, axis, axis])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_grid_rejects_cusps_and_bad_lengths(self, bad):
        with pytest.raises(DomainError):
            verify_pants_collar(PantsLengthGrid((1.0,), (1.0, bad), (2.0,)))

    @given(l=lengths)
    def test_intermediate_chain_step(self, l):
        mid, margin = halfseam_intermediate_bound(l)
        assert mid >= margin

    @given(l1=st.floats(min_value=0.01, max_value=30.0),
           l2=st.floats(min_value=0.01, max_value=30.0),
           l3=st.floats(min_value=0.01, max_value=30.0))
    @settings(max_examples=300)
    def test_inequalities_hold_for_arbitrary_pants(self, l1, l2, l3):
        rep = verify_pants_collar(PantsBoundaryLengths(l1, l2, l3))
        assert rep.passed, rep.failures

    @given(l2=st.floats(min_value=0.01, max_value=30.0),
           l3=st.floats(min_value=0.01, max_value=30.0),
           cusp_at=st.integers(min_value=0, max_value=2))
    def test_inequalities_hold_with_a_cusp(self, l2, l3, cusp_at):
        lengths = [l2, l3]
        lengths.insert(cusp_at, 0.0)
        rep = verify_pants_collar(PantsBoundaryLengths(*lengths))
        assert rep.passed, rep.failures
        assert rep.skipped == 3


class TestArcosh1p:
    def test_tiny_excess(self):
        # arcosh(1 + u) = sqrt(2u) (1 - u/12 + ...)
        for u in (0.0, 5e-324, 1e-300, 1e-13):
            assert arcosh1p(u) == pytest.approx(math.sqrt(2.0 * u),
                                                rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("u", [1.3e154, 1.35e154, 1e200, 1e300,
                                   sys.float_info.max])
    def test_past_the_overflow_of_u_squared(self, u):
        with mpmath.workdps(50):
            exact = mpmath.acosh(1 + mpmath.mpf(u))
        assert abs(arcosh1p(u) - exact) <= 1.2e-16 * exact

    @given(u=st.floats(min_value=0.0, max_value=1e150))
    def test_against_mpmath(self, u):
        # arcosh(1 + u) = 2 asinh(sqrt(u / 2)) needs no 1 + u
        with mpmath.workdps(50):
            exact = 2 * mpmath.asinh(mpmath.sqrt(mpmath.mpf(u) / 2))
        assert abs(arcosh1p(u) - exact) <= 1e-15 * exact
