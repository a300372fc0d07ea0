import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnteich.bounds import (CYLINDER_LENGTH_NOTE, BoundAssumptions,
                            bilipschitz_sandwich, bishop_length_bound,
                            collar_cylinder_halflength, combined_qc_upper,
                            cylinder_halflength_report, fn_from_qc_upper,
                            twist_change_bound)
from fnteich.errors import DomainError
from fnteich.reports import BoundReport

# frozen with a 40-digit arithmetic oracle before implementation
L_AT_LOG3 = 0.3398369094541219    # = 2 arctan((sqrt2-1)/(sqrt2+1))
L_AT_1 = 0.376727508058575
FOUR_ROOT_TWO = 5.656854249492381

caps = st.floats(min_value=0.1, max_value=10.0)
consts = st.floats(min_value=0.0, max_value=10.0)
dists = st.floats(min_value=0.0, max_value=10.0)


class TestCylinderHalflength:
    def test_at_log3(self):
        assert collar_cylinder_halflength(math.log(3.0)) == pytest.approx(
            L_AT_LOG3, rel=1e-14)

    def test_at_one(self):
        assert collar_cylinder_halflength(1.0) == pytest.approx(L_AT_1,
                                                                rel=1e-14)

    def test_decreasing(self):
        grid = [0.1 * (100.0 ** (k / 30.0)) for k in range(31)]
        vals = [collar_cylinder_halflength(n) for n in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(cap=caps)
    def test_below_half_pi(self, cap):
        assert 0.0 < collar_cylinder_halflength(cap) < math.pi / 2.0

    def test_report_carries_discrepancy(self):
        info = cylinder_halflength_report(1.0)
        assert info.value == pytest.approx(L_AT_1, rel=1e-14)
        assert info.printed_closed_form == pytest.approx(
            2.0 * math.atan(2.0 * math.e), rel=1e-14)
        # the printed variant is not even in the admissible range
        assert info.printed_closed_form > math.pi / 2.0
        assert "arctan" in info.note

    def test_domain(self):
        with pytest.raises(DomainError):
            collar_cylinder_halflength(0.0)

    def test_cap_whose_collar_margin_underflows(self):
        # B(N) = e^-N is 0 in doubles past N ~ 745.13; angle_of_distance
        # raised about its own argument there
        assert collar_cylinder_halflength(745.0) == 5e-324
        for cap in (746.0, 1000.0, 1e96):
            with pytest.raises(DomainError) as err:
                collar_cylinder_halflength(cap)
            assert str(err.value).startswith(
                f"length cap {cap} is out of range: the collar margin B(N)")


class TestAssumptions:
    def test_derived_field(self):
        a = BoundAssumptions(cap=1.0, bishop_c=2.0)
        assert a.l_of_cap == collar_cylinder_halflength(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            BoundAssumptions(cap=0.0, bishop_c=1.0)
        with pytest.raises(DomainError):
            BoundAssumptions(cap=1.0, bishop_c=-0.5)

    def test_zero_constant_allowed_for_degenerate_checks(self):
        BoundAssumptions(cap=1.0, bishop_c=0.0)

    def test_cap_whose_halflength_squares_to_zero(self):
        # the bounds divide by 16 L(N)^2, which is 0 in doubles past
        # N ~ 373.95; they raised ZeroDivisionError there
        with pytest.raises(DomainError, match="length cap 400.0 is out"):
            BoundAssumptions(cap=400.0, bishop_c=1.0)
        a = BoundAssumptions(cap=373.0, bishop_c=1.0)
        assert combined_qc_upper(0.0, a).upper == 0.0
        assert twist_change_bound(1.0, a).upper == math.inf


class TestBishopLengthBound:
    def test_identical_triples(self):
        a = BoundAssumptions(cap=3.0, bishop_c=1.0)
        rep = bishop_length_bound((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), a)
        assert rep.upper == 0.0

    def test_single_factor_e(self):
        a = BoundAssumptions(cap=3.0, bishop_c=1.0)
        rep = bishop_length_bound((1.0, 1.0, 1.0), (math.e, 1.0, 1.0), a)
        assert rep.upper == pytest.approx(3.0, rel=1e-15)

    def test_permutation_invariance(self):
        a = BoundAssumptions(cap=3.0, bishop_c=0.7)
        r1 = bishop_length_bound((1.0, 2.0, 3.0), (1.5, 2.5, 0.5), a)
        r2 = bishop_length_bound((3.0, 1.0, 2.0), (0.5, 1.5, 2.5), a)
        assert r1.upper == r2.upper

    def test_cap_violation(self):
        a = BoundAssumptions(cap=2.0, bishop_c=1.0)
        with pytest.raises(DomainError):
            bishop_length_bound((1.0, 1.0, 2.5), (1.0, 1.0, 1.0), a)

    def test_note_present(self):
        a = BoundAssumptions(cap=2.0, bishop_c=1.0)
        rep = bishop_length_bound((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), a)
        assert CYLINDER_LENGTH_NOTE in rep.notes


class TestTwistChangeBound:
    def test_zero_distance(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        assert twist_change_bound(0.0, a).upper == 0.0

    def test_four_l_value(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        d = 4.0 * a.l_of_cap
        assert twist_change_bound(d, a).upper == pytest.approx(
            FOUR_ROOT_TWO, rel=1e-13)

    def test_superlinear_growth(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        grid = [0.5 * k for k in range(1, 21)]
        vals = [twist_change_bound(d, a).upper for d in grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        ratios = [v / d for v, d in zip(vals, grid)]
        assert all(x < y for x, y in zip(ratios, ratios[1:]))

    def test_domain(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        with pytest.raises(DomainError):
            twist_change_bound(-0.1, a)


class TestCombinedUpper:
    def test_zero_distance(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        assert combined_qc_upper(0.0, a).upper == 0.0

    def test_degenerate_constant_reduces_to_twist_route(self):
        a = BoundAssumptions(cap=1.0, bishop_c=0.0)
        for d in (0.0, 0.5, 2.0, 7.0):
            assert combined_qc_upper(d, a).upper == pytest.approx(
                twist_change_bound(d, a).upper, rel=1e-15)

    def test_value_at_unit_arguments(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        big_l = a.l_of_cap
        # the bracket recomputed independently, term by term
        expected = 3.0 + math.sqrt(1.0 + 1.0 / (16.0 * big_l * big_l)) / big_l
        assert combined_qc_upper(1.0, a).upper == pytest.approx(
            expected, rel=1e-14)

    @given(d=dists, cap=caps, c=consts)
    def test_dominates_single_routes(self, d, cap, c):
        a = BoundAssumptions(cap=cap, bishop_c=c)
        combined = combined_qc_upper(d, a).upper
        fudge = 1e-12 * (1.0 + combined)
        assert combined + fudge >= twist_change_bound(d, a).upper
        assert combined + fudge >= 3.0 * c * d


class TestReverseDirection:
    def test_zero(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        assert fn_from_qc_upper(0.0, a).upper == 0.0

    def test_unit_values(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        assert fn_from_qc_upper(1.0, a).upper == pytest.approx(5.0,
                                                               rel=1e-15)

    @given(logk=st.floats(min_value=0.0, max_value=10.0), c=consts)
    def test_linear(self, logk, c):
        a = BoundAssumptions(cap=1.0, bishop_c=c)
        assert fn_from_qc_upper(logk, a).upper == pytest.approx(
            (2.0 + 3.0 * c) * logk, rel=1e-15)


class TestSandwich:
    def test_zero_distance(self):
        a = BoundAssumptions(cap=1.0, bishop_c=1.0)
        rep = bilipschitz_sandwich(0.0, a)
        assert rep.forward.upper == 0.0
        assert rep.consistent

    @given(d=dists, cap=caps, c=st.floats(min_value=0.5, max_value=5.0))
    def test_consistency(self, d, cap, c):
        rep = bilipschitz_sandwich(d, BoundAssumptions(cap=cap, bishop_c=c))
        assert rep.consistent
        assert rep.inverse_constant == 2.0 + 3.0 * c

    def test_constants_degrade_with_cap(self):
        grid = [0.5 * (10.0 ** (k / 10.0)) for k in range(11)]
        vals = [bilipschitz_sandwich(
            1.0, BoundAssumptions(cap=n, bishop_c=1.0)).forward_lipschitz
            for n in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_notes_present(self):
        rep = bilipschitz_sandwich(1.0, BoundAssumptions(cap=1.0,
                                                         bishop_c=1.0))
        assert CYLINDER_LENGTH_NOTE in rep.notes
        assert CYLINDER_LENGTH_NOTE in rep.forward.notes


class TestBoundReportInvariant:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(quantity="q", lower=2.0, upper=1.0,
                        assumptions={}, provenance="x")

    def test_assumptions_frozen(self):
        rep = BoundReport(quantity="q", lower=None, upper=1.0,
                          assumptions={"cap": 1.0}, provenance="x")
        with pytest.raises(TypeError):
            rep.assumptions["cap"] = 2.0
