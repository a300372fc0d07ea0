"""The validated value types: namedtuple subclasses whose every way in (the constructor, _make, _replace and unpickling)
validates, and which stay immutable and compare by value."""

import math
import pickle
import re
from types import MappingProxyType

import pytest

from fnteich.bounds import BoundAssumptions, collar_cylinder_halflength
from fnteich.conformal import IdealQuadrilateral
from fnteich.errors import DomainError, UsageError
from fnteich.fnspace import (CUSP, FNCoordinate, PantsGraph,
                             StructureGenerator)
from fnteich.hyperbolic import (CollarData, HalfPlanePoint,
                                HexagonAlternatingSides,
                                PantsBoundaryLengths, collar_data, hp)
from fnteich.reports import BoundReport
from fnteich.suites import GridSpec
from fnteich.twist import MultiTwistFamily, SeamAngleInstance, TwistScenario

# type: (constructor keywords, (field, bad value, error, message),
#        pinned repr of the object built from the keywords)
CASES = {
    HalfPlanePoint: (
        dict(x=0.3, y=2.0), ("y", 0.0, DomainError, "point must satisfy "
                             "y > 0, got y = 0.0"),
        "HalfPlanePoint(x=0.3, y=2.0)"),
    CollarData: (
        dict(margin=0.5, halfwidth=0.7, angle=0.6),
        ("angle", 2.0, DomainError, "collar angle must lie in (0, pi/2)"),
        "CollarData(margin=0.5, halfwidth=0.7, angle=0.6)"),
    HexagonAlternatingSides: (
        dict(a1=1.0, a2=2.0, a3=3.0),
        ("a2", 0.0, DomainError, "hexagon side lengths must be finite and "
                                 "> 0, got (1.0, 0.0, 3.0)"),
        "HexagonAlternatingSides(a1=1.0, a2=2.0, a3=3.0)"),
    PantsBoundaryLengths: (
        dict(l1=0.0, l2=1.0, l3=2.0),
        ("l3", math.inf, DomainError, "boundary lengths must be finite and "
                                      ">= 0, got (0.0, 1.0, inf)"),
        "PantsBoundaryLengths(l1=0.0, l2=1.0, l3=2.0)"),
    IdealQuadrilateral: (
        dict(p1=-1.0, p2=0.0, p3=1.0, p4=math.inf),
        ("p2", 2.0, DomainError, "vertices are not in positive cyclic "
                                 "order: (-1.0, 2.0, 1.0, inf)"),
        "IdealQuadrilateral(p1=-1.0, p2=0.0, p3=1.0, p4=inf)"),
    BoundAssumptions: (
        dict(cap=2.0, bishop_c=1.0, d_fn=0.5),
        ("bishop_c", math.inf, DomainError, "pants-map constant must be "
                                            "finite and >= 0, got inf"),
        f"BoundAssumptions(cap=2.0, bishop_c=1.0, "
        f"l_of_cap={collar_cylinder_halflength(2.0)!r}, d_fn=0.5)"),
    BoundReport: (
        dict(quantity="q", lower=0.0, upper=1.0, assumptions={"cap": 1.0},
             provenance="p", notes=("n",), details=((1, 2.0),)),
        ("lower", 2.0, ValueError, "bound interval is empty: lower 2.0 > "
                                   "upper 1.0 for q"),
        "BoundReport(quantity='q', lower=0.0, upper=1.0, "
        "assumptions=mappingproxy({'cap': 1.0}), provenance='p', "
        "notes=('n',), details=((1, 2.0),))"),
    TwistScenario: (
        dict(curve_length=1.0, twist_time=-0.5),
        ("twist_time", math.nan, DomainError, "twist time must be finite, "
                                              "got nan"),
        f"TwistScenario(curve_length=1.0, twist_time=-0.5, "
        f"collar={collar_data(1.0)!r})"),
    SeamAngleInstance: (
        dict(c=0.5, theta=0.3),
        ("theta", 2.0, DomainError, "collar angle must lie in (0, pi/2), "
                                    "got 2.0"),
        None),
    MultiTwistFamily: (
        dict(lengths=(1.0, 2.0), times=(0.5, -0.5), cap_length=3.0,
             cap_time=1.0),
        ("times", (1.0,), UsageError, "2 lengths vs 1 times"),
        "MultiTwistFamily(lengths=(1.0, 2.0), times=(0.5, -0.5), "
        "cap_length=3.0, cap_time=1.0)"),
    FNCoordinate: (
        dict(length=2.0, twist=-0.5),
        ("length", 0.0, DomainError, "curve length must be > 0, got 0.0"),
        "FNCoordinate(length=2.0, twist=-0.5)"),
    StructureGenerator: (
        dict(kind="ex_fn2_y", n=2, length=1.0, twist=0.0),
        ("n", 0, UsageError, "generator ex_fn2_y needs an integer n >= 1, "
                             "got 0"),
        "StructureGenerator(kind='ex_fn2_y', n=2, length=1.0, twist=0.0, "
        "tail=FNCoordinate(length=1.0, twist=0.0), "
        "overrides=((2, FNCoordinate(length=0.25, twist=0.0)),))"),
    GridSpec: (
        dict(lo=0.5, hi=2.0, steps=3),
        ("hi", 0.25, UsageError, "grid needs hi > lo, got 0.5:0.25"),
        "GridSpec(lo=0.5, hi=2.0, steps=3)"),
}
TYPES = list(CASES)


def _good(cls):
    return cls(**CASES[cls][0])


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
class TestValueTypes:
    def test_keyword_and_positional_construction_agree(self, cls):
        kwargs = CASES[cls][0]
        obj = cls(**kwargs)
        assert obj == cls(*kwargs.values())
        assert {k: getattr(obj, k) for k in kwargs} == kwargs

    def test_bad_value_rejected_on_every_path(self, cls):
        kwargs, (field, bad, error, message), _ = CASES[cls]
        good = cls(**kwargs)
        values = list(good)
        values[cls._fields.index(field)] = bad
        match = re.escape(message)
        with pytest.raises(error, match=match):
            cls(**dict(kwargs, **{field: bad}))
        with pytest.raises(error, match=match):
            good._replace(**{field: bad})
        with pytest.raises(error, match=match):
            cls._make(values)

    def test_make_checks_arity(self, cls):
        good = tuple(_good(cls))
        for values in (good[:-1], good + (1.0,)):
            with pytest.raises(ValueError, match="zip"):
                cls._make(values)

    def test_make_and_replace_round_trip(self, cls):
        good = _good(cls)
        assert cls._make(good) == good
        assert type(cls._make(good)) is cls
        assert good._replace() == good
        with pytest.raises(ValueError, match="unexpected"):
            good._replace(nosuch=1.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, protocol):
        good = _good(cls)
        back = pickle.loads(pickle.dumps(good, protocol))
        assert back == good
        assert type(back) is cls
        # unpickling calls the validating constructor itself
        assert good.__reduce__()[0] is cls

    def test_immutable(self, cls):
        good = _good(cls)
        with pytest.raises(AttributeError):
            setattr(good, cls._fields[0], 1.0)
        with pytest.raises(AttributeError):
            good.extra = 1.0

    def test_equal_and_hashed_by_value(self, cls):
        a, b = _good(cls), _good(cls)
        assert a == b and a is not b
        assert a == tuple(a)
        if cls is not BoundReport:   # its mappingproxy is unhashable
            assert hash(a) == hash(b)

    def test_repr(self, cls):
        expected = CASES[cls][2]
        if expected is None:
            good = _good(cls)
            expected = (f"SeamAngleInstance(c=0.5, theta=0.3, "
                        f"lambda_={good.lambda_!r}, "
                        f"point_a={good.point_a!r})")
        assert repr(_good(cls)) == expected


class TestDerivedFields:
    def test_length_cap_derives_l_of_cap(self):
        a = BoundAssumptions(cap=2, bishop_c=1)
        assert a.l_of_cap == collar_cylinder_halflength(2)
        assert a.d_fn is None
        b = a.with_distance(0.25)
        assert (b.l_of_cap, b.d_fn) == (a.l_of_cap, 0.25)

    def test_positional_third_argument_is_the_distance(self):
        assert BoundAssumptions(2.0, 1.0, 0.5).d_fn == 0.5

    @pytest.mark.parametrize("obj,field,value", [
        (BoundAssumptions(cap=2.0, bishop_c=1.0), "l_of_cap", 0.25),
        (TwistScenario(1.0, 0.5), "collar", collar_data(2.0)),
        (SeamAngleInstance(0.5, 0.3), "lambda_", 2.0),
        (SeamAngleInstance(0.5, 0.3), "point_a", hp(1.0, 1.0)),
        (StructureGenerator("ex_fn1_x", 2), "tail", FNCoordinate(2.0, 0.0)),
        (StructureGenerator("constant"), "overrides",
         ((1, FNCoordinate(2.0, 0.0)),))])
    def test_derived_field_cannot_be_set(self, obj, field, value):
        with pytest.raises(ValueError, match="derived"):
            obj._replace(**{field: value})
        # _make recomputes a derived field from the others
        assert type(obj)._make(value if f == field else v
                               for f, v in zip(obj._fields, obj)) == obj

    def test_derived_fields_follow_their_inputs(self):
        s = TwistScenario(1.0, 0.5)._replace(curve_length=2.0)
        assert s.collar == collar_data(2.0)
        inst = SeamAngleInstance(0.5, 0.3)._replace(c=0.0)
        assert inst.lambda_ == 1.0
        assert inst.point_a == hp(math.sin(0.3), math.cos(0.3))
        gen = StructureGenerator("constant")._replace(length=2.0)
        assert (gen.tail, gen.overrides) == (FNCoordinate(2.0, 0.0), ())

    def test_pants_graph_boundary_derived_on_every_path(self):
        g = PantsGraph([[CUSP, "a", "b"], [CUSP, "a", "c"]])
        assert g.pants == ((CUSP, "a", "b"), (CUSP, "a", "c"))
        assert g.boundary_curves == frozenset({"b", "c"})
        assert PantsGraph._make(g) == g
        assert PantsGraph._make([g.pants, None]) == g
        assert g._replace(boundary_curves=["b"]).boundary_curves == {"b"}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(g, protocol))
            assert back == g and type(back) is PantsGraph


class TestCoercionAndMapping:
    def test_multitwist_coerces_to_float_tuples(self):
        fam = MultiTwistFamily([1, 2], [0, 1], 3.0, 1.0)
        assert fam.lengths == (1.0, 2.0) and fam.times == (0.0, 1.0)
        assert all(type(v) is float for v in fam.lengths + fam.times)
        assert fam._replace(times=[2, 3]).times == (2.0, 3.0)

    def test_bound_report_assumptions_stay_read_only(self):
        source = {"cap": 1.0}
        rep = BoundReport("q", None, 1.0, source, "p")
        source["cap"] = 2.0
        assert isinstance(rep.assumptions, MappingProxyType)
        assert rep.assumptions == {"cap": 1.0}
        assert (rep.notes, rep.details) == ((), ())
        back = pickle.loads(pickle.dumps(rep))
        assert isinstance(back.assumptions, MappingProxyType)
        with pytest.raises(TypeError):
            rep.assumptions["cap"] = 3.0
