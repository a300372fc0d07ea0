"""Acceptance gate: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

from fnteich.bounds import (CYLINDER_LENGTH_NOTE, BoundAssumptions,
                            combined_qc_upper)
from fnteich.conformal import (grotzsch_lower_bound, grotzsch_modulus,
                               grotzsch_modulus_derivative,
                               twist_min_dilatation)
from fnteich.families import make_fn_pair
from fnteich.fnspace import fn_distance, fn_distance_variant
from fnteich.suites import (GridSpec, run_collar, run_delta,
                            run_distance_oracle, run_example81,
                            run_hexagon, run_metric_axioms,
                            run_twist_lower, SUITES)

FOUR_COTH1_SQ = 6.896246643865242


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(number, name, timer):
    assert timer.elapsed < timer.budget, (
        f"criterion {number} exceeded its runtime budget: "
        f"{timer.elapsed:.2f}s >= {timer.budget}s")
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({timer.elapsed:.2f}s)")


def test_criterion_01_dilatation_floor_shape():
    with _Timer(1.0) as t:
        assert abs(twist_min_dilatation(0.0) - 1.0) <= 1e-9
        grid = [20.0 * k / 400.0 for k in range(401)]
        vals = [twist_min_dilatation(x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    _report(1, "dilatation floor: value 1 at 0, strictly increasing", t)


def test_criterion_02_grotzsch_modulus_validation():
    with _Timer(5.0) as t:
        for k in range(1, 100):
            r = k / 100.0
            assert grotzsch_modulus(r) > grotzsch_lower_bound(r)
        step = 1e-6
        for k in range(181):
            r = 0.05 + 0.9 * k / 180.0
            fd = (grotzsch_modulus(r + step)
                  - grotzsch_modulus(r - step)) / (2.0 * step)
            formula = grotzsch_modulus_derivative(r)
            assert abs(formula - fd) <= 1e-6 * abs(fd)
        assert abs(grotzsch_modulus(1.0 / math.sqrt(2.0))
                   - math.pi / 2.0) <= 1e-10
    _report(2, "Grotzsch modulus: bound, derivative, symmetric value", t)


def test_criterion_03_collar_suite():
    with _Timer(5.0) as t:
        res = run_collar(GridSpec(0.05, 10.0, 20))
        assert res.passed, res.failures[:3]
        assert res.total >= 20 ** 3 * 9
    _report(3, "collar inequalities on the 20^3 grid", t)


def test_criterion_04_hexagon_roundtrip():
    with _Timer(2.0) as t:
        res = run_hexagon(GridSpec(0.05, 10.0, 15))
        assert res.passed, res.failures[:3]
        assert res.total == 15 ** 3
    _report(4, "hexagon duality round trip on the 15^3 grid", t)


def test_criterion_05_twist_floor_consistency():
    with _Timer(10.0) as t:
        res = run_twist_lower(GridSpec(0.1, 5.0, 50))
        assert res.passed, res.failures[:3]
        assert res.total == 2500
    _report(5, "explicit twist dominates the floor on the 50x50 grid", t)


def test_criterion_06_delta_contract():
    with _Timer(5.0) as t:
        res = run_delta()
        assert res.passed, res.failures[:3]
        assert res.total == 4 * 101
    _report(6, "dilatation-floor inversion contract for four caps", t)


def test_criterion_07_family_exact_values():
    with _Timer(1.0) as t:
        x, y = make_fn_pair("fn1", 4, 8)
        assert abs(fn_distance(x, y).value - math.pi / 2.0) <= 1e-12
        assert abs(fn_distance_variant(x, y, "raw_twist").value
                   - 2.0 * math.pi) <= 1e-12
        x2, y2 = make_fn_pair("fn2", 10, 12)
        assert abs(fn_distance(x2, y2).value - math.log(10.0)) <= 1e-12
        assert abs(fn_distance_variant(x2, y2, "raw_length").value
                   - 0.09) <= 1e-12
    _report(7, "built-in family distances hit their closed forms", t)


def test_criterion_08_returning_arc_supremum():
    with _Timer(10.0) as t:
        res = run_example81()
        assert res.passed, res.failures[:3]
        assert any("violated at n = [1]" in n for n in res.notes)
        assert any("4*coth(1)^2" in n for n in res.notes)
    _report(8, "returning arc bounded on n <= 1e6, supremum 4coth^2(1)", t)


def test_criterion_09_sequence_space_isometry():
    with _Timer(5.0) as t:
        res = run_metric_axioms()
        assert res.passed, res.failures[:3]
        assert res.total == 4245
        assert res.failures == []
        assert res.min_slack == 0.0
    _report(9, "coordinate distance = sup-norm of the embedding, exactly", t)


def test_criterion_10_sandwich_consistency():
    with _Timer(5.0) as t:
        import numpy as np
        ds = np.linspace(0.0, 5.0, 10)
        ns = np.geomspace(0.5, 5.0, 10)
        cs = np.geomspace(0.5, 5.0, 10)
        for n in ns:
            for c in cs:
                assume = BoundAssumptions(cap=float(n), bishop_c=float(c))
                for d in ds:
                    rep = combined_qc_upper(float(d), assume)
                    assert (2.0 + 3.0 * c) * rep.upper >= d
                    assert CYLINDER_LENGTH_NOTE in rep.notes
    _report(10, "two-sided bound sandwich never empty on the 10^3 grid", t)


def test_criterion_11_distance_oracle():
    with _Timer(2.0) as t:
        res = run_distance_oracle()
        assert res.passed, res.failures[:3]
        assert res.total == 10 ** 4 + 10 ** 3
    _report(11, "cross-ratio and cosh distance agree to 1e-10", t)


def test_criterion_12_full_verify():
    with _Timer(60.0) as t:
        for name, fn in SUITES.items():
            res = fn()
            assert res.passed, (name, res.failures[:3])
    _report(12, "every verification suite passes end to end", t)
