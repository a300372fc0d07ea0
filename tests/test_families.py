import math

import numpy as np
import pytest

from fnteich.errors import DomainError, UsageError
from fnteich.families import (format_pants_graph, make_fn_pair,
                              pants1_arc_excess, pants1_arc_length,
                              pants1_graph)
from fnteich.fnspace import (fn_distance, fn_distance_variant,
                             is_upper_bounded, validate_pants_graph)

# frozen with a 40-digit arithmetic oracle before implementation
FOUR_COTH1_SQ = 6.896246643865242
THREE_COTH1_SQ = 5.172184982898932
ARC_LENGTH_AT_1 = 1.6202372673676901


class TestArcLength:
    def test_n1_is_four_coth_squared(self):
        res = pants1_arc_length(1)
        assert res.cosh_sq == pytest.approx(FOUR_COTH1_SQ, rel=1e-13)
        assert res.bound_4coth == pytest.approx(FOUR_COTH1_SQ, rel=1e-15)
        assert res.bound_3coth == pytest.approx(THREE_COTH1_SQ, rel=1e-15)
        assert res.length == pytest.approx(ARC_LENGTH_AT_1, rel=1e-13)
        # the three displayed terms each collapse to a power of coth 1
        assert res.cosh_sq > res.bound_3coth

    def test_n2_below_three_coth_squared(self):
        assert pants1_arc_length(2).cosh_sq < THREE_COTH1_SQ

    def test_decreasing_to_one(self):
        # strictly decreasing until the doubles saturate at 1
        vals = [pants1_arc_length(n).cosh_sq for n in range(1, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        tail = [pants1_arc_length(n).cosh_sq for n in range(21, 60)]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert pants1_arc_length(400).cosh_sq == pytest.approx(1.0,
                                                               abs=1e-12)
        assert pants1_arc_length(400).length < 1e-5

    def test_huge_n_stays_finite(self):
        res = pants1_arc_length(10 ** 6)
        assert res.cosh_sq == 1.0
        assert res.length == 0.0

    def test_one_arc_for_suite_library_and_graph(self):
        # the example81 suite adds 1 to the kernel column and squares it
        # in place; the scalar function and the re-cut lengths must be
        # the same values
        col = pants1_arc_excess(np.arange(1, 101, dtype=np.float64))
        col += 1.0
        col *= col
        arcs = [pants1_arc_length(n) for n in range(1, 101)]
        assert col.tolist() == [a.cosh_sq for a in arcs]
        recut = dict(pants1_graph(100).recut_lengths)
        assert [recut[f"cut{n}"] for n in range(1, 101)] == [
            a.length for a in arcs]

    def test_domain(self):
        for n in (0, -3):
            with pytest.raises(DomainError):
                pants1_arc_length(n)
        with pytest.raises(DomainError):
            pants1_arc_length(1.5)


class TestMakeFnPair:
    def test_fn1_distances(self):
        x, y = make_fn_pair("fn1", 4, 8)
        assert fn_distance(x, y).value == pytest.approx(math.pi / 2.0,
                                                        abs=1e-12)
        assert fn_distance_variant(x, y, "raw_twist").value == pytest.approx(
            2.0 * math.pi, abs=1e-12)

    def test_fn2_distances(self):
        x, y = make_fn_pair("fn2", 10, 12)
        assert fn_distance(x, y).value == pytest.approx(math.log(10.0),
                                                        abs=1e-12)
        assert fn_distance_variant(x, y,
                                   "raw_length").value == pytest.approx(
            0.09, abs=1e-12)

    def test_fn1_limit_behaviour(self):
        # the distance vanishes while the raw-twist variant stays constant
        for n in range(1, 101):
            x, y = make_fn_pair("fn1", n, n)
            assert fn_distance(x, y).value == pytest.approx(
                2.0 * math.pi / n, abs=1e-12)
            assert fn_distance_variant(
                x, y, "raw_twist").value == pytest.approx(2.0 * math.pi,
                                                          abs=1e-12)

    def test_fn2_exact_values(self):
        for n in (2, 5, 50):
            x, y = make_fn_pair("fn2", n, n)
            assert fn_distance(x, y).value == pytest.approx(math.log(n),
                                                            abs=1e-12)
            assert fn_distance_variant(
                x, y, "raw_length").value == pytest.approx(
                1.0 / n - 1.0 / n ** 2, abs=1e-15)

    def test_n1_differs_only_at_first_index(self):
        x, y = make_fn_pair("fn1", 1, 5)
        diffs = [i for i, (cx, cy) in enumerate(zip(x.coords, y.coords),
                                                start=1) if cx != cy]
        assert diffs == [1]

    def test_window_too_small(self):
        with pytest.raises(UsageError):
            make_fn_pair("fn1", 5, 4)

    def test_bad_kind(self):
        with pytest.raises(UsageError):
            make_fn_pair("fn3", 1, 1)


class TestChainedPants:
    def test_minimal_truncation(self):
        model = pants1_graph(1)
        assert len(model.graph.pants) == 2
        assert validate_pants_graph(model.graph).passed
        assert validate_pants_graph(model.recut_graph).passed

    def test_five_blocks_validate(self):
        model = pants1_graph(5)
        assert len(model.graph.pants) == 10
        assert validate_pants_graph(model.graph).passed
        assert validate_pants_graph(model.recut_graph).passed

    def test_original_lengths_unbounded(self):
        model = pants1_graph(8)
        window = model.original_window()
        for cap in (1.0, 3.0, 6.5):
            res = is_upper_bounded(window, cap)
            assert not res.bounded
        # witness schedule: block floor(cap)+1 always exceeds the cap
        assert model.first_unbounded_witness(3.0) == "glue4"
        assert model.first_unbounded_witness(100.0) == "glue101"

    def test_recut_lengths_bounded(self):
        model = pants1_graph(8)
        window = model.recut_window()
        cap = max(1.0, max(l for _, l in model.recut_lengths))
        assert is_upper_bounded(window, cap).bounded
        assert cap == pytest.approx(max(1.0, ARC_LENGTH_AT_1), rel=1e-12)

    def test_boundary_curves(self):
        model = pants1_graph(3)
        assert model.graph.boundary_curves == frozenset({"link0", "link3"})

    def test_graph_text_deterministic(self):
        model = pants1_graph(2)
        t1 = format_pants_graph(model.graph, "t")
        t2 = format_pants_graph(pants1_graph(2).graph, "t")
        assert t1 == t2
        assert t1.startswith("pantsgraph v1 t\n")

    def test_domain(self):
        with pytest.raises(DomainError):
            pants1_graph(0)
