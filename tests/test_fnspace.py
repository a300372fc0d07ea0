import math
import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnteich.errors import DomainError, FormatError, UsageError
from fnteich.fnspace import (CUSP, FNCoordinate, FNDistanceResult,
                             LinfImage, PantsGraph,
                             StructureGenerator, StructureWindow,
                             fn_distance, fn_distance_blocks,
                             fn_distance_variant,
                             format_structure_file, is_upper_bounded,
                             parse_generator_line, parse_structure_text,
                             supnorm_distance, to_linf,
                             validate_pants_graph, wolpert_check)

TWO_PI = 2.0 * math.pi


def window_from(pairs):
    return StructureWindow.from_table(
        FNCoordinate(l, t) for l, t in pairs)


class TestCoordinate:
    def test_boundary_flag(self):
        assert FNCoordinate(1.0, None).is_boundary
        assert not FNCoordinate(1.0, 0.0).is_boundary

    def test_validation(self):
        with pytest.raises(DomainError):
            FNCoordinate(0.0, 0.0)
        with pytest.raises(DomainError):
            FNCoordinate(1.0, math.inf)


class TestWindowColumns:
    def test_columns(self):
        w = window_from([(1.0, 0.5), (2.0, None), (3.0, -0.0)])
        assert w.lengths.dtype == np.float64
        assert w.twists.tolist() == [0.5, 0.0, -0.0]
        assert w.boundary.tolist() == [False, True, False]
        assert w.coords == (FNCoordinate(1.0, 0.5), FNCoordinate(2.0, None),
                            FNCoordinate(3.0, -0.0))

    def test_boundary_twists_zeroed(self):
        w = StructureWindow([1.0, 2.0], [0.5, math.nan], [False, True])
        assert w.twists.tolist() == [0.5, 0.0]

    @pytest.mark.parametrize("column", ["lengths", "twists", "boundary",
                                        "linf.log_length",
                                        "linf.length_times_twist"])
    def test_columns_read_only(self, column):
        w = window_from([(1.0, 0.5), (2.0, None)])
        with pytest.raises(ValueError):
            operator.attrgetter(column)(w)[0] = 1

    def test_compared_and_hashed_by_identity(self):
        w = window_from([(1.0, 0.5), (2.0, None)])
        twin = window_from([(1.0, 0.5), (2.0, None)])
        assert w == w and w != twin and not w == twin
        assert len({w, twin, w}) == 2

    def test_linf_derived_on_every_path(self):
        w = window_from([(1.0, 0.5), (2.0, None)])
        for field in ("linf", "packed"):
            with pytest.raises(ValueError, match="derived"):
                w._replace(**{field: None})
        moved = w._replace(lengths=[4.0, 8.0])
        assert moved.linf.log_length.tolist() == [math.log(4.0),
                                                  math.log(8.0)]
        assert moved.linf.length_times_twist.tolist() == [2.0, 0.0]
        back = pickle.loads(pickle.dumps(w))
        assert back.linf.log_length.tolist() == w.linf.log_length.tolist()
        assert back.packed.tobytes() == w.packed.tobytes()
        assert not back.linf.log_length.flags.writeable

    def test_constructor_copies(self):
        lengths = np.array([1.0, 2.0])
        w = StructureWindow(lengths, [0.0, 0.0], [False, False])
        lengths[0] = 5.0
        assert w.lengths.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_length_rejected(self, length):
        with pytest.raises(DomainError):
            StructureWindow([1.0, length], [0.0, 0.0], [False, True])

    @pytest.mark.parametrize("twist", [math.nan, math.inf, -math.inf])
    def test_nonfinite_twist_rejected(self, twist):
        with pytest.raises(DomainError):
            StructureWindow([1.0, 1.0], [0.0, twist], [False, False])

    def test_overflowing_product_rejected(self):
        # l * t is not a double, so row 1 of the image would be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=(
                    r"curve 2: length 1e\+300 times twist 10000000000.0 "
                    "overflows")):
                StructureWindow([1.0, 1e300, 1e300], [0.0, 1e10, 2e10],
                                [False] * 3)
            with pytest.raises(DomainError, match="curve 1: length 1e\\+300"):
                StructureWindow.from_generator(StructureGenerator(
                    kind="constant", length=1e300, twist=1e10), 3)

    def test_products_near_the_overflow_accepted(self):
        # the longest length times the largest twist overflows, but no
        # curve's own product does; a boundary curve's twist is 0
        w = StructureWindow([1e300, 1.0, 1e300], [0.0, 1e10, 1e10],
                            [False, False, True])
        assert w.packed[1].tolist() == [0.0, 1e10, 0.0]
        top = StructureWindow([1e300], [-1.7e8], [False])
        assert top.packed[1].tolist() == [1e300 * -1.7e8]

    @pytest.mark.parametrize("columns", [
        ([1.0, 1.0], [0.0], [False, False]),
        ([1.0], [0.0], [False, False]),
        ([[1.0]], [[0.0]], [[False]]),
        ([], [], [])])
    def test_bad_shapes_rejected(self, columns):
        with pytest.raises(UsageError):
            StructureWindow(*columns)

    @pytest.mark.parametrize("kind", ["fn", "raw_twist", "raw_length"])
    def test_attained_index_is_first_maximiser(self, kind):
        x = window_from([(1.0, 0.0), (2.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        y = window_from([(1.0, 0.0)] * 4)
        res = (fn_distance(x, y) if kind == "fn"
               else fn_distance_variant(x, y, kind))
        assert res.attained_index == 2

    def test_truncated_slices_every_column(self):
        w = window_from([(1.0, 0.5), (2.0, None), (3.0, 1.5)])
        t = w.truncated(2)
        assert t.lengths.tolist() == [1.0, 2.0]
        assert t.twists.tolist() == [0.5, 0.0]
        assert t.boundary.tolist() == [False, True]
        assert not t.lengths.flags.writeable

    def test_file_roundtrip_bit_for_bit(self):
        rng = np.random.default_rng(5)
        boundary = rng.random(200) < 0.15
        twists = rng.normal(0.0, 3.0, 200)
        twists[np.flatnonzero(~boundary)[0]] = -0.0
        w = StructureWindow(10.0 ** rng.uniform(-1.3, 1.0, 200), twists,
                            boundary)
        back = parse_structure_text(format_structure_file(w))
        for column in ("lengths", "twists", "boundary"):
            assert (getattr(back, column).tobytes()
                    == getattr(w, column).tobytes())


class TestGenerators:
    def test_fn1_pair_coordinates(self):
        gx = StructureGenerator(kind="ex_fn1_x", n=4)
        gy = StructureGenerator(kind="ex_fn1_y", n=4)
        assert gx.coordinate(4) == FNCoordinate(0.25, 0.0)
        assert gx.coordinate(3) == FNCoordinate(1.0, 0.0)
        assert gy.coordinate(4) == FNCoordinate(0.25, TWO_PI)
        assert gy.coordinate(5) == FNCoordinate(1.0, 0.0)

    def test_fn2_pair_coordinates(self):
        gy = StructureGenerator(kind="ex_fn2_y", n=10)
        assert gy.coordinate(10) == FNCoordinate(0.01, 0.0)
        assert gy.coordinate(9) == FNCoordinate(1.0, 0.0)

    def test_unknown_kind(self):
        for kind in ("mystery", "table"):
            with pytest.raises(UsageError):
                StructureGenerator(kind=kind, n=1)

    def test_bad_constant_rejected_at_construction(self):
        with pytest.raises(DomainError):
            StructureGenerator(kind="constant", length=-1.0)

    def test_bad_n(self):
        with pytest.raises(UsageError):
            StructureGenerator(kind="ex_fn1_x", n=0)

    def test_spec_line_roundtrip(self):
        gen = StructureGenerator(kind="ex_fn2_y", n=7)
        parsed = parse_generator_line(gen.spec_line())
        assert parsed.kind == "ex_fn2_y"
        assert parsed.n == 7

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_generator_line("generator v2 kind=ex_fn1_x n=2")
        with pytest.raises(FormatError):
            parse_generator_line("generator v1 kind=ex_fn1_x n=two")
        # a spec line cannot carry a constant's length and twist
        with pytest.raises(FormatError):
            parse_generator_line("generator v1 kind=constant n=-7")


GENERATOR_CASES = [
    ("ex_fn1_x", {}), ("ex_fn1_y", {}), ("ex_fn2_x", {}), ("ex_fn2_y", {}),
    ("constant", {"length": 0.7, "twist": 1.5}),
    ("constant", {"length": 2.5, "twist": None})]


def closed_form_columns(kind, n, window, length=1.0, twist=0.0):
    """The columns of a generator window, spelled out index by index."""
    rows = []
    for i in range(1, window + 1):
        if kind == "constant":
            rows.append((length, twist))
        elif i != n:
            rows.append((1.0, 0.0))
        elif kind == "ex_fn2_y":
            rows.append((1.0 / (n * n), 0.0))
        else:
            rows.append((1.0 / n, TWO_PI if kind == "ex_fn1_y" else 0.0))
    return (np.array([l for l, _ in rows], dtype=np.float64),
            np.array([0.0 if t is None else t for _, t in rows],
                     dtype=np.float64),
            np.array([t is None for _, t in rows], dtype=bool))


class TestGeneratorWindows:
    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    @pytest.mark.parametrize("kind,params", GENERATOR_CASES)
    def test_columns_match_closed_form(self, kind, params, n):
        gen = StructureGenerator(kind=kind, n=n, **params)
        for window in sorted({1, n - 1, n, n + 3} - {0}):
            w = StructureWindow.from_generator(gen, window)
            expected = closed_form_columns(kind, n, window, **params)
            for column, values in zip(("lengths", "twists", "boundary"),
                                      expected):
                assert getattr(w, column).tobytes() == values.tobytes(), (
                    column, window)
            assert w.generator is gen

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("kind,params", GENERATOR_CASES)
    def test_upper_bound_matches_scan(self, kind, params, n):
        gen = StructureGenerator(kind=kind, n=n, **params)
        scan = [gen.coordinate(i).length
                for i in range(1, gen.settle_index() + 2)]
        for cap in (0.5 / n ** 2, 1.0 / n ** 2, 1.0 / n, 0.5, 1.0, 2.0):
            over = [i for i, length in enumerate(scan, start=1)
                    if length > cap]
            res = is_upper_bounded(gen, cap)
            assert res.witness_index == (over[0] if over else None), cap
            assert res.bounded == (not over)
            assert res.length_sup == max(scan)


class TestFnDistance:
    def test_identity(self):
        x = window_from([(1.0, 0.5), (2.0, None), (0.3, -1.0)])
        res = fn_distance(x, x)
        assert res.value == 0.0
        assert res.exactness == "exact"

    def test_fn1_pair_value(self):
        gx = StructureGenerator(kind="ex_fn1_x", n=4)
        gy = StructureGenerator(kind="ex_fn1_y", n=4)
        x = StructureWindow.from_generator(gx, 8)
        y = StructureWindow.from_generator(gy, 8)
        res = fn_distance(x, y)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert res.exactness == "exact"
        assert res.attained_index == 4

    def test_fn2_pair_value(self):
        x = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn2_x", n=10), 10)
        y = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn2_y", n=10), 10)
        res = fn_distance(x, y)
        assert res.value == pytest.approx(math.log(10.0), abs=1e-12)
        assert res.attained_index == 10

    def test_window_truncated_flag(self):
        x = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn1_x", n=6), 4)
        y = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn1_y", n=6), 4)
        assert fn_distance(x, y).exactness == "window-truncated"

    def test_mixed_source_truncated(self):
        x = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn1_x", n=2), 4)
        y = StructureWindow.from_table([FNCoordinate(1.0, 0.0)] * 4)
        assert fn_distance(x, y).exactness == "window-truncated"

    def test_constant_pair_tail_ties_window_sup(self):
        # every index carries the tail term, so the window supremum ties
        # it; math.log(5.423) is one ulp above np.log(5.423) on some
        # platforms, so a tail term taken through math.log would read
        # "window-truncated" there
        x = StructureWindow.from_generator(
            StructureGenerator(kind="constant", length=5.423, twist=0.0), 3)
        y = StructureWindow.from_generator(
            StructureGenerator(kind="constant", length=1.0, twist=0.0), 3)
        assert fn_distance(x, y).exactness == "exact"
        for kind in ("raw_twist", "raw_length"):
            assert fn_distance_variant(x, y, kind).exactness == "exact"

    def test_mismatched_windows(self):
        x = window_from([(1.0, 0.0), (1.0, 0.0)])
        y = window_from([(1.0, 0.0)])
        with pytest.raises(UsageError):
            fn_distance(x, y)

    def test_mismatched_boundary_pattern(self):
        x = window_from([(1.0, 0.0)])
        y = window_from([(1.0, None)])
        with pytest.raises(UsageError):
            fn_distance(x, y)

    def test_boundary_curves_use_length_only(self):
        x = window_from([(1.0, None)])
        y = window_from([(2.0, None)])
        assert fn_distance(x, y).value == pytest.approx(math.log(2.0),
                                                        rel=1e-15)


def block(w, start, size):
    return StructureWindow(w.lengths[start:start + size],
                           w.twists[start:start + size],
                           w.boundary[start:start + size])


class TestFnDistanceBlocks:
    def test_each_block_equals_fn_distance(self):
        rng = np.random.default_rng(17)
        sizes = rng.permutation(np.arange(1, 201)).tolist()
        starts = np.cumsum([0] + sizes[:-1])
        n = sum(sizes)
        boundary = rng.random(n) < 0.15
        lengths = 10.0 ** rng.uniform(-1.3, 1.0, (2, n))
        twists = rng.normal(0.0, 3.0, (2, n))
        a = starts[sizes.index(50)]
        boundary[a:a + 50] = True
        # on the block of 7 the windows differ only at two curves, both
        # with lengths (3.5, 1.0) and no twist, so its supremum ties
        a = starts[sizes.index(7)]
        boundary[a:a + 7] = False
        lengths[:, a:a + 7] = 1.0
        lengths[0, [a + 1, a + 4]] = 3.5
        twists[:, a:a + 7] = 0.0
        x, y = (StructureWindow(lengths[k], twists[k], boundary)
                for k in range(2))
        values = fn_distance_blocks(x, y, starts)
        assert values.shape == (200,)
        for start, size, value in zip(starts.tolist(), sizes, values):
            assert value == fn_distance(block(x, start, size),
                                        block(y, start, size)).value
        assert fn_distance_blocks(x, y, [0]).tolist() == [
            fn_distance(x, y).value]

    @pytest.mark.parametrize("starts", [
        [], [0.0, 2.0], [False, True], [[0, 1]], "0", [1, 2], [0, 2, 2],
        [0, 3, 1], [0, 4], [0, 2, 5]])
    def test_bad_starts_rejected(self, starts):
        x = window_from([(1.0, 0.0), (2.0, None), (0.5, 1.0), (3.0, 0.0)])
        with pytest.raises(UsageError):
            fn_distance_blocks(x, x, starts)

    def test_generated_window_rejected(self):
        x = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn1_x", n=2), 4)
        y = window_from([(1.0, 0.0)] * 4)
        for pair in ((x, y), (y, x), (x, x)):
            with pytest.raises(UsageError, match="literal"):
                fn_distance_blocks(*pair, [0, 2])

    def test_misaligned_windows_rejected(self):
        x = window_from([(1.0, 0.0), (1.0, 0.0)])
        for y in (window_from([(1.0, 0.0)]),
                  window_from([(1.0, 0.0), (1.0, None)])):
            with pytest.raises(UsageError):
                fn_distance(x, y)
            with pytest.raises(UsageError):
                fn_distance_blocks(x, y, [0])


class TestVariants:
    def setup_method(self):
        self.x1, self.y1 = (
            StructureWindow.from_generator(
                StructureGenerator(kind="ex_fn1_x", n=4), 8),
            StructureWindow.from_generator(
                StructureGenerator(kind="ex_fn1_y", n=4), 8))

    def test_raw_twist_constant(self):
        for n in (1, 4, 25):
            x = StructureWindow.from_generator(
                StructureGenerator(kind="ex_fn1_x", n=n), max(n, 4))
            y = StructureWindow.from_generator(
                StructureGenerator(kind="ex_fn1_y", n=n), max(n, 4))
            res = fn_distance_variant(x, y, "raw_twist")
            assert res.value == pytest.approx(TWO_PI, abs=1e-12)

    def test_raw_length_fn2(self):
        x = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn2_x", n=10), 10)
        y = StructureWindow.from_generator(
            StructureGenerator(kind="ex_fn2_y", n=10), 10)
        res = fn_distance_variant(x, y, "raw_length")
        assert res.value == pytest.approx(0.09, abs=1e-12)

    def test_zero_on_identical(self):
        assert fn_distance_variant(self.x1, self.x1, "raw_twist").value == 0.0
        assert fn_distance_variant(self.x1, self.x1,
                                   "raw_length").value == 0.0

    def test_unknown_variant(self):
        with pytest.raises(UsageError):
            fn_distance_variant(self.x1, self.y1, "raw_area")

    def test_variant_exactness_uses_variant_tail(self):
        res = fn_distance_variant(self.x1, self.y1, "raw_twist")
        assert res.exactness == "exact"
        short_x = self.x1.truncated(3)
        short_y = self.y1.truncated(3)
        assert fn_distance_variant(short_x, short_y,
                                   "raw_twist").exactness == (
            "window-truncated")


class TestEmbedding:
    def test_unit_window_maps_to_zero(self):
        x = window_from([(1.0, 0.0)] * 5)
        e = to_linf(x)
        assert e.log_length.tolist() == [0.0] * 5
        assert e.length_times_twist.tolist() == [0.0] * 5
        assert e.boundary.tolist() == [False] * 5

    def test_fn1_y_coordinates(self):
        for n in (2, 7):
            y = StructureWindow.from_generator(
                StructureGenerator(kind="ex_fn1_y", n=n), n)
            e = to_linf(y)
            ll, lt = e.log_length[n - 1], e.length_times_twist[n - 1]
            assert ll == pytest.approx(math.log(1.0 / n), rel=1e-15)
            assert lt == pytest.approx(TWO_PI / n, rel=1e-15)

    def test_boundary_component(self):
        x = window_from([(2.0, None)])
        e = to_linf(x)
        assert e.log_length[0] == pytest.approx(math.log(2.0))
        assert e.boundary.tolist() == [True]
        assert e.length_times_twist.tolist() == [0.0]

    def test_columns_are_read_only(self):
        e = to_linf(window_from([(2.0, 1.0), (3.0, None)]))
        for column in e:
            with pytest.raises(ValueError):
                column[0] = 5.0

    def test_supnorm_rejects_mismatched_images(self):
        x = to_linf(window_from([(1.0, 0.0), (2.0, None)]))
        with pytest.raises(UsageError, match="length"):
            supnorm_distance(x, to_linf(window_from([(1.0, 0.0)])))
        with pytest.raises(UsageError, match="boundary"):
            supnorm_distance(
                x, to_linf(window_from([(1.0, 0.0), (2.0, 0.0)])))

    @given(st.lists(st.tuples(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=-20.0, max_value=20.0)), min_size=1,
        max_size=40))
    def test_isometry_exact(self, pairs):
        rng = np.random.default_rng(7)
        x = window_from(pairs)
        other = [(l * (1 + 0.3 * rng.random()), t - rng.random())
                 for l, t in pairs]
        y = window_from(other)
        assert fn_distance(x, y).value == supnorm_distance(to_linf(x),
                                                           to_linf(y))


# The coordinate metric as it was computed before the packed image, one
# numpy call per column and per step, on columns computed here from
# the window's lengths and twists: the references of TestPackedImage.
def reference_embedded(kind, w):
    return (w.lengths if kind == "raw_length" else np.log(w.lengths),
            w.twists if kind == "raw_twist" else w.lengths * w.twists)


def reference_sup_terms(ex, ey):
    (ux, vx), (uy, vy) = ex, ey
    return np.maximum(np.abs(ux - uy), np.abs(vx - vy))


def reference_terms(x, y, kind):
    return reference_sup_terms(reference_embedded(kind, x),
                               reference_embedded(kind, y))


def reference_exactness(x, y, window_sup, kind):
    if x.generator is None and y.generator is None:
        return "exact"
    gx, gy = x.generator, y.generator
    if (gx is None or gy is None
            or max(gx.settle_index(), gy.settle_index()) > x.window_size):
        return "window-truncated"
    u, v = reference_embedded(
        kind, StructureWindow.from_table([gx.tail, gy.tail]))
    tail = reference_sup_terms((u[:1], v[:1]), (u[1:], v[1:]))[0]
    return "exact" if tail <= window_sup else "window-truncated"


def reference_distance(x, y, kind):
    terms = reference_terms(x, y, kind)
    i = int(terms.argmax())
    best = float(terms[i])
    return FNDistanceResult(best, reference_exactness(x, y, best, kind),
                            i + 1)


def reference_supnorm(ex, ey):
    return float(reference_sup_terms(ex[:2], ey[:2]).max(initial=0.0))


KINDS = ("fn", "raw_twist", "raw_length")


def distance(x, y, kind):
    return fn_distance(x, y) if kind == "fn" else fn_distance_variant(
        x, y, kind)


def assert_same_result(got, want):
    """Equal value bits, exactness flag and attained index."""
    assert type(got.value) is float
    assert ((got.value.hex(), got.exactness, got.attained_index)
            == (want.value.hex(), want.exactness, want.attained_index))


def seeded_triple(size, seed):
    """Three windows on one boundary pattern, by the metric-axioms law."""
    rng = np.random.default_rng(seed)
    boundary = rng.random(size) < 0.15
    return [StructureWindow(10.0 ** rng.uniform(-1.3, 1.0, size),
                            rng.normal(0.0, 3.0, size), boundary)
            for _ in range(3)]


def tied_pair(kind, twist_first):
    """Windows whose curve 1 and curve 2 terms tie: the v (twist) term
    of one curve equals the u (length) term of the other, which comes
    first in index order when `twist_first` is false."""
    lengths = [1.0, 5.0] if twist_first else [5.0, 1.0]
    at = 1 if twist_first else 0          # the curve of the length term
    probe = StructureWindow(lengths, [0.0, 0.0], [False, False])
    y = StructureWindow([1.0, 1.0], [0.0, 0.0], [False, False])
    tie = float(reference_terms(probe, y, kind)[at])
    twists = [0.0, 0.0]
    twists[1 - at] = tie                  # on a curve of length 1.0
    return StructureWindow(lengths, twists, [False, False]), y, tie


class TestPackedImage:
    @pytest.mark.parametrize("size", [1, 2, 10, 200, 10_000])
    def test_image_rows_are_the_linf_columns(self, size):
        x, _, _ = seeded_triple(size, size)
        assert x.packed.shape == (2, size)
        assert x.packed.dtype == np.float64
        assert x.packed.flags.c_contiguous
        assert not x.packed.flags.writeable
        for row, column in zip(x.packed, x.linf[:2]):
            assert np.shares_memory(row, column)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        for got, want in zip(x.linf[:2], reference_embedded("fn", x)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 10, 200, 10_000])
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_windows_match_the_reference(self, size, kind):
        x, y, z = seeded_triple(size, 1000 + size)
        for a, b in ((x, y), (y, x), (x, z), (y, z), (x, x)):
            assert_same_result(distance(a, b, kind),
                               reference_distance(a, b, kind))

    @pytest.mark.parametrize("twist_first", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_ties_across_the_two_terms(self, kind, twist_first):
        x, y, tie = tied_pair(kind, twist_first)
        res = distance(x, y, kind)
        assert_same_result(res, reference_distance(x, y, kind))
        assert (res.value, res.attained_index) == (tie, 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_window_against_itself(self, kind):
        x, _, _ = seeded_triple(200, 3)
        res = distance(x, x, kind)
        assert_same_result(res, reference_distance(x, x, kind))
        assert (res.value, res.exactness, res.attained_index) == (
            0.0, "exact", 1)

    @pytest.mark.parametrize("pair,window", [
        # settled inside the window, then outside it
        (("ex_fn1_x", "ex_fn1_y", 4), 8), (("ex_fn1_x", "ex_fn1_y", 4), 3),
        (("ex_fn2_x", "ex_fn2_y", 10), 15), (("ex_fn2_x", "ex_fn2_y", 10), 9),
        (("ex_fn1_x", "ex_fn2_y", 1), 1), (("ex_fn1_y", "ex_fn2_x", 1000),
                                           1500)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_pairs_match_the_reference(self, kind, pair, window):
        fx, fy, n = pair
        x, y = (StructureWindow.from_generator(
            StructureGenerator(kind=f, n=n), window) for f in (fx, fy))
        assert_same_result(distance(x, y, kind),
                           reference_distance(x, y, kind))

    @pytest.mark.parametrize("length,twist", [
        (5.423, 0.0), (5.423, 1.3), (0.07, -2.9), (0.3, None)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_tail_that_ties_the_window_sup(self, kind, length, twist):
        # every index carries the tail term, so the window supremum ties
        # it, and the flag reads "exact" only if both take the same bits
        x, y = (StructureWindow.from_generator(StructureGenerator(
            kind="constant", length=l, twist=t), 3)
            for l, t in ((length, twist),
                         (1.0, None if twist is None else 0.0)))
        res = distance(x, y, kind)
        assert_same_result(res, reference_distance(x, y, kind))
        assert res.exactness == "exact"
        literal = StructureWindow(x.lengths, x.twists, x.boundary)
        assert distance(literal, y, kind).exactness == "window-truncated"

    @pytest.mark.parametrize("size", [1, 10, 200, 10_000])
    def test_blocks_match_the_reference(self, size):
        x, y, _ = seeded_triple(size, 7 * size)
        rng = np.random.default_rng(size)
        cuts = np.unique(rng.integers(1, size, min(size - 1, 40)))
        starts = np.concatenate([[0], cuts]).astype(np.int64)
        want = np.maximum.reduceat(reference_terms(x, y, "fn"), starts)
        assert fn_distance_blocks(x, y, starts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 10, 200, 10_000])
    def test_supnorm_matches_the_reference(self, size):
        x, y, _ = seeded_triple(size, 11 * size)
        ex, ey = to_linf(x), to_linf(y)
        assert supnorm_distance(ex, ey) == reference_supnorm(ex, ey)
        assert supnorm_distance(ex, ey) == fn_distance(x, y).value
        # images on reversed strided slices, and on the columns of an
        # (n, 2) array, whose stride is two doubles
        sx, sy = (LinfImage(*(c[::-2] for c in e)) for e in (ex, ey))
        assert not sx.log_length.flags.c_contiguous or size <= 2
        px, py = (np.stack(e[:2], axis=1) for e in (ex, ey))
        cx, cy = (LinfImage(p[:, 0], p[:, 1], e.boundary)
                  for p, e in ((px, ex), (py, ey)))
        for a, b in ((sx, sy), (cx, cy)):
            assert (supnorm_distance(a, b).hex()
                    == reference_supnorm(a, b).hex())


class TestUpperBounded:
    def test_fn1_generator_closed_form(self):
        gen = StructureGenerator(kind="ex_fn1_x", n=3)
        res = is_upper_bounded(gen, 1.0)
        assert res.bounded
        assert res.length_sup == 1.0
        assert res.implies_complete

    def test_fn1_generator_below_one(self):
        gen = StructureGenerator(kind="ex_fn1_x", n=3)
        res = is_upper_bounded(gen, 0.9)
        assert not res.bounded
        assert res.witness_index == 1

    def test_constant_generator(self):
        gen = StructureGenerator(kind="constant", length=1.0, twist=0.0)
        assert is_upper_bounded(gen, 1.0).bounded
        assert not is_upper_bounded(gen, 0.5).bounded

    def test_window_exhaustive(self):
        w = window_from([(1.0, 0.0), (3.0, 0.0), (5.0, 0.0)])
        res = is_upper_bounded(w, 2.0)
        assert not res.bounded
        assert res.witness_index == 2
        assert res.length_sup == 5.0
        assert is_upper_bounded(w, 5.0).bounded

    def test_domain(self):
        with pytest.raises(DomainError):
            is_upper_bounded(window_from([(1.0, 0.0)]), 0.0)


class TestWolpert:
    def test_conformal_case(self):
        assert wolpert_check(1.0, 1.0, 1.0).passed
        assert not wolpert_check(1.0, 1.0 + 1e-9, 1.0).passed

    def test_zero_slack_pass(self):
        res = wolpert_check(1.0, 2.0, 2.0)
        assert res.passed
        assert res.slack == pytest.approx(0.0, abs=1e-15)

    def test_fail_case(self):
        assert not wolpert_check(1.0, 3.0, 2.0).passed

    def test_domain(self):
        with pytest.raises(DomainError):
            wolpert_check(1.0, 2.0, 0.9)
        with pytest.raises(DomainError):
            wolpert_check(0.0, 2.0, 2.0)

    @given(lx=st.floats(min_value=0.1, max_value=10.0),
           ly=st.floats(min_value=0.1, max_value=10.0),
           k=st.floats(min_value=1.0, max_value=8.0))
    def test_log_form_equivalence(self, lx, ly, k):
        res = wolpert_check(lx, ly, k)
        # avoid asserting at the knife edge where fp rounding decides
        margin = abs(math.log(k) - abs(math.log(lx) - math.log(ly)))
        if margin > 1e-9:
            assert res.passed == (
                abs(math.log(lx) - math.log(ly)) <= math.log(k))


class TestPantsGraph:
    def test_genus_two_pattern(self):
        g = PantsGraph((("c1", "c2", "c3"), ("c1", "c2", "c3")))
        rep = validate_pants_graph(g)
        assert rep.passed
        assert g.boundary_curves == frozenset()

    def test_three_slot_curve_invalid(self):
        g = PantsGraph((("c1", "c1", "c1"), ("c2", "c2", CUSP)))
        rep = validate_pants_graph(g)
        assert not rep.passed
        assert any("c1" in rec.name for rec in rep.failures)

    def test_declared_boundary_mismatch(self):
        g = PantsGraph((("c1", "c2", CUSP), ("c1", "c2", CUSP)),
                       boundary_curves=frozenset({"c1"}))
        rep = validate_pants_graph(g)
        assert not rep.passed

    def test_pants_with_cusps_valid(self):
        g = PantsGraph(((CUSP, CUSP, "c1"), (CUSP, CUSP, "c1")))
        assert validate_pants_graph(g).passed


class TestFileFormats:
    def test_roundtrip(self):
        w = window_from([(1.0, 0.5), (0.25, TWO_PI), (2.0, None)])
        text = format_structure_file(w)
        back = parse_structure_text(text)
        assert back.coords == w.coords

    def test_header_required(self):
        with pytest.raises(FormatError):
            parse_structure_text("1 1.0 0.0\n")

    def test_bad_line_reports_number(self):
        text = "fnstruct v1\n1 1.0 0.0\n2 oops 0.0\n"
        with pytest.raises(FormatError) as exc:
            parse_structure_text(text, path="x.fnstruct")
        assert exc.value.line == 3
        assert "x.fnstruct" in str(exc.value)

    def test_indices_must_be_consecutive(self):
        with pytest.raises(FormatError):
            parse_structure_text("fnstruct v1\n1 1.0 0.0\n3 1.0 0.0\n")

    def test_nonpositive_length_rejected(self):
        with pytest.raises(FormatError):
            parse_structure_text("fnstruct v1\n1 0.0 0.0\n")

    def test_boundary_marker(self):
        w = parse_structure_text("fnstruct v1\n1 2.0 -\n")
        assert w.coords[0].is_boundary

    def test_full_precision_roundtrip(self):
        w = window_from([(math.pi / 7.0, 1.0 / 3.0)])
        back = parse_structure_text(format_structure_file(w))
        assert back.coords[0].length == w.coords[0].length
        assert back.coords[0].twist == w.coords[0].twist
