import csv
import io
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fnteich.reports import CheckRecord, VerificationReport

SIDES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13, math.nan,
                     math.inf, -math.inf]))


def _report():
    buf = io.StringIO()
    return VerificationReport("t", csv_writer=csv.writer(buf)), buf


def _state(report, buf):
    """Everything a report exposes, with floats as repr so that NaN
    compares equal to NaN and 0.0 differs from -0.0."""
    return (report.total, repr(report.min_slack),
            [(r.name, r.inputs, repr(r.lhs), repr(r.rhs), repr(r.slack))
             for r in report.failures],
            buf.getvalue())


class ScalarModel:
    """An independent pure-Python model of a report's bookkeeping, one
    check at a time: every check is counted; min_slack is the minimum
    over finite slacks only, keeping the earlier value on a tie (so of
    0.0 and -0.0 the first seen); a check fails unless
    slack >= -tol; every check writes one CSV row."""

    def __init__(self, min_slack):
        self.total = 0
        self.min_slack = min_slack
        self.failures = []
        self.buf = io.StringIO()
        self.writer = csv.writer(self.buf)

    def check(self, name, inputs, lhs, rhs, tol):
        slack = lhs - rhs
        self.total += 1
        if math.isfinite(slack) and slack < self.min_slack:
            self.min_slack = slack
        passed = slack >= -tol
        if not passed:
            self.failures.append(
                CheckRecord(name, tuple(inputs), lhs, rhs, slack))
        self.writer.writerow((name, " ".join(repr(v) for v in inputs),
                              repr(lhs), repr(rhs), repr(slack)))
        return passed


@st.composite
def slabs(draw):
    n = draw(st.integers(0, 5))
    k = draw(st.integers(1, 4))
    names = [f"c{j}" for j in range(k)]
    inputs = [(i, draw(st.floats(allow_nan=False))) for i in range(n)]
    lhs = [[draw(SIDES) for _ in range(k)] for _ in range(n)]
    rhs = [[draw(SIDES) for _ in range(k)] for _ in range(n)]
    tol = draw(st.sampled_from([0.0, 1e-12, -0.0, 1.0]))
    return names, inputs, lhs, rhs, tol


class TestCheckMany:
    @given(slabs(), st.sampled_from([math.inf, 0.0, -0.0, 0.5]))
    def test_matches_loop_of_check(self, slab, start):
        names, inputs, lhs, rhs, tol = slab
        model = ScalarModel(start)
        array, array_buf = _report()
        array.min_slack = start
        held = [[model.check(name, inputs[i], lhs[i][j], rhs[i][j], tol)
                 for j, name in enumerate(names)]
                for i in range(len(inputs))]
        mask = array.check_many(names, inputs, lhs, rhs, tol)
        assert _state(array, array_buf) == _state(model, model.buf)
        assert mask.shape == (len(inputs), len(names))
        assert mask.tolist() == held

    @given(SIDES, SIDES, st.sampled_from([0.0, 1e-12, -0.0, 1.0]))
    def test_check_is_one_row_of_the_model(self, lhs, rhs, tol):
        model = ScalarModel(math.inf)
        report, buf = _report()
        held = report.check("c", (1, 2.5), lhs, rhs, tol)
        assert type(held) is bool
        assert held == model.check("c", (1, 2.5), lhs, rhs, tol)
        assert _state(report, buf) == _state(model, model.buf)

    def test_first_zero_sets_min_slack_sign(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            report, _ = _report()
            report.check_many(("a", "b"), [(1,)], [[first, second]], 0.0)
            assert repr(report.min_slack) == repr(first)
        report, _ = _report()
        report.check("a", (0,), 0.0, 0.0)
        report.check_many(("a",), [(1,)], -0.0, 0.0)
        assert repr(report.min_slack) == "0.0"

    def test_nan_fails_and_is_excluded_from_min_slack(self):
        report, _ = _report()
        report.check_many(("a", "b", "c"), [(1,), (2,)],
                          [[math.nan, math.inf, 2.0], [1.0, 0.0, 3.0]],
                          [[0.0, 0.0, 0.0], [0.0, math.inf, 0.5]])
        assert report.total == 6
        assert [(r.name, r.inputs) for r in report.failures] == [
            ("a", (1,)), ("b", (2,))]
        assert report.min_slack == 1.0

    def test_broadcasts_sides_and_per_column_tol(self):
        report, _ = _report()
        mask = report.check_many(("a", "b"), [(1,), (2,)], 0.0,
                                 np.array([[1e-13, 1e-13], [0.0, 2e-12]]),
                                 tol=(0.0, 1e-12))
        assert mask.tolist() == [[False, True], [True, False]]
        assert [(r.name, r.inputs) for r in report.failures] == [
            ("a", (1,)), ("b", (2,))]

    def test_empty_slab_changes_nothing(self):
        report, buf = _report()
        report.check_many(("a",), [], [], [])
        assert (report.total, report.min_slack, report.failures,
                buf.getvalue()) == (0, math.inf, [], "")
