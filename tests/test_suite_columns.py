"""The column suites against per-point references.

sandwich and twist-lower evaluate the float cores of the bound chain and
of the affine dilatation on numpy columns, example81 walks n in blocks,
and metric-axioms draws each trial's stream in bare random() and
standard_normal() calls and takes its sup-norm side as row maxima.  Each
reference below is the per-point loop through the public API (for
example81, one pass over the whole array; for metric-axioms, the
per-trial uniform() and normal() draws and one supnorm_distance per
trial) that the suite replaced; the two must write the same CSV,
failures, min_slack and notes, and raise the same error on the same row.
"""

import csv
import io
import itertools
import math

import numpy as np
import pytest

from fnteich import bounds as qb
from fnteich import conformal as cf
from fnteich import fnspace as fns
from fnteich import twist as tw
from fnteich.errors import DomainError
from fnteich.families import COTH1_SQ, pants1_arc_excess
from fnteich.reports import VerificationReport
from fnteich.suites import (EXAMPLE81_BLOCK, METRIC_SEED, METRIC_SLAB,
                            GridSpec, run_example81, run_metric_axioms,
                            run_sandwich, run_twist_lower)


def reference_twist_lower(grid, csv_writer):
    grid = grid or GridSpec(0.1, 5.0, 50)
    lengths = grid.log_points()
    times = GridSpec(0.0, 10.0, 50).lin_points(open_lo=True)
    report = VerificationReport(
        "twist-lower",
        f"l {grid.describe()} (log) x t 0:10:50 (lin, open at 0)",
        csv_writer)
    floors = [cf.twist_min_dilatation(t) for t in times]
    ks = [[tw.twist_dilatation(tw.TwistScenario(l, t)).k]
          for l in lengths for t in times]
    report.check_many((tw.TWIST_LOWER_CHECK,),
                      list(itertools.product(lengths, times)), ks,
                      [[floor] for _ in lengths for floor in floors],
                      tol=tw.TWIST_LOWER_TOL)
    return report


def reference_sandwich(grid, csv_writer):
    grid = grid or GridSpec(0.5, 5.0, 10)
    ds = GridSpec(0.0, 5.0, 10).lin_points()
    ns = grid.log_points()
    cs = grid.log_points()
    report = VerificationReport(
        "sandwich", f"d 0:5:10 (lin) x N {grid.describe()} (log) x C "
        f"{grid.describe()} (log)", csv_writer)
    names = ("d<=reverse_of_forward", "twist_route<=combined",
             "combined_monotone_in_d")
    note_seen = False
    for n in ns:
        for c in cs:
            assume = qb.BoundAssumptions(cap=n, bishop_c=c)
            combined = [qb.combined_qc_upper(d, assume) for d in ds]
            note_seen = note_seen or any(
                qb.CYLINDER_LENGTH_NOTE in b.notes for b in combined)
            upper = np.array([b.upper for b in combined])
            lhs = np.column_stack((
                [qb.fn_from_qc_upper(u, assume).upper for u in upper.tolist()],
                upper, upper))
            rhs = np.column_stack((
                ds, [qb.twist_change_bound(d, assume).upper for d in ds],
                np.r_[np.nan, upper[:-1]]))
            inputs = [(d, n, c) for d in ds]
            report.check_many(names[:2], inputs[:1], lhs[:1, :2],
                              rhs[:1, :2], tol=1e-12)
            report.check_many(names, inputs[1:], lhs[1:], rhs[1:],
                              tol=1e-12)
    for d in (1.0, 3.0):
        vals = np.array([[qb.combined_qc_upper(
            d, qb.BoundAssumptions(cap=n, bishop_c=c)).upper for c in cs]
            for n in ns])
        report.check_many(("combined_monotone_in_C",),
                          [(d, n, c) for n in ns for c in cs[1:]],
                          vals[:, 1:].reshape(-1, 1),
                          vals[:, :-1].reshape(-1, 1), tol=1e-12)
        lips = np.array([qb.bilipschitz_sandwich(
            d, qb.BoundAssumptions(cap=n, bishop_c=1.0)).forward_lipschitz
            for n in ns])
        report.check_many(("constants_degrade_with_cap",),
                          [(d, n, 1.0) for n in ns[1:]], lips[1:, None],
                          lips[:-1, None], tol=1e-12)
    report.check("cylinder_note_present", (), 1.0 if note_seen else -1.0, 0.0)
    report.note(qb.CYLINDER_LENGTH_NOTE)
    return report


def reference_example81(grid, csv_writer):
    n_max = int(grid.hi) if grid is not None else 10 ** 6
    report = VerificationReport(
        "example81", f"n 1:{n_max} (all integers)", csv_writer)
    cosh_sq = pants1_arc_excess(np.arange(1, n_max + 1, dtype=np.float64))
    cosh_sq += 1.0
    cosh_sq *= cosh_sq
    report.check("sup_attained_at_n1", (1,), 1e-9,
                 abs(float(cosh_sq[0]) - 4.0 * COTH1_SQ))
    report.check("bounded_by_4coth2", (n_max,), 4.0 * COTH1_SQ + 1e-9,
                 float(np.max(cosh_sq)))
    report.check("nonincreasing", (n_max,), float(-np.max(np.diff(cosh_sq))),
                 0.0, tol=1e-15)
    over3 = np.nonzero(cosh_sq > 3.0 * COTH1_SQ)[0]
    report.note(f"cap 3*coth(1)^2 = {3.0 * COTH1_SQ!r} violated at n = "
                f"{[int(i) + 1 for i in over3]}; observed supremum "
                f"{float(cosh_sq[0])!r} = 4*coth(1)^2 at n = 1")
    report.check("limit_to_one", (n_max,), 1e-6,
                 abs(float(cosh_sq[-1]) - 1.0))
    return report


def reference_metric_axioms(grid, csv_writer):
    trials = grid.steps if grid is not None else 1000
    rng = np.random.default_rng(METRIC_SEED)
    report = VerificationReport(
        "metric-axioms",
        f"{trials} random windows of size <= 200, seed {METRIC_SEED}",
        csv_writer)
    names = ("embedding_isometry_exact", "symmetry_exact", "identity_zero",
             "triangle")
    for first in range(0, trials, METRIC_SLAB):
        count = min(METRIC_SLAB, trials - first)
        sizes, patterns = [], []
        draws = [([], []) for _ in "xyz"]   # (log10 lengths, twists)
        for _ in range(count):
            size = int(rng.integers(1, 201))
            sizes.append(size)
            patterns.append(rng.random(size) < 0.15)
            for log_lengths, twists in draws:
                log_lengths.append(rng.uniform(math.log10(0.05), 1.0, size))
                twists.append(rng.normal(0.0, 3.0, size))
        pattern = np.concatenate(patterns)
        x, y, z = (fns.StructureWindow(10.0 ** np.concatenate(u),
                                       np.concatenate(v), pattern)
                   for u, v in draws)
        starts = np.cumsum([0] + sizes[:-1])
        dxy = fns.fn_distance_blocks(x, y, starts)
        dyx = fns.fn_distance_blocks(y, x, starts)
        dxz = fns.fn_distance_blocks(x, z, starts)
        dyz = fns.fn_distance_blocks(y, z, starts)
        dxx = fns.fn_distance_blocks(x, x, starts)
        ex, ey = fns.to_linf(x), fns.to_linf(y)
        sup = np.array([fns.supnorm_distance(
            fns.LinfImage(*(c[a:a + n] for c in ex)),
            fns.LinfImage(*(c[a:a + n] for c in ey)))
            for a, n in zip(starts.tolist(), sizes)])
        zero = np.zeros(count)
        report.check_many(
            names, [(trial,) for trial in range(first, first + count)],
            np.column_stack((zero, zero, zero, dxy + dyz)),
            np.column_stack((abs(dxy - sup), abs(dxy - dyx), dxx, dxz)),
            tol=(0.0, 0.0, 0.0, 1e-12))
    axis = GridSpec(0.1, 10.0, 7).log_points()
    inputs = list(itertools.product(axis, axis, (1.0, 1.22, 1.5, 2.0, 4.0)))
    agree = [[1.0 if fns.wolpert_check(lx, ly, k).passed
              == (abs(math.log(lx) - math.log(ly)) <= math.log(k))
              else -1.0] for lx, ly, k in inputs]
    report.check_many(("wolpert_equivalence",), inputs, agree, 0.0)
    return report


def outcome(suite, grid):
    """Everything a run leaves behind: the CSV written, and either the
    report's fields or the error raised."""
    buf = io.StringIO()
    try:
        report = suite(grid, csv.writer(buf))
    except DomainError as exc:
        return buf.getvalue(), repr(exc)
    return buf.getvalue(), (report.grid_desc, report.total,
                            report.failures, repr(report.min_slack),
                            report.notes)


def assert_same_outcome(suite, reference, grid):
    got = outcome(suite, grid)
    assert got == outcome(reference, grid)
    return got


@pytest.mark.parametrize("grid,error", [
    (None, None),
    (GridSpec(1e-300, 300.0, 5), None),
    # L(N)^2 is 0 in doubles
    (GridSpec(400.0, 500.0, 3), "length cap 400.0 is out of range"),
    # 3 C overflows at C = 1e308, so the combined bound at d = 0 is NaN;
    # the rows of the smaller C come first
    (GridSpec(1e-10, 1e308, 4), "log K must be >= 0, got nan"),
    # the bounds overflow at N = 1e-10 and C = 5e307, then the collar
    # margin of N = 7.9e95 is 0
    (GridSpec(1e-10, 5e307, 4), "length cap 7.93700525984117e+95 is out"),
    (GridSpec(0.5, 1000.0, 3), "length cap 1000.0 is out of range"),
])
def test_sandwich_matches_loop(grid, error):
    written, result = assert_same_outcome(run_sandwich, reference_sandwich,
                                          grid)
    if error is None:
        assert not isinstance(result, str)
    else:
        assert error in result
    if grid is not None and grid.hi > 1e300:
        assert "inf" in written


@pytest.mark.parametrize("grid,error", [
    (None, None),
    # K near 1e305 at l = 700
    (GridSpec(1e-15, 700.0, 5), None),
    # the collar angle is pi/2 in doubles
    (GridSpec(1e-300, 1.0, 3), "collar angle"),
    # K overflows at l = 720
    (GridSpec(1.0, 720.0, 3), "shear coefficient 1.1091326487692778e+155"),
    # the collar margin of l = 800 is 0
    (GridSpec(1.0, 800.0, 3), "collar margin"),
    # both: the K overflow at l = 720 comes first in row order
    (GridSpec(720.0, 800.0, 2), "shear coefficient 1.1091326487692778e+155"),
])
def test_twist_lower_matches_loop(grid, error):
    _, result = assert_same_outcome(run_twist_lower, reference_twist_lower,
                                    grid)
    if error is None:
        assert not isinstance(result, str)
    else:
        assert error in result


@pytest.mark.parametrize("n_max", [
    2, EXAMPLE81_BLOCK - 1, EXAMPLE81_BLOCK, EXAMPLE81_BLOCK + 1,
    3 * EXAMPLE81_BLOCK + 7, 10 ** 6])
def test_example81_blocks_match_one_pass(n_max):
    grid = None if n_max == 10 ** 6 else GridSpec(1.0, float(n_max), 2)
    assert_same_outcome(run_example81, reference_example81, grid)


def test_example81_rise_across_a_seam(monkeypatch):
    # a kernel whose values rise by 2 at the first n of the second block
    # only: the suite must see that rise, which no block holds alone
    def rising(n):
        out = np.zeros_like(n)
        out[n == EXAMPLE81_BLOCK + 1] = 2.0
        return out
    monkeypatch.setattr("fnteich.suites.pants1_arc_excess", rising)
    report = run_example81(GridSpec(1.0, 2.0 * EXAMPLE81_BLOCK, 2))
    [fail] = [r for r in report.failures if r.name == "nonincreasing"]
    assert fail.lhs == -8.0


@pytest.mark.parametrize("trials", [2, 99, 100, 101, 250, 1000])
def test_metric_axioms_matches_per_trial_draws(trials):
    # the partial last slab, one slab exactly, and the default grid
    grid = None if trials == 1000 else GridSpec(1.0, 2.0, trials)
    _, result = assert_same_outcome(run_metric_axioms,
                                    reference_metric_axioms, grid)
    assert result[2] == []
