"""Named verification suites behind the `verify` command.

Each suite sweeps a grid (or a seeded random sample), evaluates both
sides of every inequality it owns, and streams every check and its
explanatory notes into a VerificationReport, which it returns.  Checks
go in as columns: one check_many per run of rows that share their check
names, in the row order of the sweep, so that the CSV rows come out in
the order of a nested loop over the grid; only one-off checks use
check.  Grids and seeds are fixed and printed, so the rendered report
is the same on every run apart from its wall-time line.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple

import numpy as np

from . import bounds as qb
from . import conformal as cf
from . import fnspace as fns
from . import hyperbolic as hyp
from . import twist as tw
from .errors import DomainError, UsageError
from .families import COTH1_SQ, pants1_arc_excess
from .reports import Validated, VerificationReport

DISTANCE_SEED = 74520231
METRIC_SEED = 911003
ORACLE_SLAB = 1000      # point pairs per check_many call
METRIC_SLAB = 100       # window triples per check_many call
EXAMPLE81_BLOCK = 1 << 14   # n per block of the example81 arc values


class GridSpec(Validated, namedtuple("GridSpec", "lo hi steps")):
    __slots__ = ()

    def __new__(cls, lo, hi, steps):
        if not (lo > 0.0 or lo == 0.0):
            raise UsageError(f"grid lo must be >= 0, got {lo}")
        if not hi > lo:
            raise UsageError(f"grid needs hi > lo, got {lo}:{hi}")
        if hi == math.inf:
            raise UsageError(f"grid hi must be finite, got {hi}")
        if steps < 2:
            raise UsageError(f"grid needs >= 2 steps, got {steps}")
        return tuple.__new__(cls, (lo, hi, steps))

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid spec must be lo:hi:steps, got {text!r}")
        try:
            return cls(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r}: {exc}") from None

    def log_points(self) -> list[float]:
        """Log-spaced points, both ends exact; libm's pow, not a numpy
        ufunc, so the bits do not depend on the SIMD dispatch."""
        if not self.lo > 0.0:
            raise UsageError("log grid needs lo > 0")
        a, b = math.log10(self.lo), math.log10(self.hi)
        n = self.steps - 1
        step = (b - a) / n
        return ([float(self.lo)]
                + [10.0 ** (k * step + a) for k in range(1, n)]
                + [float(self.hi)])

    def lin_points(self, open_lo: bool = False) -> list[float]:
        if open_lo:
            return [self.lo + (self.hi - self.lo) * k / self.steps
                    for k in range(1, self.steps + 1)]
        return [float(v) for v in np.linspace(self.lo, self.hi, self.steps)]

    def describe(self) -> str:
        return f"{self.lo:g}:{self.hi:g}:{self.steps}"


# ---------------------------------------------------------------------


def run_collar(grid: GridSpec | None = None,
               csv_writer=None) -> VerificationReport:
    """All nine collar-disjointness inequalities on a log grid of
    boundary-length triples, plus the 1D chain step
    (1/2) arcosh(coth(l/2)) >= B(l) reported separately."""
    grid = grid or GridSpec(0.05, 10.0, 20)
    axis = grid.log_points()
    report = VerificationReport(
        "collar", f"l per axis {grid.describe()} (log), 3 axes", csv_writer)
    hyp.verify_pants_collar(hyp.PantsLengthGrid(axis, axis, axis), report)
    chain = np.array([hyp.halfseam_intermediate_bound(l) for l in axis])
    held = report.check_many(("chainstep_halfseam>=B",),
                             [(l,) for l in axis],
                             chain[:, :1], chain[:, 1:], tol=1e-12)
    report.note(f"intermediate chain step violations: "
                f"{np.count_nonzero(~held)}")
    return report


def run_hexagon(grid: GridSpec | None = None,
                csv_writer=None) -> VerificationReport:
    """Alternating-sides round trip a -> b -> a within 1e-9 relative."""
    grid = grid or GridSpec(0.05, 10.0, 15)
    axis = grid.log_points()
    report = VerificationReport(
        "hexagon", f"a per axis {grid.describe()} (log), 3 axes", csv_writer)
    inputs = list(itertools.product(axis, repeat=3))
    a = np.array(inputs)
    b = hyp.on_columns(hyp.hexagon_sides, np.ix_(axis, axis, axis), a)
    for row in b[~((b > 0.0) & (b < math.inf)).all(axis=1)][:1]:
        hyp.HexagonAlternatingSides(*row.tolist())     # raises DomainError
    back = hyp.on_columns(hyp.hexagon_sides, b.T, b)
    report.check_many(("roundtrip_rel_err<=1e-9",), inputs, 1e-9,
                      (abs(back - a) / a).max(axis=1)[:, None])
    return report


def run_mu(grid: GridSpec | None = None,
           csv_writer=None) -> VerificationReport:
    """Grotzsch modulus: the classical lower bound, the derivative
    formula against central differences, the symmetric value pi/2, the
    complementary-product identity, and monotonicity of the dilatation
    floor built from it."""
    report = VerificationReport(
        "mu", "r 0.01:0.99:99 (lin); fd 0.05:0.95:181; t 0:20:401",
        csv_writer)
    rs = [k / 100.0 for k in range(1, 100)]
    mus = [cf.grotzsch_modulus(r) for r in rs]
    lbs = [cf.grotzsch_lower_bound(r) for r in rs]
    report.check_many(
        ("mu>lower_bound", "mu_product_identity"), [(r,) for r in rs],
        [(mu, 1e-9) for mu in mus],
        [(lb, abs(mu * cf.grotzsch_modulus(math.sqrt(1.0 - r * r))
                  - math.pi ** 2 / 4.0))
         for r, mu, lb in zip(rs, mus, lbs)])
    report.note(f"minimum lower-bound slack observed: "
                f"{min(mu - lb for mu, lb in zip(mus, lbs))!r}")
    step = 1e-6
    rs = [0.05 + 0.9 * k / 180.0 for k in range(181)]
    rel = []
    for r in rs:
        fd = (cf.grotzsch_modulus(r + step)
              - cf.grotzsch_modulus(r - step)) / (2.0 * step)
        rel.append([abs(cf.grotzsch_modulus_derivative(r) - fd) / abs(fd)])
    report.check_many(("mu_derivative_vs_fd",), [(r,) for r in rs], 1e-6,
                      rel)
    report.check("mu_at_symmetric_point", (0.5 ** 0.5,), 1e-10,
                 abs(cf.grotzsch_modulus(1.0 / math.sqrt(2.0))
                     - math.pi / 2.0))
    report.check("floor_at_zero", (0.0,), 1e-9,
                 abs(cf.twist_min_dilatation(0.0) - 1.0))
    ts = [20.0 * k / 400.0 for k in range(401)]
    floors = np.array([cf.twist_min_dilatation(t) for t in ts])
    report.check_many(("floor_strictly_increasing",),
                      [(t,) for t in ts[1:]],
                      floors[1:, None], floors[:-1, None], tol=-1e-15)
    return report


def run_twist_lower(grid: GridSpec | None = None,
                    csv_writer=None) -> VerificationReport:
    """Explicit-map dilatation dominates the dilatation floor on a
    (length, time) grid."""
    grid = grid or GridSpec(0.1, 5.0, 50)
    lengths = grid.log_points()
    times = GridSpec(0.0, 10.0, 50).lin_points(open_lo=True)
    report = VerificationReport(
        "twist-lower",
        f"l {grid.describe()} (log) x t 0:10:50 (lin, open at 0)",
        csv_writer)
    floors = [cf.twist_min_dilatation(t) for t in times]
    angles = []
    for l in lengths:
        try:
            angles.append(hyp.collar_data(l).angle)
        except DomainError:
            angles.append(math.nan)     # raised below, in row order
    inputs = list(itertools.product(lengths, times))
    with np.errstate(all="ignore"):
        ks, _ = cf._affine_k_mu(tw.shear_coefficient(
            np.array(times), np.array(angles)[:, None]), np)
    for l, t in [inputs[i] for i in np.flatnonzero(~np.isfinite(ks))[:1]]:
        cf.affine_dilatation(tw.shear_coefficient(
            t, hyp.collar_data(l).angle))      # raises DomainError
    report.check_many((tw.TWIST_LOWER_CHECK,), inputs, ks.reshape(-1, 1),
                      np.tile(floors, len(lengths))[:, None],
                      tol=tw.TWIST_LOWER_TOL)
    return report


def run_delta(grid: GridSpec | None = None,
              csv_writer=None) -> VerificationReport:
    """Inversion of the dilatation floor: for each cap L the returned
    (T, delta) satisfy floor(T) = L to 1e-12 and t <= delta log floor(t)
    at 100 points of (0, T]."""
    caps = (1.5, 2.0, 5.0, 10.0)
    report = VerificationReport(
        "delta", f"caps {caps}; 100 points per cap", csv_writer)
    for cap in caps:
        res = tw.twist_delta(cap)
        report.check_many(("floor_at_threshold",), [(cap,)], 1e-12,
                          abs(res.floor_at_threshold - cap))
        ts = [res.threshold_time * k / 100.0 for k in range(1, 101)]
        report.check_many(
            ("t<=delta*log_floor",), [(cap, t) for t in ts],
            [[res.delta * math.log(cf.twist_min_dilatation(t))] for t in ts],
            [(t,) for t in ts], tol=1e-12)
    return report


def run_angle(grid: GridSpec | None = None,
              csv_writer=None) -> VerificationReport:
    """Seam-angle machinery: the angle bound is positive and decreasing
    in the length cap; the crossing-point lies on its circle; the
    two-ratio quantity is identified against the direct-distance oracle;
    the end inequality is surveyed and reported, not asserted."""
    grid = grid or GridSpec(0.1, 20.0, 40)
    caps = grid.log_points()
    report = VerificationReport(
        "angle", f"cap {grid.describe()} (log); kit c x theta survey",
        csv_writer)
    phis = np.array([tw.seam_angle_bound(cap) for cap in caps])
    report.check("angle_bound_positive", (caps[0],), phis[0], 0.0, tol=-0.0)
    report.check_many(("angle_bound_positive", "angle_bound_decreasing"),
                      [(cap,) for cap in caps[1:]],
                      np.column_stack((phis[1:], phis[:-1])),
                      np.column_stack((np.zeros(len(caps) - 1), phis[1:])),
                      tol=(-0.0, 0.0))
    report.check("angle_bound_small_cap_limit", (1e-12,),
                 tw.seam_angle_bound(1e-12), 1.5)

    end_violations = []
    interp = set()
    points = [(c, 0.18 * k)
              for c in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)
              for k in range(1, 9)]
    residuals = []
    for c, theta in points:
        rep = tw.seam_angle_kit(tw.SeamAngleInstance(c, theta))
        residuals.append([abs(rep.circle_residual_scaled)])
        interp.add(rep.interpretation)
        if not rep.end_inequality_holds:
            end_violations.append((c, theta))
    report.check_many(("point_on_circle",), points, 1e-12, residuals)
    report.note(f"two-ratio quantity matches: {sorted(interp)} "
                "(the exponentiated cross ratio, not a squared distance)")
    report.note(f"end-inequality violations (reported, not asserted): "
                f"{end_violations if end_violations else 'none'}")
    chained, printed = tw.seam_angle_cot_bounds(1.0)
    report.note(f"cot bounds at cap 1: chained {chained!r}, printed variant "
                f"{printed!r}; the printed variant is not monotone in the "
                "cap and is not used")
    return report


def run_sandwich(grid: GridSpec | None = None,
                 csv_writer=None) -> VerificationReport:
    """Two-sided consistency of the bound chain on a (d, N, C) grid:
    feeding the forward bound through the reverse constant recovers at
    least d; single-route bounds never exceed the combined one; bounds
    are monotone in d and C; constants degrade as the cap grows."""
    grid = grid or GridSpec(0.5, 5.0, 10)
    ds = GridSpec(0.0, 5.0, 10).lin_points()
    ns = grid.log_points()
    cs = grid.log_points()
    report = VerificationReport(
        "sandwich", f"d 0:5:10 (lin) x N {grid.describe()} (log) x C "
        f"{grid.describe()} (log)", csv_writer)
    names = ("d<=reverse_of_forward", "twist_route<=combined",
             "combined_monotone_in_d")
    pairs = list(itertools.product(ns, cs))
    big_l = []
    for n, c in pairs:
        try:
            big_l.append(qb.BoundAssumptions(cap=n, bishop_c=c).l_of_cap)
        except DomainError:
            big_l.append(math.nan)      # raised below, in row order
    # one row per (N, C) pair, one column per d
    big_l = np.array(big_l)[:, None]
    bishop = np.array(pairs)[:, 1:]
    dcol = np.array(ds)
    with np.errstate(all="ignore"):
        upper = qb._combined_upper(dcol, bishop, big_l, np)
        lhs = np.stack((qb._reverse_upper(upper, bishop), upper, upper), -1)
        rhs = np.stack(np.broadcast_arrays(
            dcol, qb._twist_upper(dcol, big_l, np),
            np.column_stack((np.full(len(pairs), np.nan), upper[:, :-1]))),
            -1)
    for p, (n, c) in enumerate(pairs):
        for u in upper[p][~(upper[p] >= 0.0)].tolist()[:1]:
            qb.fn_from_qc_upper(u, qb.BoundAssumptions(
                cap=n, bishop_c=c))     # raises DomainError
        inputs = [(d, n, c) for d in ds]
        report.check_many(names[:2], inputs[:1], lhs[p, :1, :2],
                          rhs[p, :1, :2], tol=1e-12)
        report.check_many(names, inputs[1:], lhs[p, 1:], rhs[p, 1:],
                          tol=1e-12)
    note_seen = qb.CYLINDER_LENGTH_NOTE in qb.combined_qc_upper(
        ds[0], qb.BoundAssumptions(cap=ns[0], bishop_c=cs[0])).notes
    for d in (1.0, 3.0):
        vals = qb._combined_upper(d, bishop, big_l, np).reshape(len(ns), -1)
        report.check_many(("combined_monotone_in_C",),
                          [(d, n, c) for n in ns for c in cs[1:]],
                          vals[:, 1:].reshape(-1, 1),
                          vals[:, :-1].reshape(-1, 1), tol=1e-12)
        # bilipschitz_sandwich's forward_lipschitz, at d > 0 and C = 1
        lips = qb._combined_upper(d, 1.0, big_l[::len(cs)], np) / d
        report.check_many(("constants_degrade_with_cap",),
                          [(d, n, 1.0) for n in ns[1:]], lips[1:],
                          lips[:-1], tol=1e-12)
    report.check("cylinder_note_present", (), 1.0 if note_seen else -1.0, 0.0)
    report.note(qb.CYLINDER_LENGTH_NOTE)
    return report


def run_example81(grid: GridSpec | None = None,
                  csv_writer=None) -> VerificationReport:
    """The chained-pants arc: cosh^2 of the returning arc is bounded over
    n in [1, 10^6], non-increasing, with supremum 4 coth(1)^2 at n = 1;
    the often-quoted cap 3 coth(1)^2 is surveyed and its violation at
    n = 1 reported."""
    n_max = int(grid.hi) if grid is not None else 10 ** 6
    report = VerificationReport(
        "example81", f"n 1:{n_max} (all integers)", csv_writer)
    # running first, last and largest values, largest rise and the n
    # above the 3 coth(1)^2 cap, over blocks of n
    top, rise, over3 = -math.inf, -math.inf, []
    last = np.empty(0)
    for start in range(1, n_max + 1, EXAMPLE81_BLOCK):
        cosh_sq = pants1_arc_excess(np.arange(
            start, min(start + EXAMPLE81_BLOCK, n_max + 1), dtype=np.float64))
        cosh_sq += 1.0
        cosh_sq *= cosh_sq
        if start == 1:
            first = float(cosh_sq[0])
        top = max(top, float(np.max(cosh_sq)))
        # the rise across the seam, cosh_sq[0] - last, included
        rise = max(rise, float(np.max(np.diff(cosh_sq, prepend=last))))
        over3 += (np.flatnonzero(cosh_sq > 3.0 * COTH1_SQ) + start).tolist()
        last = cosh_sq[-1:]
    report.check("sup_attained_at_n1", (1,), 1e-9,
                 abs(first - 4.0 * COTH1_SQ))
    report.check("bounded_by_4coth2", (n_max,), 4.0 * COTH1_SQ + 1e-9, top)
    report.check("nonincreasing", (n_max,), -rise, 0.0, tol=1e-15)
    report.note(f"cap 3*coth(1)^2 = {3.0 * COTH1_SQ!r} violated at n = "
                f"{over3}; observed supremum "
                f"{first!r} = 4*coth(1)^2 at n = 1")
    report.check("limit_to_one", (n_max,), 1e-6,
                 abs(float(last[0]) - 1.0))
    return report


def run_metric_axioms(grid: GridSpec | None = None,
                      csv_writer=None) -> VerificationReport:
    """Pseudometric axioms and the sup-norm embedding identity on seeded
    random windows, plus the algebraic form of the length-distortion
    check.  Each trial draws a triple (x, y, z) of windows of one size
    and boundary pattern: lengths log-uniform on [0.05, 10], twists
    N(0, 3).  The trials of a slab are joined into three windows whose
    blocks are the trials, so that each distance of a slab is one block
    call.  The sup-norm side reads the same per-curve terms of the
    to_linf images and takes one row max per trial, so the isometry
    check compares two reductions of the same terms."""
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
        draws = [([], []) for _ in "xyz"]   # (uniforms, normals)
        for _ in range(count):
            size = int(rng.integers(1, 201))
            sizes.append(size)
            # the pattern and x's lengths are adjacent in the stream
            u = rng.random(2 * size)
            patterns.append(u[:size])
            draws[0][0].append(u[size:])
            draws[0][1].append(rng.standard_normal(size))
            for uniforms, normals in draws[1:]:
                uniforms.append(rng.random(size))
                normals.append(rng.standard_normal(size))
        pattern = np.concatenate(patterns) < 0.15
        # Generator.uniform(lo, hi) is lo + (hi - lo) * random() and
        # normal(0, 3) is 0.0 + 3.0 * standard_normal(): log10 lengths
        # uniform on [log10(0.05), 1], twists N(0, 3)
        lo = math.log10(0.05)
        x, y, z = (fns.StructureWindow(
            10.0 ** (lo + (1.0 - lo) * np.concatenate(u)),
            0.0 + 3.0 * np.concatenate(v), pattern) for u, v in draws)
        starts = np.cumsum([0] + sizes[:-1])
        dxy = fns.fn_distance_blocks(x, y, starts)
        dyx = fns.fn_distance_blocks(y, x, starts)
        dxz = fns.fn_distance_blocks(x, z, starts)
        dyz = fns.fn_distance_blocks(y, z, starts)
        dxx = fns.fn_distance_blocks(x, x, starts)
        # one row of curve terms per trial, zero-padded: the terms are
        # >= 0, so each row max is supnorm_distance's max(initial=0.0)
        rows = np.zeros((count, 200))
        rows[np.arange(200) < np.array(sizes)[:, None]] = fns._sup_terms(
            fns.to_linf(x)[:2], fns.to_linf(y)[:2])
        sup = rows.max(axis=1)
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


def run_distance_oracle(grid: GridSpec | None = None,
                        csv_writer=None) -> VerificationReport:
    """Cross-ratio route against the cosh route on seeded random point
    pairs with heights spread over six decades, then on a tenth as many
    near-coincident pairs with heights spread over sixteen decades."""
    pairs = grid.steps if grid is not None else 10 ** 4
    near = pairs // 10
    rng = np.random.default_rng(DISTANCE_SEED)
    report = VerificationReport(
        "distance-oracle", f"{pairs} random pairs, x in [-5,5], y "
        f"log-uniform [1e-3,1e3]; {near} near-coincident pairs, y "
        f"log-uniform [1e-8,1e8], x/y in [-5,5], |z-w|/y log-uniform "
        f"[1e-12,1e-4]; seed {DISTANCE_SEED}", csv_writer)
    # slabs of the stream in the order of the scalar draws x_z,
    # log10 y_z, x_w, log10 y_w per pair; lo + (hi - lo) * u is
    # Generator.uniform's own arithmetic
    lo = np.array([-5.0, -3.0, -5.0, -3.0])
    hi = np.array([5.0, 3.0, 5.0, 3.0])
    for start in range(0, pairs, ORACLE_SLAB):
        u = rng.random((min(ORACLE_SLAB, pairs - start), 4))
        zx, zv, wx, wv = (lo + (hi - lo) * u).T
        # a Python power: np.power differs in the last bits
        zy, wy = (np.array([10.0 ** e for e in v.tolist()]) for v in (zv, wv))
        _check_oracle(report, np.column_stack((zx, zy, wx, wy)))
    # near-coincident: z = y (x/y + i), w = z + y s e^(i phi)
    lo = np.array([-5.0, -8.0, -12.0, 0.0])
    hi = np.array([5.0, 8.0, -4.0, 2.0 * math.pi])
    for start in range(0, near, ORACLE_SLAB):
        u = rng.random((min(ORACLE_SLAB, near - start), 4))
        points = []
        for ratio, v, t, phi in (lo + (hi - lo) * u).tolist():
            y = 10.0 ** v
            r = y * 10.0 ** t
            points.append((ratio * y, y, ratio * y + r * math.cos(phi),
                           y + r * math.sin(phi)))
        _check_oracle(report, np.array(points))
    return report


def _check_oracle(report, p):
    """One check_many of the relative gap between the two distance
    routes on the point pairs (zx, zy, wx, wy), the rows of p."""
    zx, zy, wx, wy = p.T
    for row in p[~(np.isfinite(p).all(axis=1) & (zy > 0.0) & (wy > 0.0))][:1]:
        hyp.hp(*row[:2]), hyp.hp(*row[2:])     # raises DomainError
    # the rows where a value branch of the scalar kernels may apply:
    # 2 y y' out of the normal range, or an underflowing |z - w|^2
    redo = ((np.minimum(zy, wy) < 1e-153) | (np.maximum(zy, wy) > 1e153)
            | (np.maximum(abs(zx - wx), abs(zy - wy)) < 1.5e-154))

    def routes(q, ops=math):
        return [f(q[:2], q[2:], ops) for f in
                (hyp.hyp_distance, hyp.hyp_distance_crossratio)]
    d1, d2 = hyp.on_columns(routes, p.T, p, redo).T
    report.check_many(("crossratio_vs_cosh_rel",), p.tolist(), 1e-10,
                      (abs(d1 - d2) / d1)[:, None])


SUITES = {
    "collar": run_collar,
    "hexagon": run_hexagon,
    "mu": run_mu,
    "twist-lower": run_twist_lower,
    "delta": run_delta,
    "angle": run_angle,
    "sandwich": run_sandwich,
    "example81": run_example81,
    "metric-axioms": run_metric_axioms,
    "distance-oracle": run_distance_oracle,
}


# suites whose axes are fixed, so that a grid override cannot act on them
FIXED_AXIS_SUITES = ("mu", "delta")


def check_grid_applies(names, grid: GridSpec | None):
    """Reject a grid override that cannot act on the named suites,
    before any suite runs: any grid for a suite with fixed axes, and for
    example81 a grid with hi < 2: its n = 1..int(hi) needs two values
    for the monotonicity check."""
    if grid is None:
        return
    fixed = [name for name in names if name in FIXED_AXIS_SUITES]
    if fixed:
        raise UsageError(f"suites {fixed} have fixed axes and take no "
                         "grid override")
    if "example81" in names and not grid.hi >= 2.0:
        raise UsageError(f"example81 runs n = 1..int(hi) and needs "
                         f"hi >= 2, got {grid.hi:g}")


def run_suite(name: str, grid: GridSpec | None = None,
              csv_writer=None) -> VerificationReport:
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; expected one of "
                         f"{sorted(SUITES)} or 'all'")
    check_grid_applies([name], grid)
    t0 = time.perf_counter()
    report = SUITES[name](grid, csv_writer)
    report.wall_time = time.perf_counter() - t0
    return report
