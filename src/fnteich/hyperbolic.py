"""Upper-half-plane geometry, right-angled hexagons and collar quantities.

Conventions: points live in the upper half-plane model {y > 0} with the
metric |dz|/y.  A hyperbolic pair of pants with geodesic boundary lengths
(l1, l2, l3) splits along its three seams into two congruent right-angled
hexagons whose alternating side lengths are a_i = l_i / 2; the remaining
three sides b_i are the seams (b_i opposite a_i), and h_i is the shortest
arc joining side a_i to side b_i.

All functions here are pure; every value object is immutable.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from types import SimpleNamespace
from typing import NamedTuple

from .errors import DomainError, UsageError
from .reports import Validated, VerificationReport

COLLAR_SLACK_TOL = 1e-12
_MIN_NORMAL = sys.float_info.min
_LN2 = math.log(2.0)


def arcosh1p(u: float, ops=math) -> float:
    """arcosh(1 + u) for u >= 0, accurate down to tiny u, and
    ln 2 + log1p(u) past u ~ 1.3e154, where u (u + 2) overflows."""
    v = u * (u + 2.0)
    if ops is math and v == math.inf:
        return _LN2 + math.log1p(u)
    return ops.log1p(u + ops.sqrt(v))


def on_columns(kernel, cols, rows, redo=False):
    """kernel(cols, ops) as the columns of an array, one row per entry of
    rows; kernel(x, ops=math) takes scalars, or columns under these ops:
    numpy's sqrt, which IEEE rounds correctly, and libm's functions mapped
    over the column, as numpy's own can differ in the last bit under some
    SIMD dispatches.  Value branches act on scalars only, so kernel(row)
    recomputes each row where redo holds or a value is not finite."""
    import numpy as np

    def mapped(f):
        return lambda *cs: np.fromiter(
            map(f, *[c.ravel().tolist() for c in cs]), np.float64,
            cs[0].size).reshape(cs[0].shape)
    ops = SimpleNamespace(sqrt=np.sqrt, **{
        f: mapped(getattr(math, f))
        for f in ("cosh", "sinh", "log1p", "asinh", "hypot")})
    with np.errstate(all="ignore"):
        out = np.stack(np.broadcast_arrays(*kernel(cols, ops)),
                       axis=-1).reshape(len(rows), -1)
    for i in np.flatnonzero(redo | ~np.isfinite(out).all(axis=1)):
        out[i] = kernel(rows[i].tolist())
    return out


class HalfPlanePoint(Validated, namedtuple("HalfPlanePoint", "x y")):
    """A point x + iy of the upper half-plane (y strictly positive)."""

    __slots__ = ()

    def __new__(cls, x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"point coordinates must be finite, got "
                              f"({x}, {y})")
        if y <= 0.0:
            raise DomainError(f"point must satisfy y > 0, got y = {y}")
        return tuple.__new__(cls, (x, y))

    def scaled(self, factor: float) -> "HalfPlanePoint":
        return HalfPlanePoint(self.x * factor, self.y * factor)

    @property
    def arg(self) -> float:
        """Argument in (0, pi)."""
        return math.atan2(self.y, self.x)


def hp(x: float, y: float) -> HalfPlanePoint:
    return HalfPlanePoint(float(x), float(y))


def hyp_distance(z: HalfPlanePoint, w: HalfPlanePoint, ops=math) -> float:
    """Hyperbolic distance, via cosh d = 1 + |z-w|^2 / (2 Im z Im w).

    This route has no cancellation near z = w; see
    hyp_distance_crossratio for the independent cross-ratio route.
    Heights whose ratio leaves the double range raise DomainError.
    """
    dx, zy, wy = z[0] - w[0], z[1], w[1]
    dy = zy - wy
    den = 2.0 * zy * wy
    if ops is math and not _MIN_NORMAL <= den < math.inf:
        # z -> 2^k z is an isometry and exact in binary: bring the larger
        # height into [0.5, 1) so that the denominator keeps full precision
        k = -math.frexp(max(zy, wy))[1]
        dx, dy = math.ldexp(dx, k), math.ldexp(dy, k)
        zy, wy = math.ldexp(zy, k), math.ldexp(wy, k)
        den = 2.0 * zy * wy
        if not den >= _MIN_NORMAL:
            raise DomainError(
                f"hyp_distance: the heights of {tuple(z)} and {tuple(w)} "
                f"are too far apart for double precision")
    sq = dx * dx + dy * dy
    if ops is math and sq < _MIN_NORMAL:
        # |z - w|^2 underflows; sinh(d / 2) = s / 2 with the separation
        # s = |z - w| / sqrt(y y'), and d = s to double precision where
        # s / 2 is subnormal and would lose the last bit of s
        s = math.hypot(dx, dy) / (math.sqrt(zy) * math.sqrt(wy))
        return s if s < 2.0 * _MIN_NORMAL else 2.0 * math.asinh(s / 2.0)
    u = sq / den
    if ops is math and u == math.inf:
        # |z - w|^2 or u overflows; d = log(2u) + O(1/u)
        return 2.0 * math.log(math.hypot(dx, dy)) - math.log(zy) - math.log(wy)
    return arcosh1p(u, ops)


def hyp_distance_crossratio(z: HalfPlanePoint, w: HalfPlanePoint,
                            ops=math) -> float:
    """Hyperbolic distance log((A + B) / (A - B)), the log of the
    ideal-endpoint cross ratio, with B = |z - w| and A = |z - conj w|:
    an independent cross-check of hyp_distance, which never forms A.
    A - B = 4 Im z Im w / (A + B), so nothing cancels near z = w."""
    dx, zy, wy = z[0] - w[0], z[1], w[1]
    b = ops.hypot(dx, zy - wy)
    if ops is math and 0.0 < b < _MIN_NORMAL and max(zy, wy) < 0.5:
        # a subnormal |z - w| has lost bits; z -> 2^k z is an isometry
        # and exact in binary, so lift the larger height into [0.5, 1).
        # Heights >= 0.5 are not lowered: that would halve b, and d = b / y
        # to double precision there
        k = -math.frexp(max(zy, wy))[1]
        dx, zy, wy = math.ldexp(dx, k), math.ldexp(zy, k), math.ldexp(wy, k)
        b = math.hypot(dx, zy - wy)
    a = ops.hypot(dx, zy + wy)
    v = (b / zy) * ((a + b) / (2.0 * wy))
    if ops is math and v == math.inf:
        # past d ~ 710; log1p(v) = log(v) + O(1/v), one factor at a time
        return math.log(b / zy) + math.log((a + b) / (2.0 * wy))
    return ops.log1p(v)


def angle_of_distance(d: float) -> float:
    """Euclidean angle theta(d) = 2 arctan((e^d - 1)/(e^d + 1)) subtended
    at the origin by the locus at hyperbolic distance d from the
    imaginary axis.  Strictly increasing from 0 onto (0, pi/2)."""
    if not d > 0.0:
        raise DomainError(f"angle_of_distance requires d > 0, got {d}")
    if d < _MIN_NORMAL:     # d / 2 loses bits; theta(d) = d - d^3/12 + ...
        return d
    return 2.0 * math.atan(math.tanh(d / 2.0))


def collar_margin(l: float) -> float:
    """Collar margin B(l) = (1/2) log(1 + 2/(e^l - 1)).

    Tubes of this width around boundary geodesics of a pair of pants are
    disjoint annuli (see verify_pants_collar).  Strictly decreasing,
    blowing up as l -> 0 and vanishing as l -> infinity.
    """
    if not l > 0.0:
        raise DomainError(f"collar_margin requires l > 0, got {l} "
                          "(cusps are handled by callers)")
    if l > 700.0:   # e^l overflows; B(l) ~ e^-l there
        return math.exp(-l)
    if l < _MIN_NORMAL:     # 2/expm1(l) overflows; B(l) = log(2/l)/2 + O(l)
        return 0.5 * (_LN2 - math.log(l))
    return 0.5 * math.log1p(2.0 / math.expm1(l))


def collar_halfwidth(l: float) -> float:
    """Half-width omega of the standard collar around a closed geodesic of
    length l, defined by sinh(omega) sinh(l/2) = 1."""
    if not l > 0.0:
        raise DomainError(f"collar_halfwidth requires l > 0, got {l}")
    if l < _MIN_NORMAL:     # 1/sinh(l/2) overflows; omega = log(4/l) + O(l^2)
        return 2.0 * _LN2 - math.log(l)
    if l > 1420.0:  # sinh(l/2) overflows past 1420.95; omega = 2 e^(-l/2)
        omega = 2.0 * math.exp(-l / 2.0)
        if omega == 0.0:
            raise DomainError(f"the collar halfwidth of curve length {l} "
                              "underflows to 0 in double precision")
        return omega
    return math.asinh(1.0 / math.sinh(l / 2.0))


class CollarData(Validated,
                 namedtuple("CollarData", "margin halfwidth angle")):
    """Collar quantities of a closed geodesic: margin B(l), halfwidth
    omega, and the angular halfwidth of the lifted collar in the
    half-plane."""

    __slots__ = ()

    def __new__(cls, margin, halfwidth, angle):
        if not (margin > 0.0 and halfwidth > 0.0):
            raise DomainError("collar margin and halfwidth must be positive")
        if not 0.0 < angle < math.pi / 2.0:
            raise DomainError("collar angle must lie in (0, pi/2)")
        return tuple.__new__(cls, (margin, halfwidth, angle))


def collar_data(l: float) -> CollarData:
    w = collar_halfwidth(l)
    return CollarData(margin=collar_margin(l), halfwidth=w,
                      angle=angle_of_distance(w))


class HexagonAlternatingSides(Validated, namedtuple(
        "HexagonAlternatingSides", "a1 a2 a3")):
    """Lengths of three pairwise non-consecutive sides of a right-angled
    hexagon; these determine the hexagon up to isometry."""

    __slots__ = ()

    def __new__(cls, a1, a2, a3):
        for v in (a1, a2, a3):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(
                    f"hexagon side lengths must be finite and > 0, got "
                    f"({a1}, {a2}, {a3})")
        return tuple.__new__(cls, (a1, a2, a3))


def _half_trig(sides, ops=math):
    """(cosh a_i, sinh a_i, cosh(a_j - a_k)) of three hexagon sides,
    (i, j, k) running over the cyclic orders (1, 2, 3), (2, 3, 1) and
    (3, 1, 2)."""
    a1, a2, a3 = sides
    return ((ops.cosh(a1), ops.cosh(a2), ops.cosh(a3)),
            (ops.sinh(a1), ops.sinh(a2), ops.sinh(a3)),
            (ops.cosh(a2 - a3), ops.cosh(a3 - a1), ops.cosh(a1 - a2)))


def _seam_excesses(ch, sh, cdiff, ops=math):
    """cosh(b_i) - 1 for the three seams, from the _half_trig values of
    the sides.  The defining law
    cosh a1 = -cosh a2 cosh a3 + sinh a2 sinh a3 cosh b1 is solved as
    cosh b1 - 1 = (cosh a1 + cosh(a2 - a3)) / (sinh a2 sinh a3),
    a sum of positive terms, so nearly-degenerate seams keep full
    relative accuracy.  Tolerates zero side lengths (cusp limit,
    cosh 0 = 1): a seam meeting a degenerate side comes out infinite."""
    (c1, c2, c3), (s1, s2, s3), (d1, d2, d3) = ch, sh, cdiff
    s23, s31, s12 = s2 * s3, s3 * s1, s1 * s2
    if ops is math and 0.0 in (s23, s31, s12):
        return tuple(n / s if s != 0.0 else math.inf for n, s in
                     ((c1 + d1, s23), (c2 + d2, s31), (c3 + d3, s12)))
    return (c1 + d1) / s23, (c2 + d2) / s31, (c3 + d3) / s12


def hexagon_sides(a: HexagonAlternatingSides, ops=math):
    """The other three alternating sides (b1, b2, b3) of the hexagon,
    b_i opposite a_i.  The same formula applied to (b1, b2, b3) recovers
    (a1, a2, a3): the two triples cut out the same hexagon."""
    ch, sh, cdiff = _half_trig(a, ops)
    b = [arcosh1p(u, ops) for u in _seam_excesses(ch, sh, cdiff, ops)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if ops is math and b[i] == math.inf:
            # at a tiny side u overflows, where
            # arcosh(1 + u) = log(2u) + O(1/u)
            b[i] = (_LN2 + math.log(ch[i] + cdiff[i])
                    - math.log(sh[j]) - math.log(sh[k]))
    return tuple(b)


def _altitudes(ch, sh, ops=math):
    """The altitudes (h1, h2, h3) from the cosh and sinh of the sides:
    sinh^2 h_i = (cosh^2 a_j + cosh^2 a_k + 2 cosh a_1 cosh a_2 cosh a_3)
    / sinh^2 a_i, a sum of positive terms.  Infinite at a cusp (sinh 0)."""
    c1, c2, c3 = ch
    q1, q2, q3, p = c1 * c1, c2 * c2, c3 * c3, 2.0 * c1 * c2 * c3
    return [ops.asinh(ops.sqrt(n) / s) if ops is not math or s > 0.0
            else math.inf
            for n, s in zip((q2 + q3 + p, q3 + q1 + p, q1 + q2 + p), sh)]


def hexagon_altitude(a: HexagonAlternatingSides, i: int) -> float:
    """Length h_i of the shortest arc joining side a_i to the opposite
    side b_i (see _altitudes)."""
    if i not in (1, 2, 3):
        raise UsageError(f"altitude index must be 1, 2 or 3, got {i}")
    return _altitudes([math.cosh(v) for v in a],
                      [math.sinh(v) for v in a])[i - 1]


class PantsBoundaryLengths(Validated, namedtuple(
        "PantsBoundaryLengths", "l1 l2 l3")):
    """Geodesic boundary lengths of a hyperbolic pair of pants;
    a zero entry encodes a cusp."""

    __slots__ = ()

    def __new__(cls, l1, l2, l3):
        for v in (l1, l2, l3):
            if not (math.isfinite(v) and v >= 0.0):
                raise DomainError(
                    f"boundary lengths must be finite and >= 0, got "
                    f"({l1}, {l2}, {l3})")
        return tuple.__new__(cls, (l1, l2, l3))


class PantsLengthGrid(NamedTuple):
    """Boundary lengths (l1, l2, l3) of every pair of pants in
    axis1 x axis2 x axis3, in row-major order.  verify_pants_collar
    requires every entry to be finite and > 0; a cusp is a
    PantsBoundaryLengths with a zero entry."""

    axis1: tuple[float, ...]
    axis2: tuple[float, ...]
    axis3: tuple[float, ...]


# the nine collar inequalities, three per boundary l_i: the two seams
# b_j (j != i) not opposite it, then the altitude h_i
COLLAR_CHECKS = tuple(
    name for i in (1, 2, 3) for name in
    [f"seam_b{j}/2>=B(l{i})" for j in (1, 2, 3) if j != i]
    + [f"altitude_h{i}>=B(l{i})"])


def _collar_sides(l, ops=math):
    """Left sides of the COLLAR_CHECKS of the pair of pants with
    boundary lengths l: b_j / 2 for the seams and h_i for the altitudes
    (infinite at a cusp)."""
    ch, sh, cdiff = _half_trig([v / 2.0 for v in l], ops)
    b1, b2, b3 = [arcosh1p(u, ops) / 2.0
                  for u in _seam_excesses(ch, sh, cdiff, ops)]
    h1, h2, h3 = _altitudes(ch, sh, ops)
    return (b2, b3, h1, b1, b3, h2, b1, b2, h3)


def verify_pants_collar(l: PantsBoundaryLengths | PantsLengthGrid,
                        report: VerificationReport | None = None
                        ) -> VerificationReport:
    """Check the nine collar-disjointness inequalities COLLAR_CHECKS of a
    pair of pants, or of every pair of pants in a grid.

    For each boundary i with l_i > 0, the two seams not opposite it
    satisfy b_j / 2 >= B(l_i), and the altitude satisfies h_i >= B(l_i),
    where the hexagon has half-length sides a_i = l_i / 2.  Boundaries
    with l_i = 0 (cusps) have infinite collars; their three inequalities
    are counted as skipped.  The checks go into `report` (a fresh one
    when None), which is returned.
    """
    if report is None:
        report = VerificationReport("pants collar inequalities")
    if isinstance(l, PantsLengthGrid):
        _verify_collar_grid(l, report)
        return report
    sides = _collar_sides(l)
    # check k belongs to boundary k // 3
    live = [k for k in range(9) if l[k // 3] != 0.0]
    for _ in range(9 - len(live)):
        report.skip()
    report.check_many([COLLAR_CHECKS[k] for k in live], [l],
                      [[sides[k] for k in live]],
                      [[collar_margin(l[k // 3]) for k in live]],
                      tol=COLLAR_SLACK_TOL)
    return report


def _verify_collar_grid(g: PantsLengthGrid, report: VerificationReport):
    """verify_pants_collar on every pair of pants of g, on columns, with
    one check_many slab per l1.  Each axis of g lies along its own array
    axis, so that each function of one or two half-lengths is computed
    once per axis value or pair of values."""
    import numpy as np

    for axis in g:
        if not all(0.0 < v < math.inf for v in axis):
            raise DomainError(f"grid boundary lengths must be finite and "
                              f"> 0, got {tuple(axis)}")
    ls = np.ix_(*g)
    margins = np.ix_(*[[collar_margin(v) for v in axis] for axis in g])
    cells = np.stack(np.broadcast_arrays(*ls, *margins), -1).reshape(-1, 6)
    lhs = on_columns(_collar_sides, ls, cells[:, :3])
    rhs = np.repeat(cells[:, 3:], 3, axis=1)
    n = len(g.axis2) * len(g.axis3)     # slabs of one l1 keep memory low
    for k in range(0, len(cells), n):
        report.check_many(COLLAR_CHECKS, cells[k:k + n, :3].tolist(),
                          lhs[k:k + n], rhs[k:k + n], tol=COLLAR_SLACK_TOL)


def halfseam_intermediate_bound(l: float) -> tuple[float, float]:
    """The chained estimate behind verify_pants_collar: half a seam
    adjacent to a boundary of length l is at least
    (1/2) arcosh(coth(l/2)), which in turn is at least B(l).
    Returns (intermediate, margin) so callers can confirm the middle
    step separately from the end-to-end inequality.  The intermediate is
    taken from the excess coth(l/2) - 1 = 2/(e^l - 1), as B(l) is, so
    it does not round to 0 for large l."""
    if not l > 0.0:
        raise DomainError(f"requires l > 0, got {l}")
    if l > 700.0:   # e^l overflows; (1/2) arcosh(1 + 2e^-l) ~ e^(-l/2)
        return math.exp(-l / 2.0), collar_margin(l)
    return 0.5 * arcosh1p(2.0 / math.expm1(l)), collar_margin(l)
