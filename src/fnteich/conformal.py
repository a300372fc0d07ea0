"""Conformal-modulus machinery.

Complete elliptic integral K(r) by the arithmetic-geometric mean, the
Grotzsch ring modulus mu(r) (unit disk slit along [0, r]) via the
complementary-integral quotient mu(r) = (pi/2) K(r') / K(r), the modulus
of half-plane quadrilaterals by Moebius normalization, and the dilatation
of the horizontal shear x + iy -> x + Ay + iy.

The key consumer is the twist analysis: twist_min_dilatation(t) is the
conformal modulus of the quadrilateral H(inf, -1, 0, e^t), the sharp lower
bound for the dilatation of any self-map of the half-plane fixing 0, i,
inf that displaces the boundary like a time-t twist.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError
from .hyperbolic import angle_of_distance
from .reports import Validated

INF = math.inf


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; converges quadratically."""
    for _ in range(64):
        # two ulps: a and b can settle on neighbouring doubles
        if abs(a - b) <= 2.0 * sys.float_info.epsilon * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_k(r: float) -> float:
    """Complete elliptic integral of the first kind in the modulus
    convention, K(r) = int_0^1 dx / sqrt((1-x^2)(1-r^2 x^2)),
    computed as pi / (2 agm(1, sqrt(1 - r^2)))."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"elliptic_k requires 0 <= r < 1, got {r}")
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    return math.pi / (2.0 * _agm(1.0, rc))


def grotzsch_modulus(r: float) -> float:
    """Modulus mu(r) of the Grotzsch ring D \\ [0, r], computed as
    (pi/2) K(sqrt(1-r^2)) / K(r).  Strictly decreasing on (0, 1) with
    mu(1/sqrt 2) = pi/2 and the functional identity
    mu(r) mu(sqrt(1-r^2)) = pi^2/4.

    Since K(s) = pi / (2 agm(1, sqrt(1-s^2))), the quotient collapses to
    agm(1, sqrt(1-r^2)) / agm(1, r); evaluating it this way avoids
    recomputing complementary moduli, which would lose all accuracy for
    r near the ends of (0, 1).
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"grotzsch_modulus requires 0 < r < 1, got {r}")
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    return (math.pi / 2.0) * _agm(1.0, rc) / _agm(1.0, r)


def grotzsch_modulus_derivative(r: float) -> float:
    """mu'(r) = -pi^2 / (4 r (1 - r^2) K(r)^2); negative on (0, 1)."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"requires 0 < r < 1, got {r}")
    k = elliptic_k(r)
    return -math.pi ** 2 / (4.0 * r * (1.0 - r * r) * k * k)


def grotzsch_lower_bound(r: float) -> float:
    """The classical lower estimate (2/pi) log((1 + sqrt(1-r^2))^2 / r),
    which grotzsch_modulus strictly exceeds on (0, 1)."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"requires 0 < r < 1, got {r}")
    q = (1.0 + math.sqrt(1.0 - r * r)) ** 2 / r
    if q == math.inf:   # r below ~2.2e-308: the log term by term
        return (2.0 / math.pi) * (2.0 * math.log1p(math.sqrt(1.0 - r * r))
                                  - math.log(r))
    return (2.0 / math.pi) * math.log(q)


def normalized_quad_modulus(x: float) -> float:
    """Modulus of the half-plane quadrilateral H(inf, -1, 0, x), x > 0,
    equal to (2/pi) mu(1/sqrt(1+x)).  Equals 1 at x = 1; the rotation
    (z2, z3, z4, z1) sends x to 1/x, and the identity
    mu(r) mu(sqrt(1-r^2)) = pi^2/4 makes the two moduli reciprocal.

    Arguments below 1 route through that reciprocity: it is exact, and it
    keeps the Grotzsch argument away from 1, where 1/sqrt(1+x) would
    round up and lose the modulus entirely for tiny x.
    """
    if not x > 0.0:
        raise DomainError(f"requires x > 0, got {x}")
    if x < 1.0:
        return 1.0 / normalized_quad_modulus(1.0 / x)
    return (2.0 / math.pi) * grotzsch_modulus(1.0 / math.sqrt(1.0 + x))


def twist_min_dilatation(t: float) -> float:
    """Least quasiconformal dilatation compatible with a time-t twist:
    the modulus of H(inf, -1, 0, e^t).  Equals 1 at t = 0, strictly
    increasing, unbounded."""
    if not t >= 0.0:
        raise DomainError(f"requires t >= 0, got {t}")
    if t > 700.0:   # e^t overflows; 1/sqrt(1+e^t) = e^(-t/2) there
        r = math.exp(-t / 2.0)
        if r == 0.0:
            raise DomainError(f"twist time {t} out of floating-point range")
        return (2.0 / math.pi) * grotzsch_modulus(r)
    return normalized_quad_modulus(math.exp(t))


def twist_min_dilatation_derivative(t: float) -> float:
    """Derivative of twist_min_dilatation.  With lam = e^t and
    r = (1+lam)^(-1/2), the chain rule gives
    d/dt = -(lam/pi) mu'(r) r^3, strictly positive."""
    if not t >= 0.0:
        raise DomainError(f"requires t >= 0, got {t}")
    # past t = 40, e^-t is below half an ulp of 1, so r = e^(-t/2) and
    # lam r^3 = r in doubles; lam * mu'(r) * r^3 overflows from t = 474
    if t > 40.0:
        r = math.exp(-t / 2.0)
        if r == 0.0:
            raise DomainError(f"twist time {t} out of floating-point range")
        return -(1.0 / math.pi) * grotzsch_modulus_derivative(r) * r
    lam = math.exp(t)
    r = 1.0 / math.sqrt(1.0 + lam)
    return -(lam / math.pi) * grotzsch_modulus_derivative(r) * r ** 3


class IdealQuadrilateral(Validated, namedtuple("IdealQuadrilateral",
                                               "p1 p2 p3 p4")):
    """Four distinct boundary points of the upper half-plane in positive
    cyclic order (math.inf allowed for the point at infinity).  The
    a-sides are the arcs p1p2 and p3p4."""

    __slots__ = ()

    def __new__(cls, p1, p2, p3, p4):
        pts = (p1, p2, p3, p4)
        for p in pts:
            if math.isnan(p) or p == -INF:
                raise DomainError(
                    "vertices must be finite reals or math.inf "
                    f"(the single point at infinity), got {pts}")
        if len(set(pts)) != 4:
            raise DomainError(f"vertices must be pairwise distinct: {pts}")
        if not _positively_ordered(pts):
            raise DomainError(
                f"vertices are not in positive cyclic order: {pts}")
        return tuple.__new__(cls, pts)

    def rotated(self) -> "IdealQuadrilateral":
        return IdealQuadrilateral(self.p2, self.p3, self.p4, self.p1)


def _positively_ordered(pts) -> bool:
    # positive orientation of the half-plane boundary = increasing reals,
    # with inf as the largest value; some cyclic rotation must be sorted
    for k in range(4):
        rot = pts[k:] + pts[:k]
        if rot[0] < rot[1] < rot[2] < rot[3]:
            return True
    return False


def _normalized_fourth_point(q: IdealQuadrilateral) -> float:
    """Image of p4 under the Moebius map sending (p1, p2, p3) to
    (inf, -1, 0); positive cyclic order makes it positive."""
    z1, z2, z3, z4 = q
    if z1 == INF:
        x = -(z4 - z3) / (z2 - z3)
    elif z2 == INF:
        x = -(z4 - z3) / (z4 - z1)
    elif z3 == INF:
        x = -(z2 - z1) / (z4 - z1)
    elif z4 == INF:
        x = -(z2 - z1) / (z2 - z3)
    else:
        x = -((z4 - z3) * (z2 - z1)) / ((z4 - z1) * (z2 - z3))
    if not x > 0.0:
        raise DomainError(f"degenerate quadrilateral {tuple(q)}")
    return x


def quad_modulus(q: IdealQuadrilateral) -> float:
    """Conformal modulus of the quadrilateral (a-side length over b-side
    length of the conformally equivalent rectangle).  Moebius invariant,
    and mod(q) * mod(q.rotated()) = 1."""
    return normalized_quad_modulus(_normalized_fourth_point(q))


def cylinder_interval(b: float) -> float:
    """Length s(b) = 4 arctan((e^b - 1)/(e^b + 1)) of the interval factor
    when the width-b tube around a closed geodesic is uniformized as a
    Euclidean cylinder (circle of the geodesic's length) x [0, s].
    Equals twice angle_of_distance(b); increases onto (0, pi)."""
    if not b > 0.0:
        raise DomainError(f"requires b > 0, got {b}")
    return 2.0 * angle_of_distance(b)


class AffineDilatation(NamedTuple):
    k: float
    beltrami_modulus: float


def affine_dilatation(a: float) -> AffineDilatation:
    """Quasiconformal data of the shear x + iy -> x + a*y + iy:
    |mu| = |a| / sqrt(4 + a^2) and
    K = 1 + a^2/2 + (|a|/2) sqrt(4 + a^2) = (1 + |mu|)/(1 - |mu|).
    Even in a; K = 1 iff a = 0.  Past |a| ~ 1.3e154, where a^2
    overflows, K is not a double and DomainError is raised."""
    if not math.isfinite(a):
        raise DomainError(f"shear coefficient must be finite, got {a}")
    k, mu = _affine_k_mu(a)
    if k == INF:
        raise DomainError(f"the dilatation of the shear coefficient {a} "
                          "is out of floating-point range")
    return AffineDilatation(k, mu)


def _affine_k_mu(a, ops=math):
    """(K, |mu|) of affine_dilatation, for a float, or for a numpy array
    with ops=numpy."""
    aa = abs(a)
    root = ops.sqrt(4.0 + a * a)
    return 1.0 + 0.5 * a * a + 0.5 * aa * root, aa / root
