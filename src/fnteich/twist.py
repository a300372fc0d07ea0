"""Fenchel-Nielsen twist analysis.

The model situation: a closed geodesic of length l lifts to the positive
imaginary axis, its collar to the angular sector
|arg z - pi/2| < theta_alpha where theta_alpha = angle_of_distance(omega)
and sinh(omega) sinh(l/2) = 1.  The explicit time-t twist is the
piecewise map that is the identity below the collar, multiplication by
e^t above it, and interpolates exponentially in between; its Beltrami
coefficient has constant modulus c/sqrt(4+c^2) with c = |t| / (2
theta_alpha), so its dilatation is the shear dilatation of coefficient c.

The module also provides the reverse direction: every map realizing the
twist has dilatation at least twist_min_dilatation(t), which inverts to a
bound t <= delta log K (twist_delta), and the seam-angle estimates that
extend the argument to multi-twists.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .conformal import (AffineDilatation, affine_dilatation,
                        normalized_quad_modulus, twist_min_dilatation,
                        twist_min_dilatation_derivative)
from .errors import DomainError, UsageError
from .hyperbolic import (HalfPlanePoint, collar_data, collar_margin,
                         hyp_distance, hp)
from .reports import BoundReport, Validated, VerificationReport


# the twist lower bound check of the library and the twist-lower suite
TWIST_LOWER_CHECK, TWIST_LOWER_TOL = "K_constructed>=floor", 1e-10


def shear_coefficient(t: float, angle: float) -> float:
    """c = |t| / (2 theta_alpha), theta_alpha the collar angle."""
    return abs(t) / (2.0 * angle)


class TwistScenario(Validated, namedtuple(
        "TwistScenario", "curve_length twist_time collar")):
    """A single twist: curve length, signed hyperbolic displacement, and
    the derived collar data of the curve."""

    __slots__ = ()
    _derived = ("collar",)

    def __new__(cls, curve_length, twist_time):
        if not 0.0 < curve_length < math.inf:
            raise DomainError(f"curve length must be finite and > 0, got "
                              f"{curve_length}")
        if not math.isfinite(twist_time):
            raise DomainError(f"twist time must be finite, got {twist_time}")
        try:
            collar = collar_data(curve_length)
        except (DomainError, ArithmeticError) as exc:
            raise DomainError(f"the collar of curve length {curve_length} "
                              f"is not representable in double precision "
                              f"({exc})") from None
        return tuple.__new__(cls, (curve_length, twist_time, collar))

    @property
    def shear_coefficient(self) -> float:
        return shear_coefficient(self.twist_time, self.collar.angle)


def twist_sector(s: TwistScenario, argz: float) -> str:
    """Sector of the piecewise twist map containing the ray arg z = argz.
    Both boundary rays belong to the middle (interpolating) sector."""
    lo = math.pi / 2.0 - s.collar.angle
    hi = math.pi / 2.0 + s.collar.angle
    if argz < lo:
        return "inner"
    if argz > hi:
        return "outer"
    return "middle"


def twist_factor(s: TwistScenario, argz: float, sector: str | None = None
                 ) -> float:
    """Radial stretch factor of the twist map along the ray arg z = argz:
    1 below the collar, e^t above it, and
    exp(t (argz - pi/2 + theta_alpha) / (2 theta_alpha)) inside."""
    if sector is None:
        sector = twist_sector(s, argz)
    if sector == "inner":
        return 1.0
    if sector == "outer":
        return math.exp(s.twist_time)
    if sector == "middle":
        frac = (argz - math.pi / 2.0 + s.collar.angle) / (2.0 * s.collar.angle)
        return math.exp(s.twist_time * frac)
    raise UsageError(f"unknown sector {sector!r}")


def twist_map_eval(s: TwistScenario, point: HalfPlanePoint) -> HalfPlanePoint:
    """Image of a half-plane point under the explicit time-t twist map.
    Continuous across the sector boundaries; restricted to each sector it
    commutes with z -> lambda z."""
    return point.scaled(twist_factor(s, point.arg))


def twist_dilatation(s: TwistScenario) -> AffineDilatation:
    """Dilatation and Beltrami modulus of the explicit twist map: the
    shear data of coefficient c = |t| / (2 theta_alpha)."""
    return affine_dilatation(s.shear_coefficient)


def twist_lower_bound_check(s: TwistScenario) -> VerificationReport:
    """Consistency of the two routes for t > 0: the explicit map's
    dilatation must be at least twist_min_dilatation(t), the floor that
    holds for every map realizing the twist."""
    if not s.twist_time > 0.0:
        raise DomainError(
            f"lower-bound check requires t > 0, got {s.twist_time}")
    constructed = twist_dilatation(s).k
    floor = twist_min_dilatation(s.twist_time)
    report = VerificationReport("twist dilatation floor")
    report.check(TWIST_LOWER_CHECK, (s.curve_length, s.twist_time),
                 constructed, floor, tol=TWIST_LOWER_TOL)
    return report


class TwistDeltaResult(NamedTuple):
    threshold_time: float      # T with twist_min_dilatation(T) = cap
    delta: float               # t <= delta * log K for all t in (0, T]
    min_slope: float           # h'(0), the least derivative of the floor
    floor_at_threshold: float


def twist_delta(cap: float) -> TwistDeltaResult:
    """Invert the dilatation floor: given a dilatation cap L > 1, find T
    with floor(T) = L by bisection (|floor(T) - L| <= 1e-12), take
    D = h'(0), which is the least derivative of the floor because h' is
    increasing, and set delta = T / log(1 + D T).  Convexity of exp gives
    e^(t/delta) <= 1 + D t <= floor(t) on [0, T], hence
    t <= delta log(floor(t)) <= delta log K for any realizing map."""
    if not cap > 1.0:
        raise DomainError(
            f"dilatation cap must exceed 1, got {cap} "
            "(only the zero twist has dilatation 1)")
    hi = 1.0
    while twist_min_dilatation(hi) < cap:
        hi *= 2.0
        if hi > 2.0 ** 40:
            raise DomainError(f"dilatation cap {cap} out of reach")
    lo = 0.0
    t = hi
    val = twist_min_dilatation(t)
    for _ in range(200):
        t = 0.5 * (lo + hi)
        val = twist_min_dilatation(t)
        if abs(val - cap) <= 1e-12:
            break
        if val < cap:
            lo = t
        else:
            hi = t
    if abs(val - cap) > 1e-12 * max(1.0, cap):
        raise DomainError(
            f"bisection cannot reach the cap {cap} within tolerance "
            f"(best floor value {val})")
    slope = twist_min_dilatation_derivative(0.0)
    m = math.log1p(slope * t) / t
    return TwistDeltaResult(threshold_time=t, delta=1.0 / m,
                            min_slope=slope,
                            floor_at_threshold=twist_min_dilatation(t))


class SeamAngleInstance(Validated, namedtuple(
        "SeamAngleInstance", "c theta lambda_ point_a")):
    """Geometry of a geodesic crossing the imaginary axis at i with angle
    phi, where c = cot phi: the witnessing circle is
    x^2 + y^2 - 2 c x - 1 = 0, and theta is the angular halfwidth of the
    collar the crossing geodesic must traverse."""

    __slots__ = ()
    _derived = ("lambda_", "point_a")

    def __new__(cls, c, theta):
        if not (math.isfinite(c) and c >= 0.0):
            raise DomainError(f"cot(phi) must be finite and >= 0, got {c}")
        if not 0.0 < theta < math.pi / 2.0:
            raise DomainError(
                f"collar angle must lie in (0, pi/2), got {theta}")
        st = math.sin(theta)
        lam = c * st + math.sqrt(c * c * st * st + 1.0)
        return tuple.__new__(cls, (c, theta, lam,
                                   hp(lam * st, lam * math.cos(theta))))


class SeamAngleReport(NamedTuple):
    instance: SeamAngleInstance
    circle_residual: float       # point_a on x^2+y^2-2cx-1 = 0
    circle_residual_scaled: float  # residual over the equation's scale
    dist_quantity: float         # the printed two-ratio product
    rhs_bound: float             # (2/3) c^2 sin^6(theta) / cos^2(theta)
    direct_distance: float       # hyp distance from i to point_a
    interpretation: str          # which reading matches the oracle
    end_inequality_holds: bool


def seam_angle_kit(inst: SeamAngleInstance) -> SeamAngleReport:
    """Evaluate the crossing-geodesic estimate at one (c, theta).

    The two-ratio product compares the exit point A of the collar against
    i along the crossing geodesic with ideal endpoints c -+ sqrt(1+c^2).
    The kit also computes the direct hyperbolic distance d(i, A) and
    reports whether the product equals d^2 or exp(2d); numerically it is
    the exponentiated form (the product is the squared ideal-endpoint
    cross ratio), and that is what the right-hand bound
    (2/3) c^2 sin^6(theta) / (1 - sin^2(theta)) is compared against.
    """
    c, theta, lam = inst.c, inst.theta, inst.lambda_
    st, ct = math.sin(theta), math.cos(theta)
    s = math.sqrt(1.0 + c * c)
    ax, ay = inst.point_a.x, inst.point_a.y
    residual = ax * ax + ay * ay - 2.0 * c * ax - 1.0
    # the equation's terms grow like lam^2; the scaled residual is the
    # scale-free measure of A lying on the circle
    residual_scaled = residual / (1.0 + lam * lam)

    first = ((c + s) ** 2 + 1.0) / ((-c + s) ** 2 + 1.0)
    second_num = (lam * st - c + s) ** 2 + lam * lam * ct * ct
    second_den = (-lam * st + c + s) ** 2 + lam * lam * ct * ct
    quantity = first * second_num / second_den

    rhs = (2.0 / 3.0) * c * c * st ** 6 / (1.0 - st * st)
    direct = hyp_distance(hp(0.0, 1.0), inst.point_a)

    exp_form = math.exp(2.0 * direct)
    sq_form = direct * direct
    if abs(quantity - exp_form) <= 1e-9 * max(quantity, exp_form):
        interpretation = "exp(2*distance)"
    elif abs(quantity - sq_form) <= 1e-9 * max(quantity, abs(sq_form)):
        interpretation = "distance^2"
    else:
        interpretation = "neither"

    return SeamAngleReport(
        instance=inst, circle_residual=residual,
        circle_residual_scaled=residual_scaled, dist_quantity=quantity,
        rhs_bound=rhs, direct_distance=direct,
        interpretation=interpretation,
        end_inequality_holds=quantity >= rhs)


def seam_angle_cot_bounds(cap: float) -> tuple[float, float]:
    """Upper bounds for cot(phi) at boundary-length cap `cap`, where phi
    is the angle a shortest returning geodesic makes with a decomposition
    curve and d = collar_margin(cap).

    Returns (chained, printed): `chained` is
    2 sqrt(3) (cap + 4d) / (e^d tanh(d)^3), the bound the two-ratio
    distance estimate actually yields for a crossing geodesic of length
    at most cap + 4d; `printed` is the looser-looking variant
    ((cap + 4d)/e^d) tanh(d), kept for comparison only -- it is not
    monotone in the cap and is not used.
    """
    if not 0.0 < cap < math.inf:
        raise DomainError(f"length cap must be finite and > 0, got {cap}")
    d = collar_margin(cap)
    p = math.tanh(d)
    den = math.exp(d) * p ** 3
    # den underflows to 0 from cap ~ 248.4, where the bound is vacuous
    chained = (2.0 * math.sqrt(3.0) * (cap + 4.0 * d) / den if den > 0.0
               else math.inf)
    printed = (cap + 4.0 * d) / math.exp(d) * p
    return chained, printed


def seam_angle_bound(cap: float) -> float:
    """Positive lower bound, decreasing in the cap, for the angle between
    a decomposition curve of length <= cap and the shortest geodesic
    returning to it: phi >= arccot of the chained cot bound.  Raises
    DomainError where that is not a positive double (caps from about
    234.4, where the cot bound overflows)."""
    chained, _ = seam_angle_cot_bounds(cap)
    phi = math.atan(1.0 / chained)
    if not phi > 0.0:
        raise DomainError(f"the seam angle bound at length cap {cap} "
                          "underflows to 0 in double precision")
    return phi


class MultiTwistFamily(Validated, namedtuple(
        "MultiTwistFamily", "lengths times cap_length cap_time")):
    """Twist displacements along disjoint decomposition curves whose
    lengths respect the common cap cap_length; cap_time is the scale
    the empirical constant refers to."""

    __slots__ = ()

    def __new__(cls, lengths, times, cap_length, cap_time):
        lengths = tuple(float(v) for v in lengths)
        times = tuple(float(v) for v in times)
        if len(lengths) != len(times):
            raise UsageError(f"{len(lengths)} lengths vs {len(times)} times")
        for v in lengths:
            if not v > 0.0:
                raise DomainError(f"curve lengths must be > 0, got {v}")
        if not (cap_length > 0.0 and cap_time > 0.0):
            raise DomainError("caps must be positive")
        return tuple.__new__(cls, (lengths, times, cap_length, cap_time))


def multitwist_fn_bound(family: MultiTwistFamily, window: int) -> BoundReport:
    """Sandwich the dilatation of a multi-twist over the first `window`
    curves.

    Per curve: the upper route is the explicit twist map (disjoint
    collars, so the composite dilatation is the per-curve maximum); the
    lower route is the modulus quotient
    mod(H(inf, -1, 0, D r e^t)) / mod(H(inf, -1, 0, r)) with
    r = |x1|/x2 for the crossing geodesic's ideal endpoints
    x1 < 0 < x2 taken at the worst-case seam angle for the length cap
    (a single curve needs no crossing detour: r = 1 and the quotient is
    twist_min_dilatation).  The proof constant D is not effective; it is
    taken as 1 and recorded, and the emitted constant
    C = max_i |t_i| / log(lower_i) is labelled empirical accordingly.
    """
    if not (isinstance(window, int) and window >= 1):
        raise UsageError(f"window must be a positive integer, got {window}")
    if window > len(family.lengths):
        raise UsageError(
            f"window {window} exceeds available {len(family.lengths)} curves")
    lengths = family.lengths[:window]
    times = family.times[:window]
    sup_len = max(lengths)
    if sup_len > family.cap_length:
        raise DomainError(
            f"assumption violation: curve length {sup_len} exceeds "
            f"cap {family.cap_length}")

    if window == 1:
        c = 0.0
        phi = math.pi / 2.0
    else:
        phi = seam_angle_bound(family.cap_length)
        c = 1.0 / math.tan(phi)
    s = math.sqrt(1.0 + c * c)
    ratio = (s - c) / (s + c)           # |x1| / x2 for endpoints c -+ s
    proof_scale = 1.0
    base_mod = normalized_quad_modulus(ratio)

    details = []
    lower_logs = []
    upper_logs = []
    ratios = []
    for i, (length, t) in enumerate(zip(lengths, times), start=1):
        upper_k = twist_dilatation(TwistScenario(length, t)).k
        lower_k = (normalized_quad_modulus(
            proof_scale * ratio * math.exp(abs(t))) / base_mod)
        details.append((i, length, t, lower_k, upper_k))
        lower_logs.append(math.log(lower_k))
        upper_logs.append(math.log(upper_k))
        if t != 0.0:
            ratios.append(abs(t) / math.log(lower_k))

    empirical_c = max(ratios) if ratios else 0.0
    fn_twist_part = max(abs(t) for t in times)
    notes = (
        "constant is empirical: the proof-side scale D is not effective "
        "and is taken as 1",
        f"twist part of the coordinate distance: sup|t_i| = "
        f"{fn_twist_part!r}",
    )
    return BoundReport(
        quantity="log_dilatation_of_multitwist",
        lower=max(lower_logs),
        upper=max(upper_logs),
        assumptions={"cap_length": family.cap_length,
                     "cap_time": family.cap_time,
                     "seam_angle": phi,
                     "proof_scale": proof_scale,
                     "empirical_twist_constant": empirical_c},
        provenance=("per-curve modulus quotient below, explicit twist "
                    "map above; disjoint collars"),
        notes=notes,
        details=tuple(details))
