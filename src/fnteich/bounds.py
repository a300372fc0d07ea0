"""Dilatation bounds between structures with a common length cap.

Under a cap N on all curve lengths, a coordinate distance d between two
structures controls the dilatation of a comparison map: a pants-by-pants
(Bishop-type) map handles the length change with log K <= 3 C(N) d, and a
collar shear handles the twist change with
log K <= (d / L(N)) sqrt(1 + d^2 / (16 L(N)^2)), where 2 L(N) is the
conformal length of the collar cylinder at the cap.  Composing gives the
combined upper bound; in the reverse direction,
d <= (2 + 3 C(N)) log K for any comparison map.  Together the two
directions make the identity between the coordinate metric and the
(log-)dilatation metric locally bi-Lipschitz.

C(N) is a non-constructive constant of the pants-by-pants map; it is a
required user input, recorded in every report's assumptions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError
from .hyperbolic import angle_of_distance, collar_margin
from .reports import BoundReport, Validated

CYLINDER_LENGTH_NOTE = (
    "L(N) is computed from the collar margin as "
    "2*arctan((e^B(N)-1)/(e^B(N)+1)); the closed form 2*arctan(2*e^N) "
    "quoted alongside it elsewhere is inconsistent with the collar "
    "geometry (its arctan argument exceeds 1) and is reported only for "
    "comparison, never used")


class CylinderLengthInfo(NamedTuple):
    value: float
    printed_closed_form: float
    note: str


def collar_cylinder_halflength(cap: float) -> float:
    """Half the conformal length L(N) of the collar cylinder around a
    geodesic of length <= cap: L(N) = angle_of_distance(collar_margin(N)).
    Decreasing in the cap and always below pi/2."""
    if not 0.0 < cap < math.inf:
        raise DomainError(f"length cap must be finite and > 0, got {cap}")
    margin = collar_margin(cap)
    if margin == 0.0:
        raise DomainError(f"length cap {cap} is out of range: the collar "
                          "margin B(N) underflows to 0 in double precision")
    return angle_of_distance(margin)


def cylinder_halflength_report(cap: float) -> CylinderLengthInfo:
    """L(N) together with the inconsistent closed-form variant, for the
    record (see CYLINDER_LENGTH_NOTE)."""
    value = collar_cylinder_halflength(cap)
    if cap > 700.0:
        printed = math.pi
    else:
        printed = 2.0 * math.atan(2.0 * math.exp(cap))
    return CylinderLengthInfo(value, printed, CYLINDER_LENGTH_NOTE)


class BoundAssumptions(Validated, namedtuple(
        "BoundAssumptions", "cap bishop_c l_of_cap d_fn")):
    """Shared assumption set of the bound chain: the length cap, the
    pants-map constant C(N) (user supplied, finite and >= 0 with 0
    meaning the length-change term is switched off), the derived L(N)
    and an optional coordinate distance d_fn."""

    __slots__ = ()
    _derived = ("l_of_cap",)

    def __new__(cls, cap, bishop_c, d_fn=None):
        if not 0.0 < cap < math.inf:
            raise DomainError(f"length cap must be finite and > 0, got {cap}")
        if not 0.0 <= bishop_c < math.inf:
            raise DomainError(
                f"pants-map constant must be finite and >= 0, got {bishop_c}")
        if d_fn is not None and not d_fn >= 0.0:
            raise DomainError(f"distance must be >= 0, got {d_fn}")
        big_l = collar_cylinder_halflength(cap)
        if 16.0 * big_l * big_l == 0.0:     # the bounds divide by it
            raise DomainError(f"length cap {cap} is out of range: L(N) = "
                              f"{big_l} squares to 0 in double precision")
        return tuple.__new__(cls, (cap, bishop_c, big_l, d_fn))

    def with_distance(self, d: float) -> "BoundAssumptions":
        return BoundAssumptions(self.cap, self.bishop_c, d_fn=d)

    def as_dict(self) -> dict:
        out = {"cap": self.cap, "bishop_c": self.bishop_c,
               "l_of_cap": self.l_of_cap}
        if self.d_fn is not None:
            out["d_fn"] = self.d_fn
        return out


def bishop_length_bound(lengths_a, lengths_b,
                        assumptions: BoundAssumptions) -> BoundReport:
    """Dilatation bound for matching two pants with boundary triples
    lengths_a, lengths_b (all <= cap, twists equal):
    log K <= 3 C(N) max_i |log(l_i / m_i)|."""
    la, lb = tuple(lengths_a), tuple(lengths_b)
    if len(la) != 3 or len(lb) != 3:
        raise DomainError("expected two triples of boundary lengths")
    for v in la + lb:
        if not v > 0.0:
            raise DomainError(f"lengths must be > 0, got {v}")
        if v > assumptions.cap:
            raise DomainError(
                f"assumption violation: length {v} exceeds cap "
                f"{assumptions.cap}")
    spread = max(abs(math.log(a) - math.log(b)) for a, b in zip(la, lb))
    return BoundReport(
        quantity="log_dilatation_length_change",
        lower=None,
        upper=3.0 * assumptions.bishop_c * spread,
        assumptions=assumptions.as_dict(),
        provenance="pants-by-pants map: log K <= 3*C(N)*max|log(l_i/m_i)|",
        notes=(CYLINDER_LENGTH_NOTE,))


# the float cores of the three bounds, on floats or, with ops=numpy, on
# numpy arrays; only + - * / and sqrt, so both give the same bits

def _twist_upper(d, big_l, ops=math):
    return (d / big_l) * ops.sqrt(1.0 + d * d / (16.0 * big_l * big_l))


def _combined_upper(d, bishop_c, big_l, ops=math):
    return d * (3.0 * bishop_c
                + ops.sqrt(1.0 + d * d / (16.0 * big_l * big_l)) / big_l)


def _reverse_upper(log_k, bishop_c):
    return (2.0 + 3.0 * bishop_c) * log_k


def twist_change_bound(d: float,
                       assumptions: BoundAssumptions) -> BoundReport:
    """Dilatation bound for equal lengths, twists within coordinate
    distance d: a shear of the collar cylinder gives
    log K <= (d / L(N)) sqrt(1 + d^2 / (16 L(N)^2))."""
    if not d >= 0.0:
        raise DomainError(f"distance must be >= 0, got {d}")
    return BoundReport(
        quantity="log_dilatation_twist_change",
        lower=None,
        upper=_twist_upper(d, assumptions.l_of_cap),
        assumptions=assumptions.with_distance(d).as_dict(),
        provenance=("collar shear: log K <= "
                    "(d/L(N))*sqrt(1 + d^2/(16 L(N)^2))"),
        notes=(CYLINDER_LENGTH_NOTE,))


def combined_qc_upper(d: float,
                      assumptions: BoundAssumptions) -> BoundReport:
    """Composite of the length-change and twist-change maps:
    log K <= d [3 C(N) + (1/L(N)) sqrt(1 + d^2 / (16 L(N)^2))].
    Dominates each single-route bound at the same d."""
    if not d >= 0.0:
        raise DomainError(f"distance must be >= 0, got {d}")
    return BoundReport(
        quantity="log_dilatation_combined",
        lower=None,
        upper=_combined_upper(d, assumptions.bishop_c, assumptions.l_of_cap),
        assumptions=assumptions.with_distance(d).as_dict(),
        provenance=("length-change then twist-change composite: log K <= "
                    "d*[3*C(N) + (1/L(N))*sqrt(1 + d^2/(16 L(N)^2))]"),
        notes=(CYLINDER_LENGTH_NOTE,))


def fn_from_qc_upper(log_k: float,
                     assumptions: BoundAssumptions) -> BoundReport:
    """Reverse direction: a map of dilatation K between capped structures
    forces coordinate distance d <= (2 + 3 C(N)) log K."""
    if not log_k >= 0.0:
        raise DomainError(f"log K must be >= 0, got {log_k}")
    return BoundReport(
        quantity="coordinate_distance_from_dilatation",
        lower=None,
        upper=_reverse_upper(log_k, assumptions.bishop_c),
        assumptions=assumptions.as_dict(),
        provenance=("triangle route through the equal-length structure: "
                    "d <= (2 + 3*C(N))*log K"),
        notes=(CYLINDER_LENGTH_NOTE,))


class SandwichReport(NamedTuple):
    forward: BoundReport            # log K from d
    inverse_constant: float         # d per unit log K
    forward_lipschitz: float        # log K per unit d at this d
    inverse_lipschitz: float
    consistent: bool                # d <= inverse applied to forward
    notes: tuple[str, ...]


def bilipschitz_sandwich(d: float,
                         assumptions: BoundAssumptions) -> SandwichReport:
    """Both directions at once: the combined upper bound on log K and the
    reverse constant (2 + 3 C(N)), with the implied local Lipschitz
    constants.  Consistency means the sandwich can never be empty:
    feeding the forward bound back through the reverse one recovers at
    least d."""
    forward = combined_qc_upper(d, assumptions)
    inv = 2.0 + 3.0 * assumptions.bishop_c
    fwd_lip = forward.upper / d if d > 0.0 else (
        3.0 * assumptions.bishop_c + 1.0 / assumptions.l_of_cap)
    consistent = inv * forward.upper >= d
    return SandwichReport(
        forward=forward,
        inverse_constant=inv,
        forward_lipschitz=fwd_lip,
        inverse_lipschitz=inv,
        consistent=consistent,
        notes=(CYLINDER_LENGTH_NOTE,))
