"""Fenchel-Nielsen coordinate windows, the coordinate distance, the
sup-norm embedding, pants graphs, and the line-oriented file formats.

A hyperbolic structure relative to a fixed pants decomposition is
modelled purely by its per-curve (length, twist) data.  Twists follow the
angle convention: a full positive Dehn twist adds 2*pi, values are real
(never reduced mod 2*pi), and boundary curves carry no twist at all.
Infinite structures are represented by generators evaluated on finite
index windows; every supremum is reported together with an exactness
flag, so truncation is never silent.

File formats (version-tagged first line):

    fnstruct v1            one `index length twist` line per curve,
                           twist `-` for boundary curves, indices 1..N
    generator v1 kind=<kind> n=<integer>
                           a one-line generator spec
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FormatError, UsageError
from .reports import Validated, VerificationReport

FULL_TWIST = 2.0 * math.pi

# The override rule of each generator kind: index -> (length, twist) as a
# function of n, over the tail (1.0, 0.0).  `constant` (None) has no
# overrides and takes its tail from the generator's (length, twist).
_OVERRIDE_RULES = {
    "constant": None,
    "ex_fn1_x": lambda n: {n: (1.0 / n, 0.0)},
    "ex_fn1_y": lambda n: {n: (1.0 / n, FULL_TWIST)},
    "ex_fn2_x": lambda n: {n: (1.0 / n, 0.0)},
    "ex_fn2_y": lambda n: {n: (1.0 / (n * n), 0.0)},
}


class FNCoordinate(Validated, namedtuple("FNCoordinate", "length twist")):
    """Per-curve coordinates: geodesic length and, for interior curves
    only, the twist angle."""

    __slots__ = ()

    def __new__(cls, length, twist):
        if not (math.isfinite(length) and length > 0.0):
            raise DomainError(f"curve length must be > 0, got {length}")
        if twist is not None and not math.isfinite(twist):
            raise DomainError(f"twist must be finite, got {twist}")
        return tuple.__new__(cls, (length, twist))

    @property
    def is_boundary(self) -> bool:
        return self.twist is None


class StructureGenerator(Validated, namedtuple(
        "StructureGenerator", "kind n length twist tail overrides")):
    """Closed-form rule producing the coordinate of every index, held as
    data: a `tail` coordinate repeated at every index, and a sorted
    `overrides` tuple of (index, FNCoordinate) that replace it.

    Kinds: `constant` repeats (length, twist); the built-in families
    `ex_fn1_x` / `ex_fn1_y` (unit lengths except 1/n at index n; twists 0,
    resp. a full twist at index n) and `ex_fn2_x` / `ex_fn2_y` (all twists
    0; length 1/n resp. 1/n^2 at index n, 1 elsewhere).  Both derived
    fields are computed once, from the kind's rule in `_OVERRIDE_RULES`.
    """

    __slots__ = ()
    _derived = ("tail", "overrides")

    def __new__(cls, kind, n=None, length=1.0, twist=0.0):
        if kind not in _OVERRIDE_RULES:
            raise UsageError(f"unknown generator kind {kind!r}; "
                             f"expected one of {tuple(_OVERRIDE_RULES)}")
        rule = _OVERRIDE_RULES[kind]
        if rule is None:
            tail, overrides = FNCoordinate(length, twist), {}
        elif isinstance(n, int) and n >= 1:
            tail, overrides = FNCoordinate(1.0, 0.0), rule(n)
        else:
            raise UsageError(f"generator {kind} needs an integer "
                             f"n >= 1, got {n}")
        return tuple.__new__(cls, (kind, n, length, twist, tail, tuple(
            (i, FNCoordinate(*overrides[i])) for i in sorted(overrides))))

    def coordinate(self, index: int) -> FNCoordinate:
        if index < 1:
            raise UsageError(f"indices are 1-based, got {index}")
        return dict(self.overrides).get(index, self.tail)

    def settle_index(self) -> int:
        """Index beyond which every coordinate equals `tail`."""
        return max((i for i, _ in self.overrides), default=1)

    def length_sup(self) -> float:
        """Supremum of the length coordinate over all indices."""
        return max([self.tail.length]
                   + [c.length for _, c in self.overrides])

    def first_length_exceeding(self, cap: float) -> int | None:
        """Smallest index whose length exceeds cap, in closed form: the
        overrides in index order, with the tail in the gaps between them
        and after the last."""
        tail_exceeds = self.tail.length > cap
        previous = 0
        for i, c in self.overrides:
            if tail_exceeds and i > previous + 1:
                return previous + 1
            if c.length > cap:
                return i
            previous = i
        return previous + 1 if tail_exceeds else None

    def spec_line(self) -> str:
        if _OVERRIDE_RULES[self.kind] is None:
            raise UsageError(
                f"generator kind {self.kind!r} has no single-line spec")
        return f"generator v1 kind={self.kind} n={self.n}"


class StructureWindow(Validated, namedtuple(
        "StructureWindow", "lengths twists boundary generator linf")):
    """Coordinates of curves 1..window_size as three read-only numpy
    columns: `lengths`, `twists` (0.0 on boundary curves) and the
    `boundary` mask, with an optional generator recording the infinite
    structure being truncated.  The constructor copies and validates the
    columns and derives `linf`, the to_linf image; `coords` is a derived
    per-curve view.  Windows compare and hash by identity, since a
    tuple comparison of array columns raises."""

    __slots__ = ()
    _derived = ("linf",)
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, lengths, twists, boundary, generator=None):
        lengths = np.array(lengths, dtype=np.float64)
        twists = np.array(twists, dtype=np.float64)
        boundary = np.array(boundary, dtype=bool)
        if not (lengths.ndim == 1 and twists.shape == lengths.shape
                and boundary.shape == lengths.shape):
            raise UsageError(
                f"window columns must be one-dimensional and of equal "
                f"length, got shapes {lengths.shape}, {twists.shape}, "
                f"{boundary.shape}")
        if not lengths.size:
            raise UsageError("a window must contain at least one curve")
        # min and max propagate NaN, so it fails both tests
        if not (lengths.min() > 0.0 and lengths.max() < math.inf):
            bad = ~((lengths > 0.0) & (lengths < math.inf))
            raise DomainError(
                f"curve length must be > 0, got {lengths[bad][0]}")
        twists[boundary] = 0.0
        if not np.isfinite(twists).all():
            bad = ~np.isfinite(twists)
            raise DomainError(f"twist must be finite, got {twists[bad][0]}")
        linf = LinfImage(np.log(lengths), lengths * twists, boundary)
        for column in (lengths, twists, *linf):
            column.flags.writeable = False
        return tuple.__new__(cls, (lengths, twists, boundary, generator,
                                   linf))

    @classmethod
    def from_table(cls, coords) -> "StructureWindow":
        return cls(*_columns(coords))

    @classmethod
    def from_generator(cls, gen: StructureGenerator,
                       window: int) -> "StructureWindow":
        if window < 1:
            raise UsageError(f"window must be >= 1, got {window}")
        columns = [np.full(window, value)
                   for (value,) in _columns([gen.tail])]
        inside = [(i, c) for i, c in gen.overrides if i <= window]
        rows = [i - 1 for i, _ in inside]
        for column, values in zip(columns, _columns(c for _, c in inside)):
            column[rows] = values
        return cls(*columns, generator=gen)

    @property
    def coords(self) -> tuple[FNCoordinate, ...]:
        return tuple(FNCoordinate(l, None if b else t) for l, t, b in
                     zip(self.lengths.tolist(), self.twists.tolist(),
                         self.boundary.tolist()))

    @property
    def window_size(self) -> int:
        return len(self.lengths)

    def truncated(self, window: int) -> "StructureWindow":
        if not 1 <= window <= self.window_size:
            raise UsageError(
                f"window {window} not in 1..{self.window_size}")
        return StructureWindow(self.lengths[:window], self.twists[:window],
                               self.boundary[:window], self.generator)


def _columns(coords):
    """(lengths, twists, boundary) lists of a sequence of FNCoordinate."""
    coords = tuple(coords)
    return ([c.length for c in coords],
            [0.0 if c.twist is None else c.twist for c in coords],
            [c.is_boundary for c in coords])


class FNDistanceResult(NamedTuple):
    value: float
    exactness: str          # "exact" or "window-truncated"
    attained_index: int


def _check_aligned(x: StructureWindow, y: StructureWindow):
    if x.window_size != y.window_size:
        raise UsageError(f"window sizes differ: {x.window_size} vs "
                         f"{y.window_size}")
    if (x.boundary != y.boundary).any():
        raise UsageError("boundary/interior patterns differ between windows")


def _embedded(kind: str, w: StructureWindow):
    """The two columns of w that the metric `kind` compares: the to_linf
    columns (log length, length * twist) for fn; raw_length and
    raw_twist replace one of them by the raw length or the raw twist."""
    return (w.lengths if kind == "raw_length" else w.linf.log_length,
            w.twists if kind == "raw_twist" else w.linf.length_times_twist)


def _sup_terms(ex, ey) -> np.ndarray:
    """Per-curve terms max(|u_x - u_y|, |v_x - v_y|) of two column pairs
    ex = (u_x, v_x) and ey = (u_y, v_y) on one boundary pattern.  Both v
    columns hold 0.0 on boundary curves (windows zero the twists
    there), so the term is the u term alone on those curves."""
    (ux, vx), (uy, vy) = ex, ey
    return np.maximum(np.abs(ux - uy), np.abs(vx - vy))


def _terms(x: StructureWindow, y: StructureWindow, kind: str) -> np.ndarray:
    """Per-curve terms of the metric `kind` on aligned windows.  The fn
    terms are the sup-norm terms of the to_linf images, so the
    embedding identity holds exactly."""
    return _sup_terms(_embedded(kind, x), _embedded(kind, y))


def _exactness(x: StructureWindow, y: StructureWindow, window_sup: float,
               kind: str) -> str:
    if x.generator is None and y.generator is None:
        return "exact"
    gx, gy = x.generator, y.generator
    if (gx is None or gy is None
            or max(gx.settle_index(), gy.settle_index()) > x.window_size):
        return "window-truncated"
    # the term past the settle index, from a window of the two tails: its
    # columns go through the windows' numpy log and product, so a tail
    # term that ties the window supremum compares equal to it
    u, v = _embedded(kind, StructureWindow.from_table([gx.tail, gy.tail]))
    tail = _sup_terms((u[:1], v[:1]), (u[1:], v[1:]))[0]
    return "exact" if tail <= window_sup else "window-truncated"


def fn_distance(x: StructureWindow, y: StructureWindow) -> FNDistanceResult:
    """Coordinate distance sup_i max(|log(l_x/l_y)|,
    |l_x theta_x - l_y theta_y|) over the window (length term only on
    boundary curves).  The flag is "exact" when the window provably
    attains the full supremum: both windows literal, or both generated
    and settled inside the window with a tail term no larger than the
    window's supremum."""
    return _distance(x, y, "fn")


def fn_distance_variant(x: StructureWindow, y: StructureWindow,
                        kind: str) -> FNDistanceResult:
    """Variant metrics kept for comparison: `raw_twist` replaces the
    weighted twist term by |theta_x - theta_y|; `raw_length` replaces the
    log-ratio term by |l_x - l_y|.  Both behave badly on the built-in
    families, which is the reason the weighted form is the metric."""
    if kind not in ("raw_twist", "raw_length"):
        raise UsageError(f"unknown variant {kind!r}; expected raw_twist "
                         "or raw_length")
    return _distance(x, y, kind)


def _distance(x, y, kind):
    _check_aligned(x, y)
    terms = _terms(x, y, kind)
    i = int(terms.argmax())     # the first maximiser
    best = float(terms[i])
    return FNDistanceResult(best, _exactness(x, y, best, kind), i + 1)


def fn_distance_blocks(x: StructureWindow, y: StructureWindow,
                       starts) -> np.ndarray:
    """The fn distance of each block [starts[k], starts[k+1]) of two
    aligned literal windows (the last block runs to the window's end),
    as one maximum.reduceat over the terms fn_distance reads, so each
    value equals fn_distance on that block's windows bit for bit.
    `starts` are 0-based, begin at 0 and strictly increase.  Generated
    windows are refused: a block of a truncated structure has no
    exactness flag."""
    _check_aligned(x, y)
    if x.generator is not None or y.generator is not None:
        raise UsageError("block distances need literal windows; a block "
                         "of a generated window has no exactness flag")
    index = np.asarray(starts)
    if not (index.ndim == 1 and index.size
            and index.dtype.kind in "iu"):
        raise UsageError(f"block starts must be a non-empty integer "
                         f"sequence, got {starts!r}")
    if index[0] != 0:
        raise UsageError(f"block starts must begin at 0, got {index[0]}")
    if not (index[1:] > index[:-1]).all():
        raise UsageError("block starts must be strictly increasing")
    if index[-1] >= x.window_size:
        raise UsageError(f"block start {index[-1]} is past the window of "
                         f"{x.window_size} curves")
    return np.maximum.reduceat(_terms(x, y, "fn"), index)


class LinfImage(NamedTuple):
    """Sequence-space image of a window: read-only columns of the log
    lengths, the products length * twist (0.0 on boundary curves, which
    have no second component) and the boundary mask."""

    log_length: np.ndarray
    length_times_twist: np.ndarray
    boundary: np.ndarray


def to_linf(x: StructureWindow) -> LinfImage:
    """Embed a window into the sequence space: index i maps to
    (log length, length * twist), with no second component on boundary
    curves.  The image is computed once per window, and fn_distance
    reads the same columns, so the sup-norm distance of two embedded
    windows equals fn_distance by construction."""
    return x.linf


def supnorm_distance(ex: LinfImage, ey: LinfImage) -> float:
    """Sup-norm distance between two to_linf images."""
    if ex.boundary.shape != ey.boundary.shape:
        raise UsageError("embedded sequences differ in length")
    if (ex.boundary != ey.boundary).any():
        raise UsageError("boundary patterns differ")
    return float(_sup_terms(ex[:2], ey[:2]).max(initial=0.0))


class UpperBoundResult(NamedTuple):
    bounded: bool
    witness_index: int | None    # first index with length > cap
    length_sup: float
    implies_complete: bool       # a bounded structure is complete


def is_upper_bounded(obj, cap: float) -> UpperBoundResult:
    """Whether every curve length is <= cap.  Windows are scanned
    exhaustively; generators answer in closed form over the whole
    infinite index set."""
    if not cap > 0.0:
        raise DomainError(f"cap must be > 0, got {cap}")
    if isinstance(obj, StructureWindow):
        over = obj.lengths > cap
        witness = int(np.argmax(over)) + 1 if over.any() else None
        return UpperBoundResult(witness is None, witness,
                                float(obj.lengths.max()),
                                implies_complete=witness is None)
    if isinstance(obj, StructureGenerator):
        witness = obj.first_length_exceeding(cap)
        return UpperBoundResult(witness is None, witness, obj.length_sup(),
                                implies_complete=witness is None)
    raise UsageError(f"expected a StructureWindow or StructureGenerator, "
                     f"got {type(obj).__name__}")


class WolpertResult(NamedTuple):
    passed: bool
    slack: float        # log K - |log(lx/ly)|


def wolpert_check(lx: float, ly: float, k: float) -> WolpertResult:
    """Wolpert's length distortion bound for a K-quasiconformal map,
    applied in both directions: passes iff ly <= K lx and lx <= K ly,
    equivalently |log(lx/ly)| <= log K."""
    if not k >= 1.0:
        raise DomainError(f"dilatation must be >= 1, got {k}")
    if not (lx > 0.0 and ly > 0.0):
        raise DomainError(f"lengths must be > 0, got {lx}, {ly}")
    passed = ly <= k * lx and lx <= k * ly
    slack = math.log(k) - abs(math.log(lx) - math.log(ly))
    return WolpertResult(passed, slack)


CUSP = None   # slot marker for a puncture


class PantsGraph(Validated, namedtuple("PantsGraph",
                                       "pants boundary_curves")):
    """Combinatorial pants decomposition: each pants node has exactly
    three slots, each slot holding a curve id or the cusp marker (None).
    Interior curves occupy two slots, boundary curves one; without
    `boundary_curves` the curves of one slot are the boundary."""

    __slots__ = ()

    def __new__(cls, pants, boundary_curves=None):
        pants = tuple(tuple(p) for p in pants)
        if boundary_curves is None:
            slots = tuple.__new__(cls, (pants, None)).curve_slots()
            boundary_curves = (c for c, s in slots.items() if len(s) == 1)
        return tuple.__new__(cls, (pants, frozenset(boundary_curves)))

    def curve_slots(self) -> dict:
        """curve id -> tuple of (pants index, slot index) occurrences."""
        slots = {}
        for pi, node in enumerate(self.pants):
            for si, slot in enumerate(node):
                if slot is not CUSP:
                    slots.setdefault(slot, []).append((pi, si))
        return {c: tuple(v) for c, v in slots.items()}


def validate_pants_graph(g: PantsGraph) -> VerificationReport:
    """Structural validation: three slots per pants, one or two slots per
    curve, boundary flags consistent with slot counts.  Failures name the
    offending pants or curve id."""
    report = VerificationReport("pants graph structure")
    for pi, node in enumerate(g.pants):
        if not report.check(f"pants[{pi}]_has_three_slots", (pi,),
                            -abs(float(len(node) - 3)), 0.0):
            report.note(f"pants {pi} has {len(node)} slots")
            return report
    slots = g.curve_slots()
    for curve in sorted(slots, key=str):
        n = len(slots[curve])
        if not report.check(f"curve[{curve}]_slot_count_in_1_2",
                            (str(curve),), float(min(n - 1, 2 - n)), 0.0):
            report.note(f"curve {curve} referenced by {n} slots")
        expected = 1 if curve in g.boundary_curves else 2
        if not report.check(f"curve[{curve}]_boundary_flag_consistent",
                            (str(curve),), -abs(float(n - expected)), 0.0):
            report.note(f"curve {curve}: {n} slots but boundary flag "
                        f"expects {expected}")
    return report


# ---------------------------------------------------------------------
# file formats


def format_structure_file(w: StructureWindow) -> str:
    lines = ["fnstruct v1"]
    for i, (length, twist, boundary) in enumerate(
            zip(w.lengths.tolist(), w.twists.tolist(), w.boundary.tolist()),
            start=1):
        lines.append(f"{i} {length!r} {'-' if boundary else repr(twist)}")
    return "\n".join(lines) + "\n"


def parse_structure_text(text: str, path=None) -> StructureWindow:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "fnstruct v1":
        raise FormatError("expected header 'fnstruct v1'", path, 1)
    lengths, twists, boundary = [], [], []
    prev_index = 0
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(
                f"expected 'index length twist', got {line!r}", path, ln)
        try:
            index = int(parts[0])
        except ValueError:
            raise FormatError(f"bad index {parts[0]!r}", path, ln) from None
        if index != prev_index + 1:
            raise FormatError(
                f"indices must be consecutive from 1; got {index} after "
                f"{prev_index}", path, ln)
        prev_index = index
        try:
            length = float(parts[1])
        except ValueError:
            raise FormatError(f"bad length {parts[1]!r}", path, ln) from None
        if not length > 0.0:
            raise FormatError(f"length must be > 0, got {length}", path, ln)
        lengths.append(length)
        boundary.append(parts[2] == "-")
        try:
            twists.append(0.0 if boundary[-1] else float(parts[2]))
        except ValueError:
            raise FormatError(f"bad twist {parts[2]!r}", path, ln) from None
    if not lengths:
        raise FormatError("no coordinate lines", path, len(lines))
    return StructureWindow(lengths, twists, boundary)


def parse_structure_file(path) -> StructureWindow | StructureGenerator:
    """The window of an `fnstruct v1` file, or the generator of a
    `generator v1` spec; the file's header line decides."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path) from None
    if text.startswith("generator"):
        return parse_generator_line(text, path=path)
    return parse_structure_text(text, path=path)


def parse_generator_line(line: str, path=None) -> StructureGenerator:
    parts = line.strip().split()
    if (len(parts) != 4 or parts[0] != "generator" or parts[1] != "v1"
            or "\n" in line.strip()):
        raise FormatError(
            "expected 'generator v1 kind=<kind> n=<integer>'", path, 1)
    fields = {}
    for part in parts[2:]:
        if "=" not in part:
            raise FormatError(f"bad field {part!r}", path, 1)
        key, value = part.split("=", 1)
        fields[key] = value
    if set(fields) != {"kind", "n"}:
        raise FormatError(f"expected fields kind and n, got "
                          f"{sorted(fields)}", path, 1)
    try:
        n = int(fields["n"])
    except ValueError:
        raise FormatError(f"bad n {fields['n']!r}", path, 1) from None
    kind = fields["kind"]
    if kind in _OVERRIDE_RULES and _OVERRIDE_RULES[kind] is None:
        raise FormatError(f"generator kind {kind!r} has no single-line "
                          f"spec", path, 1)
    return StructureGenerator(kind=kind, n=n)
