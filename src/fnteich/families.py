"""Built-in structure families and the chained-pants surface.

Two families of coordinate pairs probe the metric: `fn1` pairs differ by
one full twist on a curve whose length shrinks like 1/n (the coordinate
distance 2*pi/n tends to zero while the raw twist difference stays 2*pi);
`fn2` pairs have a length shrinking like 1/n against 1/n^2 (the
coordinate distance log n blows up while the raw length difference tends
to zero).

The chained-pants surface glues, for every n, a block X_n made of two
pants with a cusp and boundary lengths 1 and n (glued along the length-n
curve, zero twist), the blocks chained along their length-1 curves.  Its
defining decomposition has unbounded lengths; re-cutting each block along
the doubled shortest arc from the length-n curve to itself produces a
decomposition whose lengths stay bounded, since
cosh(arc(n)) = coth(n) + cosh(1)/sinh(n) decreases to 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError
from .fnspace import CUSP, PantsGraph, StructureGenerator, StructureWindow
from .hyperbolic import arcosh1p


COTH1_SQ = 1.0 / math.tanh(1.0) ** 2


class ArcLengthResult(NamedTuple):
    cosh_sq: float          # cosh^2 of the arc length
    length: float
    bound_3coth: float      # 3 coth(1)^2, fails at n = 1
    bound_4coth: float      # 4 coth(1)^2, the actual supremum (at n = 1)


def pants1_arc_excess(n: np.ndarray) -> np.ndarray:
    """cosh of the pants1 arc minus 1, coth n - 1 + cosh 1 / sinh n, for
    a float64 array of n >= 1.  With e = e^-n it is written as
    2 e (e + cosh 1) / (1 - e^2), a product of positive terms that
    stays finite and keeps full relative accuracy for very large n.
    Computed in place: n is overwritten by the result, which is
    returned, and at most two more arrays of its size are live."""
    den = np.multiply(-2.0, n)
    np.expm1(den, out=den)              # e^2 - 1
    excess = np.negative(n, out=n)
    np.exp(excess, out=excess)          # e
    shifted = np.add(excess, math.cosh(1.0))
    excess *= shifted
    del shifted
    excess *= -2.0
    excess /= den
    return excess


def _arc_length(n, excess) -> float:
    """arcosh(1 + excess) at n; past n = 700, where e^-n turns
    subnormal, its asymptotic form 2 sqrt(cosh 1) e^(-n/2)."""
    if n > 700:
        return 2.0 * math.sqrt(math.cosh(1.0)) * math.exp(-n / 2.0)
    return arcosh1p(excess)


def pants1_arc_length(n: int) -> ArcLengthResult:
    """Shortest arc from the length-n boundary of the (cusp, 1, n) pants
    to itself, passing between the cusp and the length-1 boundary:
    cosh^2 l = coth^2 n + cosh^2 1 / sinh^2 n + 2 coth n cosh 1 / sinh n,
    i.e. cosh l = coth n + cosh 1 / sinh n.  Decreasing in n; the value
    at n = 1 is exactly 4 coth^2 1 (each cross term collapses to a power
    of coth 1), so the often-quoted cap 3 coth^2 1 fails there -- both
    candidate caps are returned for comparison."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n}")
    excess = float(pants1_arc_excess(np.array([n], dtype=np.float64))[0])
    base = 1.0 + excess
    return ArcLengthResult(cosh_sq=base * base, length=_arc_length(n, excess),
                           bound_3coth=3.0 * COTH1_SQ,
                           bound_4coth=4.0 * COTH1_SQ)


def make_fn_pair(kind: str, n: int, window: int
                 ) -> tuple[StructureWindow, StructureWindow]:
    """The n-th pair of the fn1 or fn2 family on the given index window
    (window >= n so the differing index is visible)."""
    if kind not in ("fn1", "fn2"):
        raise UsageError(f"kind must be fn1 or fn2, got {kind!r}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n}")
    if window < n:
        raise UsageError(f"window {window} must be >= n = {n}")
    gx = StructureGenerator(kind=f"ex_{kind}_x", n=n)
    gy = StructureGenerator(kind=f"ex_{kind}_y", n=n)
    return (StructureWindow.from_generator(gx, window),
            StructureWindow.from_generator(gy, window))


class ChainedPantsModel(NamedTuple):
    """Truncation to blocks 1..n_max of the chained-pants surface, with
    both decompositions.

    Curve ids: `glue<n>` is the interior curve of length n inside block
    n; `link<k>` joins block k to block k+1 (length 1), with link0 and
    link<n_max> the two boundary curves of the truncation; `cut<n>` is
    the re-cut curve of block n, carrying the arc length of
    pants1_arc_length(n).
    """

    n_max: int
    graph: PantsGraph
    recut_graph: PantsGraph
    original_lengths: tuple[tuple[str, float], ...]
    recut_lengths: tuple[tuple[str, float], ...]

    def original_window(self) -> StructureWindow:
        return _length_window(self.original_lengths,
                              self.graph.boundary_curves)

    def recut_window(self) -> StructureWindow:
        return _length_window(self.recut_lengths,
                              self.recut_graph.boundary_curves)

    def first_unbounded_witness(self, cap: float) -> str:
        """Curve of the defining decomposition exceeding any cap: the
        glue curve of block floor(cap) + 1 has length > cap, whatever the
        truncation.  Certifies non-boundedness by schedule, not search."""
        if not cap > 0.0:
            raise DomainError(f"cap must be > 0, got {cap}")
        return f"glue{int(math.floor(cap)) + 1}"


def _length_window(named_lengths, boundary_ids) -> StructureWindow:
    return StructureWindow([length for _, length in named_lengths],
                           [0.0] * len(named_lengths),
                           [name in boundary_ids for name, _ in named_lengths])


def pants1_graph(n_max: int) -> ChainedPantsModel:
    """Build the truncated chained-pants surface.

    Block n is two pants glued along glue<n>:
        (cusp, glue<n>, link<n-1>) and (cusp, glue<n>, link<n>).
    Re-cutting block n along cut<n> instead gives
        (cusp, link<n-1>, cut<n>) and (cusp, cut<n>, link<n>).
    Both graphs validate; the original length assignment is unbounded in
    n (glue<n> has length n), the re-cut one is bounded by
    max(1, arc(1)).
    """
    if not (isinstance(n_max, int) and n_max >= 1):
        raise DomainError(f"n_max must be an integer >= 1, got {n_max}")
    pants = []
    recut_pants = []
    for n in range(1, n_max + 1):
        pants.append((CUSP, f"glue{n}", f"link{n - 1}"))
        pants.append((CUSP, f"glue{n}", f"link{n}"))
        recut_pants.append((CUSP, f"link{n - 1}", f"cut{n}"))
        recut_pants.append((CUSP, f"cut{n}", f"link{n}"))
    boundary = frozenset({"link0", f"link{n_max}"})
    graph = PantsGraph(tuple(pants), boundary)
    recut_graph = PantsGraph(tuple(recut_pants), boundary)

    original = []
    recut = []
    excess = pants1_arc_excess(np.arange(1, n_max + 1, dtype=np.float64))
    for n, u in enumerate(excess.tolist(), start=1):
        original.append((f"glue{n}", float(n)))
        recut.append((f"cut{n}", _arc_length(n, u)))
    for k in range(0, n_max + 1):
        original.append((f"link{k}", 1.0))
        recut.append((f"link{k}", 1.0))
    return ChainedPantsModel(
        n_max=n_max, graph=graph, recut_graph=recut_graph,
        original_lengths=tuple(original), recut_lengths=tuple(recut))


def format_pants_graph(g: PantsGraph, title: str) -> str:
    """Deterministic text form of a pants graph."""
    lines = [f"pantsgraph v1 {title}"]
    for pi, node in enumerate(g.pants):
        slots = " ".join("cusp" if s is CUSP else f"curve:{s}"
                         for s in node)
        lines.append(f"pants {pi} {slots}")
    for c in sorted(g.boundary_curves, key=str):
        lines.append(f"boundary {c}")
    return "\n".join(lines) + "\n"
