"""Check records and verification reports.

A VerificationReport is the sink every grid- or case-level inequality
checker in this package writes into.  It streams: each comparison of lhs
against rhs updates the check count and the minimum slack lhs - rhs, is
written as one CSV row when the report has a writer, and is kept as a
CheckRecord only if it fails, so big grids never hold every record.
Output is deterministic: failures are sorted by name and input tuple,
and the only time-dependent line is the trailing wall-time comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class CheckRecord:
    """A failed comparison, with the signed slack lhs - rhs."""

    name: str
    inputs: tuple
    lhs: float
    rhs: float
    slack: float


@dataclass
class VerificationReport:
    title: str
    grid_desc: str = ""
    csv_writer: object = None
    total: int = 0
    skipped: int = 0
    failures: list[CheckRecord] = field(default_factory=list)
    min_slack: float = math.inf
    notes: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def check(self, name, inputs, lhs, rhs, tol=0.0) -> bool:
        """Record lhs >= rhs - tol; returns whether it held."""
        slack = lhs - rhs
        self.total += 1
        if math.isfinite(slack):
            self.min_slack = min(self.min_slack, slack)
        passed = slack >= -tol
        if not passed:
            self.failures.append(
                CheckRecord(name, tuple(inputs), lhs, rhs, slack))
        if self.csv_writer is not None:
            self.csv_writer.writerow((name,
                                      " ".join(repr(v) for v in inputs),
                                      repr(lhs), repr(rhs), repr(slack)))
        return passed

    def check_many(self, names, inputs, lhs, rhs, tol=0.0):
        """Record lhs[i, j] >= rhs[i, j] - tol for the n input tuples
        `inputs` (rows i) and the k check `names` (columns j); lhs, rhs
        and tol broadcast to shape (n, k).  Counts, failures, min_slack
        and CSV rows come out as from n * k calls to check in row-major
        order.  Returns the (n, k) mask of checks that held."""
        import numpy as np

        shape = (len(inputs), len(names))
        if 0 in shape:
            return np.ones(shape, dtype=bool)
        lhs = np.broadcast_to(np.asarray(lhs, dtype=np.float64), shape)
        rhs = np.broadcast_to(np.asarray(rhs, dtype=np.float64), shape)
        with np.errstate(all="ignore"):
            slack = lhs - rhs
            passed = slack >= -np.asarray(tol, dtype=np.float64)
        self.total += slack.size
        finite = slack[np.isfinite(slack)]
        if finite.size:
            # the first minimiser, so that of 0.0 and -0.0 the earlier
            # one is kept, as min() does in check
            self.min_slack = min(self.min_slack,
                                 float(finite[np.argmin(finite)]))
        for i, j in zip(*np.nonzero(~passed)):
            self.failures.append(CheckRecord(
                names[j], tuple(inputs[i]), float(lhs[i, j]),
                float(rhs[i, j]), float(slack[i, j])))
        if self.csv_writer is not None:
            self.csv_writer.writerows(
                (name, ins, repr(l), repr(r), repr(s))
                for ins, lrow, rrow, srow in zip(
                    (" ".join(repr(v) for v in row) for row in inputs),
                    lhs.tolist(), rhs.tolist(), slack.tolist())
                for name, l, r, s in zip(names, lrow, rrow, srow))
        return passed

    def skip(self):
        """Count a check that does not apply (for example at a cusp)."""
        self.skipped += 1

    def note(self, text):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self, fmt=repr) -> str:
        lines = [f"suite {self.title}",
                 f"grid {self.grid_desc}",
                 f"checks {self.total}",
                 f"skipped {self.skipped}",
                 f"failures {len(self.failures)}"]
        for rec in sorted(self.failures, key=lambda r: (r.name, r.inputs)):
            ins = " ".join(f"{v:g}" if isinstance(v, float) else str(v)
                           for v in rec.inputs)
            lines.append(f"fail {rec.name} inputs [{ins}] lhs "
                         f"{fmt(rec.lhs)} rhs {fmt(rec.rhs)} slack "
                         f"{fmt(rec.slack)}")
        ms = self.min_slack
        lines.append(f"min_slack {fmt(ms) if math.isfinite(ms) else 'inf'}")
        for note in self.notes:
            lines.append(f"note {note}")
        lines.append(f"status {'PASS' if self.passed else 'FAIL'}")
        lines.append(f"# wall_time_s {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundReport:
    """A certified one-sided or two-sided bound on a named quantity,
    together with the assumptions it was derived under and a provenance
    string naming the estimate used."""

    quantity: str
    lower: float | None
    upper: float | None
    assumptions: Mapping[str, float]
    provenance: str
    notes: tuple[str, ...] = ()
    details: tuple = ()

    def __post_init__(self):
        if (self.lower is not None and self.upper is not None
                and not self.lower <= self.upper):
            raise ValueError(
                f"bound interval is empty: lower {self.lower} > "
                f"upper {self.upper} for {self.quantity}")
        object.__setattr__(self, "assumptions",
                           MappingProxyType(dict(self.assumptions)))
