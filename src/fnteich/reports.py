"""Check records, verification reports and the value-type base.

A VerificationReport is the sink every grid- or case-level inequality
checker in this package writes into.  Checks arrive as slabs through
check_many: n input tuples by k check names, with one lhs and rhs per
cell; check is its one-row, one-name form.  check_many is the report's
one bookkeeping path.  It streams: each comparison of lhs against rhs
updates the check count and the minimum slack lhs - rhs, is written as
one CSV row when the report has a writer, and is kept as a CheckRecord
only if it fails, so big grids never hold every record.  Output is
deterministic: failures are sorted by name and input tuple, and the
only time-dependent line is the trailing wall-time comment.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import MappingProxyType


class Validated:
    """Base of the immutable value types, mixed into a namedtuple
    subclass (with `__slots__ = ()`) whose __new__ validates its
    arguments and computes the fields named in `_derived`.  _make,
    _replace and unpickling go through __new__ as well, which recomputes
    the derived fields; _replace refuses to set one."""

    __slots__ = ()
    _derived = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*[v for f, v in zip(cls._fields, iterable, strict=True)
                     if f not in cls._derived])

    def _replace(self, /, **changes):
        if not changes.keys().isdisjoint(self._derived):
            raise ValueError(f"the derived fields {self._derived} of "
                             f"{type(self).__name__} cannot be replaced")
        return super()._replace(**changes)

    def __reduce__(self):
        return type(self), tuple(v for f, v in zip(self._fields, self)
                                 if f not in self._derived)


# a failed comparison, with the signed slack lhs - rhs
CheckRecord = namedtuple("CheckRecord", "name inputs lhs rhs slack")


class VerificationReport:
    def __init__(self, title, grid_desc="", csv_writer=None):
        self.title = title
        self.grid_desc = grid_desc
        self.csv_writer = csv_writer
        self.total = 0
        self.skipped = 0
        self.failures: list[CheckRecord] = []
        self.min_slack = math.inf
        self.notes: list[str] = []
        self.wall_time = 0.0

    def check(self, name, inputs, lhs, rhs, tol=0.0) -> bool:
        """Record lhs >= rhs - tol as a one-row, one-name check_many;
        returns whether it held."""
        return bool(self.check_many((name,), (inputs,), lhs, rhs, tol)[0, 0])

    def check_many(self, names, inputs, lhs, rhs, tol=0.0):
        """Record lhs[i, j] >= rhs[i, j] - tol for the n input tuples
        `inputs` (rows i) and the k check `names` (columns j); lhs, rhs
        and tol broadcast to shape (n, k).  Counts, failures, min_slack
        and CSV rows come out as if the n * k checks were recorded one
        at a time in row-major order.  Returns the (n, k) mask of checks
        that held.  This is the one place a report counts checks, tracks
        min_slack, records failures and writes CSV rows."""
        import numpy as np

        shape = (len(inputs), len(names))
        if 0 in shape:
            return np.ones(shape, dtype=bool)
        # assignment broadcasts faster than broadcast_to on small slabs
        cells = np.empty((2, *shape))
        cells[0], cells[1] = lhs, rhs
        lhs, rhs = cells
        with np.errstate(all="ignore"):
            slack = lhs - rhs
            passed = slack >= -np.asarray(tol, dtype=np.float64)
        self.total += slack.size
        finite = slack[np.isfinite(slack)]
        if finite.size:
            # the first minimiser, so that of 0.0 and -0.0 the earlier
            # one is kept, as a running min() would
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

    def render(self) -> str:
        lines = [f"suite {self.title}",
                 f"grid {self.grid_desc}",
                 f"checks {self.total}",
                 f"skipped {self.skipped}",
                 f"failures {len(self.failures)}"]
        for rec in sorted(self.failures, key=lambda r: (r.name, r.inputs)):
            ins = " ".join(f"{v:g}" if isinstance(v, float) else str(v)
                           for v in rec.inputs)
            lines.append(f"fail {rec.name} inputs [{ins}] lhs {rec.lhs!r} "
                         f"rhs {rec.rhs!r} slack {rec.slack!r}")
        ms = self.min_slack
        lines.append(f"min_slack {repr(ms) if math.isfinite(ms) else 'inf'}")
        for note in self.notes:
            lines.append(f"note {note}")
        lines.append(f"status {'PASS' if self.passed else 'FAIL'}")
        lines.append(f"# wall_time_s {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


class BoundReport(Validated, namedtuple(
        "BoundReport", "quantity lower upper assumptions provenance notes "
        "details")):
    """A certified one-sided or two-sided bound on a named quantity,
    together with the assumptions it was derived under (a read-only
    mapping) and a provenance string naming the estimate used."""

    __slots__ = ()

    def __new__(cls, quantity, lower, upper, assumptions, provenance,
                notes=(), details=()):
        if lower is not None and upper is not None and not lower <= upper:
            raise ValueError(
                f"bound interval is empty: lower {lower} > "
                f"upper {upper} for {quantity}")
        return tuple.__new__(cls, (quantity, lower, upper,
                                   MappingProxyType(dict(assumptions)),
                                   provenance, notes, details))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; its dict can
        return BoundReport, (*self[:3], dict(self.assumptions), *self[4:])
