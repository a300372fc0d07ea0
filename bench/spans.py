"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent, count): `parent` is the index
of the enclosing span (-1 at the top) and `count` the number of calls the
span covers, so that a batch of cheap kernel calls can be timed as one
span instead of paying the timer once per call.  Spans are recorded from
the benchmark's side, around calls into the program's public functions;
`patch` swaps a module attribute for a recording wrapper and `restore`
puts the originals back.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter_ns

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stand-in used by untraced runs: spans cost one method call."""

    enabled = False

    def span(self, name, count=1):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tr = self.tracer
        self.record[3] = tr.stack[-1] if tr.stack else -1
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record[1] = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent, count]
        self.stack = []
        self.values = {}     # name -> durations measured outside this process
        self._patched = []

    def span(self, name, count=1):
        return _Span(self, [name, 0, 0, -1, count])

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, attr, name):
        """Record a span around every call of owner.attr.  Works for
        module functions, classmethods and entries of a dict."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original)
        else:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def add_value(self, name, seconds):
        self.values.setdefault(name, []).append(seconds)

    # ------------------------------------------------------------------

    def durations(self, name):
        """Per-call durations in seconds of every span called `name`."""
        return [(end - start) / count / 1e9
                for n, start, end, _, count in self.spans if n == name]

    def median(self, name):
        values = self.durations(name) + self.values.get(name, [])
        return statistics.median(values) if values else None

    def summary(self):
        """Per span name: spans, calls, total and self time (ms).  A
        span's self time is its duration minus that of its children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, count) in enumerate(self.spans):
            row = out.setdefault(name, {"spans": 0, "calls": 0,
                                        "total_ms": 0.0, "self_ms": 0.0})
            row["spans"] += 1
            row["calls"] += count
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def write(self, path, header):
        """One JSON line of header and summary, then one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "summary": self.summary(),
                                 "external_s": self.values}) + "\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, count])
                         + "\n")
