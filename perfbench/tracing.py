"""In-memory spans recorded by the benchmark around its calls into the package.

A span has a name of the form ``module.function``, a start and an end on the
``time.perf_counter`` clock, the id of the span that was open when it began
(its parent) and the id of the operation it belongs to.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = 0

    def begin_op(self) -> None:
        """Start a new operation; spans opened from now on share its id."""
        self.op_id += 1

    def span(self, name: str) -> _Span:
        record = {"id": len(self.spans), "name": name, "op": self.op_id}
        self.spans.append(record)
        return _Span(self, record)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**header, "spans": self.spans}, handle)
            handle.write("\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in for untraced passes: records nothing."""

    def begin_op(self) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans, length=duration) -> dict:
    """Per-span self time: its length minus the time its child spans cover.

    Children of one span never overlap (the benchmark is single-threaded), so
    the covered time is the sum of the children's lengths.  `length` gives a
    span's time; by default, its duration.
    """
    own = {s["id"]: length(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= length(s)
    return own


def module_self_seconds(spans, length=duration) -> Counter:
    """Self time summed per module, the part of a span name before the first dot."""
    totals = Counter()
    own = self_times(spans, length)
    for s in spans:
        totals[s["name"].split(".", 1)[0]] += own[s["id"]]
    return totals
