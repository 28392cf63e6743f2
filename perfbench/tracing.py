"""In-memory spans for the traced benchmark run.

A span has a name, a start, an end, a parent and an optional size (for
example the length of the word a call worked on).  Spans are kept in flat
arrays until the run ends, so a traced pass of 10^5 words stays in a few
tens of megabytes.  The benchmark records them around its own calls into
the package; the package itself is not instrumented.
"""

from __future__ import annotations

import math
import time
from array import array


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    enabled = False

    def open(self, name: str, size: int = 0) -> int:
        return -1

    def close(self, sid: int) -> None:
        pass

    def call(self, name, fn, *args, size=0):
        return fn(*args)


class Tracer(NullTracer):
    """Strictly nested spans of one thread.

    Because spans nest, a span's self time is its duration minus the
    durations of its direct children.
    """

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, name: str, size: int = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, size=0):
        sid = self.open(name, size)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, summed size."""
        start, end, parent = self.start, self.end, self.parent
        dur = [e - s for s, e in zip(start, end)]
        own = list(dur)
        for sid, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[sid]
        rows = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0}
                for name in self.names}
        names = self.names
        for sid, nid in enumerate(self.name):
            row = rows[names[nid]]
            row["calls"] += 1
            row["s"] += dur[sid]
            row["self_s"] += own[sid]
            row["size"] += self.size[sid]
        return rows

    def count_within(self, prefix: str) -> int:
        """Spans nested, at any depth, inside a span whose name starts with ``prefix``."""
        names, name = self.names, self.name
        inside = bytearray(len(name))
        for sid, p in enumerate(self.parent):
            # a parent opens before its children, so it is classified first
            if p >= 0 and (inside[p] or names[name[p]].startswith(prefix)):
                inside[sid] = 1
        return sum(inside)

    def durations(self, name: str) -> list[tuple[int, float]]:
        """(size, seconds) of every span with this name, in start order."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [(self.size[sid], self.end[sid] - self.start[sid])
                for sid, k in enumerate(self.name) if k == nid]


def span_cost(calls: int = 200_000) -> float:
    """Seconds a traced call costs more than an untraced one, per call."""
    traced, plain = Tracer(), NullTracer()

    def noop():
        return None

    t0 = time.perf_counter()
    for _ in range(calls):
        traced.call("calibration", noop)
    t1 = time.perf_counter()
    for _ in range(calls):
        plain.call("calibration", noop)
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size), sizes >= 1."""
    xs, ys = [], []
    for size, seconds in points:
        if size >= 1 and seconds > 0:
            xs.append(math.log(size))
            ys.append(math.log(seconds))
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
