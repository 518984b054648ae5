"""In-memory spans around the benchmark's calls into the program.

A span is [name, parent index, start, end], kept in a list in the order the
spans open; the parent is the span that was open when it started. Nothing is
written until the run ends. `NoTrace` has the same interface and records
nothing, so the untraced run pays one extra Python call per program call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

clock = time.perf_counter


def elapsed(start: float, end: float) -> float:
    return end - start


class NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _start(self, name) -> list:
        span = [name, self._open[-1] if self._open else -1, clock(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span) -> None:
        span[3] = clock()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    @contextmanager
    def span(self, name):
        span = self._start(name)
        try:
            yield
        finally:
            self._end(span)

    def totals(self, since: int, until: int, duration=elapsed) -> dict[str, float]:
        """Summed duration per span name, over the spans opened from `since` to before `until`."""
        out: dict[str, float] = {}
        for name, _parent, start, end in self.spans[since:until]:
            out[name] = out.get(name, 0.0) + duration(start, end)
        return out

    def summary(self, duration=elapsed) -> dict[str, dict]:
        """Count, total and self time per span name.

        Self time is a span's duration less the durations of its children.
        """
        took = [duration(start, end) for _name, _parent, start, end in self.spans]
        child_time = [0.0] * len(self.spans)
        for k, (_name, parent, _start, _end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += took[k]
        out: dict[str, dict] = {}
        for k, (name, _parent, _start, _end) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += took[k]
            row["self_s"] += took[k] - child_time[k]
        return dict(sorted(out.items()))


def span_cost(samples: int = 20000) -> float:
    """Seconds a traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    t0 = clock()
    for _ in range(samples):
        noop()
    plain = clock() - t0
    t0 = clock()
    for _ in range(samples):
        tracer.call("noop", noop)
    traced = clock() - t0
    return max(0.0, traced - plain) / samples
