"""Spans recorded around the benchmark's own calls into lorentzmet.

A span holds a name, start, end, parent span and job id.  Spans stay in
memory and are aggregated when the run ends: a layer's busy time is the
sum of its span durations, and its self time is busy time minus the part
covered by its child spans.  Nothing inside the library is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

clock = time.perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and record nothing."""

    job_id = None

    def span(self, name: str):
        return _NULL


class Tracer:
    """Tracing on: every span is kept as [name, start, end, parent, job]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job_id: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, clock(), 0.0, parent, self.job_id]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = clock()
            self._stack.pop()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
        return out
