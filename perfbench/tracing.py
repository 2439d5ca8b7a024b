"""Spans around the benchmark's calls into the package's layers.

The benchmark calls every layer through ``tracer.call(name, fn, *args)``.
``NullTracer`` just calls, so the untraced pass runs the same code with the
same stack depth.  ``Tracer`` keeps one span per call in memory: name
(``<module>.<function>``), start, end, parent span and job id.  Self times
are derived from the spans after the pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int

    def as_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job]


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = -1

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s.name] = out.get(s.name, 0.0) + t
    return out
