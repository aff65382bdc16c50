"""In-memory spans for the traced run, written once as a Chrome trace.

Every span has an id, the id of the span that was open when it started
(its parent) and the id of the op it belongs to.  Spans stay in memory
while the workload runs; :meth:`SpanRecorder.write_chrome` writes them
at the end as a Chrome ``trace_event`` document (open it at
https://ui.perfetto.dev).

A span's *self time* is its duration minus the part of its interval
that its child spans cover (overlapping children are counted once).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    name: str
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            pieces: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``pieces``."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(pieces):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``{span id: self time}`` for every span in ``spans``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: span.duration - covered(
            (span.start, span.end), children.get(span.span_id, [])
        )
        for span in spans
    }


def descendants(spans: List[Span], span_id: int) -> List[Span]:
    """Every span of ``spans`` nested (at any depth) under ``span_id``."""
    below: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            below.setdefault(span.parent_id, []).append(span)
    found: List[Span] = []
    stack = [span_id]
    while stack:
        for child in below.get(stack.pop(), []):
            found.append(child)
            stack.append(child.span_id)
    return found


class SpanRecorder:
    """Records nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._next_id = 1
        self.op_id = 0

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        record = Span(span_id, parent, self.op_id, name, 0.0, 0.0, attrs)
        self._open.append(span_id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    @contextmanager
    def op(self, index: int, **attrs: object) -> Iterator[Span]:
        """The root span of one op; spans opened inside carry its id."""
        self.op_id = index
        with self.span("op", index=index, **attrs) as record:
            yield record

    def to_chrome(self) -> Dict[str, object]:
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": dict(
                    span.attrs, span_id=span.span_id,
                    parent_id=span.parent_id, op_id=span.op_id,
                ),
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()))


def empty_span_seconds(repeats: int = 2000) -> float:
    """Median cost of opening and closing one span with nothing in it:
    what the recorder adds to a traced op, per span."""
    rec = SpanRecorder()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        with rec.span("empty"):
            pass
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)
