"""Structured tracing: named spans, ambient scope, Chrome export.

A :class:`Tracer` collects named spans — ``route``, ``compile``,
``dispatch``, ``kernel.wire`` / ``kernel.merge`` / ``kernel.buffer``
(sampled per instruction range by the kernel profiler), ``splice``,
``backtrace``, ``supervisor.retry``, ``cache.lookup`` — with monotonic
timestamps (:func:`time.perf_counter`).  It is threaded **ambiently**,
mirroring :func:`repro.resilience.deadline.deadline_scope`:
:func:`trace_scope` installs the tracer in a thread-local slot and
every instrumented layer polls :func:`active_tracer` once at entry, so
the per-solve cost with tracing off is a single ``is not None`` test —
the same overhead discipline the deadline layer proved out.

**Request correlation.**  :func:`request_scope` installs a request id
(generated at the server/CLI entry via :func:`new_request_id`) in the
same thread-local; :func:`current_request_id` reads it from anywhere —
spans, JSON log lines (:mod:`repro.obs.logging`) and error payloads all
stamp it.  The id crosses the process-pool boundary *in the task
tuple*, exactly as ``REPRO_FAULTS`` ships fault plans: the parent
appends it to each partition task, the worker opens its own tracer
under that id, and the returned relative spans are re-parented into the
parent's timeline by :meth:`Tracer.adopt` (worker clocks are not
comparable across processes, so worker spans are re-based at the
dispatch instant — containment, which is what Perfetto renders, is
preserved).

**Export.**  :meth:`Tracer.to_chrome` renders the Chrome
``trace_event`` JSON format (complete ``"ph": "X"`` events,
microsecond timestamps) that https://ui.perfetto.dev and
``chrome://tracing`` open directly; every event's ``args`` carries the
request id.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "current_request_id",
    "new_request_id",
    "request_scope",
    "reset_active_tracer",
    "trace_scope",
]

#: One finished span: ``(name, start, duration, tid, args)`` — ``start``
#: is a local ``perf_counter`` instant, ``tid`` names the track
#: (``"main"`` for the request thread, ``"worker-<n>"`` for re-parented
#: worker spans), ``args`` is a small JSON-safe dict or ``None``.
Span = Tuple[str, float, float, str, Optional[dict]]

_local = threading.local()


def new_request_id() -> str:
    """A fresh 16-hex-character request id (64 random bits)."""
    return os.urandom(8).hex()


def current_request_id() -> Optional[str]:
    """The request id installed on this thread, or ``None``."""
    return getattr(_local, "request_id", None)


@contextmanager
def request_scope(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Install ``request_id`` as this thread's current request id.

    ``None`` keeps whatever id is already installed (so a nested call
    that did not mint its own id stays correlated with its caller).
    """
    previous = getattr(_local, "request_id", None)
    if request_id is not None:
        _local.request_id = request_id
    try:
        yield request_id if request_id is not None else previous
    finally:
        _local.request_id = previous


def active_tracer() -> Optional["Tracer"]:
    """The tracer installed on this thread, or ``None``."""
    return getattr(_local, "tracer", None)


def reset_active_tracer() -> None:
    """Forget any tracer (and request id) installed on this thread.

    Worker-process entry points call this next to
    :func:`repro.resilience.deadline.reset_active_deadline`: under the
    fork start method a child inherits the parent thread's
    thread-locals, and a request-scoped tracer must never collect
    another request's spans inside a pooled worker.
    """
    _local.tracer = None
    _local.request_id = None


@contextmanager
def trace_scope(tracer: Optional["Tracer"]) -> Iterator[Optional["Tracer"]]:
    """Install ``tracer`` as this thread's active tracer.

    ``None`` keeps whatever tracer is already active; the previous
    tracer is restored on exit.  The tracer's request id is installed
    alongside it, so :func:`current_request_id` agrees with the spans.
    """
    previous = getattr(_local, "tracer", None)
    previous_id = getattr(_local, "request_id", None)
    if tracer is not None:
        _local.tracer = tracer
        _local.request_id = tracer.request_id
    try:
        yield tracer if tracer is not None else previous
    finally:
        _local.tracer = previous
        _local.request_id = previous_id


class Tracer:
    """An append-only span collector for one request.

    Args:
        request_id: Correlation id stamped on every span; defaults to
            the thread's current id, else a fresh one.

    Thread-safety: appends take a lock so executor threads and the
    event loop may share one tracer; the hot paths batch their appends
    (one per sampled instruction range), so contention is negligible.
    """

    __slots__ = ("request_id", "epoch", "_spans", "_lock")

    def __init__(self, request_id: Optional[str] = None) -> None:
        if request_id is None:
            request_id = current_request_id() or new_request_id()
        self.request_id = request_id
        self.epoch = time.perf_counter()
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def begin(self, name: str, **args: Any) -> tuple:
        """Open a span; pass the returned handle to :meth:`end`."""
        return (name, time.perf_counter(), args or None)

    def end(self, handle: tuple, **extra: Any) -> None:
        """Close a span opened by :meth:`begin`."""
        name, start, args = handle
        if extra:
            args = dict(args or {}, **extra)
        self.record(name, start, time.perf_counter() - start, args)

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        args: Optional[dict] = None,
        tid: str = "main",
    ) -> None:
        """Append one pre-timed span (``start`` in local perf_counter)."""
        with self._lock:
            self._spans.append((name, start, duration, tid, args))

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Context-manager convenience for non-hot paths."""
        handle = self.begin(name, **args)
        try:
            yield
        finally:
            self.end(handle)

    # -- cross-process re-parenting ------------------------------------

    def export_relative(self) -> List[tuple]:
        """Spans with starts relative to this tracer's epoch.

        The picklable shape a worker returns: local clocks do not
        compare across processes, so only offsets travel.
        """
        with self._lock:
            return [
                (name, start - self.epoch, duration, tid, args)
                for name, start, duration, tid, args in self._spans
            ]

    def adopt(
        self, relative: List[tuple], at: float, tid: str
    ) -> None:
        """Re-parent worker spans into this timeline.

        ``at`` is the local instant the worker's epoch corresponds to
        (the dispatch start); ``tid`` names the worker's track.  Every
        adopted span keeps its own args but is stamped with this
        tracer's request id at export, like any local span.
        """
        with self._lock:
            for name, rel_start, duration, _tid, args in relative:
                self._spans.append((name, at + rel_start, duration, tid, args))

    # -- introspection and export --------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON document for this request.

        Complete (``"ph": "X"``) events on one process, one track per
        ``tid``; timestamps are microseconds from the tracer's epoch.
        Open the serialized dict in Perfetto or ``chrome://tracing``.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        tids: Dict[str, int] = {}
        for name, start, duration, tid, args in self.spans():
            tid_index = tids.setdefault(tid, len(tids))
            event_args = dict(args) if args else {}
            event_args["request_id"] = self.request_id
            events.append({
                "name": name,
                "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": pid,
                "tid": tid_index,
                "args": event_args,
            })
        metadata = [
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": f"repro request {self.request_id}"}},
        ]
        for tid, tid_index in tids.items():
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": tid_index, "args": {"name": tid},
            })
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "metadata": {"request_id": self.request_id},
        }

    def __repr__(self) -> str:
        return (
            f"Tracer(request_id={self.request_id!r}, "
            f"spans={len(self)})"
        )
