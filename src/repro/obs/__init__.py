"""Unified observability: tracing, metrics, correlation, profiling.

One package gives every solve a trace, every subsystem a metric and
every request an id that survives the process-pool boundary:

* :mod:`repro.obs.spans` — a low-overhead structured tracer.
  :func:`~repro.obs.spans.trace_scope` installs a
  :class:`~repro.obs.spans.Tracer` in a thread-local slot exactly like
  :func:`repro.resilience.deadline.deadline_scope` installs a deadline;
  every instrumented layer polls :func:`~repro.obs.spans.active_tracer`
  once at entry, so the cost with tracing off is a single
  ``is not None`` test per solve — never per instruction.  Traces
  export as Chrome ``trace_event`` JSON, viewable in Perfetto.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-boundary histograms with a Prometheus text
  exposition (the server's ``GET /metrics``).  The ``/stats`` counters
  are founded on these instruments, so each counter is defined once.
* :mod:`repro.obs.logging` — a JSON log formatter that stamps every
  record with the current request id (``repro serve --log-json``).
* :mod:`repro.obs.profiler` — the sampling kernel profiler: per-op
  wall time and peak list length from *any* execution strategy (object
  and soa stores, batch-axis groups, partitioned workers, splice
  replays).

Request correlation: :func:`~repro.obs.spans.request_scope` installs a
request id (generated at the server/CLI entry) in the same thread-local
carousel; it rides partition task tuples across the process-pool
boundary the same way ``REPRO_FAULTS`` ships fault plans, so a worker's
spans and log lines carry the originating request's id.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.profiler import (
    KernelProfiler,
    active_profiler,
    profile_scope,
)
from repro.obs.spans import (
    Span,
    Tracer,
    active_tracer,
    current_request_id,
    new_request_id,
    request_scope,
    reset_active_tracer,
    trace_scope,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_profiler",
    "active_tracer",
    "current_request_id",
    "default_registry",
    "new_request_id",
    "profile_scope",
    "request_scope",
    "reset_active_tracer",
    "trace_scope",
]
