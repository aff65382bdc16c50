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

from importlib import import_module

_LAZY = {
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "KernelProfiler": "repro.obs.profiler",
    "MetricsRegistry": "repro.obs.metrics",
    "Span": "repro.obs.spans",
    "Tracer": "repro.obs.spans",
    "active_profiler": "repro.obs.profiler",
    "active_tracer": "repro.obs.spans",
    "current_request_id": "repro.obs.spans",
    "default_registry": "repro.obs.metrics",
    "new_request_id": "repro.obs.spans",
    "profile_scope": "repro.obs.profiler",
    "request_scope": "repro.obs.spans",
    "reset_active_tracer": "repro.obs.spans",
    "trace_scope": "repro.obs.spans",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
