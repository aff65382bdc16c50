"""A process-local metrics registry with Prometheus text exposition.

Three instrument kinds, deliberately minimal (stdlib only):

* :class:`Counter` — a monotonically increasing count, optionally
  split by one small label set (``counter.inc(backend="soa")``);
* :class:`Gauge` — a point-in-time value, settable directly or
  computed at scrape time from a callback (how uptime is derived);
* :class:`Histogram` — fixed-boundary buckets plus sum and count, the
  Prometheus cumulative-``le`` shape.  Latency buckets for
  solve/batch/session/edit, list-length buckets for the DP
  statistics.

A :class:`MetricsRegistry` owns instruments by name (get-or-create, so
a counter is *defined once* and shared by every caller that names it)
and renders the whole registry as Prometheus text exposition format
(version 0.0.4) — the body of the server's ``GET /metrics``.

Two registries exist in practice: :func:`default_registry` is the
process-wide one that kernel, pool, supervisor and routing instruments
feed (so worker-facing subsystems need no plumbing), and each
:class:`~repro.service.server.BufferServer` owns a private registry for
its request counters (so two servers in one test process do not bleed
counts into each other).  ``GET /metrics`` renders both, and ``GET
/stats`` projects the same instruments.  The solver-side counters are
defined once, in :data:`PROCESS_COUNTERS`, and fed once, where their
event happens, in the process that routes and dispatches (a pool's
worker processes only solve).  The process registry also keeps the
latest report of a kind (:meth:`MetricsRegistry.note`: the last
partitioned solve), which ``/stats`` shows and ``/metrics`` does not
render.

:class:`UptimeClock` is the one started-clock helper behind every
uptime figure: ``/healthz`` and ``/stats`` both read
:meth:`UptimeClock.seconds`, replacing the two independently maintained
``time.monotonic() - started`` computations the server used to carry.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "CounterGroup",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "LIST_LENGTH_BUCKETS",
    "MetricsRegistry",
    "PROCESS_COUNTERS",
    "UptimeClock",
    "default_registry",
    "process_counter",
]

#: Solve/batch/session/edit latency buckets (seconds) — spaced for a
#: workload whose solves run microseconds (cache hits) to tens of
#: seconds (large partitioned nets).
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Peak candidate-list-length buckets — the paper's ``k``; lists stay
#: far below the ``b n + 1`` bound, so powers of two to 4096 cover
#: every workload in the benchmark suite.
LIST_LENGTH_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 4096.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    # Counters render as integers when whole — the conventional shape.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared name/help/lock plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def header_lines(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Instrument):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._series: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def series(self) -> Dict[_LabelKey, float]:
        with self._lock:
            return dict(self._series)

    def by(self, label: str, **where: str) -> Dict[str, float]:
        """Counts summed by ``label``'s value, over the series whose
        labels include ``where`` (``by("event", axis="parallel")``)."""
        want = set(_label_key(where))
        totals: Dict[str, float] = {}
        for key, value in self.series().items():
            labels = dict(key)
            if label in labels and want <= set(key):
                totals[labels[label]] = totals.get(labels[label], 0.0) + value
        return totals

    def _set(self, value: float, **labels: str) -> None:
        """Direct assignment — only the dict-compatibility views use it."""
        with self._lock:
            self._series[_label_key(labels)] = value

    def render(self) -> List[str]:
        lines = self.header_lines()
        series = self.series() or {(): 0.0}
        for key in sorted(series):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(series[key])}"
            )
        return lines


class Gauge(_Instrument):
    """A point-in-time value; settable or computed at scrape time."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help)
        self._fn = fn
        self._series: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self.header_lines()
        if self._fn is not None:
            lines.append(f"{self.name} {_format_value(float(self._fn()))}")
            return lines
        with self._lock:
            series = dict(self._series) or {(): 0.0}
        for key in sorted(series):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(series[key])}"
            )
        return lines


class Histogram(_Instrument):
    """Fixed-boundary buckets + sum + count (cumulative ``le`` shape)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Sequence[float]
    ) -> None:
        super().__init__(name, help)
        boundaries = tuple(float(b) for b in buckets)
        if list(boundaries) != sorted(boundaries) or not boundaries:
            raise ValueError(
                f"histogram {name!r} buckets must be sorted and non-empty"
            )
        self.boundaries = boundaries
        self._series: Dict[_LabelKey, list] = {}

    def _bucket_counts(self, key: _LabelKey) -> list:
        state = self._series.get(key)
        if state is None:
            # counts per boundary + overflow, then sum, then count.
            state = [0] * (len(self.boundaries) + 1) + [0.0, 0]
            self._series[key] = state
        return state

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._bucket_counts(key)
            index = len(self.boundaries)
            for i, boundary in enumerate(self.boundaries):
                if value <= boundary:
                    index = i
                    break
            state[index] += 1
            state[-2] += value
            state[-1] += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state[-1] if state is not None else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state[-2] if state is not None else 0.0

    def render(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            series = {
                key: list(state) for key, state in self._series.items()
            } or {(): [0] * (len(self.boundaries) + 1) + [0.0, 0]}
        for key in sorted(series):
            state = series[key]
            cumulative = 0
            for boundary, bucket in zip(self.boundaries, state):
                cumulative += bucket
                label = _render_labels(key, f'le="{_format_value(boundary)}"')
                lines.append(f"{self.name}_bucket{label} {cumulative}")
            cumulative += state[len(self.boundaries)]
            label = _render_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{label} {cumulative}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(state[-2])}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {state[-1]}")
        return lines


class UptimeClock:
    """The one started-clock behind every uptime figure.

    ``/healthz`` and ``/stats`` used to each compute
    ``time.monotonic() - started`` against their own reading of the
    start instant; this helper owns that instant once.  ``restart()``
    re-stamps it (the server calls it when the socket binds).
    """

    __slots__ = ("_clock", "_started")

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._started = clock()

    def restart(self) -> None:
        self._started = self._clock()

    def seconds(self) -> float:
        return self._clock() - self._started


class MetricsRegistry:
    """Instruments by name; get-or-create; Prometheus text rendering."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}
        self._notes: Dict[str, dict] = {}

    def _get_or_create(self, name: str, factory, kind) -> _Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {kind.kind}"
                )
            return instrument

    def counter(self, name: str, help: str) -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help), Counter
        )

    def gauge(
        self,
        name: str,
        help: str,
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help, fn=fn), Gauge
        )

    def histogram(
        self, name: str, help: str, buckets: Sequence[float]
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), Histogram
        )

    def uptime_clock(self, name: str, help: str) -> UptimeClock:
        """Register an uptime gauge and return its started-clock."""
        clock = UptimeClock()
        self.gauge(name, help, fn=clock.seconds)
        return clock

    def note(self, kind: str, report: dict) -> None:
        """Keep ``report`` as the latest of its ``kind``."""
        with self._lock:
            self._notes[kind] = report

    def latest(self, kind: str) -> Optional[dict]:
        """A copy of the latest report of ``kind``, or ``None``."""
        with self._lock:
            report = self._notes.get(kind)
        return None if report is None else dict(report)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]

    def render(self) -> str:
        """The registry as Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for instrument in self.instruments():
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n" if lines else ""


class CounterGroup:
    """A dict-shaped view over registry counters, one per key.

    The server's ``self.counters`` mapping predates the registry; this
    view keeps every call site (``counters["errors"] += 1``,
    ``dict(counters)``) working while the values live in registry
    :class:`Counter` instruments — defined once, rendered by
    ``/metrics``, reported by ``/stats``.

    Metric names follow the Prometheus counter convention:
    ``<prefix><key>`` when the key already ends in ``_total``, else
    ``<prefix><key>_total``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        prefix: str,
        descriptions: Dict[str, str],
    ) -> None:
        self._counters: Dict[str, Counter] = {}
        for key, help in descriptions.items():
            metric = prefix + (key if key.endswith("_total") else key + "_total")
            self._counters[key] = registry.counter(metric, help)

    def __getitem__(self, key: str) -> int:
        return int(self._counters[key].value())

    def __setitem__(self, key: str, value: int) -> None:
        self._counters[key]._set(float(value))

    def __contains__(self, key: object) -> bool:
        return key in self._counters

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def keys(self):
        return self._counters.keys()

    def items(self):
        return [(key, self[key]) for key in self._counters]

    def as_dict(self) -> Dict[str, int]:
        return {key: self[key] for key in self._counters}


_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry kernel-side instruments feed."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


#: The solver-side counters, by metric name: each is fed once, where
#: its event happens, in the process that routes and dispatches.
PROCESS_COUNTERS = {
    "repro_routing_decisions_total":
        "Execution plans chosen, by strategy label.",
    "repro_supervisor_events_total":
        "Supervisor events across all supervised resources.",
    "repro_batch_axis_groups_total":
        "Batch-axis structural groups a pool solved, by lane count.",
    "repro_batch_axis_scalar_solves_total":
        "Nets a pool solved one by one, outside a batch-axis group.",
    "repro_partitioned_solves_total":
        "Nets routed to a partitioned solve, by outcome "
        "(engaged, or a serial fallback).",
    "repro_partitions_total":
        "Partitions dispatched by engaged partitioned solves.",
    "repro_degraded_units_total":
        "Execution units degraded to the in-process path, by path.",
    "repro_breaker_events_total":
        "Circuit-breaker trips, failures and successes, by axis.",
}


def process_counter(name: str) -> Counter:
    """The process registry's counter ``name``, one of
    :data:`PROCESS_COUNTERS`."""
    return default_registry().counter(name, PROCESS_COUNTERS[name])
