"""Observability layer tests: metrics, spans, profiler, correlation.

Four contracts are locked here:

* the **metrics registry** renders valid Prometheus text exposition and
  the ``/metrics`` name/type/help inventory is a golden schema
  (``tests/data/metrics_schema.json``) — adding, renaming or retyping a
  metric shows up as a reviewable golden diff;
* the **tracer** round-trips through the Chrome ``trace_event`` export:
  spans nest, worker spans re-parent onto their own tracks, and every
  event carries the request id;
* **request correlation** survives the process-pool boundary (the id
  shipped in partition task tuples comes back in worker-side spans) and
  is echoed in error payloads (the 504 path);
* the **kernel profiler** leaves the op callables untouched when
  inactive and counts calls exactly when active.

Regenerate the metrics golden after an intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_obs.py
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import os
import re
import threading
from pathlib import Path

import pytest

from repro import Driver, compile_net, paper_library, random_tree_net
from repro.errors import ServiceError
from repro.experiments.workloads import corner_variants
from repro.obs.logging import JsonLogFormatter, configure_json_logging
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
    UptimeClock,
    default_registry,
)
from repro.obs.profiler import (
    KernelProfiler,
    active_profiler,
    instrument_ops,
    profile_scope,
    set_bypass,
)
from repro.obs.spans import (
    Tracer,
    active_tracer,
    current_request_id,
    new_request_id,
    request_scope,
    trace_scope,
)
from repro.parallel import plan_partitions, solve_partitioned
from repro.service.client import ServiceClient
from repro.service.server import BufferServer
from repro.tree.io import library_to_dict, tree_to_dict
from repro.tree.segmenting import segment_to_position_count
from repro.units import ps

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

GOLDEN = Path(__file__).parent / "data" / "metrics_schema.json"

#: The store that batches a lane group, where NumPy is installed.
SOA = "soa" if numpy is not None else "object"


def small_net(seed=11, sinks=8):
    return random_tree_net(
        sinks, seed=seed, required_arrival=(ps(500.0), ps(2000.0)),
        driver=Driver(resistance=200.0),
    )


def partitionable_net(seed=0, sinks=24, positions=800):
    base = random_tree_net(
        sinks, seed=seed, required_arrival=(ps(400.0), ps(2500.0)),
        driver=Driver(resistance=200.0),
    )
    return segment_to_position_count(base, positions)


# ---------------------------------------------------------------------------
# Metrics registry


class TestMetrics:
    def test_counter_unlabeled(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        assert "c_total 3" in counter.render()

    def test_counter_labeled_series(self):
        counter = Counter("c_total", "help")
        counter.inc(backend="soa")
        counter.inc(3, backend="object")
        assert counter.value(backend="soa") == 1
        assert counter.value(backend="object") == 3
        rendered = "\n".join(counter.render())
        assert 'c_total{backend="object"} 3' in rendered
        assert 'c_total{backend="soa"} 1' in rendered

    def test_counter_by_one_label(self):
        counter = Counter("c_total", "help")
        counter.inc(axis="parallel", event="trip")
        counter.inc(2, axis="parallel", event="failure")
        counter.inc(axis="batch_axis", event="failure")
        counter.inc()  # an unlabeled series has no "event"
        assert counter.by("event") == {"trip": 1, "failure": 3}
        assert counter.by("event", axis="parallel") == {
            "trip": 1, "failure": 2,
        }
        assert counter.by("axis", event="trip") == {"parallel": 1}
        assert counter.by("lanes") == {}

    def test_registry_keeps_the_latest_report_of_a_kind(self):
        registry = MetricsRegistry()
        assert registry.latest("partitioned_solve") is None
        registry.note("partitioned_solve", {"partitions": 2})
        registry.note("partitioned_solve", {"partitions": 3})
        report = registry.latest("partitioned_solve")
        assert report == {"partitions": 3}
        report["partitions"] = 9  # a copy: the kept report stays
        assert registry.latest("partitioned_solve") == {"partitions": 3}
        assert registry.render() == ""  # a report is not an instrument

    def test_gauge_callback_reads_at_scrape(self):
        box = [1.0]
        gauge = Gauge("g", "help", fn=lambda: box[0])
        assert gauge.value() == 1.0
        box[0] = 7.5
        assert "g 7.5" in gauge.render()

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram("h", "help", (1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            histogram.observe(value)
        rendered = "\n".join(histogram.render())
        assert 'h_bucket{le="1"} 2' in rendered
        assert 'h_bucket{le="10"} 3' in rendered
        assert 'h_bucket{le="+Inf"} 4' in rendered
        assert "h_count 4" in rendered
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(106.2)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", "help", (2.0, 1.0))

    def test_registry_get_or_create_shares_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help")
        b = registry.counter("x_total", "ignored on re-get")
        assert a is b

    def test_registry_rejects_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x", "help")

    def test_registry_render_is_exposition_text(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "first").inc()
        registry.histogram("b_seconds", "second", LATENCY_BUCKETS).observe(0.2)
        text = registry.render()
        assert text.endswith("\n")
        assert "# HELP a_total first" in text
        assert "# TYPE a_total counter" in text
        assert "# TYPE b_seconds histogram" in text

    def test_counter_group_is_dict_shaped(self):
        registry = MetricsRegistry()
        group = CounterGroup(registry, "repro_", {
            "errors": "Errors.", "requests_total": "Requests.",
        })
        group["errors"] += 2
        group["requests_total"] = 5
        assert group["errors"] == 2
        assert dict(group) == {"errors": 2, "requests_total": 5}
        assert group.as_dict() == {"errors": 2, "requests_total": 5}
        assert "errors" in group and len(group) == 2
        # Backing metrics follow the Prometheus _total convention and
        # render from the same registry.
        text = registry.render()
        assert "repro_errors_total 2" in text
        assert "repro_requests_total 5" in text

    def test_uptime_clock_restart(self):
        ticks = [10.0]
        clock = UptimeClock(clock=lambda: ticks[0])
        ticks[0] = 14.0
        assert clock.seconds() == 4.0
        clock.restart()
        assert clock.seconds() == 0.0

    def test_registry_uptime_clock_gauge(self):
        registry = MetricsRegistry()
        clock = registry.uptime_clock("up_seconds", "help")
        assert clock.seconds() >= 0.0
        assert "# TYPE up_seconds gauge" in registry.render()


# ---------------------------------------------------------------------------
# Spans and request scope


class TestTracer:
    def test_request_id_shape(self):
        a, b = new_request_id(), new_request_id()
        assert a != b
        assert re.fullmatch(r"[0-9a-f]{16}", a)

    def test_request_scope_nesting(self):
        assert current_request_id() is None
        with request_scope("outer-id"):
            assert current_request_id() == "outer-id"
            with request_scope(None):  # None keeps the caller's id
                assert current_request_id() == "outer-id"
            with request_scope("inner-id"):
                assert current_request_id() == "inner-id"
            assert current_request_id() == "outer-id"
        assert current_request_id() is None

    def test_trace_scope_installs_tracer_and_id(self):
        tracer = Tracer(request_id="abc")
        assert active_tracer() is None
        with trace_scope(tracer):
            assert active_tracer() is tracer
            assert current_request_id() == "abc"
        assert active_tracer() is None
        assert current_request_id() is None

    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        spans = {name: (start, duration)
                 for name, start, duration, _, _ in tracer.spans()}
        outer_start, outer_duration = spans["outer"]
        inner_start, inner_duration = spans["inner"]
        assert outer_start <= inner_start
        assert inner_start + inner_duration <= outer_start + outer_duration

    def test_begin_end_extra_args(self):
        tracer = Tracer()
        handle = tracer.begin("dispatch", tasks=3)
        tracer.end(handle, spliced=True)
        (name, _, _, tid, args), = tracer.spans()
        assert name == "dispatch"
        assert tid == "main"
        assert args == {"tasks": 3, "spliced": True}

    def test_export_relative_and_adopt(self):
        worker = Tracer(request_id="rid")
        with worker.span("worker.partition"):
            pass
        relative = worker.export_relative()
        # Relative spans are epoch-based offsets: picklable floats.
        assert json.dumps(relative)
        (_, offset, _, _, _), = relative
        assert 0.0 <= offset < 1.0

        parent = Tracer(request_id="rid")
        dispatch_at = 123.0
        parent.adopt(relative, at=dispatch_at, tid="worker-0")
        adopted, = parent.spans()
        assert adopted[0] == "worker.partition"
        assert adopted[3] == "worker-0"
        # Re-based exactly: the worker's epoch maps to the dispatch
        # instant, so the adopted start is ``at + offset``.
        assert adopted[1] == pytest.approx(dispatch_at + offset)

    def test_to_chrome_document(self):
        tracer = Tracer(request_id="feedbeeffeedbeef")
        with tracer.span("route", strategy="soa"):
            pass
        tracer.record("worker.partition", tracer.epoch, 0.001, None,
                      tid="worker-3")
        doc = json.loads(json.dumps(tracer.to_chrome()))
        assert doc["metadata"]["request_id"] == "feedbeeffeedbeef"
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in events} == {"route", "worker.partition"}
        for event in events:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert event["args"]["request_id"] == "feedbeeffeedbeef"
        track_names = {e["args"]["name"] for e in meta
                       if e["name"] == "thread_name"}
        assert track_names == {"main", "worker-3"}


# ---------------------------------------------------------------------------
# Kernel profiler


class TestProfiler:
    def test_instrument_ops_identity_when_inactive(self):
        ops = (lambda: 1, lambda: 2, lambda: 3, lambda: 4)
        out = instrument_ops(*ops)
        assert out[:4] == ops  # the very same callables, not wrappers
        assert out[4] is None

    def test_profile_scope_counts_calls(self):
        profiler = KernelProfiler()
        with profile_scope(profiler, flush=False):
            assert active_profiler() is profiler
            sink, wire, merge, buffer, end_range = instrument_ops(
                lambda x: x, lambda x: x, lambda x: x, lambda x: x
            )
            sink("s")
            wire("w")
            wire("w")
            buffer("b")
            end_range(17)
        assert active_profiler() is None
        assert profiler.calls == {"sink": 1, "wire": 2, "merge": 0,
                                  "buffer": 1}
        assert profiler.peak_list_length == 17
        assert profiler.ranges == 1
        assert profiler.total_seconds() >= 0.0
        snapshot = profiler.snapshot()
        assert snapshot["calls"]["wire"] == 2

    def test_sampled_kernel_spans_when_tracing(self):
        profiler = KernelProfiler(sample_every=1)
        tracer = Tracer()
        with trace_scope(tracer), profile_scope(profiler, flush=False):
            _, wire, merge, buffer, end_range = instrument_ops(
                lambda: None, lambda: None, lambda: None, lambda: None
            )
            wire()
            merge()
            buffer()
            end_range(5)
        names = {span[0] for span in tracer.spans()}
        assert names == {"kernel.wire", "kernel.merge", "kernel.buffer"}
        for _, _, _, _, args in tracer.spans():
            assert args["list_length"] == 5

    def test_flush_folds_into_registry(self):
        registry = MetricsRegistry()
        profiler = KernelProfiler()
        with profile_scope(profiler, flush=False):
            _, wire, _, _, end_range = instrument_ops(
                lambda: None, lambda: None, lambda: None, lambda: None
            )
            wire()
            end_range(9)
        profiler.flush_to_registry(registry)
        text = registry.render()
        assert 'repro_kernel_op_calls_total{op="wire"} 1' in text
        assert "repro_peak_list_length_count 1" in text

    def test_bypass_disables_everything(self):
        profiler = KernelProfiler()
        try:
            with profile_scope(profiler, flush=False):
                set_bypass(True)
                assert active_profiler() is None
                ops = (lambda: 1, lambda: 2, lambda: 3, lambda: 4)
                assert instrument_ops(*ops)[:4] == ops
        finally:
            set_bypass(False)

    def test_sample_every_validated(self):
        with pytest.raises(ValueError, match="sample_every"):
            KernelProfiler(sample_every=0)


# ---------------------------------------------------------------------------
# JSON logging


class TestJsonLogging:
    def test_formatter_stamps_request_id(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",),
            None,
        )
        with request_scope("deadbeefdeadbeef"):
            line = json.loads(formatter.format(record))
        assert line["message"] == "hello world"
        assert line["request_id"] == "deadbeefdeadbeef"
        assert line["level"] == "INFO"
        assert line["logger"] == "repro.test"

    def test_formatter_without_request_id(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.test", logging.WARNING, __file__, 1, "bare", (), None
        )
        line = json.loads(formatter.format(record))
        assert "request_id" not in line

    def test_configure_json_logging_stream(self):
        stream = io.StringIO()
        root = logging.getLogger()
        previous_handlers = root.handlers[:]
        previous_level = root.level
        try:
            handler = configure_json_logging(stream=stream)
            assert root.handlers == [handler]
            with request_scope("cafecafecafecafe"):
                logging.getLogger("repro.obs.test").info(
                    "structured", extra={"endpoint": "/solve"}
                )
            line = json.loads(stream.getvalue().strip())
            assert line["request_id"] == "cafecafecafecafe"
            assert line["endpoint"] == "/solve"
        finally:
            root.handlers[:] = previous_handlers
            root.setLevel(previous_level)


# ---------------------------------------------------------------------------
# Cross-pool correlation: worker spans re-parent under the request id


class TestWorkerCorrelation:
    def test_partitioned_solve_reparents_worker_spans(self):
        compiled = compile_net(partitionable_net(), paper_library(4))
        plan = plan_partitions(compiled, 2, min_instructions=16)
        assert plan.viable, plan.reason
        request_id = new_request_id()
        tracer = Tracer(request_id=request_id)
        with request_scope(request_id), trace_scope(tracer):
            solve_partitioned(
                compiled, paper_library(4), jobs=2, plan=plan
            )
        spans = tracer.spans()
        names = {span[0] for span in spans}
        assert "dispatch" in names
        assert "parallel.residual" in names
        worker_spans = [s for s in spans if s[0] == "worker.partition"]
        assert len(worker_spans) == len(plan.cuts)
        tracks = {s[3] for s in worker_spans}
        assert tracks == {f"worker-{i}" for i in range(len(plan.cuts))}
        # The Chrome export stamps the originating request id on every
        # event, re-parented worker spans included.
        doc = tracer.to_chrome()
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert event["args"]["request_id"] == request_id


# ---------------------------------------------------------------------------
# Service endpoints: /metrics golden schema, trace round-trip, 504 id


class ServerHarness:
    def __init__(self, **kwargs) -> None:
        self.server = BufferServer(port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "server did not start"
        self.client = ServiceClient(port=self.server.port, timeout=30.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def shutdown(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture()
def harness():
    h = ServerHarness(jobs=1, cache_size=64)
    try:
        yield h
    finally:
        h.shutdown()


_HELP_RE = re.compile(r"^# HELP (\S+) (.*)$")
_TYPE_RE = re.compile(r"^# TYPE (\S+) (counter|gauge|histogram)$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z0-9_]+=\"[^\"]*\""        # optional label set
    r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? "
    r"-?[0-9.eE+-]+(\n|$)"                # value
)


def _parse_exposition(text):
    """``(helps, types)`` by metric name; asserts every line is valid."""
    helps, types = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        help_match = _HELP_RE.match(line)
        if help_match:
            helps[help_match.group(1)] = help_match.group(2)
            continue
        type_match = _TYPE_RE.match(line)
        if type_match:
            types[type_match.group(1)] = type_match.group(2)
            continue
        assert _SAMPLE_RE.match(line + "\n"), f"bad exposition line: {line!r}"
    return helps, types


class TestMetricsEndpoint:
    def test_metrics_schema_matches_golden(self, harness):
        """Exercise the endpoints once, then lock the name/type/help
        inventory of the server's registry against the golden."""
        library = paper_library(4)
        harness.client.solve(small_net(), library)
        harness.client.solve(small_net(), library)  # cache hit path
        with pytest.raises(ServiceError):
            harness.client.solve({"nodes": "nonsense"}, library)

        text = harness.client.metrics()
        helps, types = _parse_exposition(text)

        # The server-owned registry is deterministic (instruments are
        # all defined in __init__); pin its full inventory.  The
        # process-wide default registry also renders into the scrape
        # but accumulates lazily across the test process, so only
        # always-on members are asserted below.
        server_names = sorted(
            instrument.name
            for instrument in harness.server.registry.instruments()
        )
        shape = {
            name: {"type": types[name], "help": helps[name]}
            for name in server_names
        }

        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.write_text(
                json.dumps(shape, indent=2, sort_keys=True) + "\n"
            )
        golden = json.loads(GOLDEN.read_text())
        assert shape == golden, (
            "metrics schema drifted; regenerate with REPRO_REGEN_GOLDEN=1 "
            "if intentional"
        )

        # Always-on kernel-side histograms fed by any solve in this
        # process live in the default registry.
        assert types.get("repro_peak_list_length") == "histogram"
        assert types.get("repro_routing_decisions_total") == "counter"

    def test_metrics_values_reflect_traffic(self, harness):
        library = paper_library(4)
        harness.client.solve(small_net(), library)
        text = harness.client.metrics()
        assert re.search(r"repro_requests_total \d+", text)
        assert re.search(
            r'repro_solves_total\{backend="[a-z]+"\} [1-9]', text
        )
        assert re.search(
            r'repro_request_seconds_count\{endpoint="/solve"\} [1-9]', text
        )
        # Stats counters and registry counters are the same instruments.
        stats = harness.client.stats()
        assert stats["counters"]["solve_requests"] == 1

    def test_metrics_content_type_is_text(self, harness):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.server.port, timeout=10.0
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "repro_uptime_seconds" in body


def _series(text):
    """``{metric: {label pairs: value}}`` from a Prometheus scrape."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        pairs = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', labels)))
        series.setdefault(name, {})[pairs] = float(value)
    return series


def _label_values(series, name, label):
    """``{label value: sample}`` of one labeled counter."""
    return {
        dict(pairs)[label]: value
        for pairs, value in series.get(name, {}).items()
        if label in dict(pairs)
    }


def assert_stats_are_metrics(stats, text):
    """Every count of the ``routing``, ``batch_axis``, ``parallel`` and
    ``resilience`` blocks equals the sum of its ``/metrics`` series."""
    series = _series(text)

    def total(name, **where):
        return sum(
            value for pairs, value in series.get(name, {}).items()
            if set(where.items()) <= set(pairs)
        )

    routing = stats["routing"]
    assert routing["decisions"] == total("repro_routing_decisions_total")
    assert routing["decisions_by_strategy"] == _label_values(
        series, "repro_routing_decisions_total", "strategy")

    batch_axis = stats["batch_axis"]
    lanes = _label_values(series, "repro_batch_axis_groups_total", "lanes")
    assert batch_axis["lanes_histogram"] == lanes
    assert batch_axis["groups"] == total("repro_batch_axis_groups_total")
    assert batch_axis["batched_solves"] == sum(
        int(width) * count for width, count in lanes.items())
    assert batch_axis["scalar_solves"] == total(
        "repro_batch_axis_scalar_solves_total")

    parallel = stats["parallel"]
    assert parallel["parallel_solves"] == total(
        "repro_partitioned_solves_total", outcome="engaged")
    assert parallel["fallback_solves"] == total(
        "repro_partitioned_solves_total", outcome="fallback")
    assert parallel["partitions_total"] == total("repro_partitions_total")

    resilience = stats["resilience"]
    for event, count in resilience["supervisor"].items():
        assert count == total("repro_supervisor_events_total", event=event)
    assert resilience["breaker_trips"] == total(
        "repro_breaker_events_total", event="trip")
    for axis, block in resilience["breakers"].items():
        for key, event in (("trips", "trip"), ("failures", "failure"),
                           ("successes", "success")):
            assert block[key] == total(
                "repro_breaker_events_total", axis=axis, event=event)
    assert resilience["batch_group_fallbacks"] == total(
        "repro_degraded_units_total", path="batch_group")
    assert resilience["partitioned_fallbacks"] == total(
        "repro_degraded_units_total", path="partitioned")
    for key in ("sheds", "deadline_hits", "rejected_payloads",
                "integrity_failures", "drains"):
        assert resilience["server"][key] == total(f"repro_{key}_total")


class TestStatsAreMetrics:
    """``/stats`` and ``/metrics`` are two views of one set of
    instruments: every count agrees, whatever pools came and went."""

    def test_counts_survive_eviction_and_include_sessions(self):
        h = ServerHarness(jobs=1, max_pools=1)
        try:
            library = paper_library(4)
            h.client.solve(small_net(), library)
            corners = [v for _, v in corner_variants(small_net(seed=7), 4)]
            # A second solve context: the first pool is evicted.
            h.client.solve_batch(corners, library, backend=SOA)
            h.client.create_session(small_net(seed=3), library)
            stats = h.client.stats()
            text = h.client.metrics()
        finally:
            h.shutdown()
        assert_stats_are_metrics(stats, text)
        assert len(stats["pools"]) == 1
        # The evicted pool's solve, the lanes and the session all count.
        decisions = stats["routing"]["decisions_by_strategy"]
        assert decisions["object-splice"] == 1
        assert stats["routing"]["decisions"] == (3 if numpy else 6)
        assert stats["batch_axis"]["scalar_solves"] == (1 if numpy else 5)
        assert set(stats["resilience"]["breakers"]) == {
            "parallel", "batch_axis"}

    def test_counts_agree_with_workers(self):
        h = ServerHarness(jobs=2, max_pools=1, parallel_threshold=500)
        try:
            library = paper_library(4)
            corners = [v for _, v in corner_variants(small_net(seed=7), 4)]
            h.client.solve_batch(corners, library, backend=SOA)
            h.client.solve(partitionable_net(positions=2500), library)
            stats = h.client.stats()
            text = h.client.metrics()
        finally:
            h.shutdown()
        assert_stats_are_metrics(stats, text)
        parallel = stats["parallel"]
        assert parallel["parallel_solves"] + parallel["fallback_solves"] == 1
        if numpy is not None:
            assert stats["batch_axis"]["lanes_histogram"] == {"4": 1}

    def test_parallel_last_is_the_latest_partitioned_solve(self):
        """``parallel.last`` is the process's latest partitioned solve,
        not the report of the most recently used pool."""
        h = ServerHarness(jobs=2, parallel_threshold=4000)
        try:
            first, second = paper_library(4), paper_library(5)
            nets = [partitionable_net(positions=n) for n in (2500, 3000)]
            sizes = [
                compile_net(net, library).num_instructions
                for net, library in zip(nets, (first, second))
            ]
            h.client.solve(nets[0], first)   # pool A partitions
            h.client.solve(nets[1], second)  # pool B partitions
            h.client.solve(small_net(), first)  # pool A, no partition
            parallel = h.client.stats()["parallel"]
        finally:
            h.shutdown()
        assert parallel["pools_enabled"] == 2
        assert parallel["parallel_solves"] + parallel["fallback_solves"] == 2
        assert parallel["last"]["total_instructions"] == sizes[1] != sizes[0]


class TestTraceRoundtrip:
    def test_solve_trace_is_chrome_trace_event_json(self, harness):
        library = paper_library(4)
        answer = harness.client.solve(small_net(), library, trace=True)
        doc = json.loads(json.dumps(answer["trace"]))  # JSON-safe
        request_id = doc["metadata"]["request_id"]
        assert re.fullmatch(r"[0-9a-f]{16}", request_id)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"route", "compile", "cache.lookup"} <= names
        for event in events:
            assert event["args"]["request_id"] == request_id
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0

        # The request path around the solve is spanned too; the miss
        # compiles once, from the records, and builds no tree.
        path = {"net.records", "net.canon", "render"}
        assert path <= names
        assert [e["name"] for e in events].count("compile") == 1
        assert "tree.build" not in names

        # A cached re-solve still traces; the lookup records the hit,
        # and the hit is answered without building a tree.
        answer = harness.client.solve(small_net(), library, trace=True)
        assert answer["cached"]
        events = [e for e in answer["trace"]["traceEvents"] if e["ph"] == "X"]
        lookups = [e for e in events if e["name"] == "cache.lookup"]
        assert any(e["args"].get("hit") for e in lookups)
        assert path <= {e["name"] for e in events}
        assert "tree.build" not in {e["name"] for e in events}

    def test_untraced_solve_has_no_trace_key(self, harness):
        answer = harness.client.solve(small_net(), paper_library(4))
        assert "trace" not in answer


class TestErrorCorrelation:
    def test_504_payload_echoes_request_id(self, harness):
        big = random_tree_net(
            64, seed=3, required_arrival=(ps(500.0), ps(4000.0)),
            driver=Driver(resistance=200.0),
        )
        status, text = harness.client._request_text("POST", "/solve", {
            "net": tree_to_dict(big),
            "library": library_to_dict(paper_library(8)),
            "algorithm": "fast",
            "backend": "auto",
            "options": {},
            "deadline_ms": 1e-4,
        })
        assert status == 504
        payload = json.loads(text)
        assert re.fullmatch(r"[0-9a-f]{16}", payload["request_id"])

    def test_404_payload_echoes_request_id(self, harness):
        status, text = harness.client._request_text("GET", "/nowhere")
        assert status == 404
        assert re.fullmatch(r"[0-9a-f]{16}",
                            json.loads(text)["request_id"])

    def test_access_log_correlates_with_error_payload(self, harness):
        stream = io.StringIO()
        root = logging.getLogger()
        saved_handlers, saved_level = root.handlers[:], root.level
        handler = configure_json_logging(stream=stream)
        try:
            harness.client.solve(
                tree_to_dict(small_net()),
                library_to_dict(paper_library(4)),
                algorithm="fast",
            )
            status, text = harness.client._request_text("GET", "/nowhere")
            assert status == 404
        finally:
            root.removeHandler(handler)
            root.handlers[:] = saved_handlers
            root.setLevel(saved_level)
        error_id = json.loads(text)["request_id"]
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        access = [l for l in lines if l["logger"] == "repro.service.access"]
        assert len(access) >= 2  # one per request, success and error alike
        assert all(re.fullmatch(r"[0-9a-f]{16}", l["request_id"])
                   for l in access)
        ok = [l for l in access if l["status"] == 200]
        assert ok and ok[0]["level"] == "INFO"
        failed = [l for l in access if l["status"] == 404]
        assert failed and failed[0]["level"] == "WARNING"
        # The id in the log line IS the id in the error payload: the
        # whole point of correlation.
        assert failed[0]["request_id"] == error_id
        assert failed[0]["error"] == "unknown path '/nowhere'"
