"""Asyncio HTTP JSON server: the ``repro serve`` front end.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` — standard library only, one connection per
request (``Connection: close``), JSON in and out.  Endpoints:

========================  ======  ==========================================
path                      method  purpose
========================  ======  ==========================================
``/solve``                POST    buffer one net; cached when an equivalent
                                  request was answered before
``/batch``                POST    buffer many nets sharing one library in
                                  one round trip; misses are sharded across
                                  the worker pool
``/session``              POST    open a stateful ECO session around one net
``/session/{id}/edit``    POST    apply typed edits to a session's net
``/session/{id}/resolve`` POST    incremental re-solve (dirty path only)
``/session/{id}``         DELETE  close a session
``/healthz``              GET     liveness probe: version, uptime, workers;
                                  ``?deep=1`` adds worker liveness, breaker
                                  states and cache pressure; 503 while
                                  draining
``/stats``                GET     request counters, cache counters, pool
                                  inventory, batch-axis grouping,
                                  incremental-engine health, execution-
                                  routing decisions and the resilience
                                  block (retries, trips, sheds, drains,
                                  deadline hits)
``/metrics``              GET     the same counters (plus latency and
                                  list-length histograms and kernel
                                  profiler totals) as Prometheus text
                                  exposition format
========================  ======  ==========================================

**Observability.**  Every request is minted a correlation id at entry
(``request_id``, echoed in error payloads and stamped on spans and JSON
log lines); ``/solve?trace=1`` additionally collects a structured trace
of the request — route, compile, cache lookup, dispatch, sampled kernel
ranges, worker partitions re-parented across the process-pool boundary
— and returns it as a Chrome ``trace_event`` document under ``"trace"``
(open it at https://ui.perfetto.dev).  See ``docs/observability.md``.

**Resilience.**  The server is hardened along five axes (see
``docs/resilience.md``):

* **admission control** — at most ``max_inflight`` solve dispatches run
  concurrently; beyond that requests queue up to ``max_queue_depth``
  and are then *shed* with a 503 + ``Retry-After`` instead of piling
  onto a saturated pool;
* **request validation** — bodies above ``max_request_bytes`` are a
  413, nets with more than ``max_positions`` buffer positions a 422,
  both as clean JSON errors before any solve work starts.  So are
  inputs the served solvers cannot honour, because they ignore signal
  polarity: a library with an inverting type (checked where the
  library is parsed), a net with a ``polarity: -1`` sink (checked on
  the miss path, before compile, so such a net is never cached and a
  hit pays nothing) and a session edit that would make a sink
  negative-phase (before any edit of its batch is applied);
* **deadlines** — a request's ``deadline_ms`` (or the server-wide
  default) becomes a :class:`~repro.resilience.deadline.Deadline`
  covering parse, cache lookup and solve; exceeding it is a 504;
* **graceful drain** — SIGTERM (or :meth:`BufferServer.request_drain`)
  stops admitting new work, finishes every in-flight request, flushes a
  final stats line and only then closes the socket and the pools;
* **cache integrity** — result-cache entries are stored with a content
  digest and re-verified on every hit; a corrupted payload is counted
  (``integrity_failures``) and treated as a miss, never served.

**Sessions.**  A session wraps an
:class:`~repro.incremental.engine.IncrementalSolver`: the server keeps
the net, its compiled schedule and its memoized subtree frontiers
resident between requests, so an edit-resolve round trip pays only the
dirty path instead of a full solve.  Sessions solve on the ``object``
store: a ``/session`` body's ``backend`` must be ``"auto"`` or
``"object"`` (anything else is a 400).  Session memory is bounded by a
documented two-part policy: (1) at most ``max_sessions`` sessions live
at once — beyond that the least recently *used* session is evicted, and
sessions idle longer than ``session_ttl`` seconds expire (both via the
same :class:`~repro.service.cache.ResultCache` machinery as results);
(2) all sessions share one
:class:`~repro.incremental.subtree_cache.FrontierCache`, which keeps a
frontier only while a live session holds it: each session holds its
current net's frontiers at its capture points plus those its latest
edit superseded (so undoing the latest edit splices everything), and
structurally repeated subtrees *across* sessions share entries.  A frontier goes
when its last holder lets go: on ``DELETE``, when an evicted or expired
session is collected, or at the session's next resolve that supersedes
frontiers of its own.  The byte bound (``frontier_cache_bytes``) still
evicts LRU entries on top, held or not, so total frontier memory cannot
grow with session count.  Session solves always run inline in the serving
process (their state is in-process by construction), in the default
executor so the event loop stays responsive; concurrent requests to
one session serialize on a per-session lock.

Request flow for ``/solve`` (``/batch`` is the same per net):

1. read the net into validated records in one pass
   (:func:`repro.tree.io.net_records` — validation happens here, once
   per net, never again downstream), and the library;
2. canonicalize the records
   (:func:`repro.service.canon.canonicalize_records`; node ids are
   record positions) and derive the request key;
3. cache hit → translate the stored
   :class:`~repro.service.cache.SolutionPayload` onto *this* request's
   node ids via the canonical index mapping and answer — no tree, no
   compile, no solve, no worker dispatch;
4. cache miss → once every net of the request is read, keyed and
   checked, compile each distinct miss straight from its records
   (:func:`repro.core.schedule.compile_records`; no tree is built),
   solve it on the persistent :class:`~repro.core.batch.SolverPool`
   for this (library, algorithm, backend, options) context, store the
   payload, answer.  Only the payload is kept: the compiled net is
   dropped with the request.

Solves run in the event loop's default thread-pool executor so the loop
keeps accepting requests while the kernel works; with ``jobs > 1`` the
pool additionally fans a batch's misses across worker processes, each of
which holds the library plan resident (see
:class:`~repro.core.batch.SolverPool`).

A ``/batch`` whose deduped misses contain structurally identical nets
under different parasitics or RATs (the multi-corner case) is solved
lane-parallel by the pool's batch-axis engine
(:mod:`repro.core.stores.batch_axis`): one vectorized interpreter pass
over the whole group instead of one per net, bit-identical per net.
``/stats`` reports the grouping under its ``batch_axis`` block.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import logging
import os
import signal
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.core.registry import get_algorithm
from repro.core.stores import AUTO_BACKEND, SPLICE_BACKEND, validate_backend
from repro.errors import DeadlineExceeded, EditError, ReproError, WorkerCrashError
from repro.incremental.subtree_cache import FrontierCache
from repro.library.library import BufferLibrary
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    CounterGroup,
    MetricsRegistry,
    default_registry,
    process_counter,
)
from repro.obs.spans import (
    Tracer,
    active_tracer,
    new_request_id,
    request_scope,
    trace_scope,
)
from repro.resilience import Deadline
from repro.resilience.breaker import STRATEGY_AXES
from repro.service.cache import CacheStats, ResultCache, SolutionPayload
from repro.service.canon import (
    CanonicalNet,
    canonicalize_records,
    library_key,
    options_key,
    request_key,
)
from repro.tree.io import (
    NetRecords,
    library_from_dict,
    net_records,
    tree_from_dict,
)

if TYPE_CHECKING:
    from repro.core.schedule import CompiledNet

_JSON_HEADERS = "Content-Type: application/json\r\nConnection: close\r\n"
_TEXT_HEADERS = (
    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
    "Connection: close\r\n"
)
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: The 400 a request carrying ``"policy"`` gets: routing has one rule,
#: and a request pins a store with ``"backend"``.
_POLICY_REFUSAL = (
    "'policy' is not a request field: routing has one rule; "
    "name a store with 'backend'"
)

#: One record per request (INFO for 2xx, WARNING for 4xx/5xx), always
#: carrying the correlation id as an ``extra`` field — the event-loop
#: thread deliberately installs no ambient request scope, so the id
#: cannot come from :func:`repro.obs.spans.current_request_id` here.
#: Silent by default (no root handler is installed at INFO); ``repro
#: serve --log-json`` turns these into one JSON object per line.
_ACCESS_LOG = logging.getLogger("repro.service.access")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """A request-scoped error rendered as ``status`` + ``{"error": ...}``."""

    status = 500

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        if status is not None:
            self.status = status


class _BadRequest(_HttpError):
    """Client-side error; rendered as a 400 with an ``error`` field."""

    status = 400


def _phase_error(what: str) -> _HttpError:
    """The 422 for inputs the served solvers cannot honour: they ignore
    signal polarity, so they would answer with the wrong phase."""
    return _HttpError(
        f"{what}: the served solvers ignore signal polarity and would "
        "deliver the wrong phase; solve it in process with "
        "insert_buffers_with_inverters",
        status=422,
    )


class _TextPayload(str):
    """A pre-rendered ``text/plain`` response body (``GET /metrics``).

    The response writer JSON-encodes every payload by default; this
    marker subclass routes the body out verbatim under the Prometheus
    text-exposition content type instead.
    """


def _scoped_call(request_id, fn, tracer=None):
    """Run ``fn`` under the request's ambient observability scope.

    Executor threads do not inherit the event loop's thread-locals (and
    the loop thread deliberately installs none — it interleaves every
    request), so the correlation id and tracer are re-established here,
    on the thread that actually runs the solve.
    """
    with request_scope(request_id), trace_scope(tracer):
        return fn()


def _span(tracer: Optional[Tracer], name: str, **args: Any):
    """``tracer.span(name, **args)``, or a no-op without a tracer."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **args)


def _endpoint_label(path: str) -> str:
    """The latency-histogram label for a request path.

    Session paths fold their embedded id (``/session/{id}/edit`` →
    ``/session/edit``) so the label set stays small and fixed.
    """
    parts = path.partition("?")[0].strip("/").split("/")
    if parts and parts[0] == "session":
        return "/session/" + parts[2] if len(parts) == 3 else "/session"
    return "/" + parts[0] if parts and parts[0] else "/"


class BufferServer:
    """The serving state machine behind ``repro serve``.

    Owns the result cache, the session cache and the pool registry;
    :meth:`start` binds the listening socket (``port=0`` picks an
    ephemeral port — the tests' mode), :meth:`serve_forever` blocks.

    Args:
        host: Interface to bind.
        port: TCP port; ``0`` lets the kernel choose (see ``self.port``
            after :meth:`start`).
        jobs: Workers per :class:`~repro.core.batch.SolverPool`; ``1``
            solves inline in the serving process.
        cache_size: Result-cache capacity (entries).
        cache_ttl: Result-cache time-to-live in seconds; ``None`` keeps
            entries until evicted.
        max_pools: Distinct (library, algorithm, backend, options)
            contexts to keep warm; the least recently used pool beyond
            this is closed.
        max_sessions: Live incremental sessions to keep; the least
            recently used beyond this is evicted (its memory is
            reclaimed by garbage collection).
        session_ttl: Seconds an idle session stays alive; ``None``
            keeps sessions until evicted.
        frontier_cache_bytes: Byte bound of the frontier cache shared
            by every session (see the module docstring's memory
            policy).
        parallel_threshold: Instruction-count floor above which a
            single ``/solve`` net is partitioned across the pool's
            workers (see :mod:`repro.parallel`); ``None`` uses the
            calibrated default.  Only effective with ``jobs > 1``.
        workload_log: Path of an opt-in JSONL workload log; every
            routed solve (and every session re-solve) appends one
            record that ``repro replay`` can re-run offline.
        max_inflight: Solve dispatches allowed to run concurrently;
            further requests queue (admission control).
        max_queue_depth: Requests allowed to wait for an admission
            slot; beyond it the server load-sheds with a 503 +
            ``Retry-After`` rather than building an unbounded queue.
        max_request_bytes: Request-body size cap; larger bodies are
            rejected with a 413 before being read.
        max_positions: Per-net cap on buffer positions (the paper's
            ``n``); larger nets are rejected with a 422.  ``None``
            accepts any size.
        deadline_ms: Server-wide default solve deadline in
            milliseconds (a request's own ``deadline_ms`` overrides
            it); exceeding the deadline answers 504.  ``None`` means
            no default deadline.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = 1,
        cache_size: int = 1024,
        cache_ttl: Optional[float] = None,
        max_pools: int = 4,
        max_sessions: int = 32,
        session_ttl: Optional[float] = 3600.0,
        frontier_cache_bytes: int = 64 << 20,
        parallel_threshold: Optional[int] = None,
        workload_log: Optional[str] = None,
        max_inflight: int = 8,
        max_queue_depth: int = 32,
        max_request_bytes: int = _MAX_BODY_BYTES,
        max_positions: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        if max_pools < 1:
            raise ValueError(f"max_pools must be >= 1, got {max_pools}")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if max_request_bytes < 1:
            raise ValueError(
                f"max_request_bytes must be >= 1, got {max_request_bytes}"
            )
        if max_positions is not None and max_positions < 1:
            raise ValueError(
                f"max_positions must be >= 1 or None, got {max_positions}"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0 or None, got {deadline_ms}"
            )
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (or None), got {jobs}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.parallel_threshold = parallel_threshold
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self.max_request_bytes = max_request_bytes
        self.max_positions = max_positions
        self.deadline_ms = deadline_ms
        # One log shared by every pool (and the session path): pools
        # receive the instance, so closing it stays the server's job.
        self._workload_log = None
        if workload_log is not None:
            from repro.routing.workload import WorkloadLog

            self._workload_log = WorkloadLog(workload_log)
        self.results = ResultCache(maxsize=cache_size, ttl=cache_ttl)
        #: Nets compiled for misses; ``/stats`` reports it as
        #: ``compiled_cache.misses`` (that block is deprecated).
        self._compiles = 0
        self.sessions = ResultCache(maxsize=max_sessions, ttl=session_ttl)
        self.frontiers = FrontierCache(max_bytes=frontier_cache_bytes)
        self._pools: "OrderedDict[Tuple, _PoolEntry]" = OrderedDict()
        self._max_pools = max_pools
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._gate: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._active_requests = 0
        self._draining = False
        # Per-server registry: request counters, the uptime clock and
        # request-latency buckets live here (not in default_registry),
        # so two servers in one test process never bleed counts.
        # GET /metrics renders this registry plus the process-wide one.
        self.registry = MetricsRegistry()
        self._uptime = self.registry.uptime_clock(
            "repro_uptime_seconds",
            "Seconds since the serving socket was bound.",
        )
        self.counters = CounterGroup(self.registry, "repro_", {
            "requests_total":
                "HTTP requests received, any endpoint or outcome.",
            "solve_requests": "POST /solve requests admitted.",
            "batch_requests": "POST /batch requests admitted.",
            "nets_requested": "Nets received across /solve and /batch.",
            "nets_solved": "Nets actually solved (result-cache misses).",
            "worker_dispatches": "Solve dispatches onto a worker pool.",
            "session_creates": "Incremental sessions opened.",
            "session_edits": "Edits applied across all sessions.",
            "session_resolves": "Incremental re-solves across all sessions.",
            "errors": "Requests answered with an error status.",
            "sheds": "Requests shed by admission control (503).",
            "deadline_hits": "Requests that exceeded their deadline (504).",
            "rejected_payloads":
                "Requests rejected for size or position limits (413/422).",
            "integrity_failures":
                "Result-cache entries dropped by digest verification.",
            "drains": "Graceful-drain sequences started.",
        })
        self._request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "Wall seconds per HTTP request, by endpoint.",
            LATENCY_BUCKETS,
        )
        # Aggregated dirty-instruction fractions over session re-solves
        # (the /stats "incremental" block's mean).
        self._session_fraction_sum = 0.0
        self._session_fraction_last = 0.0
        # Nets actually solved (cache misses), per candidate store that
        # ran them — with the kernel/arena health in /stats this is
        # what makes production pool sizing debuggable.
        self._solve_counter = self.registry.counter(
            "repro_solves_total",
            "Nets solved (cache misses), by resolved store backend.",
        )

    @property
    def solves_by_backend(self) -> Dict[str, int]:
        """Per-backend solve counts, read from the labeled counter."""
        return {
            backend: int(count)
            for backend, count in self._solve_counter.by("backend").items()
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the socket; returns the actual ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._gate = asyncio.Semaphore(self.max_inflight)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._uptime.restart()
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for entry in self._pools.values():
            entry.pool.close()
        self._pools.clear()
        if self._workload_log is not None:
            self._workload_log.close()

    async def drain(self, poll_interval: float = 0.05) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        The sequence matters: first flip ``_draining`` (new solve
        admissions answer 503 + ``Retry-After``, ``/healthz`` reports
        ``"draining"``), then wait for every in-flight request to
        complete, flush a final stats line, and only *then* close the
        listening socket — closing it cancels ``serve_forever``, whose
        caller tears the pools down, so closing early would yank worker
        pools out from under in-flight solves.
        """
        if self._draining:
            return
        self._draining = True
        self.counters["drains"] += 1
        while self._active_requests > 0:
            await asyncio.sleep(poll_interval)
        self._flush_stats()
        if self._server is not None:
            self._server.close()

    def request_drain(self) -> None:
        """Thread-safe drain trigger (the SIGTERM handler, tests)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(self.drain(), loop)

    def _flush_stats(self) -> None:
        """One final machine-readable counters line before shutdown."""
        print(
            "repro serve: drained "
            + json.dumps({"counters": dict(self.counters)}, sort_keys=True)
        )

    @contextlib.asynccontextmanager
    async def _admit(self):
        """Admission control around one solve dispatch.

        Grants one of ``max_inflight`` concurrent slots; when all are
        busy, up to ``max_queue_depth`` requests wait their turn and
        anything beyond that is shed immediately with a 503 — bounded
        latency instead of an unbounded queue on a saturated pool.
        """
        if self._draining:
            raise _HttpError("server is draining", status=503)
        gate = self._gate
        if gate is None:  # not start()ed — direct handler tests
            yield
            return
        if gate.locked() and self._waiting >= self.max_queue_depth:
            self.counters["sheds"] += 1
            raise _HttpError(
                f"overloaded: {self.max_inflight} solves in flight and "
                f"{self._waiting} queued; retry later",
                status=503,
            )
        self._waiting += 1
        try:
            await gate.acquire()
        finally:
            self._waiting -= 1
        try:
            yield
        finally:
            gate.release()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload = 500, {"error": "internal error"}
        # One correlation id per request, minted before any parsing so
        # even a malformed request line gets a correlated error answer.
        # It rides as an explicit argument (not an ambient scope: the
        # event loop thread interleaves every request, so a thread-local
        # here would leak between them) and is re-installed as the
        # ambient scope inside executor threads and worker processes.
        request_id = new_request_id()
        endpoint: Optional[str] = None
        method, path = "-", "-"
        started = time.perf_counter()
        # The in-flight count covers the response write too: drain()
        # waits for it to reach zero before closing up, so a completed
        # solve is never cut off mid-answer.
        self._active_requests += 1
        try:
            try:
                method, path, body = await self._read_request(reader)
                endpoint = _endpoint_label(path)
                self.counters["requests_total"] += 1
                status, payload = await self._dispatch(
                    method, path, body, request_id
                )
            except _HttpError as exc:
                self.counters["errors"] += 1
                status, payload = exc.status, {"error": str(exc)}
            except (ConnectionError, asyncio.IncompleteReadError):
                writer.close()
                return
            except Exception as exc:  # never leak a traceback to the socket
                self.counters["errors"] += 1
                status, payload = 500, {"error": f"internal error: {exc}"}
            if status >= 400 and isinstance(payload, dict):
                payload.setdefault("request_id", request_id)
            extra = {
                "request_id": request_id,
                "status": status,
                "duration_ms": round(
                    (time.perf_counter() - started) * 1e3, 3
                ),
            }
            if status >= 400 and isinstance(payload, dict):
                extra["error"] = payload.get("error")
            _ACCESS_LOG.log(
                logging.WARNING if status >= 400 else logging.INFO,
                "%s %s -> %d", method, path, status, extra=extra,
            )
            if isinstance(payload, _TextPayload):
                body_bytes = str(payload).encode("utf-8")
                content_headers = _TEXT_HEADERS
            else:
                body_bytes = json.dumps(payload).encode("utf-8")
                content_headers = _JSON_HEADERS
            reason = _REASONS.get(status, "Error")
            # Shed/draining answers tell well-behaved clients when to
            # come back instead of leaving them to guess a backoff.
            retry_after = "Retry-After: 1\r\n" if status == 503 else ""
            head = (
                f"HTTP/1.1 {status} {reason}\r\n{content_headers}"
                f"{retry_after}"
                f"Content-Length: {len(body_bytes)}\r\n\r\n"
            )
            try:
                writer.write(head.encode("latin-1") + body_bytes)
                await writer.drain()
            except ConnectionError:
                pass
            finally:
                writer.close()
        finally:
            self._active_requests -= 1
            if endpoint is not None:
                self._request_seconds.observe(
                    time.perf_counter() - started, endpoint=endpoint
                )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value)
                except ValueError:
                    raise _BadRequest(
                        f"bad Content-Length: {value.strip()!r}"
                    ) from None
        if length > self.max_request_bytes:
            self.counters["rejected_payloads"] += 1
            raise _HttpError(
                f"request body too large ({length} bytes, "
                f"limit {self.max_request_bytes})",
                status=413,
            )
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, body

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        path, _, query = path.partition("?")
        routes = {
            "/solve": ("POST", self._handle_solve),
            "/batch": ("POST", self._handle_batch),
            "/session": ("POST", self._handle_session_create),
            "/healthz": ("GET", self._handle_healthz),
            "/stats": ("GET", self._handle_stats),
            "/metrics": ("GET", self._handle_metrics),
        }
        route = routes.get(path)
        if route is not None:
            expected_method, handler = route
            if method != expected_method:
                return 405, {"error": f"{path} requires {expected_method}"}
            return await handler(body, query, request_id)
        if path.startswith("/session/"):
            return await self._dispatch_session(method, path, body, request_id)
        return 404, {"error": f"unknown path {path!r}",
                     "paths": sorted(routes) + ["/session/{id}"]}

    async def _dispatch_session(
        self,
        method: str,
        path: str,
        body: bytes,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        parts = path.strip("/").split("/")
        # parts[0] == "session"; parts[1] = id; optional parts[2] = verb.
        if len(parts) == 2:
            if method != "DELETE":
                return 405, {"error": "/session/{id} requires DELETE"}
            return await self._handle_session_delete(parts[1])
        if len(parts) == 3 and parts[2] in ("edit", "resolve"):
            if method != "POST":
                return 405, {"error": f"/session/{{id}}/{parts[2]} requires POST"}
            session = self._session(parts[1])
            if parts[2] == "edit":
                return await self._handle_session_edit(
                    session, body, request_id
                )
            return await self._handle_session_resolve(session, request_id)
        return 404, {
            "error": f"unknown session path {path!r}",
            "paths": ["/session/{id}", "/session/{id}/edit",
                      "/session/{id}/resolve"],
        }

    # -- endpoints -----------------------------------------------------

    async def _handle_healthz(
        self,
        body: bytes,
        query: str = "",
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        import repro

        draining = self._draining
        answer: Dict[str, Any] = {
            "status": "draining" if draining else "ok",
            "version": repro.__version__,
            "uptime_seconds": self._uptime.seconds(),
            "jobs": self.jobs,
        }
        params = dict(
            part.partition("=")[::2] for part in query.split("&") if part
        )
        if params.get("deep") in ("1", "true", "yes"):
            cache_stats = self.results.stats()
            answer["workers"] = [
                dict(entry.pool.worker_health(),
                     backend=entry.pool.backend,
                     in_flight=entry.in_flight)
                for entry in self._pools.values()
            ]
            answer["breakers"] = {
                axis: sum(
                    1
                    for entry in self._pools.values()
                    if entry.pool.breakers.breaker(axis).state != "closed"
                )
                for axis in STRATEGY_AXES
            }
            answer["admission"] = {
                "in_flight_requests": self._active_requests,
                "queued": self._waiting,
                "max_inflight": self.max_inflight,
                "max_queue_depth": self.max_queue_depth,
            }
            answer["cache_pressure"] = {
                "results_size": cache_stats.size,
                "results_maxsize": cache_stats.maxsize,
                "results_fill": cache_stats.size / cache_stats.maxsize,
                "frontier_bytes": self.frontiers.stats().get("bytes", 0),
                "integrity_failures": self.counters["integrity_failures"],
            }
        return (503 if draining else 200), answer

    async def _handle_metrics(
        self,
        body: bytes,
        query: str = "",
        request_id: Optional[str] = None,
    ) -> Tuple[int, "_TextPayload"]:
        """Prometheus text exposition: server + process-wide registries.

        The server registry carries the request counters, latency
        buckets and the uptime gauge; the process default registry
        carries kernel, supervisor and routing instruments (fed without
        plumbing by the subsystems themselves).
        """
        text = self.registry.render() + default_registry().render()
        return 200, _TextPayload(text)

    async def _handle_stats(
        self,
        body: bytes,
        query: str = "",
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        """The instruments ``/metrics`` renders, as JSON, beside live
        state.

        Every count is read from one of the two registries: request
        counters from this server's, solver-side counters from the
        process registry, which counts every pool this process ran
        (evicted ones too) and the sessions' router.  Only present
        state is read live: warm pools, their breaker states and lane
        arenas, caches and sessions.
        """
        pools = [entry.pool for entry in self._pools.values()]
        lanes = _counts("repro_batch_axis_groups_total", "lanes")
        batch_axis = {
            "pools_enabled": sum(1 for pool in pools if pool.batch_axis),
            "groups": sum(lanes.values()),
            "lanes_histogram": lanes,
            "batched_solves": sum(
                int(width) * count for width, count in lanes.items()
            ),
            "scalar_solves": int(process_counter(
                "repro_batch_axis_scalar_solves_total"
            ).value()),
            "arena_pooled_bytes": sum(pool.lane_arena[1] for pool in pools),
        }
        outcomes = _counts("repro_partitioned_solves_total", "outcome")
        parallel = {
            "pools_enabled": sum(1 for pool in pools if pool.jobs > 1),
            "parallel_solves": outcomes.get("engaged", 0),
            "fallback_solves": outcomes.get("fallback", 0),
            "partitions_total": int(
                process_counter("repro_partitions_total").value()
            ),
            "last": default_registry().latest("partitioned_solve"),
        }
        decisions = _counts("repro_routing_decisions_total", "strategy")
        routing = {
            "decisions": sum(decisions.values()),
            "decisions_by_strategy": decisions,
            "workload_records": (
                self._workload_log.records_written
                if self._workload_log is not None else 0
            ),
        }
        breakers = {}
        for axis in STRATEGY_AXES:
            events = _counts("repro_breaker_events_total", "event", axis=axis)
            states = [pool.breakers.breaker(axis).state for pool in pools]
            breakers[axis] = {
                "open": states.count("open"),
                "half_open": states.count("half_open"),
                "trips": events.get("trip", 0),
                "failures": events.get("failure", 0),
                "successes": events.get("success", 0),
            }
        supervisor = _counts("repro_supervisor_events_total", "event")
        degraded = _counts("repro_degraded_units_total", "path")
        resilience: Dict[str, Any] = {
            "server": {
                "sheds": self.counters["sheds"],
                "deadline_hits": self.counters["deadline_hits"],
                "rejected_payloads": self.counters["rejected_payloads"],
                "integrity_failures": self.counters["integrity_failures"],
                "drains": self.counters["drains"],
                "draining": self._draining,
                "in_flight_requests": self._active_requests,
                "queued": self._waiting,
                "max_inflight": self.max_inflight,
                "max_queue_depth": self.max_queue_depth,
                "default_deadline_ms": self.deadline_ms,
            },
            "supervisor": {
                event: supervisor.get(event, 0)
                for event in (
                    "retries", "respawns", "fallbacks", "supervised_failures",
                )
            },
            "breaker_trips": sum(
                counts["trips"] for counts in breakers.values()
            ),
            "breakers": breakers,
            "batch_group_fallbacks": degraded.get("batch_group", 0),
            "partitioned_fallbacks": degraded.get("partitioned", 0),
        }
        session_stats = self.sessions.stats()
        live_sessions = tuple(self.sessions.values())
        resolves = self.counters["session_resolves"]
        return 200, {
            "uptime_seconds": self._uptime.seconds(),
            "counters": dict(self.counters),
            "solves_by_backend": dict(self.solves_by_backend),
            "batch_axis": batch_axis,
            "parallel": parallel,
            "routing": routing,
            "resilience": resilience,
            "cache": self.results.stats().as_dict(),
            # Deprecated: no compiled net outlives its request, so this
            # block only counts compiles (as misses); the rest reads 0.
            "compiled_cache": dict(
                CacheStats(
                    hits=0, misses=self._compiles, evictions=0,
                    expirations=0, size=0, maxsize=0, ttl=None,
                ).as_dict(),
                payload_bytes=0,
            ),
            "incremental": {
                "frontier_cache": self.frontiers.stats(),
                "sessions": {
                    "live": session_stats.size,
                    "max": session_stats.maxsize,
                    "created": self.counters["session_creates"],
                    "expired": session_stats.expirations,
                    "evicted": session_stats.evictions,
                    "ttl_seconds": session_stats.ttl,
                    "resident_bytes": sum(
                        session.nbytes() for session in live_sessions
                    ),
                },
                "resolves": resolves,
                "edits": self.counters["session_edits"],
                "last_executed_fraction": self._session_fraction_last,
                "mean_executed_fraction": (
                    self._session_fraction_sum / resolves if resolves else 0.0
                ),
            },
            "pools": [
                {
                    "algorithm": entry.pool.algorithm,
                    "backend": entry.pool.backend,
                    "jobs": entry.pool.jobs,
                    "library_size": entry.pool.library.size,
                    "in_flight": entry.in_flight,
                }
                for entry in self._pools.values()
            ],
        }

    async def _handle_solve(
        self,
        body: bytes,
        query: str = "",
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        async with self._admit():
            spec = _parse_body(body)
            net_spec = _require(spec, "net", dict)
            request = _SolveContext.from_spec(spec, self.deadline_ms)
            params = dict(
                part.partition("=")[::2] for part in query.split("&") if part
            )
            tracer = (
                Tracer(request_id=request_id or new_request_id())
                if params.get("trace") in ("1", "true", "yes")
                else None
            )
            self.counters["solve_requests"] += 1
            self.counters["nets_requested"] += 1
            answers = await self._answer(
                request, [net_spec], request_id=request_id, tracer=tracer
            )
            answer = answers[0]
            if tracer is not None:
                answer["trace"] = tracer.to_chrome()
            return 200, answer

    async def _handle_batch(
        self,
        body: bytes,
        query: str = "",
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        async with self._admit():
            spec = _parse_body(body)
            net_specs = _require(spec, "nets", list)
            if not net_specs:
                raise _BadRequest("'nets' must contain at least one net")
            request = _SolveContext.from_spec(spec, self.deadline_ms)
            self.counters["batch_requests"] += 1
            self.counters["nets_requested"] += len(net_specs)
            answers = await self._answer(
                request, net_specs, request_id=request_id
            )
            return 200, {"results": answers}

    # -- stateful sessions (incremental ECO re-solve) ------------------

    def _session(self, sid: str) -> "_Session":
        session = self.sessions.get(sid)
        if session is None:
            raise _BadRequest(
                f"unknown or expired session {sid!r} (sessions expire "
                "after the configured TTL and are evicted least recently "
                "used beyond max_sessions)"
            )
        # Re-stamp on every access: the TTL is an *idle* timeout (the
        # cache stamps entries at put time only), so an actively used
        # session must never expire mid-workflow.
        self.sessions.put(sid, session)
        return session

    async def _handle_session_create(
        self,
        body: bytes,
        query: str = "",
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        spec = _parse_body(body)
        net_spec = _require(spec, "net", dict)
        context = _SolveContext.from_spec(spec)
        if context.backend not in (AUTO_BACKEND, SPLICE_BACKEND):
            raise _BadRequest(
                f"sessions solve on the {SPLICE_BACKEND!r} store; 'backend' "
                f"must be {AUTO_BACKEND!r} or {SPLICE_BACKEND!r}, got "
                f"{context.backend!r}"
            )
        try:
            tree, id_map = tree_from_dict(net_spec, with_id_map=True)
        except ReproError as exc:
            raise _BadRequest(f"invalid net: {exc}") from exc
        negative = [
            serialized for serialized, internal in id_map.items()
            if tree.node(internal).polarity == -1
        ]
        if negative:
            raise _phase_error(f"net has negative-phase sinks {negative}")
        from repro.incremental.engine import IncrementalSolver
        from repro.routing.features import features_of
        from repro.routing.router import ROUTER

        def create() -> IncrementalSolver:
            # Counted by the process-wide router (a session always
            # plans object-splice); construction validates, compiles
            # and digests the net — O(n) work that belongs off the
            # event loop.
            ROUTER.route(
                features_of(tree, context.library, kind="session")
            )
            return IncrementalSolver(
                tree, context.library, algorithm=context.algorithm,
                cache=self.frontiers, **context.options,
            )

        loop = asyncio.get_running_loop()
        try:
            solver = await loop.run_in_executor(
                None, lambda: _scoped_call(request_id, create)
            )
        except ReproError as exc:
            raise _BadRequest(str(exc)) from exc
        session = _Session(os.urandom(8).hex(), solver, id_map)
        self.sessions.put(session.sid, session)
        self.counters["session_creates"] += 1
        return 200, {
            "session": session.sid,
            "num_nodes": tree.num_nodes,
            "num_sinks": tree.num_sinks,
            "algorithm": context.algorithm,
            "backend": solver.backend,
        }

    async def _handle_session_edit(
        self,
        session: "_Session",
        body: bytes,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        spec = _parse_body(body)
        edit_specs = _require(spec, "edits", list)
        if not edit_specs:
            raise _BadRequest("'edits' must contain at least one edit")
        loop = asyncio.get_running_loop()
        try:
            answer = await loop.run_in_executor(
                None,
                lambda: _scoped_call(
                    request_id, lambda: session.apply_edits(edit_specs)
                ),
            )
        except (EditError, ReproError) as exc:
            raise _BadRequest(str(exc)) from exc
        self.counters["session_edits"] += len(edit_specs)
        return 200, answer

    async def _handle_session_resolve(
        self,
        session: "_Session",
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        loop = asyncio.get_running_loop()
        try:
            answer = await loop.run_in_executor(
                None, lambda: _scoped_call(request_id, session.resolve)
            )
        except ReproError as exc:
            raise _BadRequest(str(exc)) from exc
        self.counters["session_resolves"] += 1
        fraction = session.solver.last_executed_fraction
        self._session_fraction_sum += fraction
        self._session_fraction_last = fraction
        self._record_session_resolve(session, answer)
        return 200, answer

    def _record_session_resolve(
        self, session: "_Session", answer: Dict[str, Any]
    ) -> None:
        """Append a session re-solve to the workload log, if one is
        configured."""
        if self._workload_log is None:
            return
        from repro.routing.features import features_of
        from repro.routing.router import ExecutionPlan
        from repro.routing.workload import compiled_digest

        solver = session.solver
        self._workload_log.record(
            "session",
            digest=compiled_digest(solver.compiled),
            features=features_of(solver.compiled, kind="session"),
            plan=ExecutionPlan(backend=solver.backend, schedule_mode="splice"),
            seconds=answer["stats"]["solve_runtime_seconds"],
            algorithm=solver.algorithm,
            options=dict(solver.options),
        )

    async def _handle_session_delete(self, sid: str) -> Tuple[int, Dict]:
        session = self.sessions.get(sid)
        if session is None:
            raise _BadRequest(f"unknown or expired session {sid!r}")
        self.sessions.discard(sid)
        # In the executor: closing waits out a request in flight on it.
        await asyncio.get_running_loop().run_in_executor(None, session.close)
        return 200, {"deleted": True, "session": sid}

    # -- the serving core ----------------------------------------------

    async def _answer(
        self,
        request: "_SolveContext",
        net_specs: List[Any],
        request_id: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[Dict[str, Any]]:
        """Answer every net of one request: cache hits + sharded misses."""
        # The deadline clock starts here: parse, canonicalize, cache
        # lookup and solve all spend from one budget.
        deadline = (
            Deadline.from_ms(request.deadline_ms)
            if request.deadline_ms is not None else None
        )
        records: List[_NetRecord] = []
        # One digest memo per request: structurally repeated subtrees —
        # within one net or across a batch's nets — hash once instead
        # of once per occurrence (see canonicalize's ``memo``).
        digest_memo: Dict[str, str] = {}
        # The read/key/compile loop below is synchronous — no awaits —
        # so installing the ambient scope on the loop thread for its
        # duration is safe (no other request can interleave), and its
        # spans land on the tracer.
        with request_scope(request_id), trace_scope(tracer):
            misses = self._prepare_records(
                request, net_specs, records, digest_memo
            )

        if misses:
            solved = await self._solve_misses(
                request, misses, deadline, request_id, tracer
            )
            for record in records:
                if record.payload is None:
                    record.payload = solved[record.key]

        with _span(tracer, "render", nets=len(records)):
            return [record.render(request.library) for record in records]

    def _prepare_records(
        self,
        request: "_SolveContext",
        net_specs: List[Any],
        records: "List[_NetRecord]",
        digest_memo: Dict[str, str],
    ) -> Dict[str, Tuple[CompiledNet, CanonicalNet]]:
        """Read, key and cache-probe every net; compile the misses.

        Each net is read once, into validated records; its key and, on a
        hit, its answer come from those records alone.  Only after every
        net of the request has passed is each distinct miss compiled,
        straight from its records.  Returns ``{request key: (compiled
        net, canon)}`` in first-seen order; a key sent twice compiles
        once, and its answer is encoded against the first copy's canon.
        """
        tracer = active_tracer()
        pending: Dict[str, Tuple[int, NetRecords, CanonicalNet]] = {}
        for index, net_spec in enumerate(net_specs):
            if not isinstance(net_spec, dict):
                raise _BadRequest(
                    f"nets[{index}] must be a net object, "
                    f"got {type(net_spec).__name__}"
                )
            with _span(tracer, "net.records", net=index):
                try:
                    net = net_records(net_spec)
                except ReproError as exc:
                    raise _BadRequest(
                        f"invalid net at index {index}: {exc}"
                    ) from exc
            if (
                self.max_positions is not None
                and net.num_buffer_positions > self.max_positions
            ):
                self.counters["rejected_payloads"] += 1
                raise _HttpError(
                    f"net at index {index} has {net.num_buffer_positions} "
                    f"buffer positions, above the server's max_positions "
                    f"limit of {self.max_positions}",
                    status=422,
                )
            with _span(tracer, "net.canon", net=index):
                canon = canonicalize_records(net, memo=digest_memo)
                key = request_key(
                    canon, request.library_key, algorithm=request.algorithm,
                    backend=request.backend, options=request.options,
                    driver=net.driver,
                )
            record = _NetRecord(
                key, canon, [node.id for node in net.nodes]
            )
            records.append(record)
            record.payload = self._cache_get(record.key)
            record.cached = record.payload is not None
            if record.payload is None:
                # A hit was checked when it missed, so only a miss pays.
                negative = [
                    node.id for node in net.nodes if node.polarity == -1
                ]
                if negative:
                    raise _phase_error(
                        f"net at index {index} has negative-phase sinks "
                        f"{negative}"
                    )
                pending.setdefault(key, (index, net, canon))

        misses: Dict[str, Tuple[CompiledNet, CanonicalNet]] = {}
        if not pending:
            return misses
        # The compiler, and the buffer plans it builds, load on the
        # first miss: a server that only answers /healthz never runs it.
        from repro.core.schedule import compile_records

        for key, (index, net, canon) in pending.items():
            self._compiles += 1
            try:
                misses[key] = (compile_records(net, request.library), canon)
            except ReproError as exc:
                raise _BadRequest(
                    f"cannot compile net at index {index}: {exc}"
                ) from exc
        return misses

    async def _solve_misses(
        self,
        request: "_SolveContext",
        misses: Dict[str, Tuple[CompiledNet, CanonicalNet]],
        deadline: Optional[Deadline],
        request_id: Optional[str],
        tracer: Optional[Tracer],
    ) -> Dict[str, SolutionPayload]:
        """Solve the compiled misses on the warm pool; cache and return
        their payloads by request key."""
        entry = self._pool_for(request)
        to_solve = [net for net, _ in misses.values()]
        self.counters["worker_dispatches"] += 1
        self.counters["nets_solved"] += len(to_solve)
        loop = asyncio.get_running_loop()
        # in_flight bookkeeping happens on the event loop thread
        # (before and after the await), so LRU eviction never
        # terminates a pool another request is still solving on.
        entry.in_flight += 1
        try:
            # The deadline rides the call, not the ambient thread-
            # local: run_in_executor hops threads, so the scope is
            # re-established pool-side from the explicit argument.
            # The correlation id and tracer hop the same way, via
            # _scoped_call on the executor thread.
            results = await loop.run_in_executor(
                None,
                lambda: _scoped_call(
                    request_id,
                    lambda: entry.pool.solve(to_solve, deadline=deadline),
                    tracer=tracer,
                ),
            )
        except DeadlineExceeded as exc:
            self.counters["deadline_hits"] += 1
            raise _HttpError(str(exc), status=504) from exc
        except WorkerCrashError as exc:
            # Escapes only when supervised recovery itself failed;
            # a server fault, not a client one.
            raise _HttpError(f"worker pool failure: {exc}") from exc
        except ReproError as exc:
            raise _BadRequest(str(exc)) from exc
        finally:
            entry.in_flight -= 1
            if entry.evicted and entry.in_flight == 0:
                entry.pool.close()
        payload_by_key: Dict[str, SolutionPayload] = {}
        for (key, (_, canon)), result in zip(misses.items(), results):
            # By the store that ran: an "auto" pool routes per net.
            self._solve_counter.inc(backend=result.stats.backend)
            payload = SolutionPayload.encode(result, canon)
            payload_by_key[key] = payload
            self._cache_put(key, payload)
        return payload_by_key

    def _cache_put(self, key: str, payload: SolutionPayload) -> None:
        """Store ``(payload, digest)`` so reads can verify integrity.

        The digest is computed *before* the ``cache.payload`` fault
        site may tamper with the stored copy — exactly the property a
        real in-memory corruption has — so the chaos tests prove the
        read-side verification actually catches it.
        """
        from repro.resilience.faults import should_corrupt

        digest = payload.digest()
        if should_corrupt("cache.payload"):
            payload = dataclasses.replace(payload, slack=payload.slack + 1.0)
        self.results.put(key, (payload, digest))

    def _cache_get(self, key: str) -> Optional[SolutionPayload]:
        """A verified cache read: a corrupted payload is a miss.

        Serving a silently corrupted solution would break the bit-
        identical contract every other fallback path honors; instead
        the entry is dropped, counted, and the net re-solved.
        """
        tracer = active_tracer()
        if tracer is None:
            return self._cache_read(key)
        handle = tracer.begin("cache.lookup")
        payload = self._cache_read(key)
        tracer.end(handle, hit=payload is not None)
        return payload

    def _cache_read(self, key: str) -> Optional[SolutionPayload]:
        entry = self.results.get(key)
        if entry is None:
            return None
        payload, digest = entry
        if payload.digest() != digest:
            self.counters["integrity_failures"] += 1
            self.results.discard(key)
            return None
        return payload

    def _pool_for(self, request: "_SolveContext") -> "_PoolEntry":
        """The warm pool for this solve context (LRU over contexts).

        Evicting a pool that still has solves in flight only *marks* it;
        the last finishing solve closes it (see ``_answer``).
        """
        context_key = (
            request.library_key,
            request.algorithm,
            request.backend,
            options_key(request.options),
        )
        entry = self._pools.get(context_key)
        if entry is None:
            from repro.core.batch import SolverPool

            entry = _PoolEntry(SolverPool(
                request.library,
                algorithm=request.algorithm,
                jobs=self.jobs,
                backend=request.backend,
                parallel_threshold=self.parallel_threshold,
                workload_log=self._workload_log,
                **request.options,
            ))
            self._pools[context_key] = entry
        self._pools.move_to_end(context_key)
        while len(self._pools) > self._max_pools:
            _, evicted = self._pools.popitem(last=False)
            evicted.evicted = True
            if evicted.in_flight == 0:
                evicted.pool.close()
        return entry


class _Session:
    """One live incremental session: solver + id translation + lock.

    The request's serialized node ids (whatever labels its JSON used)
    are the session's public namespace: edits arrive in it and answers
    are rendered back into it, exactly like ``/solve``.  Nodes created
    by structural edits get fresh serialized labels (the internal id
    when free, ``"eco<id>"`` otherwise) returned from the edit call.

    ``lock`` serializes apply/resolve across concurrent HTTP requests —
    solver state is mutable and single-threaded by design.  It is held
    inside executor threads, never on the event loop.
    """

    __slots__ = ("sid", "solver", "id_map", "serialized_of", "lock")

    def __init__(self, sid: str, solver, id_map: Dict[Any, int]) -> None:
        self.sid = sid
        self.solver = solver
        self.id_map = dict(id_map)
        self.serialized_of = {new: old for old, new in id_map.items()}
        self.lock = threading.Lock()

    def _label_for(self, internal_id: int) -> Any:
        label: Any = internal_id
        if label in self.id_map:
            label = f"eco{internal_id}"
            suffix = 2
            while label in self.id_map:
                label = f"eco{internal_id}_{suffix}"
                suffix += 1
        return label

    def apply_edits(self, edit_specs: List[Any]) -> Dict[str, Any]:
        """Parse, translate and apply a batch of edits (executor side)."""
        from repro.incremental.edits import (
            AddSink,
            SetSinkPolarity,
            edit_from_dict,
        )

        edits = []
        for index, edit_spec in enumerate(edit_specs):
            if not isinstance(edit_spec, dict):
                raise _BadRequest(
                    f"edits[{index}] must be an edit object, "
                    f"got {type(edit_spec).__name__}"
                )
            translated = dict(edit_spec)
            for field in ("node", "parent"):
                if field in translated:
                    serialized = translated[field]
                    internal = self.id_map.get(serialized)
                    if internal is None:
                        raise _BadRequest(
                            f"edits[{index}]: unknown node id "
                            f"{serialized!r}"
                        )
                    translated[field] = internal
            edit = edit_from_dict(translated)
            if (
                isinstance(edit, (AddSink, SetSinkPolarity))
                and edit.polarity == -1
            ):
                raise _phase_error(
                    f"edits[{index}] ({edit.op}) makes a sink "
                    "negative-phase; no edit of this batch was applied"
                )
            edits.append(edit)
        created: List[Any] = []
        removed: List[Any] = []
        applied = 0
        with self.lock:
            for edit in edits:
                try:
                    impact = self.solver.apply(edit)
                except ReproError as exc:
                    # Earlier edits of the batch are already applied
                    # (edits are not transactional); the error must say
                    # so — above all it must hand over any labels of
                    # nodes those edits created, or the client could
                    # never address them (and a blind full-batch retry
                    # would double-apply).
                    raise _BadRequest(
                        f"edits[{applied}] rejected: {exc} "
                        f"(the {applied} preceding edit(s) of this batch "
                        f"were applied; created={created!r}, "
                        f"removed={removed!r})"
                    ) from exc
                applied += 1
                for internal in impact.created:
                    label = self._label_for(internal)
                    self.id_map[label] = internal
                    self.serialized_of[internal] = label
                    created.append(label)
                for internal in impact.removed:
                    label = self.serialized_of.pop(internal, None)
                    if label is not None:
                        del self.id_map[label]
                        removed.append(label)
            num_nodes = self.solver.tree.num_nodes
        return {
            "session": self.sid,
            "applied": applied,
            "created": created,
            "removed": removed,
            "num_nodes": num_nodes,
        }

    def resolve(self) -> Dict[str, Any]:
        """Incremental re-solve, rendered in serialized ids (executor side)."""
        with self.lock:
            result = self.solver.resolve()
            solver = self.solver
            return {
                "session": self.sid,
                "slack_seconds": result.slack,
                "driver_load_farads": result.driver_load,
                "num_buffers": result.num_buffers,
                "assignment": {
                    str(self.serialized_of[node_id]): buffer.name
                    for node_id, buffer in sorted(result.assignment.items())
                },
                "algorithm": result.stats.algorithm,
                "backend": result.stats.backend,
                "stats": {
                    "root_candidates": result.stats.root_candidates,
                    "peak_list_length": result.stats.peak_list_length,
                    "candidates_generated": result.stats.candidates_generated,
                    "solve_runtime_seconds": result.stats.runtime_seconds,
                    "num_buffer_positions": result.stats.num_buffer_positions,
                    "library_size": result.stats.library_size,
                },
                "incremental": {
                    "executed_fraction": solver.last_executed_fraction,
                    "spliced_subtrees": solver.last_spliced_subtrees,
                    "resolves": solver.resolves,
                    "edits_applied": solver.edits_applied,
                },
            }

    def close(self) -> None:
        """Release the session's frontier holds (executor side)."""
        with self.lock:
            self.solver.close()

    def nbytes(self) -> int:
        """Approximate resident footprint (compiled payloads + tree)."""
        solver = self.solver
        return solver.compiled.payload_nbytes() + 200 * solver.num_nodes


class _PoolEntry:
    """A registered pool plus the bookkeeping safe eviction needs.

    ``in_flight`` and ``evicted`` are only touched from the event-loop
    thread, never from executor threads, so they need no lock.
    """

    __slots__ = ("pool", "in_flight", "evicted")

    def __init__(self, pool) -> None:
        self.pool = pool
        self.in_flight = 0
        self.evicted = False


class _NetRecord:
    """Per-net serving state: key, canon, id translation, payload.

    ``serialized_id[node_id]`` is the request's id of ``canon``'s node
    ``node_id`` (a list when node ids are record positions).
    """

    __slots__ = ("key", "canon", "serialized_id", "payload", "cached")

    def __init__(
        self,
        key: str,
        canon: CanonicalNet,
        serialized_id: Union[List[Any], Dict[int, Any]],
    ) -> None:
        self.key = key
        self.canon = canon
        self.serialized_id = serialized_id
        self.payload: Optional[SolutionPayload] = None
        self.cached = False

    def render(self, library: BufferLibrary) -> Dict[str, Any]:
        """The JSON answer for this net, in the request's node ids."""
        payload = self.payload
        assert payload is not None
        result = payload.materialize(self.canon, library)
        return {
            "key": self.key,
            "cached": self.cached,
            "slack_seconds": result.slack,
            "driver_load_farads": result.driver_load,
            "num_buffers": result.num_buffers,
            "assignment": {
                str(self.serialized_id[node_id]): buffer.name
                for node_id, buffer in sorted(result.assignment.items())
            },
            "algorithm": payload.algorithm,
            "backend": payload.backend,
            "stats": {
                "root_candidates": payload.root_candidates,
                "peak_list_length": payload.peak_list_length,
                "candidates_generated": payload.candidates_generated,
                "solve_runtime_seconds": payload.runtime_seconds,
                "num_buffer_positions": payload.num_buffer_positions,
                "library_size": payload.library_size,
            },
        }


class _SolveContext:
    """The per-request solve parameters, parsed and validated once."""

    def __init__(
        self,
        library: BufferLibrary,
        algorithm: str,
        backend: str,
        options: Dict[str, Any],
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.library = library
        self.algorithm = algorithm
        self.backend = backend
        self.options = options
        self.deadline_ms = deadline_ms
        self.library_key = library_key(library)

    @classmethod
    def from_spec(
        cls,
        spec: Dict[str, Any],
        default_deadline_ms: Optional[float] = None,
    ) -> "_SolveContext":
        if "policy" in spec:
            raise _BadRequest(_POLICY_REFUSAL)
        library_spec = _require(spec, "library", dict)
        try:
            library = library_from_dict(library_spec)
        except ReproError as exc:
            raise _BadRequest(f"invalid library: {exc}") from exc
        inverting = [b.name for b in library.buffers if b.inverting]
        if inverting:
            raise _phase_error(f"library has inverting types {inverting}")
        algorithm = spec.get("algorithm", "fast")
        if not isinstance(algorithm, str):
            raise _BadRequest("'algorithm' must be a string")
        backend = spec.get("backend", "auto")
        if not isinstance(backend, str):
            raise _BadRequest("'backend' must be a string")
        options = spec.get("options", {})
        if not isinstance(options, dict):
            raise _BadRequest("'options' must be an object")
        deadline_ms = spec.get("deadline_ms", default_deadline_ms)
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                raise _BadRequest(
                    "'deadline_ms' must be a positive number of milliseconds"
                )
            deadline_ms = float(deadline_ms)
        try:
            get_algorithm(algorithm).validate_options(options)
            if backend != AUTO_BACKEND:
                validate_backend(backend)
        except ReproError as exc:
            raise _BadRequest(str(exc)) from exc
        return cls(library, algorithm, backend, options, deadline_ms)


def _counts(name: str, label: str, **where: str) -> Dict[str, int]:
    """A process counter's counts by ``label``'s value, over the series
    whose labels include ``where`` (:meth:`~repro.obs.metrics.Counter.by`)."""
    return {
        key: int(count)
        for key, count in process_counter(name).by(label, **where).items()
    }


def _parse_body(body: bytes) -> Dict[str, Any]:
    if not body:
        raise _BadRequest("request body required")
    try:
        spec = json.loads(body)
    except json.JSONDecodeError as exc:
        raise _BadRequest(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise _BadRequest("request body must be a JSON object")
    return spec


def _require(spec: Dict[str, Any], field: str, kind: type) -> Any:
    value = spec.get(field)
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "an array"}.get(kind, kind.__name__)
        raise _BadRequest(f"'{field}' must be {expected}")
    return value


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    jobs: Optional[int] = 1,
    cache_size: int = 1024,
    cache_ttl: Optional[float] = None,
    max_pools: int = 4,
    max_sessions: int = 32,
    session_ttl: Optional[float] = 3600.0,
    frontier_cache_bytes: int = 64 << 20,
    parallel_threshold: Optional[int] = None,
    workload_log: Optional[str] = None,
    max_inflight: int = 8,
    max_queue_depth: int = 32,
    max_request_bytes: int = _MAX_BODY_BYTES,
    max_positions: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    ready=None,
) -> None:
    """Run a :class:`BufferServer` until interrupted (the CLI's engine).

    SIGTERM triggers a graceful drain: no new admissions, in-flight
    requests complete, stats are flushed, then the socket and the
    worker pools close.  SIGINT (Ctrl-C) remains the immediate stop.

    Args:
        host, port, jobs, cache_size, cache_ttl, max_pools,
        max_sessions, session_ttl, frontier_cache_bytes,
        parallel_threshold, workload_log, max_inflight,
        max_queue_depth, max_request_bytes, max_positions,
        deadline_ms: Forwarded to :class:`BufferServer`.
        ready: Optional callback invoked with the started server (tests
            use it to learn the ephemeral port and to retain a handle).
    """

    async def _run() -> None:
        server = BufferServer(
            host=host, port=port, jobs=jobs, cache_size=cache_size,
            cache_ttl=cache_ttl, max_pools=max_pools,
            max_sessions=max_sessions, session_ttl=session_ttl,
            frontier_cache_bytes=frontier_cache_bytes,
            parallel_threshold=parallel_threshold,
            workload_log=workload_log,
            max_inflight=max_inflight, max_queue_depth=max_queue_depth,
            max_request_bytes=max_request_bytes,
            max_positions=max_positions, deadline_ms=deadline_ms,
        )
        bound_host, bound_port = await server.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, server.request_drain)
        except (NotImplementedError, RuntimeError):
            # Platforms/threads without signal support still serve;
            # drain stays reachable via request_drain().
            pass
        print(f"repro serve: listening on http://{bound_host}:{bound_port} "
              f"(jobs={server.jobs}, cache={cache_size} entries"
              f"{'' if cache_ttl is None else f', ttl={cache_ttl}s'})")
        if ready is not None:
            ready(server)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            # Raised when stop() or drain() closes the listening socket
            # — the clean-shutdown path, not an error.
            pass
        finally:
            try:
                loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: stopped")
