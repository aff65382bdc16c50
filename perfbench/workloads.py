"""The benchmark's four workloads and the loop that measures them.

Every workload is a closed loop from one client: the next op is sent
only when the previous one has been answered.  Three drive a
``python -m repro serve --port 0`` subprocess over HTTP; ``trunk_kernel``
calls the DP in-process.  See ``perfbench/README.md`` for why each
exists and what each metric means.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import insert_buffers
from repro.core.schedule import compile_net
from repro.experiments.workloads import FIG4_NET, TABLE1_NETS, build_net
from repro.incremental import IncrementalSolver
from repro.service.cache import SolutionPayload
from repro.service.canon import canonicalize
from repro.timing import evaluate_assignment
from repro.tree.io import library_to_dict, tree_from_dict, tree_to_dict

from perfbench import inputs
from perfbench.checks import (
    RETIME_EVERY,
    Expected,
    compare,
    expected_of,
    reference,
    retime,
)
from perfbench.layers import LayerEnv, LayerWalk, record_session_step
from perfbench.server import ServerProcess, request, vm_hwm_mb
from perfbench.speed import Speedometer
from perfbench.stats import median, percentile, ratio, samples_needed
from perfbench.trace import (
    SpanRecorder,
    descendants,
    empty_span_seconds,
    self_times,
)

ROOT = Path(__file__).resolve().parent.parent
#: Run artifacts (server logs, Chrome traces); ignored by git.
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Probes taken on either side of a set-up or of the HTTP floor probes.
SIDE_PROBES = 5
#: A run keeps measuring past ``--seconds`` until p90 is supported...
MIN_SAMPLES = samples_needed(90)
#: ...for at most this many seconds in all.
MAX_MEASURE_SECONDS = 60.0
#: ``GET /healthz`` round trips behind ``service.http_floor_ms``.
FLOOR_PROBES = 50

SOLVE_SINKS = (5, 300)  # inclusive range, spread in log scale
SOLVE_LIBRARY_SIZES = (8, 32)
ECO_LIBRARY_SIZE = 16
#: Trunk lengths are log-spread in this range: 500, 658, 866, 1026 and
#: 1350 positions.  Solves take ~30-200 ms: long enough for add-buffer
#: on long lists to dominate and for ``soa`` to beat ``object``, short
#: enough for the 100 solves a p90 needs to take about 12 seconds.
#: With five trunks cycled, p50 and p90 fall in the middle of the
#: solves of the third and the fifth trunk by length, not on the step
#: between two trunks.
TRUNK_POSITIONS = (500, 1600)
TRUNK_COUNT = 5
TRUNK_LIBRARY_SIZE = 32


class Workload:
    """One seeded traffic mix; subclasses fill in the hooks."""

    name = ""
    #: Nets answered by one op (for ``nets_per_s``).
    nets_per_op = 1
    #: HTTP round trips in one op (0 for in-process ops).
    requests_per_op = 1
    #: ``peak_rss_mb`` is read after this many ops of an untimed run,
    #: which keeps going until it has sent them.  The server's caches
    #: grow with every op, so a peak read at the end of the window
    #: would grow with the host's speed (a 10-18% spread over five
    #: seeds); after a fixed number of ops it measures a fixed amount
    #: of work.
    rss_ops = 300

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{self.name}:{seed}")
        self.server: Optional[ServerProcess] = None
        self.speed = Speedometer()
        #: Checked answers from set-up (cache warm-up, session start).
        self.warm_failures: List[str] = []
        self.warm_ops = 0

    # -- hooks ----------------------------------------------------------

    def prepare(self) -> None:
        """Generate every input of the run (untimed)."""

    def setup(self, repeats: int) -> List[Tuple[float, float]]:
        """Set the system up ``repeats`` times; ``(start, seconds)`` of
        each set-up (see :meth:`timed`)."""
        raise NotImplementedError

    def ops(self) -> Iterable[Any]:
        """The run's ops, without end: a run stops on time, never
        because its inputs ran out."""
        raise NotImplementedError

    def execute(self, op: Any) -> Tuple[float, Any]:
        """Run one op; ``(latency seconds, response)``."""
        raise NotImplementedError

    def trace_op(self, rec: SpanRecorder, env: LayerEnv, op: Any,
                 response: Any) -> Dict[str, float]:
        """Record the ``path`` and ``probe`` layer spans of one op."""
        raise NotImplementedError

    def observe(self, op: Any, response: Any) -> None:
        """Traced runs only: follow an op that was not traced."""

    def check(self, executed: List[Tuple[Any, Any]]) -> List[str]:
        """One reason per failed op."""
        raise NotImplementedError

    def finish(self) -> None:
        """After the timed window, before the peak RSS is read."""

    def peak_rss_mb(self) -> float:
        assert self.server is not None
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- shared helpers -------------------------------------------------

    def timed(self, action: Callable[[], Any]) -> Tuple[float, float]:
        """Run ``action`` between probes; ``(start, seconds)``."""
        self.speed.sample(SIDE_PROBES)
        started = time.perf_counter()
        action()
        seconds = time.perf_counter() - started
        self.speed.sample(SIDE_PROBES)
        return started, seconds

    def start_servers(self, repeats: int) -> List[Tuple[float, float]]:
        """Spawn ``repeats`` servers in turn, each timed from spawn to
        its first answered request; keep the last one running."""
        intervals = []
        for _ in range(repeats):
            self.close()
            self.server = ServerProcess(ROOT, OUT_DIR / f"server-{self.name}.log")
            intervals.append(self.timed(self.server.start))
        return intervals

    def post(self, path: str, body: bytes) -> Tuple[float, Tuple[Optional[int], bytes]]:
        """One timed round trip; a transport error is a ``None`` status."""
        assert self.server is not None
        started = time.perf_counter()
        try:
            status, text = request(self.server.port, "POST", path, body)
        except (OSError, http.client.HTTPException) as exc:
            status, text = None, str(exc).encode()
        return time.perf_counter() - started, (status, text)


def solve_sizes(count: int) -> List[Tuple[int, int]]:
    """``(sinks, b)`` of the first ``count`` ``/solve`` nets of a run."""
    return [
        (sinks, SOLVE_LIBRARY_SIZES[index % len(SOLVE_LIBRARY_SIZES)])
        for index, sinks in enumerate(
            inputs.spread_sizes(*SOLVE_SINKS, count, log=True)
        )
    ]


def answer_of(response: Tuple[Optional[int], bytes]) -> Tuple[Optional[dict], Optional[str]]:
    """The decoded answer of a 200 response, or a failure reason."""
    status, text = response
    if status != 200:
        return None, f"status {status}: {text[:200]!r}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"answer is not JSON: {exc}"


def retimed(n: int, cycle: int) -> bool:
    """Whether op ``n`` of inputs sent in turn, ``cycle`` to a round, is
    re-timed: one in :data:`RETIME_EVERY` of the first round (a later
    round repeats its bodies, whose answers are compared anyway)."""
    return n < cycle and n % RETIME_EVERY == 0


class SolveHit(Workload):
    """``POST /solve`` re-sends, under fresh node ids, of answered nets."""

    name = "solve_hit"
    BASE_NETS = 42
    RELABELS = 6

    def prepare(self) -> None:
        rng = self.rng
        self.libraries = {
            size: inputs.library(size, seed=size) for size in SOLVE_LIBRARY_SIZES
        }
        library_dicts = {
            size: library_to_dict(lib) for size, lib in self.libraries.items()
        }
        self.bases = [
            (inputs.random_net(sinks, rng.randrange(2**31)), size)
            for sinks, size in solve_sizes(self.BASE_NETS)
        ]
        self.first_bodies = [
            inputs.solve_body(net, library_dicts[size]) for net, size in self.bases
        ]
        self.expected: List[Expected] = []
        self.payloads: List[SolutionPayload] = []
        for net, size in self.bases:
            tree, id_map = tree_from_dict(net, with_id_map=True)
            result = insert_buffers(tree, self.libraries[size])
            self.expected.append(expected_of(result, id_map))
            self.payloads.append(SolutionPayload.encode(result, canonicalize(tree)))
        self.resends = []
        for round_ in range(self.RELABELS):
            for index, (net, size) in enumerate(self.bases):
                tag = f"r{round_}x{rng.randrange(16**6):06x}n"
                fresh, label = inputs.relabel(net, tag, rng)
                self.resends.append((
                    index, fresh, label,
                    inputs.solve_body(fresh, library_dicts[size]),
                ))

    def setup(self, repeats):
        samples = self.start_servers(repeats)
        # The first send of every base net fills the result cache.
        for index, body in enumerate(self.first_bodies):
            _, response = self.post("/solve", body)
            self.warm_ops += 1
            answer, error = answer_of(response)
            error = error or compare(answer, self.expected[index])
            if error:
                self.warm_failures.append(f"warm-up {index}: {error}")
        return samples

    def ops(self) -> Iterable[Any]:
        return itertools.cycle(self.resends)

    def execute(self, op: Any) -> Tuple[float, Any]:
        return self.post("/solve", op[3])

    def trace_op(self, rec, env, op, response):
        index = op[0]
        walk = LayerWalk(rec, env, op[3])
        with rec.span("path"):
            walk.decode()
            walk.parse()
            walk.canon()
            walk.verify([self.payloads[index]])
            walk.render([self.payloads[index]], cached=True)
        with rec.span("probe"):
            walk.compile()
            walk.route()
            walk.solve()
            walk.encode()
            walk.group_solve()
            walk.corner_group()
            walk.kernel()
            walk.session()
        return walk.counts

    def check(self, executed):
        failures = []
        for n, ((index, net, label, _), response) in enumerate(executed):
            answer, error = answer_of(response)
            if error is None:
                error = compare(answer, self.expected[index].relabelled(label))
            if error is None and answer.get("cached") is not True:
                error = "a re-send was not answered from the cache"
            if error is None and retimed(n, len(self.resends)):
                error = retime(answer, net, self.libraries[self.bases[index][1]])
            if error:
                failures.append(f"op {n}: {error}")
        return failures


class SolveMiss(Workload):
    """``POST /solve`` of nets the server has never seen."""

    name = "solve_miss"
    #: Distinct nets, sent in turn.  More than the server's default
    #: result-cache capacity (1024 entries, least recently used out
    #: first), so each net has been evicted before it comes round
    #: again and every send is a miss; the check asserts it.
    POOL_NETS = 1100

    def prepare(self) -> None:
        rng = self.rng
        self.libraries = {
            size: inputs.library(size, seed=size) for size in SOLVE_LIBRARY_SIZES
        }
        library_dicts = {
            size: library_to_dict(lib) for size, lib in self.libraries.items()
        }
        self.requests = []
        for sinks, size in solve_sizes(self.POOL_NETS):
            net = inputs.random_net(sinks, rng.randrange(2**31))
            self.requests.append((
                len(self.requests), net, size,
                inputs.solve_body(net, library_dicts[size]),
            ))

    def setup(self, repeats):
        return self.start_servers(repeats)

    def ops(self) -> Iterable[Any]:
        return itertools.cycle(self.requests)

    def execute(self, op: Any) -> Tuple[float, Any]:
        return self.post("/solve", op[3])

    def trace_op(self, rec, env, op, response):
        walk = LayerWalk(rec, env, op[3])
        with rec.span("path"):
            walk.decode()
            walk.parse()
            walk.canon()
            walk.compile()
            walk.group_solve()
            walk.encode()
            walk.verify()
            walk.render()
        with rec.span("probe"):
            walk.route()
            walk.solve()
            walk.corner_group()
            walk.kernel()
            walk.session()
        return walk.counts

    def check(self, executed):
        failures = []
        expected: Dict[int, Expected] = {}
        for n, ((index, net, size, _), response) in enumerate(executed):
            if index not in expected:
                expected[index] = reference(net, self.libraries[size])
            answer, error = answer_of(response)
            if error is None:
                error = compare(answer, expected[index])
            if error is None and answer.get("cached") is not False:
                error = "a send was answered from the cache"
            if error is None and retimed(n, self.POOL_NETS):
                error = retime(answer, net, self.libraries[size])
            if error:
                failures.append(f"op {n}: {error}")
        return failures


class EcoSession(Workload):
    """Edit + resolve round trips on one ``/session`` (Table-1 net)."""

    name = "eco_session"
    requests_per_op = 2
    #: Script steps generated per second of the longest window a run
    #: may measure: about ten times what a run sends.  The script is
    #: never sent twice: a net state seen before is answered from the
    #: session's frontier cache (one seed's repeated 200-step script
    #: read a p50 of 2.9 ms against ~17 ms), which no ECO loop sees.
    STEPS_PER_SECOND = 600
    #: One resolve in this many is also checked against a from-scratch
    #: ``insert_buffers`` (every resolve is checked against an
    #: in-process session replaying the same edits).
    SCRATCH_EVERY = 16

    def prepare(self) -> None:
        # A JSON round trip renumbers ids in pre-order; after it the
        # serialized ids equal the ids tree_from_dict assigns, so edits
        # and answers need no translation in the in-process replay.
        self.net = tree_to_dict(tree_from_dict(tree_to_dict(
            build_net(TABLE1_NETS[0])
        )))
        self.library = inputs.library(ECO_LIBRARY_SIZE, seed=ECO_LIBRARY_SIZE)
        self.create_body = json.dumps({
            "net": self.net, "library": library_to_dict(self.library),
            "algorithm": "fast", "backend": "auto", "options": {},
        }).encode()
        script = inputs.edit_script(
            self.net, int(MAX_MEASURE_SECONDS * self.STEPS_PER_SECOND), self.rng
        )
        self.steps = [
            (edit, json.dumps({"edits": [edit]}).encode()) for edit in script
        ]

    def new_solver(self) -> IncrementalSolver:
        return IncrementalSolver(tree_from_dict(self.net), self.library)

    def identity(self) -> Dict[int, int]:
        """Request ids to solver ids (equal after the round trip)."""
        return {i: i for i in range(len(self.net["nodes"]))}

    def setup(self, repeats):
        samples = self.start_servers(repeats)
        info = self.server.call("POST", "/session", self.create_body)
        self.session_path = f"/session/{info['session']}"
        # The first resolve is a full solve that fills the frontiers.
        _, response = self.post(self.session_path + "/resolve", b"")
        self.warm_ops += 1
        self.mirror = self.new_solver()
        answer, error = answer_of(response)
        error = error or compare(
            answer, expected_of(self.mirror.resolve(), self.identity())
        )
        if error:
            self.warm_failures.append(f"first resolve: {error}")
        return samples

    def ops(self) -> Iterable[Any]:
        return self.steps

    def execute(self, op: Any) -> Tuple[float, Any]:
        edit_latency, edit_response = self.post(self.session_path + "/edit", op[1])
        resolve_latency, resolve_response = self.post(
            self.session_path + "/resolve", b""
        )
        return edit_latency + resolve_latency, [edit_response, resolve_response]

    def observe(self, op, response):
        self.mirror.apply(op[0])
        self.mirror.resolve()

    def trace_op(self, rec, env, op, response):
        counts: Dict[str, float] = {}
        with rec.span("path"):
            with rec.span("service.json_decode"):
                edits = json.loads(op[1])["edits"]
            record_session_step(rec, self.mirror, self.identity(), edits, counts)
        with rec.span("probe"):
            walk = LayerWalk(rec, env, inputs.solve_body(
                tree_to_dict(self.mirror.tree), library_to_dict(self.library)
            ))
            walk.decode()
            walk.parse()
            walk.canon()
            walk.compile()
            walk.route()
            walk.solve()
            walk.encode()
            walk.verify()
            walk.render()
            walk.group_solve()
            walk.corner_group()
            walk.kernel()
        counts.update(walk.counts)
        return counts

    def check(self, executed):
        failures = []
        solver = self.new_solver()
        solver.resolve()
        identity = self.identity()
        for n, ((edit, _), (edit_response, resolve_response)) in enumerate(executed):
            solver.apply(edit)
            result = solver.resolve()
            edited, error = answer_of(edit_response)
            if error is None and edited.get("applied") != 1:
                error = f"edit answer {edited!r}"
            answer, resolve_error = answer_of(resolve_response)
            error = error or resolve_error
            error = error or compare(answer, expected_of(result, identity))
            if error is None and n % self.SCRATCH_EVERY == 0:
                net = tree_to_dict(solver.tree)
                error = (compare(answer, reference(net, self.library))
                         or retime(answer, net, self.library))
            if error:
                failures.append(f"op {n}: {error}")
        return failures

    def finish(self) -> None:
        self.server.call("DELETE", self.session_path)


class TrunkKernel(Workload):
    """Repeated in-process solves of five compiled Figure 4 trunks."""

    name = "trunk_kernel"
    requests_per_op = 0
    #: The trunks are built in set-up; solving them again allocates
    #: nothing that stays.
    rss_ops = MIN_SAMPLES

    def prepare(self) -> None:
        # Neither the trunks nor the library depend on the seed: every
        # run solves the same nets, so the spread between runs is the
        # machine's alone.
        self.library = inputs.library(TRUNK_LIBRARY_SIZE, seed=TRUNK_LIBRARY_SIZE)
        self.positions = inputs.spread_sizes(*TRUNK_POSITIONS, TRUNK_COUNT, log=True)
        library_dict = library_to_dict(self.library)
        self.bodies = [
            inputs.solve_body(tree_to_dict(build_net(FIG4_NET, n)), library_dict)
            for n in self.positions
        ]

    def setup(self, repeats):
        intervals = [self.timed(self.build) for _ in range(repeats)]
        if self.trace:
            # Only for the service-layer probes (HTTP floor, /stats).
            self.start_servers(1)
        return intervals

    def build(self) -> None:
        """Build and compile the trunks, and solve each once."""
        # build_net memoizes; its undecorated form builds afresh.
        self.trees = [build_net.__wrapped__(FIG4_NET, n) for n in self.positions]
        self.compiled = [compile_net(tree, self.library) for tree in self.trees]
        self.first = [insert_buffers(net, self.library) for net in self.compiled]

    def ops(self) -> Iterable[Any]:
        return itertools.count()

    def execute(self, op: Any) -> Tuple[float, Any]:
        started = time.perf_counter()
        result = insert_buffers(self.compiled[op % TRUNK_COUNT], self.library)
        latency = time.perf_counter() - started
        return latency, (result.slack, result.stats.candidates_generated)

    def trace_op(self, rec, env, op, response):
        walk = LayerWalk(rec, env, self.bodies[op % TRUNK_COUNT])
        with rec.span("path"):
            walk.library = self.library
            walk.compiled = [self.compiled[op % TRUNK_COUNT]]
            walk.solve()
        with rec.span("probe"):
            walk.decode()
            walk.parse()
            walk.canon()
            walk.compile()
            walk.route()
            walk.encode()
            walk.verify()
            walk.render()
            walk.group_solve()
            walk.corner_group()
            walk.kernel()
            walk.session()
        return walk.counts

    def check(self, executed):
        failures = []
        for tree, first in zip(self.trees, self.first):
            slack = evaluate_assignment(tree, first.assignment).slack
            if abs(slack - first.slack) > 1e-12 * abs(slack):
                failures.append(f"re-timed slack {slack!r} vs {first.slack!r}")
        for op, got in executed:
            first = self.first[op % TRUNK_COUNT]
            want = (first.slack, first.stats.candidates_generated)
            if got != want:
                failures.append(f"solve {op}: (slack, candidates) {got} != {want}")
        return failures

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())


WORKLOADS = {
    cls.name: cls
    for cls in (SolveHit, SolveMiss, EcoSession, TrunkKernel)
}

#: Per-layer time metrics: ``metric -> (span name, scale from seconds)``.
#: Each is the summed self time of the op's spans of that name.
LAYER_TIMES = {
    "service.json_decode_ms": ("service.json_decode", 1e3),
    "service.render_ms": ("service.render", 1e3),
    "tree.from_dict_ms": ("tree.from_dict", 1e3),
    "tree.library_from_dict_ms": ("tree.library_from_dict", 1e3),
    "canon.canonicalize_ms": ("canon.canonicalize", 1e3),
    "canon.request_key_ms": ("canon.request_key", 1e3),
    "cache.verify_ms": ("cache.verify", 1e3),
    "schedule.compile_ms": ("schedule.compile", 1e3),
    "routing.route_us": ("routing.route", 1e6),
    "dp.solve_ms": ("dp.solve", 1e3),
    "dp.encode_ms": ("dp.encode", 1e3),
    "batch.group_solve_ms": ("batch.group_solve", 1e3),
    "batch.corner_group_ms": ("batch.corner_group", 1e3),
    "batch.sequential_solve_ms": ("batch.sequential_solve", 1e3),
    "incremental.apply_ms": ("incremental.apply", 1e3),
    "incremental.resolve_ms": ("incremental.resolve", 1e3),
    "service.session_edit_ms": ("service.session_edit", 1e3),
    "service.session_resolve_ms": ("service.session_resolve", 1e3),
}


def _delta(after: Dict, before: Dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def stats_metrics(before: Dict, after: Dict) -> Dict[str, float]:
    """Per-layer counts from two ``GET /stats`` snapshots."""
    cache_hits = _delta(after, before, "cache", "hits")
    compiled_hits = _delta(after, before, "compiled_cache", "hits")
    return {
        "service.errors": _delta(after, before, "counters", "errors"),
        "service.sheds": _delta(after, before, "counters", "sheds"),
        "cache.hit_ratio": ratio(
            cache_hits, cache_hits + _delta(after, before, "cache", "misses")
        ),
        "schedule.compiled_hit_ratio": ratio(
            compiled_hits,
            compiled_hits + _delta(after, before, "compiled_cache", "misses"),
        ),
    }


def http_floor_ms(server: ServerProcess) -> float:
    """Median ``GET /healthz`` round trip: the cost of any request."""
    samples = []
    for _ in range(FLOOR_PROBES):
        started = time.perf_counter()
        status, _ = request(server.port, "GET", "/healthz")
        samples.append(time.perf_counter() - started)
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
    return median(samples) * 1e3


def op_layers(rec: SpanRecorder, first: int, latency: float,
              floor_s: float, requests: int, span_s: float) -> Dict[str, float]:
    """Layer times and trace health of the op whose spans start at
    ``rec.spans[first]``; ``span_s`` is the cost of one empty span."""
    spans = rec.spans[first:]
    own = self_times(spans)
    row: Dict[str, float] = {}
    for metric, (span_name, scale) in LAYER_TIMES.items():
        row[metric] = scale * sum(
            own[span.span_id] for span in spans if span.name == span_name
        )
    path = next(span for span in spans if span.name == "path")
    on_path = sum(own[span.span_id] for span in descendants(spans, path.span_id))
    row["trace.coverage_frac"] = on_path / (latency - requests * floor_s)
    op = next(span for span in spans if span.name == "op")
    row["trace.overhead_frac"] = len(spans) * span_s / op.duration
    return row


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; the result object the benchmark prints."""
    workload = WORKLOADS[name](seed, seconds, trace)
    speed = workload.speed
    rec = SpanRecorder()
    env = LayerEnv()
    executed: List[Tuple[Any, Any]] = []
    #: ``(start, seconds)`` of every op, and the traced ops' rows.
    intervals: List[Tuple[float, float]] = []
    rows: List[Tuple[int, Dict[str, float]]] = []
    try:
        workload.prepare()
        setup = workload.setup(1 if trace else SETUP_REPEATS)
        if trace:
            speed.sample(SIDE_PROBES)
            floor_at = time.perf_counter()
            floor_s = http_floor_ms(workload.server) / 1e3
            span_s = empty_span_seconds()
            stats_before = workload.server.call("GET", "/stats")
        # Half the ops of a traced run are traced, drawn independently
        # of the inputs' size cycle so both halves see the same mix (the
        # second op always is, the first never, so neither half is empty).
        pick = random.Random(f"trace:{seed}")
        gc.collect()
        if not trace and workload.requests_per_op:
            # The client's collector stays out of served latencies; an
            # in-process solve keeps it, as its own cost.
            gc.disable()
        min_ops = max(MIN_SAMPLES, workload.rss_ops)
        rss = None
        started = time.perf_counter()
        for index, op in enumerate(workload.ops()):
            elapsed = time.perf_counter() - started
            if elapsed >= max(seconds, MAX_MEASURE_SECONDS) or (
                elapsed >= seconds and (trace or len(intervals) >= min_ops)
            ):
                break
            speed.maybe_sample()
            op_started = time.perf_counter()
            if trace and index and (index == 1 or pick.random() < 0.5):
                first = len(rec.spans)
                with rec.op(index, workload=name):
                    with rec.span("client.request"):
                        latency, response = workload.execute(op)
                    counts = workload.trace_op(rec, env, op, response)
                row = op_layers(rec, first, latency, floor_s,
                                workload.requests_per_op, span_s)
                row.update(counts)
                rows.append((index, row))
            else:
                latency, response = workload.execute(op)
                if trace:
                    workload.observe(op, response)
            executed.append((op, response))
            intervals.append((op_started, latency))
            if not trace and len(intervals) == workload.rss_ops:
                rss = workload.peak_rss_mb()
        else:
            # Only a finite script can run out; a faster program must
            # not measure a shorter window than its parent did.
            raise RuntimeError(
                f"{name}: all {len(executed)} inputs were sent before the "
                f"window ended; generate more per second"
            )
        speed.sample()
        elapsed = time.perf_counter() - started
        gc.enable()
        if trace:
            stats_after = workload.server.call("GET", "/stats")
        workload.finish()
        failures = workload.warm_failures + workload.check(executed)
    finally:
        gc.enable()
        workload.close()
        env.close()

    for failure in failures[:10]:
        print(f"perfbench: {name}: FAILED {failure}", file=sys.stderr)
    # Every duration is reported at the reference speed (perfbench/speed.py).
    factors = [speed.scale_at(start + took / 2) for start, took in intervals]
    latencies = [took * f for (_, took), f in zip(intervals, factors)]
    if trace:
        for index, row in rows:
            for metric in itertools.chain(LAYER_TIMES, ["kernel.total_ms"]):
                row[metric] *= factors[index]
        metrics = {
            metric: median([row[metric] for _, row in rows])
            for metric in rows[0][1]
        }
        metrics.update(stats_metrics(stats_before, stats_after))
        metrics["service.http_floor_ms"] = (
            floor_s * 1e3 * speed.scale_at(floor_at)
        )
        metrics["routing.soa_share"] = ratio(
            env.plans["soa"], sum(env.plans.values())
        )
        metrics["machine.probe_us"] = speed.probe_median() * 1e6
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        rec.write_chrome(OUT_DIR / f"trace-{name}-{seed}.json")
    else:
        if rss is None:
            raise RuntimeError(
                f"{name}: {len(intervals)} ops in {elapsed:.0f}s, fewer than "
                f"the {workload.rss_ops} before peak_rss_mb is read"
            )
        metrics = {
            "setup_s": median(speed.scaled(setup)),
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p90_ms": percentile(latencies, 90) * 1e3,
            "nets_per_s": len(latencies) * workload.nets_per_op / sum(latencies),
            "peak_rss_mb": rss,
        }
    raw_p50 = median([took for _, took in intervals]) * 1e3
    print(
        f"perfbench: {name} seed={seed} trace={int(trace)}: "
        f"{len(intervals)} ops in {elapsed:.2f}s, {len(failures)} failed; "
        f"unscaled p50 {raw_p50:.3f} ms, median probe "
        f"{speed.probe_median() * 1e6:.0f} us",
        file=sys.stderr,
    )
    return {
        "correct": not failures,
        "attempted": len(executed) + workload.warm_ops,
        "failed": len(failures),
        "metrics": metrics,
    }
