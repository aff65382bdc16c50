"""Layer calls for the traced run: one span per call into a layer.

:class:`LayerWalk` takes one op's request body and calls, in this
process, the function each layer exposes, on the same inputs.  Each
call runs inside a span named after its layer (``tree.from_dict``,
``canon.canonicalize``, ``dp.solve``...).  A workload groups the calls
its own request makes in ``repro.service.server`` under a ``path`` span,
in the server's order: ``/solve`` and ``/batch`` parse, canonicalize,
key, read the cache (``cache.verify``: the digest check of a read), and
on a miss compile, solve the misses in one ``SolverPool.solve``
(``batch.group_solve``; the pool routes inside it), encode and render
(the server's own ``_NetRecord.render``).  A session step runs the
server's ``_Session.apply_edits`` and ``_Session.resolve``.  The other
layers run on the same inputs under a ``probe`` span, so every layer is
measured on every workload: ``routing.route`` calls ``Router.route``
by itself, ``dp.solve`` solves each net through ``insert_buffers``, and
``batch.corner_group`` solves the first net's eight R/C-corner replicas
as one group on the batch axis.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Optional

from repro import SolverPool, insert_buffers
from repro.core.schedule import compile_net
from repro.incremental import IncrementalSolver
from repro.library.library import BufferLibrary
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.routing.features import features_of
from repro.routing.router import Router
from repro.service.cache import SolutionPayload
from repro.service.canon import canonicalize, library_key, request_key
from repro.service.server import _NetRecord, _Session
from repro.tree.io import library_from_dict, tree_from_dict

from perfbench.inputs import corner_lanes
from perfbench.trace import SpanRecorder

#: R/C corners of the batch-axis probe (``make_corners(8)``).
CORNER_LANES = 8


class LayerEnv:
    """State the layers keep between requests, as the server keeps it:
    one router and one warm :class:`SolverPool` per library."""

    def __init__(self) -> None:
        self.router = Router()
        self.pools: Dict[str, SolverPool] = {}
        self.plans: Counter = Counter()

    def pool(self, library: BufferLibrary) -> SolverPool:
        key = library_key(library)
        if key not in self.pools:
            self.pools[key] = SolverPool(library)
        return self.pools[key]

    def close(self) -> None:
        for pool in self.pools.values():
            pool.close()
        self.pools.clear()


class LayerWalk:
    """The layers of one ``/solve`` or ``/batch`` request, call by call.

    Each method wraps one layer call in a span and keeps its output for
    the calls after it; counts land in :attr:`counts`.
    """

    def __init__(self, rec: SpanRecorder, env: LayerEnv, body: bytes) -> None:
        self.rec = rec
        self.env = env
        self.body = body
        self.counts: Dict[str, float] = {}
        self.nets: List[Dict[str, Any]] = []
        self.library_spec: Dict[str, Any] = {}
        self.library: Optional[BufferLibrary] = None
        self.trees: List[Any] = []
        self.label_of: List[Dict[int, Any]] = []
        self.canons: List[Any] = []
        self.keys: List[str] = []
        self.compiled: List[Any] = []
        self.results: List[Any] = []
        self.payloads: List[SolutionPayload] = []

    def decode(self) -> None:
        with self.rec.span("service.json_decode"):
            spec = json.loads(self.body)
        self.nets = spec["nets"] if "nets" in spec else [spec["net"]]
        self.library_spec = spec["library"]

    def parse(self) -> None:
        with self.rec.span("tree.library_from_dict"):
            self.library = library_from_dict(self.library_spec)
        with self.rec.span("tree.from_dict"):
            parsed = [tree_from_dict(net, with_id_map=True) for net in self.nets]
        self.trees = [tree for tree, _ in parsed]
        self.label_of = [
            {new: old for old, new in id_map.items()} for _, id_map in parsed
        ]

    def canon(self) -> None:
        memo: Dict[str, str] = {}
        with self.rec.span("canon.canonicalize"):
            self.canons = [canonicalize(tree, memo=memo) for tree in self.trees]
        with self.rec.span("canon.request_key"):
            self.keys = [
                request_key(canon, self.library, driver=tree.driver)
                for canon, tree in zip(self.canons, self.trees)
            ]

    def compile(self) -> None:
        with self.rec.span("schedule.compile"):
            self.compiled = [
                compile_net(tree, self.library, validate=False)
                for tree in self.trees
            ]

    def route(self) -> None:
        router = self.env.router
        with self.rec.span("routing.route"):
            plans = [
                router.route(features_of(net, self.library))
                for net in self.compiled
            ]
        self.env.plans.update(plan.backend for plan in plans)

    def solve(self) -> None:
        """Each net on its own through ``insert_buffers``."""
        with self.rec.span("dp.solve"):
            self.results = [insert_buffers(net, self.library) for net in self.compiled]
        self.counts["dp.candidates_generated"] = sum(
            result.stats.candidates_generated for result in self.results
        )
        self.counts["dp.peak_list_length"] = max(
            result.stats.peak_list_length for result in self.results
        )

    def group_solve(self) -> None:
        """All nets in one ``SolverPool.solve`` (the batch axis for groups)."""
        pool = self.env.pool(self.library)
        with self.rec.span("batch.group_solve"):
            results = pool.solve(self.compiled)
        if not self.results:
            self.results = results

    def corner_group(self) -> None:
        """The first net's R/C-corner replicas solved as one
        ``SolverPool.solve`` group (the batch axis), then one at a time
        through ``insert_buffers``."""
        lanes = [
            compile_net(tree_from_dict(net), self.library, validate=False)
            for net in corner_lanes(self.nets[0], CORNER_LANES)
        ]
        pool = self.env.pool(self.library)
        before = pool.batch_axis_stats()
        with self.rec.span("batch.corner_group"):
            pool.solve(lanes)
        after = pool.batch_axis_stats()
        with self.rec.span("batch.sequential_solve"):
            for net in lanes:
                insert_buffers(net, self.library)
        batched = after["batched_solves"] - before["batched_solves"]
        scalar = after["scalar_solves"] - before["scalar_solves"]
        self.counts["batch_axis.batched_frac"] = batched / (batched + scalar)

    def encode(self) -> None:
        with self.rec.span("dp.encode"):
            self.payloads = [
                SolutionPayload.encode(result, canon)
                for result, canon in zip(self.results, self.canons)
            ]

    def verify(self, payloads: Optional[List[SolutionPayload]] = None) -> None:
        """The cache's integrity digest over each payload."""
        payloads = payloads if payloads is not None else self.payloads
        with self.rec.span("cache.verify"):
            for payload in payloads:
                payload.digest()

    def render(self, payloads: Optional[List[SolutionPayload]] = None,
               cached: bool = False) -> None:
        payloads = payloads if payloads is not None else self.payloads
        records = []
        for payload, canon, key, label_of in zip(
            payloads, self.canons, self.keys, self.label_of
        ):
            record = _NetRecord(key=key, canon=canon, serialized_id=label_of)
            record.payload, record.cached = payload, cached
            records.append(record)
        with self.rec.span("service.render"):
            answers = [record.render(self.library) for record in records]
            json.dumps(
                answers[0] if len(answers) == 1 else {"results": answers}
            ).encode("utf-8")

    def kernel(self) -> None:
        """A profiled re-solve: per-op kernel time, outside ``dp.solve``."""
        profiler = KernelProfiler()
        with self.rec.span("kernel.profile"):
            with profile_scope(profiler, flush=False):
                if len(self.compiled) > 1:
                    self.env.pool(self.library).solve(self.compiled)
                else:
                    insert_buffers(self.compiled[0], self.library)
        total = profiler.total_seconds()
        self.counts["kernel.total_ms"] = total * 1e3
        for op in ("buffer", "wire", "merge"):
            self.counts[f"kernel.{op}_frac"] = profiler.seconds[op] / total
        self.counts["kernel.buffer_calls"] = profiler.calls["buffer"]

    def session(self) -> None:
        """A one-edit ECO session on the first net: open, edit, re-solve."""
        tree, id_map = tree_from_dict(self.nets[0], with_id_map=True)
        sink = tree.sinks()[0]
        with self.rec.span("incremental.open"):
            solver = IncrementalSolver(tree, self.library)
            solver.resolve()
        edit = {"op": "set_sink_rat", "node": self.label_of[0][sink.node_id],
                "required_arrival": sink.required_arrival * 1.01}
        record_session_step(self.rec, solver, id_map, [edit], self.counts)


class _SpannedSolver:
    """An :class:`IncrementalSolver` whose ``apply`` and ``resolve`` each
    run in a span; everything else passes through."""

    def __init__(self, solver: IncrementalSolver, rec: SpanRecorder) -> None:
        self._solver = solver
        self._rec = rec

    def apply(self, edit):
        with self._rec.span("incremental.apply"):
            return self._solver.apply(edit)

    def resolve(self):
        with self._rec.span("incremental.resolve"):
            return self._solver.resolve()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._solver, name)


def record_session_step(rec: SpanRecorder, solver: IncrementalSolver,
                        id_map: Dict[Any, int], edit_specs: List[Dict[str, Any]],
                        counts: Dict[str, float]) -> Dict[str, Any]:
    """One edit + resolve round trip through the server's ``_Session``
    around ``solver`` (``id_map``: request ids to ``solver``'s ids);
    returns the resolve answer."""
    session = _Session("perfbench", _SpannedSolver(solver, rec), id_map)
    with rec.span("service.session_edit"):
        json.dumps(session.apply_edits(edit_specs)).encode("utf-8")
    before = solver.cache.stats()
    with rec.span("service.session_resolve"):
        answer = session.resolve()
        json.dumps(answer).encode("utf-8")
    after = solver.cache.stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    counts["incremental.executed_frac"] = solver.last_executed_fraction
    counts["incremental.frontier_hit_ratio"] = hits / lookups if lookups else 0.0
    return answer
