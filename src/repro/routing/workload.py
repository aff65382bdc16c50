"""Workload capture and offline replay for execution routing.

**Capture.**  A :class:`WorkloadLog` is an opt-in, append-only JSONL
file: one line per routed request, recording the request digest, the
routing feature vector, the chosen :class:`ExecutionPlan` and the
measured wall seconds.  ``capture="full"`` additionally embeds the
serialized net(s), library and (for sessions) edits, which is what
makes a log *replayable* on another machine or under another build.
:class:`~repro.core.batch.SolverPool` and the HTTP server write these
logs when asked (``workload_log=``; the CLI exposes
``repro serve --workload-log``).

**Replay.**  :func:`replay` re-runs a captured log and reports the
static rule's *regret*: for every request it measures every candidate
plan once (best-of-``repeats`` wall time), checks the results
bit-identical across plans, and then charges the rule the measured
time of the plan it would have chosen.  The rule and the oracle are
priced from the same measurement table: the oracle is the per-request
minimum, and the regret is how far above that minimum the rule's
choices land.  ``repro replay`` is the CLI wrapper;
``benchmarks/bench_routing.py`` turns the same report into the gated
``BENCH_PR8.json``.

The log schema (``v: 1``) is locked by the committed corpus
``tests/data/workload_mixed.jsonl`` and its tier-1 replay test.
Records written before routing had one rule carry a ``"policy"`` key;
the reader accepts and ignores it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.schedule import CompiledNet, compile_net
from repro.core.solution import BufferingResult
from repro.core.stores import numpy_installed, supports_batch_axis
from repro.errors import ReproError
from repro.routing.features import RequestFeatures
from repro.routing.router import ROUTER, ExecutionPlan

#: Workload-log schema version (bump on breaking record changes).
SCHEMA_VERSION = 1

#: Keys every record carries, whatever its kind.
RECORD_KEYS = (
    "v", "kind", "digest", "algorithm", "options",
    "plan", "features", "seconds",
)

#: Record kinds.
KINDS = ("solve", "batch", "session")


class ReplayError(ReproError):
    """A workload log cannot be replayed (schema or payload problem)."""


def compiled_digest(net: CompiledNet) -> str:
    """A content digest of one compiled net (payload + library).

    The serving layer keys requests by the canonical tree digest
    (:mod:`repro.service.canon`); a pool fed bare compiled nets has no
    tree to canonicalize, so the workload log hashes the flat schedule
    payload instead — equal payloads solve identically, which is all a
    log consumer needs the digest for (dedup and corpus bookkeeping).
    """
    from repro.service.canon import driver_key, library_key

    digest = hashlib.sha1()
    digest.update(bytes(net.ops))
    for array in (
        net.args, net.wire_r, net.wire_c,
        net.sink_node, net.sink_q, net.sink_c,
    ):
        digest.update(memoryview(array).cast("B"))
    digest.update(library_key(net.library).encode())
    digest.update(driver_key(net.driver).encode())
    return digest.hexdigest()


def group_digest(nets: Sequence[CompiledNet]) -> str:
    """Digest of a structural group: the lane digests, in lane order."""
    digest = hashlib.sha1()
    for net in nets:
        digest.update(compiled_digest(net).encode())
    return digest.hexdigest()


class WorkloadLog:
    """An append-only JSONL log of routed requests (thread-safe).

    Args:
        path: Log file path (opened lazily, appended to) or any object
            with a ``write(str)`` method.
        capture: ``"features"`` (default) records digests, features,
            plans and timings only; ``"full"`` additionally asks the
            caller to attach replayable payloads (nets, library, edits)
            via ``payload=``.
    """

    def __init__(self, path, capture: str = "features") -> None:
        if capture not in ("features", "full"):
            raise ValueError(
                f"capture must be 'features' or 'full', got {capture!r}"
            )
        self.capture = capture
        self.records_written = 0
        self._lock = threading.Lock()
        if hasattr(path, "write"):
            self.path: Optional[Path] = None
            self._file = path
        else:
            self.path = Path(path)
            self._file = None

    def record(
        self,
        kind: str,
        *,
        digest: str,
        features: RequestFeatures,
        plan: ExecutionPlan,
        seconds: float,
        algorithm: str = "fast",
        options: Optional[dict] = None,
        payload: Optional[dict] = None,
    ) -> dict:
        """Append one record; returns the dict that was written."""
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        entry = {
            "v": SCHEMA_VERSION,
            "kind": kind,
            "digest": digest,
            "algorithm": algorithm,
            "options": dict(options or {}),
            "plan": plan.to_dict(),
            "features": features.to_dict(),
            "seconds": seconds,
        }
        if payload and self.capture == "full":
            entry.update(payload)
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            if self._file is None:
                self._file = self.path.open("a")
            self._file.write(line + "\n")
            self._file.flush()
            self.records_written += 1
        return entry

    def close(self) -> None:
        with self._lock:
            if self._file is not None and self.path is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "WorkloadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_log(path) -> List[dict]:
    """Parse a JSONL workload log, validating the schema version."""
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path}:{number}: not JSON: {exc}") from exc
        if record.get("v") != SCHEMA_VERSION:
            raise ReplayError(
                f"{path}:{number}: unsupported record version "
                f"{record.get('v')!r} (expected {SCHEMA_VERSION})"
            )
        missing = [key for key in RECORD_KEYS if key not in record]
        if missing:
            raise ReplayError(f"{path}:{number}: record lacks {missing}")
        if record["kind"] not in KINDS:
            raise ReplayError(
                f"{path}:{number}: unknown kind {record['kind']!r}"
            )
        records.append(record)
    return records


# -- replay ------------------------------------------------------------


def _result_fingerprint(result: BufferingResult) -> tuple:
    """Everything a solve answers, minus wall time and store label —
    the bit-identity contract routing must preserve."""
    stats = result.stats
    return (
        result.slack,
        tuple(sorted(result.assignment.items())),
        result.driver_load,
        stats.algorithm,
        stats.num_buffer_positions,
        stats.library_size,
        stats.root_candidates,
        stats.peak_list_length,
        stats.candidates_generated,
    )


def candidate_plans(
    features: RequestFeatures, supports_batch: bool = False
) -> List[ExecutionPlan]:
    """Every plan replay measures for one request, reference-most first.

    A from-scratch solve on each store (``object``, plus ``soa`` when
    NumPy is installed), led for a session by the ``object`` splice
    resolve (sessions splice on ``object`` only) and followed, for a
    group on a context that can batch, by the batch axis.  Partitioned
    plans are left out: replay runs in-process, and a one-process pool
    cannot measure multi-process speedups honestly.
    """
    stores = ["object"] + (["soa"] if numpy_installed() else [])
    plans = [ExecutionPlan(store, "compiled") for store in stores]
    if features.kind == "session":
        return [ExecutionPlan("object", "splice"), *plans]
    if supports_batch and features.lanes > 1:
        plans.append(ExecutionPlan("soa", "compiled", batch_axis=True))
    return plans


class _LoadedRequest:
    """One record rehydrated into executable form."""

    def __init__(self, record: dict, index: int) -> None:
        from repro.tree.io import library_from_dict, tree_from_dict

        self.record = record
        self.index = index
        self.kind = record["kind"]
        self.algorithm = record["algorithm"]
        self.options = dict(record["options"])
        if "library" not in record:
            raise ReplayError(
                f"record {index}: no embedded library — only "
                "capture='full' logs can be replayed"
            )
        self.library = library_from_dict(record["library"])
        self.features = RequestFeatures.from_dict(record["features"])
        if self.kind == "batch":
            self.tree_dicts = record["nets"]
        else:
            self.tree_dicts = [record["net"]]
        self.compiled = [
            compile_net(tree_from_dict(data), self.library)
            for data in self.tree_dicts
        ]
        self.edits = record.get("edits", [])

    def fresh_trees(self):
        from repro.tree.io import tree_from_dict

        return [tree_from_dict(data) for data in self.tree_dicts]


def _measure_solve(
    loaded: _LoadedRequest, plan: ExecutionPlan, repeats: int
) -> tuple:
    """Best-of-``repeats`` seconds and the results for a solo/batch plan."""
    from repro.core.api import insert_buffers
    from repro.core.schedule import run_compiled_group

    library = loaded.library
    algorithm = loaded.algorithm
    options = loaded.options
    best = None
    results: List[BufferingResult] = []
    for _ in range(max(repeats, 1)):
        if plan.batch_axis:
            start = time.perf_counter()
            results = run_compiled_group(
                loaded.compiled, library,
                algorithm=algorithm, options=options,
            )
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            results = [
                insert_buffers(
                    net, library, algorithm=algorithm,
                    backend=plan.backend, **options,
                )
                for net in loaded.compiled
            ]
            elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, results


def _measure_session(
    loaded: _LoadedRequest, plan: ExecutionPlan, repeats: int
) -> tuple:
    """Best-of-``repeats`` resolve seconds and the result for a session.

    ``splice`` times the incremental dirty-path resolve after the
    recorded edits; ``compiled`` times the from-scratch alternative
    (compile + interpret the edited net on the plan's store) the router
    weighs it against.  The baseline solve and the edit application are
    setup, not timed.
    """
    from repro.core.api import insert_buffers
    from repro.incremental.engine import IncrementalSolver

    best = None
    result: Optional[BufferingResult] = None
    for _ in range(max(repeats, 1)):
        tree = loaded.fresh_trees()[0]
        solver = IncrementalSolver(
            tree, loaded.library, algorithm=loaded.algorithm,
            **loaded.options,
        )
        solver.resolve()
        for edit in loaded.edits:
            solver.apply(edit)
        if plan.schedule_mode == "splice":
            start = time.perf_counter()
            result = solver.resolve()
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            compiled = compile_net(solver.tree, loaded.library)
            result = insert_buffers(
                compiled, loaded.library, algorithm=loaded.algorithm,
                backend=plan.backend, **loaded.options,
            )
            elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, [result]


def replay(
    records: Union[Sequence[dict], str, Path],
    repeats: int = 3,
) -> dict:
    """Re-run a captured workload; report the static rule's regret.

    Every :func:`candidate_plans` entry of every request is measured
    once (best-of-``repeats``); plans must agree bit-identically or the
    replay aborts with :class:`ReplayError` — a routing bug, not a
    measurement artifact.  The rule is then priced from that table
    (replay runs in-process, so it never partitions).

    Returns the report dict (see ``docs/benchmarks.md`` for the field
    reference used by ``BENCH_PR8.json``).
    """
    if isinstance(records, (str, Path)):
        records = read_log(records)

    total = 0.0
    decisions: Dict[str, int] = {}
    oracle_total = 0.0
    logged_total = 0.0
    per_request = []
    parity_checked = 0

    for index, record in enumerate(records):
        loaded = _LoadedRequest(record, index)
        features = loaded.features
        supports_batch = loaded.kind == "batch" and supports_batch_axis(
            "auto", loaded.library, loaded.algorithm, loaded.options,
        )
        candidates = candidate_plans(features, supports_batch)

        measured: Dict[str, float] = {}
        reference: Optional[List[tuple]] = None
        for plan in candidates:
            if loaded.kind == "session":
                seconds, results = _measure_session(loaded, plan, repeats)
            else:
                seconds, results = _measure_solve(loaded, plan, repeats)
            measured[plan.strategy] = seconds
            fingerprints = [_result_fingerprint(r) for r in results]
            if reference is None:
                reference = fingerprints
            elif fingerprints != reference:
                raise ReplayError(
                    f"record {index}: plan {plan.strategy} changed the "
                    "answer — routing parity violated"
                )
            parity_checked += 1

        best_strategy = min(measured, key=measured.get)
        best_seconds = measured[best_strategy]
        oracle_total += best_seconds
        logged_total += record["seconds"]

        chosen = ROUTER.plan(features, supports_batch=supports_batch).strategy
        if chosen not in measured:
            raise ReplayError(
                f"record {index}: the router chose unmeasured plan {chosen}"
            )
        total += measured[chosen]
        decisions[chosen] = decisions.get(chosen, 0) + 1

        per_request.append({
            "index": index,
            "kind": loaded.kind,
            "digest": record["digest"],
            "features": features.to_dict(),
            "measured_seconds": measured,
            "best": best_strategy,
            "logged_seconds": record["seconds"],
            "chosen": chosen,
            "regret_seconds": measured[chosen] - best_seconds,
        })

    return {
        "schema_version": SCHEMA_VERSION,
        "requests": len(records),
        "repeats": repeats,
        "parity_checked": parity_checked,
        "oracle_seconds": oracle_total,
        "logged_seconds": logged_total,
        "static": {
            "total_seconds": total,
            "regret_seconds": total - oracle_total,
            "speedup_vs_oracle": oracle_total / total if total else 1.0,
            "decisions_by_strategy": decisions,
        },
        "per_request": per_request,
    }
