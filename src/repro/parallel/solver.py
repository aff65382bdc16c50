"""Partitioned solve orchestration: dispatch cuts, splice, finish.

:func:`solve_partitioned` is the entry point behind
``SolverPool``'s partitioned plans (the static rule's instruction
threshold, ``parallel_threshold``), ``repro buffer --jobs`` and the
serving layer's large-``/solve`` routing.  The flow:

1. plan cuts over the compiled schedule
   (:func:`~repro.parallel.partition.plan_partitions`); a non-viable
   plan (chain-shaped net, low coverage, one worker) falls back to the
   ordinary serial solve — same result, a report that says why;
2. extract each cut
   (:meth:`~repro.core.schedule.CompiledNet.subschedule`) and solve the
   extracts concurrently (a shared :class:`~repro.core.batch.SolverPool`
   process pool, a transient pool, or inline for ``jobs=1`` testing);
3. replay the **residual** instruction stream in the calling process
   through the DP's one interpreter
   (:func:`repro.core.dp._execute_schedule`), splicing each returned
   frontier at its cut's start instruction
   (:func:`~repro.incremental.engine.splice_snapshot`) and jumping the
   cut's range — as the incremental engine does with cache hits;
4. finish through :func:`repro.core.dp._finish` exactly like a scratch
   solve.

The cuts and the residual run on the object store, like an incremental
session: it is the one store that freezes and splices frontiers, and
the store a single net solved alone runs on.

**Why the result is bit-identical.**  Every instruction of the parent
schedule is executed exactly once, on the same inputs, in the same
order as the scratch solve: the workers execute the cut ranges (the
extracts are verbatim slices with rebased payload indices), the parent
executes the rest, and splicing copies the captured ``(q, c)`` floats
unchanged.  Since every operation is deterministic and the merge fold
order is preserved by the instruction stream itself, the same IEEE-754
operations see the same operands — the same argument that carried the
compiled interpreter, the SoA kernels and the incremental engine, each
gated by a randomized parity corpus (here ``tests/test_parallel.py``).
``DPStats`` compose the same way the incremental engine's do: a cut
contributes its snapshot's ``peak``/``generated`` scalars at the splice
point, which is precisely its contribution to the scratch accounting.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Sequence, Union

from repro.core.schedule import CompiledNet, compile_net
from repro.core.solution import BufferingResult
from repro.core.stores import SPLICE_BACKEND
from repro.errors import AlgorithmError, DeadlineExceeded, WorkerCrashError
from repro.library.library import BufferLibrary
from repro.obs.spans import active_tracer, current_request_id
from repro.resilience.deadline import Deadline, active_deadline, deadline_scope
from repro.resilience.faults import inject as _inject_fault
from repro.parallel.partition import PartitionPlan, plan_partitions
from repro.parallel.worker import _solve_partition, solve_subschedule
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


def solve_partitioned(
    net: Union[RoutingTree, CompiledNet],
    library: BufferLibrary,
    algorithm: str = "fast",
    driver: Optional[Driver] = None,
    jobs: Optional[int] = None,
    options: Optional[dict] = None,
    pool=None,
    plan: Optional[PartitionPlan] = None,
    report: Optional[dict] = None,
    deadline: Optional[Deadline] = None,
) -> BufferingResult:
    """Solve one net across workers; bit-identical to the serial solve.

    Args:
        net: A routing tree or a *locally compiled*
            :class:`CompiledNet` (partitioning needs the subtree range
            maps, which do not survive pickling).
        library / algorithm / driver / options: The usual solve
            context (see :func:`repro.core.api.insert_buffers`).  When
            ``pool`` is given, these must match the pool's context —
            the workers already hold it.
        jobs: Worker count for cut planning and the transient pool;
            defaults to ``pool.jobs`` or ``os.cpu_count()``.  ``1``
            solves the partitions inline (no processes) — the same
            splice path, which is what the parity tests exercise
            cheaply.
        pool: A :class:`~repro.core.batch.SolverPool` whose persistent
            worker pool dispatches the partitions; ``None`` spins up a
            transient pool for this call (``jobs > 1`` only).
        plan: Reuse a precomputed partition plan.
        report: Optional dict the solve fills with observability data:
            ``engaged``, ``reason``, ``partitions``, ``cut_depths``,
            ``coverage``, ``residual_fraction``, ``plan_seconds``,
            ``dispatch_seconds``, ``worker_busy_seconds``,
            ``pool_utilization``, ``workers``.
        deadline: Optional wall budget
            (:class:`repro.resilience.Deadline`); bounds worker waits
            and the residual replay, never changes a completed result.

    Raises:
        AlgorithmError: Bad context, or a compiled net without range
            maps.
        WorkerCrashError: The transient worker pool broke (a worker
            died abruptly); ``.cuts`` names the cut node ids that were
            in flight.  Supervised callers (``SolverPool``) catch this
            and degrade to the serial plan.
        DeadlineExceeded: The deadline expired mid-solve.
    """
    from repro.core.batch import _init_worker, _resolve_jobs
    from repro.core.registry import get_algorithm

    if deadline is not None:
        with deadline_scope(deadline):
            return solve_partitioned(
                net, library, algorithm=algorithm, driver=driver,
                jobs=jobs, options=options, pool=pool, plan=plan,
                report=report,
            )

    get_algorithm(algorithm).validate_options(options or {})
    options = dict(options or {})
    if pool is not None:
        jobs = pool.jobs if jobs is None else jobs
    jobs = _resolve_jobs(jobs)

    compiled = (
        net if isinstance(net, CompiledNet) else compile_net(net, library)
    )

    if report is None:
        report = {}
    report.update(
        engaged=False, reason=None, partitions=0, cut_depths=[],
        coverage=0.0, residual_fraction=1.0, workers=jobs,
        total_instructions=len(compiled.ops), plan_seconds=0.0,
        dispatch_seconds=0.0, worker_busy_seconds=0.0,
        pool_utilization=0.0,
    )

    plan_started = time.perf_counter()
    if plan is None:
        if not compiled.final_of_node:
            plan = PartitionPlan([], len(compiled.ops), 0, jobs, 1.0)
            plan.reason = (
                "no subtree range maps (unpickled schedule); "
                "recompile locally to partition"
            )
        else:
            plan = plan_partitions(compiled, jobs)
    report["plan_seconds"] = time.perf_counter() - plan_started

    if not plan.viable:
        report["reason"] = plan.reason
        return _serial_fallback(compiled, library, algorithm, driver, options)

    report.update(
        engaged=True,
        partitions=len(plan.cuts),
        cut_depths=[cut.depth for cut in plan.cuts],
        coverage=plan.coverage,
        residual_fraction=plan.residual_fraction,
    )

    started = time.perf_counter()
    # Largest partitions first: the pool schedules greedily, so the
    # longest solve starts earliest and bounds the makespan.
    order = sorted(
        range(len(plan.cuts)),
        key=lambda index: plan.cuts[index].size,
        reverse=True,
    )
    # The observability context rides in the task tuple exactly as
    # REPRO_FAULTS ships fault plans: the worker re-installs the
    # request id (log/span correlation) and, when the parent is
    # tracing, collects its own spans to be re-parented below.
    tracer = active_tracer()
    request_id = current_request_id()
    obs = (
        (request_id, tracer is not None)
        if request_id is not None or tracer is not None
        else None
    )
    tasks = [
        (index, plan.cuts[index].node_id,
         compiled.subschedule(plan.cuts[index].node_id), obs)
        for index in order
    ]

    _inject_fault("parallel.dispatch")
    dispatch_handle = (
        tracer.begin("dispatch", partitions=len(tasks), jobs=jobs)
        if tracer is not None
        else None
    )
    dispatch_started = time.perf_counter()
    if pool is not None and jobs > 1:
        raw = pool._map_partition_tasks(tasks)
    elif jobs > 1:
        raw = _dispatch_transient(
            tasks, jobs, library, algorithm, driver, options, _init_worker,
        )
    else:
        raw = [
            (index, solve_subschedule(
                sub, root_id, library, algorithm, options
            ), 0.0, None)
            for index, root_id, sub, _ in tasks
        ]
    dispatch_seconds = time.perf_counter() - dispatch_started
    if dispatch_handle is not None:
        tracer.end(dispatch_handle)

    snapshots: List[Optional[object]] = [None] * len(plan.cuts)
    busy = 0.0
    for index, snapshot, seconds, spans in raw:
        snapshots[index] = snapshot
        busy += seconds
        if spans and tracer is not None:
            # Worker clocks are not comparable to ours: re-base the
            # worker's epoch-relative spans at the dispatch instant.
            tracer.adopt(spans, at=dispatch_started, tid=f"worker-{index}")
    report["dispatch_seconds"] = dispatch_seconds
    report["worker_busy_seconds"] = busy
    if jobs > 1 and dispatch_seconds > 0:
        report["pool_utilization"] = busy / (jobs * dispatch_seconds)

    return _execute_residual(
        compiled, plan, snapshots, library, algorithm, options, driver,
        started,
    )


def _dispatch_transient(
    tasks: List[tuple],
    jobs: int,
    library: BufferLibrary,
    algorithm: str,
    driver: Optional[Driver],
    options: dict,
    init_worker,
) -> List[tuple]:
    """Solve the cut extracts on a transient worker pool.

    Uses :class:`~concurrent.futures.ProcessPoolExecutor` rather than
    ``multiprocessing.Pool`` because only the former *raises* on abrupt
    worker death (``os._exit``): a broken ``multiprocessing.Pool``
    silently repopulates its workers and the in-flight ``map`` blocks
    forever.  A broken pool surfaces as a typed
    :class:`~repro.errors.WorkerCrashError` carrying the in-flight cut
    node ids; an ambient deadline bounds each wait.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    cut_ids = tuple(task[1] for task in tasks)
    deadline = active_deadline()
    executor = ProcessPoolExecutor(
        max_workers=jobs,
        initializer=init_worker,
        initargs=(library, algorithm, driver, options),
    )
    try:
        futures = [executor.submit(_solve_partition, task) for task in tasks]
        raw = []
        for future in futures:
            timeout = None
            if deadline is not None:
                timeout = max(deadline.remaining(), 0.0)
            raw.append(future.result(timeout=timeout))
        return raw
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            f"worker pool broke during partitioned dispatch "
            f"({len(tasks)} cuts in flight): {exc}",
            cuts=cut_ids,
        ) from exc
    except FuturesTimeoutError as exc:
        # Workers may be hung: kill them so shutdown below cannot block.
        for process in list(getattr(executor, "_processes", {}).values()):
            process.terminate()
        assert deadline is not None
        raise DeadlineExceeded("parallel.dispatch", deadline.budget) from exc
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _serial_fallback(
    compiled: CompiledNet,
    library: BufferLibrary,
    algorithm: str,
    driver: Optional[Driver],
    options: dict,
) -> BufferingResult:
    from repro.core.api import insert_buffers

    return insert_buffers(
        compiled, library, algorithm=algorithm, driver=driver,
        backend=SPLICE_BACKEND, **options,
    )


def _execute_residual(
    compiled: CompiledNet,
    plan: PartitionPlan,
    snapshots: Sequence[object],
    library: BufferLibrary,
    algorithm: str,
    options: dict,
    driver: Optional[Driver],
    started: float,
) -> BufferingResult:
    """Replay the glue between cuts, splicing worker frontiers in.

    :func:`repro.core.dp._execute_schedule` with one splice callback
    per cut: at the cut's start instruction it pushes the worker's
    frontier, with the snapshot's ``peak``/``generated`` as that stack
    slot's stats, and resumes after the cut's final instruction.
    """
    from repro.core.dp import _execute_schedule, _finish, _resolve_ops
    from repro.core.registry import get_algorithm
    from repro.incremental.engine import splice_snapshot

    strategy = get_algorithm(algorithm)
    add_buffer = strategy.add_buffer_op(SPLICE_BACKEND, library, **options)
    label = strategy.stats_label(**options)
    sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
        SPLICE_BACKEND
    )
    tracer = active_tracer()

    def splice(snapshot, final: int):
        def hook():
            with (
                tracer.span("splice", size=len(snapshot.q))
                if tracer is not None
                else nullcontext()
            ):
                store = splice_snapshot(snapshot)
            return store, snapshot.peak, snapshot.generated, final

        return hook

    splice_at = {
        cut.start: splice(snapshots[index], cut.final)
        for index, cut in enumerate(plan.cuts)
    }
    with (
        tracer.span("parallel.residual", cuts=len(plan.cuts))
        if tracer is not None
        else nullcontext()
    ):
        root, peak, generated = _execute_schedule(
            compiled, sink_op, wire_op, merge_op, add_buffer, release,
            site="parallel.residual", splice_at=splice_at,
        )
    return _finish(
        root, best_op, release,
        driver if driver is not None else compiled.driver, label,
        compiled.num_buffer_positions, library, peak, generated,
        started, SPLICE_BACKEND,
    )
