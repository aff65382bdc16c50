"""Batched multi-net solving: :class:`SolverPool` and :func:`solve_many`.

The paper optimizes one net at a time; a production flow buffers every
net of a design.  This module treats many-instance throughput as a
first-class workload: nets are compiled against the library **once** in
the parent process (:func:`repro.core.schedule.compile_net` —
validation, buffer plans and the post-order flattening happen exactly
once per net) and the resulting
:class:`~repro.core.schedule.CompiledNet` payloads fan out over worker
processes.  A compiled net pickles as flat op-code/parasitic arrays — a
fraction of the object tree's payload — and tasks are dispatched in
chunks, so the pickler's memo collapses the shared library to one copy
per chunk.  Workers run the schedule interpreter directly: no
re-validation, no re-flattening, no plan rebuilding per solve.

:class:`SolverPool` is the persistent form: construct it once with the
shared solve context (library, algorithm, driver, options — shipped to
each worker exactly once, so the library's buffer-plan sort stays
resident per worker) and call :meth:`SolverPool.solve` as often as
traffic demands.  The store is not part of that context: the pool
routes every execution unit in this process, as an inline pool does,
and each worker task carries its unit's store.  The HTTP serving layer
(:mod:`repro.service.server`) keeps one pool per distinct solve context
across requests.
:func:`solve_many` is the one-shot convenience wrapper: it builds a
pool, solves, and tears it down.

Results come back in input order and are identical to a serial loop
(asserted by ``tests/test_batch.py``); ``jobs=1`` *is* a serial loop,
with no multiprocessing import cost at all.

On top of the process axis sits the **batch axis**: when the router
puts a structural group on the ``soa`` side (NumPy installed,
store-driving algorithm, and under ``"auto"`` long candidate lists),
nets sharing a structural
:func:`~repro.core.schedule.group_signature` — same op stream and
buffer positions, arbitrary parasitics/RATs/drivers, i.e. multi-corner
replicas — are solved by one vectorized
:func:`~repro.core.schedule.run_compiled_group` dispatch instead of N
interpreter runs, bit-identical per net (see
:mod:`repro.core.stores.batch_axis`).  Grouping is transparent:
singletons, mixed structures, groups the router declines and
unsupported contexts take the per-net path, and
:meth:`SolverPool.batch_axis_stats` reports what happened.  The lane
engine, and NumPy with it, is imported only when a group is routed to
``soa``; a pool that never sees one never loads NumPy.

:func:`parallel_map` is the underlying generic helper, reused by the
experiment harness to parallelize Table 1 / figure sweep cells.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

from repro.core.schedule import CompiledNet, compile_net, group_signature
from repro.core.solution import BufferingResult
from repro.errors import DeadlineExceeded, WorkerHangError
from repro.library.library import BufferLibrary
from repro.obs.spans import active_tracer
from repro.resilience.breaker import BreakerBoard
from repro.resilience.deadline import Deadline, active_deadline, deadline_scope
from repro.resilience.faults import inject as _inject_fault
from repro.resilience.supervisor import Supervisor, is_supervisable
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree

_T = TypeVar("_T")
_R = TypeVar("_R")

# Per-worker-process solve context, installed by the pool initializer so
# the shared settings ship once per worker instead of once per net.
_WORKER_CONTEXT: Optional[dict] = None


def _init_worker(
    library: BufferLibrary,
    algorithm: str,
    driver: Optional[Driver],
    options: dict,
) -> None:
    # A fork during a deadline-scoped dispatch (lazy pool creation or a
    # supervised respawn) copies the parent thread's thread-locals into
    # the child; a request-scoped budget — or tracer — must not outlive
    # its request inside a pooled worker.
    from repro.obs.spans import reset_active_tracer
    from repro.resilience.deadline import reset_active_deadline

    reset_active_deadline()
    reset_active_tracer()
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = {
        "library": library,
        "algorithm": algorithm,
        "driver": driver,
        "options": options,
    }


def _solve_unit(
    store: str,
    nets: List[CompiledNet],
    library: BufferLibrary,
    algorithm: str,
    driver: Optional[Driver],
    options: dict,
    factory=None,
) -> List[BufferingResult]:
    """Run one routed execution unit; results in ``nets`` order.

    A single net solves on ``store``; a structural group (the router
    only forms one on the batch axis) runs as one
    :func:`~repro.core.schedule.run_compiled_group` dispatch, on
    ``factory`` when given.  The inline pool, the worker task and the
    supervised fallback all run their units here.
    """
    if len(nets) == 1:
        from repro.core.api import insert_buffers

        return [insert_buffers(
            nets[0], library, algorithm=algorithm, driver=driver,
            backend=store, **options,
        )]
    from repro.core.schedule import run_compiled_group

    return run_compiled_group(
        nets, library, algorithm=algorithm, driver=driver,
        options=options, factory=factory,
    )


def _solve_task(task: tuple) -> List[BufferingResult]:
    """One worker task: ``(store, nets)``, one unit as the parent routed it."""
    _inject_fault("worker.task")
    context = _WORKER_CONTEXT
    assert context is not None, "worker used before initialization"
    store, nets = task
    return _solve_unit(store, nets, **context)


def _group_indices(compiled: Sequence[CompiledNet]) -> List[List[int]]:
    """Input indices grouped by structural signature, in first-seen order.

    A group is every net sharing one
    :func:`~repro.core.schedule.group_signature` — identical op stream
    and buffer-position structure, arbitrary parasitics/RATs/drivers
    (the multi-corner case).  Singleton groups stay on the per-net path.
    """
    groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
    for index, net in enumerate(compiled):
        groups.setdefault(group_signature(net), []).append(index)
    return list(groups.values())


def _resolve_jobs(jobs: Optional[int]) -> int:
    import os

    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or None for cpu_count), got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> List[_R]:
    """``[fn(x) for x in items]``, optionally over worker processes.

    Args:
        fn: A picklable (module-level) callable.
        items: Work items (picklable when ``jobs > 1``).
        jobs: Worker process count; ``1`` (default) runs serially in
            this process, ``None`` uses ``os.cpu_count()``.
        chunksize: Items per task sent to a worker; defaults to an even
            split in ~4 waves per worker.
        initializer, initargs: Per-worker-process setup hook (multi-
            process runs only; the serial path never calls it, so ``fn``
            must not depend on it when ``jobs == 1``).

    Returns:
        Results in input order.
    """
    jobs = _resolve_jobs(jobs)
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]

    import multiprocessing

    if chunksize is None:
        chunksize = max(1, len(items) // (jobs * 4))
    with multiprocessing.Pool(
        processes=jobs, initializer=initializer, initargs=initargs
    ) as pool:
        return pool.map(fn, items, chunksize=chunksize)


class SolverPool:
    """A reusable solve context with a persistent worker pool.

    Where :func:`solve_many` spins workers up and down per call, a
    ``SolverPool`` keeps them alive between calls: the library (and its
    per-worker buffer-plan sort), the algorithm, the driver and the
    options ship to each worker exactly once, at pool start, and every
    later :meth:`solve` only pickles the compiled nets themselves, each
    task with the store its unit was routed to.  That is the difference
    between a batch job and a server: the serving layer answers each
    request out of a pool that is already warm.

    ``jobs=1`` (the default) is an inline pool: :meth:`solve` runs in
    the calling process with no multiprocessing import at all, which is
    also the mode the end-to-end tests use.

    A pool is a context manager; :meth:`close` (or ``with``-exit)
    terminates the workers.  A closed pool raises on further use.

    Args:
        library: The buffer library shared by every solve.
        algorithm: Registered algorithm name.
        jobs: Worker processes: ``1`` solves inline, ``None`` uses
            ``os.cpu_count()``.
        driver: Optional driver override applied to every net.
        backend: Candidate-store backend name, or ``"auto"`` (the
            default): the pool's router picks the store of each
            execution unit — a net or a structural group — the same
            way at every ``jobs`` value (see
            :func:`~repro.routing.router.static_store`).  A store name
            pins every such unit to that store; a partitioned solve
            runs on ``object`` whatever the store.
        parallel_threshold: Instruction-count floor at which the static
            rule partitions a single net across the workers (``jobs > 1``
            only; see :func:`repro.parallel.solver.solve_partitioned`);
            defaults to
            :data:`repro.routing.router.DEFAULT_PARALLEL_THRESHOLD`.
            ``0`` partitions every locally compiled net, a floor above
            the largest net none.
        workload_log: Opt-in request capture: a
            :class:`repro.routing.workload.WorkloadLog`, or a path to
            append JSONL records to.  Every execution unit (solo solve,
            batch-axis group, partitioned solve) is recorded with its
            features, chosen plan and measured seconds.
        task_timeout: Per-task seconds before a worker dispatch is
            declared *hung* and supervised recovery kicks in
            (``None``, the default, never times out on its own — an
            ambient :class:`~repro.resilience.Deadline` still bounds
            every wait).  A dead worker under ``multiprocessing.Pool``
            does not raise — the pool silently repopulates and the
            in-flight map blocks forever — so this timeout is also the
            *crash* detector for the multi-process paths.
        max_retries: Supervised dispatch attempts after the first
            failure; exhausting them degrades to the bit-identical
            in-process fallback instead of failing the solve (see
            :mod:`repro.resilience.supervisor`).
        breaker_threshold / breaker_reset_seconds: Circuit-breaker
            tuning for the ``parallel`` / ``batch_axis`` strategy axes
            (:mod:`repro.resilience.breaker`): consecutive failures
            that trip an axis, and the cool-down before a half-open
            probe.
        **options: Algorithm-specific flags.

    Raises:
        AlgorithmError: Unknown algorithm/backend or invalid options
            (checked here, so a bad context never reaches a worker).
        ValueError: ``jobs < 1``.
    """

    def __init__(
        self,
        library: BufferLibrary,
        algorithm: str = "fast",
        jobs: Optional[int] = 1,
        driver: Optional[Driver] = None,
        backend: str = "auto",
        parallel_threshold: Optional[int] = None,
        workload_log=None,
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
        **options,
    ) -> None:
        from repro.core.registry import get_algorithm
        from repro.core.stores import (
            AUTO_BACKEND,
            supports_batch_axis,
            validate_backend,
        )
        from repro.routing.router import DEFAULT_PARALLEL_THRESHOLD, Router

        get_algorithm(algorithm).validate_options(options)
        if backend != AUTO_BACKEND:
            validate_backend(backend)
        if parallel_threshold is None:
            parallel_threshold = DEFAULT_PARALLEL_THRESHOLD

        self.library = library
        self.algorithm = algorithm
        self.jobs = _resolve_jobs(jobs)
        self.driver = driver
        self.backend = backend
        self.parallel_threshold = parallel_threshold
        self.router = Router(parallel_threshold=parallel_threshold)
        self.workload_log = workload_log
        self._owns_log = False
        if workload_log is not None:
            from repro.routing.workload import WorkloadLog

            if not isinstance(workload_log, WorkloadLog):
                self.workload_log = WorkloadLog(workload_log)
                self._owns_log = True
        self._parallel_stats: dict = {
            "parallel_solves": 0,
            "fallback_solves": 0,
            "partitions_total": 0,
            "last": None,
        }
        self.options = dict(options)
        self.task_timeout = task_timeout
        self.supervisor = Supervisor(max_retries=max_retries)
        self.breakers = BreakerBoard(
            failure_threshold=breaker_threshold,
            reset_seconds=breaker_reset_seconds,
        )
        self._resilience_counters = {
            "batch_group_fallbacks": 0,
            "partitioned_fallbacks": 0,
        }
        self._pool = None  # created lazily on the first multi-process solve
        self._closed = False
        self._batch_axis = supports_batch_axis(
            self.backend, library, algorithm, self.options
        )
        self._batch_stats = {
            "groups": 0,
            "lanes_histogram": {},
            "batched_solves": 0,
            "scalar_solves": 0,
            "factories": 0,
            "arena_pooled_bytes": 0,
        }
        # Warm batch-axis factories, one per lane count (LRU-capped):
        # reusing a factory keeps its grown arena blocks and tape
        # capacity across solves, as a CompiledNet's own factory does
        # across repeat solves of that net.
        self._factories: "OrderedDict[int, object]" = OrderedDict()
        # Guards the inline path: concurrent callers (server handler
        # threads) may pass the *same* CompiledNet, whose factory scratch
        # arenas are not thread-safe.  The multi-process path only needs
        # the creation lock below — workers get private unpickled copies
        # and Pool.map is safe to call from multiple threads.
        self._serial_lock = threading.Lock()
        # Guards lazy pool creation: without it, two threads' first
        # solves would each spawn a worker pool and leak one.
        self._create_lock = threading.Lock()
        # Guards the counters the solving thread publishes for the
        # *_stats() readers (the server reads them on its event loop),
        # so a reader never waits on a solve nor walks a factory.
        self._stats_lock = threading.Lock()

    #: Distinct lane counts whose warm factories a pool keeps around.
    _MAX_FACTORIES = 4

    def _factory_for(self, lanes: int):
        factory = self._factories.get(lanes)
        if factory is None:
            from repro.core.stores.batch_axis import BatchedSoAFactory

            factory = BatchedSoAFactory(lanes)
            self._factories[lanes] = factory
        self._factories.move_to_end(lanes)
        while len(self._factories) > self._MAX_FACTORIES:
            self._factories.popitem(last=False)
        return factory

    def _lane_engine_loads(self) -> bool:
        """Import the lane engine, and NumPy with it, for a group
        routed to ``soa``; whether this pool's batch axis is on.

        An installed NumPy that fails to import turns the axis off for
        good: the group's lanes, and every later net, solve one by one
        as on a pool without NumPy.
        """
        if self._batch_axis:
            try:
                from repro.core.stores import batch_axis  # noqa: F401
            except ImportError:
                self._batch_axis = False
        return self._batch_axis

    def _record_unit(self, indices, compiled, plan, seconds, capture) -> None:
        """Count one executed per-net or batch-axis unit and log it
        (serial lock held: after a group, the warm factories' arena
        bytes are read here, by the thread that owns them)."""
        lanes = len(indices)
        if lanes > 1:
            arena_bytes = 0
            for factory in self._factories.values():
                pools = factory.stats()
                arena_bytes += pools["arena"]["pooled_bytes"]
                arena_bytes += pools["cells"]["pooled_bytes"]
        with self._stats_lock:
            stats = self._batch_stats
            if lanes > 1:
                stats["groups"] += 1
                stats["batched_solves"] += lanes
                histogram = stats["lanes_histogram"]
                histogram[lanes] = histogram.get(lanes, 0) + 1
                stats["factories"] = len(self._factories)
                stats["arena_pooled_bytes"] = arena_bytes
            else:
                stats["scalar_solves"] += 1
        self._log_unit(indices, compiled, plan, seconds, capture)

    def batch_axis_stats(self) -> dict:
        """Batch-axis grouping counters for this pool.

        ``groups``/``lanes_histogram``/``batched_solves`` count nets
        that went through :func:`~repro.core.schedule.run_compiled_group`
        (inline or in a worker); ``scalar_solves`` counts nets that took
        the per-net path.  ``factories`` and ``arena_pooled_bytes``
        report this process's warm batched factories and their resident
        bytes as of the last group solved here (worker-process
        factories are private to the workers, like the single-net
        ones).  Safe from any thread: it copies what the solving thread
        published and never touches a factory.
        """
        with self._stats_lock:
            return dict(
                self._batch_stats,
                lanes_histogram=dict(self._batch_stats["lanes_histogram"]),
                enabled=self._batch_axis,
            )

    def compile(
        self, net: Union[RoutingTree, CompiledNet]
    ) -> CompiledNet:
        """Compile ``net`` against this pool's library (idempotent)."""
        if isinstance(net, CompiledNet):
            return net
        return compile_net(net, self.library)

    def solve(
        self,
        nets: Sequence[Union[RoutingTree, CompiledNet]],
        chunksize: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[BufferingResult]:
        """Buffer every net in ``nets``; results in input order.

        Plain trees are compiled here (validation once per net); pass
        :class:`CompiledNet` payloads to skip even that.  Unlike
        :func:`solve_many`, a multi-process pool dispatches even a
        single net to a worker — the worker already holds the solve
        context, which is the point of keeping the pool warm.

        When the router puts a structural group on the batch axis
        (NumPy, a store-driving algorithm, and ``soa``-side lanes),
        nets sharing a :func:`~repro.core.schedule.group_signature`
        are solved as one vectorized group — bit-identical per net to
        the per-net path, just amortizing every kernel launch over the
        group.  Results always come back in input order.

        On a multi-process pool, single nets over the pool's
        ``parallel_threshold`` are additionally solved *partitioned*: cut
        into balanced subtrees, solved concurrently across the same
        workers, and spliced back together in this process on the
        ``object`` store, whatever the pool's ``backend`` —
        bit-identical again (see :mod:`repro.parallel`).

        Every one of those dispatch decisions — backend, batch axis,
        partitioning — goes through the pool's
        :class:`~repro.routing.router.Router`, whose static rule applies
        fixed size rules (an ``"auto"`` pool, at any ``jobs``, keeps
        single nets and groups short of a long chain on the ``object``
        store, see :func:`~repro.routing.router.static_store`).

        ``deadline`` installs a per-call wall budget
        (:class:`~repro.resilience.Deadline`) for the duration of the
        solve — checked cooperatively by every execution strategy and
        used to bound worker-pool waits; expiry raises
        :class:`~repro.errors.DeadlineExceeded`, never a partial
        result.  Dispatch failures (dead or hung workers, when
        ``task_timeout`` is set) are supervised: the pool is respawned
        and the work retried, then degraded to the bit-identical
        in-process path (see :meth:`resilience_stats`).
        """
        if self._closed:
            raise RuntimeError("SolverPool is closed")
        if deadline is not None:
            # Install ambiently so the interpreter loops (this thread)
            # and the pool-wait bounds all see it.
            with deadline_scope(deadline):
                return self.solve(nets, chunksize=chunksize)
        from repro.routing.features import features_of

        compiled = [self.compile(net) for net in nets]
        capture = self._capture_payloads(nets)
        plans: List[Optional[object]] = [None] * len(compiled)
        routed: List[int] = []
        if self.jobs > 1:
            # Partitioning needs the subtree range maps, which only
            # locally compiled schedules carry.  A tripped "parallel"
            # breaker masks the capability so routing skips the
            # strategy (half-open grants one probe).
            # The probe plans are counted only for the units that run
            # them: a partitioned net here, a solo net in _route_units.
            parallel_ok = self.breakers.allow("parallel")
            for index, net in enumerate(compiled):
                if not net.final_of_node:
                    continue
                plan = self.router.plan(
                    features_of(net, self.library), backend=self.backend,
                    supports_parallel=parallel_ok,
                )
                plans[index] = plan
                if plan.parallel:
                    self.router.record(plan)
                    routed.append(index)
            if parallel_ok and not routed:
                # The half-open probe (if any) was never exercised.
                self.breakers.cancel("parallel")
        results: List[Optional[BufferingResult]] = [None] * len(compiled)
        routed_set = set(routed)
        plain = [
            index for index in range(len(compiled))
            if index not in routed_set
        ]
        if plain or not compiled:
            subset = [compiled[index] for index in plain]
            preplans = [plans[index] for index in plain]
            subcapture = [capture[index] for index in plain] if capture else None
            for index, result in zip(
                plain, self._solve_plain(subset, chunksize, preplans,
                                         subcapture)
            ):
                results[index] = result
        for index in routed:
            results[index] = self._solve_partitioned_net(
                compiled[index], plans[index],
                capture[index] if capture else None,
            )
        return results  # type: ignore[return-value]

    def _capture_payloads(self, nets) -> Optional[list]:
        """Serialized trees for full-capture workload logging, aligned
        with the input order (``None`` per net without a plain tree)."""
        log = self.workload_log
        if log is None or log.capture != "full":
            return None
        from repro.tree.io import tree_to_dict

        return [
            None if isinstance(net, CompiledNet) else tree_to_dict(net)
            for net in nets
        ]

    def _log_unit(self, indices, compiled, plan, seconds, capture) -> None:
        """Append one executed unit to the workload log, if there is one.

        Called with the serial lock held (the log's own lock nests
        safely beneath it).
        """
        log = self.workload_log
        if log is None:
            return
        kind = "batch" if len(indices) > 1 else "solve"
        from repro.routing.features import features_of
        from repro.routing.workload import compiled_digest, group_digest

        nets = [compiled[index] for index in indices]
        features = features_of(nets[0], self.library, lanes=len(nets))
        payload = None
        if log.capture == "full" and capture is not None:
            dicts = [capture[index] for index in indices]
            if all(entry is not None for entry in dicts):
                from repro.tree.io import library_to_dict

                payload = {"library": library_to_dict(self.library)}
                if kind == "batch":
                    payload["nets"] = dicts
                else:
                    payload["net"] = dicts[0]
                if self.driver is not None:
                    payload["driver"] = {
                        "resistance": self.driver.resistance,
                        "intrinsic_delay": self.driver.intrinsic_delay,
                        "name": self.driver.name,
                    }
        digest = (
            group_digest(nets) if kind == "batch"
            else compiled_digest(nets[0])
        )
        log.record(
            kind, digest=digest, features=features, plan=plan,
            seconds=seconds,
            algorithm=self.algorithm, options=self.options,
            payload=payload,
        )

    def _route_units(
        self, compiled: List[CompiledNet], preplans: List[Optional[object]]
    ) -> tuple:
        """Group the nets structurally and route each execution unit.

        Returns ``(exec_groups, unit_plans)``: index
        groups of size > 1 are batch-axis dispatches, singletons are
        per-net solves carrying the backend their plan picked.  A
        multi-lane group the router declines to batch (its lanes are on
        the ``object`` side) is split back into singletons, each with
        the group's plan.  A group routed to ``soa`` imports the lane
        engine here (:meth:`_lane_engine_loads`); if NumPy fails to
        import, its lanes are routed one by one instead.
        """
        from repro.routing.features import features_of

        batch_ok = False
        if self._batch_axis and len(compiled) > 1:
            # A tripped "batch_axis" breaker degrades every group to
            # singletons (bit-identical, just unbatched).
            batch_ok = self.breakers.allow("batch_axis")
        if batch_ok:
            groups = _group_indices(compiled)
        else:
            groups = [[index] for index in range(len(compiled))]
        exec_groups: List[List[int]] = []
        unit_plans: list = []
        for indices in groups:
            if len(indices) > 1:
                plan = self.router.plan(
                    features_of(
                        compiled[indices[0]], self.library,
                        lanes=len(indices),
                    ),
                    backend=self.backend, supports_batch=True,
                )
                if plan.backend != "soa" or self._lane_engine_loads():
                    self.router.record(plan)
                    if plan.batch_axis:
                        exec_groups.append(indices)
                        unit_plans.append(plan)
                        continue
                    for index in indices:
                        exec_groups.append([index])
                        unit_plans.append(plan)
                    continue
            for index in indices:
                plan = preplans[index]
                if plan is None:
                    plan = self.router.route(
                        features_of(compiled[index], self.library),
                        backend=self.backend,
                    )
                else:
                    self.router.record(plan)
                exec_groups.append([index])
                unit_plans.append(plan)
        if batch_ok and not any(len(ix) > 1 for ix in exec_groups):
            # Probe consumed but no group dispatched: return the token.
            self.breakers.cancel("batch_axis")
        return exec_groups, unit_plans

    def _solve_plain(
        self,
        compiled: List[CompiledNet],
        chunksize: Optional[int],
        preplans: Optional[List[Optional[object]]] = None,
        capture: Optional[list] = None,
    ) -> List[BufferingResult]:
        """The per-net/batch-axis path (everything but partitioning)."""
        if preplans is None:
            preplans = [None] * len(compiled)
        exec_groups, unit_plans = self._route_units(compiled, preplans)
        if self.jobs == 1 or not compiled:
            with self._serial_lock:
                return self._solve_inline(
                    compiled, exec_groups, unit_plans, capture
                )
        items = [
            (plan.backend, [compiled[index] for index in indices])
            for indices, plan in zip(exec_groups, unit_plans)
        ]
        if chunksize is None:
            chunksize = max(1, len(items) // (self.jobs * 4))
        # Any multi-lane task makes this dispatch count against the
        # batch-axis breaker; singleton-only dispatches are pool-level
        # failures, not a strategy's.
        axis = (
            "batch_axis"
            if any(len(ix) > 1 for ix in exec_groups) else None
        )
        nested = self._supervised_map(
            _solve_task, items, chunksize, axis=axis,
            site="batch.dispatch", inject_site="batch.dispatch",
            fallback=lambda: self._solve_items_inline(items),
        )
        results: List[Optional[BufferingResult]] = [None] * len(compiled)
        with self._serial_lock:
            for indices, plan, group_results in zip(
                exec_groups, unit_plans, nested
            ):
                for index, result in zip(indices, group_results):
                    results[index] = result
                # In-worker solve seconds (a lane's runtime is the
                # group wall clock amortized, so the sum restores it).
                seconds = sum(
                    result.stats.runtime_seconds
                    for result in group_results
                )
                self._record_unit(indices, compiled, plan, seconds, capture)
        return results  # type: ignore[return-value]

    def _solve_partitioned_net(
        self, net: CompiledNet, plan, capture_entry=None
    ) -> BufferingResult:
        """One large net across all workers, spliced in this process."""
        from repro.parallel.solver import solve_partitioned

        report: dict = {}
        # The whole call holds the serial lock: it serializes the
        # dispatch with the pool's other in-process work and stats,
        # and Pool.map is safe to call while holding it.
        with self._serial_lock:
            start = time.perf_counter()
            try:
                result = solve_partitioned(
                    net, self.library, algorithm=self.algorithm,
                    driver=self.driver, options=self.options, pool=self,
                    report=report,
                )
            except Exception as exc:
                # Safety net under the supervised dispatch: any
                # supervisable failure that still escapes degrades to
                # the bit-identical serial solve; real errors (and
                # DeadlineExceeded) propagate.
                if not is_supervisable(exc):
                    raise
                self.breakers.record("parallel", False)
                self._resilience_counters["partitioned_fallbacks"] += 1
                report["engaged"] = False
                report["reason"] = f"degraded after worker failure: {exc}"
                from repro.core.api import insert_buffers
                from repro.core.stores import SPLICE_BACKEND

                result = insert_buffers(
                    net, self.library, algorithm=self.algorithm,
                    driver=self.driver, backend=SPLICE_BACKEND,
                    **self.options,
                )
            else:
                if report.get("engaged"):
                    self.breakers.record("parallel", True)
                else:
                    # Planner fell back serially: the strategy was
                    # never exercised, so a half-open probe returns.
                    self.breakers.cancel("parallel")
            elapsed = time.perf_counter() - start
            with self._stats_lock:
                stats = self._parallel_stats
                if report["engaged"]:
                    stats["parallel_solves"] += 1
                    stats["partitions_total"] += report["partitions"]
                else:
                    stats["fallback_solves"] += 1
                stats["last"] = report
            self._log_unit(
                [0], [net], plan, elapsed,
                [capture_entry] if capture_entry is not None else None,
            )
        return result

    def _map_partition_tasks(self, tasks: list) -> list:
        """Dispatch partition tasks on the persistent pool, supervised.

        After retries, degrades to solving the cut extracts inline —
        the exact ``jobs=1`` path, so the spliced result stays
        bit-identical.  Called with the serial lock held (from
        :meth:`_solve_partitioned_net`), which the inline fallback
        relies on: it must not re-acquire it.
        """
        from repro.parallel.worker import _solve_partition, solve_subschedule

        def fallback() -> list:
            self._resilience_counters["partitioned_fallbacks"] += 1
            return [
                (index, solve_subschedule(
                    sub, root_id, self.library, self.algorithm,
                    self.options,
                ), 0.0, None)
                for index, root_id, sub, _ in tasks
            ]

        return self._supervised_map(
            _solve_partition, tasks, 1, axis="parallel",
            site="parallel.dispatch", fallback=fallback,
        )

    def _supervised_map(
        self,
        func,
        items: list,
        chunksize: int,
        axis: Optional[str] = None,
        site: str = "batch.dispatch",
        inject_site: Optional[str] = None,
        fallback=None,
    ) -> list:
        """``pool.map`` under supervision: detect, respawn, retry, degrade.

        ``multiprocessing.Pool`` never raises on abrupt worker death —
        it repopulates the worker and the in-flight map blocks forever —
        so detection is ``map_async(...).get(timeout)`` with the timeout
        derived from ``task_timeout`` (scaled by the number of dispatch
        waves) and clipped to the ambient deadline.  On a supervisable
        failure the pool is terminated and respawned, the dispatch
        retried with backoff, and after ``max_retries`` the caller's
        in-process ``fallback`` (bit-identical) runs instead.  ``axis``
        names the circuit breaker that observes each failure and the
        final outcome.
        """
        import multiprocessing

        deadline = active_deadline()
        used_fallback = [False]

        def attempt() -> list:
            if inject_site is not None:
                _inject_fault(inject_site)
            async_result = self._ensure_pool().map_async(
                func, items, chunksize=chunksize
            )
            timeout = self._map_timeout(len(items), deadline)
            if timeout is None:
                return async_result.get()
            try:
                return async_result.get(timeout)
            except multiprocessing.TimeoutError:
                if deadline is not None and deadline.expired():
                    raise DeadlineExceeded(site, deadline.budget) from None
                raise WorkerHangError(
                    f"{len(items)}-task dispatch at {site} exceeded "
                    f"{timeout:.2f}s (dead or hung worker)"
                ) from None

        def wrapped_fallback() -> list:
            used_fallback[0] = True
            return fallback()

        tracer = active_tracer()
        dispatch_handle = (
            tracer.begin("dispatch", tasks=len(items), site=site)
            if tracer is not None else None
        )
        result = self.supervisor.run(
            attempt,
            respawn=self._respawn_pool,
            fallback=wrapped_fallback if fallback is not None else None,
            deadline=deadline,
            on_failure=(
                (lambda exc: self.breakers.record(axis, False))
                if axis is not None else None
            ),
        )
        if dispatch_handle is not None:
            tracer.end(dispatch_handle)
        if axis is not None and not used_fallback[0]:
            self.breakers.record(axis, True)
        return result

    def _map_timeout(
        self, n_items: int, deadline: Optional[Deadline]
    ) -> Optional[float]:
        """The wait bound for one dispatch of ``n_items`` tasks.

        ``task_timeout`` is per *task*; a map runs tasks in waves of
        ``jobs``, so the whole-map bound scales by the wave count.
        """
        timeout = None
        if self.task_timeout is not None:
            waves = max(1, -(-n_items // max(self.jobs, 1)))
            timeout = self.task_timeout * waves
        if deadline is not None:
            remaining = max(deadline.remaining(), 0.0)
            timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    def _respawn_pool(self) -> None:
        """Kill the worker pool; the next dispatch recreates it fresh."""
        with self._create_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def _solve_items_inline(self, items: list) -> list:
        """Degraded dispatch: run every ``(store, nets)`` task here.

        The supervised fallback after worker recovery fails: each unit
        runs in this process exactly as a worker would have run it.
        """
        with self._serial_lock:
            return [self._run_unit(store, nets) for store, nets in items]

    def _run_unit(self, store: str, nets, factory=None) -> list:
        return _solve_unit(
            store, nets, self.library, self.algorithm, self.driver,
            self.options, factory,
        )

    def parallel_stats(self) -> dict:
        """Partitioned-solve counters for this pool (``/stats`` block).

        ``parallel_solves``/``fallback_solves`` count nets the router
        sent here that did / did not engage (a fallback means the cut
        planner found the net too chain-like or under-covered and the
        net solved serially — same result).  ``last`` is the most
        recent solve's full report: partitions, cut depths, coverage,
        splice (residual) fraction, dispatch timings and pool
        utilization.
        """
        with self._stats_lock:
            stats = dict(self._parallel_stats)
            if stats["last"] is not None:
                stats["last"] = dict(stats["last"])
        stats["enabled"] = self.jobs > 1
        stats["threshold_instructions"] = self.parallel_threshold
        return stats

    def _solve_inline(
        self,
        compiled: List[CompiledNet],
        groups: List[List[int]],
        plans: list,
        capture: Optional[list] = None,
    ) -> List[BufferingResult]:
        """The ``jobs=1`` path: every unit through :func:`_solve_unit`.

        A batch-axis group that fails degrades to per-net solves on the
        group's store (bit-identical), counted against the
        ``batch_axis`` breaker.
        """
        results: List[Optional[BufferingResult]] = [None] * len(compiled)
        for indices, plan in zip(groups, plans):
            nets = [compiled[index] for index in indices]
            start = time.perf_counter()
            if len(nets) == 1:
                unit_results = self._run_unit(plan.backend, nets)
            else:
                try:
                    _inject_fault("batch.group")
                    unit_results = self._run_unit(
                        plan.backend, nets, self._factory_for(len(nets))
                    )
                except Exception as exc:
                    if not is_supervisable(exc):
                        raise
                    self.breakers.record("batch_axis", False)
                    self._resilience_counters["batch_group_fallbacks"] += 1
                    unit_results = [
                        self._run_unit(plan.backend, [net])[0] for net in nets
                    ]
                else:
                    self.breakers.record("batch_axis", True)
            elapsed = time.perf_counter() - start
            for index, result in zip(indices, unit_results):
                results[index] = result
            self._record_unit(indices, compiled, plan, elapsed, capture)
        return results  # type: ignore[return-value]

    def resilience_stats(self) -> dict:
        """Supervision and breaker counters (``/stats`` block).

        ``supervisor`` aggregates retries / respawns / fallbacks across
        every supervised dispatch; ``breakers`` reports each strategy
        axis's state machine; the ``*_fallbacks`` counters say how many
        execution units degraded to the bit-identical in-process path.
        """
        stats = {
            "supervisor": self.supervisor.stats(),
            "breakers": self.breakers.stats(),
            "task_timeout": self.task_timeout,
        }
        stats.update(self._resilience_counters)
        return stats

    def worker_health(self) -> dict:
        """Worker-process liveness (the deep-healthz ``workers`` view).

        ``workers_alive`` counts live processes of the lazily created
        pool; before the first multi-process solve (or with ``jobs=1``)
        there is nothing to probe and ``pool_created`` is ``False``.
        """
        with self._create_lock:
            procs = getattr(self._pool, "_pool", None)
            return {
                "jobs": self.jobs,
                "pool_created": self._pool is not None,
                "workers_alive": (
                    sum(1 for proc in procs if proc.is_alive())
                    if procs else 0
                ),
            }

    def routing_stats(self) -> dict:
        """Routing decisions and workload-log records (``/stats`` block)."""
        stats = self.router.stats()
        log = self.workload_log
        stats["workload_records"] = (
            log.records_written if log is not None else 0
        )
        return stats

    def _ensure_pool(self):
        with self._create_lock:
            if self._pool is None:
                import multiprocessing

                self._pool = multiprocessing.Pool(
                    processes=self.jobs,
                    initializer=_init_worker,
                    initargs=(self.library, self.algorithm, self.driver,
                              self.options),
                )
            return self._pool

    def close(self) -> None:
        """Terminate the workers; the pool cannot be used afterwards."""
        self._closed = True
        if self._owns_log and self.workload_log is not None:
            self.workload_log.close()
        with self._create_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SolverPool(algorithm={self.algorithm!r}, "
            f"backend={self.backend!r}, jobs={self.jobs}, b="
            f"{self.library.size}, {state})"
        )


def solve_many(
    trees: Sequence[Union[RoutingTree, CompiledNet]],
    library: BufferLibrary,
    algorithm: str = "fast",
    jobs: Optional[int] = 1,
    driver: Optional[Driver] = None,
    backend: str = "auto",
    chunksize: Optional[int] = None,
    deadline: Optional[Deadline] = None,
    **options,
) -> List[BufferingResult]:
    """Buffer every net in ``trees``, optionally across processes.

    One-shot form of :class:`SolverPool`: worker processes (when any)
    live for this call only.  Callers that solve repeatedly against the
    same context should hold a ``SolverPool`` instead.

    Args:
        trees: The routing trees to solve (each uses its own
            ``tree.driver`` unless ``driver`` overrides all of them).
            Pre-compiled nets are accepted too and used as-is.
        library: The buffer library, shared by every solve.
        algorithm: Registered algorithm name.
        jobs: Worker processes: ``1`` (default) solves serially in this
            process; ``None`` uses ``os.cpu_count()``.
        driver: Optional driver override applied to every net.
        backend: Candidate-store backend name, or ``"auto"`` (default).
        chunksize: Nets per worker task (``jobs > 1`` only).
        deadline: Optional wall-clock budget covering the whole call
            (see :meth:`SolverPool.solve`); exceeding it raises
            :class:`~repro.errors.DeadlineExceeded`.
        **options: Algorithm-specific flags (e.g.
            ``destructive_pruning=True`` for ``"fast"``).

    Returns:
        One :class:`BufferingResult` per tree, in input order —
        identical to ``[insert_buffers(t, library, ...) for t in trees]``.

    Raises:
        AlgorithmError: Unknown algorithm/backend, invalid options, or
            an invalid tree (each net is validated and compiled once, in
            this process, and workers receive the compact
            :class:`CompiledNet` payloads).
        ValueError: ``jobs < 1``.
    """
    jobs = _resolve_jobs(jobs)
    nets = list(trees)
    # A one-shot pool, torn down on return; one net starts no workers.
    # The pool checks the names and options before any solve.
    with SolverPool(
        library, algorithm=algorithm, jobs=jobs if len(nets) > 1 else 1,
        driver=driver, backend=backend, **options,
    ) as pool:
        return pool.solve(nets, chunksize=chunksize, deadline=deadline)
