"""Worker-side partition solving: subschedule in, frontier snapshot out.

A partition task ships a :meth:`~repro.core.schedule.CompiledNet.subschedule`
extract to a worker of the shared :class:`~repro.core.batch.SolverPool`
process pool (same pool, same ``_init_worker`` context — library,
algorithm, driver and options live in the worker already).  The worker
runs the ordinary schedule interpreter over the extract on the object
store, the one store that freezes and splices frontiers, and returns
the *frontier* — a picklable
:class:`~repro.incremental.subtree_cache.FrontierSnapshot` in the
parent tree's node ids — never an assignment: the cut's frontier is an
intermediate value of the parent's DP, and only the parent, after
splicing every frontier and replaying the residual glue, can score the
root against the driver.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Optional, Tuple

from repro.core.schedule import CompiledNet
from repro.core.stores import SPLICE_BACKEND
from repro.incremental.subtree_cache import FrontierSnapshot, capture_frontier
from repro.resilience.faults import inject as _inject_fault


def solve_subschedule(
    sub: CompiledNet,
    root_id: int,
    library,
    algorithm: str,
    options: dict,
) -> FrontierSnapshot:
    """Run ``sub`` to completion on the object store and freeze its
    root frontier.

    The same interpreter, operations and accounting as a scratch solve
    of the extract (:func:`repro.core.dp._execute_schedule` with the
    algorithm's ``add_buffer_op``), so the captured ``(q, c)`` columns,
    ``peak`` and ``generated`` are bit-for-bit what the parent's own
    execution of those instructions would have produced.

    Args:
        sub: The extracted subschedule (node ids preserved).
        root_id: The cut node's id (recorded on the snapshot).
        library / algorithm / options: The solve context.
    """
    from repro.core.dp import _execute_schedule, _resolve_ops
    from repro.core.registry import get_algorithm

    add_buffer = get_algorithm(algorithm).add_buffer_op(
        SPLICE_BACKEND, library, **options
    )
    sink_op, wire_op, merge_op, _best_op, release = _resolve_ops(
        SPLICE_BACKEND
    )
    root, peak, generated = _execute_schedule(
        sub, sink_op, wire_op, merge_op, add_buffer, release
    )
    return capture_frontier(root, root_id, peak, generated, library=library)


def _solve_partition(
    task: Tuple[int, int, CompiledNet, Optional[tuple]]
) -> Tuple[int, FrontierSnapshot, float, Optional[list]]:
    """One pool task: ``(index, cut node id, subschedule, obs)``.

    ``obs`` is ``None`` or ``(request_id, collect_spans)`` — the
    observability context the parent threads through the task tuple,
    the same channel ``REPRO_FAULTS`` uses for fault plans.  The
    request id is re-installed here so worker-side spans and JSON log
    lines correlate with the originating request; when the parent is
    tracing, the worker collects its own spans and returns them
    epoch-relative for the parent to re-parent
    (:meth:`repro.obs.spans.Tracer.adopt`).

    Returns ``(partition index, snapshot, busy seconds, spans)`` — the
    busy time feeds the pool-utilization figure in the solve report.
    """
    part_index, root_id, sub, obs = task
    request_id, collect_spans = obs if obs is not None else (None, False)
    # Forked executor workers can inherit the parent thread's ambient
    # deadline and tracer; the parent bounds its wait and collects its
    # own spans instead, so drop both here.
    from repro.core import batch
    from repro.obs.spans import Tracer, request_scope, reset_active_tracer, trace_scope
    from repro.resilience.deadline import reset_active_deadline

    reset_active_deadline()
    reset_active_tracer()
    _inject_fault("worker.partition")
    context = batch._WORKER_CONTEXT
    assert context is not None, "partition task on an uninitialized worker"
    tracer = (
        Tracer(request_id=request_id or "untraced")
        if collect_spans
        else None
    )
    started = time.perf_counter()
    with request_scope(request_id), trace_scope(tracer), (
        tracer.span(
            "worker.partition", root=root_id, instructions=len(sub.ops),
        )
        if tracer is not None
        else nullcontext()
    ):
        snapshot = solve_subschedule(
            sub, root_id, context["library"], context["algorithm"],
            context["options"],
        )
    elapsed = time.perf_counter() - started
    spans = tracer.export_relative() if tracer is not None else None
    return part_index, snapshot, elapsed, spans
