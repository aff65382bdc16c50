"""The bottom-up dynamic program shared by every insertion algorithm.

The engine maintains, per subtree, the sorted nonredundant candidate
list of Section 2, built bottom-up by exactly the paper's three
operations:

1. *add buffer* at a buffer position — pluggable (this is where the
   algorithms differ);
2. *add wire* when moving a child's list up through its incoming edge;
3. *merge* sibling branch lists at branching vertices.

At the root the driver turns the list into a single slack number, and
the winning candidate's decision DAG is expanded into an explicit
:class:`~repro.core.solution.BufferingResult`.

Every solve runs one interpreter, :func:`_execute_schedule`, over the
flat post-order instruction stream of a
:class:`~repro.core.schedule.CompiledNet`: a plain
:class:`~repro.tree.routing_tree.RoutingTree` is validated and compiled
with :func:`~repro.core.schedule.compile_net` first.  The partitioned
solver's residual replay (:mod:`repro.parallel.solver`), its workers
(:mod:`repro.parallel.worker`) and the incremental engine
(:mod:`repro.incremental.engine`) run the same loop, adding only a
splice map (precomputed subtree frontiers pushed in place of their
instruction ranges) and a capture hook.  The extension DPs run it too,
each with its own op set over a different stack value: the polarity DP
(:mod:`repro.core.polarity`) a list per arriving phase, the min-cost DP
(:mod:`repro.cost.min_cost`) a ``{cost: list}`` dict pruned across
levels from the ``on_final`` hook, and joint wire sizing
(:mod:`repro.wiresizing.dp`) a plain list whose ``WIRE`` tries every
wire class.  Only the batch axis (:mod:`repro.core.stores.batch_axis`),
whose ops take per-lane columns, keeps its own loop.

The *representation* of the candidate lists is pluggable
(:mod:`repro.core.stores`): with ``backend="object"`` (this engine-level
function's default — the public :func:`~repro.core.api.insert_buffers`
defaults to ``"auto"``, which defers the choice to the execution router
(:mod:`repro.routing`)) the engine operates on bare lists of
``(q, c, decision)`` tuples, while any other backend runs through the
:class:`CandidateStore` protocol, with ``add_buffer`` receiving the
store (the built-in algorithms route it to the store's fused
:meth:`~repro.core.stores.base.CandidateStore.apply_buffer`).  Store
ops may mutate in place and return the same store; the interpreter's
release bookkeeping only recycles operands that were actually
replaced.  Provenance may be deferred: the winning root candidate's
``decision`` can be a backend handle (the SoA tape reference) that
:func:`~repro.core.candidate.reconstruct_assignment` expands once, at
the end of the solve.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.buffer_ops import BufferPlan
from repro.core.candidate import (
    CandidateList,
    best_candidate_for_driver,
    reconstruct_assignment,
)
from repro.core.schedule import (
    OP_FINAL,
    OP_MERGE,
    OP_SINK,
    OP_WIRE,
    CompiledNet,
    compile_net,
)
from repro.core.solution import BufferingResult, DPStats
from repro.library.library import BufferLibrary
from repro.obs.profiler import instrument_ops, record_dp_stats
from repro.obs.spans import active_tracer
from repro.resilience.deadline import active_deadline
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree

#: Signature of an add-buffer operation under the object backend: takes
#: the node's current candidate list and its :class:`BufferPlan`,
#: returns the new full list (old and new candidates, nonredundant,
#: sorted).  Under any other backend the first argument is the node's
#: :class:`~repro.core.stores.base.CandidateStore` instead.
AddBufferOp = Callable[[CandidateList, BufferPlan], CandidateList]


@lru_cache(maxsize=64)
def _full_library_plan(buffers) -> BufferPlan:
    """The whole-library :class:`BufferPlan`, cached per buffer tuple.

    Sharing across solves matters for the batch engine and the sweep
    experiments, which solve many nets against one library: each worker
    process sorts the library once, not once per net.
    """
    return BufferPlan(-1, buffers)


def build_plans(tree: RoutingTree, library: BufferLibrary) -> Dict[int, BufferPlan]:
    """Precompute a :class:`BufferPlan` per buffer position of ``tree``."""
    return plans_for(
        ((node.node_id, node.allowed_buffers)
         for node in tree.buffer_positions()),
        library,
    )


def plans_for(
    positions: Iterable[Tuple[int, Optional[FrozenSet[str]]]],
    library: BufferLibrary,
) -> Dict[int, BufferPlan]:
    """A :class:`BufferPlan` per ``(node id, allowed names)`` position.

    Nodes that allow the whole library share one plan's sort orders via
    :meth:`BufferPlan.shared_view`; restricted nodes get a plan for
    their subset.  This mirrors the paper's one-off ``O(b log b)``
    library sort outside the main loop.
    """
    full_plan = _full_library_plan(library.buffers)
    plans: Dict[int, BufferPlan] = {}
    for node_id, allowed_names in positions:
        if allowed_names is None:
            plan = BufferPlan.shared_view(node_id, full_plan)
        else:
            allowed = [b for b in library.buffers if b.name in allowed_names]
            if not allowed:
                continue  # effectively not a buffer position
            plan = BufferPlan(node_id, allowed)
        plans[node_id] = plan
    return plans


def _release_noop(store) -> None:
    """Store release under the object backend: bare lists, GC-managed."""


def _release_store(store) -> None:
    store.release()


def _resolve_ops(
    backend: str, factory=None
) -> Tuple[Callable, Callable, Callable, Callable, Callable]:
    """The five backend-specific callables the interpreter loops over.

    Returns ``(sink_op, wire_op, merge_op, best_op, release_op)``.
    ``factory`` is the store factory of a non-object backend (unused
    for ``"object"``); reusing one across solves keeps its scratch
    state warm.
    """
    if backend == "object":
        from repro.core.merge import merge_branches
        from repro.core.wire_ops import add_wire

        def sink_op(node_id: int, q: float, c: float) -> CandidateList:
            return [(q, c, node_id)]

        return (
            sink_op,
            add_wire,
            merge_branches,
            best_candidate_for_driver,
            _release_noop,
        )

    factory.begin_solve()
    wire_op = lambda store, r, c: store.add_wire(r, c)  # noqa: E731
    merge_op = lambda left, right: left.merge(right)  # noqa: E731
    best_op = lambda store, resistance: store.best_for_driver(resistance)  # noqa: E731
    return factory.sink, wire_op, merge_op, best_op, _release_store


def _execute_schedule(
    compiled: CompiledNet,
    sink_op: Callable,
    wire_op: Callable,
    merge_op: Callable,
    add_buffer: AddBufferOp,
    release: Callable,
    site: str = "dp.schedule",
    splice_at: Optional[Dict[int, Callable[[], Optional[tuple]]]] = None,
    on_final: Optional[Callable[[int, object, int, int], None]] = None,
):
    """Run the instruction stream; returns ``(root_list, peak, generated)``.

    Each instruction consumes only values of the subtrees below it, in
    post-order, so every arithmetic result is reproducible bit for bit.
    Stores a consumed operand no longer reachable from the stack are
    released to the backend (a no-op for bare object lists), which is
    what lets the SoA scratch arena recycle buffers mid-solve.

    Stats are kept per stack slot: each slot carries the peak list
    length and generated-candidate count of the subtree it holds, and
    ``MERGE`` folds the right slot's into the left's.  The root slot
    therefore ends with the whole solve's ``DPStats`` figures, and at
    each node-final instruction the top slot holds that subtree's own.

    Args:
        site: The deadline site named when the ambient deadline expires.
        splice_at: ``{instruction index: callback}``.  Before executing
            a mapped instruction the interpreter calls the callback; a
            ``(store, peak, generated, final)`` return pushes ``store``
            as a finished subtree frontier with those stats and resumes
            after instruction ``final``; ``None`` executes as usual.
        on_final: Called as ``on_final(index, store, peak, generated)``
            after every node-final instruction (the top slot's view).
    """
    steps, wire_r, wire_c, sink_node, sink_q, sink_c = compiled.runtime()
    plans = compiled.plans()

    stack: List[object] = []
    push = stack.append
    pop = stack.pop
    peaks: List[int] = []
    gens: List[int] = []
    deadline = active_deadline()
    # One thread-local read per solve; with no active profiler the ops
    # come back untouched and end_range is None, so the dispatch loop
    # below executes the uninstrumented instruction stream.
    sink_op, wire_op, merge_op, add_buffer, end_range = instrument_ops(
        sink_op, wire_op, merge_op, add_buffer
    )
    probe = splice_at.get if splice_at else None

    total = len(steps)
    i = 0
    while i < total:
        if probe is not None:
            hook = probe(i)
            if hook is not None:
                hit = hook()
                if hit is not None:
                    store, peak, generated, final = hit
                    push(store)
                    peaks.append(peak)
                    gens.append(generated)
                    i = final + 1
                    continue
        op, arg = steps[i]
        code = op & 3
        if code == OP_WIRE:
            top = stack[-1]
            current = wire_op(top, wire_r[arg], wire_c[arg])
            if current is not top:
                release(top)
                stack[-1] = current
        elif code == OP_SINK:
            current = sink_op(sink_node[arg], sink_q[arg], sink_c[arg])
            push(current)
            peaks.append(0)
            gens.append(1)
        elif code == OP_MERGE:
            right = pop()
            left = pop()
            current = merge_op(left, right)
            right_peak = peaks.pop()
            right_generated = gens.pop()
            gens[-1] += right_generated + len(current)
            if right_peak > peaks[-1]:
                peaks[-1] = right_peak
            if current is not left:
                release(left)
            if current is not right:
                release(right)
            push(current)
        else:  # OP_BUFFER
            top = stack[-1]
            before = len(top)
            current = add_buffer(top, plans[arg])
            gens[-1] += max(len(current) - before, 0)
            if current is not top:
                release(top)
                stack[-1] = current
        if op & OP_FINAL:
            # Instruction-range boundary: one per tree node.  The
            # deadline poll and the hooks each cost a single
            # is-not-None test when inactive.
            length = len(current)
            if length > peaks[-1]:
                peaks[-1] = length
            if deadline is not None:
                deadline.check(site)
            if end_range is not None:
                end_range(length)
            if on_final is not None:
                on_final(i, current, peaks[-1], gens[-1])
        i += 1

    assert len(stack) == 1, "schedule must reduce to the root list"
    return stack[0], peaks[0], gens[0]


def _finish(
    root_list,
    best_op: Callable,
    release: Callable,
    driver: Optional[Driver],
    algorithm: str,
    num_buffer_positions: int,
    library: BufferLibrary,
    peak_length: int,
    candidates_generated: int,
    started: float,
    backend: str,
) -> BufferingResult:
    """Turn the root list into the result object (every caller's tail)."""
    resistance = driver.resistance if driver is not None else 0.0
    best = best_op(root_list, resistance)
    assert best is not None  # a validated tree always yields candidates
    q, c, decision = best
    slack = q - (driver.delay(c) if driver is not None else 0.0)
    root_candidates = len(root_list)
    release(root_list)

    tracer = active_tracer()
    with tracer.span("backtrace") if tracer is not None else nullcontext():
        assignment = reconstruct_assignment(decision)

    elapsed = time.perf_counter() - started
    stats = DPStats(
        algorithm=algorithm,
        num_buffer_positions=num_buffer_positions,
        library_size=library.size,
        root_candidates=root_candidates,
        peak_list_length=peak_length,
        candidates_generated=candidates_generated,
        runtime_seconds=elapsed,
        backend=backend,
    )
    record_dp_stats(stats)
    return BufferingResult(
        slack=slack,
        assignment=assignment,
        driver_load=c,
        stats=stats,
    )


def run_dynamic_program(
    tree: Union[RoutingTree, CompiledNet],
    library: BufferLibrary,
    add_buffer: AddBufferOp,
    algorithm: str,
    driver: Optional[Driver] = None,
    backend: str = "object",
) -> BufferingResult:
    """Run the bottom-up DP and return the optimal buffering.

    Args:
        tree: A routing tree — validated and compiled with
            :func:`~repro.core.schedule.compile_net` on every call — or
            an already compiled :class:`~repro.core.schedule.CompiledNet`
            (compile once to amortize that over repeat solves).
        library: The buffer library (defines ``b``).
        add_buffer: The pluggable add-buffer operation.  Operates on
            ``CandidateList`` under ``backend="object"`` and on the
            node's :class:`CandidateStore` under any other backend.
        algorithm: Name recorded in the result.
        driver: Source driver; defaults to ``tree.driver`` (or the
            driver recorded at compile time); ``None`` means an ideal
            driver (slack is simply the best ``q``).
        backend: A registered candidate-store backend name
            (:func:`repro.core.stores.store_backend_names`).  ``"auto"``
            is not one: callers resolve it before they get here.

    Raises:
        AlgorithmError: If the tree fails validation, the backend is
            unknown, or a compiled net is combined with a mismatched
            library.
    """
    compiled = tree if isinstance(tree, CompiledNet) else compile_net(tree, library)
    compiled.check_library(library)
    driver = driver if driver is not None else compiled.driver
    factory = None if backend == "object" else compiled.factory(backend)
    sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
        backend, factory=factory
    )

    started = time.perf_counter()
    tracer = active_tracer()
    try:
        with (
            tracer.span(
                "dp.schedule", backend=backend, algorithm=algorithm,
                instructions=len(compiled.ops),
            )
            if tracer is not None
            else nullcontext()
        ):
            root_list, peak_length, candidates_generated = _execute_schedule(
                compiled, sink_op, wire_op, merge_op, add_buffer, release
            )
        return _finish(
            root_list, best_op, release, driver, algorithm,
            compiled.num_buffer_positions, library, peak_length,
            candidates_generated, started, backend,
        )
    finally:
        # Also runs after a DeadlineExceeded abort: the next
        # begin_solve resets the arena, but releasing the tape now
        # keeps an aborted solve from pinning its provenance.
        if factory is not None:
            factory.end_solve()
