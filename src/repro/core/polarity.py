"""Polarity-aware buffer insertion: inverters and signal-phase sinks.

Real libraries are dominated by *inverters* (smaller and faster than
back-to-back buffer pairs), and real nets have sinks that want the
inverted phase.  Lillis, Cheng & Lin's formulation keeps, per subtree,
one nonredundant candidate list for each polarity of the signal
arriving at the subtree root; the DATE-2005 hull walk applies to each
list unchanged.

Here that formulation is an op set over the DP's one interpreter
(:func:`repro.core.dp._execute_schedule`) on the compiled net.  A stack
value is a :class:`_Phases` pair: ``lists[0]`` holds the candidates
valid when the arriving signal has the source's polarity, ``lists[1]``
when it arrives inverted, each a bare list (the object store) or a
:class:`~repro.core.stores.soa.SoAStore` (:func:`repro.core.dp._resolve_ops`).

* ``SINK`` seeds the sink's own phase; ``WIRE`` wires both lists.
* ``MERGE`` combines like phases (both branches see the same arriving
  signal); a phase that either branch lacks stays empty.  It returns
  the left pair updated in place, having consumed the right pair's
  lists, so the interpreter never releases a list in use.
* ``BUFFER`` splits the plan by ``inverting``: a non-inverting type
  buffers ``lists[p]`` into ``lists[p]``, an inverting one into the
  other phase.  All betas come from the lists as they arrived and are
  inserted in a fixed order.
* The driver is non-inverting, so the root reads ``lists[0]``; an empty
  one means no polarity-correct buffering exists.

A pair's length is both lists' together, so ``DPStats`` follow the main
DP's per-slot definitions: on a polarity-free input they equal
:func:`repro.core.api.insert_buffers`' on the same store.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.buffer_ops import (
    BufferPlan,
    generate_fast,
    generate_lillis,
    insert_candidates,
)
from repro.core.dp import _execute_schedule, _finish, _release_noop, _resolve_ops
from repro.core.schedule import compile_net
from repro.core.solution import BufferingResult
from repro.core.stores import validate_backend
from repro.errors import AlgorithmError, InfeasibleError
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


def verify_polarities(
    tree: RoutingTree, assignment: Dict[int, BufferType]
) -> bool:
    """Whether ``assignment`` delivers every sink its required polarity.

    The source emits polarity +1; each inverting cell on the path flips
    it.  Reads :attr:`repro.timing.buffered.TimingReport.wrong_phase_sinks`
    of the independent timing oracle (load limits not enforced), so it
    does not depend on the DP.
    """
    from repro.timing.buffered import evaluate_assignment

    report = evaluate_assignment(tree, assignment, enforce_load_limits=False)
    return not report.wrong_phase_sinks


def require_polarity_free(
    tree: RoutingTree, library: BufferLibrary, engine: str
) -> None:
    """Reject phase inputs for a DP that cannot honour them.

    Raises:
        AlgorithmError: ``tree`` has a sink of polarity -1 or
            ``library`` an inverting type; the message names them.
    """
    negative = [sink.node_id for sink in tree.sinks() if sink.polarity == -1]
    inverting = [buffer.name for buffer in library.buffers if buffer.inverting]
    if negative or inverting:
        raise AlgorithmError(
            f"{engine} ignores signal polarity; it cannot solve "
            f"negative-phase sinks {negative} or inverting types "
            f"{inverting} (use insert_buffers_with_inverters)"
        )


class _Phases:
    """A subtree's frontier: one list per arriving phase (+1, then -1)."""

    __slots__ = ("lists",)

    def __init__(self, lists: List) -> None:
        self.lists = lists

    def __len__(self) -> int:
        return len(self.lists[0]) + len(self.lists[1])


def _split_plan(plan: BufferPlan):
    """``(same-phase plan, inverting plan)``, either ``None`` if empty.

    Filtering ``by_resistance_desc`` keeps the plan's tie order; a plan
    of one kind only is returned as is.
    """
    inverting = [b for b in plan.by_resistance_desc if b.inverting]
    if not inverting:
        return plan, None
    if len(inverting) == len(plan):
        return None, plan
    same = [b for b in plan.by_resistance_desc if not b.inverting]
    return BufferPlan(plan.node_id, same), BufferPlan(plan.node_id, inverting)


def _phase_ops(backend: str, factory, algorithm: str, negative: Sequence[int]):
    """The polarity op set: ``(sink, wire, merge, add_buffer)`` plus the
    inner ``(best, release)`` of the lists a pair holds."""
    sink, wire, merge, best, release = _resolve_ops(backend, factory=factory)
    if backend == "object":
        empty = list
        generate = generate_fast if algorithm == "fast" else generate_lillis
        insert = insert_candidates
    else:
        from repro.core.stores.soa import SoAStore

        empty = factory.empty
        generate = (
            SoAStore.generate_hull if algorithm == "fast"
            else SoAStore.generate_scan
        )
        insert = SoAStore.insert
    negative = frozenset(negative)

    def sink_op(node_id: int, q: float, c: float) -> _Phases:
        own = sink(node_id, q, c)
        return _Phases([empty(), own] if node_id in negative else [own, empty()])

    def wire_op(phases: _Phases, resistance: float, capacitance: float):
        lists = phases.lists
        for p in (0, 1):
            old = lists[p]
            if len(old):
                new = wire(old, resistance, capacitance)
                if new is not old:
                    release(old)
                lists[p] = new
        return phases

    def merge_op(left: _Phases, right: _Phases) -> _Phases:
        lists = left.lists
        for p in (0, 1):
            a = lists[p]
            b = right.lists[p]
            if not len(a):
                release(b)
            elif not len(b):
                release(a)
                lists[p] = b
            else:
                merged = merge(a, b)
                if merged is not a:
                    release(a)
                if merged is not b:
                    release(b)
                lists[p] = merged
        return left

    def add_buffer(phases: _Phases, plan: BufferPlan) -> _Phases:
        same, flip = _split_plan(plan)
        lists = phases.lists
        betas = ([], [])
        for p in (0, 1):
            source = lists[p]
            if len(source):
                if same is not None:
                    betas[p].append(generate(source, same))
                if flip is not None:
                    betas[1 - p].append(generate(source, flip))
        for p in (0, 1):
            for new in betas[p]:
                current = lists[p]
                if len(new):
                    out = insert(current, new)
                    if out is not current:
                        release(current)
                    if out is not new:
                        release(new)
                    lists[p] = out
                elif new is not current:
                    release(new)
        return phases

    return sink_op, wire_op, merge_op, add_buffer, best, release


def insert_buffers_with_inverters(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[Driver] = None,
    algorithm: str = "fast",
    backend: str = "object",
) -> BufferingResult:
    """Maximum-slack buffering honouring inverters and sink polarities.

    Args:
        tree: A validated routing tree; sinks may carry ``polarity=-1``.
        library: Buffer library; types may carry ``inverting=True``.
        driver: Source driver (defaults to ``tree.driver``); treated as
            non-inverting.
        algorithm: ``"fast"`` (hull walk per polarity list, the
            DATE-2005 operation) or ``"lillis"`` (exhaustive scan) —
            both exact, used to cross-check each other in tests.
        backend: A store in :data:`repro.core.stores.STORE_BACKENDS`,
            or ``"auto"`` for the store of a net solved alone
            (:func:`repro.routing.router.solo_store`); results are
            bit-identical across backends, like the main engine's.

    Returns:
        The optimal :class:`BufferingResult`; its assignment is
        polarity-correct by construction (re-checkable with
        :func:`verify_polarities`).

    Raises:
        InfeasibleError: If no buffering can deliver every sink its
            required polarity (e.g. negative sinks, no inverters).
        AlgorithmError: Unknown ``algorithm``/``backend`` or invalid
            tree.
        DeadlineExceeded: An ambient deadline expired mid-solve.
    """
    from repro.routing.router import solo_store

    if algorithm not in ("fast", "lillis"):
        raise AlgorithmError(
            f"unknown algorithm {algorithm!r}; choose 'fast' or 'lillis'"
        )
    compiled = compile_net(tree, library)
    backend = validate_backend(solo_store(backend, compiled))
    negative = [sink.node_id for sink in tree.sinks() if sink.polarity == -1]
    factory = None if backend == "object" else compiled.soa_factory()
    try:
        sink_op, wire_op, merge_op, add_buffer, best, release = _phase_ops(
            backend, factory, algorithm, negative
        )
        started = time.perf_counter()
        root, peak, generated = _execute_schedule(
            compiled, sink_op, wire_op, merge_op, add_buffer, _release_noop
        )
        positive = root.lists[0]
        if not len(positive):
            raise InfeasibleError(
                "no polarity-correct buffering exists: sinks "
                f"{negative} need the inverted signal and the library "
                "offers no way to deliver it"
            )
        return _finish(
            positive, best, release,
            driver if driver is not None else compiled.driver,
            f"{algorithm}-inverters", compiled.num_buffer_positions, library,
            peak, generated, started, backend,
        )
    finally:
        if factory is not None:
            factory.end_solve()
