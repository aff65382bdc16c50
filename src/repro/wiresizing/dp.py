"""The joint wire-sizing + buffer-insertion dynamic program.

An op set over the DP's one interpreter
(:func:`repro.core.dp._execute_schedule`), run on the net compiled by
:func:`~repro.core.schedule.compile_net`.  Stack values are plain
candidate lists, merged by :func:`~repro.core.merge.merge_branches` and
buffered by the fast algorithm's keep-all add-buffer; only ``WIRE``
differs: it tries every wire class on the edge and records the choice
in a :class:`WireDecision`.  That needs the edge's child id, and
``compile_net`` numbers wires in instruction order, so the k-th
``WIRE`` executed is wire k, whose child is found by inverting
``CompiledNet.wire_index_of``.  Signal polarity is not modelled:
negative-phase sinks and inverting types are rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.buffer_ops import insert_candidates
from repro.core.candidate import CandidateList
from repro.core.dp import _execute_schedule, _resolve_ops
from repro.core.fast import _add_buffer_keep_all
from repro.core.polarity import require_polarity_free
from repro.core.pruning import prune_dominated
from repro.core.schedule import compile_net
from repro.core.solution import DPStats
from repro.errors import AlgorithmError
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree
from repro.units import to_ps
from repro.wiresizing.wire_library import WireClass


class WireDecision:
    """Edge ``child_id``'s wire drawn at ``wire_class``."""

    __slots__ = ("child_id", "wire_class", "below")

    def __init__(self, child_id: int, wire_class: WireClass, below) -> None:
        self.child_id = child_id
        self.wire_class = wire_class
        self.below = below

    def __repr__(self) -> str:
        return f"WireDecision({self.child_id}, {self.wire_class.name})"


@dataclass(frozen=True)
class WireSizingResult:
    """Joint optimum: buffer placement plus per-edge wire widths.

    Attributes:
        slack: The maximized slack, seconds.
        buffer_assignment: ``{node_id: buffer_type}``.
        wire_assignment: ``{child_node_id: wire_class}`` for every edge
            (keyed by the edge's child endpoint, matching
            ``RoutingTree.edge_to``).
        driver_load: Capacitance presented to the driver.
        stats: DP bookkeeping.
    """

    slack: float
    buffer_assignment: Dict[int, BufferType]
    wire_assignment: Dict[int, WireClass]
    driver_load: float
    stats: DPStats

    @property
    def num_buffers(self) -> int:
        return len(self.buffer_assignment)

    def __str__(self) -> str:
        widths = sorted(
            {wc.name for wc in self.wire_assignment.values()}
        )
        return (
            f"WireSizingResult(slack={to_ps(self.slack):.2f}ps, "
            f"buffers={self.num_buffers}, widths={widths})"
        )


def _reconstruct(
    decision, library: BufferLibrary
) -> Tuple[Dict[int, BufferType], Dict[int, WireClass]]:
    """Expand a decision DAG of :mod:`repro.core.candidate`'s tuple
    forms plus :class:`WireDecision` nodes into both assignments."""
    types = {buffer.name: buffer for buffer in library}
    buffers: Dict[int, BufferType] = {}
    wires: Dict[int, WireClass] = {}
    stack = [decision]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            if len(node) == 3:
                node_id, name, below = node
                buffers[node_id] = types[name]
                stack.append(below)
            else:
                stack.append(node[0])
                stack.append(node[1])
        elif isinstance(node, WireDecision):
            wires[node.child_id] = node.wire_class
            stack.append(node.below)
        # An int sink terminates a chain.
    return buffers, wires


def _add_sized_wire(
    candidates: CandidateList,
    child_id: int,
    resistance: float,
    capacitance: float,
    classes: Sequence[WireClass],
) -> CandidateList:
    """Propagate through an edge trying every wire class: O(w * k).

    Each class produces its own transformed copy, recorded via a
    :class:`WireDecision`, and the union is dominance-pruned.
    """
    union: CandidateList = []
    for wire_class in classes:
        scaled_r = resistance * wire_class.resistance_scale
        scaled_c = capacitance * wire_class.capacitance_scale
        half = scaled_c / 2.0
        transformed = [
            (
                q - scaled_r * (half + c),
                c + scaled_c,
                WireDecision(child_id, wire_class, decision),
            )
            for q, c, decision in candidates
        ]
        # Same wire-cap shift for every candidate of this class: still
        # c-sorted; prune to nonredundant before the cross-class union.
        transformed = prune_dominated(transformed)
        union = insert_candidates(union, transformed) if union else transformed
    return union


def size_wires_and_insert_buffers(
    tree: RoutingTree,
    library: BufferLibrary,
    wire_classes: Sequence[WireClass],
    driver: Optional[Driver] = None,
) -> WireSizingResult:
    """Jointly choose buffer placements/types and per-edge wire widths.

    Edge parasitics in ``tree`` are interpreted as the *minimum-width*
    values; each :class:`WireClass` scales them.  With a single class of
    unit scales this reduces exactly to
    :func:`repro.core.api.insert_buffers` (tested).

    Complexity: ``O(w)``-fold more wire work than the plain DP plus the
    same O(k + b) buffer steps, i.e. ``O(w b n^2)`` overall.

    Args:
        tree: A validated routing tree.
        library: Buffer library.
        wire_classes: Non-empty sequence of width choices (names must be
            unique).
        driver: Source driver (defaults to ``tree.driver``).

    Raises:
        AlgorithmError: No or duplicate wire classes, an invalid tree,
            or a negative-phase sink or inverting type.
        DeadlineExceeded: An ambient deadline expired mid-solve.
    """
    classes = list(wire_classes)
    if not classes:
        raise AlgorithmError("at least one wire class is required")
    names = [wc.name for wc in classes]
    if len(set(names)) != len(names):
        raise AlgorithmError(f"duplicate wire class names: {names}")

    compiled = compile_net(tree, library)
    require_polarity_free(tree, library, "size_wires_and_insert_buffers")
    sink_op, _, merge_op, best_op, release = _resolve_ops("object")
    # compile_net numbers wires in instruction order, and this solve
    # splices nothing, so the k-th WIRE executed is wire k.
    index_of = compiled.wire_index_of
    children = sorted(index_of, key=index_of.__getitem__)
    wires_run = 0

    def wire_op(candidates, resistance, capacitance):
        nonlocal wires_run
        child = children[wires_run]
        wires_run += 1
        return _add_sized_wire(
            candidates, child, resistance, capacitance, classes
        )

    started = time.perf_counter()
    root_list, peak_length, candidates_generated = _execute_schedule(
        compiled, sink_op, wire_op, merge_op, _add_buffer_keep_all, release
    )
    assert wires_run == len(children), "every wire must run exactly once"

    driver = driver if driver is not None else compiled.driver
    resistance = driver.resistance if driver is not None else 0.0
    q, c, decision = best_op(root_list, resistance)
    slack = q - (driver.delay(c) if driver is not None else 0.0)
    buffers, wires = _reconstruct(decision, library)

    stats = DPStats(
        algorithm="fast-wiresizing",
        num_buffer_positions=compiled.num_buffer_positions,
        library_size=library.size,
        root_candidates=len(root_list),
        peak_list_length=peak_length,
        candidates_generated=candidates_generated,
        runtime_seconds=time.perf_counter() - started,
    )
    return WireSizingResult(
        slack=slack,
        buffer_assignment=buffers,
        wire_assignment=wires,
        driver_load=c,
        stats=stats,
    )


def apply_wire_assignment(
    tree: RoutingTree, wire_assignment: Dict[int, WireClass]
) -> Tuple[RoutingTree, Dict[int, int]]:
    """A copy of ``tree`` with edge parasitics scaled per the assignment.

    Edges absent from the assignment keep their base (minimum-width)
    parasitics.  Returns the resized tree and the old-to-new node id
    map (ids are re-assigned); :func:`verify_wire_sizing` wires the two
    together with the plain timing oracle.
    """
    out = RoutingTree.with_source(
        driver=tree.driver, name=tree.node(tree.root_id).name
    )
    id_map = {tree.root_id: out.root_id}
    for node_id in tree.preorder():
        if node_id == tree.root_id:
            continue
        node = tree.node(node_id)
        edge = tree.edge_to(node_id)
        wire_class = wire_assignment.get(node_id)
        r_scale = wire_class.resistance_scale if wire_class else 1.0
        c_scale = wire_class.capacitance_scale if wire_class else 1.0
        parent_new = id_map[edge.parent]
        if node.is_sink:
            new_id = out.add_sink(
                parent_new,
                edge.resistance * r_scale,
                edge.capacitance * c_scale,
                capacitance=node.capacitance,
                required_arrival=node.required_arrival,
                name=node.name,
                length=edge.length,
                polarity=node.polarity,
            )
        else:
            new_id = out.add_internal(
                parent_new,
                edge.resistance * r_scale,
                edge.capacitance * c_scale,
                buffer_position=node.is_buffer_position,
                allowed_buffers=node.allowed_buffers,
                name=node.name,
                length=edge.length,
            )
        id_map[node_id] = new_id
    out.validate()
    return out, id_map


def verify_wire_sizing(
    tree: RoutingTree,
    result: WireSizingResult,
    driver: Optional[Driver] = None,
):
    """Re-measure a :class:`WireSizingResult` with the independent oracle.

    Resizes a copy of the tree per the wire assignment, maps the buffer
    assignment onto it and runs the staged-Elmore analysis.  Returns the
    :class:`repro.timing.buffered.TimingReport`; the slack must equal
    ``result.slack`` up to float tolerance (asserted in tests).
    """
    from repro.timing.buffered import evaluate_assignment

    resized, id_map = apply_wire_assignment(tree, result.wire_assignment)
    remapped = {
        id_map[node_id]: buffer
        for node_id, buffer in result.buffer_assignment.items()
    }
    return evaluate_assignment(resized, remapped, driver)
