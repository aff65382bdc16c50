"""Staged Elmore analysis of a tree with an explicit buffer assignment.

A buffer assigned to vertex ``v`` sits between the wire arriving at ``v``
and the subtree below ``v``: upstream sees only the buffer's input
capacitance, and the signal pays the buffer delay ``K + R * C_down(v)``
before continuing into the subtree.  This matches the candidate algebra
of the dynamic programs (buffering happens at the vertex, below its
incoming edge) and is implemented here from scratch — without candidate
lists — so it can act as an independent oracle.  The same pass tracks
the signal phase each vertex receives (the driver is non-inverting,
every inverting cell flips it), so the report also names the sinks an
assignment delivers the wrong phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import TimingError
from repro.library.buffer_type import BufferType
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree
from repro.units import to_ps


@dataclass(frozen=True)
class TimingReport:
    """Result of evaluating a buffer assignment.

    Attributes:
        slack: Worst slack over all sinks, seconds.
        sink_delays: Per-sink delay from the driver input, seconds.
        sink_slacks: Per-sink ``required_arrival - delay``.
        critical_sink: Node id of the sink with the worst slack.
        driver_load: Capacitance presented to the driver, farads.
        num_buffers: Number of buffers in the assignment.
        total_buffer_cost: Sum of assigned buffers' ``cost`` attributes.
        wrong_phase_sinks: Node ids of the sinks whose delivered phase
            differs from their ``polarity``; empty when every phase is
            right.
    """

    slack: float
    sink_delays: Mapping[int, float] = field(repr=False)
    sink_slacks: Mapping[int, float] = field(repr=False)
    critical_sink: int = -1
    driver_load: float = 0.0
    num_buffers: int = 0
    total_buffer_cost: float = 0.0
    wrong_phase_sinks: Tuple[int, ...] = ()

    def __str__(self) -> str:
        return (
            f"TimingReport(slack={to_ps(self.slack):.2f}ps, "
            f"buffers={self.num_buffers}, critical_sink={self.critical_sink})"
        )


def _validate_assignment(
    tree: RoutingTree, assignment: Mapping[int, BufferType]
) -> None:
    for node_id, buffer in assignment.items():
        node = tree.node(node_id)
        if not node.is_buffer_position:
            raise TimingError(
                f"node {node_id} is not a buffer position; cannot assign "
                f"buffer {buffer.name!r}"
            )
        if not node.permits(buffer.name):
            raise TimingError(
                f"buffer {buffer.name!r} is not allowed at node {node_id}"
            )


def _check_load_limits(
    assignment: Mapping[int, BufferType], cap_below: Mapping[int, float]
) -> None:
    for node_id, buffer in assignment.items():
        if buffer.max_load is not None and cap_below[node_id] > buffer.max_load:
            raise TimingError(
                f"buffer {buffer.name!r} at node {node_id} drives "
                f"{cap_below[node_id]:.3e} F, above its max_load "
                f"{buffer.max_load:.3e} F"
            )


def _stage_capacitances(
    tree: RoutingTree, assignment: Mapping[int, BufferType]
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """(cap_below, cap_presented) for every node.

    ``cap_below[v]`` is the capacitance the driving point at ``v`` sees:
    the subtree below ``v`` cut at buffer inputs.  ``cap_presented[v]``
    is what ``v`` shows to the wire above it: the buffer's input
    capacitance when one is assigned at ``v``, else ``cap_below[v]``.
    """
    cap_below: Dict[int, float] = {}
    cap_presented: Dict[int, float] = {}
    for node_id in tree.postorder():
        node = tree.node(node_id)
        total = node.capacitance if node.is_sink else 0.0
        for child in tree.children_of(node_id):
            edge = tree.edge_to(child)
            total += edge.capacitance + cap_presented[child]
        cap_below[node_id] = total
        buffer = assignment.get(node_id)
        cap_presented[node_id] = (
            buffer.input_capacitance if buffer is not None else total
        )
    return cap_below, cap_presented


def evaluate_assignment(
    tree: RoutingTree,
    assignment: Optional[Mapping[int, BufferType]] = None,
    driver: Optional[Driver] = None,
    enforce_load_limits: bool = True,
) -> TimingReport:
    """Measure the timing of ``tree`` under a buffer assignment.

    Args:
        tree: The net.
        assignment: Mapping from node id to the buffer type inserted
            there.  ``None`` or ``{}`` evaluates the unbuffered net.
        driver: Source driver; defaults to ``tree.driver``; when both are
            absent an ideal driver (zero delay) is assumed.
        enforce_load_limits: Reject assignments where a buffer drives
            more than its ``max_load`` (set false to measure an illegal
            assignment anyway, e.g. for what-if analysis).

    Returns:
        A :class:`TimingReport`.

    Raises:
        TimingError: If the assignment uses a vertex that is not a legal
            buffer position, a buffer type forbidden there, or (when
            enforced) a buffer above its load limit.
    """
    assignment = dict(assignment) if assignment else {}
    driver = driver if driver is not None else tree.driver
    _validate_assignment(tree, assignment)

    cap_below, cap_presented = _stage_capacitances(tree, assignment)
    if enforce_load_limits:
        _check_load_limits(assignment, cap_below)

    # Arrival time and signal phase at each node's *driving point*:
    # after the buffer when one is assigned there, after the driver at
    # the root.
    arrival: Dict[int, float] = {}
    phase: Dict[int, int] = {}
    root = tree.root_id
    arrival[root] = driver.delay(cap_presented[root]) if driver else 0.0
    phase[root] = 1

    for node_id in tree.preorder():
        if node_id == root:
            continue
        edge = tree.edge_to(node_id)
        time_at_input = arrival[edge.parent] + edge.resistance * (
            edge.capacitance / 2.0 + cap_presented[node_id]
        )
        polarity = phase[edge.parent]
        buffer = assignment.get(node_id)
        if buffer is not None:
            time_at_input += buffer.delay(cap_below[node_id])
            if buffer.inverting:
                polarity = -polarity
        arrival[node_id] = time_at_input
        phase[node_id] = polarity

    sink_delays: Dict[int, float] = {}
    sink_slacks: Dict[int, float] = {}
    worst_slack = float("inf")
    critical = -1
    wrong_phase = []
    for sink in tree.sinks():
        if phase[sink.node_id] != sink.polarity:
            wrong_phase.append(sink.node_id)
        delay = arrival[sink.node_id]
        slack = sink.required_arrival - delay
        sink_delays[sink.node_id] = delay
        sink_slacks[sink.node_id] = slack
        if slack < worst_slack:
            worst_slack = slack
            critical = sink.node_id

    return TimingReport(
        slack=worst_slack,
        sink_delays=sink_delays,
        sink_slacks=sink_slacks,
        critical_sink=critical,
        driver_load=cap_presented[root],
        num_buffers=len(assignment),
        total_buffer_cost=sum(b.cost for b in assignment.values()),
        wrong_phase_sinks=tuple(wrong_phase),
    )


def evaluate_slack(
    tree: RoutingTree,
    assignment: Optional[Mapping[int, BufferType]] = None,
    driver: Optional[Driver] = None,
) -> float:
    """Shorthand for ``evaluate_assignment(...).slack``."""
    return evaluate_assignment(tree, assignment, driver).slack
