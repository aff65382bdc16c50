"""Cost-stratified dynamic program: slack-vs-cost Pareto optimization.

The maximum-slack DP keeps one nonredundant (Q, C) list per subtree.
Here each subtree instead keeps ``levels[w]`` — the nonredundant list of
candidates whose inserted buffers cost exactly ``w`` — so the root ends
up with the best achievable slack at every cost, from which both the
Pareto frontier and the minimum cost for a slack target fall out.

Operations per level mirror the unit-cost DP:

* *wire*: applied to every level independently;
* *buffer* at a position: level ``w``'s hull spawns buffered candidates
  into level ``w + cost(B_i)`` (the paper's O(k + b) hull walk is reused
  per level);
* *merge*: levels add, ``levels[w] = nonredundant union over
  w_l + w_r = w`` of the pairwise branch merges.

A cross-level prune removes candidates dominated by a *cheaper* level —
they can never appear on the frontier — keeping level lists small.

These are an op set over the DP's one interpreter
(:func:`repro.core.dp._execute_schedule`) on the compiled net, whose
stack values are ``{cost: list}`` dicts.  The cross-level prune runs
from its ``on_final`` hook, once per vertex on the finished levels
(pruning inside ``MERGE`` or ``BUFFER`` would change the intermediate
lists).  Polarity is not modelled: negative-phase sinks and inverting
types are rejected.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.buffer_ops import BufferPlan, generate_fast, insert_candidates
from repro.core.candidate import (
    CandidateList,
    best_candidate_for_driver,
    reconstruct_assignment,
)
from repro.core.dp import _execute_schedule, _release_noop
from repro.core.merge import merge_branches
from repro.core.polarity import require_polarity_free
from repro.core.pruning import prune_dominated
from repro.core.schedule import compile_net
from repro.core.wire_ops import add_wire
from repro.errors import AlgorithmError, InfeasibleError
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree

#: One subtree's state: cost level -> nonredundant candidate list.
CostLevels = Dict[int, CandidateList]

CostFn = Callable[[BufferType], int]


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto point: the best slack achievable at exactly this cost.

    Attributes:
        cost: Total buffer cost (integer units).
        slack: Optimal slack among bufferings of that cost.
        assignment: A buffering achieving it.
    """

    cost: int
    slack: float
    assignment: Dict[int, BufferType]

    @property
    def num_buffers(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class CostResult:
    """Result of :func:`minimize_cost`.

    Attributes:
        slack: Slack of the chosen buffering (>= the target).
        cost: Its total cost — minimal among bufferings meeting the
            target.
        assignment: The chosen buffering.
        frontier: The full Pareto frontier (ascending cost, ascending
            slack) for reporting.
    """

    slack: float
    cost: int
    assignment: Dict[int, BufferType]
    frontier: Tuple[FrontierPoint, ...]


def _default_cost(buffer: BufferType) -> int:
    return 1


def _prune_across_levels(levels: CostLevels) -> CostLevels:
    """Drop candidates dominated by any strictly cheaper level.

    A candidate at cost ``w`` dominated by one at cost ``< w`` is useless
    for every objective considered here (any upstream completion of the
    dominator is at least as good and cheaper).  ``cheaper`` maintains
    the running nonredundant union of levels already processed; each
    candidate checks it with one bisect.
    """
    pruned: CostLevels = {}
    cheaper: CandidateList = []
    cheaper_cs: List[float] = []
    for cost in sorted(levels):
        survivors: CandidateList = []
        for candidate in levels[cost]:
            q, c, _ = candidate
            # Best q among cheaper candidates with c' <= c: the union is
            # sorted with q increasing in c, so it is the last entry at
            # or before c.
            index = bisect.bisect_right(cheaper_cs, c) - 1
            if index >= 0 and cheaper[index][0] >= q:
                continue
            survivors.append(candidate)
        if survivors:
            pruned[cost] = survivors
            cheaper = insert_candidates(cheaper, survivors)
            cheaper_cs = [entry[1] for entry in cheaper]
    return pruned


def _level_ops(buffer_costs: Dict[str, int], max_cost: Optional[int]):
    """The cost-level op set: ``(sink, wire, merge, add_buffer)``."""

    def sink_op(node_id: int, q: float, c: float) -> CostLevels:
        return {0: [(q, c, node_id)]}

    def wire_op(levels: CostLevels, resistance: float, capacitance: float):
        return {
            w: add_wire(lst, resistance, capacitance)
            for w, lst in levels.items()
        }

    def merge_op(levels: CostLevels, other: CostLevels) -> CostLevels:
        combined: CostLevels = {}
        for wl, left in levels.items():
            for wr, right in other.items():
                w = wl + wr
                if max_cost is not None and w > max_cost:
                    continue
                merged = merge_branches(left, right)
                if w in combined:
                    combined[w] = insert_candidates(combined[w], merged)
                else:
                    combined[w] = merged
        return combined

    def add_buffer(levels: CostLevels, plan: BufferPlan) -> CostLevels:
        additions: CostLevels = {}
        for w, lst in levels.items():
            for candidate in generate_fast(lst, plan):
                # A beta's decision is (node_id, buffer_name, below).
                w_new = w + buffer_costs[candidate[2][1]]
                if max_cost is not None and w_new > max_cost:
                    continue
                additions.setdefault(w_new, []).append(candidate)
        for w_new, extra in additions.items():
            # Betas from several source levels: c-sorted, but only
            # their nonredundant subset may be inserted.
            extra.sort(key=itemgetter(1))
            extra = prune_dominated(extra)
            if w_new in levels:
                levels[w_new] = insert_candidates(levels[w_new], extra)
            else:
                levels[w_new] = extra
        return levels

    return sink_op, wire_op, merge_op, add_buffer


def _prune_final(index: int, levels: CostLevels, peak: int, generated: int):
    """``on_final`` hook: the cross-level prune, once per vertex, in place."""
    if len(levels) > 1:
        pruned = _prune_across_levels(levels)
        levels.clear()
        levels.update(pruned)


def slack_cost_frontier(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[Driver] = None,
    cost_fn: Optional[CostFn] = None,
    max_cost: Optional[int] = None,
) -> List[FrontierPoint]:
    """The Pareto frontier of slack versus total buffer cost.

    Args:
        tree: A validated routing tree.
        library: The buffer library.
        driver: Source driver (defaults to ``tree.driver``).
        cost_fn: Integer cost per buffer type; default counts buffers.
        max_cost: Optional cap on total cost (bounds work and memory).

    Returns:
        Points with strictly increasing cost and strictly increasing
        slack; the first point is the unbuffered solution (cost 0) unless
        it is off-frontier, and the last achieves the unconstrained
        optimum of :func:`repro.core.api.insert_buffers`.

    Raises:
        AlgorithmError: The tree fails validation, ``cost_fn`` returns
            something other than a non-negative int, or the net has a
            negative-phase sink or the library an inverting type.
        DeadlineExceeded: An ambient deadline expired mid-solve.
    """
    cost_fn = cost_fn if cost_fn is not None else _default_cost
    compiled = compile_net(tree, library)
    require_polarity_free(tree, library, "slack_cost_frontier")
    buffer_costs: Dict[str, int] = {}
    for buffer in library.buffers:
        cost = cost_fn(buffer)
        if not isinstance(cost, int) or cost < 0:
            raise AlgorithmError(
                f"cost_fn must return non-negative ints; got {cost!r} "
                f"for buffer {buffer.name!r}"
            )
        buffer_costs[buffer.name] = cost

    sink_op, wire_op, merge_op, add_buffer = _level_ops(buffer_costs, max_cost)
    root_levels, _, _ = _execute_schedule(
        compiled, sink_op, wire_op, merge_op, add_buffer, _release_noop,
        on_final=_prune_final,
    )

    driver = driver if driver is not None else compiled.driver
    resistance = driver.resistance if driver is not None else 0.0
    frontier: List[FrontierPoint] = []
    best_slack = float("-inf")
    for cost in sorted(root_levels):
        q, c, decision = best_candidate_for_driver(
            root_levels[cost], resistance
        )
        slack = q - (driver.delay(c) if driver else 0.0)
        if slack > best_slack:
            best_slack = slack
            frontier.append(
                FrontierPoint(
                    cost=cost,
                    slack=slack,
                    assignment=reconstruct_assignment(decision, library),
                )
            )
    return frontier


def minimize_cost(
    tree: RoutingTree,
    library: BufferLibrary,
    slack_target: float,
    driver: Optional[Driver] = None,
    cost_fn: Optional[CostFn] = None,
    max_cost: Optional[int] = None,
) -> CostResult:
    """The cheapest buffering whose slack meets ``slack_target``.

    Raises:
        InfeasibleError: If no buffering (within ``max_cost``) reaches
            the target; the message reports the best achievable slack.
        AlgorithmError: As :func:`slack_cost_frontier`.
    """
    frontier = slack_cost_frontier(tree, library, driver, cost_fn, max_cost)
    for point in frontier:
        if point.slack >= slack_target:
            return CostResult(
                slack=point.slack,
                cost=point.cost,
                assignment=point.assignment,
                frontier=tuple(frontier),
            )
    best = frontier[-1].slack if frontier else float("-inf")
    raise InfeasibleError(
        f"slack target {slack_target:.3e}s unreachable; best achievable "
        f"is {best:.3e}s" + (f" within cost {max_cost}" if max_cost else "")
    )
