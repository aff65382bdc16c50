"""Candidates: (Q, C) points with decision provenance.

A *candidate* for a subtree ``T_v`` (paper Section 2) is one way of
buffering ``T_v``, summarized upstream by two numbers:

* ``q`` — the slack at ``v`` under that buffering, and
* ``c`` — the downstream capacitance seen at ``v``.

Candidate ``a`` *dominates* ``a'`` when ``q(a) >= q(a')`` and
``c(a) <= c(a')``.  Every algorithm keeps, per subtree, the list of
nonredundant candidates sorted by strictly increasing ``c`` *and*
strictly increasing ``q`` — the representation all operations in
:mod:`repro.core` assume and preserve.

The object store keeps a candidate as a plain ``(q, c, decision)``
tuple: one allocation per candidate, read by unpacking or by index,
never mutated.  The *decision* is a node in a persistent DAG recording
how the candidate was formed, so the winning candidate at the root can
be expanded into an explicit buffer assignment
(:func:`reconstruct_assignment`).  Decisions are nested tuples too:

* a sink is its node id (an ``int``);
* a buffer is ``(node_id, buffer_type, below)``, where ``below`` is the
  decision of the candidate the buffer drives;
* a merge of two sibling branches is ``(left, right)``.

Wires do not create decisions (they place no buffers).  Any other
object with an ``expand(assignment, stack)`` method is a deferred
decision (see :func:`reconstruct_assignment`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.library.buffer_type import BufferType

#: A decision DAG node: an ``int`` sink, a ``(node_id, buffer_type,
#: below)`` buffer, a ``(left, right)`` merge, or a deferred decision
#: object with an ``expand`` method.
Decision = object

#: A candidate of the object store: ``(q, c, decision)``.
Candidate = Tuple[float, float, Decision]

CandidateList = List[Candidate]


class ExpandedDecision:
    """A decision pre-expanded to its final ``{node id: buffer}`` form.

    Produced when a deferred-provenance chain is *flattened*: the
    incremental engine's spliced frontiers reference earlier solves'
    provenance (tape archives, translation wrappers), and without a
    bound those references could chain one per re-solve.  Once a chain
    reaches the cap it is collapsed into this terminal form — O(answer)
    once, after which expansion is a dict update and retains nothing
    but buffer types.
    """

    __slots__ = ("assignment",)

    def __init__(self, assignment: Dict[int, BufferType]) -> None:
        self.assignment = assignment

    def expand(self, assignment: Dict[int, "BufferType"], stack: list) -> None:
        assignment.update(self.assignment)

    def __repr__(self) -> str:
        return f"ExpandedDecision({len(self.assignment)} buffers)"


def reconstruct_assignment(decision: Decision) -> Dict[int, BufferType]:
    """Expand a decision DAG into ``{node_id: buffer_type}``.

    Iterative (decision chains are as deep as the tree) and linear in the
    number of buffers plus merges.  Dispatches on ``type(node)``: an
    ``int`` is a sink, a 3-tuple a buffer, a 2-tuple a merge.

    Any other node must have an ``expand(assignment, stack)`` method: it
    writes its buffers into ``assignment`` directly (and may push
    further decisions onto ``stack``).  This is the *deferred
    provenance* hook — backends that record predecessor indices in a
    compact tape instead of building decisions per candidate
    (:class:`repro.core.stores.soa.TapeRef`) expand only the winning
    root candidate here, once per solve.
    """
    assignment: Dict[int, BufferType] = {}
    stack: List[Decision] = [decision]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        kind = type(node)
        if kind is tuple:
            if len(node) == 3:
                node_id, buffer, below = node
                assignment[node_id] = buffer
                push(below)
            else:
                push(node[0])
                push(node[1])
        elif kind is not int:
            # Deferred-provenance reference (e.g. a SoA tape index).
            node.expand(assignment, stack)
        # A sink carries no buffers.
    return assignment


def best_candidate_for_driver(
    candidates: CandidateList,
    resistance: float,
) -> Optional[Candidate]:
    """The candidate maximizing ``q - R * c``.

    Ties are broken toward minimum ``c`` (the paper's convention).  For
    a sorted candidate list this is what the source driver — or a
    prospective buffer — sees as the best buffering of the subtree.
    An intrinsic delay term would shift every value equally, so it never
    changes the argmax and is not a parameter here.

    Returns ``None`` for an empty list.
    """
    best: Optional[Candidate] = None
    best_value = float("-inf")
    for candidate in candidates:
        value = candidate[0] - resistance * candidate[1]
        # Strict improvement keeps the earliest (minimum-c) maximizer.
        if value > best_value:
            best_value = value
            best = candidate
    return best
