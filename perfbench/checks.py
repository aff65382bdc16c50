"""Answer checks: every served answer against an in-process reference.

A served answer passes when its slack, its driver load and its
assignment (in the request's node ids) are bit-identical to
:func:`repro.insert_buffers` on the same net.  A sample of answers is
also re-timed with the independent Elmore evaluator
:func:`repro.timing.evaluate_assignment`; that evaluator adds delays in
another order, so it must agree within :data:`RETIME_REL_TOL`, not
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro import insert_buffers
from repro.library.library import BufferLibrary
from repro.timing import evaluate_assignment
from repro.tree.io import tree_from_dict

#: Relative slack agreement required of the independent re-timing.
RETIME_REL_TOL = 1e-12
#: One answer in this many is re-timed.
RETIME_EVERY = 8


@dataclass(frozen=True)
class Expected:
    """The reference answer, keyed the way the server answers."""

    slack: float
    driver_load: float
    assignment: Dict[str, str]  # str(request node id) -> buffer name

    def relabelled(self, label: Mapping[Any, str]) -> "Expected":
        """The same answer for the net relabelled by ``{old: new}``."""
        new_of = {str(old): new for old, new in label.items()}
        return Expected(self.slack, self.driver_load, {
            new_of[old]: name for old, name in self.assignment.items()
        })


def expected_of(result, id_map: Mapping[Any, int]) -> Expected:
    """An in-process result, rendered in the serialized ids of ``id_map``."""
    label_of = {new: old for old, new in id_map.items()}
    return Expected(result.slack, result.driver_load, {
        str(label_of[node_id]): buffer.name
        for node_id, buffer in result.assignment.items()
    })


def reference(net: Dict[str, Any], library: BufferLibrary) -> Expected:
    """``insert_buffers`` on the request JSON ``net``, on the ``object``
    backend: the fastest on these nets, and another store than the
    server's default ``soa``, whose answers must be bit-identical."""
    tree, id_map = tree_from_dict(net, with_id_map=True)
    return expected_of(insert_buffers(tree, library, backend="object"), id_map)


def compare(answer: Dict[str, Any], expected: Expected) -> Optional[str]:
    """``None`` when ``answer`` is bit-identical to ``expected``."""
    if answer.get("slack_seconds") != expected.slack:
        return (f"slack {answer.get('slack_seconds')!r} != reference "
                f"{expected.slack!r}")
    if answer.get("driver_load_farads") != expected.driver_load:
        return (f"driver load {answer.get('driver_load_farads')!r} != "
                f"reference {expected.driver_load!r}")
    if answer.get("assignment") != expected.assignment:
        return (f"assignment of {len(answer.get('assignment') or {})} "
                f"buffers != reference of {len(expected.assignment)}")
    return None


def retime(
    answer: Dict[str, Any], net: Dict[str, Any], library: BufferLibrary
) -> Optional[str]:
    """``None`` when the Elmore evaluator agrees with the answer's slack."""
    tree, id_map = tree_from_dict(net, with_id_map=True)
    node_of = {str(label): node_id for label, node_id in id_map.items()}
    assignment = {
        node_of[label]: library.get(name)
        for label, name in answer["assignment"].items()
    }
    slack = evaluate_assignment(tree, assignment).slack
    served = answer["slack_seconds"]
    if abs(slack - served) > RETIME_REL_TOL * max(abs(slack), abs(served)):
        return f"re-timed slack {slack!r} vs served {served!r}"
    return None
