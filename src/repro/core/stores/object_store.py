"""The object-list backend: the seed representation behind the protocol.

A thin wrapper around a plain list of ``(q, c, decision)`` tuples (see
:mod:`repro.core.candidate`), delegating every operation to the proven
list functions in :mod:`repro.core.wire_ops`, :mod:`repro.core.merge`,
:mod:`repro.core.buffer_ops` and :mod:`repro.core.pruning`.  No
operation mutates a candidate or its input list.  This is the
reference implementation other backends are tested against, and the
default backend of :func:`repro.core.api.insert_buffers`.

(The DP engine fast-paths this backend by operating on the bare lists —
see :mod:`repro.core.dp` — so the wrapper mainly serves protocol users:
store-generic algorithm code and backend-parity tests.)
"""

from __future__ import annotations

from typing import Optional

from repro.core.buffer_ops import (
    BufferPlan,
    generate_fast,
    generate_lillis,
    insert_candidates,
)
from repro.core.candidate import CandidateList, best_candidate_for_driver
from repro.core.merge import merge_branches
from repro.core.pruning import convex_prune
from repro.core.stores.base import BestCandidate, CandidateStore, StoreFactory
from repro.core.wire_ops import add_wire


class ObjectStore(CandidateStore):
    """A candidate list stored as ``(q, c, decision)`` tuples."""

    __slots__ = ("candidates",)

    def __init__(self, candidates: CandidateList) -> None:
        self.candidates = candidates

    def __len__(self) -> int:
        return len(self.candidates)

    def add_wire(self, resistance: float, capacitance: float) -> "ObjectStore":
        return ObjectStore(add_wire(self.candidates, resistance, capacitance))

    def merge(self, other: "CandidateStore") -> "ObjectStore":
        assert isinstance(other, ObjectStore)
        return ObjectStore(merge_branches(self.candidates, other.candidates))

    def convex_hull(self) -> "ObjectStore":
        return ObjectStore(convex_prune(self.candidates))

    def generate_scan(self, plan: BufferPlan) -> "ObjectStore":
        return ObjectStore(generate_lillis(self.candidates, plan))

    def generate_hull(
        self, plan: BufferPlan, hull: Optional["CandidateStore"] = None
    ) -> "ObjectStore":
        hull_list = hull.candidates if isinstance(hull, ObjectStore) else None
        return ObjectStore(generate_fast(self.candidates, plan, hull=hull_list))

    def insert(self, new: "CandidateStore") -> "ObjectStore":
        assert isinstance(new, ObjectStore)
        return ObjectStore(insert_candidates(self.candidates, new.candidates))

    def best_for_driver(self, resistance: float) -> Optional[BestCandidate]:
        best = best_candidate_for_driver(self.candidates, resistance)
        if best is None:
            return None
        return BestCandidate._make(best)


class ObjectStoreFactory(StoreFactory):
    """Stateless factory for the object-list backend."""

    def sink(self, node_id: int, q: float, c: float) -> ObjectStore:
        return ObjectStore([(q, c, node_id)])

    def empty(self) -> ObjectStore:
        return ObjectStore([])

    def snapshot(self, store: CandidateStore):
        """Freeze a frontier as columns: a ``q`` list, a ``c`` list and
        a tuple of decisions (shared: the decision DAG is immutable).

        Columns, not the candidate tuples themselves: a snapshot that
        kept the tuples would keep every captured candidate alive for
        the cyclic GC to walk; a splice builds them back instead."""
        assert isinstance(store, ObjectStore)
        candidates = store.candidates
        return (
            [candidate[0] for candidate in candidates],
            [candidate[1] for candidate in candidates],
            tuple([candidate[2] for candidate in candidates]),
        )

    def from_snapshot(self, q, c, decisions) -> ObjectStore:
        return ObjectStore(list(zip(q, c, decisions)))
