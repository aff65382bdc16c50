"""The :class:`CandidateStore` protocol: pluggable candidate storage.

Every insertion algorithm in :mod:`repro.core` manipulates, per subtree,
the sorted nonredundant (Q, C) candidate list of paper Section 2.  The
*representation* of that list is an implementation choice orthogonal to
the algorithm: the object backend keeps a Python list of
``(q, c, decision)`` tuples (:mod:`repro.core.candidate`); the
structure-of-arrays backend (:mod:`repro.core.stores.soa`) keeps
parallel ``q``/``c`` float arrays plus a decision index array.

This module defines the two abstractions a backend must provide:

* :class:`StoreFactory` — per-solve context (e.g. the SoA decision
  arena) that mints sink stores;
* :class:`CandidateStore` — one subtree's candidate list, exposing the
  paper's operations (add-wire, merge, the two buffered-candidate
  generators, convex pruning, sorted insertion) plus root evaluation.

Invariants every store must preserve, matching the object backend:

* candidates are sorted by strictly increasing ``c`` *and* strictly
  increasing ``q`` after every returned operation;
* numeric results are bit-identical to the object backend's: the same
  IEEE-754 operations in the same order, and the same tie rules (ties in
  ``q - R c`` resolve to minimum ``c``; equal-(q, c) ties keep the
  earliest candidate).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Dict, NamedTuple, Optional

from repro.core.buffer_ops import BufferPlan
from repro.core.candidate import Decision
from repro.errors import AlgorithmError


class BestCandidate(NamedTuple):
    """The root candidate a driver picks: plain numbers plus provenance."""

    q: float
    c: float
    decision: Decision


class CandidateStore(ABC):
    """One subtree's sorted nonredundant candidate list."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of candidates currently stored."""

    @abstractmethod
    def add_wire(self, resistance: float, capacitance: float) -> "CandidateStore":
        """Propagate every candidate through a wire and re-prune."""

    @abstractmethod
    def merge(self, other: "CandidateStore") -> "CandidateStore":
        """Join this list with a sibling branch list (two-pointer walk)."""

    @abstractmethod
    def convex_hull(self) -> "CandidateStore":
        """The upper-left convex hull subsequence (paper Convexpruning)."""

    @abstractmethod
    def generate_scan(self, plan: BufferPlan) -> "CandidateStore":
        """Buffered candidates by exhaustive scan: O(b k) (Lillis)."""

    @abstractmethod
    def generate_hull(
        self, plan: BufferPlan, hull: Optional["CandidateStore"] = None
    ) -> "CandidateStore":
        """Buffered candidates by the monotone hull walk: O(k + b)."""

    @abstractmethod
    def insert(self, new: "CandidateStore") -> "CandidateStore":
        """Sorted-merge new buffered candidates into this list (Thm. 2)."""

    @abstractmethod
    def best_for_driver(self, resistance: float) -> Optional[BestCandidate]:
        """Min-c argmax of ``q - R c``, or ``None`` when empty."""

    def apply_buffer(
        self, plan: BufferPlan, generator: str = "hull",
        destructive: bool = False,
    ) -> "CandidateStore":
        """The whole add-buffer step of one position, as one operation.

        ``generator`` selects how the betas are produced — ``"hull"``
        (convex prune + monotone hull walk, the paper's O(k + b) step)
        or ``"scan"`` (the exhaustive O(b k) Lillis scan) — and
        ``destructive`` (hull only) reproduces the paper's literal
        pseudocode by inserting into the hull instead of the full list.

        This default composes the fine-grained primitives above, so any
        backend gets it for free; kernel backends override it with a
        fused implementation (:meth:`repro.core.stores.soa.SoAStore.apply_buffer`)
        that must keep the exact data flow — and therefore results — of
        this composition.  The returned store may be ``self`` mutated
        in place; consumed intermediates are released here.
        """
        if generator == "scan":
            new = self.generate_scan(plan)
            result = self.insert(new)
            if new is not result and new is not self:
                new.release()
            return result
        hull = self.convex_hull()
        new = self.generate_hull(plan, hull=hull)
        target = hull if destructive else self
        result = target.insert(new)
        if hull is not result and hull is not self:
            hull.release()
        if new is not result and new is not self and new is not hull:
            new.release()
        return result

    def release(self) -> None:
        """Hand this store's storage back to its factory.

        The DP engine calls this the moment a store is consumed (its
        list was wired/merged/buffered into a successor store) — a
        store is never touched after its release.  The default is a
        no-op (garbage collection is fine for object lists); the SoA
        backend recycles the candidate arrays into its scratch arena.
        """

    def released(self) -> bool:
        """Whether :meth:`release` has been called (debugging aid)."""
        return False


class StoreFactory(ABC):
    """Per-net backend context; mints the leaf stores of the DP.

    A factory may be reused across solves of the same net (the compiled
    execution layer does exactly that to keep scratch state warm);
    :meth:`begin_solve` runs before each solve to reset per-solve state.
    """

    #: Registry name of the backend (set by ``register_store_backend``).
    backend: ClassVar[str] = ""

    @abstractmethod
    def sink(self, node_id: int, q: float, c: float) -> CandidateStore:
        """The single base candidate of a sink node."""

    def empty(self) -> CandidateStore:
        """A store holding no candidates.

        The polarity-aware DP (:mod:`repro.core.polarity`) seeds one
        store per signal phase, one of which starts empty.  Backends
        that do not implement it simply cannot run that extension.
        """
        raise AlgorithmError(
            f"the {self.backend or type(self).__name__!r} candidate-store "
            "backend does not provide empty stores (required by the "
            "polarity-aware dynamic program)"
        )

    def stats(self) -> Dict[str, object]:
        """Backend health counters for the serving layer's ``/stats``.

        The default is empty; the SoA backend reports its scratch-arena
        block pools and provenance-tape capacity here.
        """
        return {}

    def snapshot(self, store: CandidateStore):
        """Freeze ``store``'s frontier as ``(q, c, decisions)`` lists.

        The incremental engine (:mod:`repro.incremental`) memoizes
        subtree frontiers across solves; a snapshot must therefore be
        fully detached from per-solve state — plain floats plus
        *persistent* decision objects (the SoA backend materializes its
        tape records here, so no :class:`~repro.core.stores.soa.TapeRef`
        ever escapes into a cache entry).  Backends that cannot detach
        a frontier inherit this loud default and simply cannot back an
        incremental session.
        """
        raise AlgorithmError(
            f"the {self.backend or type(self).__name__!r} candidate-store "
            "backend cannot snapshot frontiers (required by the "
            "incremental re-solve engine)"
        )

    def from_snapshot(self, q, c, decisions) -> CandidateStore:
        """Rebuild a live store from :meth:`snapshot` output.

        The returned store must behave exactly like the one snapshotted
        — same values, same order — so splicing it into a later solve
        reproduces the from-scratch data flow bit for bit.
        """
        raise AlgorithmError(
            f"the {self.backend or type(self).__name__!r} candidate-store "
            "backend cannot splice frontiers (required by the "
            "incremental re-solve engine)"
        )

    def begin_solve(self) -> None:
        """Reset per-solve state (decision arenas, scratch buffers).

        Called by the engine before every solve, including the first;
        stateless factories (the object backend) inherit this no-op.
        """

    def end_solve(self) -> None:
        """Drop per-solve state the finished result does not reference.

        Called by the engine once the result is fully materialized.
        Factories cached for repeat solves (the compiled execution
        layer) use this to avoid pinning the last solve's provenance
        until the next solve; stateless factories inherit this no-op.
        """
