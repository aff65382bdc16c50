"""The paper's O(b n^2) algorithm (Li & Shi, DATE 2005).

Identical dynamic program to the baseline; the add-buffer operation is
replaced by the convex-pruning + monotone-hull-walk step of Section 3,
reducing it from ``O(b k)`` to ``O(k + b)`` per buffer position.

Two pruning modes are offered (see DESIGN.md for the analysis):

* ``destructive_pruning=False`` (default) — the hull is computed as a
  linear scan per buffer position and the full nonredundant list is
  retained.  Provably optimal on every tree; same asymptotics.
* ``destructive_pruning=True`` — the paper's literal pseudocode: the
  candidate list itself is replaced by its hull inside ``AddBuffer``.
  Optimal on 2-pin (path) nets; on multi-pin trees a branch merge can
  promote an interior point onto the merged hull, so this mode is a
  (usually exact) heuristic that can only under-report slack.
"""

from __future__ import annotations

from typing import Optional

from repro.core.buffer_ops import BufferPlan, generate_fast, insert_candidates
from repro.core.candidate import CandidateList
from repro.core.dp import run_dynamic_program
from repro.core.pruning import convex_prune
from repro.core.registry import InsertionAlgorithm, register_algorithm
from repro.core.solution import BufferingResult
from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


def _add_buffer_keep_all(candidates: CandidateList, plan: BufferPlan) -> CandidateList:
    hull = convex_prune(candidates)
    new_candidates = generate_fast(candidates, plan, hull=hull)
    return insert_candidates(candidates, new_candidates)


def _add_buffer_destructive(
    candidates: CandidateList, plan: BufferPlan
) -> CandidateList:
    hull = convex_prune(candidates)
    new_candidates = generate_fast(candidates, plan, hull=hull)
    # The paper's Convexpruning frees interior candidates: only the hull
    # survives into the ongoing list.
    return insert_candidates(hull, new_candidates)


def _store_add_buffer_keep_all(store, plan: BufferPlan):
    # One fused SoA kernel per position: hull, broadcast walk, beta
    # prune, sorted insertion.
    return store.apply_buffer(plan, generator="hull", destructive=False)


def _store_add_buffer_destructive(store, plan: BufferPlan):
    return store.apply_buffer(plan, generator="hull", destructive=True)


@register_algorithm("fast")
class FastAlgorithm(InsertionAlgorithm):
    """Convex pruning + monotone hull walk: the paper's contribution."""

    complexity = "O(b n^2)"
    summary = (
        "Li & Shi (DATE 2005): convex-pruned hull walk makes the "
        "add-buffer step O(k + b)"
    )
    options = frozenset({"destructive_pruning"})

    def add_buffer_op(
        self,
        backend: str,
        library: BufferLibrary,
        destructive_pruning: bool = False,
    ):
        if backend == "object":
            return (
                _add_buffer_destructive
                if destructive_pruning
                else _add_buffer_keep_all
            )
        return (
            _store_add_buffer_destructive
            if destructive_pruning
            else _store_add_buffer_keep_all
        )

    def stats_label(self, destructive_pruning: bool = False) -> str:
        return "fast-destructive" if destructive_pruning else "fast"

    def run(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        driver: Optional[Driver] = None,
        backend: str = "object",
        destructive_pruning: bool = False,
    ) -> BufferingResult:
        add_buffer = self.add_buffer_op(
            backend, library, destructive_pruning=destructive_pruning
        )
        return run_dynamic_program(
            tree, library, add_buffer,
            algorithm=self.stats_label(destructive_pruning=destructive_pruning),
            driver=driver, backend=backend,
        )


def insert_buffers_fast(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[Driver] = None,
    destructive_pruning: bool = False,
    backend: str = "object",
) -> BufferingResult:
    """Optimal buffer insertion in O(b n^2) time (the paper's algorithm).

    Args:
        tree: A validated routing tree.
        library: Buffer library of size ``b``.
        driver: Source driver (defaults to ``tree.driver``).
        destructive_pruning: Reproduce the paper's literal pseudocode
            (see module docstring); leave false for guaranteed optimality
            on multi-pin trees.
        backend: Candidate-store backend (``"object"`` or ``"soa"``).

    Returns:
        The optimal :class:`BufferingResult`.
    """
    return FastAlgorithm().run(
        tree, library, driver=driver, backend=backend,
        destructive_pruning=destructive_pruning,
    )
