"""The O(b^2 n^2) baseline (Lillis, Cheng & Lin, JSSC 1996).

The dynamic program is identical to the paper's new algorithm except for
the add-buffer operation: every buffer type scans the whole candidate
list (``O(b k)`` per buffer position), which integrates to
``O(b^2 n^2)`` because the lists grow to ``O(b n)`` candidates.
"""

from __future__ import annotations

from typing import Optional

from repro.core.buffer_ops import BufferPlan, generate_lillis, insert_candidates
from repro.core.candidate import CandidateList
from repro.core.dp import run_dynamic_program
from repro.core.registry import InsertionAlgorithm, register_algorithm
from repro.core.solution import BufferingResult
from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


def _add_buffer(candidates: CandidateList, plan: BufferPlan) -> CandidateList:
    new_candidates = generate_lillis(candidates, plan)
    return insert_candidates(candidates, new_candidates)


def _store_add_buffer(store, plan: BufferPlan):
    # One fused SoA scan-generate + insert kernel per position.
    return store.apply_buffer(plan, generator="scan")


@register_algorithm("lillis")
class LillisAlgorithm(InsertionAlgorithm):
    """Exhaustive per-type scans: the baseline the paper accelerates."""

    complexity = "O(b^2 n^2)"
    summary = (
        "Lillis, Cheng & Lin (JSSC 1996): every buffer type scans the "
        "whole candidate list"
    )

    def add_buffer_op(self, backend: str, library: BufferLibrary):
        return _add_buffer if backend == "object" else _store_add_buffer

    def run(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        driver: Optional[Driver] = None,
        backend: str = "object",
    ) -> BufferingResult:
        add_buffer = self.add_buffer_op(backend, library)
        return run_dynamic_program(
            tree, library, add_buffer, algorithm="lillis", driver=driver,
            backend=backend,
        )


def insert_buffers_lillis(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[Driver] = None,
    backend: str = "object",
) -> BufferingResult:
    """Optimal buffer insertion with the O(b^2 n^2) baseline algorithm.

    Args:
        tree: A validated routing tree.
        library: Buffer library of size ``b``.
        driver: Source driver (defaults to ``tree.driver``).
        backend: Candidate-store backend (``"object"`` or ``"soa"``).

    Returns:
        The optimal :class:`BufferingResult`; its slack equals the fast
        algorithm's on every instance (both are exact).
    """
    return LillisAlgorithm().run(tree, library, driver=driver, backend=backend)
