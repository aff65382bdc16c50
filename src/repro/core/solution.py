"""Result and statistics objects returned by the algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.library.buffer_type import BufferType
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree
from repro.units import to_ps


@dataclass(frozen=True)
class DPStats:
    """Bookkeeping from one dynamic-program run.

    Attributes:
        algorithm: Which algorithm produced the result.
        num_buffer_positions: The instance's ``n``.
        library_size: The instance's ``b``.
        root_candidates: Length of the root's nonredundant list.
        peak_list_length: Longest candidate list seen anywhere (the
            paper's memory discussion: the new algorithm costs ~2% more
            memory; here list peaks are identical across algorithms).
        candidates_generated: Total candidates materialized, a
            machine-independent work proxy.
        runtime_seconds: Wall-clock time of the DP proper.
        backend: Candidate store the run used
            (:data:`repro.core.stores.STORE_BACKENDS`).
    """

    algorithm: str
    num_buffer_positions: int
    library_size: int
    root_candidates: int
    peak_list_length: int
    candidates_generated: int
    runtime_seconds: float
    backend: str = "object"


@dataclass(frozen=True)
class BufferingResult:
    """An optimal buffering of a net.

    Attributes:
        slack: The maximized slack at the driver output, seconds.
        assignment: ``{node_id: buffer_type}`` for every inserted
            buffer — always a fully materialized plain dict, even for
            backends that defer provenance during the solve (the SoA
            tape is backtraced before the result is constructed, so a
            result never references per-solve storage).
        driver_load: Capacitance the winning candidate presents to the
            driver, farads.
        stats: :class:`DPStats` for the run.
    """

    slack: float
    assignment: Dict[int, BufferType]
    driver_load: float
    stats: DPStats

    @property
    def num_buffers(self) -> int:
        """Number of buffers inserted."""
        return len(self.assignment)

    @property
    def total_cost(self) -> float:
        """Sum of the inserted buffers' abstract costs."""
        return sum(b.cost for b in self.assignment.values())

    def buffer_counts_by_type(self) -> Dict[str, int]:
        """How many of each buffer type the solution uses."""
        counts: Dict[str, int] = {}
        for buffer in self.assignment.values():
            counts[buffer.name] = counts.get(buffer.name, 0) + 1
        return counts

    def verify(
        self, tree: RoutingTree, driver: Optional[Driver] = None
    ) -> "TimingReport":
        """Re-measure this assignment with the independent timing oracle.

        Returns the :class:`repro.timing.buffered.TimingReport`; callers
        typically assert ``report.slack == result.slack`` (up to float
        tolerance).  Import is local to keep :mod:`repro.core` free of a
        circular dependency on :mod:`repro.timing`.
        """
        from repro.timing.buffered import evaluate_assignment

        return evaluate_assignment(tree, self.assignment, driver)

    def __str__(self) -> str:
        return (
            f"BufferingResult(slack={to_ps(self.slack):.2f}ps, "
            f"buffers={self.num_buffers}, algorithm={self.stats.algorithm!r})"
        )
