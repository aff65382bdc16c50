"""Partitioned parallel solving of single large nets.

The paper's DP is compositional: a subtree's candidate frontier depends
only on that subtree.  The incremental engine already exploits this for
*reuse* (digest-keyed :class:`~repro.incremental.subtree_cache.FrontierSnapshot`
memoization); this package extends it to *parallelism*:

1. :func:`~repro.parallel.partition.plan_partitions` cuts a compiled
   schedule at balanced subtree boundaries chosen from the postorder
   instruction layout;
2. each cut's :meth:`~repro.core.schedule.CompiledNet.subschedule`
   extract is solved concurrently on a process pool, on the object
   store, returning a picklable frontier snapshot (never an
   assignment);
3. :func:`~repro.parallel.solver.solve_partitioned` replays the
   residual instruction stream in the parent, splicing each returned
   frontier at its cut exactly like the incremental engine — so the
   final result is bit-identical to the scratch solve.

See ``docs/architecture.md`` ("Partitioned parallel solve") for the
cut-selection policy, the hand-off protocol and the parity argument.
"""

from repro.parallel.partition import Cut, PartitionPlan, plan_partitions
from repro.parallel.solver import solve_partitioned
from repro.routing.router import DEFAULT_PARALLEL_THRESHOLD

__all__ = [
    "Cut",
    "PartitionPlan",
    "plan_partitions",
    "solve_partitioned",
    "DEFAULT_PARALLEL_THRESHOLD",
]
