"""``route(features) -> ExecutionPlan``: one seam for every dispatch.

Every public entry point that accepts ``backend="auto"`` resolves it
here, once per request: ``insert_buffers``, ``SolverPool`` and
``solve_many`` at every ``jobs`` value and the server through
:class:`Router`, and ``insert_buffers_with_inverters`` through
:func:`solo_store`.  The strategies and the DP interpreter take a
concrete store only.  The :class:`Router` applies one rule, the static
rule: :func:`static_store` picks the candidate store from the
request's size (``object`` for every single net), a structural group
rides the batch axis when it is on the ``soa`` side, and a net over
the instruction threshold is partitioned on a multi-process pool.

A caller pins an axis with a knob: ``backend=`` names the store
(``"soa"`` batches a group, ``"object"`` solves its lanes one by one),
and a pool's ``parallel_threshold`` sets the partitioning floor (``0``
partitions every net, a floor above the net none).  Two plans ignore
even ``backend``: a session splices on ``object``, and a partitioned
solve runs its cuts and residual on ``object``.  Only the object store
freezes and splices frontiers.

The emitted plan is only ever a *choice among bit-identical
executions* — ``tests/test_routing.py`` proves every plan returns the
same slack, assignment, driver load and DP stats as the compiled
object-store reference, and locks the decisions themselves in
``tests/data/route_golden.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.core.stores import SPLICE_BACKEND, numpy_installed
from repro.obs.metrics import process_counter
from repro.obs.spans import active_tracer
from repro.routing.features import RequestFeatures, features_of

#: Schedule modes a plan can name.
SCHEDULE_MODES = ("compiled", "splice")

#: Instruction-count floor of the static rule's partitioned solve
#: (roughly twice the buffer-position count).  Calibrated against the
#: measured hand-off overhead — partition planning is one O(n) pass and
#: each partition costs a subschedule pickle plus a snapshot unpickle,
#: together a few hundred milliseconds of fixed cost at this size,
#: against multi-second serial solves (see
#: ``benchmarks/bench_parallel.py``); below it the overhead eats the
#: win.  Routing owns it, so reading it loads no parallel or serving
#: code.
DEFAULT_PARALLEL_THRESHOLD = 50_000


@dataclass(frozen=True)
class ExecutionPlan:
    """One fully resolved way to execute a request.

    Attributes:
        backend: Candidate-store backend (``"object"`` / ``"soa"``).
        schedule_mode: ``"compiled"`` (schedule interpreter; for
            sessions this is the from-scratch re-run) or ``"splice"``
            (incremental dirty-path execution).
        batch_axis: Solve the request's structural group as one
            vectorized dispatch (implies ``soa``/``compiled``).
        parallel: Partition one large net across worker processes
            (implies ``compiled``).
    """

    backend: str
    schedule_mode: str
    batch_axis: bool = False
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ValueError(
                f"schedule_mode must be one of {SCHEDULE_MODES}, "
                f"got {self.schedule_mode!r}"
            )

    @property
    def strategy(self) -> str:
        """Compact label, e.g. ``soa-compiled+batch`` — the key used by
        decision counters, replay reports and the workload log."""
        label = f"{self.backend}-{self.schedule_mode}"
        if self.batch_axis:
            label += "+batch"
        if self.parallel:
            label += "+parallel"
        return label

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionPlan":
        names = {field for field in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


#: The object/soa crossover in ``positions * library_size`` (every
#: position tries every buffer type), measured by
#: ``benchmarks/bench_crossover.py``.  ``soa`` pays a fixed NumPy
#: dispatch cost per instruction and wins only once the work per
#: instruction is large: lists grow along the positions between branch
#: points, hence a floor per sink, and the add-buffer step's width grows
#: with the library size.  Against the object store's single-pass
#: kernels one net's solve or session resolve never pays that cost back
#: on the measured grid (Figure 4 trunks to 8000 positions, b = 8-64),
#: so these floors apply only to a multi-lane group on the batch axis,
#: which runs every lane per dispatch.
SOA_MIN_POSITION_TYPES_PER_SINK = 800
SOA_MIN_POSITION_TYPES = 9600


def static_store(features: RequestFeatures) -> str:
    """The candidate store the static rule picks for ``features``.

    ``"object"`` for a single net — a solve or a session — whatever its
    size.  A multi-lane group takes ``"soa"`` when its candidate lists
    will be long — ``positions * library_size`` of at least
    :data:`SOA_MIN_POSITION_TYPES_PER_SINK` per sink and
    :data:`SOA_MIN_POSITION_TYPES` in all (a Figure 4 trunk: one sink,
    hundreds of positions) — and NumPy is installed
    (:func:`~repro.core.stores.numpy_installed`, which imports nothing);
    ``"object"`` otherwise.
    """
    if features.lanes == 1:
        return "object"
    work = features.positions * features.library_size
    if (
        work >= SOA_MIN_POSITION_TYPES_PER_SINK * features.sinks
        and work >= SOA_MIN_POSITION_TYPES
        and numpy_installed()
    ):
        return "soa"
    return "object"


def solo_store(backend: str, compiled) -> str:
    """The store one compiled net solved alone runs on.

    ``backend`` itself, unless it is ``"auto"``: then
    :func:`static_store`'s pick for a single-net solve of ``compiled``
    (a :class:`~repro.core.schedule.CompiledNet`).
    """
    if backend != "auto":
        return backend
    return static_store(features_of(compiled))


class Router:
    """Turns request features into :class:`ExecutionPlan` decisions by
    the static rule, and counts the decisions it executes in the
    process registry's ``repro_routing_decisions_total``.

    Args:
        parallel_threshold: Instruction floor of the partitioned solve;
            defaults to :data:`DEFAULT_PARALLEL_THRESHOLD`.
    """

    def __init__(self, parallel_threshold: Optional[int] = None) -> None:
        self.parallel_threshold = (
            DEFAULT_PARALLEL_THRESHOLD
            if parallel_threshold is None else parallel_threshold
        )

    def route(
        self,
        features: RequestFeatures,
        *,
        backend: str = "auto",
        supports_batch: bool = False,
        supports_parallel: bool = False,
    ) -> ExecutionPlan:
        """:meth:`plan` one request and :meth:`record` the decision."""
        plan = self.plan(
            features, backend=backend, supports_batch=supports_batch,
            supports_parallel=supports_parallel,
        )
        self.record(plan)
        return plan

    def plan(
        self,
        features: RequestFeatures,
        *,
        backend: str = "auto",
        supports_batch: bool = False,
        supports_parallel: bool = False,
    ) -> ExecutionPlan:
        """Pick the execution plan for one request by the static rule.
        Nothing is counted: a caller that probes a plan it may not
        execute (a pool deciding which nets to partition) records the
        plan of each unit it runs.

        A session splices on ``object``, whatever the store asked for.
        Otherwise the store is the caller's ``backend`` (an explicit
        store always wins), else :func:`static_store`'s (for a group on
        a context that cannot batch, the store of one lane).  A
        multi-lane group, on a context that ``supports_batch``, rides
        the batch axis when that store is ``soa``.  Anything else
        solves on the store, or partitioned on ``object`` on a context
        that ``supports_parallel`` once its schedule reaches
        :attr:`parallel_threshold` instructions.
        """
        tracer = active_tracer()
        route_handle = (
            tracer.begin("route") if tracer is not None else None
        )
        if features.kind == "session":
            plan = ExecutionPlan(SPLICE_BACKEND, "splice")
        else:
            plan = self._solve_plan(
                features, backend, supports_batch, supports_parallel
            )
        if route_handle is not None:
            tracer.end(route_handle, strategy=plan.strategy)
        return plan

    def _solve_plan(
        self,
        features: RequestFeatures,
        backend: str,
        supports_batch: bool,
        supports_parallel: bool,
    ) -> ExecutionPlan:
        """:meth:`plan` for a request that is not a session."""
        if backend != "auto":
            store = backend
        elif features.lanes > 1 and not supports_batch:
            # Lanes that cannot ride the batch axis solve one by one.
            store = static_store(replace(features, lanes=1))
        else:
            store = static_store(features)
        if supports_batch and features.lanes > 1 and store == "soa":
            return ExecutionPlan("soa", "compiled", batch_axis=True)
        parallel = (
            supports_parallel
            and features.instructions >= self.parallel_threshold
        )
        return ExecutionPlan(
            SPLICE_BACKEND if parallel else store, "compiled",
            parallel=parallel,
        )

    def record(self, plan: ExecutionPlan) -> None:
        """Count one executed plan, by its strategy label."""
        process_counter("repro_routing_decisions_total").inc(
            strategy=plan.strategy
        )


#: The process-wide router: ``insert_buffers`` and the server's
#: sessions route with it.  A :class:`~repro.core.batch.SolverPool`
#: keeps its own, for its ``parallel_threshold``; every router counts
#: into the one registry counter.
ROUTER = Router()
