"""``route(features) -> ExecutionPlan``: one seam for every dispatch.

Every public entry point that accepts ``backend="auto"`` resolves it
here, once per request: ``insert_buffers``, ``SolverPool`` and
``solve_many`` at every ``jobs`` value and the server through
:class:`Router`, and ``insert_buffers_with_inverters`` through
:func:`solo_store`.  The strategies and the DP interpreter take a
concrete store only.  The :class:`Router` puts every dispatch decision
behind one policy string:

* ``"static"`` — the rule (the default): :func:`static_store` picks
  the candidate store from the request's size (``object`` for every
  single net), a structural group rides the batch axis when it is on
  the ``soa`` side, and a net over the instruction threshold is
  partitioned on a multi-process pool.
* ``"always_X"`` / ``"never_X"`` — escape hatches that pin one axis and
  leave the rest on the static rule: ``always_batch`` / ``never_batch``,
  ``always_parallel`` / ``never_parallel``.

A caller names a store with ``backend=``, never with a policy.  Two
plans ignore even that: a session splices on ``object``, and a
partitioned solve runs its cuts and residual on ``object``.  Only the
object store freezes and splices frontiers.

Whatever the policy, the emitted plan is only ever a *choice among
bit-identical executions* — ``tests/test_routing.py`` proves every
plan returns the same slack, assignment, driver load and DP stats as
the compiled object-store reference, and locks the decisions
themselves in ``tests/data/route_golden.json``.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from repro.core.stores import SPLICE_BACKEND, numpy_installed
from repro.obs.metrics import default_registry
from repro.obs.spans import active_tracer
from repro.routing.features import RequestFeatures, features_of

#: Schedule modes a plan can name.
SCHEDULE_MODES = ("compiled", "splice")

#: Each policy's pins — (batch axis, partitioned solve); ``None``
#: leaves that axis to the static rule.
_PINS = {
    "static": (None, None),
    "always_batch": (True, None),
    "never_batch": (False, None),
    "always_parallel": (None, True),
    "never_parallel": (None, False),
}

#: The policy tokens (see :func:`validate_policy`).
POLICIES = tuple(_PINS)

#: The policy a caller gets with ``policy=None``.
DEFAULT_POLICY = "static"

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


def validate_policy(policy: str) -> str:
    """Raise ``ValueError`` on an unknown policy string; return it."""
    if policy not in _PINS:
        raise ValueError(
            f"unknown routing policy {policy!r}; expected one of {POLICIES}"
        )
    return policy


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
    """Turns request features into :class:`ExecutionPlan` decisions.

    Args:
        policy: ``"static"`` or an ``always_*`` / ``never_*`` escape
            hatch (see module docstring); ``None`` means
            :data:`DEFAULT_POLICY`.
        parallel_threshold: Instruction floor of the static
            partitioned-solve rule; defaults to
            :data:`DEFAULT_PARALLEL_THRESHOLD`.
    """

    def __init__(
        self,
        policy: Optional[str] = None,
        parallel_threshold: Optional[int] = None,
    ) -> None:
        self.policy = validate_policy(
            DEFAULT_POLICY if policy is None else policy
        )
        self._pins = _PINS[self.policy]
        self.parallel_threshold = (
            DEFAULT_PARALLEL_THRESHOLD
            if parallel_threshold is None else parallel_threshold
        )
        self._lock = threading.Lock()
        self._decisions: Dict[str, int] = {}

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
        """Pick the execution plan for one request: the static rule
        with this policy's pins applied.  Nothing is counted: a caller
        that probes a plan it may not execute (a pool deciding which
        nets to partition) records the plan of each unit it runs.

        A session splices on ``object``, whatever the store asked for.
        Otherwise the store is the caller's ``backend`` (an explicit
        store always wins), else :func:`static_store`'s (for a group on
        a context that cannot batch, the store of one lane).  A
        multi-lane group, on a context that ``supports_batch``, rides
        the batch axis when that store is ``soa`` — or, under
        ``always_batch``, whenever the store was left to routing;
        ``never_batch`` solves such a group's lanes one by one on
        ``soa`` instead.  Anything else solves on the store,
        or partitioned on ``object`` on a context that
        ``supports_parallel`` once its schedule reaches
        :attr:`parallel_threshold` instructions (``always_parallel``
        partitions every single net, ``never_parallel`` none).
        """
        tracer = active_tracer()
        route_handle = (
            tracer.begin("route", policy=self.policy)
            if tracer is not None
            else None
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
        pin_batch, pin_parallel = self._pins
        if backend != "auto":
            store = backend
        elif features.lanes > 1 and not supports_batch:
            # Lanes that cannot ride the batch axis solve one by one.
            store = static_store(replace(features, lanes=1))
        else:
            store = static_store(features)
        if supports_batch and features.lanes > 1 and (
            store == "soa" or (pin_batch is True and backend == "auto")
        ):
            return ExecutionPlan(
                "soa", "compiled", batch_axis=pin_batch is not False
            )
        parallel = (
            supports_parallel
            and pin_parallel is not False
            and (
                features.instructions >= self.parallel_threshold
                or (pin_parallel is True and features.lanes == 1)
            )
        )
        return ExecutionPlan(
            SPLICE_BACKEND if parallel else store, "compiled",
            parallel=parallel,
        )

    def record(self, plan: ExecutionPlan) -> None:
        """Count one executed plan in :meth:`stats` and the registry."""
        key = plan.strategy
        with self._lock:
            self._decisions[key] = self._decisions.get(key, 0) + 1
        default_registry().counter(
            "repro_routing_decisions_total",
            "Execution plans chosen, by strategy label.",
        ).inc(strategy=key)

    def stats(self) -> dict:
        """The ``/stats`` ``routing`` block for one router."""
        with self._lock:
            decisions = dict(self._decisions)
        return {
            "policy": self.policy,
            "decisions": sum(decisions.values()),
            "decisions_by_strategy": decisions,
        }


_routers: Dict[str, Router] = {}
_routers_lock = threading.Lock()


def router_for(policy: Optional[str] = None) -> Router:
    """The process-wide :class:`Router` for ``policy`` — the one that
    ``insert_buffers`` and incremental sessions route ``"auto"`` with
    (one per policy, so its decision counters accumulate)."""
    key = validate_policy(DEFAULT_POLICY if policy is None else policy)
    with _routers_lock:
        router = _routers.get(key)
        if router is None:
            router = _routers[key] = Router(policy=key)
        return router
