"""``route(features) -> ExecutionPlan``: one seam for every dispatch.

Before this module, strategy selection lived in unrelated places:
``resolve_backend("auto")`` picked the store, ``SolverPool`` batched
any structural group and partitioned any net over a fixed instruction
threshold.  The :class:`Router` subsumes them behind one policy string:

* ``"static"`` — fixed rules (the default): :func:`static_store` picks
  the candidate store from the request's size, a structural group rides
  the batch axis when its lanes are on the ``soa`` side, and a net over
  the instruction threshold is partitioned on a multi-process pool.
* ``"model"`` — ask the :class:`~repro.routing.cost_model.CostModel`
  for the cheapest plan among the candidates legal for this request.
* ``"always_X"`` / ``"never_X"`` — escape hatches that pin one axis and
  leave the rest on the static rule: ``always_object``, ``always_soa``,
  ``always_splice``, ``always_scratch`` (re-solve sessions from
  scratch), ``always_batch`` / ``never_batch``, ``always_parallel`` /
  ``never_parallel``.

Whatever the policy, the emitted plan is only ever a *choice among
bit-identical executions* — ``tests/test_routing.py`` proves every
candidate plan returns the same slack, assignment, driver load and DP
stats as the compiled object-store reference.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.obs.metrics import default_registry
from repro.obs.spans import active_tracer
from repro.routing.cost_model import CostModel, default_model
from repro.routing.features import RequestFeatures

#: Schedule modes a plan can name.
SCHEDULE_MODES = ("compiled", "splice")

#: How decisively the model must favor a composite plan (batch axis or
#: partitioned) before the router takes it over the best simple plan.
#: Composite predictions stack two fitted components (a base curve and
#: a speedup surface / Amdahl residual), so their error bars are wider;
#: near a predicted tie the simple plan is the safer execution.
COMPOSITE_MARGIN = 1.15

#: The policy tokens (see :func:`validate_policy`).
POLICIES = (
    "static",
    "model",
    "always_object",
    "always_soa",
    "always_splice",
    "always_scratch",
    "always_batch",
    "never_batch",
    "always_parallel",
    "never_parallel",
)


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
        decision counters, the cost model and the workload log."""
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


@dataclass(frozen=True)
class _Constraints:
    """A parsed policy: pinned axes are non-``None``."""

    use_model: bool = False
    backend: Optional[str] = None
    schedule_mode: Optional[str] = None
    batch_axis: Optional[bool] = None
    parallel: Optional[bool] = None

    def admits(self, plan: ExecutionPlan) -> bool:
        return (
            (self.backend is None or plan.backend == self.backend)
            and (self.schedule_mode is None
                 or plan.schedule_mode == self.schedule_mode)
            and (self.batch_axis is None
                 or plan.batch_axis == self.batch_axis)
            and (self.parallel is None or plan.parallel == self.parallel)
        )


def _parse_policy(policy: str) -> _Constraints:
    if policy == "static":
        return _Constraints()
    if policy == "model":
        return _Constraints(use_model=True)
    for prefix, value in (("always_", True), ("never_", False)):
        if not policy.startswith(prefix):
            continue
        axis = policy[len(prefix):]
        if axis in ("batch", "parallel"):
            key = "batch_axis" if axis == "batch" else "parallel"
            return _Constraints(**{key: value})
        if not value:
            break  # only batch/parallel have a "never_" form
        if axis == "splice":
            return _Constraints(schedule_mode="splice")
        if axis == "scratch":
            return _Constraints(schedule_mode="compiled")
        from repro.core.stores import store_backend_names

        if axis in store_backend_names():
            return _Constraints(backend=axis)
        break
    raise ValueError(
        f"unknown routing policy {policy!r}; expected one of {POLICIES}"
    )


def validate_policy(policy: str) -> str:
    """Raise ``ValueError`` on an unknown policy string; return it."""
    _parse_policy(policy)
    return policy


_default_policy = "static"
_default_policy_lock = threading.Lock()


def default_policy() -> str:
    """The process-wide policy used when a caller passes ``policy=None``."""
    with _default_policy_lock:
        return _default_policy


def set_default_policy(policy: str) -> str:
    """Set (and return the previous) process-wide default policy."""
    global _default_policy
    validate_policy(policy)
    with _default_policy_lock:
        previous = _default_policy
        _default_policy = policy
    return previous


def _soa_available() -> bool:
    from repro.core.stores import resolve_backend

    return resolve_backend("auto") == "soa"


#: The object/soa crossover in ``positions * library_size`` (every
#: position tries every buffer type), measured by
#: ``benchmarks/bench_crossover.py``.  ``soa`` pays a fixed NumPy
#: dispatch cost per instruction and wins only once the add-buffer step
#: works on long candidate lists: lists grow along the positions between
#: branch points, hence a floor per sink, and the step's width grows
#: with the library size.
SOA_MIN_POSITION_TYPES_PER_SINK = 800
SOA_MIN_POSITION_TYPES = 9600


def static_store(features: RequestFeatures) -> str:
    """The candidate store the static rule picks for ``features``.

    ``"soa"`` when the candidate lists will be long — ``positions *
    library_size`` of at least :data:`SOA_MIN_POSITION_TYPES_PER_SINK`
    per sink and :data:`SOA_MIN_POSITION_TYPES` in all (a Figure 4
    trunk: one sink, hundreds of positions) — and NumPy imports;
    ``"object"`` otherwise (nets with a few positions per sink, where
    ``soa``'s per-instruction overhead is not paid back).
    """
    work = features.positions * features.library_size
    if (
        work >= SOA_MIN_POSITION_TYPES_PER_SINK * features.sinks
        and work >= SOA_MIN_POSITION_TYPES
        and _soa_available()
    ):
        return "soa"
    return "object"


class Router:
    """Turns request features into :class:`ExecutionPlan` decisions.

    Args:
        policy: ``"static"``, ``"model"``, or an ``always_*`` /
            ``never_*`` escape hatch (see module docstring); ``None``
            follows :func:`default_policy`.
        model: Cost model for predictions and online refinement; the
            shared :func:`~repro.routing.cost_model.default_model` by
            default (so corrections pool process-wide).
        parallel_threshold: Instruction floor of the static
            partitioned-solve rule; defaults to
            :data:`repro.parallel.solver.DEFAULT_PARALLEL_THRESHOLD`.
    """

    def __init__(
        self,
        policy: Optional[str] = None,
        model: Optional[CostModel] = None,
        parallel_threshold: Optional[int] = None,
    ) -> None:
        if policy is None:
            policy = default_policy()
        self.policy = validate_policy(policy)
        self._constraints = _parse_policy(policy)
        self._model = model
        if parallel_threshold is None:
            from repro.parallel.solver import DEFAULT_PARALLEL_THRESHOLD

            parallel_threshold = DEFAULT_PARALLEL_THRESHOLD
        self.parallel_threshold = parallel_threshold
        self._lock = threading.Lock()
        self._decisions: Dict[str, int] = {}
        self._routed = 0
        self._observed = 0

    @property
    def model(self) -> CostModel:
        """The cost model (lazily the shared default artifact)."""
        if self._model is None:
            self._model = default_model()
        return self._model

    # -- candidate enumeration -----------------------------------------

    def candidate_plans(
        self,
        features: RequestFeatures,
        *,
        backend: str = "auto",
        supports_batch: bool = False,
        supports_parallel: bool = False,
    ) -> List[ExecutionPlan]:
        """Every plan legal for this request, reference-most first.

        ``backend`` other than ``"auto"`` pins the store (a caller's
        explicit choice always wins over routing).  Capability flags
        describe the execution context: the batch axis needs a
        structural group on an soa context, partitioning needs a
        multi-process pool and a locally compiled net.
        """
        if backend != "auto":
            backends = [backend]
        elif self._constraints.backend is not None:
            backends = [self._constraints.backend]
        else:
            backends = ["object"] + (["soa"] if _soa_available() else [])

        plans: List[ExecutionPlan] = []
        if features.kind == "session":
            for store in backends:
                plans.append(ExecutionPlan(store, "splice"))
                plans.append(ExecutionPlan(store, "compiled"))
        elif features.lanes > 1:
            for store in backends:
                plans.append(ExecutionPlan(store, "compiled"))
            if supports_batch:
                plans.append(
                    ExecutionPlan("soa", "compiled", batch_axis=True)
                )
        else:
            for store in backends:
                plans.append(ExecutionPlan(store, "compiled"))
            if supports_parallel:
                for store in backends:
                    plans.append(
                        ExecutionPlan(store, "compiled", parallel=True)
                    )
        return plans

    # -- decision rules -------------------------------------------------

    def _static_plan(
        self,
        features: RequestFeatures,
        backend: str,
        supports_batch: bool,
        supports_parallel: bool,
    ) -> ExecutionPlan:
        """The static rule as one plan.

        The store is the caller's, else the policy's pinned one, else
        :func:`static_store`'s; a multi-lane group is batched only when
        that store is ``soa`` (otherwise its lanes solve one by one).
        """
        if backend != "auto":
            store = backend
        elif self._constraints.backend is not None:
            store = self._constraints.backend
        else:
            store = static_store(features)
        if features.kind == "session":
            return ExecutionPlan(store, "splice")
        if supports_batch and features.lanes > 1 and store == "soa":
            return ExecutionPlan("soa", "compiled", batch_axis=True)
        parallel = (
            supports_parallel
            and features.instructions >= self.parallel_threshold
        )
        return ExecutionPlan(store, "compiled", parallel=parallel)

    def route(
        self,
        features: RequestFeatures,
        *,
        backend: str = "auto",
        supports_batch: bool = False,
        supports_parallel: bool = False,
    ) -> ExecutionPlan:
        """Pick the execution plan for one request under this policy."""
        tracer = active_tracer()
        route_handle = (
            tracer.begin("route", policy=self.policy)
            if tracer is not None
            else None
        )
        constraints = self._constraints
        plan = self._static_plan(
            features, backend, supports_batch, supports_parallel
        )
        candidates = None
        if constraints.use_model or constraints != _Constraints():
            candidates = [
                candidate
                for candidate in self.candidate_plans(
                    features,
                    backend=backend,
                    supports_batch=supports_batch,
                    supports_parallel=supports_parallel,
                )
                if constraints.admits(candidate)
            ]
        if candidates:
            if constraints.use_model:
                model = self.model
                costs = {
                    candidate: model.predict(candidate, features)
                    for candidate in candidates
                }
                plan = min(candidates, key=costs.__getitem__)
                if plan.batch_axis or plan.parallel:
                    # Composite predictions stack two fitted components,
                    # so near a predicted tie prefer the simple plan.
                    simple = [
                        candidate for candidate in candidates
                        if not (candidate.batch_axis or candidate.parallel)
                    ]
                    if simple:
                        best_simple = min(simple, key=costs.__getitem__)
                        if not (
                            costs[plan] * COMPOSITE_MARGIN
                            < costs[best_simple]
                        ):
                            plan = best_simple
            elif not constraints.admits(plan):
                # A pinned axis the static rule disagrees with: take the
                # first admissible candidate whose free axes match the
                # static choice as closely as the enumeration allows.
                plan = min(
                    candidates,
                    key=lambda candidate: (
                        candidate.backend != plan.backend,
                        candidate.schedule_mode != plan.schedule_mode,
                        candidate.batch_axis != plan.batch_axis,
                        candidate.parallel != plan.parallel,
                    ),
                )
        with self._lock:
            self._routed += 1
            key = plan.strategy
            self._decisions[key] = self._decisions.get(key, 0) + 1
        default_registry().counter(
            "repro_routing_decisions_total",
            "Execution plans chosen, by strategy label.",
        ).inc(strategy=key)
        if route_handle is not None:
            tracer.end(route_handle, strategy=key)
        return plan

    # -- feedback and observability -------------------------------------

    def observe(
        self, plan: ExecutionPlan, features: RequestFeatures, seconds: float
    ) -> None:
        """Feed one measured execution back into the cost model.

        Runs under every policy (not just ``"model"``): static pools
        keep the shared model calibrated and the predicted-vs-actual
        error in ``/stats`` honest.
        """
        self.model.observe(plan, features, seconds)
        with self._lock:
            self._observed += 1

    def stats(self) -> dict:
        """The ``/stats`` ``routing`` block for one router."""
        with self._lock:
            decisions = dict(self._decisions)
            routed = self._routed
            observed = self._observed
        return {
            "policy": self.policy,
            "decisions": routed,
            "decisions_by_strategy": decisions,
            "observations": observed,
            "model": self.model.stats(),
        }
