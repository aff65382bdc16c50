"""Cost-model-driven execution routing.

The repository has several genuinely different ways to solve the same
net — object vs SoA candidate stores, scratch vs incremental splice,
sequential vs batch-axis vs partitioned parallel — and, until this
package, had scattered hardcoded rules for picking between them.  Routing pulls every one of those dispatch
decisions behind a single observable seam:

* :mod:`repro.routing.features` — a cheap per-request feature vector
  (positions, sinks, library size, instruction count, lanes, workers,
  edit dirty-fraction) extracted from a
  :class:`~repro.core.schedule.CompiledNet` or tree without solving.
* :mod:`repro.routing.cost_model` — a per-strategy latency predictor,
  piecewise-linear in the DP work product ``positions x library_size``,
  fitted offline from the committed ``BENCH_PR*.json`` sweeps (the
  versioned artifact ``model_default.json`` ships with the package) and
  refined online by EMA updates from measured solve times.
* :mod:`repro.routing.router` — ``route(features) -> ExecutionPlan``
  with ``policy="static" | "model" | "always_*"`` escape hatches.
  ``static`` applies fixed rules (:func:`~repro.routing.router.static_store`
  picks ``soa`` only for long candidate lists); ``model`` asks the cost
  model; ``always_*`` pins an axis.
* :mod:`repro.routing.workload` — an opt-in JSONL workload log written
  by :class:`~repro.core.batch.SolverPool` and the server, plus
  :func:`~repro.routing.workload.replay`, which re-runs a captured log
  under any policy and reports per-request and aggregate regret
  against the observed best plan.

The doctrine is unchanged from every earlier subsystem: routing may
only *pick* answers, never change them.  ``tests/test_routing.py``
proves every plan the router can emit bit-identical to the compiled
object-store reference path.
"""

from repro.routing.cost_model import CostModel, default_model
from repro.routing.features import RequestFeatures, features_of
from repro.routing.router import (
    POLICIES,
    ExecutionPlan,
    Router,
    default_policy,
    set_default_policy,
)
from repro.routing.workload import WorkloadLog, read_log, replay

__all__ = [
    "CostModel",
    "ExecutionPlan",
    "POLICIES",
    "RequestFeatures",
    "Router",
    "WorkloadLog",
    "default_model",
    "default_policy",
    "features_of",
    "read_log",
    "replay",
    "set_default_policy",
]
