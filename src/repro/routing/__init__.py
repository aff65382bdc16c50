"""Execution routing.

The repository has several genuinely different ways to solve the same
net — object vs SoA candidate stores, scratch vs incremental splice,
sequential vs batch-axis vs partitioned parallel — and, until this
package, had scattered hardcoded rules for picking between them.
Routing pulls every one of those dispatch decisions behind a single
observable seam:

* :mod:`repro.routing.features` — a cheap per-request feature vector
  (positions, sinks, library size, instruction count, lanes, kind)
  extracted from a :class:`~repro.core.schedule.CompiledNet` or tree
  without solving.
* :mod:`repro.routing.router` — ``route(features) -> ExecutionPlan``
  under ``policy="static"`` (the rule:
  :func:`~repro.routing.router.static_store` picks ``soa`` only for
  long candidate lists, groups batch on the ``soa`` side, big nets
  partition on multi-process pools) or an ``always_*`` / ``never_*``
  escape hatch that pins one axis.
* :mod:`repro.routing.workload` — an opt-in JSONL workload log written
  by :class:`~repro.core.batch.SolverPool` and the server, plus
  :func:`~repro.routing.workload.replay`, which re-runs a captured log,
  measures every candidate plan, and reports each policy's regret
  against the per-request best plan.

The doctrine is unchanged from every earlier subsystem: routing may
only *pick* answers, never change them.  ``tests/test_routing.py``
proves every plan the router can emit bit-identical to the compiled
object-store reference path.
"""

from importlib import import_module

from repro.routing.features import RequestFeatures, features_of
from repro.routing.router import (
    DEFAULT_POLICY,
    POLICIES,
    ExecutionPlan,
    Router,
)


def __getattr__(name: str):
    # The workload log loads on first use, so a solve that only routes
    # does not import it (nor hashlib and json).
    if name in ("WorkloadLog", "read_log", "replay"):
        return getattr(import_module("repro.routing.workload"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_POLICY",
    "ExecutionPlan",
    "POLICIES",
    "RequestFeatures",
    "Router",
    "WorkloadLog",
    "features_of",
    "read_log",
    "replay",
]
