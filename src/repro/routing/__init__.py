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
  by one rule, the static rule
  (:func:`~repro.routing.router.static_store` picks ``soa`` only for
  a group's long candidate lists, groups batch on the ``soa`` side,
  big nets partition on multi-process pools).
* :mod:`repro.routing.workload` — an opt-in JSONL workload log written
  by :class:`~repro.core.batch.SolverPool` and the server, plus
  :func:`~repro.routing.workload.replay`, which re-runs a captured log,
  measures every candidate plan, and reports the rule's regret against
  the per-request best plan.

The doctrine is unchanged from every earlier subsystem: routing may
only *pick* answers, never change them.  ``tests/test_routing.py``
proves every plan the router can emit bit-identical to the compiled
object-store reference path.
"""

from importlib import import_module

_LAZY = {
    "ExecutionPlan": "repro.routing.router",
    "RequestFeatures": "repro.routing.features",
    "Router": "repro.routing.router",
    "WorkloadLog": "repro.routing.workload",
    "features_of": "repro.routing.features",
    "read_log": "repro.routing.workload",
    "replay": "repro.routing.workload",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
