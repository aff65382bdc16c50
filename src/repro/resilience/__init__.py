"""Resilience substrate: deadlines, supervision, breakers, fault injection.

Four small, dependency-free modules that every execution layer leans on:

* :mod:`~repro.resilience.deadline` — per-request wall budgets checked
  cooperatively at instruction-range boundaries; typed
  :class:`~repro.errors.DeadlineExceeded` (HTTP 504).
* :mod:`~repro.resilience.supervisor` — retry / respawn / degrade loop
  with capped exponential backoff and deterministic jitter; degraded
  requests fall back to the bit-identical in-process plan.
* :mod:`~repro.resilience.breaker` — per-strategy-axis circuit
  breakers (closed / open / half-open) consulted by masking the
  capability flags passed to ``Router.route()``.
* :mod:`~repro.resilience.faults` — seeded, deterministic fault
  injection at named sites (:data:`~repro.resilience.faults.FAULT_SITES`)
  powering the chaos suite and ``bench_resilience.py``.

See ``docs/resilience.md`` for the full design.
"""

from importlib import import_module

_LAZY = {
    "BackoffPolicy": "repro.resilience.supervisor",
    "BreakerBoard": "repro.resilience.breaker",
    "CircuitBreaker": "repro.resilience.breaker",
    "Deadline": "repro.resilience.deadline",
    "DeadlineExceeded": "repro.errors",
    "FAULT_SITES": "repro.resilience.faults",
    "FaultInjectedError": "repro.errors",
    "FaultPlan": "repro.resilience.faults",
    "FaultRule": "repro.resilience.faults",
    "STRATEGY_AXES": "repro.resilience.breaker",
    "SUPERVISABLE_ERRORS": "repro.resilience.supervisor",
    "Supervisor": "repro.resilience.supervisor",
    "WorkerCrashError": "repro.errors",
    "WorkerHangError": "repro.errors",
    "active_deadline": "repro.resilience.deadline",
    "active_fault_plan": "repro.resilience.faults",
    "clear_fault_plan": "repro.resilience.faults",
    "deadline_scope": "repro.resilience.deadline",
    "inject": "repro.resilience.faults",
    "install_fault_plan": "repro.resilience.faults",
    "is_supervisable": "repro.resilience.supervisor",
    "reset_active_deadline": "repro.resilience.deadline",
    "should_corrupt": "repro.resilience.faults",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
