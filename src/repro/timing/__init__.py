"""Timing analysis: Elmore wire delay + linear buffer delay.

Two analyses live here:

* :mod:`repro.timing.elmore` — downstream capacitances and per-sink
  Elmore delays of a plain (unbuffered) RC tree.
* :mod:`repro.timing.buffered` — full staged analysis of a tree with an
  explicit buffer assignment.  This is written independently of the
  dynamic-programming candidate algebra and serves as the correctness
  oracle for every algorithm in :mod:`repro.core`: the slack predicted by
  a DP candidate must equal the slack this module measures for the
  reconstructed assignment.
"""

from importlib import import_module

_LAZY = {
    "downstream_capacitance": "repro.timing.elmore",
    "elmore_delays": "repro.timing.elmore",
    "unbuffered_slack": "repro.timing.elmore",
    "TimingReport": "repro.timing.buffered",
    "evaluate_assignment": "repro.timing.buffered",
    "evaluate_slack": "repro.timing.buffered",
    "SlackMap": "repro.timing.slack_map",
    "compute_slack_map": "repro.timing.slack_map",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
