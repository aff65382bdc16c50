"""Incremental ECO re-solve: edit a net, pay only for the dirty path.

Edit-heavy engineering-change-order (ECO) workloads are the dominant
real-world use of buffer insertion: a placed design is re-timed
thousands of times as pins move, wires re-route and drivers resize.
The bottom-up dynamic program is naturally compositional — the
candidate frontier at any vertex depends only on its subtree — yet a
stateless solver re-pays the whole net for every one-wire edit.  This
package turns the solver into a stateful session:

* :mod:`repro.incremental.edits` — a typed, validated edit algebra
  (sink RAT/cap/polarity, wire move/re-length, add/remove pins, wire
  splitting, driver swap) with a JSON codec;
* :mod:`repro.incremental.subtree_cache` — digest-keyed memoization of
  frozen subtree frontiers, byte-bounded, shareable across sessions;
* :mod:`repro.incremental.engine` — :class:`IncrementalSolver`, which
  re-runs only the dirty instruction sub-ranges of the compiled
  postorder schedule and splices memoized frontiers in for every clean
  subtree, producing results **bit-identical** to a from-scratch solve.

The serving layer exposes sessions over HTTP (``/session`` endpoints,
:meth:`repro.service.client.ServiceClient.create_session`) and the CLI
replays edit scripts with ``repro edit``.
"""

from importlib import import_module

_LAZY = {
    "Edit": "repro.incremental.edits",
    "EditImpact": "repro.incremental.edits",
    "SetSinkRAT": "repro.incremental.edits",
    "SetSinkCap": "repro.incremental.edits",
    "SetSinkPolarity": "repro.incremental.edits",
    "SetWire": "repro.incremental.edits",
    "SwapDriver": "repro.incremental.edits",
    "AddSink": "repro.incremental.edits",
    "SplitWire": "repro.incremental.edits",
    "RemoveSubtree": "repro.incremental.edits",
    "edit_from_dict": "repro.incremental.edits",
    "edit_to_dict": "repro.incremental.edits",
    "FrontierCache": "repro.incremental.subtree_cache",
    "FrontierSnapshot": "repro.incremental.subtree_cache",
    "IncrementalSolver": "repro.incremental.engine",
    "SplicedFrontierDecision": "repro.incremental.engine",
    "TreeIndex": "repro.incremental.engine",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
