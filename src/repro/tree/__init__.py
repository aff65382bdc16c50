"""Routing trees: data structure, builders, wire segmenting, serialization.

A :class:`~repro.tree.routing_tree.RoutingTree` is the net model from the
paper's Section 2: a rooted tree ``T = (V, E)`` whose root is the source,
whose leaves are sinks (each with a load capacitance and a required
arrival time), and whose internal vertices may be candidate buffer
positions.  Each edge carries lumped wire resistance and capacitance.
"""

from importlib import import_module

_LAZY = {
    "Node": "repro.tree.node",
    "NodeKind": "repro.tree.node",
    "Driver": "repro.tree.node",
    "RoutingTree": "repro.tree.routing_tree",
    "Edge": "repro.tree.routing_tree",
    "two_pin_net": "repro.tree.builders",
    "caterpillar_net": "repro.tree.builders",
    "balanced_tree_net": "repro.tree.builders",
    "random_tree_net": "repro.tree.builders",
    "star_net": "repro.tree.builders",
    "h_tree_net": "repro.tree.clock",
    "prim_steiner_net": "repro.tree.steiner",
    "segment_tree": "repro.tree.segmenting",
    "max_segment_length_for_positions": "repro.tree.segmenting",
    "tree_to_dict": "repro.tree.io",
    "tree_from_dict": "repro.tree.io",
    "save_tree": "repro.tree.io",
    "load_tree": "repro.tree.io",
    "Blockage": "repro.tree.blockages",
    "apply_blockages": "repro.tree.blockages",
    "blockage_coverage": "repro.tree.blockages",
    "read_spef": "repro.tree.spef",
    "write_spef": "repro.tree.spef",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
