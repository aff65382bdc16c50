"""Optimal buffer insertion with b buffer types in O(b n^2) time.

A complete reproduction of Li & Shi, "An O(bn^2) Time Algorithm for
Optimal Buffer Insertion with b Buffer Types" (DATE 2005), including the
O(b^2 n^2) baseline of Lillis, Cheng & Lin, van Ginneken's classic
single-type algorithm, and all substrates: RC routing trees, Elmore
timing, buffer libraries, wire segmenting and workload generators.

Quickstart::

    from repro import (
        Driver, BufferLibrary, insert_buffers, paper_library, two_pin_net,
    )
    from repro.units import fF, ps

    net = two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                      required_arrival=ps(900.0),
                      driver=Driver(resistance=180.0),
                      num_segments=32)
    library = paper_library(16)
    result = insert_buffers(net, library)           # the O(bn^2) algorithm
    print(result.slack, result.num_buffers)
"""

from importlib import import_module

__version__ = "1.0.0"

# Public names resolve on first access: ``import repro`` loads no
# algorithm, builder or timing module until a name that needs it is
# read, and ``from repro import insert_buffers`` works as it always has.
_LAZY = {
    # core
    "BufferingResult": "repro.core",
    "DPStats": "repro.core",
    "InsertionAlgorithm": "repro.core",
    "register_algorithm": "repro.core",
    "get_algorithm": "repro.core",
    "algorithm_names": "repro.core",
    "available_algorithms": "repro.core",
    "solve_many": "repro.core",
    "SolverPool": "repro.core",
    "CompiledNet": "repro.core",
    "compile_net": "repro.core",
    "insert_buffers": "repro.core",
    "insert_buffers_fast": "repro.core",
    "insert_buffers_lillis": "repro.core",
    "insert_buffers_van_ginneken": "repro.core",
    "insert_buffers_brute_force": "repro.core",
    "insert_buffers_with_inverters": "repro.core",
    "verify_polarities": "repro.core",
    # library
    "BufferType": "repro.library",
    "BufferLibrary": "repro.library",
    "paper_library": "repro.library",
    "geometric_library": "repro.library",
    "mixed_paper_library": "repro.library",
    "uniform_random_library": "repro.library",
    "cluster_library": "repro.library",
    # timing
    "TimingReport": "repro.timing",
    "evaluate_assignment": "repro.timing",
    "evaluate_slack": "repro.timing",
    "elmore_delays": "repro.timing",
    "unbuffered_slack": "repro.timing",
    # tree
    "Driver": "repro.tree",
    "RoutingTree": "repro.tree",
    "two_pin_net": "repro.tree",
    "caterpillar_net": "repro.tree",
    "balanced_tree_net": "repro.tree",
    "random_tree_net": "repro.tree",
    "star_net": "repro.tree",
    "h_tree_net": "repro.tree",
    "prim_steiner_net": "repro.tree",
    "segment_tree": "repro.tree",
    "save_tree": "repro.tree",
    "load_tree": "repro.tree",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["__version__", *_LAZY]
