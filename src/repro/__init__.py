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

from repro.core import (
    BufferingResult,
    CompiledNet,
    DPStats,
    InsertionAlgorithm,
    algorithm_names,
    available_algorithms,
    compile_net,
    get_algorithm,
    insert_buffers,
    insert_buffers_brute_force,
    insert_buffers_fast,
    insert_buffers_lillis,
    insert_buffers_van_ginneken,
    insert_buffers_with_inverters,
    register_algorithm,
    solve_many,
    SolverPool,
    verify_polarities,
)
from repro.library import (
    BufferLibrary,
    BufferType,
    cluster_library,
    geometric_library,
    mixed_paper_library,
    paper_library,
    uniform_random_library,
)
from repro.timing import (
    TimingReport,
    evaluate_assignment,
    evaluate_slack,
    elmore_delays,
    unbuffered_slack,
)
from repro.tree import (
    Driver,
    RoutingTree,
    balanced_tree_net,
    caterpillar_net,
    h_tree_net,
    load_tree,
    prim_steiner_net,
    random_tree_net,
    save_tree,
    segment_tree,
    star_net,
    two_pin_net,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BufferingResult",
    "DPStats",
    "InsertionAlgorithm",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "available_algorithms",
    "solve_many",
    "SolverPool",
    "CompiledNet",
    "compile_net",
    "insert_buffers",
    "insert_buffers_fast",
    "insert_buffers_lillis",
    "insert_buffers_van_ginneken",
    "insert_buffers_brute_force",
    "insert_buffers_with_inverters",
    "verify_polarities",
    # library
    "BufferType",
    "BufferLibrary",
    "paper_library",
    "geometric_library",
    "mixed_paper_library",
    "uniform_random_library",
    "cluster_library",
    # timing
    "TimingReport",
    "evaluate_assignment",
    "evaluate_slack",
    "elmore_delays",
    "unbuffered_slack",
    # tree
    "Driver",
    "RoutingTree",
    "two_pin_net",
    "caterpillar_net",
    "balanced_tree_net",
    "random_tree_net",
    "star_net",
    "h_tree_net",
    "prim_steiner_net",
    "segment_tree",
    "save_tree",
    "load_tree",
]
