"""Structure-of-arrays backend: exact parity with the object backend.

The acceptance bar is *bit identity*, not approximate equality: the SoA
backend performs the same IEEE-754 operations in the same order, so
slack, driver load and the full buffer assignment must compare equal
with ``==`` on every instance.
"""

import pytest

from helpers import random_small_tree

from repro import (
    Driver,
    insert_buffers,
    paper_library,
    two_pin_net,
    uniform_random_library,
)
from repro.core.stores import (
    get_store_backend,
    register_store_backend,
    store_backend_names,
    unregister_store_backend,
)
from repro.core.stores.base import StoreFactory
from repro.errors import AlgorithmError
from repro.units import fF, ps

numpy = pytest.importorskip("numpy")


def assert_identical(a, b):
    assert a.slack == b.slack  # exact: same bits
    assert a.driver_load == b.driver_load
    assert a.assignment == b.assignment


@pytest.mark.parametrize("algorithm", ["fast", "lillis"])
@pytest.mark.parametrize("seed", range(25))
def test_soa_parity_on_random_trees(algorithm, seed):
    tree = random_small_tree(seed)
    library = uniform_random_library(5, seed=seed + 1000)
    obj = insert_buffers(tree, library, algorithm=algorithm, backend="object")
    soa = insert_buffers(tree, library, algorithm=algorithm, backend="soa")
    assert_identical(obj, soa)
    assert soa.stats.backend == "soa"
    assert obj.stats.backend == "object"


@pytest.mark.parametrize("destructive", [False, True])
def test_soa_parity_on_line_net(destructive):
    tree = two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=64)
    library = paper_library(8)
    obj = insert_buffers(tree, library, destructive_pruning=destructive,
                          backend="object")
    soa = insert_buffers(tree, library, destructive_pruning=destructive,
                         backend="soa")
    assert_identical(obj, soa)


def test_soa_parity_van_ginneken(line_net):
    library = paper_library(1)
    obj = insert_buffers(line_net, library, algorithm="van_ginneken",
                          backend="object")
    soa = insert_buffers(line_net, library, algorithm="van_ginneken",
                         backend="soa")
    assert_identical(obj, soa)
    assert soa.stats.algorithm == "van_ginneken"


def test_soa_parity_with_load_limits(line_net):
    """max_load buffers take the prefix-scan path; must still agree."""
    from repro import BufferLibrary, BufferType

    library = BufferLibrary([
        BufferType("capped", 800.0, fF(4.0), ps(25.0), max_load=fF(60.0)),
        BufferType("open", 1500.0, fF(2.0), ps(20.0)),
    ])
    obj = insert_buffers(line_net, library, backend="object")
    soa = insert_buffers(line_net, library, backend="soa")
    assert_identical(obj, soa)


def test_soa_parity_with_allowed_buffers(small_library):
    from repro import RoutingTree

    tree = RoutingTree.with_source(driver=Driver(500.0))
    v = tree.add_internal(0, 300.0, fF(40.0), allowed_buffers=["weak"])
    w = tree.add_internal(v, 200.0, fF(30.0))
    tree.add_sink(w, 300.0, fF(40.0), capacitance=fF(30.0),
                  required_arrival=ps(500.0))
    obj = insert_buffers(tree, small_library, backend="object")
    soa = insert_buffers(tree, small_library, backend="soa")
    assert_identical(obj, soa)


def test_soa_stats_match_object(line_net, paper_lib8):
    obj = insert_buffers(line_net, paper_lib8, backend="object")
    soa = insert_buffers(line_net, paper_lib8, backend="soa")
    assert obj.stats.peak_list_length == soa.stats.peak_list_length
    assert obj.stats.candidates_generated == soa.stats.candidates_generated
    assert obj.stats.root_candidates == soa.stats.root_candidates


def test_vectorized_paths_match_scalar_on_long_lists():
    """Force list lengths past the scalar cutoffs so the whole-array
    prune/hull code paths execute, and check against the object ops."""
    import random

    from repro.core.pruning import convex_prune, prune_dominated
    from repro.core.stores.soa import (
        _hull_indices,
        _nonredundant_indices,
        kernel_cutoff,
    )

    rng = random.Random(7)
    count = 4 * kernel_cutoff() + 17
    raw = sorted(
        (rng.uniform(0.0, 1e-12), rng.uniform(-1e-9, 0.0))
        for _ in range(count)
    )
    candidates = [(q, c, i) for i, (c, q) in enumerate(raw)]
    q = numpy.array([cand[0] for cand in candidates])
    c = numpy.array([cand[1] for cand in candidates])
    kept = _nonredundant_indices(q, c)
    expected = prune_dominated(list(candidates))
    assert [(q[i], c[i]) for i in kept] == [(x[0], x[1]) for x in expected]

    nq = q[kept]
    nc = c[kept]
    if len(nq) > 2:
        hull = _hull_indices(nq, nc)
        expected_hull = convex_prune(expected)
        assert [(nq[i], nc[i]) for i in hull] == [
            (x[0], x[1]) for x in expected_hull
        ]


def test_unknown_backend_rejected(line_net, small_library):
    with pytest.raises(AlgorithmError, match="unknown candidate-store"):
        insert_buffers(line_net, small_library, backend="warp_drive")


def test_backend_names_and_duplicate_registration():
    assert {"object", "soa"} <= set(store_backend_names())
    with pytest.raises(AlgorithmError, match="already registered"):

        @register_store_backend("object")
        class Impostor(StoreFactory):
            def sink(self, node_id, q, c):
                raise NotImplementedError

    class Custom(StoreFactory):
        def sink(self, node_id, q, c):
            raise NotImplementedError

    register_store_backend("custom_for_test")(Custom)
    try:
        assert get_store_backend("custom_for_test") is Custom
    finally:
        unregister_store_backend("custom_for_test")
    assert "custom_for_test" not in store_backend_names()

