"""The zero-object SoA kernel engine: parity, provenance tape, cutoffs.

The acceptance bar for the vectorized backend is *bit identity* with
the object backend — exact (``==``) root slack, driver load **and**
buffer assignment — across algorithms, drivers, load-capped libraries
and polarity cases, plus loud failure (never aliasing) when provenance
outlives its solve.
"""

import random

import pytest

from helpers import composed_apply_buffer, random_small_tree

from repro import (
    BufferLibrary,
    BufferType,
    Driver,
    insert_buffers,
    paper_library,
    two_pin_net,
    uniform_random_library,
)
from repro.core.polarity import insert_buffers_with_inverters, verify_polarities
from repro.core.schedule import compile_net
from repro.errors import AlgorithmError, InfeasibleError
from repro.library.generators import mixed_paper_library
from repro.units import fF, ps

numpy = pytest.importorskip("numpy")


def assert_identical(a, b):
    assert a.slack == b.slack  # exact: same bits
    assert a.driver_load == b.driver_load
    assert a.assignment == b.assignment
    assert a.stats.root_candidates == b.stats.root_candidates
    assert a.stats.peak_list_length == b.stats.peak_list_length
    assert a.stats.candidates_generated == b.stats.candidates_generated


DRIVERS = (None, Driver(140.0), Driver(2500.0))


def _library_for(seed: int, algorithm: str) -> BufferLibrary:
    if algorithm == "van_ginneken":
        return uniform_random_library(1, seed=seed)
    if seed % 3 == 0:
        # Every third case carries load caps, exercising the capped
        # prefix-scan path inside the fused BUFFER kernel.
        base = uniform_random_library(5, seed=seed)
        capped = [
            BufferType(
                name=f"{b.name}_capped",
                driving_resistance=b.driving_resistance,
                input_capacitance=b.input_capacitance,
                intrinsic_delay=b.intrinsic_delay,
                max_load=fF(40.0 + 12.0 * i),
            )
            for i, b in enumerate(base.buffers[:2])
        ]
        return BufferLibrary(list(base.buffers) + capped)
    return uniform_random_library(6, seed=seed)


# ----------------------------------------------------------------------
# Randomized parity corpus: algorithms x drivers x backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["fast", "lillis", "van_ginneken"])
@pytest.mark.parametrize("seed", range(12))
def test_parity_corpus(algorithm, seed):
    tree = random_small_tree(seed)
    library = _library_for(seed + 500, algorithm)
    driver = DRIVERS[seed % len(DRIVERS)]
    obj = insert_buffers(tree, library, algorithm=algorithm,
                         driver=driver, backend="object")
    soa = insert_buffers(tree, library, algorithm=algorithm,
                         driver=driver, backend="soa")
    assert_identical(obj, soa)


@pytest.mark.parametrize("seed", range(6))
def test_parity_corpus_compiled(seed):
    """The same bar through the compiled schedule interpreter."""
    tree = random_small_tree(seed + 40)
    library = _library_for(seed + 900, "fast")
    compiled = compile_net(tree, library)
    obj = insert_buffers(compiled, library, backend="object")
    soa = insert_buffers(compiled, library, backend="soa")
    assert_identical(obj, soa)


@pytest.mark.parametrize("destructive", [False, True])
def test_parity_destructive_long_trunk(destructive):
    """The fused kernel's destructive mode on a long 2-pin chain."""
    tree = two_pin_net(length=20000.0, sink_capacitance=fF(25.0),
                       required_arrival=ps(1200.0), driver=Driver(180.0),
                       num_segments=160)
    library = paper_library(16, jitter=0.03, seed=16)
    obj = insert_buffers(tree, library, destructive_pruning=destructive,
                         backend="object")
    soa = insert_buffers(tree, library, destructive_pruning=destructive,
                         backend="soa")
    assert_identical(obj, soa)


# ----------------------------------------------------------------------
# Polarity cases
# ----------------------------------------------------------------------


def _polarized_tree(seed: int):
    tree = random_small_tree(seed)
    rng = random.Random(seed * 13 + 1)
    flipped = 0
    for sink in tree.sinks():
        if rng.random() < 0.5:
            sink.polarity = -1
            flipped += 1
    return tree, flipped


@pytest.mark.parametrize("algorithm", ["fast", "lillis"])
@pytest.mark.parametrize("seed", range(10))
def test_polarity_parity(algorithm, seed):
    tree, _ = _polarized_tree(seed)
    library = mixed_paper_library(6, seed=seed + 7)
    obj = insert_buffers_with_inverters(tree, library, algorithm=algorithm,
                                        backend="object")
    soa = insert_buffers_with_inverters(tree, library, algorithm=algorithm,
                                        backend="soa")
    assert_identical(obj, soa)
    assert verify_polarities(tree, soa.assignment)
    assert soa.stats.backend == "soa"
    assert obj.stats.backend == "object"


def test_polarity_auto_backend_resolves():
    tree, _ = _polarized_tree(3)
    library = mixed_paper_library(4, seed=11)
    result = insert_buffers_with_inverters(tree, library, backend="auto")
    assert result.stats.backend == "object"  # the store of a net alone


def test_polarity_infeasible_is_backend_independent():
    tree = random_small_tree(5)
    for sink in tree.sinks():
        sink.polarity = -1
    library = paper_library(4)  # no inverters at all
    for backend in ("object", "soa"):
        with pytest.raises(InfeasibleError):
            insert_buffers_with_inverters(tree, library, backend=backend)


# ----------------------------------------------------------------------
# Deferred provenance: tape recycling and stale references
# ----------------------------------------------------------------------


def test_factory_recycling_no_tape_aliasing():
    """Two solves back-to-back on one factory must not alias tapes."""
    library = uniform_random_library(5, seed=77)
    tree_a = random_small_tree(21)
    tree_b = random_small_tree(22)
    compiled_a = compile_net(tree_a, library)
    compiled_b = compile_net(tree_b, library)

    # Fresh-factory references.
    fresh_a = insert_buffers(tree_a, library, backend="soa")
    fresh_b = insert_buffers(tree_b, library, backend="soa")

    # Interleaved solves through the warm per-net factories.
    first_a = insert_buffers(compiled_a, library, backend="soa")
    first_b = insert_buffers(compiled_b, library, backend="soa")
    second_a = insert_buffers(compiled_a, library, backend="soa")
    second_b = insert_buffers(compiled_b, library, backend="soa")
    assert_identical(fresh_a, first_a)
    assert_identical(fresh_b, first_b)
    assert_identical(first_a, second_a)
    assert_identical(first_b, second_b)


def test_stale_tape_ref_fails_loudly():
    from repro.core.stores.soa import SoAStoreFactory

    factory = SoAStoreFactory()
    factory.begin_solve()
    store = factory.sink(7, 1.0e-9, 2.0e-14)
    best = store.best_for_driver(100.0)
    assignment = {}
    best.decision.expand(assignment, [])  # live: fine
    assert assignment == {}  # a bare sink places no buffers

    factory.begin_solve()  # rewinds the tape, invalidates the ref
    with pytest.raises(AlgorithmError, match="stale provenance"):
        best.decision.expand({}, [])


def test_end_solve_invalidates_refs():
    from repro.core.stores.soa import SoAStoreFactory

    factory = SoAStoreFactory()
    factory.begin_solve()
    store = factory.sink(3, 1.0e-9, 2.0e-14)
    best = store.best_for_driver(50.0)
    factory.end_solve()
    with pytest.raises(AlgorithmError, match="stale provenance"):
        best.decision.expand({}, [])


def test_tape_records_survive_within_solve():
    """Buffer records expand into the exact plan node/type."""
    tree = random_small_tree(9)
    library = uniform_random_library(4, seed=90)
    result = insert_buffers(tree, library, backend="soa")
    # Every assigned buffer must be a library member at a tree node.
    for node_id, buffer in result.assignment.items():
        assert buffer in library.buffers
        assert tree.node(node_id).is_buffer_position


# ----------------------------------------------------------------------
# Cutoff invariance and kernel health
# ----------------------------------------------------------------------


def test_kernel_cutoff_invariance():
    """The scalar/vector crossover may never change any result."""
    from repro.core.stores.soa import kernel_cutoff, set_kernel_cutoff

    tree = two_pin_net(length=12000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=96)
    library = paper_library(8)
    default = kernel_cutoff()
    results = []
    try:
        for cutoff in (0, 1, 16, 10_000_000):
            set_kernel_cutoff(cutoff)
            results.append(insert_buffers(tree, library, backend="soa"))
    finally:
        set_kernel_cutoff(default)
    for other in results[1:]:
        assert_identical(results[0], other)


def test_fused_apply_buffer_matches_composed_default():
    """SoA's fused kernel equals the composition of its primitives."""
    from repro.core.dp import build_plans
    from repro.core.stores.soa import SoAStoreFactory

    tree = two_pin_net(length=6000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(700.0), driver=Driver(220.0),
                       num_segments=24)
    library = paper_library(6)
    plans = build_plans(tree, library)
    plan = next(iter(plans.values()))

    def build_store(factory):
        store = factory.sink(1, ps(700.0), fF(20.0))
        store = store.add_wire(30.0, fF(4.0))
        new = store.generate_scan(plan)
        store = store.insert(new)
        return store.add_wire(45.0, fF(6.0))

    for generator, destructive in (
        ("hull", False), ("hull", True), ("scan", False)
    ):
        fa = SoAStoreFactory()
        fa.begin_solve()
        fused = build_store(fa).apply_buffer(
            plan, generator=generator, destructive=destructive)

        fb = SoAStoreFactory()
        fb.begin_solve()
        composed = composed_apply_buffer(
            build_store(fb), plan, generator=generator,
            destructive=destructive)
        assert fused.q.tolist() == composed.q.tolist()
        assert fused.c.tolist() == composed.c.tolist()
