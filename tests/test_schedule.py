"""Compiled solve schedules: golden answers, pickling, the arena.

Every solve runs the compiled interpreter, so its answers are locked by
``tests/data/dp_golden.json``: slack and driver load (as ``float.hex``),
the full assignment and the DP statistics (peak list length, candidates
generated, root candidates), recorded on the randomized corpus of
``helpers.golden_cases`` by the tree-walk interpreter before it was
removed.  Both store backends, handed a plain tree or a ``compile_net``
result, must reproduce every record with ``==``, never approx.
"""

import json
import pickle
from pathlib import Path

import pytest

from helpers import (
    golden_cases,
    golden_record,
    random_small_tree,
    restricted_steiner_tree,
)

from repro import (
    Driver,
    RoutingTree,
    compile_net,
    insert_buffers,
    insert_buffers_fast,
    insert_buffers_lillis,
    paper_library,
    random_tree_net,
    solve_many,
    two_pin_net,
    uniform_random_library,
)
from repro.core.schedule import (
    OP_BUFFER,
    OP_FINAL,
    OP_MERGE,
    OP_SINK,
    OP_WIRE,
    CompiledNet,
    compile_records,
)
from repro.errors import AlgorithmError
from repro.tree.io import (
    library_from_dict,
    net_records,
    tree_from_records,
    tree_to_dict,
)
from repro.tree.segmenting import segment_tree
from repro.units import fF, ps, to_ps

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

BACKENDS = ["object"] + (["soa"] if numpy is not None else [])

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "dp_golden.json").read_text()
)["cases"]
CASES = golden_cases()


def assert_identical(a, b):
    assert a.slack == b.slack  # exact: same bits
    assert a.driver_load == b.driver_load
    assert a.assignment == b.assignment


def assert_same_stats(a, b):
    assert a.stats.peak_list_length == b.stats.peak_list_length
    assert a.stats.candidates_generated == b.stats.candidates_generated
    assert a.stats.root_candidates == b.stats.root_candidates


def assert_golden(case_id, backend):
    """Solve one corpus case every way a caller can; all match golden.

    Returns the compiled-path result for extra case-specific checks.
    """
    tree, library, kwargs = CASES[case_id]()
    kwargs = dict(kwargs)
    algorithm = kwargs.pop("algorithm")
    compiled = compile_net(tree, library)
    results = [
        insert_buffers(net, library, algorithm=algorithm, backend=backend,
                       **kwargs)
        # The second compiled solve runs on the warm factory/arena.
        for net in (compiled, compiled, tree)
    ]
    for result in results:
        assert golden_record(result) == GOLDEN[case_id]
        assert result.stats.backend == backend
    return results[0]


# ----------------------------------------------------------------------
# Golden answers: the compiled interpreter on the randomized corpus
# ----------------------------------------------------------------------


def test_golden_covers_the_corpus():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["fast", "lillis"])
@pytest.mark.parametrize("seed", range(20))
def test_compiled_parity_on_random_trees(algorithm, backend, seed):
    assert_golden(f"random-{algorithm}-{seed}", backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parity_van_ginneken(backend):
    result = assert_golden("van_ginneken", backend)
    assert result.stats.algorithm == "van_ginneken"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("destructive", [False, True])
def test_compiled_parity_destructive_pruning(backend, destructive):
    assert_golden(f"destructive-{destructive}", backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parity_with_restricted_and_steiner_nodes(backend):
    """Allowed-buffer subsets, empty subsets and pure Steiner points."""
    for algorithm in ("fast", "lillis"):
        assert_golden(f"restricted-{algorithm}", backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "case_id",
    sorted(case for case in CASES if case.startswith(("loadcap", "subset"))),
)
def test_compiled_matches_golden_on_capped_libraries(case_id, backend):
    """Load-capped buffer types and per-position library subsets."""
    assert_golden(case_id, backend)


def test_compiled_driver_override_and_default():
    for backend in BACKENDS:
        default = assert_golden("driver-default", backend)
        strong = assert_golden("driver-strong", backend)
        weak = assert_golden("driver-weak", backend)
        assert strong.slack > default.slack > weak.slack
    tree = random_small_tree(4)
    compiled = compile_net(tree, uniform_random_library(4, seed=9))
    assert compiled.driver == tree.driver


# ----------------------------------------------------------------------
# Instruction stream shape
# ----------------------------------------------------------------------


def test_schedule_instruction_counts():
    tree = random_small_tree(11)
    library = paper_library(4)
    compiled = compile_net(tree, library)
    codes = [op & 3 for op in compiled.ops]
    merges = sum(
        len(tree.children_of(n.node_id)) - 1
        for n in tree.nodes() if not n.is_sink
    )
    assert codes.count(OP_SINK) == tree.num_sinks == compiled.num_sinks
    assert codes.count(OP_WIRE) == tree.num_nodes - 1
    assert codes.count(OP_MERGE) == merges
    assert codes.count(OP_BUFFER) == tree.num_buffer_positions
    # Exactly one node-final instruction per vertex.
    finals = sum(1 for op in compiled.ops if op & OP_FINAL)
    assert finals == tree.num_nodes
    assert len(compiled) == len(compiled.ops) == len(compiled.args)


def test_compile_invalid_tree_rejected():
    tree = RoutingTree.with_source()  # no sinks
    with pytest.raises(AlgorithmError, match="invalid routing tree"):
        compile_net(tree, paper_library(2))
    with pytest.raises(AlgorithmError, match="invalid routing tree"):
        insert_buffers(tree, paper_library(2))


def test_compiled_rejects_mismatched_library():
    tree = random_small_tree(0)
    compiled = compile_net(tree, paper_library(4))
    with pytest.raises(AlgorithmError, match="different buffer"):
        insert_buffers(compiled, paper_library(8))


# ----------------------------------------------------------------------
# Re-solves after in-place edits answer for the edited net
# ----------------------------------------------------------------------


def test_cache_invalidated_when_tree_grows():
    def grow(tree):
        tree.add_sink(0, 200.0, fF(30.0), capacitance=fF(25.0),
                      required_arrival=ps(100.0))

    tree = random_small_tree(9)
    library = uniform_random_library(4, seed=90)
    before = insert_buffers(tree, library)
    grow(tree)
    after = insert_buffers(tree, library)
    fresh = random_small_tree(9)
    grow(fresh)
    expected = insert_buffers(fresh, library)
    assert_identical(after, expected)
    assert_same_stats(after, expected)
    assert after.slack != before.slack or after.assignment != before.assignment


def test_cache_invalidated_by_sink_mutation():
    """In-place required-arrival edits must not serve stale answers."""
    def build():
        return two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                           required_arrival=ps(900.0), driver=Driver(200.0),
                           num_segments=32)

    def halve_rats(tree):
        for node in tree.sinks():
            node.required_arrival = node.required_arrival / 2.0

    tree = build()
    library = paper_library(4)
    before = insert_buffers(tree, library)
    halve_rats(tree)
    after = insert_buffers(tree, library)
    fresh = build()
    halve_rats(fresh)
    assert_identical(after, insert_buffers(fresh, library))
    assert after.slack != before.slack


def test_cache_invalidated_by_driver_mutation():
    tree = random_small_tree(18)
    library = uniform_random_library(4, seed=180)
    before = insert_buffers(tree, library)
    driver = Driver(resistance=tree.driver.resistance * 7.0)
    tree.driver = driver
    after = insert_buffers(tree, library)
    assert after.slack != before.slack
    assert_identical(
        after, insert_buffers(random_small_tree(18), library, driver=driver)
    )


def test_cache_invalidated_by_library_change():
    tree = random_small_tree(10)
    small = uniform_random_library(3, seed=100)
    large = uniform_random_library(6, seed=101)
    insert_buffers(tree, small)
    result = insert_buffers(tree, large)
    assert_identical(result, insert_buffers(random_small_tree(10), large))
    assert result.stats.library_size == 6


def test_resolve_after_buffer_position_edit_is_fresh():
    """Clearing a node's buffer-position flag by hand takes effect on
    the next solve of the same tree object."""
    library = paper_library(8)
    tree = random_tree_net(20, seed=3)
    before = insert_buffers(tree, library)
    assert 1 in before.assignment
    tree.node(1).is_buffer_position = False
    after = insert_buffers(tree, library)
    fresh = random_tree_net(20, seed=3)
    fresh.node(1).is_buffer_position = False
    assert_identical(after, insert_buffers(fresh, library))
    assert 1 not in after.assignment
    assert to_ps(after.slack) == pytest.approx(-1652.89, abs=0.01)
    assert to_ps(before.slack) == pytest.approx(-1361.50, abs=0.01)


def test_resolve_after_allowed_buffers_edit_is_fresh():
    """Narrowing a position's allowed buffers by hand takes effect on
    the next solve of the same tree object."""
    library = paper_library(8)
    tree = random_tree_net(20, seed=3)
    before = insert_buffers(tree, library)
    used = before.assignment[1].name
    narrowed = frozenset(b.name for b in library.buffers if b.name != used)
    tree.node(1).allowed_buffers = narrowed
    after = insert_buffers(tree, library)
    fresh = random_tree_net(20, seed=3)
    fresh.node(1).allowed_buffers = narrowed
    assert_identical(after, insert_buffers(fresh, library))
    assert after.assignment[1].name != used
    assert after.slack < before.slack


# ----------------------------------------------------------------------
# Pickling and batch dispatch
# ----------------------------------------------------------------------


def test_compiled_net_pickle_roundtrip():
    tree = random_small_tree(12)
    library = uniform_random_library(5, seed=120)
    compiled = compile_net(tree, library)
    reference = insert_buffers(compiled, library)
    clone = pickle.loads(pickle.dumps(compiled))
    assert isinstance(clone, CompiledNet)
    assert clone.ops == compiled.ops
    assert clone.num_buffer_positions == compiled.num_buffer_positions
    result = insert_buffers(clone, clone.library)
    assert result.slack == reference.slack
    assert result.assignment == reference.assignment
    # The original keeps working after its clone was pickled away.
    assert insert_buffers(compiled, library).slack == reference.slack


def test_compiled_payload_smaller_than_tree():
    tree = two_pin_net(length=20_000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(2000.0), driver=Driver(200.0),
                       num_segments=200)
    library = paper_library(8)
    compiled = compile_net(tree, library)
    assert len(pickle.dumps(compiled)) < len(pickle.dumps(tree))


def test_solve_many_validates_each_net_exactly_once(monkeypatch):
    trees = [random_small_tree(seed) for seed in range(4)]
    library = paper_library(4)
    calls = []
    original = RoutingTree.validate

    def counting_validate(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RoutingTree, "validate", counting_validate)
    results = solve_many(trees, library, jobs=1)
    assert len(results) == len(trees)
    assert len(calls) == len(trees)


@pytest.mark.parametrize("precompile", [False, True])
def test_solve_many_precompile_parity(precompile):
    """Plain trees and caller-compiled nets solve identically."""
    trees = [random_small_tree(seed) for seed in range(5)]
    library = paper_library(4)
    reference = [insert_buffers(t, library) for t in trees]
    nets = [compile_net(t, library) for t in trees] if precompile else trees
    results = solve_many(nets, library, jobs=1)
    for got, want in zip(results, reference):
        assert_identical(got, want)


def test_solve_many_ships_compiled_nets_to_workers():
    trees = [random_small_tree(seed) for seed in range(6)]
    library = paper_library(4)
    serial = solve_many(trees, library, jobs=1)
    parallel = solve_many(trees, library, jobs=2)
    for got, want in zip(parallel, serial):
        assert_identical(got, want)


def test_solve_many_accepts_precompiled_nets():
    trees = [random_small_tree(seed) for seed in range(3)]
    library = paper_library(4)
    compiled = [compile_net(t, library) for t in trees]
    reference = solve_many(trees, library, jobs=1)
    results = solve_many(compiled, library, jobs=1)
    for got, want in zip(results, reference):
        assert_identical(got, want)


# ----------------------------------------------------------------------
# Backend auto-selection
# ----------------------------------------------------------------------


def test_insert_buffers_auto_backend():
    """A small net's "auto" solve runs on object, where soa's
    per-instruction overhead is not paid back."""
    tree = random_small_tree(14)
    library = uniform_random_library(4, seed=140)
    result = insert_buffers(tree, library, backend="auto")
    assert result.stats.backend == "object"
    explicit = insert_buffers(tree, library, backend="object")
    assert_identical(result, explicit)


def test_unknown_backend_still_rejected():
    tree = random_small_tree(15)
    with pytest.raises(AlgorithmError, match="unknown candidate-store"):
        insert_buffers(tree, uniform_random_library(3, seed=1),
                       backend="warp_drive")
    # "auto" is resolved by the entry points; a strategy takes a store.
    for strategy in (insert_buffers_fast, insert_buffers_lillis):
        with pytest.raises(
            AlgorithmError, match="unknown candidate-store backend 'auto'"
        ):
            strategy(tree, uniform_random_library(3, seed=1), backend="auto")


# ----------------------------------------------------------------------
# Scratch arena (SoA backend)
# ----------------------------------------------------------------------


@pytest.mark.skipif(numpy is None, reason="numpy required for the arena")
class TestScratchArena:
    def test_blocks_are_recycled(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        view = arena.f8(10)
        block = view.base
        assert len(block) == 16  # next power of two
        arena.recycle(view)
        again = arena.f8(12)
        assert again.base is block  # same block, reused
        assert len(again) == 12

    def test_dtype_pools_are_separate(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        floats = arena.f8(4)
        ints = arena.ip(4)
        assert floats.dtype == numpy.float64
        assert ints.dtype == numpy.intp
        arena.recycle(floats)
        arena.recycle(ints)
        assert arena.f8(4).dtype == numpy.float64
        assert arena.ip(4).dtype == numpy.intp

    def test_double_recycle_is_ignored(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        view = arena.f8(5)
        arena.recycle(view)
        arena.recycle(view)  # second call must not double-pool the block
        first = arena.f8(5)
        second = arena.f8(5)
        assert first.base is not second.base

    def test_reset_forgets_outstanding_loans(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        leaked = arena.f8(6)
        arena.reset()
        arena.recycle(leaked)  # dead loan: ignored, not pooled
        assert arena.f8(6).base is not leaked.base

    def test_empty_borrows_share_singleton(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        assert len(arena.f8(0)) == 0
        assert arena.f8(0) is arena.f8(0)
        arena.recycle(arena.f8(0))  # no-op

    def test_iota_grows_and_matches_arange(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        assert arena.iota(5).tolist() == list(range(5))
        assert arena.iota(300).tolist() == list(range(300))


@pytest.mark.skipif(numpy is None, reason="numpy required for SoA")
def test_factory_reuse_isolated_across_solves():
    """Two consecutive solves through one factory must not share state."""
    library = uniform_random_library(5, seed=160)
    tree_a = random_small_tree(16)
    tree_b = random_small_tree(17)
    compiled_a = compile_net(tree_a, library)
    compiled_b = compile_net(tree_b, library)

    first_a = insert_buffers(compiled_a, library, backend="soa")
    factory = compiled_a.soa_factory()
    assert factory is compiled_a.soa_factory()  # cached per net

    # Solve B on its own compiled net, then A again on the *warm* one.
    insert_buffers(compiled_b, library, backend="soa")
    second_a = insert_buffers(compiled_a, library, backend="soa")
    assert_identical(first_a, second_a)
    assert_same_stats(first_a, second_a)

    # The first result's reconstruction is untouched by later solves.
    fresh = insert_buffers(tree_a, library, backend="soa")
    assert first_a.assignment == fresh.assignment
    assert first_a.slack == fresh.slack


@pytest.mark.skipif(numpy is None, reason="numpy required for SoA")
def test_released_store_fails_loudly():
    from repro.core.stores.soa import SoAStoreFactory

    factory = SoAStoreFactory()
    store = factory.sink(3, 1.0e-9, 2.0e-14)
    assert not store.released()
    store.release()
    assert store.released()
    store.release()  # idempotent
    with pytest.raises(TypeError):
        len(store)


# ----------------------------------------------------------------------
# The records front-end: compile_records == compile_net(tree_from_records)
# ----------------------------------------------------------------------


def _compiled_fields(compiled):
    """Every field a CompiledNet carries, the plans' type orders too."""
    return {
        "ops": compiled.ops,
        "args": compiled.args.tolist(),
        "wire_r": compiled.wire_r.tolist(),
        "wire_c": compiled.wire_c.tolist(),
        "sink_node": compiled.sink_node.tolist(),
        "sink_q": compiled.sink_q.tolist(),
        "sink_c": compiled.sink_c.tolist(),
        "plan_specs": compiled.plan_specs,
        "plans": [
            (plan.node_id, [b.name for b in plan.by_resistance_desc],
             plan.cap_order)
            for plan in compiled.plans()
        ],
        "driver": compiled.driver,
        "counts": (compiled.num_nodes, compiled.num_sinks,
                   compiled.num_buffer_positions),
        "start_of_node": compiled.start_of_node,
        "final_of_node": compiled.final_of_node,
        "wire_index_of": compiled.wire_index_of,
    }


def _relabel_ids(net, label):
    """``net`` (a serialized dict) with every id replaced by ``label(id)``."""
    nodes = []
    for node in net["nodes"]:
        node = dict(node, id=label(node["id"]))
        if "edge" in node:
            edge = node["edge"]
            node["edge"] = dict(edge, parent=label(edge["parent"]))
        nodes.append(node)
    return dict(net, nodes=nodes)


def _records_corpus():
    """``{name: (serialized net, library)}``: the served golden nets,
    every net of the mixed workload, and generated edge cases."""
    data = Path(__file__).parent / "data"
    golden = json.loads((data / "solve_golden.json").read_text())
    golden_library = library_from_dict(golden["library"])
    corpus = {
        f"golden-{case['name']}": (case["net"], golden_library)
        for case in golden["cases"]
    }
    lines = (data / "workload_mixed.jsonl").read_text().splitlines()
    for line_no, line in enumerate(lines):
        record = json.loads(line)
        library = library_from_dict(record["library"])
        nets = [record["net"]] if "net" in record else record["nets"]
        for index, net in enumerate(nets):
            corpus[f"mixed-{line_no}-{index}"] = (net, library)
    paper = paper_library(8)
    for seed in range(4):
        tree = random_tree_net(12 + 10 * seed, seed=seed,
                               driver=Driver(300.0))
        corpus[f"random-{seed}"] = (tree_to_dict(tree), paper)
        corpus[f"segmented-{seed}"] = (
            tree_to_dict(segment_tree(tree, 800.0)), paper)
    corpus["two-pin"] = (
        tree_to_dict(two_pin_net(5000.0, num_segments=16)), paper)
    corpus["restricted"] = (tree_to_dict(restricted_steiner_tree(paper)),
                            paper)
    restricted = tree_to_dict(random_tree_net(20, seed=9))
    names = [b.name for b in paper.buffers]
    for position, node in enumerate(restricted["nodes"]):
        if node.get("buffer_position") and position % 3:
            node["allowed_buffers"] = names[position % 5::2]
    corpus["restricted-random"] = (restricted, paper)
    driverless = tree_to_dict(random_small_tree(3))
    del driverless["driver"]
    corpus["driverless"] = (driverless, paper)
    base = tree_to_dict(random_tree_net(16, seed=4, driver=Driver(250.0)))
    corpus["string-ids"] = (_relabel_ids(base, lambda i: f"pin:{i}"), paper)
    corpus["descending-ids"] = (_relabel_ids(base, lambda i: 1000 - i), paper)
    return corpus


RECORDS_CORPUS = _records_corpus()


@pytest.mark.parametrize("name", sorted(RECORDS_CORPUS))
def test_compile_records_equals_the_tree_compile(name):
    net, library = RECORDS_CORPUS[name]
    records = net_records(net)
    expected = compile_net(tree_from_records(records), library,
                           validate=False)
    assert _compiled_fields(compile_records(records, library)) == (
        _compiled_fields(expected)
    )


def test_records_corpus_covers_the_edge_cases():
    kinds = {name.split("-")[0] for name in RECORDS_CORPUS}
    assert {"golden", "mixed", "random", "segmented", "restricted",
            "driverless", "string", "descending"} <= kinds
    assert sum(name.startswith("mixed-") for name in RECORDS_CORPUS) == 80
    net, library = RECORDS_CORPUS["restricted-random"]
    compiled = compile_records(net_records(net), library)
    assert any(allowed is not None for _, allowed in compiled.plan_specs)
    assert compile_records(
        net_records(RECORDS_CORPUS["driverless"][0]), library
    ).driver is None
