"""Incremental ECO engine tests.

The headline contract is *bit-identity*: after any sequence of edits,
:meth:`~repro.incremental.engine.IncrementalSolver.resolve` must return
exactly — ``==``, not approx — the slack, assignment, driver load and
DP statistics a from-scratch solve of the edited net returns, for every
registered algorithm, on every candidate store the scratch solve can
run on (sessions themselves run on the object store).  The parity
corpus below replays randomized edit sequences (payload, structural,
polarity and driver edits mixed) against scratch solves at every step.

The trickier corners get dedicated tests: sibling subtrees that share a
digest (one cache entry must serve both, with node ids translated onto
the right sibling), frontier-cache bounding/eviction, frontier lifetime
(a session holds its current subtrees plus the path its latest edit
superseded, and nothing once it is closed or collected, also with many
sessions on many threads), and the cap on provenance chains that long
sessions of structural edits build.
"""

import gc
import json
import os
import random
import sys
import threading
import time

import pytest

from helpers import random_small_tree
from repro import (
    Driver,
    insert_buffers,
    paper_library,
    random_tree_net,
    two_pin_net,
)
from repro.core.registry import (
    InsertionAlgorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.errors import AlgorithmError, DeadlineExceeded, EditError
from repro.incremental import (
    AddSink,
    FrontierCache,
    FrontierSnapshot,
    IncrementalSolver,
    RemoveSubtree,
    SetSinkCap,
    SetSinkPolarity,
    SetSinkRAT,
    SetWire,
    SplitWire,
    SwapDriver,
    edit_from_dict,
    edit_to_dict,
)
from repro.incremental.engine import _CAPTURE_SPACING, _CHAIN_LIMIT
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.obs.spans import Tracer, trace_scope
from repro.resilience.deadline import Deadline, deadline_scope
from repro.tree.routing_tree import RoutingTree
from repro.units import fF, ps

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

#: The stores a session's answers are checked against: every session
#: runs on object, and must match a scratch solve on each store.
REFERENCES = ("object", "soa") if numpy is not None else ("object",)

ALGORITHMS = ("fast", "lillis", "van_ginneken")


def names(assignment):
    return {node_id: buffer.name for node_id, buffer in assignment.items()}


def scratch_solve(tree, library, algorithm, reference, **options):
    return insert_buffers(
        tree, library, algorithm=algorithm, backend=reference, **options
    )


def assert_parity(result, tree, library, algorithm, reference, **options):
    expected = scratch_solve(tree, library, algorithm, reference, **options)
    assert result.slack == expected.slack
    assert result.driver_load == expected.driver_load
    assert names(result.assignment) == names(expected.assignment)
    assert result.stats.root_candidates == expected.stats.root_candidates
    assert result.stats.peak_list_length == expected.stats.peak_list_length
    assert (
        result.stats.candidates_generated
        == expected.stats.candidates_generated
    )
    assert result.stats.algorithm == expected.stats.algorithm


def library_for(algorithm):
    return paper_library(1) if algorithm == "van_ginneken" else paper_library(4)


def session_keys(solver):
    """The frontier-cache keys of the session's current capture points
    (the vertices whose frontiers a session captures and holds)."""
    context = solver._context_key
    return {(solver._digest[node], context) for node in solver._points}


def depth_of(tree, node):
    """The number of edges from the source down to ``node``."""
    depth = 0
    while node != tree.root_id:
        node = tree.parent_of(node)
        depth += 1
    return depth


# ----------------------------------------------------------------------
# Edit algebra
# ----------------------------------------------------------------------


class TestEditAlgebra:
    @pytest.fixture
    def tree(self):
        return random_small_tree(13)

    def test_sink_edit_rejects_non_sink(self, tree):
        with pytest.raises(EditError, match="not a sink"):
            SetSinkRAT(node=tree.root_id, required_arrival=ps(1.0)).apply(tree)

    def test_unknown_node_is_edit_error(self, tree):
        with pytest.raises(EditError, match="does not exist"):
            SetSinkCap(node=999, capacitance=fF(1.0)).apply(tree)

    def test_negative_cap_rejected_before_mutation(self, tree):
        sink = tree.sinks()[0]
        before = sink.capacitance
        with pytest.raises(EditError, match=">= 0"):
            SetSinkCap(node=sink.node_id, capacitance=-1.0).apply(tree)
        assert tree.node(sink.node_id).capacitance == before

    def test_wire_edit_rejects_root(self, tree):
        with pytest.raises(EditError, match="no incoming wire"):
            SetWire(node=tree.root_id, resistance=1.0, capacitance=1.0).apply(tree)

    def test_split_fraction_bounds(self, tree):
        sink = tree.sinks()[0].node_id
        for fraction in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(EditError, match="fraction"):
                SplitWire(node=sink, fraction=fraction).apply(tree)

    def test_remove_rejects_root_and_last_child(self, tree):
        with pytest.raises(EditError, match="no incoming wire"):
            RemoveSubtree(node=tree.root_id).apply(tree)
        # The source's single child cannot be removed.
        only_child = tree.children_of(tree.root_id)[0]
        with pytest.raises(EditError, match="childless"):
            RemoveSubtree(node=only_child).apply(tree)

    def test_polarity_values(self, tree):
        sink = tree.sinks()[0].node_id
        with pytest.raises(EditError, match="polarity"):
            SetSinkPolarity(node=sink, polarity=0).apply(tree)

    def test_codec_round_trip(self):
        edits = [
            SetSinkRAT(node=3, required_arrival=9e-10),
            SetSinkCap(node=4, capacitance=2e-14),
            SetSinkPolarity(node=4, polarity=-1),
            SetWire(node=5, resistance=3.5, capacitance=1e-15, length=20.0),
            SwapDriver(resistance=120.0, intrinsic_delay=1e-12),
            SwapDriver(resistance=None),
            AddSink(parent=2, edge_resistance=1.0, edge_capacitance=2e-15,
                    capacitance=5e-15, required_arrival=8e-10, polarity=-1),
            SplitWire(node=7, fraction=0.25, buffer_position=False,
                      allowed_buffers=("b1", "b2")),
            RemoveSubtree(node=9),
        ]
        for edit in edits:
            assert edit_from_dict(edit_to_dict(edit)) == edit

    def test_codec_rejects_unknown_op_and_fields(self):
        with pytest.raises(EditError, match="unknown edit op"):
            edit_from_dict({"op": "teleport", "node": 1})
        with pytest.raises(EditError, match="unknown fields"):
            edit_from_dict({"op": "set_sink_rat", "node": 1,
                            "required_arrival": 1e-9, "bogus": 2})
        with pytest.raises(EditError, match="must be an object"):
            edit_from_dict(["set_sink_rat"])
        with pytest.raises(EditError, match="bad 'set_sink_rat'"):
            edit_from_dict({"op": "set_sink_rat", "node": 1})


# ----------------------------------------------------------------------
# Tree mutation API
# ----------------------------------------------------------------------


class TestTreeMutations:
    def test_split_edge_conserves_parasitics_exactly(self):
        tree = random_small_tree(5)
        child = tree.sinks()[0].node_id
        edge = tree.edge_to(child)
        total_r, total_c = edge.resistance, edge.capacitance
        new_id = tree.split_edge(child, fraction=0.3)
        upper = tree.edge_to(new_id)
        lower = tree.edge_to(child)
        assert upper.resistance + lower.resistance == total_r
        assert upper.capacitance + lower.capacitance == total_c
        assert tree.edge_to(child).parent == new_id
        tree.validate()

    def test_split_edge_preserves_sibling_order(self):
        tree = RoutingTree.with_source(driver=Driver(resistance=100.0))
        a = tree.add_sink(0, 1.0, fF(1.0), capacitance=fF(5.0),
                          required_arrival=ps(100.0))
        b = tree.add_sink(0, 1.0, fF(1.0), capacitance=fF(5.0),
                          required_arrival=ps(200.0))
        new_id = tree.split_edge(a, fraction=0.5)
        assert tree.children_of(0) == (new_id, b)

    def test_remove_subtree_removes_whole_subtree(self):
        tree = random_small_tree(8)
        # Find a node with >= 2 children; remove one child's subtree.
        victim = None
        for node in tree.nodes():
            children = tree.children_of(node.node_id)
            if len(children) >= 2:
                victim = children[0]
                break
        if victim is None:
            pytest.skip("seed produced a pure chain")
        before = tree.num_nodes
        removed = tree.remove_subtree(victim)
        assert tree.num_nodes == before - len(removed)
        tree.validate()

    def test_driver_assignment_invalidates_schedule(self, paper_lib8):
        """A re-solve after swapping the driver scores the new one."""
        tree = random_small_tree(22)
        before = insert_buffers(tree, paper_lib8)
        tree.driver = Driver(resistance=50.0)
        after = insert_buffers(tree, paper_lib8)
        assert after.slack != before.slack
        assert after.slack == insert_buffers(
            random_small_tree(22), paper_lib8, driver=Driver(resistance=50.0)
        ).slack


# ----------------------------------------------------------------------
# Randomized edit-replay parity corpus
# ----------------------------------------------------------------------


def polarity_tree(seed):
    """A random multi-pin net with a mix of sink polarities."""
    rng = random.Random(seed)
    tree = random_tree_net(
        8, seed=seed, required_arrival=(ps(400.0), ps(2500.0)),
        driver=Driver(resistance=rng.uniform(100.0, 400.0)),
    )
    for sink in tree.sinks()[::2]:
        tree.set_sink(sink.node_id, polarity=-1)
    return tree


def random_edit(tree, rng):
    """One random valid edit against the current tree state."""
    sinks = [node.node_id for node in tree.sinks()]
    non_root = [
        node.node_id for node in tree.nodes() if node.node_id != tree.root_id
    ]
    parents = [node.node_id for node in tree.nodes() if not node.is_sink]
    removable = [
        node_id for node_id in non_root
        if len(tree.children_of(tree.edge_to(node_id).parent)) >= 2
    ]
    choices = ["rat", "cap", "polarity", "wire", "wire", "driver", "split",
               "add"]
    if removable:
        choices.append("remove")
    kind = rng.choice(choices)
    if kind == "rat":
        return SetSinkRAT(node=rng.choice(sinks),
                          required_arrival=ps(rng.uniform(100.0, 3000.0)))
    if kind == "cap":
        return SetSinkCap(node=rng.choice(sinks),
                          capacitance=fF(rng.uniform(2.0, 50.0)))
    if kind == "polarity":
        return SetSinkPolarity(node=rng.choice(sinks),
                               polarity=rng.choice((1, -1)))
    if kind == "wire":
        node = rng.choice(non_root)
        edge = tree.edge_to(node)
        return SetWire(
            node=node,
            resistance=edge.resistance * rng.uniform(0.5, 2.0),
            capacitance=edge.capacitance * rng.uniform(0.5, 2.0),
        )
    if kind == "driver":
        return SwapDriver(resistance=rng.uniform(50.0, 500.0))
    if kind == "split":
        return SplitWire(node=rng.choice(non_root),
                         fraction=rng.uniform(0.2, 0.8))
    if kind == "add":
        return AddSink(
            parent=rng.choice(parents),
            edge_resistance=rng.uniform(1.0, 50.0),
            edge_capacitance=fF(rng.uniform(1.0, 10.0)),
            capacitance=fF(rng.uniform(2.0, 30.0)),
            required_arrival=ps(rng.uniform(200.0, 2000.0)),
            polarity=rng.choice((1, -1)),
        )
    return RemoveSubtree(node=rng.choice(removable))


def eco_edit(base, rng):
    """An ECO-loop edit drawn against the unedited net ``base``: a sink's
    RAT or load, or a wire's R and C, scaled at random (no compounding)."""
    kind = rng.randrange(3)
    if kind == 2:
        node = rng.choice([n.node_id for n in base.nodes() if not n.is_source])
        edge = base.edge_to(node)
        return SetWire(
            node=node,
            resistance=edge.resistance * rng.uniform(0.6, 1.6),
            capacitance=edge.capacitance * rng.uniform(0.6, 1.6),
        )
    sink = rng.choice(base.sinks())
    if kind == 0:
        return SetSinkRAT(
            node=sink.node_id,
            required_arrival=sink.required_arrival * rng.uniform(0.85, 1.15),
        )
    return SetSinkCap(node=sink.node_id,
                      capacitance=sink.capacitance * rng.uniform(0.7, 1.4))


class TestReplayParity:
    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_random_edit_replay(self, algorithm, reference, seed):
        library = library_for(algorithm)
        tree = polarity_tree(seed)
        solver = IncrementalSolver(tree, library, algorithm=algorithm)
        assert_parity(solver.resolve(), tree, library, algorithm, reference)
        rng = random.Random(seed * 1000 + 7)
        for _ in range(8):
            for _ in range(rng.randrange(1, 3)):
                solver.apply(random_edit(tree, rng))
            assert_parity(
                solver.resolve(), tree, library, algorithm, reference
            )

    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_random_edit_holds(self, reference, seed):
        """Through splits, adds, removes, polarity and driver edits, the
        session holds exactly its current keys plus those of the state
        before its latest change, the cache keeps exactly those, and
        every answer matches the scratch solve."""
        library = paper_library(4)
        tree = polarity_tree(seed)
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        solver.resolve()
        current = previous = session_keys(solver)
        assert cache.stats()["held"] == len(current)
        rng = random.Random(seed * 1000 + 7)
        for _ in range(16):
            for _ in range(rng.randrange(1, 3)):
                solver.apply(random_edit(tree, rng))
            result = solver.resolve()
            assert_parity(result, tree, library, "fast", reference)
            if session_keys(solver) != current:
                previous, current = current, session_keys(solver)
            assert cache.stats()["held"] == len(current | previous)
            assert set(cache._entries) == current | previous

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_trunk_replay(self, reference):
        library = paper_library(4)
        tree = two_pin_net(
            length=8000.0, sink_capacitance=fF(20.0),
            required_arrival=ps(900.0), driver=Driver(resistance=200.0),
            num_segments=40,
        )
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        rng = random.Random(99)
        sink = tree.sinks()[0].node_id
        internals = [
            node.node_id for node in tree.nodes()
            if not node.is_sink and not node.is_source
        ]
        for edit in (
            SetWire(node=internals[3], resistance=12.0, capacitance=fF(9.0)),
            SetSinkRAT(node=sink, required_arrival=ps(700.0)),
            SwapDriver(resistance=111.0),
            SetWire(node=internals[-2], resistance=1.0, capacitance=fF(1.0)),
            SplitWire(node=internals[len(internals) // 2], fraction=0.5),
        ):
            solver.apply(edit)
            assert_parity(solver.resolve(), tree, library, "fast", reference)
        # Wire edits near the driver must not re-run the whole trunk.
        solver.apply(SetWire(node=internals[0], resistance=2.0,
                             capacitance=fF(2.0)))
        solver.resolve()
        assert solver.last_executed_fraction < 0.2
        assert solver.last_spliced_subtrees >= 1

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_destructive_pruning_options_respected(self, reference):
        library = paper_library(4)
        tree = two_pin_net(
            length=5000.0, sink_capacitance=fF(15.0),
            required_arrival=ps(800.0), driver=Driver(resistance=150.0),
            num_segments=16,
        )
        solver = IncrementalSolver(
            tree, library, algorithm="fast", destructive_pruning=True,
        )
        solver.apply(SetSinkRAT(node=tree.sinks()[0].node_id,
                                required_arrival=ps(650.0)))
        result = solver.resolve()
        assert result.stats.algorithm == "fast-destructive"
        assert_parity(result, tree, library, "fast", reference,
                      destructive_pruning=True)

    def test_rejected_add_sink_leaves_tree_untouched(self):
        """A rejected attach must not leave a dangling vertex (the edit
        contract: failure leaves the net untouched)."""
        library = paper_library(4)
        tree = polarity_tree(11)
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        before = tree.num_nodes
        with pytest.raises(EditError, match=">= 0"):
            solver.apply(AddSink(
                parent=tree.root_id, edge_resistance=-1.0,
                edge_capacitance=fF(1.0), capacitance=fF(5.0),
                required_arrival=ps(800.0),
            ))
        assert tree.num_nodes == before
        tree.validate()  # no dangling node
        # Structural edits still work afterwards.
        solver.apply(AddSink(
            parent=tree.root_id, edge_resistance=1.0,
            edge_capacitance=fF(1.0), capacitance=fF(5.0),
            required_arrival=ps(800.0),
        ))
        assert_parity(solver.resolve(), tree, library, "fast",
                      solver.backend)

    def test_rejected_edit_leaves_session_consistent(self):
        library = paper_library(4)
        tree = polarity_tree(4)
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        with pytest.raises(EditError):
            solver.apply(SetSinkCap(node=tree.root_id, capacitance=fF(1.0)))
        solver.apply(SetSinkRAT(node=tree.sinks()[0].node_id,
                                required_arrival=ps(555.0)))
        assert_parity(solver.resolve(), tree, library, "fast",
                      solver.backend)

    def test_resolve_without_edits_returns_cached_result(self):
        library = paper_library(4)
        tree = polarity_tree(5)
        solver = IncrementalSolver(tree, library)
        first = solver.resolve()
        assert solver.resolve() is first
        assert solver.resolves == 1
        solver.apply(SwapDriver(resistance=99.0))
        assert solver.resolve() is not first

    def test_algorithm_without_add_buffer_op_is_rejected(self):
        class Opaque(InsertionAlgorithm):
            complexity = "O(?)"
            summary = "no add_buffer_op"

            def run(self, tree, library, driver=None, backend="object",
                    **options):  # pragma: no cover - never called
                raise AssertionError

        register_algorithm("_opaque_test")(Opaque)
        try:
            with pytest.raises(AlgorithmError, match="incrementally"):
                IncrementalSolver(polarity_tree(6), paper_library(2),
                                  algorithm="_opaque_test")
        finally:
            unregister_algorithm("_opaque_test")

    @pytest.mark.parametrize("store", ("soa", "object", "auto"))
    def test_store_option_is_rejected(self, store):
        """Sessions solve on object and take no store option: a stray
        ``backend=`` is an unknown algorithm option, never ignored."""
        with pytest.raises(AlgorithmError, match="unknown options.*backend"):
            IncrementalSolver(polarity_tree(6), paper_library(2),
                              backend=store)
        assert IncrementalSolver(
            polarity_tree(6), paper_library(2)
        ).stats()["backend"] == "object"


# ----------------------------------------------------------------------
# Sibling subtrees sharing a digest
# ----------------------------------------------------------------------


def twin_arm_tree(arms=2):
    """A root with ``arms`` structurally identical subtrees."""
    tree = RoutingTree.with_source(driver=Driver(resistance=150.0))
    for _ in range(arms):
        v = tree.add_internal(0, 5.0, fF(4.0))
        w = tree.add_internal(v, 3.0, fF(2.0))
        tree.add_sink(w, 2.0, fF(1.0), capacitance=fF(10.0),
                      required_arrival=ps(900.0))
        tree.add_sink(w, 2.5, fF(1.5), capacitance=fF(12.0),
                      required_arrival=ps(1100.0))
    return tree


class TestSiblingDigestSharing:
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_edit_in_one_arm_translates_the_other(self, reference):
        library = paper_library(4)
        tree = twin_arm_tree()
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        # Dirty arm 1; arm 2 must be served from the digest-shared
        # cache entry with its *own* node ids in the assignment.
        first_sink = tree.sinks()[0].node_id
        solver.apply(SetSinkRAT(node=first_sink, required_arrival=ps(600.0)))
        result = solver.resolve()
        assert solver.last_spliced_subtrees >= 1
        assert_parity(result, tree, library, "fast", reference)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_three_identical_arms_one_execution(self, reference):
        library = paper_library(4)
        tree = twin_arm_tree(arms=3)
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        result = solver.resolve()
        assert_parity(result, tree, library, "fast", reference)
        # Make every arm dirty-adjacent in turn; each still matches.
        for sink in [arm.node_id for arm in tree.sinks()][:3]:
            solver.apply(SetSinkCap(node=sink, capacitance=fF(17.0)))
            assert_parity(solver.resolve(), tree, library, "fast", reference)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_shared_cache_across_sessions(self, reference):
        """Two sessions over identical nets share frontier entries."""
        library = paper_library(4)
        cache = FrontierCache()
        first = IncrementalSolver(twin_arm_tree(), library, cache=cache)
        first.resolve()
        hits_before = cache.stats()["hits"]
        second = IncrementalSolver(twin_arm_tree(), library, cache=cache)
        result = second.resolve()
        assert cache.stats()["hits"] > hits_before
        assert_parity(result, second.tree, library, "fast", reference)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_sessions_keep_each_others_frontiers(self, reference):
        """A's edits release only A's holds: B's frontiers stay in the
        shared cache, and dropping A leaves exactly B's."""
        library = paper_library(4)
        cache = FrontierCache()
        first = IncrementalSolver(polarity_tree(14), library, cache=cache)
        second = IncrementalSolver(polarity_tree(14), library, cache=cache)
        first.resolve()
        second.resolve()
        assert second.last_executed_fraction == 0.0
        for sink in first.tree.sinks()[:3]:
            first.apply(SetSinkRAT(node=sink.node_id,
                                   required_arrival=sink.required_arrival
                                   * 0.9))
            first.resolve()
        second.apply(SwapDriver(resistance=77.0))
        result = second.resolve()
        assert second.last_executed_fraction == 0.0
        assert_parity(result, second.tree, library, "fast", reference)
        del first
        gc.collect()
        assert set(cache._entries) == session_keys(second)
        assert cache.stats()["held"] == len(session_keys(second))


# ----------------------------------------------------------------------
# Frontier cache behavior
# ----------------------------------------------------------------------


class TestFrontierCache:
    def snapshot(self, k=4):
        return FrontierSnapshot(
            tuple(float(i) for i in range(k)),
            tuple(float(i) for i in range(k)),
            (), None, 0, 1, 1,
        )

    def test_counters_and_hit_rate(self):
        cache = FrontierCache()
        assert cache.get("a") is None
        snapshot = self.snapshot()
        cache.put("a", snapshot)
        assert cache.get("a") is snapshot
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["bytes"] == snapshot.nbytes

    def test_byte_bound_evicts_lru(self):
        snapshot = self.snapshot()
        cache = FrontierCache(max_bytes=3 * snapshot.nbytes)
        for key in ("a", "b", "c"):
            cache.put(key, self.snapshot())
        cache.get("a")  # refresh a; b is now LRU
        cache.put("d", self.snapshot())
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] <= cache.max_bytes

    def test_single_oversized_entry_survives(self):
        cache = FrontierCache(max_bytes=1)
        cache.put("big", self.snapshot(64))
        assert "big" in cache

    def test_entry_bound(self):
        cache = FrontierCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, self.snapshot())
        assert len(cache) == 2 and "a" not in cache

    def test_refresh_replaces_bytes_exactly(self):
        cache = FrontierCache()
        cache.put("a", self.snapshot(4))
        cache.put("a", self.snapshot(8))
        assert cache.stats()["bytes"] == self.snapshot(8).nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontierCache(max_bytes=0)
        with pytest.raises(ValueError):
            FrontierCache(max_entries=0)

    def test_hold_counts(self):
        cache = FrontierCache()
        cache.put("a", self.snapshot())
        cache.hold("a")
        cache.hold("b")  # a key can be held before it has an entry
        stats = cache.stats()
        assert stats["held"] == 2 and stats["entries"] == 1
        assert stats["released"] == 0

    def test_entry_dropped_when_count_reaches_zero(self):
        cache = FrontierCache()
        cache.put("a", self.snapshot())
        cache.put("b", self.snapshot())
        cache.hold("a")
        cache.hold("b")
        cache.release(["a"])
        assert "a" not in cache and "b" in cache
        stats = cache.stats()
        assert stats["held"] == 1 and stats["released"] == 1
        assert stats["bytes"] == self.snapshot().nbytes
        # A released key without an entry drops nothing.
        cache.hold("c")
        cache.release(["c"])
        assert cache.stats()["released"] == 1

    def test_held_entry_evicted_by_bytes_then_reput(self):
        snapshot = self.snapshot()
        cache = FrontierCache(max_bytes=2 * snapshot.nbytes)
        cache.put("a", self.snapshot())
        cache.hold("a")
        cache.put("b", self.snapshot())
        cache.put("c", self.snapshot())
        assert "a" not in cache  # the byte bound evicts held entries too
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["held"] == 1
        cache.put("a", self.snapshot())
        assert "a" in cache
        cache.release(["a"])
        assert "a" not in cache
        assert cache.stats()["released"] == 1

    def test_key_held_twice(self):
        cache = FrontierCache()
        cache.put("a", self.snapshot())
        cache.hold("a")
        cache.hold("a")
        cache.release(["a"])
        assert "a" in cache and cache.stats()["held"] == 1
        cache.release(["a"])
        assert "a" not in cache and cache.stats()["held"] == 0

    def test_release_never_waits_for_the_lock(self):
        """A finalizer may release while its thread is inside a cache
        call; the release is queued and applied by the next call."""
        cache = FrontierCache()
        cache.put("a", self.snapshot())
        cache.hold("a")
        queued = []

        def release_inside_a_call():
            # On a thread of its own, so a release that waited for the
            # lock fails this test instead of hanging the suite.
            with cache._lock:
                cache.release(["a"])
                queued.append("a" in cache._entries)

        thread = threading.Thread(target=release_inside_a_call, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive() and queued == [True]
        assert len(cache) == 0
        assert cache.stats()["held"] == 0


# ----------------------------------------------------------------------
# Frontier lifetime
# ----------------------------------------------------------------------


class TestFrontierLifetime:
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_eco_loop_keeps_one_superseded_path(self, reference):
        """Over a long ECO loop the cache never holds more than the
        current net's frontiers plus the path the latest edit moved."""
        library = paper_library(4)
        tree = polarity_tree(12)
        base = polarity_tree(12)
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        solver.resolve()
        previous = session_keys(solver)
        rng = random.Random(12)
        for step in range(300):
            solver.apply(eco_edit(base, rng))
            result = solver.resolve()
            current = session_keys(solver)
            assert len(cache) <= len(current | previous)
            assert cache.stats()["held"] == len(current | previous)
            if step % 50 == 49:
                assert_parity(result, tree, library, "fast", reference)
            previous = current
        assert cache.stats()["released"] > 0

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_undo_splices_the_previous_state(self, reference):
        library = paper_library(4)
        tree = polarity_tree(13)
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        sink = tree.sinks()[0]
        wire = tree.children_of(tree.root_id)[0]
        edge = tree.edge_to(wire)
        rat, resistance = sink.required_arrival, edge.resistance
        solver.apply(SetSinkRAT(node=sink.node_id,
                                required_arrival=rat * 0.8))
        solver.resolve()
        solver.apply(SetSinkRAT(node=sink.node_id, required_arrival=rat))
        result = solver.resolve()
        assert solver.last_executed_fraction == 0.0
        assert_parity(result, tree, library, "fast", reference)
        # The restored keys were re-held before the old ones went.
        assert session_keys(solver) <= set(solver.cache._entries)
        # A driver swap moves no hold, so it keeps the superseded path.
        solver.apply(SetSinkRAT(node=sink.node_id,
                                required_arrival=rat * 0.9))
        solver.resolve()
        solver.apply(SwapDriver(resistance=95.0))
        solver.resolve()
        solver.apply(SetSinkRAT(node=sink.node_id, required_arrival=rat))
        result = solver.resolve()
        assert solver.last_executed_fraction == 0.0
        assert_parity(result, tree, library, "fast", reference)
        # Two-step undo: the latest state splices in whole, the one
        # before it (released a resolve ago) is partly recomputed.
        solver.apply(SetSinkRAT(node=sink.node_id,
                                required_arrival=rat * 0.7))
        solver.resolve()
        solver.apply(SetWire(node=wire, resistance=resistance * 2.0,
                             capacitance=edge.capacitance))
        solver.resolve()
        solver.apply(SetWire(node=wire, resistance=resistance,
                             capacitance=edge.capacitance))
        result = solver.resolve()
        assert solver.last_executed_fraction == 0.0
        assert_parity(result, tree, library, "fast", reference)
        solver.apply(SetSinkRAT(node=sink.node_id, required_arrival=rat))
        result = solver.resolve()
        assert solver.last_executed_fraction > 0.0
        assert_parity(result, tree, library, "fast", reference)

    def test_resolve_skips_frontiers_the_cache_cannot_keep(self):
        """On a chain too long for the cache, a resolve does not capture
        the frontiers its own later captures would evict; the ones it
        keeps, the capture points nearest the driver, still splice a
        wire edit there."""
        library = paper_library(8)
        tree = two_pin_net(
            length=12000.0, sink_capacitance=fF(20.0),
            required_arrival=ps(1500.0), driver=Driver(resistance=180.0),
            num_segments=200,
        )
        cache = FrontierCache(max_bytes=1 << 17)
        solver = IncrementalSolver(tree, library, cache=cache)
        assert_parity(solver.resolve(), tree, library, "fast", "object")
        stats = cache.stats()
        points = solver._points
        assert len(points) == 1 + 199 // _CAPTURE_SPACING
        # Every capture went into this fresh cache: kept or evicted.  The
        # byte skip binds: some capture points go uncaptured.
        assert stats["entries"] >= 10
        assert stats["entries"] + stats["evictions"] < len(points)
        # What the cache kept is the capture points nearest the driver.
        nearest = sorted(points, key=lambda node: depth_of(tree, node))
        kept = {snapshot.root_id for snapshot in cache._entries.values()}
        assert kept == set(nearest[:len(kept)])
        near_driver = tree.children_of(tree.root_id)[0]
        edge = tree.edge_to(near_driver)
        solver.apply(SetWire(node=near_driver,
                             resistance=edge.resistance * 1.3,
                             capacitance=edge.capacitance))
        result = solver.resolve()
        assert solver.last_spliced_subtrees == 1
        assert solver.last_executed_fraction < 0.05
        assert_parity(result, tree, library, "fast", "object")

    @pytest.mark.parametrize("drop", ("close", "collect"))
    def test_dropped_session_releases_everything(self, drop):
        library = paper_library(4)
        tree = polarity_tree(15)
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        solver.resolve()
        sink = tree.sinks()[0]
        solver.apply(SetSinkCap(node=sink.node_id,
                                capacitance=sink.capacitance * 1.3))
        solver.resolve()
        assert cache.stats()["held"] > 0
        if drop == "close":
            solver.close()
            solver.close()  # idempotent
        else:
            solver.cycle = [solver]  # only the cyclic GC can free it
            del solver
            gc.collect()
        stats = cache.stats()
        assert (stats["entries"], stats["held"], stats["bytes"]) == (0, 0, 0)
        if drop == "close":
            # A closed session still answers, but holds nothing.
            solver.apply(SetSinkCap(node=sink.node_id,
                                    capacitance=sink.capacitance * 0.6))
            assert_parity(solver.resolve(), tree, library, "fast",
                          solver.backend)
            stats = cache.stats()
            assert (stats["entries"], stats["held"]) == (0, 0)

    def test_capture_false_holds_nothing(self):
        cache = FrontierCache()
        solver = IncrementalSolver(polarity_tree(16), paper_library(4),
                                   cache=cache, capture=False)
        solver.resolve()
        assert cache.stats()["held"] == 0 and len(cache) == 0

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_aborted_resolve_moves_no_holds(self, reference):
        library = paper_library(4)
        tree = polarity_tree(17)
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        solver.resolve()
        previous = session_keys(solver)
        sink = tree.sinks()[0]
        solver.apply(SetSinkRAT(node=sink.node_id,
                                required_arrival=sink.required_arrival
                                * 0.8))
        before = cache.stats()
        reads = []

        def clock():
            # Construction and the first two node-final polls see time
            # 0; the third poll is past the deadline.
            reads.append(None)
            return 0.0 if len(reads) <= 3 else 10.0

        with deadline_scope(Deadline(1.0, clock=clock)):
            with pytest.raises(DeadlineExceeded):
                solver.resolve()
        after = cache.stats()
        for field in ("held", "entries", "released", "bytes"):
            assert after[field] == before[field]
        result = solver.resolve()
        assert_parity(result, tree, library, "fast", reference)
        assert cache.stats()["held"] == len(session_keys(solver) | previous)


# ----------------------------------------------------------------------
# Capture points
# ----------------------------------------------------------------------


def branchy_chain_net():
    """A hand-built net: a 20-vertex chain from the source down to a
    branching vertex whose children are a sink, a 10-vertex chain to a
    sink and a 3-vertex chain to a sink.  Every wire differs, so no two
    subtrees share a digest.  Returns the tree, the branching vertex
    and the three chains, each listed bottom-up."""
    tree = RoutingTree.with_source(driver=Driver(resistance=150.0))

    def chain(parent, length, resistance):
        vertices = []
        for step in range(length):
            parent = tree.add_internal(
                parent, resistance + 0.1 * step, fF(3.0 + 0.01 * step)
            )
            vertices.append(parent)
        return vertices[::-1]

    upper = chain(tree.root_id, 20, 4.0)
    branch = tree.add_internal(upper[0], 2.0, fF(1.0))
    tree.add_sink(branch, 1.0, fF(1.0), capacitance=fF(8.0),
                  required_arrival=ps(700.0))
    long_arm = chain(branch, 10, 6.0)
    tree.add_sink(long_arm[0], 1.5, fF(1.2), capacitance=fF(9.0),
                  required_arrival=ps(800.0))
    short_arm = chain(branch, 3, 8.0)
    tree.add_sink(short_arm[0], 1.7, fF(1.4), capacitance=fF(10.0),
                  required_arrival=ps(900.0))
    return tree, branch, upper, long_arm, short_arm


class TestCapturePoints:
    def test_first_resolve_captures_exactly_the_capture_points(self):
        """The root, the branch children and every _CAPTURE_SPACING-th
        vertex up a one-child chain (the branching vertex that ends a
        chain counts as its first vertex, a sink does not); no sink."""
        tree, branch, upper, long_arm, short_arm = branchy_chain_net()
        cache = FrontierCache()
        solver = IncrementalSolver(tree, paper_library(4), cache=cache)
        assert_parity(solver.resolve(), tree, paper_library(4), "fast",
                      "object")
        step = _CAPTURE_SPACING
        expected = {
            tree.root_id, long_arm[-1], short_arm[-1],
            *([branch] + upper)[step - 1::step],
            *long_arm[step - 1::step],
            *short_arm[step - 1::step],
        }
        captured = [snapshot.root_id for snapshot in cache._entries.values()]
        assert sorted(captured) == sorted(expected)
        assert not any(tree.node(node).is_sink for node in captured)
        assert cache.stats()["held"] == len(expected)

    @pytest.mark.parametrize("arm", ("upper", "long_arm"))
    def test_chain_wire_edit_reexecutes_at_most_spacing_minus_one(
        self, arm
    ):
        """A SetWire inside a chain splices the capture point below it:
        the resolve adds at most _CAPTURE_SPACING - 1 positions to the
        path above the edit, and matches a scratch solve bit for bit."""
        library = paper_library(4)
        tree, branch, upper, long_arm, short_arm = branchy_chain_net()
        chain = upper if arm == "upper" else long_arm
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        extras = []
        for node in chain:
            edge = tree.edge_to(node)
            solver.apply(SetWire(node=node,
                                 resistance=edge.resistance * 1.25,
                                 capacitance=edge.capacitance))
            profiler = KernelProfiler()
            with profile_scope(profiler, flush=False):
                result = solver.resolve()
            assert_parity(result, tree, library, "fast", "object")
            # Every vertex but the source is a buffer position, so the
            # path above the edit runs one add-buffer step per vertex
            # strictly between the source and the edited wire.
            path = depth_of(tree, node) - 1
            extras.append(profiler.calls["buffer"] - path)
        assert min(extras) >= 0
        assert max(extras) == _CAPTURE_SPACING - 1

    def test_resolve_span_counts_its_captures(self):
        """The incremental.resolve span reports how many frontiers the
        resolve captured: every capture point on a first resolve, the
        capture points on a sink edit's dirty path, none on a driver
        swap."""
        tree, branch, upper, long_arm, short_arm = branchy_chain_net()
        solver = IncrementalSolver(tree, paper_library(4))
        sink = tree.children_of(long_arm[0])[0]
        tracer = Tracer()
        with trace_scope(tracer):
            solver.resolve()
            solver.apply(SetSinkRAT(node=sink, required_arrival=ps(650.0)))
            solver.resolve()
            solver.apply(SwapDriver(resistance=90.0))
            solver.resolve()
        first, sink_edit, swap = [
            args for name, _, _, _, args in tracer.spans()
            if name == "incremental.resolve"
        ]
        assert first["captured"] == len(solver._points)
        path = []
        node = sink
        while node != tree.root_id:
            node = tree.parent_of(node)
            path.append(node)
        assert sink_edit["captured"] == len(solver._points.intersection(path))
        assert (swap["captured"], swap["executed"], swap["spliced"]) == (
            0, 0, 1
        )

    def test_holds_follow_the_capture_points(self):
        """An AddSink under a chain vertex makes its child a capture
        point though the child's digest did not move: the cache then
        holds and keeps exactly the current and previous capture
        points' keys."""
        library = paper_library(4)
        tree, branch, upper, long_arm, short_arm = branchy_chain_net()
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        solver.resolve()
        previous = session_keys(solver)
        child = upper[1]
        assert child not in solver._points
        solver.apply(AddSink(
            parent=tree.parent_of(child), edge_resistance=3.0,
            edge_capacitance=fF(2.0), capacitance=fF(6.0),
            required_arrival=ps(750.0),
        ))
        assert_parity(solver.resolve(), tree, library, "fast", "object")
        assert child in solver._points
        current = session_keys(solver)
        assert cache.stats()["held"] == len(current | previous)
        assert set(cache._entries) == current | previous
        # Undo: the child leaves the set again and gives up its hold.
        solver.apply(RemoveSubtree(node=tree.children_of(
            tree.parent_of(child))[-1]))
        result = solver.resolve()
        assert solver.last_executed_fraction == 0.0
        assert_parity(result, tree, library, "fast", "object")
        assert child not in solver._points
        assert session_keys(solver) == previous
        assert cache.stats()["held"] == len(current | previous)


# ----------------------------------------------------------------------
# Many sessions on many threads
# ----------------------------------------------------------------------


class TestConcurrentSessions:
    def test_shared_cache_under_thread_churn(self):
        """Sessions on identical nets edit and resolve concurrently on
        one cache with a tiny switch interval; every answer matches
        scratch, and once all are closed nothing is held or kept."""
        library = paper_library(4)
        cache = FrontierCache()
        threads_wanted = (os.cpu_count() or 1) + 2
        stop_at = time.monotonic() + 1.0
        errors = []

        def run(seed):
            try:
                tree = polarity_tree(18)
                base = polarity_tree(18)
                solver = IncrementalSolver(tree, library, cache=cache)
                solver.resolve()
                # Pairs of sessions replay the same edits, so they race
                # on the same keys as well as the shared clean ones.
                rng = random.Random(seed // 2)
                steps = 0
                while steps < 5 or time.monotonic() < stop_at:
                    solver.apply(eco_edit(base, rng))
                    result = solver.resolve()
                    steps += 1
                assert_parity(result, tree, library, "fast", solver.backend)
                solver.close()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(seed,), daemon=True)
                for seed in range(threads_wanted)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert (stats["held"], stats["entries"], stats["bytes"]) == (0, 0, 0)
        assert stats["released"] > 0


# ----------------------------------------------------------------------
# Provenance across resolves
# ----------------------------------------------------------------------


class TestSessionProvenance:
    def test_cached_frontiers_survive_many_resolves(self):
        """Entries captured many resolves ago still splice and backtrace
        correctly, against a scratch solve on every store."""
        library = paper_library(4)
        tree = polarity_tree(7)
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        sinks = [node.node_id for node in tree.sinks()]
        for index, sink in enumerate(sinks * 2):
            solver.apply(SetSinkRAT(
                node=sink, required_arrival=ps(500.0 + 37.0 * index)
            ))
            result = solver.resolve()
            for reference in REFERENCES:
                assert_parity(result, tree, library, "fast", reference)

    def test_provenance_chains_are_depth_bounded(self):
        """Long sessions must not nest provenance without bound: every
        split re-indexes the net, so each later splice wraps its
        decisions in one more SplicedFrontierDecision, and a decision
        whose chain reaches _CHAIN_LIMIT is flattened instead.

        The run climbs a trunk twice, splitting the wire into each
        capture point in turn from the sink up: every split splices the
        capture point it lands on (wrapping its decisions once more)
        and captures the ones above, which the next split splices."""
        library = paper_library(4)
        tree = two_pin_net(
            length=6000.0, sink_capacitance=fF(20.0),
            required_arrival=ps(900.0), driver=Driver(resistance=180.0),
            num_segments=80,
        )
        cache = FrontierCache()
        solver = IncrementalSolver(tree, library, cache=cache)
        solver.resolve()
        sink = tree.sinks()[0].node_id
        deepest = 0
        for _ in range(2):
            node = tree.parent_of(sink)
            while node != tree.root_id:
                if node not in solver._points:
                    node = tree.parent_of(node)
                    continue
                solver.apply(SplitWire(node=node, fraction=0.5))
                result = solver.resolve()
                assert solver.last_spliced_subtrees == 1
                assert_parity(result, tree, library, "fast", "object")
                depth = max(
                    getattr(decision, "chain_depth", 0)
                    for snapshot in cache._entries.values()
                    for decision in snapshot.decisions
                )
                assert depth <= _CHAIN_LIMIT
                deepest = max(deepest, depth)
                node = tree.parent_of(node)
        # The run reaches the cap, so the bound above was exercised.
        assert deepest == _CHAIN_LIMIT


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestEditCLI:
    def test_edit_replay_with_verify(self, tmp_path, capsys):
        from repro.cli import main
        from repro.tree.io import library_to_dict, save_tree

        tree = polarity_tree(9)
        net_path = tmp_path / "net.json"
        save_tree(tree, net_path)
        library_path = tmp_path / "lib.json"
        library_path.write_text(
            json.dumps(library_to_dict(paper_library(4)))
        )
        sink = tree.sinks()[0]
        internal = tree.children_of(tree.root_id)[0]
        edge = tree.edge_to(internal)
        edits_path = tmp_path / "eco.json"
        edits_path.write_text(json.dumps([
            {"op": "set_sink_rat", "node": sink.node_id,
             "required_arrival": sink.required_arrival * 0.8},
            {"op": "set_wire", "node": internal,
             "resistance": edge.resistance * 1.5,
             "capacitance": edge.capacitance},
            {"op": "swap_driver", "resistance": 77.0},
        ]))
        out_path = tmp_path / "out.json"
        code = main([
            "edit", "--net", str(net_path), "--library", str(library_path),
            "--edits", str(edits_path), "--verify",
            "--output", str(out_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "ok" in output and "MISMATCH" not in output
        assert " held, " in output and " released" in output
        payload = json.loads(out_path.read_text())
        assert len(payload["steps"]) == 3
        assert all(step["verified"] for step in payload["steps"])
        assert payload["final_assignment"]

    def test_edit_rejects_bad_script(self, tmp_path, capsys):
        from repro.cli import main
        from repro.tree.io import library_to_dict, save_tree

        tree = polarity_tree(10)
        net_path = tmp_path / "net.json"
        save_tree(tree, net_path)
        library_path = tmp_path / "lib.json"
        library_path.write_text(json.dumps(library_to_dict(paper_library(2))))
        edits_path = tmp_path / "eco.json"
        edits_path.write_text(json.dumps([{"op": "teleport"}]))
        code = main([
            "edit", "--net", str(net_path), "--library", str(library_path),
            "--edits", str(edits_path),
        ])
        assert code == 2
        assert "unknown edit op" in capsys.readouterr().err
