"""Canonicalization tests: hash invariance and distinctness.

The contract of :mod:`repro.service.canon`: the key must not move under
anything the solver ignores (names, ids, child order, positions, edge
lengths) and must move under anything electrical (loads, arrivals,
parasitics, flags, polarities, the driver, the library, the request
parameters).  Plus the property the serving cache leans on: canonical
indices translate an assignment between any two trees sharing a key.
"""

import random

import pytest

from helpers import SLACK_ATOL, random_small_tree, relabeled
from repro import Driver, RoutingTree, insert_buffers, paper_library
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.service.cache import SolutionPayload
from repro.service.canon import (
    canonicalize,
    driver_key,
    library_key,
    options_key,
    request_key,
)
from repro.units import fF, ps


def branchy_tree(**overrides) -> RoutingTree:
    """A small two-branch tree with every canonical-relevant knob."""
    spec = {
        "driver_r": 180.0,
        "sink1_c": fF(20.0), "sink1_q": ps(900.0),
        "sink2_c": fF(35.0), "sink2_q": ps(1200.0),
        "edge_r": 40.0, "edge_c": fF(8.0),
        "buffer_position": True,
        "allowed": None,
        "polarity": 1,
    }
    spec.update(overrides)
    tree = RoutingTree.with_source(driver=Driver(spec["driver_r"]))
    branch = tree.add_internal(
        tree.root_id, spec["edge_r"], spec["edge_c"],
        buffer_position=spec["buffer_position"], allowed_buffers=spec["allowed"],
    )
    tree.add_sink(branch, 30.0, fF(5.0), capacitance=spec["sink1_c"],
                  required_arrival=spec["sink1_q"], polarity=spec["polarity"])
    tree.add_sink(branch, 60.0, fF(9.0), capacitance=spec["sink2_c"],
                  required_arrival=spec["sink2_q"])
    return tree




class TestCanonicalInvariance:
    def test_node_renaming_does_not_move_the_key(self):
        tree = branchy_tree()
        assert canonicalize(tree).key == canonicalize(relabeled(tree)).key

    def test_child_reordering_does_not_move_the_key(self):
        tree = branchy_tree()
        shuffled = relabeled(tree, rename=False, reverse_children=True)
        assert canonicalize(tree).key == canonicalize(shuffled).key

    def test_node_id_assignment_does_not_move_the_key(self):
        # Same electrical tree, built in a different attach order, so
        # every node gets different ids.
        a = RoutingTree.with_source(driver=Driver(100.0))
        v = a.add_internal(a.root_id, 10.0, fF(2.0))
        a.add_sink(v, 5.0, fF(1.0), capacitance=fF(10.0), required_arrival=ps(700.0))
        a.add_sink(v, 7.0, fF(3.0), capacitance=fF(12.0), required_arrival=ps(800.0))

        b = RoutingTree.with_source(driver=Driver(100.0))
        w = b.add_internal(b.root_id, 10.0, fF(2.0))
        b.add_sink(w, 7.0, fF(3.0), capacitance=fF(12.0), required_arrival=ps(800.0))
        b.add_sink(w, 5.0, fF(1.0), capacitance=fF(10.0), required_arrival=ps(700.0))
        assert canonicalize(a).key == canonicalize(b).key

    def test_positions_and_edge_lengths_are_cosmetic(self):
        a = RoutingTree.with_source()
        v = a.add_internal(a.root_id, 10.0, fF(2.0), length=100.0,
                           position=(0.0, 0.0))
        a.add_sink(v, 5.0, fF(1.0), capacitance=fF(10.0),
                   required_arrival=ps(700.0), length=50.0, position=(3.0, 4.0))

        b = RoutingTree.with_source()
        w = b.add_internal(b.root_id, 10.0, fF(2.0), length=999.0)
        b.add_sink(w, 5.0, fF(1.0), capacitance=fF(10.0),
                   required_arrival=ps(700.0))
        assert canonicalize(a).key == canonicalize(b).key

    def test_randomized_corpus_is_rename_and_reorder_invariant(self):
        rng = random.Random(20050307)
        for _ in range(20):
            tree = random_small_tree(rng.randrange(10**6))
            twin = relabeled(tree, rename=True, reverse_children=True)
            assert canonicalize(tree).key == canonicalize(twin).key


class TestCanonicalDistinctness:
    @pytest.mark.parametrize("field,value", [
        ("sink1_c", fF(21.0)),
        ("sink1_q", ps(901.0)),
        ("edge_r", 41.0),
        ("edge_c", fF(8.5)),
        ("buffer_position", False),
        ("allowed", ("b0",)),
        ("polarity", -1),
    ])
    def test_electrical_changes_move_the_key(self, field, value):
        base = canonicalize(branchy_tree()).key
        assert canonicalize(branchy_tree(**{field: value})).key != base

    def test_an_ulp_is_enough(self):
        import math

        c = fF(20.0)
        bumped = math.nextafter(c, math.inf)
        assert (canonicalize(branchy_tree(sink1_c=c)).key
                != canonicalize(branchy_tree(sink1_c=bumped)).key)

    def test_subtree_swap_across_different_edges_moves_the_key(self):
        # Same multiset of subtrees and edges, attached differently:
        # sink A behind the long wire vs sink B behind the long wire.
        def build(swap: bool) -> RoutingTree:
            tree = RoutingTree.with_source()
            v = tree.add_internal(tree.root_id, 10.0, fF(2.0))
            edges = [(100.0, fF(30.0)), (5.0, fF(1.0))]
            sinks = [(fF(10.0), ps(700.0)), (fF(50.0), ps(2000.0))]
            if swap:
                edges.reverse()
            for (er, ec), (sc, sq) in zip(edges, sinks):
                tree.add_sink(v, er, ec, capacitance=sc, required_arrival=sq)
            return tree

        assert canonicalize(build(False)).key != canonicalize(build(True)).key


class TestLibraryAndRequestKeys:
    def test_library_key_ignores_order_but_not_content(self):
        buffers = [
            BufferType("a", 100.0, fF(5.0), ps(20.0)),
            BufferType("b", 50.0, fF(9.0), ps(30.0)),
        ]
        assert (library_key(BufferLibrary(buffers))
                == library_key(BufferLibrary(reversed(buffers))))
        tweaked = [
            BufferType("a", 100.0, fF(5.0), ps(20.0)),
            BufferType("b", 50.0, fF(9.0), ps(31.0)),
        ]
        assert (library_key(BufferLibrary(buffers))
                != library_key(BufferLibrary(tweaked)))

    def test_library_key_sees_buffer_names(self):
        a = BufferLibrary([BufferType("a", 100.0, fF(5.0), ps(20.0))])
        b = BufferLibrary([BufferType("b", 100.0, fF(5.0), ps(20.0))])
        assert library_key(a) != library_key(b)

    def test_driver_key_ignores_name_only(self):
        assert (driver_key(Driver(100.0, name="drv1"))
                == driver_key(Driver(100.0, name="drv2")))
        assert driver_key(Driver(100.0)) != driver_key(Driver(101.0))
        assert driver_key(None) != driver_key(Driver(0.0))

    def test_options_key_is_order_independent(self):
        assert (options_key({"a": 1, "b": 2})
                == options_key({"b": 2, "a": 1}))
        assert options_key({}) == options_key(None)
        assert options_key({"a": 1}) != options_key({"a": 2})

    def test_request_key_covers_every_axis(self):
        tree = branchy_tree()
        library = paper_library(4)
        base = request_key(tree, library)
        assert request_key(relabeled(tree), library) == base
        assert request_key(tree, paper_library(8)) != base
        assert request_key(tree, library, algorithm="lillis") != base
        assert request_key(tree, library, backend="object") != base
        assert request_key(
            tree, library, options={"destructive_pruning": True}) != base
        assert request_key(tree, library, driver=Driver(999.0)) != base

    def test_auto_backend_hashes_by_its_policy(self):
        """"auto" may run on either store, so it never shares an entry
        with a concrete store, and two policies never share one."""
        from repro.routing.router import DEFAULT_POLICY

        tree = branchy_tree()
        library = paper_library(4)
        auto = request_key(tree, library, backend="auto")
        assert auto != request_key(tree, library, backend="soa")
        assert auto != request_key(tree, library, backend="object")
        assert auto == request_key(
            tree, library, backend="auto", policy=DEFAULT_POLICY)
        assert auto != request_key(
            tree, library, backend="auto", policy="always_object")
        # A concrete store ignores the policy.
        assert request_key(
            tree, library, backend="soa", policy="always_object"
        ) == request_key(tree, library, backend="soa")


class TestIndexMapping:
    def test_indices_are_a_bijection(self):
        tree = random_small_tree(42)
        canon = canonicalize(tree)
        assert sorted(canon.node_of_index) == sorted(
            n.node_id for n in tree.nodes())
        assert all(canon.node_of_index[canon.index_of_node[n]] == n
                   for n in canon.index_of_node)

    def test_payload_translates_between_equivalent_trees(self):
        library = paper_library(4)
        rng = random.Random(77)
        for _ in range(10):
            tree = random_small_tree(rng.randrange(10**6))
            twin = relabeled(tree, rename=True, reverse_children=True)
            result = insert_buffers(tree, library)
            payload = SolutionPayload.encode(result, canonicalize(tree))
            translated = payload.materialize(canonicalize(twin), library)
            assert translated.slack == result.slack
            assert translated.num_buffers == result.num_buffers
            # The translated assignment must be *valid on the twin*: the
            # independent timing oracle reproduces the optimal slack.
            report = translated.verify(twin)
            assert report.slack == pytest.approx(result.slack, abs=SLACK_ATOL)
