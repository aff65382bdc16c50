"""Canonicalization tests: hash invariance and distinctness.

The contract of :mod:`repro.service.canon`: the key must not move under
anything the solver ignores (names, ids, child order, positions, edge
lengths) and must move under anything electrical (loads, arrivals,
parasitics, flags, polarities, the driver, the library, the request
parameters).  Plus the property the serving cache leans on: canonical
indices translate an assignment between any two trees sharing a key.

Both front-ends are held to that contract: each contract class runs on
trees (``canonicalize``) and, through a subclass that swaps its
``canonicalize`` attribute, on serialized records
(``canonicalize_records``).  ``TestFrontEndsAgree`` checks that the two
return one identity for the same net.
"""

import random

import pytest

from helpers import (
    SLACK_ATOL,
    random_small_tree,
    relabeled,
    restricted_steiner_tree,
)
from repro import (
    Driver,
    RoutingTree,
    balanced_tree_net,
    insert_buffers,
    paper_library,
    random_tree_net,
)
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.service.cache import SolutionPayload
from repro.service.canon import (
    CanonicalNet,
    canonicalize,
    canonicalize_records,
    driver_key,
    library_key,
    options_key,
    request_key,
)
from repro.tree.io import net_records, tree_from_dict, tree_to_dict
from repro.units import fF, ps


def canonicalize_serialized(tree: RoutingTree, memo=None) -> CanonicalNet:
    """The records front-end, on ``tree``'s serialized form, with its
    record positions mapped through the serialized ids (which are
    ``tree``'s node ids)."""
    records = net_records(tree_to_dict(tree))
    canon = canonicalize_records(records, memo=memo)
    node_of_index = tuple(
        records.nodes[position].id for position in canon.node_of_index
    )
    return CanonicalNet(
        canon.key, node_of_index,
        {node: index for index, node in enumerate(node_of_index)},
        canon.subtree_keys,
    )


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
    canonicalize = staticmethod(canonicalize)

    def test_node_renaming_does_not_move_the_key(self):
        tree = branchy_tree()
        twin = relabeled(tree)
        assert self.canonicalize(tree).key == self.canonicalize(twin).key

    def test_child_reordering_does_not_move_the_key(self):
        tree = branchy_tree()
        shuffled = relabeled(tree, rename=False, reverse_children=True)
        assert self.canonicalize(tree).key == self.canonicalize(shuffled).key

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
        assert self.canonicalize(a).key == self.canonicalize(b).key

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
        assert self.canonicalize(a).key == self.canonicalize(b).key

    def test_randomized_corpus_is_rename_and_reorder_invariant(self):
        rng = random.Random(20050307)
        for _ in range(20):
            tree = random_small_tree(rng.randrange(10**6))
            twin = relabeled(tree, rename=True, reverse_children=True)
            assert self.canonicalize(tree).key == self.canonicalize(twin).key


class TestCanonicalDistinctness:
    canonicalize = staticmethod(canonicalize)

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
        base = self.canonicalize(branchy_tree()).key
        assert self.canonicalize(branchy_tree(**{field: value})).key != base

    def test_an_ulp_is_enough(self):
        import math

        c = fF(20.0)
        bumped = math.nextafter(c, math.inf)
        assert (self.canonicalize(branchy_tree(sink1_c=c)).key
                != self.canonicalize(branchy_tree(sink1_c=bumped)).key)

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

        assert (self.canonicalize(build(False)).key
                != self.canonicalize(build(True)).key)


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
            tree, library, backend="auto", policy="never_batch")
        # A concrete store ignores the policy.
        assert request_key(
            tree, library, backend="soa", policy="never_batch"
        ) == request_key(tree, library, backend="soa")


class TestIndexMapping:
    canonicalize = staticmethod(canonicalize)

    def test_indices_are_a_bijection(self):
        tree = random_small_tree(42)
        canon = self.canonicalize(tree)
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
            payload = SolutionPayload.encode(result, self.canonicalize(tree))
            translated = payload.materialize(self.canonicalize(twin), library)
            assert translated.slack == result.slack
            assert translated.num_buffers == result.num_buffers
            # The translated assignment must be *valid on the twin*: the
            # independent timing oracle reproduces the optimal slack.
            report = translated.verify(twin)
            assert report.slack == pytest.approx(result.slack, abs=SLACK_ATOL)


class TestCanonicalInvarianceOfRecords(TestCanonicalInvariance):
    canonicalize = staticmethod(canonicalize_serialized)


class TestCanonicalDistinctnessOfRecords(TestCanonicalDistinctness):
    canonicalize = staticmethod(canonicalize_serialized)


class TestIndexMappingOfRecords(TestIndexMapping):
    canonicalize = staticmethod(canonicalize_serialized)


def reserialized(data: dict, rng: random.Random) -> dict:
    """``data`` re-sent: fresh ids, a mix of ints and strings, and the
    nodes listed in a random parents-first order (which also reorders
    siblings)."""
    nodes = data["nodes"]
    index_of = {node["id"]: index for index, node in enumerate(nodes)}
    children = [[] for _ in nodes]
    for index, node in enumerate(nodes[1:], 1):
        children[index_of[node["edge"]["parent"]]].append(index)
    numbers = rng.sample(range(10**6), len(nodes))
    label = {
        node["id"]: number if number % 2 else f"n{number}"
        for node, number in zip(nodes, numbers)
    }
    order, ready = [0], list(children[0])
    while ready:
        index = ready.pop(rng.randrange(len(ready)))
        order.append(index)
        ready.extend(children[index])
    fresh = []
    for index in order:
        node = dict(nodes[index], id=label[nodes[index]["id"]])
        if "edge" in node:
            edge = node["edge"]
            node["edge"] = dict(edge, parent=label[edge["parent"]])
        fresh.append(node)
    return dict(data, nodes=fresh)


def twin_subtrees_tree() -> RoutingTree:
    """Identical sibling subtrees, two levels deep, under a driver."""
    tree = RoutingTree.with_source(driver=Driver(250.0))
    hub = tree.add_internal(tree.root_id, 50.0, fF(10.0))
    for _ in range(3):
        branch = tree.add_internal(hub, 80.0, fF(15.0))
        for _ in range(2):
            leaf = tree.add_internal(branch, 40.0, fF(6.0),
                                     buffer_position=False)
            tree.add_sink(leaf, 20.0, fF(3.0), capacitance=fF(12.0),
                          required_arrival=ps(800.0))
    return tree


def negative_sinks_tree(seed: int) -> RoutingTree:
    tree = random_tree_net(9, seed=seed,
                           required_arrival=(ps(400.0), ps(2000.0)))
    for rank, sink in enumerate(tree.sinks()):
        if rank % 2:
            tree.set_sink(sink.node_id, polarity=-1)
    return tree


def differential_corpus():
    """Serialized nets covering every payload kind, then re-sends."""
    trees = [random_tree_net(sinks, seed=sinks, driver=Driver(200.0),
                             required_arrival=(ps(500.0), ps(3000.0)))
             for sinks in (1, 4, 13, 40)]
    trees += [random_small_tree(seed) for seed in range(6)]
    trees += [
        restricted_steiner_tree(paper_library(4)),
        twin_subtrees_tree(),
        balanced_tree_net(8),
        negative_sinks_tree(3),
        branchy_tree(polarity=-1, allowed=("b0", "b1")),
    ]
    rng = random.Random(1506)
    corpus = []
    for tree in trees:
        data = tree_to_dict(tree)
        corpus.append(data)
        corpus.append(tree_to_dict(relabeled(tree, reverse_children=True)))
        corpus.extend(reserialized(data, rng) for _ in range(3))
    return corpus


#: Five serializations per tree: as written, relabelled with reversed
#: children, and three re-sends.
CORPUS = differential_corpus()


class TestFrontEndsAgree:
    """``canonicalize_records`` is ``canonicalize`` of the built tree."""

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_same_identity_as_the_built_tree(self, index):
        data = CORPUS[index]
        records = net_records(data)
        canon = canonicalize_records(records)
        tree, id_map = tree_from_dict(data, with_id_map=True)
        built = canonicalize(tree)
        assert canon.key == built.key
        assert canon.subtree_keys == built.subtree_keys
        # Record positions are the built tree's node ids: the canonical
        # order, read in the request's ids, maps through the id map.
        ids = [record.id for record in records.nodes]
        assert tuple(id_map[ids[position]] for position in canon.node_of_index
                     ) == built.node_of_index
        assert canon == built

    def test_serialized_tree_ids_give_an_equal_canon(self):
        # tree_to_dict writes the tree's own ids, so the two canons
        # agree without any relabelling.
        for data in CORPUS[::5]:
            tree = tree_from_dict(data)
            assert canonicalize_serialized(tree) == canonicalize(tree)

    def test_a_shared_memo_changes_nothing(self):
        memo = {}
        shared = [canonicalize_records(net_records(data), memo=memo)
                  for data in CORPUS]
        assert shared == [canonicalize_records(net_records(data))
                          for data in CORPUS]
        assert memo

    def test_re_sends_share_the_key(self):
        for start in range(0, len(CORPUS), 5):
            keys = {canonicalize_records(net_records(data)).key
                    for data in CORPUS[start:start + 5]}
            assert len(keys) == 1

