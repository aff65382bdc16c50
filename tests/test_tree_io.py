"""JSON serialization round-trip tests, and the records pass's checks."""

import pytest

from helpers import malformed_requests
from repro import (
    Driver,
    evaluate_slack,
    insert_buffers,
    load_tree,
    paper_library,
    random_tree_net,
    save_tree,
    two_pin_net,
)
from repro.errors import TreeError
from repro.tree.io import (
    library_from_dict,
    library_to_dict,
    net_records,
    tree_from_dict,
    tree_from_records,
    tree_to_dict,
)
from repro.units import fF, ps


@pytest.fixture
def net():
    return random_tree_net(
        10, seed=4, required_arrival=(ps(100.0), ps(900.0)), driver=Driver(300.0)
    )


def test_round_trip_preserves_counts(net):
    copy = tree_from_dict(tree_to_dict(net))
    assert copy.num_nodes == net.num_nodes
    assert copy.num_sinks == net.num_sinks
    assert copy.num_buffer_positions == net.num_buffer_positions


def test_round_trip_preserves_driver(net):
    copy = tree_from_dict(tree_to_dict(net))
    assert copy.driver == net.driver


def test_round_trip_preserves_optimal_slack(net):
    # The strongest invariant: the reloaded instance is the same problem.
    library = paper_library(4)
    copy = tree_from_dict(tree_to_dict(net))
    original = insert_buffers(net, library)
    reloaded = insert_buffers(copy, library)
    assert reloaded.slack == pytest.approx(original.slack, abs=1e-18)


def test_round_trip_preserves_allowed_buffers():
    from repro import RoutingTree

    tree = RoutingTree.with_source()
    tree.add_internal(0, 1.0, fF(1.0), allowed_buffers=["a", "b"])
    tree.add_sink(1, 1.0, fF(1.0), capacitance=fF(2.0), required_arrival=0.0)
    copy = tree_from_dict(tree_to_dict(tree))
    assert copy.node(1).allowed_buffers == frozenset({"a", "b"})


def test_file_round_trip(tmp_path, net):
    path = tmp_path / "net.json"
    save_tree(net, path)
    copy = load_tree(path)
    assert copy.num_nodes == net.num_nodes
    assert evaluate_slack(copy) == pytest.approx(evaluate_slack(net), abs=1e-18)


def test_rejects_unknown_version(net):
    data = tree_to_dict(net)
    data["format_version"] = 99
    with pytest.raises(TreeError):
        tree_from_dict(data)


def test_rejects_missing_source():
    with pytest.raises(TreeError):
        tree_from_dict({"format_version": 1, "nodes": []})


def test_rejects_orphan_node(net):
    data = tree_to_dict(net)
    del data["nodes"][1]["edge"]
    with pytest.raises(TreeError):
        tree_from_dict(data)


def test_rejects_unknown_kind(net):
    data = tree_to_dict(net)
    data["nodes"][1]["kind"] = "mystery"
    with pytest.raises(TreeError):
        tree_from_dict(data)


def test_positions_preserved():
    net = two_pin_net(length=100.0, num_segments=2)
    copy = tree_from_dict(tree_to_dict(net))
    assert copy.node(1).position == (50.0, 0.0)


def test_library_round_trip():
    library = paper_library(8)
    copy = library_from_dict(library_to_dict(library))
    assert copy == library


def test_library_version_check():
    library = paper_library(2)
    data = library_to_dict(library)
    data["format_version"] = 0
    with pytest.raises(TreeError):
        library_from_dict(data)


def test_records_build_the_same_tree(net):
    data = tree_to_dict(net)
    records = net_records(data)
    tree, id_map = tree_from_dict(data, with_id_map=True)
    assert tree_to_dict(tree_from_records(records)) == tree_to_dict(tree)
    assert records.position_of == id_map
    assert records.num_buffer_positions == net.num_buffer_positions
    assert records.driver == net.driver


def test_records_carry_the_node_fields(net):
    """A record exposes a tree Node's electrical fields under its names."""
    records = net_records(tree_to_dict(net))
    for record in records.nodes:
        node = net.node(record.id)
        for field in ("kind", "capacitance", "required_arrival", "polarity",
                      "is_buffer_position", "allowed_buffers"):
            assert getattr(record, field) == getattr(node, field), field
        if record.parent >= 0:
            edge = net.edge_to(record.id)
            assert records.nodes[record.parent].id == edge.parent
            assert (record.edge_resistance, record.edge_capacitance) == (
                edge.resistance, edge.capacitance)


MALFORMED = malformed_requests()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_rejects_malformed_field(case):
    """Each field that used to escape as KeyError/TypeError, or to be
    misread, is a TreeError; its valid twin still reads."""
    malformed, twin = MALFORMED[case]
    if malformed["library"] != twin["library"]:
        with pytest.raises(TreeError):
            library_from_dict(malformed["library"])
    else:
        with pytest.raises(TreeError):
            net_records(malformed["net"])
        with pytest.raises(TreeError):
            tree_from_dict(malformed["net"])
    tree_from_dict(twin["net"])
    library_from_dict(twin["library"])


def _sink(data):
    return next(n for n in data["nodes"] if n["kind"] == "sink")


def _buffer_position(data):
    return next(n for n in data["nodes"] if n.get("buffer_position"))


@pytest.mark.parametrize("edit", [
    lambda d: _sink(d).pop("id"),
    lambda d: _sink(d).update(id=[1]),
    lambda d: _sink(d)["edge"].update(parent=[0]),
    lambda d: _sink(d)["edge"].pop("parent"),
    lambda d: _sink(d).update(edge=[0, 1.0, 1.0]),
    lambda d: _sink(d)["edge"].update(capacitance=-1e-15),
    lambda d: d["nodes"].__setitem__(1, 5),
    lambda d: _sink(d).update(position=None),
    lambda d: _sink(d).update(capacitance=True),
    lambda d: _sink(d).update(capacitance=-1e-15),
    lambda d: _sink(d).update(polarity=2),
    lambda d: _sink(d).update(polarity="1"),
    lambda d: _sink(d).update(polarity=1.0),
    lambda d: _sink(d).update(required_arrival="1e-9"),
    lambda d: _sink(d).update(kind="source"),
    lambda d: _buffer_position(d).update(allowed_buffers=[1, 2]),
    lambda d: _buffer_position(d).update(buffer_position=1),
    lambda d: d["nodes"].append({"id": "extra", "kind": "sink",
                                 "capacitance": 1e-15,
                                 "required_arrival": 1e-9,
                                 "edge": {"parent": _sink(d)["id"],
                                          "resistance": 1.0,
                                          "capacitance": 1e-15}}),
    lambda d: d["nodes"].append({"id": "leaf", "kind": "internal",
                                 "buffer_position": True,
                                 "edge": {"parent": d["nodes"][0]["id"],
                                          "resistance": 1.0,
                                          "capacitance": 1e-15}}),
    lambda d: d.update(nodes=d["nodes"][:1]),
    lambda d: d.pop("nodes"),
    lambda d: d.update(driver=None),
    lambda d: d["driver"].update(intrinsic_delay="0"),
], ids=[
    "missing-id", "unhashable-id", "unhashable-parent", "missing-parent",
    "edge-as-a-list", "negative-wire-capacitance",
    "node-not-an-object", "null-position", "bool-capacitance",
    "negative-sink-load", "polarity-2", "string-polarity", "float-polarity",
    "string-required-arrival", "second-source", "numeric-allowed-buffers",
    "integer-buffer_position", "node-under-a-sink", "internal-leaf",
    "no-sinks", "no-nodes", "null-driver", "string-driver-delay",
])
def test_rejects_invalid_net(net, edit):
    data = tree_to_dict(net)
    edit(data)
    with pytest.raises(TreeError):
        net_records(data)


@pytest.mark.parametrize("edit", [
    lambda d: _sink(d).update(name=7),
    lambda d: d["nodes"][0].update(name=None),
    lambda d: d["driver"].update(name=["d"]),
    lambda d: _sink(d).update(position=[1.0, 2.0, 3.0]),
    lambda d: _sink(d).update(position="ab"),
    lambda d: _sink(d)["edge"].update(length="long"),
    lambda d: _sink(d).update(polarity=True),
], ids=["numeric-name", "null-source-name", "list-driver-name",
        "position-triple", "string-position", "string-length",
        "true-polarity"])
def test_reads_fields_the_hash_leaves_out_as_sent(net, edit):
    """Names, positions and edge lengths are cosmetic and taken as sent,
    and a polarity of true means +1: the net reads, and keys as the
    unedited one does."""
    from repro.service.canon import canonicalize

    data = tree_to_dict(net)
    edit(data)
    assert canonicalize(tree_from_dict(data)).key == canonicalize(net).key


@pytest.mark.parametrize("edit", [
    lambda d: d["buffers"][0].update(inverting="yes"),
    lambda d: d["buffers"][0].update(max_load="big"),
    lambda d: d["buffers"][0].update(cost=True),
    lambda d: d["buffers"][0].update(name=3),
    lambda d: d["buffers"].__setitem__(0, 5),
    lambda d: d.update(buffers={"a": 1}),
], ids=["string-inverting", "string-max_load", "bool-cost", "numeric-name",
        "buffer-not-an-object", "buffers-not-a-list"])
def test_rejects_invalid_library(edit):
    data = library_to_dict(paper_library(4))
    edit(data)
    with pytest.raises(TreeError):
        library_from_dict(data)

