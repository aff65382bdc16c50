"""JSON serialization for routing trees and buffer libraries.

The interchange format is deliberately simple: a dict with a ``nodes``
list (pre-order, so parents always precede children), an optional
``driver``, and a format version.  It exists so workloads can be saved,
diffed and reloaded deterministically; it is not an industry format, but
the structure mirrors what a SPEF/DEF importer would produce.

Reading a net takes two steps.  :func:`net_records` is the one
validating pass over the ``nodes`` list and yields a
:class:`NodeRecord` per node; :func:`tree_from_records` builds the
:class:`~repro.tree.routing_tree.RoutingTree` from those records, and
:func:`tree_from_dict` runs both.  The serving layer keys, answers and
compiles ``/solve`` and ``/batch`` nets from the records alone
(:func:`repro.core.schedule.compile_records` compiles a miss) and
never builds the tree.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import TreeError
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.tree.node import Driver, NodeKind
from repro.tree.routing_tree import RoutingTree

FORMAT_VERSION = 1


def tree_to_dict(tree: RoutingTree) -> Dict[str, Any]:
    """Serialize ``tree`` (including its driver) to plain dicts."""
    nodes = []
    for node_id in tree.preorder():
        node = tree.node(node_id)
        entry: Dict[str, Any] = {
            "id": node.node_id,
            "kind": node.kind.value,
            "name": node.name,
        }
        if node.position is not None:
            entry["position"] = list(node.position)
        if node.kind is NodeKind.SINK:
            entry["capacitance"] = node.capacitance
            entry["required_arrival"] = node.required_arrival
            if node.polarity != 1:
                entry["polarity"] = node.polarity
        if node.kind is NodeKind.INTERNAL:
            entry["buffer_position"] = node.is_buffer_position
            if node.allowed_buffers is not None:
                entry["allowed_buffers"] = sorted(node.allowed_buffers)
        if node_id != tree.root_id:
            edge = tree.edge_to(node_id)
            entry["edge"] = {
                "parent": edge.parent,
                "resistance": edge.resistance,
                "capacitance": edge.capacitance,
                "length": edge.length,
            }
        nodes.append(entry)

    data: Dict[str, Any] = {"format_version": FORMAT_VERSION, "nodes": nodes}
    if tree.driver is not None:
        data["driver"] = {
            "resistance": tree.driver.resistance,
            "intrinsic_delay": tree.driver.intrinsic_delay,
            "name": tree.driver.name,
        }
    return data


class NodeRecord(NamedTuple):
    """One validated entry of a serialized ``nodes`` list.

    The node-level fields carry :class:`~repro.tree.node.Node`'s
    attribute names, so code that reads a vertex's electrical data (the
    canonical payload in :mod:`repro.service.canon`, for one) takes
    either.  Fields that do not apply to the record's kind hold the
    :class:`Node` defaults.

    Attributes:
        id: The serialized id, as sent (any hashable JSON value).
        kind: Source, sink or internal.
        parent: List position of the parent's record; -1 for the source.
        edge_resistance / edge_capacitance: The wire from the parent
            (zeros for the source).
        capacitance / required_arrival / polarity: Sink data.
        is_buffer_position / allowed_buffers: Internal-vertex data.
        name / position / length: Cosmetic data, as sent (``position``
            as a tuple, or ``None``); the hash and the algorithms never
            read them.  ``""`` lets the tree pick its default name.
    """

    id: Hashable
    kind: NodeKind
    parent: int
    edge_resistance: float
    edge_capacitance: float
    length: Any
    capacitance: float
    required_arrival: float
    polarity: int
    is_buffer_position: bool
    allowed_buffers: Optional[FrozenSet[str]]
    name: Any
    position: Optional[Tuple[Any, ...]]


class NetRecords(NamedTuple):
    """A serialized net after :func:`net_records`' validating pass.

    Attributes:
        nodes: One record per serialized node, in list order; list
            position ``i`` becomes node id ``i`` of the tree
            :func:`tree_from_records` builds.
        driver: The serialized driver, or ``None``.
        position_of: ``{serialized id: list position}``.
        num_buffer_positions: Internal nodes that are buffer positions.
    """

    nodes: List[NodeRecord]
    driver: Optional[Driver]
    position_of: Dict[Hashable, int]
    num_buffer_positions: int


_MISSING: Any = object()
_SOURCE, _SINK, _INTERNAL = NodeKind.SOURCE, NodeKind.SINK, NodeKind.INTERNAL


def _real(value: Any, field: str, owner: str, of: Any = None) -> Any:
    """``value`` if it is a real number other than a bool, else raise.

    ``owner`` names the field's holder in the message, with ``of``
    filled into its ``{!r}``; it is formatted only when raising.
    """
    if type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    ):
        return value
    owner = owner.format(of)
    if value is _MISSING:
        raise TreeError(f"{owner} lacks {field!r}")
    raise TreeError(f"{owner}: {field!r} must be a number, got {value!r}")


def _flag(value: Any, field: str, owner: str, of: Any = None) -> bool:
    """``value`` if it is a bool, else raise (``owner`` as in
    :func:`_real`)."""
    if type(value) is not bool:
        raise TreeError(
            f"{owner.format(of)}: {field!r} must be true or false, "
            f"got {value!r}"
        )
    return value


def _position(value: Any, node_id: Hashable) -> Optional[Tuple[Any, ...]]:
    """``value`` as the tree stores it: a tuple, its items unchecked."""
    if value is _MISSING:
        return None
    try:
        return tuple(value)
    except TypeError:
        raise TreeError(
            f"node {node_id!r}: 'position' must be an [x, y] pair, "
            f"got {value!r}"
        ) from None


def _allowed(value: Any, node_id: Hashable) -> FrozenSet[str]:
    if not isinstance(value, (list, tuple)) or any(
        type(name) is not str for name in value
    ):
        raise TreeError(
            f"node {node_id!r}: 'allowed_buffers' must be a list of buffer "
            f"names, got {value!r}"
        )
    return frozenset(value)


def _driver_from_dict(data: Any) -> Driver:
    if not isinstance(data, dict):
        raise TreeError(f"'driver' must be an object, got {data!r}")
    return Driver(
        resistance=_real(
            data.get("resistance", _MISSING), "resistance", "driver"
        ),
        intrinsic_delay=_real(
            data.get("intrinsic_delay", 0.0), "intrinsic_delay", "driver"
        ),
        name=data.get("name", "driver"),
    )


def net_records(data: Dict[str, Any]) -> NetRecords:
    """The one validating pass over a serialized net.

    Checks everything building a :class:`RoutingTree` would: the source
    comes first and only there, parents are listed before their
    children, ids are unique, sinks are exactly the leaves and there is
    at least one, parasitics and sink loads are non-negative,
    ``allowed_buffers`` sits only on buffer positions and a sink's
    polarity is +1 or -1.  It also checks the JSON type of every field
    the hash or the algorithms read: numbers are numbers (not strings
    or booleans), flags are booleans and ``allowed_buffers`` is a list
    of names.  Cosmetic fields (names, positions, edge lengths) are
    taken as sent, as :func:`tree_from_dict` always took them; only a
    position that is not a sequence is rejected.  Fields that do not
    apply to a node's kind are ignored.

    The records carry everything the canonical hash reads
    (:func:`repro.service.canon.canonicalize_records`), so a caller that
    only needs the net's identity never builds the tree.

    Raises:
        TreeError: At the first violation, naming the node.
    """
    if not isinstance(data, dict):
        raise TreeError(
            f"a serialized net must be an object, got {type(data).__name__}"
        )
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TreeError(f"unsupported tree format version: {version!r}")
    driver = _driver_from_dict(data["driver"]) if "driver" in data else None

    nodes = data.get("nodes", _MISSING)
    if not isinstance(nodes, (list, tuple)):
        raise TreeError(
            "'nodes' must be a list of node objects"
            + ("" if nodes is _MISSING else f", got {type(nodes).__name__}")
        )
    if (
        not nodes
        or not isinstance(nodes[0], dict)
        or nodes[0].get("kind") != "source"
    ):
        raise TreeError("first serialized node must be the source")
    source = nodes[0]
    source_id = source.get("id", _MISSING)
    try:
        position_of = {source_id: 0}
    except TypeError:
        raise TreeError(f"source id {source_id!r} is not hashable") from None
    if source_id is _MISSING:
        raise TreeError("the source lacks an 'id'")
    records = [NodeRecord(
        source_id, _SOURCE, -1, 0.0, 0.0, 0.0, 0.0, 0.0, 1, False, None,
        source.get("name", "src"), None,
    )]
    has_child = [False] * len(nodes)
    num_buffer_positions = 0

    for index in range(1, len(nodes)):
        entry = nodes[index]
        if type(entry) is not dict:
            raise TreeError(
                f"nodes[{index}] must be an object, got {type(entry).__name__}"
            )
        node_id = entry.get("id", _MISSING)
        try:
            duplicate = node_id in position_of
        except TypeError:
            raise TreeError(
                f"nodes[{index}]: id {node_id!r} is not hashable"
            ) from None
        if node_id is _MISSING:
            raise TreeError(f"nodes[{index}] lacks an 'id'")
        if duplicate:
            raise TreeError(f"duplicate serialized node id {node_id!r}")
        edge = entry.get("edge")
        if type(edge) is not dict:
            if edge is None:
                raise TreeError(f"non-root node {node_id!r} lacks an edge")
            raise TreeError(f"node {node_id!r}: 'edge' must be an object")
        parent_id = edge.get("parent", _MISSING)
        try:
            parent = position_of.get(parent_id)
        except TypeError:  # an unhashable parent reference
            parent = None
        if parent is None:
            raise TreeError(
                f"node {node_id!r}: parent "
                f"{'missing' if parent_id is _MISSING else repr(parent_id)} "
                "not seen yet (nodes must be serialized parents-first)"
            )
        wire_r = _real(edge.get("resistance", _MISSING), "resistance",
                       "edge to {!r}", node_id)
        wire_c = _real(edge.get("capacitance", _MISSING), "capacitance",
                       "edge to {!r}", node_id)
        if wire_r < 0.0 or wire_c < 0.0:
            raise TreeError(
                f"edge to {node_id!r}: parasitics must be >= 0 "
                f"(R={wire_r}, C={wire_c})"
            )
        length = edge.get("length", 0.0)
        name = entry.get("name", "")
        position = _position(entry.get("position", _MISSING), node_id)

        kind = entry.get("kind", _MISSING)
        if kind == "sink":
            load = _real(entry.get("capacitance", _MISSING), "capacitance",
                         "sink {!r}", node_id)
            if load < 0.0:
                raise TreeError(
                    f"sink {node_id!r}: capacitance must be >= 0, got {load}"
                )
            required = _real(entry.get("required_arrival", _MISSING),
                             "required_arrival", "sink {!r}", node_id)
            polarity = entry.get("polarity", 1)
            if polarity is True:  # +1, as the hash always read it
                polarity = 1
            elif type(polarity) is not int or (
                polarity != 1 and polarity != -1
            ):
                raise TreeError(
                    f"sink {node_id!r}: polarity must be +1 or -1, "
                    f"got {polarity!r}"
                )
            record = NodeRecord(
                node_id, _SINK, parent, wire_r, wire_c, length, load,
                required, polarity, False, None, name, position,
            )
        elif kind == "internal":
            buffer_position = _flag(entry.get("buffer_position", False),
                                    "buffer_position", "node {!r}", node_id)
            allowed = entry.get("allowed_buffers")
            if allowed is not None:
                allowed = _allowed(allowed, node_id)
                if not buffer_position:
                    raise TreeError(
                        f"node {node_id!r}: allowed_buffers set on a "
                        "non-buffer-position vertex"
                    )
            num_buffer_positions += buffer_position
            record = NodeRecord(
                node_id, _INTERNAL, parent, wire_r, wire_c, length, 0.0,
                0.0, 1, buffer_position, allowed, name, position,
            )
        elif kind is _MISSING:
            raise TreeError(f"node {node_id!r} lacks a 'kind'")
        else:
            raise TreeError(f"node {node_id!r}: unknown node kind {kind!r}")
        has_child[parent] = True
        position_of[node_id] = index
        records.append(record)

    num_sinks = 0
    for index, record in enumerate(records):
        if record.kind is _SINK:
            if has_child[index]:
                raise TreeError(
                    f"cannot attach node under sink {record.id!r}: "
                    "sinks are leaves"
                )
            num_sinks += 1
        elif not has_child[index]:
            raise TreeError(
                f"leaf node {record.id!r} ({record.kind.value}) is not a sink"
            )
    if not num_sinks:
        raise TreeError("tree has no sinks")
    return NetRecords(records, driver, position_of, num_buffer_positions)


def tree_from_records(records: NetRecords) -> RoutingTree:
    """Build the :class:`RoutingTree` of a net :func:`net_records` read.

    Nodes are attached in list order, so the record at list position
    ``i`` becomes node id ``i`` and ``records.position_of`` maps each
    serialized id to its node id.  The records were validated when
    they were read; the tree is not validated again.
    """
    nodes = records.nodes
    tree = RoutingTree.with_source(driver=records.driver, name=nodes[0].name)
    for node in nodes[1:]:
        if node.kind is _SINK:
            tree.add_sink(
                node.parent,
                node.edge_resistance,
                node.edge_capacitance,
                capacitance=node.capacitance,
                required_arrival=node.required_arrival,
                name=node.name,
                length=node.length,
                position=node.position,
                polarity=node.polarity,
            )
        else:
            tree.add_internal(
                node.parent,
                node.edge_resistance,
                node.edge_capacitance,
                buffer_position=node.is_buffer_position,
                allowed_buffers=node.allowed_buffers,
                name=node.name,
                length=node.length,
                position=node.position,
            )
    return tree


def tree_from_dict(
    data: Dict[str, Any], with_id_map: bool = False
) -> Union[RoutingTree, Tuple[RoutingTree, Dict[Any, int]]]:
    """Rebuild a tree from :func:`tree_to_dict` output.

    :func:`net_records` validates the data, then
    :func:`tree_from_records` builds the tree.  Node ids are re-assigned
    sequentially but the parents-first layout of the format guarantees
    the same topology and electrical data.

    Args:
        data: The serialized tree.
        with_id_map: Also return ``{serialized id: new node id}``, so a
            caller answering in terms of the *serialized* ids (the HTTP
            serving layer does) can translate back.  Ids in a file are
            arbitrary labels; re-assignment means two files describing
            the same tree load identically, but it also means in-memory
            ids need this map to be reported against the file's ids.

    Returns:
        The tree, or ``(tree, id_map)`` when ``with_id_map`` is true.

    Raises:
        TreeError: The data is not a valid serialized net.
    """
    records = net_records(data)
    tree = tree_from_records(records)
    if with_id_map:
        return tree, records.position_of
    return tree


def library_to_dict(library: BufferLibrary) -> Dict[str, Any]:
    """Serialize a buffer library."""
    return {
        "format_version": FORMAT_VERSION,
        "buffers": [
            {
                "name": b.name,
                "driving_resistance": b.driving_resistance,
                "input_capacitance": b.input_capacitance,
                "intrinsic_delay": b.intrinsic_delay,
                "cost": b.cost,
                "inverting": b.inverting,
                "max_load": b.max_load,
            }
            for b in library.buffers
        ],
    }


def _buffer_from_dict(entry: Any, index: int) -> BufferType:
    if not isinstance(entry, dict):
        raise TreeError(
            f"buffers[{index}] must be an object, got {type(entry).__name__}"
        )
    name = entry.get("name", _MISSING)
    if type(name) is not str:
        raise TreeError(
            f"buffers[{index}] lacks a 'name'" if name is _MISSING
            else f"buffers[{index}]: 'name' must be a string, got {name!r}"
        )

    def number(field: str, default: Any = _MISSING) -> Any:
        return _real(entry.get(field, default), field, "buffer {!r}", name)

    return BufferType(
        name=name,
        driving_resistance=number("driving_resistance"),
        input_capacitance=number("input_capacitance"),
        intrinsic_delay=number("intrinsic_delay"),
        cost=number("cost", 1.0),
        inverting=_flag(entry.get("inverting", False), "inverting",
                        "buffer {!r}", name),
        max_load=(
            None if entry.get("max_load") is None else number("max_load")
        ),
    )


def library_from_dict(data: Dict[str, Any]) -> BufferLibrary:
    """Rebuild a buffer library from :func:`library_to_dict` output.

    Raises:
        TreeError: A field is missing or of the wrong JSON type.
        LibraryError: A value is out of range, or names repeat.
    """
    if not isinstance(data, dict):
        raise TreeError(
            "a serialized library must be an object, "
            f"got {type(data).__name__}"
        )
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TreeError(f"unsupported library format version: {version!r}")
    buffers = data.get("buffers")
    if not isinstance(buffers, (list, tuple)):
        raise TreeError("'buffers' must be a list of buffer objects")
    return BufferLibrary(
        _buffer_from_dict(entry, index) for index, entry in enumerate(buffers)
    )


def tree_to_json(tree: RoutingTree, indent: Union[int, None] = None) -> str:
    """Serialize ``tree`` to a JSON string with deterministic key order.

    ``sort_keys`` makes the text a function of the tree alone, so saved
    nets diff cleanly and byte-equal files imply equal trees.  (Equal
    trees up to naming/ordering are a weaker, solver-level equivalence —
    that is :func:`repro.service.canon.canonicalize`'s job, not this
    format's.)
    """
    return json.dumps(tree_to_dict(tree), indent=indent, sort_keys=True)


def tree_from_json(text: str) -> RoutingTree:
    """Rebuild a tree from :func:`tree_to_json` output."""
    return tree_from_dict(json.loads(text))


def library_to_json(library: BufferLibrary, indent: Union[int, None] = None) -> str:
    """Serialize a buffer library to a JSON string (deterministic keys)."""
    return json.dumps(library_to_dict(library), indent=indent, sort_keys=True)


def library_from_json(text: str) -> BufferLibrary:
    """Rebuild a buffer library from :func:`library_to_json` output."""
    return library_from_dict(json.loads(text))


def save_tree(tree: RoutingTree, path: Union[str, Path]) -> None:
    """Write ``tree`` as JSON to ``path``."""
    Path(path).write_text(tree_to_json(tree, indent=2))


def load_tree(path: Union[str, Path]) -> RoutingTree:
    """Read a tree previously written by :func:`save_tree`."""
    return tree_from_json(Path(path).read_text())
