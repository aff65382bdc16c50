"""Canonical serialization and stable content hashing of solve requests.

Two requests that describe the *same electrical problem* must map to the
same cache key, even when the JSON they arrived in differs cosmetically:
node names, node ids and the order in which children were attached are
all solver-irrelevant.  Conversely, any change that can change the
optimal buffering — sink loads, required arrivals, wire parasitics,
buffer-position flags, ``allowed_buffers`` sets, sink polarities, the
driver, the library, the algorithm, the backend, the options — must
produce a different key.

:func:`canonicalize` computes a Merkle-style digest bottom-up: every
vertex hashes its own electrical payload together with the *sorted*
digests of its children (each prefixed with the connecting edge's
``R``/``C``), so the digest is invariant under child reordering and never
sees a name or an id.  Floats enter the hash via :meth:`float.hex`, so
two parasitics differing in the last ulp hash differently — the cache
only ever equates requests whose solves are numerically interchangeable.

Because a cached solution stores node *ids*, equating renamed trees
requires a translation step: :func:`canonicalize` therefore also assigns
every node a **canonical index** — its position in a pre-order walk that
visits children in sorted-digest order.  Structurally identical trees
get identical index assignments, so an assignment expressed in canonical
indices (see :class:`~repro.service.cache.SolutionPayload`) can be
encoded from the tree that was solved and materialized onto any other
tree with the same digest.  (When two sibling subtrees are themselves
identical, the sort order between them is arbitrary — and harmless: the
subtrees are interchangeable, so either mapping yields a valid optimal
assignment.)

Excluded from the hash by design: node names, node ids, ``position``
coordinates, edge ``length`` and the driver's ``name`` — the algorithms
never read them (see :mod:`repro.tree.node`).

The digest has two front-ends over one core: :func:`canonicalize` reads
a :class:`~repro.tree.routing_tree.RoutingTree`, and
:func:`canonicalize_records` reads a serialized net's validated records
(:func:`repro.tree.io.net_records`) without building a tree.  They
share the payload and edge texts and the child tie order, so for the
same net both return the same key, subtree keys and canonical order.
The server keys every ``/solve`` and ``/batch`` net from its records
and compiles a miss from the same records
(:func:`repro.core.schedule.compile_records`), so it builds no tree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.library.library import BufferLibrary
from repro.tree.io import NetRecords, NodeRecord
from repro.tree.node import Driver, Node, NodeKind
from repro.tree.routing_tree import RoutingTree

_SOURCE, _SINK = NodeKind.SOURCE, NodeKind.SINK


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _f(value: float) -> str:
    """Exact, repr-independent float encoding for hashing."""
    return float(value).hex()


@dataclass(frozen=True)
class CanonicalNet:
    """The canonical identity of one routing tree.

    Attributes:
        key: Hex digest of the canonical structure; equal for trees that
            differ only in names, ids, child order, positions or edge
            lengths.
        node_of_index: ``node_of_index[i]`` is the tree's node id at
            canonical index ``i`` (pre-order over sorted-digest children);
            from :func:`canonicalize_records`, the record's list position,
            which is the node id of the tree the records build.
        index_of_node: The inverse mapping, ``{node_id: canonical index}``.
        subtree_keys: ``subtree_keys[i]`` is the Merkle digest of the
            subtree rooted at canonical index ``i`` (so
            ``subtree_keys[0] == key``).  Two equal entries — within one
            net or across nets — denote structurally and electrically
            interchangeable subtrees; the incremental engine
            (:mod:`repro.incremental`) keys its frontier memo on these.
    """

    key: str
    node_of_index: Tuple[int, ...]
    index_of_node: Dict[int, int]
    subtree_keys: Tuple[str, ...] = ()

    @property
    def num_nodes(self) -> int:
        return len(self.node_of_index)

    def subtree_key(self, node_id: int) -> str:
        """The Merkle digest of the subtree rooted at ``node_id``."""
        return self.subtree_keys[self.index_of_node[node_id]]


def _payload(node: Union[Node, NodeRecord]) -> str:
    """The canonical payload text of one vertex.

    ``node`` is a tree's :class:`~repro.tree.node.Node` or a serialized
    net's :class:`~repro.tree.io.NodeRecord`; the two share the field
    names read here, so both front-ends hash the same text.
    """
    kind = node.kind
    if kind is _SINK:
        return (
            f"S(c={_f(node.capacitance)},q={_f(node.required_arrival)},"
            f"p={node.polarity:+d})"
        )
    if kind is _SOURCE:
        return "N()"
    allowed = node.allowed_buffers
    allowed_text = "*" if allowed is None else ",".join(sorted(allowed))
    return f"I(bp={int(node.is_buffer_position)},f=[{allowed_text}])"


def _wire(resistance: float, capacitance: float) -> str:
    return f"E(r={_f(resistance)},c={_f(capacitance)})"


def node_payload(tree: RoutingTree, node_id: int) -> str:
    """The canonical payload text of one vertex (public for the
    incremental engine, which recomputes digests along dirty paths)."""
    return _payload(tree.node(node_id))


def wire_text(resistance: float, capacitance: float) -> str:
    """The canonical text of one wire; a child contributes this text
    followed by its subtree digest to its parent's body."""
    return _wire(resistance, capacitance)


def digest_body(body: str) -> str:
    """Hash one canonical body text (the Merkle step, public form)."""
    return _digest(body)


def _canonical_order(
    payloads: List[str],
    wires: List[str],
    parents: List[int],
    memo: Optional[Dict[str, str]],
) -> Tuple[List[int], List[str]]:
    """The digest core both front-ends share.

    Vertices are list positions, every parent before its children
    (``parents[i] < i``; the root is position 0 with parent -1).
    ``payloads[i]`` is vertex ``i``'s payload text and ``wires[i]`` the
    text of the edge into it (``wires[0]`` is unused).  Returns the
    positions in canonical order and the subtree digests aligned with
    them.
    """
    count = len(payloads)
    children: List[List[int]] = [[] for _ in range(count)]
    for position in range(1, count):
        children[parents[position]].append(position)

    # Bottom-up (children sit after their parent, so a reverse sweep
    # sees them first): digest every subtree.  A child contributes
    # through the edge that reaches it, so moving a subtree to a
    # different wire changes the parent digest even when the subtree
    # itself is equal.  The sort is stable: equal siblings keep their
    # list order.
    entry: List[str] = [""] * count  # the edge-prefixed entry strings
    digest: List[str] = [""] * count
    for position in range(count - 1, -1, -1):
        kids = children[position]
        body = payloads[position]
        if kids:
            if len(kids) > 1:
                kids.sort(key=entry.__getitem__)
            body += "[" + "|".join([entry[kid] for kid in kids]) + "]"
        if memo is None:
            hashed = _digest(body)
        else:
            hashed = memo.get(body)
            if hashed is None:
                hashed = memo[body] = _digest(body)
        digest[position] = hashed
        entry[position] = wires[position] + hashed

    # Top-down: number vertices in pre-order, children in sorted order.
    order: List[int] = []
    stack = [0]
    while stack:
        position = stack.pop()
        order.append(position)
        stack.extend(reversed(children[position]))
    return order, [digest[position] for position in order]


def _canonical_net(
    node_of_index: Sequence[int], subtree_keys: Sequence[str]
) -> CanonicalNet:
    node_of_index = tuple(node_of_index)
    return CanonicalNet(
        key=subtree_keys[0],
        node_of_index=node_of_index,
        index_of_node={node: i for i, node in enumerate(node_of_index)},
        subtree_keys=tuple(subtree_keys),
    )


def canonicalize(
    tree: RoutingTree, memo: Optional[Dict[str, str]] = None
) -> CanonicalNet:
    """Compute ``tree``'s canonical digest and node-index assignment.

    Runs in O(n log n) (one post-order pass hashing, one pre-order pass
    numbering; the log factor is the per-vertex child sort).  Both passes
    are iterative — path-shaped nets can be tens of thousands of vertices
    deep.

    Args:
        tree: The routing tree to canonicalize.
        memo: Optional ``{body text: digest}`` table shared across
            calls.  Structurally repeated subtrees produce the same
            body text at every level, so sharing one memo over a batch
            of nets hashes each repeated subtree once per request
            instead of once per occurrence (the server's ``/batch``
            path does this).
    """
    order = tree.preorder()
    position = {node_id: index for index, node_id in enumerate(order)}
    wires = [""]
    parents = [-1]
    for node_id in order[1:]:
        edge = tree.edge_to(node_id)
        wires.append(_wire(edge.resistance, edge.capacitance))
        parents.append(position[edge.parent])
    canonical, keys = _canonical_order(
        [_payload(tree.node(node_id)) for node_id in order], wires, parents,
        memo,
    )
    return _canonical_net([order[index] for index in canonical], keys)


def canonicalize_records(
    records: NetRecords, memo: Optional[Dict[str, str]] = None
) -> CanonicalNet:
    """:func:`canonicalize` over a serialized net, without building a tree.

    ``records`` is :func:`repro.tree.io.net_records`' output.  Node ids
    are list positions, the ids :func:`repro.tree.io.tree_from_records`
    gives, so the result equals ``canonicalize(tree_from_dict(data))``
    bit for bit: key, subtree keys and canonical order.  ``memo`` is
    shared with :func:`canonicalize` on the same terms.
    """
    nodes = records.nodes
    canonical, keys = _canonical_order(
        [_payload(node) for node in nodes],
        [_wire(node.edge_resistance, node.edge_capacitance) for node in nodes],
        [node.parent for node in nodes],
        memo,
    )
    return _canonical_net(canonical, keys)


def library_key(library: BufferLibrary) -> str:
    """Stable digest of a buffer library's electrical content.

    Buffer *names* are included — solutions and ``allowed_buffers``
    restrictions refer to buffers by name, so renaming a buffer type is a
    semantic change.  Construction order is not: the entries are sorted.
    """
    entries = sorted(
        f"B(n={b.name!r},r={_f(b.driving_resistance)},"
        f"c={_f(b.input_capacitance)},k={_f(b.intrinsic_delay)},"
        f"cost={_f(b.cost)},inv={int(b.inverting)},"
        f"ml={'-' if b.max_load is None else _f(b.max_load)})"
        for b in library.buffers
    )
    return _digest("L[" + "|".join(entries) + "]")


def driver_key(driver: Optional[Driver]) -> str:
    """Stable encoding of a driver (its ``name`` is cosmetic: excluded)."""
    if driver is None:
        return "D(-)"
    return f"D(r={_f(driver.resistance)},k={_f(driver.intrinsic_delay)})"


def options_key(options: Optional[Dict[str, object]]) -> str:
    """Stable encoding of algorithm options (key-order independent)."""
    return json.dumps(options or {}, sort_keys=True, default=repr)


def request_key(
    net: Union[RoutingTree, CanonicalNet],
    library: Union[BufferLibrary, str],
    algorithm: str = "fast",
    backend: str = "auto",
    options: Optional[Dict[str, object]] = None,
    driver: Optional[Driver] = None,
) -> str:
    """The cache key of one solve request.

    Covers everything that can influence the returned solution: the
    canonical net digest, the library content, the effective driver, the
    algorithm, the store selection, and the option flags.  All stores
    return bit-identical results, but the key keeps store selections
    apart so a cached payload's ``backend`` is one the request asked
    for: a concrete store keys by its name, and ``"auto"`` keys as
    ``auto/static``, after the static routing rule that picks its
    store (the text is kept byte for byte, so committed and live keys
    stay put).  A cached ``"auto"`` answer reports the store that
    computed it.

    Args:
        net: The routing tree, or an already-computed
            :class:`CanonicalNet` (cheapest when the caller also needs
            the index mapping; pass ``driver`` explicitly then, since a
            ``CanonicalNet`` deliberately carries no driver).
        library: The buffer library, or its already-computed
            :func:`library_key`.
        algorithm: Registered algorithm name.
        backend: Candidate-store backend name or ``"auto"``.
        options: Algorithm-specific flags.
        driver: Effective driver override; defaults to the net's own.
    """
    if backend == "auto":
        backend = "auto/static"
    if not isinstance(library, str):
        library = library_key(library)
    if isinstance(net, CanonicalNet):
        net_key = net.key
        effective_driver = driver
    else:
        net_key = canonicalize(net).key
        effective_driver = driver if driver is not None else net.driver

    parts = (
        f"net={net_key}",
        f"lib={library}",
        f"drv={driver_key(effective_driver)}",
        f"alg={algorithm}",
        f"backend={backend}",
        f"opts={options_key(options)}",
    )
    return _digest(";".join(parts))
