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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


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
            canonical index ``i`` (pre-order over sorted-digest children).
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


def _node_payload(tree: RoutingTree, node_id: int) -> str:
    node = tree.node(node_id)
    if node.is_sink:
        return (
            f"S(c={_f(node.capacitance)},q={_f(node.required_arrival)},"
            f"p={node.polarity:+d})"
        )
    if node.is_source:
        return "N()"
    allowed = node.allowed_buffers
    allowed_text = "*" if allowed is None else ",".join(sorted(allowed))
    return f"I(bp={int(node.is_buffer_position)},f=[{allowed_text}])"


def node_payload(tree: RoutingTree, node_id: int) -> str:
    """The canonical payload text of one vertex (public for the
    incremental engine, which recomputes digests along dirty paths)."""
    return _node_payload(tree, node_id)


def edge_entry(resistance: float, capacitance: float, digest: str) -> str:
    """The edge-prefixed entry string a child contributes to its parent."""
    return f"E(r={_f(resistance)},c={_f(capacitance)})" + digest


def digest_body(body: str) -> str:
    """Hash one canonical body text (the Merkle step, public form)."""
    return _digest(body)


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
    # Bottom-up: digest every subtree.  A child contributes through the
    # edge that reaches it, so moving a subtree to a different wire
    # changes the parent digest even when the subtree itself is equal.
    entry: Dict[int, str] = {}  # node id -> its edge-prefixed entry string
    digest: Dict[int, str] = {}
    children_sorted: Dict[int, List[int]] = {}
    for node_id in tree.postorder():
        kids = sorted(tree.children_of(node_id), key=entry.__getitem__)
        children_sorted[node_id] = kids
        body = _node_payload(tree, node_id)
        if kids:
            body += "[" + "|".join(entry[child] for child in kids) + "]"
        if memo is None:
            digest[node_id] = _digest(body)
        else:
            hashed = memo.get(body)
            if hashed is None:
                hashed = memo[body] = _digest(body)
            digest[node_id] = hashed
        if node_id != tree.root_id:
            edge = tree.edge_to(node_id)
            entry[node_id] = edge_entry(
                edge.resistance, edge.capacitance, digest[node_id]
            )

    # Top-down: number nodes in pre-order, children in sorted order.
    node_of_index: List[int] = []
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        node_of_index.append(node_id)
        stack.extend(reversed(children_sorted[node_id]))

    return CanonicalNet(
        key=digest[tree.root_id],
        node_of_index=tuple(node_of_index),
        index_of_node={
            node_id: index for index, node_id in enumerate(node_of_index)
        },
        subtree_keys=tuple(digest[node_id] for node_id in node_of_index),
    )


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
    library: BufferLibrary,
    algorithm: str = "fast",
    backend: str = "auto",
    options: Optional[Dict[str, object]] = None,
    driver: Optional[Driver] = None,
    policy: Optional[str] = None,
) -> str:
    """The cache key of one solve request.

    Covers everything that can influence the returned solution: the
    canonical net digest, the library content, the effective driver, the
    algorithm, the store selection, and the option flags.  All stores
    return bit-identical results, but the key keeps store selections
    apart so a cached payload's ``backend`` is one the request asked
    for: a concrete store keys by its name, and ``"auto"`` keys by the
    routing policy that picks the store (``auto/<policy>``), since the
    router may send the same net to ``object`` under one policy and to
    ``soa`` under another.  A cached ``"auto"`` answer reports the store
    that computed it.

    Args:
        net: The routing tree, or an already-computed
            :class:`CanonicalNet` (cheapest when the caller also needs
            the index mapping; pass ``driver`` explicitly then, since a
            ``CanonicalNet`` deliberately carries no driver).
        library: The buffer library.
        algorithm: Registered algorithm name.
        backend: Candidate-store backend name or ``"auto"``.
        options: Algorithm-specific flags.
        driver: Effective driver override; defaults to the net's own.
        policy: The routing policy an ``"auto"`` request is solved
            under; ``None`` means
            :data:`repro.routing.router.DEFAULT_POLICY`.  Ignored for a
            concrete store.
    """
    if backend == "auto":
        from repro.routing.router import DEFAULT_POLICY

        backend = f"auto/{policy if policy is not None else DEFAULT_POLICY}"
    if isinstance(net, CanonicalNet):
        net_key = net.key
        effective_driver = driver
    else:
        net_key = canonicalize(net).key
        effective_driver = driver if driver is not None else net.driver

    parts = (
        f"net={net_key}",
        f"lib={library_key(library)}",
        f"drv={driver_key(effective_driver)}",
        f"alg={algorithm}",
        f"backend={backend}",
        f"opts={options_key(options)}",
    )
    return _digest(";".join(parts))
