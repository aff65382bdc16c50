"""The routing-tree container used by every algorithm in the library."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NodeNotFoundError, TreeError, TreeStructureError
from repro.tree.node import Driver, Node, NodeKind


@dataclass(frozen=True)
class Edge:
    """A wire from ``parent`` to ``child`` with lumped parasitics.

    Attributes:
        parent: Upstream node id.
        child: Downstream node id.
        resistance: Lumped wire resistance in ohms.
        capacitance: Lumped wire capacitance in farads.
        length: Optional physical length in micrometres (builders set it;
            algorithms never read it).
    """

    parent: int
    child: int
    resistance: float
    capacitance: float
    length: float = 0.0

    def __post_init__(self) -> None:
        if self.resistance < 0.0 or self.capacitance < 0.0:
            raise TreeError(
                f"edge {self.parent}->{self.child}: parasitics must be >= 0 "
                f"(R={self.resistance}, C={self.capacitance})"
            )


class RoutingTree:
    """A rooted RC routing tree (paper Section 2).

    The tree is built incrementally: create it with
    :meth:`RoutingTree.with_source`, then hang sinks and internal vertices
    off existing nodes with :meth:`add_sink` / :meth:`add_internal`.  Node
    ids are assigned sequentially by the tree; id 0 is always the source.

    The optional ``driver`` models the source gate; algorithms use it to
    turn the root candidate list into a single slack number.
    """

    def __init__(self, driver: Optional[Driver] = None) -> None:
        self._nodes: Dict[int, Node] = {}
        self._edges: Dict[int, Edge] = {}  # keyed by child id
        self._children: Dict[int, List[int]] = {}
        self._next_id = 0
        self.driver = driver

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def with_source(cls, driver: Optional[Driver] = None, name: str = "src") -> "RoutingTree":
        """Create a tree containing only the source vertex (id 0)."""
        tree = cls(driver=driver)
        tree._add_node(Node(node_id=0, kind=NodeKind.SOURCE, name=name))
        return tree

    def _add_node(self, node: Node) -> int:
        if node.node_id != self._next_id:
            raise TreeStructureError(
                f"internal error: expected node id {self._next_id}, got {node.node_id}"
            )
        self._nodes[node.node_id] = node
        self._children[node.node_id] = []
        self._next_id += 1
        return node.node_id

    def _attach(self, parent: int, edge_resistance: float, edge_capacitance: float,
                node: Node, length: float) -> int:
        if parent not in self._nodes:
            raise NodeNotFoundError(parent)
        if self._nodes[parent].is_sink:
            raise TreeStructureError(
                f"cannot attach node under sink {parent}: sinks are leaves"
            )
        # Build (and thereby validate) the edge *before* registering the
        # node: a rejected attach must leave the tree untouched — no
        # dangling vertex — which is what lets the incremental edit
        # surface promise "the net is left untouched" on failure.
        edge = Edge(
            parent=parent,
            child=node.node_id,
            resistance=edge_resistance,
            capacitance=edge_capacitance,
            length=length,
        )
        node_id = self._add_node(node)
        self._edges[node_id] = edge
        self._children[parent].append(node_id)
        return node_id

    def add_sink(
        self,
        parent: int,
        edge_resistance: float,
        edge_capacitance: float,
        capacitance: float,
        required_arrival: float,
        name: str = "",
        length: float = 0.0,
        position: Optional[Tuple[float, float]] = None,
        polarity: int = 1,
    ) -> int:
        """Attach a sink under ``parent``; returns the new node id.

        ``polarity`` is +1 (default) or -1 for sinks that need the
        inverted signal (see :mod:`repro.core.polarity`).
        """
        node = Node(
            node_id=self._next_id,
            kind=NodeKind.SINK,
            capacitance=capacitance,
            required_arrival=required_arrival,
            name=name or f"sink{self._next_id}",
            position=position,
            polarity=polarity,
        )
        return self._attach(parent, edge_resistance, edge_capacitance, node, length)

    def add_internal(
        self,
        parent: int,
        edge_resistance: float,
        edge_capacitance: float,
        buffer_position: bool = True,
        allowed_buffers: Optional[Iterable[str]] = None,
        name: str = "",
        length: float = 0.0,
        position: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Attach an internal vertex under ``parent``; returns the new id.

        ``buffer_position=False`` makes a pure Steiner point.
        ``allowed_buffers`` restricts which buffer types may be inserted
        (the paper's ``f`` function); ``None`` allows the whole library.
        """
        allowed: Optional[FrozenSet[str]] = (
            frozenset(allowed_buffers) if allowed_buffers is not None else None
        )
        node = Node(
            node_id=self._next_id,
            kind=NodeKind.INTERNAL,
            is_buffer_position=buffer_position,
            allowed_buffers=allowed,
            name=name or f"v{self._next_id}",
            position=position,
        )
        return self._attach(parent, edge_resistance, edge_capacitance, node, length)

    # ------------------------------------------------------------------
    # In-place edits (the ECO surface; see repro.incremental.edits)
    # ------------------------------------------------------------------

    def set_sink(
        self,
        node_id: int,
        capacitance: Optional[float] = None,
        required_arrival: Optional[float] = None,
        polarity: Optional[int] = None,
    ) -> None:
        """Update a sink's electrical payload in place.

        Only the passed fields change.  The node object is rebuilt so
        :class:`~repro.tree.node.Node`'s validation re-runs (negative
        capacitance, bad polarity), and any cached compiled schedule is
        invalidated.

        Raises:
            TreeError: ``node_id`` is not a sink, or a value is invalid.
        """
        node = self.node(node_id)
        if not node.is_sink:
            raise TreeError(f"node {node_id} is not a sink")
        self._nodes[node_id] = replace(
            node,
            capacitance=(
                node.capacitance if capacitance is None else capacitance
            ),
            required_arrival=(
                node.required_arrival
                if required_arrival is None
                else required_arrival
            ),
            polarity=node.polarity if polarity is None else polarity,
        )

    def set_edge(
        self,
        child: int,
        resistance: Optional[float] = None,
        capacitance: Optional[float] = None,
        length: Optional[float] = None,
    ) -> None:
        """Re-parasitize the wire reaching ``child`` in place.

        Models the ECO moves "re-length this segment" and "re-route this
        segment through a different layer": the tree topology is
        untouched, only the lumped ``R``/``C`` (and optional physical
        length) of one existing edge change.

        Raises:
            TreeError: Negative parasitics (edge validation re-runs).
            NodeNotFoundError: ``child`` has no incoming edge.
        """
        edge = self.edge_to(child)
        self._edges[child] = Edge(
            parent=edge.parent,
            child=child,
            resistance=edge.resistance if resistance is None else resistance,
            capacitance=(
                edge.capacitance if capacitance is None else capacitance
            ),
            length=edge.length if length is None else length,
        )

    def split_edge(
        self,
        child: int,
        fraction: float = 0.5,
        buffer_position: bool = True,
        allowed_buffers: Optional[Iterable[str]] = None,
        name: str = "",
    ) -> int:
        """Insert an internal vertex in the middle of the edge to ``child``.

        The classic "add a buffer position" ECO: the edge splits at
        ``fraction`` of its electrical extent — the upstream half gets
        ``R * fraction`` / ``C * fraction``, the downstream half the
        exact remainder (``R - R * fraction``), so total parasitics are
        conserved bit-for-bit.  Returns the new vertex's id.

        Raises:
            TreeError: ``fraction`` outside ``(0, 1)``.
            NodeNotFoundError: ``child`` has no incoming edge.
        """
        if not 0.0 < fraction < 1.0:
            raise TreeError(
                f"split fraction must be inside (0, 1), got {fraction}"
            )
        edge = self.edge_to(child)
        r_up = edge.resistance * fraction
        c_up = edge.capacitance * fraction
        len_up = edge.length * fraction
        allowed: Optional[FrozenSet[str]] = (
            frozenset(allowed_buffers) if allowed_buffers is not None else None
        )
        new_id = self._add_node(Node(
            node_id=self._next_id,
            kind=NodeKind.INTERNAL,
            is_buffer_position=buffer_position,
            allowed_buffers=allowed,
            name=name or f"v{self._next_id}",
        ))
        self._children[new_id] = [child]
        self._edges[new_id] = Edge(
            parent=edge.parent, child=new_id,
            resistance=r_up, capacitance=c_up, length=len_up,
        )
        self._edges[child] = Edge(
            parent=new_id, child=child,
            resistance=edge.resistance - r_up,
            capacitance=edge.capacitance - c_up,
            length=edge.length - len_up,
        )
        # The new vertex takes child's slot in the parent's child list,
        # preserving sibling order (and therefore merge order).
        siblings = self._children[edge.parent]
        siblings[siblings.index(child)] = new_id
        return new_id

    def remove_subtree(self, node_id: int) -> List[int]:
        """Delete ``node_id`` and everything under it; returns the ids.

        The parent must keep at least one other child, so the remaining
        tree still satisfies "every leaf is a sink" without cascading
        deletions.  Removed ids are never reused (``_next_id`` only
        grows).

        Raises:
            TreeError: Removing the root, or the parent would become a
                childless internal vertex.
        """
        if node_id == self.root_id:
            raise TreeError("cannot remove the source vertex")
        parent = self.edge_to(node_id).parent
        if len(self._children[parent]) < 2:
            raise TreeError(
                f"removing node {node_id} would leave vertex {parent} "
                "childless; remove a larger subtree instead"
            )
        removed: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            removed.append(current)
            stack.extend(self._children.pop(current))
            del self._nodes[current]
            del self._edges[current]
        self._children[parent].remove(node_id)
        return removed

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def root_id(self) -> int:
        """The source vertex id (always 0)."""
        return 0

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_sinks(self) -> int:
        """The paper's ``m``."""
        return sum(1 for node in self._nodes.values() if node.is_sink)

    @property
    def num_buffer_positions(self) -> int:
        """The paper's ``n``."""
        return sum(1 for node in self._nodes.values() if node.is_buffer_position)

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def edge_to(self, child: int) -> Edge:
        """The wire from ``child``'s parent down to ``child``."""
        try:
            return self._edges[child]
        except KeyError:
            raise NodeNotFoundError(child) from None

    def parent_of(self, node_id: int) -> Optional[int]:
        """Parent id, or ``None`` for the root."""
        if node_id == self.root_id:
            if node_id not in self._nodes:
                raise NodeNotFoundError(node_id)
            return None
        return self.edge_to(node_id).parent

    def children_of(self, node_id: int) -> Sequence[int]:
        try:
            return tuple(self._children[node_id])
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def nodes(self) -> Iterable[Node]:
        """All nodes in id order."""
        return (self._nodes[i] for i in sorted(self._nodes))

    def sinks(self) -> List[Node]:
        return [node for node in self.nodes() if node.is_sink]

    def buffer_positions(self) -> List[Node]:
        return [node for node in self.nodes() if node.is_buffer_position]

    def total_wire_capacitance(self) -> float:
        return sum(edge.capacitance for edge in self._edges.values())

    def total_wire_length(self) -> float:
        return sum(edge.length for edge in self._edges.values())

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def postorder(self) -> List[int]:
        """Node ids in post-order (children before parents), iteratively.

        Nets can be tens of thousands of vertices deep (a segmented 2-pin
        line is a path), so recursion is avoided throughout the library.
        """
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(self.root_id, False)]
        while stack:
            node_id, expanded = stack.pop()
            if expanded:
                order.append(node_id)
                continue
            stack.append((node_id, True))
            for child in reversed(self._children[node_id]):
                stack.append((child, False))
        return order

    def preorder(self) -> List[int]:
        """Node ids in pre-order (parents before children)."""
        order: List[int] = []
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            for child in reversed(self._children[node_id]):
                stack.append(child)
        return order

    def depth(self) -> int:
        """Maximum number of edges from the root to any leaf."""
        depths = {self.root_id: 0}
        best = 0
        for node_id in self.preorder():
            if node_id == self.root_id:
                continue
            depths[node_id] = depths[self.edge_to(node_id).parent] + 1
            best = max(best, depths[node_id])
        return best

    def path_to_root(self, node_id: int) -> List[int]:
        """Node ids from ``node_id`` up to and including the root."""
        path = [node_id]
        while path[-1] != self.root_id:
            path.append(self.edge_to(path[-1]).parent)
        return path

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TreeStructureError`.

        * node 0 exists, is the unique source and the unique root;
        * every non-root node has exactly one incoming edge;
        * every leaf is a sink and every sink is a leaf;
        * every node is reachable from the root.
        """
        if self.root_id not in self._nodes:
            raise TreeStructureError("tree has no source (node 0)")
        sources = [n for n in self._nodes.values() if n.is_source]
        if len(sources) != 1 or sources[0].node_id != self.root_id:
            raise TreeStructureError("exactly one source at node id 0 is required")
        for node_id in self._nodes:
            if node_id != self.root_id and node_id not in self._edges:
                raise TreeStructureError(f"node {node_id} has no incoming edge")
        reachable = set(self.preorder())
        if reachable != set(self._nodes):
            missing = sorted(set(self._nodes) - reachable)
            raise TreeStructureError(f"nodes unreachable from root: {missing}")
        for node in self._nodes.values():
            is_leaf = not self._children[node.node_id]
            if is_leaf and not node.is_sink:
                raise TreeStructureError(
                    f"leaf node {node.node_id} ({node.kind.value}) is not a sink"
                )
            if node.is_sink and not is_leaf:
                raise TreeStructureError(f"sink {node.node_id} has children")
        if self.num_sinks == 0:
            raise TreeStructureError("tree has no sinks")

    def __repr__(self) -> str:
        return (
            f"RoutingTree(nodes={self.num_nodes}, sinks={self.num_sinks}, "
            f"buffer_positions={self.num_buffer_positions})"
        )
