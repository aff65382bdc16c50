"""The incremental re-solve engine: dirty-path execution with splicing.

:class:`IncrementalSolver` is a stateful session around one net: it
compiles the net's postorder schedule once, memoizes the finished
candidate frontiers of the net's *capture points* (below) in a
digest-keyed :class:`~repro.incremental.subtree_cache.FrontierCache`,
and after each batch of :mod:`~repro.incremental.edits` re-runs **only
the dirty instruction sub-ranges** of the schedule — every clean
captured subtree is a contiguous, skippable range whose cached frontier
is spliced onto the interpreter stack in O(k).  The result — slack,
assignment, driver load, even the ``peak_list_length`` /
``candidates_generated`` DP stats — is bit-identical to a from-scratch
solve of the edited net (asserted exactly, ``==`` not approx, by
``tests/test_incremental.py``).

**How dirtiness works.**  The engine maintains a Merkle digest per
subtree and updates it along the edited node's root path (O(depth) per
edit).  At resolve time nothing is explicitly marked dirty: the
interpreter simply probes the frontier cache at every capture point's
subtree start — an edited subtree's digest changed, so it *misses* and
is re-executed (and re-captured), while unchanged subtrees hit and are
skipped.  The digest is the invalidation.  This also means
structurally repeated subtrees — sibling copies, or the same subtree
across different sessions sharing one cache — are solved once and
spliced everywhere else.  Each vertex's payload text and the text of
the wire into it are kept between edits and dropped only when an edit
names, creates or removes the vertex, so re-hashing the dirty path
formats no floats but the edited ones.

**Capture points.**  A later resolve splices a frontier only where an
edit can leave a subtree clean beside or below a dirty path, so a
resolve captures (and a session holds) frontiers only there:

* the **root**, which a driver swap or an undo splices whole;
* every **non-sink child of a branching vertex**, which a sink edit
  elsewhere splices as a sibling of its dirty path;
* every :data:`_CAPTURE_SPACING`-th vertex **up a one-child chain**,
  counted from its bottom (a branching vertex that ends the chain is
  its first vertex; a sink is not counted), so a wire edit inside a
  chain splices the capture point below it and re-executes at most
  ``_CAPTURE_SPACING - 1`` positions more than the path above the edit.

Sinks are never captured: their ``SINK`` instruction costs O(1), less
than a cache probe.  Capturing every vertex would copy, cache and hold
the whole dirty path on every resolve, though the next resolve splices
only a handful of those frontiers.

**Why the digest is order-sensitive.**  Unlike
:func:`repro.service.canon.canonicalize` (which sorts children so
cosmetic reordering hits one cache entry), the frontier digest hashes
children in **tree order**: the DP folds sibling branches left to
right, and float addition is not associative, so frontiers of two
subtrees that are equal only up to child reordering can differ in the
last ulp.  Keying on the order-sensitive digest is what lets a spliced
frontier replay the exact IEEE-754 data flow of a scratch solve.  (The
canonical sorted digest remains the *request*-level key — see
:attr:`~repro.service.canon.CanonicalNet.subtree_keys`.)

**Provenance across solves.**  Sessions run on the object store, whose
decisions are immutable tuples that outlive the solve that built them,
so a cached frontier keeps its decisions as they are.  They name node
ids of the tree it was captured from.  Splicing into a digest-equal
subtree elsewhere wraps each decision in a
:class:`SplicedFrontierDecision`, which translates ids through
tree-preorder indices at backtrace time — O(answer), only for the
winning candidate.  Splices into the *same* vertex of an unchanged
index reuse the decisions unwrapped.  A wrapper chain that reaches
:data:`_CHAIN_LIMIT` generations is flattened instead of nested
further.

**Frontier lifetime.**  Each capture point of a session holds the
cache key of its current subtree (:meth:`FrontierCache.hold`).  After a
resolve, the capture points whose digest moved move their holds to the
new keys, and holds follow the capture points themselves when a
structural edit changes the set: a vertex that becomes one (an
``AddSink`` under a chain vertex makes its child a branch child) takes
a hold though its digest did not move, and one that stops being one
gives its hold up.  The keys left behind stay held until the next
resolve that moves holds (a driver swap moves none), so undoing the
latest edit still splices the whole previous state, while older states
are recomputed.  :meth:`IncrementalSolver.close` — or the solver's
finalizer, when a session is dropped without it — releases every hold.
A resolve does not capture a frontier that its own later captures would
evict from the byte-bounded cache (on a long trunk, all but the capture
points nearest the driver): that frontier would be copied only to be
dropped, and the copies would keep the cyclic GC busy for as long as
the resolve runs.
"""

from __future__ import annotations

import time
import weakref
from contextlib import nullcontext
from typing import Dict, Hashable, List, Optional, Set, Tuple, Union

from repro.core.candidate import ExpandedDecision, reconstruct_assignment
from repro.core.dp import _execute_schedule, _finish, _resolve_ops
from repro.core.registry import get_algorithm
from repro.core.schedule import CompiledNet, compile_net
from repro.core.solution import BufferingResult
from repro.core.stores import SPLICE_BACKEND
from repro.errors import AlgorithmError, EditError
from repro.incremental.edits import (
    Edit,
    EditImpact,
    SetSinkCap,
    SetSinkRAT,
    SetWire,
    SplitWire,
    edit_from_dict,
)
from repro.incremental.subtree_cache import (
    FrontierCache,
    FrontierSnapshot,
    snapshot_bytes,
)
from repro.library.library import BufferLibrary
from repro.obs.spans import active_tracer
from repro.service.canon import (
    digest_body,
    library_key,
    node_payload,
    options_key,
    wire_text,
)
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree

#: Maximum provenance-chain depth before flattening.  Each structural
#: edit re-indexes the net, so every frontier spliced after it wraps
#: its decisions in one more :class:`SplicedFrontierDecision`;
#: unbounded, a long-lived session would pin one index per generation
#: and expand ever deeper chains.  A decision at the cap is expanded
#: into an :class:`~repro.core.candidate.ExpandedDecision` at splice
#: time instead (O(answer) once, at most one flatten per cap-many
#: generations).
_CHAIN_LIMIT = 8

#: Spacing of capture points up a one-child chain (see the module
#: docstring).  Wider spacing captures less per resolve, narrower
#: re-executes less below a wire edit.  Swept over 4, 8, 16 and 32 on
#: the Table-1 net's ECO loop and BENCH_PR5's Figure 4 trunk replay: 4
#: lost on both, 8, 16 and 32 came within a few percent of each other,
#: and 8 keeps the tightest bound on a wire edit's extra work.
_CAPTURE_SPACING = 8


def _capture_points(tree: RoutingTree) -> Set[int]:
    """The vertices whose frontiers a session captures and holds: the
    root, every non-sink child of a branching vertex, and every
    :data:`_CAPTURE_SPACING`-th vertex up a one-child chain."""
    points = {tree.root_id}
    # run[v]: the positions from v down to the nearest capture point or
    # sink below it, v included (0 when v is one of those itself).
    run: Dict[int, int] = {}
    for node in tree.postorder():
        children = tree.children_of(node)
        if len(children) == 1:
            count = run[children[0]] + 1
            if count >= _CAPTURE_SPACING:
                points.add(node)
                count = 0
        elif children:
            points.update(
                child for child in children if not tree.node(child).is_sink
            )
            count = 1
        else:
            count = 0
        run[node] = count
    return points


class TreeIndex:
    """A frozen tree-preorder numbering of one net state.

    Preorder makes every subtree a contiguous index block, so two
    digest-equal subtrees (identical shape *in tree order*) correspond
    position-by-position: node at relative index ``r`` of one maps to
    relative index ``r`` of the other.  Snapshots pin the index of the
    state they were captured from; one instance is shared by all
    snapshots of a resolve, and payload-only edits reuse it outright
    (ids and order don't move).
    """

    __slots__ = ("node_of_index", "index_of_node")

    def __init__(self, node_of_index: Tuple[int, ...]) -> None:
        self.node_of_index = node_of_index
        self.index_of_node = {
            node_id: index for index, node_id in enumerate(node_of_index)
        }


class SplicedFrontierDecision:
    """Provenance of a spliced candidate: translate ids at backtrace.

    Wraps a captured decision DAG together with the capture-time and
    splice-time :class:`TreeIndex` anchors.  ``expand`` (the deferred
    hook of :func:`repro.core.candidate.reconstruct_assignment`) expands
    the inner decision into the capture tree's ids, then maps each
    assigned node through its preorder offset onto the splice target's
    subtree — the step that makes one cache entry serve every
    digest-equal subtree instance with correct node ids.

    ``chain_depth`` counts nested wrapper generations; once it reaches
    :data:`_CHAIN_LIMIT`, the engine flattens the splice to an
    :class:`~repro.core.candidate.ExpandedDecision` instead of nesting
    further, bounding both retained memory and the expansion recursion
    however long a session lives.
    """

    __slots__ = ("decision", "src_index", "src_root", "dst_index",
                 "dst_root", "library", "chain_depth")

    def __init__(
        self,
        decision: object,
        src_index: TreeIndex,
        src_root: int,
        dst_index: TreeIndex,
        dst_root: int,
        library: BufferLibrary,
    ) -> None:
        self.decision = decision
        self.src_index = src_index
        self.src_root = src_root
        self.dst_index = dst_index
        self.dst_root = dst_root
        self.library = library
        self.chain_depth = 1 + getattr(decision, "chain_depth", 0)

    def expand(self, assignment: Dict[int, object], stack: list) -> None:
        inner = reconstruct_assignment(self.decision, self.library)
        if not inner:
            return
        src_of = self.src_index.index_of_node
        dst_nodes = self.dst_index.node_of_index
        offset = (
            self.dst_index.index_of_node[self.dst_root]
            - src_of[self.src_root]
        )
        for node_id, buffer in inner.items():
            assignment[dst_nodes[src_of[node_id] + offset]] = buffer

    def __repr__(self) -> str:
        return (
            f"SplicedFrontierDecision({self.src_root}->{self.dst_root})"
        )


def splice_snapshot(snapshot: FrontierSnapshot, decisions=None) -> list:
    """Build a frozen frontier back into a live object-store list.

    The splice primitive shared by the incremental engine and the
    parallel partitioned solver: turns a
    :class:`~repro.incremental.subtree_cache.FrontierSnapshot`'s
    columns back into the ``(q, c, decision)`` tuples the object store
    pushes on its interpreter stack.  The floats are the captured
    floats, so every downstream operation sees bit-identical inputs.

    ``decisions`` overrides the snapshot's own provenance — the
    incremental engine passes id-translated wrappers here; callers
    splicing in original coordinates (the parallel solver — subschedule
    extraction preserves node ids) leave it ``None``.
    """
    if decisions is None:
        decisions = snapshot.decisions
    return list(zip(snapshot.q, snapshot.c, decisions))


def _release_holds(
    cache: FrontierCache,
    holds: Dict[int, Hashable],
    superseded: List[Hashable],
) -> None:
    """Release a session's holds (its :meth:`~IncrementalSolver.close`
    and its finalizer; refers to nothing that keeps the solver alive)."""
    keys = [*holds.values(), *superseded]
    holds.clear()
    superseded.clear()
    cache.release(keys)


class IncrementalSolver:
    """A stateful ECO session: apply edits, re-solve the dirty path.

    Typical use::

        solver = IncrementalSolver(tree, library, algorithm="fast")
        baseline = solver.resolve()            # full solve, frontiers memoized
        solver.apply(SetWire(node=17, resistance=3.1, capacitance=4.2e-15))
        updated = solver.resolve()             # pays only the dirty path

    The session owns its tree (edits mutate it in place), a private
    :class:`~repro.core.schedule.CompiledNet` (payload edits are O(1)
    array patches; structural edits re-flatten) and a
    :class:`~repro.incremental.subtree_cache.FrontierCache` — pass a
    shared cache to pool frontier memory across sessions (the server
    does).  The session holds its current frontiers in that cache (see
    the module docstring) until :meth:`close` or until it is collected.
    It solves on the object store (:attr:`backend`), the one store
    that freezes and splices frontiers.

    Args:
        tree: The net; validated once here, mutated by :meth:`apply`.
        library: The buffer library (fixed for the session's lifetime).
        algorithm: A registered algorithm exposing ``add_buffer_op``
            (all built-ins do).
        driver: Fixed driver override; default ``None`` follows
            ``tree.driver`` (so :class:`~repro.incremental.edits.SwapDriver`
            edits take effect).
        cache: Shared :class:`FrontierCache`; a private one by default.
        capture: Memoize frontiers while solving (disable for pure
            replay measurements; such a session holds nothing).
        **options: Algorithm options (part of every cache key).

    Raises:
        AlgorithmError: Unknown algorithm, invalid options, or an
            algorithm without ``add_buffer_op``.
    """

    #: The candidate store every session solves on.
    backend = SPLICE_BACKEND

    def __init__(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        algorithm: str = "fast",
        driver: Optional[Driver] = None,
        cache: Optional[FrontierCache] = None,
        capture: bool = True,
        **options,
    ) -> None:
        self.tree = tree
        self.library = library
        self.algorithm = algorithm
        self.driver = driver
        self.capture = capture
        self.options = dict(options)
        strategy = get_algorithm(algorithm)
        strategy.validate_options(options)
        self._add_buffer = strategy.add_buffer_op(
            self.backend, library, **options
        )
        self._label = strategy.stats_label(**options)
        self.cache = cache if cache is not None else FrontierCache()
        self._context_key = digest_body(";".join((
            f"lib={library_key(library)}",
            f"alg={algorithm}",
            f"backend={self.backend}",
            f"opts={options_key(options)}",
        )))
        try:
            tree.validate()
        except Exception as exc:
            raise AlgorithmError(f"invalid routing tree: {exc}") from exc
        self.compiled: CompiledNet = compile_net(tree, library, validate=False)
        self._digest: Dict[int, str] = {}
        self._entry: Dict[int, str] = {}
        #: node -> its payload text, and the text of the wire into it.
        self._payload: Dict[int, str] = {}
        self._wire: Dict[int, str] = {}
        #: Nodes whose digest or capture-point status may have moved
        #: since the last resolve.
        self._moved: Set[int] = set()
        for node_id in tree.postorder():
            self._digest_node(node_id)
        #: The capture points of the schedule the probes were built for.
        self._points: Set[int] = set()
        #: capture point -> the cache key it holds, and the keys the
        #: latest resolve that moved holds left (released by the next).
        self._holds: Dict[int, Hashable] = {}
        self._superseded: List[Hashable] = []
        self._finalizer = weakref.finalize(
            self, _release_holds, self.cache, self._holds, self._superseded
        )
        self._index: Optional[TreeIndex] = None
        self._index_stale = True
        self._schedule_stale = False
        self._probe: Optional[Dict[int, List[int]]] = None
        self._final_node: Optional[Dict[int, Tuple[int, int]]] = None
        self._stale = True
        self._last_result: Optional[BufferingResult] = None
        #: Session counters (surfaced by /stats and `repro edit`).
        self.resolves = 0
        self.edits_applied = 0
        self.last_executed_fraction = 1.0
        self.last_spliced_subtrees = 0
        self._executed_instructions = 0
        self._total_instructions = 0

    # -- digest maintenance --------------------------------------------

    def _refresh_entry(self, node_id: int) -> None:
        """Re-derive the entry ``node_id`` contributes to its parent's
        body: the text of its wire, then its digest."""
        wire = self._wire.get(node_id)
        if wire is None:
            edge = self.tree.edge_to(node_id)
            wire = self._wire[node_id] = wire_text(
                edge.resistance, edge.capacitance
            )
        self._entry[node_id] = wire + self._digest[node_id]

    def _digest_node(self, node_id: int) -> None:
        """Hash one vertex's order-sensitive Merkle body (see module
        docstring for why children are *not* sorted here)."""
        body = self._payload.get(node_id)
        if body is None:
            body = self._payload[node_id] = node_payload(self.tree, node_id)
        children = self.tree.children_of(node_id)
        if children:
            entry = self._entry
            body += "[" + "|".join([entry[child] for child in children]) + "]"
        self._digest[node_id] = digest_body(body)
        self._moved.add(node_id)
        if node_id != self.tree.root_id:
            self._refresh_entry(node_id)

    def _recompute_up(self, node_id: int) -> None:
        """Refresh digests from ``node_id`` to the root (the dirty path)."""
        tree = self.tree
        current: Optional[int] = node_id
        while current is not None:
            self._digest_node(current)
            current = (
                None if current == tree.root_id
                else tree.edge_to(current).parent
            )

    # -- edits ---------------------------------------------------------

    def apply(self, edit: Union[Edit, Dict]) -> EditImpact:
        """Apply one edit to the session's net.

        Accepts an :class:`~repro.incremental.edits.Edit` or its JSON
        dict form.  Digests along the dirty path are refreshed, and the
        compiled schedule is patched in place (payload edits) or marked
        for re-flattening (structural edits).  The next
        :meth:`resolve` pays only for what changed.

        Raises:
            EditError: The edit is malformed or does not apply; the net
                is left untouched in that case.
        """
        if isinstance(edit, dict):
            edit = edit_from_dict(edit)
        if not isinstance(edit, Edit):
            raise EditError(f"not an edit: {edit!r}")
        impact = edit.apply(self.tree)
        self.edits_applied += 1
        self._stale = True

        for node_id in impact.removed:
            for texts in (self._digest, self._entry, self._payload,
                          self._wire):
                texts.pop(node_id, None)
            self._moved.add(node_id)
        named = getattr(edit, "node", None)
        if named is not None and named not in impact.removed:
            # The one vertex whose own texts the edit changed.
            self._payload.pop(named, None)
            self._wire.pop(named, None)
            if isinstance(edit, (SetWire, SplitWire)):
                # The child keeps its digest; only its wire-prefixed
                # entry (and everything above) changes.
                self._refresh_entry(named)
        for node_id in impact.created:
            self._digest_node(node_id)
        if impact.anchor is not None:
            self._recompute_up(impact.anchor)

        if impact.structural:
            self._schedule_stale = True
            self._index_stale = True
        elif self._schedule_stale:
            # A re-flatten is already pending (earlier structural edit):
            # it will pick up this payload change from the tree, and the
            # old schedule may not even contain the edited node.
            pass
        elif isinstance(edit, (SetSinkRAT, SetSinkCap)):
            node = self.tree.node(edit.node)
            self.compiled.patch_sink(
                edit.node, node.required_arrival, node.capacitance
            )
        elif isinstance(edit, SetWire):
            self.compiled.patch_wire(
                edit.node, edit.resistance, edit.capacitance
            )
        # SetSinkPolarity and SwapDriver leave the schedule untouched:
        # polarity is outside the compiled payloads, the driver only
        # scores the finished root frontier.
        return impact

    def apply_edits(self, edits) -> List[EditImpact]:
        """Apply a sequence of edits (see :meth:`apply`)."""
        return [self.apply(edit) for edit in edits]

    # -- schedule / index upkeep ---------------------------------------

    def _ensure_schedule(self) -> None:
        if not self._schedule_stale:
            return
        # Structural edits went through the validated mutation API, but
        # re-validating here is cheap relative to a re-flatten and keeps
        # invariant violations loud at the earliest boundary.
        self.compiled = compile_net(self.tree, self.library, validate=True)
        self._schedule_stale = False
        self._probe = None
        self._final_node = None

    def _frozen_index(self) -> TreeIndex:
        if self._index is None or self._index_stale:
            self._index = TreeIndex(tuple(self.tree.preorder()))
            self._index_stale = False
        return self._index

    def _probes(self) -> Dict[int, List[int]]:
        """``instruction -> [capture points whose subtree starts here]``,
        outermost first (so the largest clean subtree wins the splice).
        Also maps each capture point's final instruction to ``(node,
        number of capture-point ancestors)``."""
        if self._probe is None:
            tree = self.tree
            points = _capture_points(tree)
            # Vertices that joined or left the set move their holds at
            # the next resolve that completes, like moved digests.
            self._moved |= points ^ self._points
            self._points = points
            start = self.compiled.start_of_node
            final = self.compiled.final_of_node
            by_start: Dict[int, List[int]] = {}
            for node in points:
                by_start.setdefault(start[node], []).append(node)
            for nodes in by_start.values():
                nodes.sort(key=final.__getitem__, reverse=True)
            self._probe = by_start
            above: Dict[int, int] = {}
            for node in tree.preorder():
                parent = tree.parent_of(node)
                above[node] = (
                    0 if parent is None else above[parent] + (parent in points)
                )
            self._final_node = {
                final[node]: (node, above[node]) for node in points
            }
        return self._probe

    # -- splice / capture ----------------------------------------------

    def _splice(
        self, snapshot: FrontierSnapshot, target_root: int, index: TreeIndex
    ):
        decisions = snapshot.decisions
        if snapshot.canon is not index or snapshot.root_id != target_root:
            src_of = snapshot.canon.index_of_node
            dst_nodes = index.node_of_index
            offset = index.index_of_node[target_root] - src_of[snapshot.root_id]
            wrapped = []
            for decision in decisions:
                if getattr(decision, "chain_depth", 0) >= _CHAIN_LIMIT:
                    # Cap the provenance chain: expand + translate now
                    # (O(answer) once) instead of nesting another
                    # generation of wrappers.
                    wrapped.append(ExpandedDecision({
                        dst_nodes[src_of[node_id] + offset]: buffer
                        for node_id, buffer in reconstruct_assignment(
                            decision, self.library
                        ).items()
                    }))
                else:
                    wrapped.append(SplicedFrontierDecision(
                        decision, snapshot.canon, snapshot.root_id,
                        index, target_root, self.library,
                    ))
            decisions = wrapped
        return splice_snapshot(snapshot, decisions=decisions)

    # -- dirty-path resolve --------------------------------------------

    def resolve(self) -> BufferingResult:
        """Solve the current net, reusing every memoized clean subtree.

        Bit-identical to ``insert_buffers(tree, library, ...)`` on the
        edited net — including the DP stats, except ``runtime_seconds``
        which reports this (much shorter) resolve.  With no edits since
        the last resolve, returns the previous result without solving.

        The DP's one interpreter (:func:`repro.core.dp._execute_schedule`)
        does the work: a splice callback at every capture point's
        subtree start pushes the outermost cached frontier and skips its
        range, and the node-final hook captures every capture point's
        frontier not cached yet that the cache can keep to the end of
        the resolve (see the module docstring for which vertices are
        capture points).
        """
        if self._last_result is not None and not self._stale:
            return self._last_result
        self._ensure_schedule()
        index = self._frozen_index()
        compiled = self.compiled
        probes = self._probes()
        final_node = self._final_node
        final_of_node = compiled.final_of_node
        digest = self._digest
        cache = self.cache
        context = self._context_key
        driver = self.driver if self.driver is not None else self.tree.driver
        tracer = active_tracer()

        skipped = 0  # instructions jumped over by splices
        spliced = 0

        def probe(start: int, nodes: List[int]):
            def hook():
                nonlocal skipped, spliced
                for node in nodes:
                    snapshot = cache.get((digest[node], context))
                    if snapshot is not None:
                        break
                else:
                    return None
                with (
                    tracer.span("splice", node=node, size=len(snapshot.q))
                    if tracer is not None
                    else nullcontext()
                ):
                    store = self._splice(snapshot, node, index)
                final = final_of_node[node]
                skipped += final + 1 - start
                spliced += 1
                return store, snapshot.peak, snapshot.generated, final

            return hook

        # Captures collect here and become cache entries only after the
        # run, so a resolve splices only what was cached before it.  A
        # capture copies columns — a q, a c and a decision tuple — not
        # the candidate tuples, which would stay alive in the cache for
        # the cyclic GC to walk; a splice builds them back.
        pending: List[tuple] = []
        pending_keys = set()
        room = cache.max_bytes

        def capture(i: int, store, peak: int, generated: int) -> None:
            point = final_node.get(i)
            if point is None:
                return
            node, ancestors = point
            if ancestors * snapshot_bytes(len(store)) > room:
                # This resolve re-runs and captures every capture-point
                # ancestor after this node; at this frontier's size (on
                # a chain, about theirs) they fill the cache and evict
                # it before the resolve ends, so copying it would be
                # wasted work.
                return
            key = (digest[node], context)
            if key in pending_keys or key in cache:
                return
            pending_keys.add(key)
            q, c, decisions = zip(*store)
            pending.append((key, node, q, c, decisions, peak, generated))

        splice_at = {
            start: probe(start, nodes) for start, nodes in probes.items()
        }
        started = time.perf_counter()
        sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
            self.backend
        )
        resolve_handle = (
            tracer.begin("incremental.resolve", backend=self.backend)
            if tracer is not None
            else None
        )
        root, peak, generated = _execute_schedule(
            compiled, sink_op, wire_op, merge_op, self._add_buffer, release,
            site="incremental.resolve", splice_at=splice_at,
            on_final=capture if self.capture else None,
        )
        total = len(compiled.ops)
        executed = total - skipped
        if resolve_handle is not None:
            tracer.end(
                resolve_handle, executed=executed, total=total,
                spliced=spliced, captured=len(pending),
            )
        result = _finish(
            root, best_op, release, driver, self._label,
            compiled.num_buffer_positions, self.library, peak, generated,
            started, self.backend,
        )
        for key, node, q, c, decisions, peak, gen in pending:
            cache.put(key, FrontierSnapshot(
                q, c, decisions, index, node, peak, gen
            ))
        if self.capture:
            self._move_holds()
        self._moved.clear()

        self.resolves += 1
        self.last_executed_fraction = executed / total if total else 0.0
        self.last_spliced_subtrees = spliced
        self._executed_instructions += executed
        self._total_instructions += total
        self._last_result = result
        self._stale = False
        return result

    # -- frontier lifetime ---------------------------------------------

    def _move_holds(self) -> None:
        """Point each moved node's hold at its current key, or drop it if
        the node is no capture point (after this resolve's captures are
        in the cache).  If that supersedes any key, release the keys the
        last such resolve superseded."""
        cache = self.cache
        context = self._context_key
        digest = self._digest
        points = self._points
        holds = self._holds
        superseded = []
        for node in self._moved:
            held = holds.get(node)
            key = (digest[node], context) if node in points else None
            if key == held:
                continue
            if key is None:
                del holds[node]
            else:
                holds[node] = key
                cache.hold(key)
            if held is not None:
                superseded.append(held)
        if superseded:
            cache.release(self._superseded)
            # In place: the finalizer releases this very list.
            self._superseded[:] = superseded

    def close(self) -> None:
        """Release every frontier this session holds in its cache.

        Idempotent.  The session stays usable, but from here on it
        memoizes nothing (as with ``capture=False``).  Like the other
        methods it must not run concurrently with :meth:`resolve`.
        Sessions dropped without a ``close()`` release their holds when
        they are collected.
        """
        self.capture = False
        self._finalizer()

    # -- introspection -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.tree.num_nodes

    def stats(self) -> Dict[str, object]:
        """Session health: counters plus the frontier cache's (JSON-ready)."""
        total = self._total_instructions
        return {
            "algorithm": self._label,
            "backend": self.backend,
            "num_nodes": self.tree.num_nodes,
            "resolves": self.resolves,
            "edits_applied": self.edits_applied,
            "last_executed_fraction": self.last_executed_fraction,
            "last_spliced_subtrees": self.last_spliced_subtrees,
            "executed_fraction": (
                self._executed_instructions / total if total else 0.0
            ),
            "frontier_cache": self.cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalSolver(nodes={self.tree.num_nodes}, "
            f"algorithm={self._label!r}, backend={self.backend!r}, "
            f"resolves={self.resolves})"
        )
