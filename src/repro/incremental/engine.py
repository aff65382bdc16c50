"""The incremental re-solve engine: dirty-path execution with splicing.

:class:`IncrementalSolver` is a stateful session around one net: it
compiles the net's postorder schedule once, memoizes every subtree's
finished candidate frontier in a digest-keyed
:class:`~repro.incremental.subtree_cache.FrontierCache`, and after each
batch of :mod:`~repro.incremental.edits` re-runs **only the dirty
instruction sub-ranges** of the schedule — every clean subtree is a
contiguous, skippable range whose cached frontier is spliced onto the
interpreter stack in O(k).  The result — slack, assignment, driver
load, even the ``peak_list_length`` / ``candidates_generated`` DP stats
— is bit-identical to a from-scratch solve of the edited net (asserted
exactly, ``==`` not approx, by ``tests/test_incremental.py``).

**How dirtiness works.**  The engine maintains a Merkle digest per
subtree and updates it along the edited node's root path (O(depth) per
edit).  At resolve time nothing is explicitly marked dirty: the
interpreter simply probes the frontier cache at every subtree start —
an edited subtree's digest changed, so it *misses* and is re-executed
(and re-captured), while unchanged subtrees hit and are skipped.  The
digest is the invalidation.  This also means structurally repeated
subtrees — sibling copies, or the same subtree across different
sessions sharing one cache — are solved once and spliced everywhere
else.

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

**Provenance across solves.**  A cached frontier's decisions name node
ids of the tree it was captured from.  Splicing into a digest-equal
subtree elsewhere wraps each decision in a
:class:`SplicedFrontierDecision`, which translates ids through
tree-preorder indices at backtrace time — O(answer), only for the
winning candidate.  Splices into the *same* vertex of an unchanged
index reuse the decisions unwrapped.

**Frontier lifetime.**  Each node of a session holds the cache key of
its current subtree (:meth:`FrontierCache.hold`).  After a resolve, the
nodes whose digest moved move their holds to the new keys.  The keys
they left stay held until the next resolve that moves holds (a driver
swap moves none), so undoing the latest edit still splices the whole
previous state, while older states are recomputed.
:meth:`IncrementalSolver.close` — or the solver's finalizer, when a
session is dropped without it — releases every hold.
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
from repro.core.stores import AUTO_BACKEND, get_store_backend
from repro.core.stores.soa import _CHAIN_LIMIT
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
from repro.incremental.subtree_cache import FrontierCache, FrontierSnapshot
from repro.library.library import BufferLibrary
from repro.obs.spans import active_tracer
from repro.service.canon import (
    digest_body,
    edge_entry,
    library_key,
    node_payload,
    options_key,
)
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


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

    ``chain_depth`` counts nested provenance generations (wrappers and
    tape archives); once it reaches the cap, the engine flattens the
    splice to an :class:`~repro.core.candidate.ExpandedDecision`
    instead of nesting further, bounding both retained memory and the
    expansion recursion however long a session lives.
    """

    __slots__ = ("decision", "src_index", "src_root", "dst_index",
                 "dst_root", "chain_depth")

    def __init__(
        self,
        decision: object,
        src_index: TreeIndex,
        src_root: int,
        dst_index: TreeIndex,
        dst_root: int,
    ) -> None:
        self.decision = decision
        self.src_index = src_index
        self.src_root = src_root
        self.dst_index = dst_index
        self.dst_root = dst_root
        self.chain_depth = 1 + getattr(decision, "chain_depth", 0)

    def expand(self, assignment: Dict[int, object], stack: list) -> None:
        inner = reconstruct_assignment(self.decision)
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


def splice_snapshot(
    snapshot: FrontierSnapshot, factory=None, decisions=None
):
    """Materialize a frozen frontier into a live store list.

    The splice primitive shared by the incremental engine and the
    parallel partitioned solver: turns a
    :class:`~repro.incremental.subtree_cache.FrontierSnapshot` back
    into whatever the executing backend pushes on its interpreter
    stack — a plain list of ``(q, c, decision)`` tuples for the object
    backend (``factory=None``), built back from the snapshot's columns,
    or a store built by ``factory.from_snapshot`` (value columns
    copied, provenance deferred).  The floats are the captured floats,
    so every downstream operation sees bit-identical inputs.

    ``decisions`` overrides the snapshot's own provenance — the
    incremental engine passes id-translated wrappers here; callers
    splicing in original coordinates (the parallel solver — subschedule
    extraction preserves node ids) leave it ``None``.
    """
    if decisions is None:
        decisions = snapshot.decision_list()
    if factory is None:
        return list(zip(snapshot.q, snapshot.c, decisions))
    return factory.from_snapshot(snapshot.q, snapshot.c, decisions)


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
    array patches; structural edits re-flatten), a private store
    factory (warm SoA arenas across re-solves) and a
    :class:`~repro.incremental.subtree_cache.FrontierCache` — pass a
    shared cache to pool frontier memory across sessions (the server
    does).  The session holds its current frontiers in that cache (see
    the module docstring) until :meth:`close` or until it is collected.

    Args:
        tree: The net; validated once here, mutated by :meth:`apply`.
        library: The buffer library (fixed for the session's lifetime).
        algorithm: A registered algorithm exposing ``add_buffer_op``
            (all built-ins do).
        backend: Candidate-store backend name, or ``"auto"`` for the
            store the default routing policy picks for this net
            (:func:`repro.routing.router.static_store`); must be
            ``"object"`` or provide frontier snapshots (``"soa"`` does).
        driver: Fixed driver override; default ``None`` follows
            ``tree.driver`` (so :class:`~repro.incremental.edits.SwapDriver`
            edits take effect).
        cache: Shared :class:`FrontierCache`; a private one by default.
        capture: Memoize frontiers while solving (disable for pure
            replay measurements; such a session holds nothing).
        **options: Algorithm options (part of every cache key).

    Raises:
        AlgorithmError: Unknown algorithm/backend, invalid options, an
            algorithm without ``add_buffer_op``, or a backend without
            snapshot support.
    """

    def __init__(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        algorithm: str = "fast",
        backend: str = "auto",
        driver: Optional[Driver] = None,
        cache: Optional[FrontierCache] = None,
        capture: bool = True,
        **options,
    ) -> None:
        self.tree = tree
        self.library = library
        self.algorithm = algorithm
        if backend == AUTO_BACKEND:
            from repro.routing.features import features_of
            from repro.routing.router import router_for

            backend = router_for().route(
                features_of(tree, library, kind="session")
            ).backend
        self.backend = backend
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
        if self.backend == "object":
            self.factory = None
        else:
            # Backends without snapshot support fail loudly on the first
            # capture (StoreFactory's defaults raise AlgorithmError).
            self.factory = get_store_backend(self.backend)()
        try:
            tree.validate()
        except Exception as exc:
            raise AlgorithmError(f"invalid routing tree: {exc}") from exc
        self.compiled: CompiledNet = compile_net(tree, library, validate=False)
        self._digest: Dict[int, str] = {}
        self._entry: Dict[int, str] = {}
        #: Nodes whose digest may have moved since the last resolve.
        self._moved: Set[int] = set()
        self._rebuild_digests()
        #: node -> the cache key it holds, and the keys the latest
        #: resolve that moved holds left (released by the next one).
        self._holds: Dict[int, Hashable] = {}
        self._superseded: List[Hashable] = []
        self._finalizer = weakref.finalize(
            self, _release_holds, self.cache, self._holds, self._superseded
        )
        self._index: Optional[TreeIndex] = None
        self._index_stale = True
        self._schedule_stale = False
        self._probe: Optional[Dict[int, List[int]]] = None
        self._final_node: Optional[Dict[int, int]] = None
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

    def _body(self, node_id: int) -> str:
        """The order-sensitive Merkle body of one vertex (see module
        docstring for why children are *not* sorted here)."""
        body = node_payload(self.tree, node_id)
        children = self.tree.children_of(node_id)
        if children:
            entry = self._entry
            body += "[" + "|".join(entry[child] for child in children) + "]"
        return body

    def _digest_node(self, node_id: int) -> None:
        self._digest[node_id] = digest_body(self._body(node_id))
        self._moved.add(node_id)
        if node_id != self.tree.root_id:
            edge = self.tree.edge_to(node_id)
            self._entry[node_id] = edge_entry(
                edge.resistance, edge.capacitance, self._digest[node_id]
            )

    def _rebuild_digests(self) -> None:
        self._digest.clear()
        self._entry.clear()
        for node_id in self.tree.postorder():
            self._digest_node(node_id)

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
            self._digest.pop(node_id, None)
            self._entry.pop(node_id, None)
            self._moved.add(node_id)
        if isinstance(edit, (SetWire, SplitWire)):
            # The child keeps its digest; only its edge-prefixed entry
            # (and everything above) changes.
            edge = self.tree.edge_to(edit.node)
            self._entry[edit.node] = edge_entry(
                edge.resistance, edge.capacitance, self._digest[edit.node]
            )
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
        """``instruction -> [nodes whose subtree starts here]``, outermost
        first (so the largest clean subtree wins the splice)."""
        if self._probe is None:
            final = self.compiled.final_of_node
            by_start: Dict[int, List[int]] = {}
            for node, start in self.compiled.start_of_node.items():
                by_start.setdefault(start, []).append(node)
            for nodes in by_start.values():
                nodes.sort(key=final.__getitem__, reverse=True)
            self._probe = by_start
            self._final_node = {
                index: node for node, index in final.items()
            }
        return self._probe

    # -- splice / capture ----------------------------------------------

    def _splice(
        self, snapshot: FrontierSnapshot, target_root: int, index: TreeIndex
    ):
        decisions = snapshot.decision_list()
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
                        for node_id, buffer
                        in reconstruct_assignment(decision).items()
                    }))
                else:
                    wrapped.append(SplicedFrontierDecision(
                        decision, snapshot.canon, snapshot.root_id,
                        index, target_root,
                    ))
            decisions = wrapped
        return splice_snapshot(snapshot, self.factory, decisions=decisions)

    # -- dirty-path resolve --------------------------------------------

    def resolve(self) -> BufferingResult:
        """Solve the current net, reusing every memoized clean subtree.

        Bit-identical to ``insert_buffers(tree, library, ...)`` on the
        edited net — including the DP stats, except ``runtime_seconds``
        which reports this (much shorter) resolve.  With no edits since
        the last resolve, returns the previous result without solving.

        The DP's one interpreter (:func:`repro.core.dp._execute_schedule`)
        does the work: a splice callback at every subtree start pushes
        the outermost cached frontier and skips its range, and the
        node-final hook captures every frontier not cached yet.
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
        factory = self.factory
        snapshot_values = getattr(factory, "snapshot_values", None)
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
        # run.  An object capture copies columns — a q list, a c list
        # and a tuple of decisions — not the candidate tuples, which
        # would stay alive in the cache for the cyclic GC to walk; a
        # splice builds them back.  SoA values are copied at the
        # capture point (its wire kernel mutates in place downstream)
        # but its provenance stays as raw tape indices until the tape
        # is archived once, at the end — capture cost therefore scales
        # with candidate values, not provenance graphs.
        pending: List[tuple] = []
        pending_keys = set()

        def capture(i: int, store, peak: int, generated: int) -> None:
            node = final_node[i]
            key = (digest[node], context)
            if key in pending_keys or key in cache:
                return
            pending_keys.add(key)
            if snapshot_values is not None:
                q, c, d = snapshot_values(store)
                decisions = None
            else:
                q = [candidate[0] for candidate in store]
                c = [candidate[1] for candidate in store]
                decisions = tuple([candidate[2] for candidate in store])
                d = None
            pending.append((key, node, q, c, decisions, d, peak, generated))

        splice_at = {
            start: probe(start, nodes) for start, nodes in probes.items()
        }
        started = time.perf_counter()
        sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
            self.backend, factory=factory
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
                spliced=spliced,
            )
        result = _finish(
            root, best_op, release, driver, self._label,
            compiled.num_buffer_positions, self.library, peak, generated,
            started, self.backend,
        )
        if pending:
            archive = (
                factory.archive_tape() if snapshot_values is not None
                else None
            )
            for key, node, q, c, decisions, d, peak, gen in pending:
                cache.put(key, FrontierSnapshot(
                    q, c, decisions, index, node, peak, gen,
                    archive=archive, d=d,
                ))
        if self.capture:
            self._move_holds()
        self._moved.clear()
        if factory is not None:
            factory.end_solve()

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
        """Point each moved node's hold at its current key (after this
        resolve's captures are in the cache).  If that supersedes any
        key, release the keys the last such resolve superseded."""
        cache = self.cache
        context = self._context_key
        digest = self._digest
        holds = self._holds
        superseded = []
        for node in self._moved:
            held = holds.get(node)
            node_digest = digest.get(node)
            key = None if node_digest is None else (node_digest, context)
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
