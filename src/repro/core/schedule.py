"""Compiled solve schedules: validate, plan and flatten a net **once**.

The dynamic program's hot loop does not need the tree *objects* at all —
it needs, in post-order, the paper's three operations with their scalar
arguments:

* **add wire** (paper op 2) with the edge's lumped ``R``/``C``;
* **merge** (paper op 3) of two sibling branch lists;
* **add buffer** (paper op 1) with the node's precomputed
  :class:`~repro.core.buffer_ops.BufferPlan`;

plus the sink base candidates that seed the recursion.  Validating the
tree, building every ``BufferPlan`` and walking the Python object graph
(``postorder()`` → ``node()`` → ``children_of()`` → ``edge_to()`` per
vertex) is therefore paid once, by :func:`compile_net`, which flattens
the post-order walk into a compact instruction stream over four op
codes:

=========  ===============================================  ==========
op code    meaning                                          paper op
=========  ===============================================  ==========
``SINK``   push the sink's base candidate ``(q, c)``        (seed)
``WIRE``   propagate the top list through edge ``R``/``C``  add wire
``MERGE``  combine the top two lists                        merge
``BUFFER`` apply the position's ``BufferPlan`` to the top   add buffer
=========  ===============================================  ==========

executed by a tiny stack machine, the DP's one interpreter
(:func:`repro.core.dp._execute_schedule` — no tree-object access in the
hot path).  Every solve runs through it: a plain tree handed to
:func:`repro.core.dp.run_dynamic_program` is compiled on the spot, so
callers that re-solve the *same* net — the Table 1 / Figure 3 /
Figure 4 sweeps across library sizes and algorithms, incremental
sessions — compile once and pass the ``CompiledNet``.
Wire parasitics and sink ``q``/``c`` live in flat ``array('d')``
payloads, op codes in ``bytes``, so a ``CompiledNet`` pickles in a
fraction of the bytes of the object tree it came from — which is
exactly what the batch engine ships to worker processes.

The flattening has two front-ends over one loop, as the canonical hash
has (:mod:`repro.service.canon`): :func:`compile_net` reads a
:class:`~repro.tree.routing_tree.RoutingTree`, and
:func:`compile_records` reads a serialized net's validated records
(:func:`repro.tree.io.net_records`) without building a tree.  Both
give the same ``CompiledNet`` for the same net.  The server compiles
each ``/solve`` and ``/batch`` miss from its records, solves it and
keeps only the answer.

Answers are locked by ``tests/data/dp_golden.json`` (asserted bit for
bit by ``tests/test_schedule.py`` on both store backends) and checked
against the independent timing oracle and the brute-force enumerator.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.buffer_ops import BufferPlan
from repro.errors import AlgorithmError
from repro.library.library import BufferLibrary
from repro.obs.spans import active_tracer
from repro.tree.io import NetRecords, NodeRecord
from repro.tree.node import Driver, Node, NodeKind
from repro.tree.routing_tree import RoutingTree

#: Instruction op codes (low two bits) ...
OP_SINK = 0
OP_WIRE = 1
OP_MERGE = 2
OP_BUFFER = 3
#: ... plus the node-final flag: the last instruction of each tree
#: vertex carries it, so the interpreter samples peak-list-length once
#: per vertex, on that vertex's finished list.
OP_FINAL = 4

_OP_MASK = 3

_SINK = NodeKind.SINK


class CompiledNet:
    """One net, compiled against one library, ready for repeat solves.

    Everything a solve needs, with the tree objects flattened away:

    Attributes:
        ops: One byte per instruction: an op code (:data:`OP_SINK`,
            :data:`OP_WIRE`, :data:`OP_MERGE`, :data:`OP_BUFFER`) OR-ed
            with :data:`OP_FINAL` on each vertex's last instruction.
        args: Per-instruction argument (``array('q')``): index into the
            sink payload, the wire payload, or the plan table; unused
            (0) for ``MERGE``.
        wire_r / wire_c: Edge parasitics, in instruction-argument order.
        sink_node / sink_q / sink_c: Sink ids, required arrivals and
            load capacitances.
        library: The :class:`BufferLibrary` the plans were built for.
        driver: The tree's source driver at compile time.
        num_nodes / num_sinks / num_buffer_positions: Tree metadata.

    Buffer plans are *not* stored directly: they are rebuilt lazily from
    ``(node_id, allowed-name)`` specs plus the library, so the pickled
    payload stays compact and workers re-share the one
    :func:`~repro.core.dp._full_library_plan` sort per process.
    The ``soa`` store's factory for this net is cached on the instance
    (and dropped from pickles), so repeat solves reuse its provenance
    tape and scratch arena instead of reallocating them.
    """

    def __init__(
        self,
        ops: bytes,
        args: array,
        wire_r: array,
        wire_c: array,
        sink_node: array,
        sink_q: array,
        sink_c: array,
        plan_specs: List[Tuple[int, Optional[Tuple[str, ...]]]],
        library: BufferLibrary,
        driver: Optional[Driver],
        num_nodes: int,
        num_sinks: int,
        num_buffer_positions: int,
        start_of_node: Optional[Dict[int, int]] = None,
        final_of_node: Optional[Dict[int, int]] = None,
        wire_index_of: Optional[Dict[int, int]] = None,
    ) -> None:
        self.ops = ops
        self.args = args
        self.wire_r = wire_r
        self.wire_c = wire_c
        self.sink_node = sink_node
        self.sink_q = sink_q
        self.sink_c = sink_c
        self.plan_specs = plan_specs
        self.library = library
        self.driver = driver
        self.num_nodes = num_nodes
        self.num_sinks = num_sinks
        self.num_buffer_positions = num_buffer_positions
        #: Per-node instruction ranges: node ``v``'s subtree occupies
        #: instructions ``[start_of_node[v], final_of_node[v]]`` (the
        #: final one carries :data:`OP_FINAL` and leaves v's completed
        #: frontier on top of the stack).  The incremental engine skips
        #: and splices whole subtrees through these; plain solves never
        #: read them.
        self.start_of_node = start_of_node or {}
        self.final_of_node = final_of_node or {}
        #: ``child node id -> index into wire_r/wire_c`` (payload patching,
        #: and wire sizing's per-edge class choice).
        self.wire_index_of = wire_index_of or {}
        self._plans: Optional[List[BufferPlan]] = None
        self._soa_factory = None
        self._runtime: Optional[tuple] = None
        self._sink_index_of: Optional[Dict[int, int]] = None
        self._group_signature: Optional[tuple] = None

    # -- solve-time accessors ------------------------------------------

    def plans(self) -> List[BufferPlan]:
        """The ``BufferPlan`` table, rebuilt lazily after unpickling."""
        if self._plans is None:
            from repro.core.dp import _full_library_plan

            full_plan = _full_library_plan(self.library.buffers)
            plans: List[BufferPlan] = []
            for node_id, allowed_names in self.plan_specs:
                if allowed_names is None:
                    plans.append(BufferPlan.shared_view(node_id, full_plan))
                else:
                    allowed = [
                        b for b in self.library.buffers
                        if b.name in allowed_names
                    ]
                    plans.append(BufferPlan(node_id, allowed))
            self._plans = plans
        return self._plans

    def runtime(self) -> tuple:
        """Interpreter-ready payloads, unboxed once per process.

        The compact ``bytes``/``array`` encoding is ideal on the wire
        but boxes a fresh Python object per indexing; the hot loop
        instead reads these cached plain lists, whose elements are
        created once.  Returns ``(steps, wire_r, wire_c, sink_node,
        sink_q, sink_c)`` where ``steps`` is the zipped ``(op, arg)``
        instruction list.
        """
        if self._runtime is None:
            self._runtime = (
                list(zip(self.ops, self.args)),
                self.wire_r.tolist(),
                self.wire_c.tolist(),
                self.sink_node.tolist(),
                self.sink_q.tolist(),
                self.sink_c.tolist(),
            )
        return self._runtime

    def soa_factory(self):
        """This net's :class:`~repro.core.stores.soa.SoAStoreFactory`,
        reused across solves.

        Reuse is what keeps the ``soa`` scratch arena warm: the
        factory's ``begin_solve`` resets per-solve state while keeping
        the allocated buffers.
        """
        if self._soa_factory is None:
            from repro.core.stores.soa import SoAStoreFactory

            self._soa_factory = SoAStoreFactory()
        return self._soa_factory

    # -- partition extraction (the parallel solver's surface) ----------

    def instruction_range(self, node_id: int) -> Tuple[int, int]:
        """Node ``node_id``'s subtree as an inclusive instruction range.

        Post-order flattening makes every subtree contiguous:
        instructions ``[start, final]`` compute exactly that subtree's
        frontier and leave it on top of the stack (the ``final``
        instruction carries :data:`OP_FINAL`).  Only available on
        schedules compiled in this process — the range maps are dropped
        from pickles (see :meth:`__getstate__`).
        """
        try:
            return self.start_of_node[node_id], self.final_of_node[node_id]
        except KeyError:
            raise AlgorithmError(
                f"no instruction range for node {node_id}: either the "
                "node is not part of this schedule or the schedule was "
                "unpickled (range maps do not ship; recompile locally)"
            ) from None

    def subschedule(self, node_id: int) -> "CompiledNet":
        """Extract node ``node_id``'s subtree as a standalone schedule.

        The slice ``ops[start:final+1]`` is already a complete,
        self-contained program (post-order contiguity: it consumes
        nothing below its own stack frame and leaves exactly one list).
        Payload arguments need only *rebasing*: sink, wire and plan
        entries are appended in emission order, so within any subtree
        range each kind's arguments are contiguous and ascending —
        subtracting the first occurrence per kind and slicing the
        payload arrays by the same window yields an equivalent
        standalone ``CompiledNet``.

        Node ids in ``sink_node``/``plan_specs`` are preserved verbatim,
        so a frontier solved from the extract speaks the parent
        schedule's coordinates — no translation on splice.  The extract
        has no driver (its frontier is an intermediate, never scored)
        and no range maps.
        """
        start, final = self.instruction_range(node_id)
        ops = self.ops[start:final + 1]
        raw_args = self.args[start:final + 1]
        bases = {OP_SINK: -1, OP_WIRE: -1, OP_BUFFER: -1}
        counts = {OP_SINK: 0, OP_WIRE: 0, OP_BUFFER: 0}
        args = array("q")
        for op, arg in zip(ops, raw_args):
            kind = op & _OP_MASK
            if kind == OP_MERGE:
                args.append(0)
                continue
            if bases[kind] < 0:
                bases[kind] = arg
            counts[kind] += 1
            args.append(arg - bases[kind])
        sink_base = max(bases[OP_SINK], 0)
        wire_base = max(bases[OP_WIRE], 0)
        plan_base = max(bases[OP_BUFFER], 0)
        num_nodes = sum(1 for op in ops if op & OP_FINAL)
        return CompiledNet(
            ops=ops,
            args=args,
            wire_r=self.wire_r[wire_base:wire_base + counts[OP_WIRE]],
            wire_c=self.wire_c[wire_base:wire_base + counts[OP_WIRE]],
            sink_node=self.sink_node[sink_base:sink_base + counts[OP_SINK]],
            sink_q=self.sink_q[sink_base:sink_base + counts[OP_SINK]],
            sink_c=self.sink_c[sink_base:sink_base + counts[OP_SINK]],
            plan_specs=self.plan_specs[
                plan_base:plan_base + counts[OP_BUFFER]],
            library=self.library,
            driver=None,
            num_nodes=num_nodes,
            num_sinks=counts[OP_SINK],
            num_buffer_positions=counts[OP_BUFFER],
        )

    # -- in-place payload patching (the incremental engine's surface) --

    def patch_sink(self, node_id: int, q: float, c: float) -> None:
        """Overwrite one sink's ``(required arrival, capacitance)``.

        An O(1) edit to the compiled payloads — no re-validate, no
        re-flatten.  Callers own the consistency contract: the tree this
        schedule was compiled from must have received the same edit
        (:class:`repro.incremental.engine.IncrementalSolver` does both
        sides).  Patch a *shared* schedule and every other user sees
        the edit; the incremental engine therefore always compiles
        privately.
        """
        if self._sink_index_of is None:
            self._sink_index_of = {
                node: index for index, node in enumerate(self.sink_node)
            }
        index = self._sink_index_of[node_id]
        self.sink_q[index] = q
        self.sink_c[index] = c
        if self._runtime is not None:
            self._runtime[4][index] = q
            self._runtime[5][index] = c

    def patch_wire(
        self, child_id: int, resistance: float, capacitance: float
    ) -> None:
        """Overwrite the parasitics of the edge reaching ``child_id``.

        Same contract as :meth:`patch_sink`.
        """
        index = self.wire_index_of[child_id]
        self.wire_r[index] = resistance
        self.wire_c[index] = capacitance
        if self._runtime is not None:
            self._runtime[1][index] = resistance
            self._runtime[2][index] = capacitance

    def payload_nbytes(self) -> int:
        """Approximate resident/wire footprint of the compiled payloads.

        Counts the instruction stream and the parasitic/sink arrays —
        the parts that scale with net size and survive pickling.  The
        library, plan specs and per-process caches are excluded (the
        library is shared across nets; caches never ship).  The server
        counts it in a session's resident bytes.
        """
        arrays = (self.args, self.wire_r, self.wire_c,
                  self.sink_node, self.sink_q, self.sink_c)
        return len(self.ops) + sum(a.itemsize * len(a) for a in arrays)

    def check_library(self, library: BufferLibrary) -> None:
        """Raise unless ``library`` matches the one compiled against."""
        if library is self.library:
            return
        if library.buffers != self.library.buffers:
            raise AlgorithmError(
                "compiled net was built against a different buffer "
                "library; recompile with compile_net(tree, library)"
            )

    # -- pickling ------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_plans"] = None  # rebuilt lazily from plan_specs
        state["_soa_factory"] = None  # per-process solve state
        state["_runtime"] = None  # unboxed lazily per process
        state["_sink_index_of"] = None  # rebuilt lazily on first patch
        state["_group_signature"] = None  # recomputed lazily per process
        # The subtree-range/patch maps exist for the in-process
        # incremental engine only (which compiles privately and never
        # pickles); shipping ~3n dict entries to every batch worker
        # would defeat this encoding's compact-payload point.
        state["start_of_node"] = {}
        state["final_of_node"] = {}
        state["wire_index_of"] = {}
        return state

    def __len__(self) -> int:
        """Number of instructions in the schedule."""
        return len(self.ops)

    @property
    def num_instructions(self) -> int:
        """Instruction count as a named accessor.

        This is the size measure the execution router's
        partitioned-solve threshold reasons about; for a tree that
        has not been compiled yet the same number is available without
        compiling via
        :func:`repro.routing.features.estimate_instructions`.
        """
        return len(self.ops)

    def __repr__(self) -> str:
        return (
            f"CompiledNet(instructions={len(self.ops)}, "
            f"sinks={self.num_sinks}, "
            f"buffer_positions={self.num_buffer_positions}, "
            f"b={self.library.size})"
        )


def compile_net(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[Driver] = None,
    validate: bool = True,
) -> CompiledNet:
    """Compile ``tree`` against ``library`` for repeat solving.

    Validation, :func:`~repro.core.dp.build_plans` and the post-order
    walk happen here, exactly once; the result drives the interpreter
    loop of :func:`repro.core.dp.run_dynamic_program` (pass the
    ``CompiledNet`` wherever a tree is accepted) and ships to
    :func:`repro.core.batch.solve_many` workers in place of the object
    tree.

    Args:
        tree: The routing tree to flatten.
        library: The buffer library the plans are built for.
        driver: Recorded source driver; defaults to ``tree.driver``.
        validate: Validate the tree first (disable only when the caller
            just validated the same tree).

    Raises:
        AlgorithmError: The tree fails validation.
    """
    from repro.core.dp import build_plans

    tracer = active_tracer()
    handle = (
        tracer.begin("compile", nodes=tree.num_nodes)
        if tracer is not None else None
    )
    if validate:
        try:
            tree.validate()
        except Exception as exc:
            raise AlgorithmError(f"invalid routing tree: {exc}") from exc

    def edge_of(node_id: int) -> Tuple[int, float, float]:
        edge = tree.edge_to(node_id)
        return edge.parent, edge.resistance, edge.capacitance

    compiled = _flatten(
        tree.postorder(), tree.node, tree.children_of, edge_of,
        build_plans(tree, library), library,
        driver if driver is not None else tree.driver,
        tree.num_buffer_positions,
    )
    if handle is not None:
        tracer.end(handle, instructions=len(compiled.ops))
    return compiled


def compile_records(
    records: NetRecords, library: BufferLibrary
) -> CompiledNet:
    """:func:`compile_net` over a serialized net, without building a tree.

    ``records`` is :func:`repro.tree.io.net_records`' output, validated
    when it was read.  Node ids are list positions, the ids
    :func:`repro.tree.io.tree_from_records` gives, so the result equals
    ``compile_net(tree_from_records(records), library, validate=False)``
    in every array, plan spec and instruction map; the driver is the
    records'.  The server compiles every ``/solve`` and ``/batch`` miss
    this way.
    """
    from repro.core.dp import plans_for

    nodes = records.nodes
    tracer = active_tracer()
    handle = (
        tracer.begin("compile", nodes=len(nodes))
        if tracer is not None else None
    )
    children: List[List[int]] = [[] for _ in nodes]
    for position in range(1, len(nodes)):
        children[nodes[position].parent].append(position)
    # Children are in record order, the order tree_from_records
    # attaches them.  A pre-order walk that takes them last to first,
    # reversed, is the post-order that takes them first to last:
    # RoutingTree.postorder()'s order.
    postorder: List[int] = []
    stack = [0]
    while stack:
        position = stack.pop()
        postorder.append(position)
        stack.extend(children[position])
    postorder.reverse()

    def edge_of(position: int) -> Tuple[int, float, float]:
        node = nodes[position]
        return node.parent, node.edge_resistance, node.edge_capacitance

    compiled = _flatten(
        postorder, nodes.__getitem__, children.__getitem__, edge_of,
        plans_for(
            ((position, node.allowed_buffers)
             for position, node in enumerate(nodes)
             if node.is_buffer_position),
            library,
        ),
        library, records.driver, records.num_buffer_positions,
    )
    if handle is not None:
        tracer.end(handle, instructions=len(compiled.ops))
    return compiled


def _flatten(
    postorder: Sequence[int],
    node_of: Callable[[int], Union[Node, NodeRecord]],
    children_of: Callable[[int], Sequence[int]],
    edge_of: Callable[[int], Tuple[int, float, float]],
    plans: Dict[int, BufferPlan],
    library: BufferLibrary,
    driver: Optional[Driver],
    num_buffer_positions: int,
) -> CompiledNet:
    """The post-order flattening loop both front-ends share.

    ``postorder`` lists every node id, children before parents and
    siblings in tree order; ``node_of(v)`` is v's
    :class:`~repro.tree.node.Node` or :class:`~repro.tree.io.NodeRecord`
    (the fields read here share their names), ``children_of(v)`` its
    children in tree order, ``edge_of(v)`` the ``(parent, R, C)`` of the
    wire into v, and ``plans`` the :class:`BufferPlan` of every usable
    buffer position.
    """
    ops = bytearray()
    args = array("q")
    wire_r = array("d")
    wire_c = array("d")
    sink_node = array("q")
    sink_q = array("d")
    sink_c = array("d")
    plan_specs: List[Tuple[int, Optional[Tuple[str, ...]]]] = []
    plan_table: List[BufferPlan] = []
    emitted_children: Dict[int, int] = {}
    start_of_node: Dict[int, int] = {}
    final_of_node: Dict[int, int] = {}
    wire_index_of: Dict[int, int] = {}
    root_id = postorder[-1]

    def emit(op: int, arg: int = 0) -> None:
        ops.append(op)
        args.append(arg)

    for node_id in postorder:
        node = node_of(node_id)
        children = children_of(node_id)
        # Post-order makes every subtree a contiguous instruction
        # range: it starts where the first child's subtree started (or
        # at this very instruction for a sink).
        start_of_node[node_id] = (
            start_of_node[children[0]] if children else len(ops)
        )
        if node.kind is _SINK:
            emit(OP_SINK | OP_FINAL, len(sink_node))
            final_of_node[node_id] = len(ops) - 1
            sink_node.append(node_id)
            sink_q.append(node.required_arrival)
            sink_c.append(node.capacitance)
        else:
            # All children (and their WIRE/MERGE glue) are already
            # emitted; only the position's add-buffer step remains.
            plan = plans.get(node_id)
            if plan is not None:
                emit(OP_BUFFER | OP_FINAL, len(plan_table))
                final_of_node[node_id] = len(ops) - 1
                plan_table.append(plan)
                allowed = node.allowed_buffers
                plan_specs.append(
                    (node_id, None if allowed is None else tuple(allowed))
                )

        if node_id == root_id:
            continue

        # Moving up the incoming edge: wire the just-finished subtree
        # list, then fold it into the branches accumulated so far.  The
        # MERGE interleaving folds siblings left to right in tree order
        # (float addition is not associative, so the order is fixed).
        parent, resistance, capacitance = edge_of(node_id)
        emit(OP_WIRE, len(wire_r))
        wire_index_of[node_id] = len(wire_r)
        wire_r.append(resistance)
        wire_c.append(capacitance)
        rank = emitted_children.get(parent, 0)
        emitted_children[parent] = rank + 1
        if rank:
            emit(OP_MERGE)
        # When the parent has no add-buffer step, its list is complete
        # the moment its last child folds in: flag that instruction as
        # the parent's final one so peak-length sampling sees it.
        if rank + 1 == len(children_of(parent)) and parent not in plans:
            ops[-1] |= OP_FINAL
            final_of_node[parent] = len(ops) - 1

    compiled = CompiledNet(
        ops=bytes(ops),
        args=args,
        wire_r=wire_r,
        wire_c=wire_c,
        sink_node=sink_node,
        sink_q=sink_q,
        sink_c=sink_c,
        plan_specs=plan_specs,
        library=library,
        driver=driver,
        num_nodes=len(postorder),
        num_sinks=len(sink_node),
        num_buffer_positions=num_buffer_positions,
        start_of_node=start_of_node,
        final_of_node=final_of_node,
        wire_index_of=wire_index_of,
    )
    # The plans just walked are the plan table; seed the lazy cache so
    # in-process solves never rebuild it (pickles still rebuild from
    # the specs).
    compiled._plans = plan_table
    return compiled


# ----------------------------------------------------------------------
# Batch-axis grouping
# ----------------------------------------------------------------------


def group_signature(compiled: CompiledNet) -> tuple:
    """The structural identity that makes two schedules batchable.

    Two compiled nets with equal signatures execute the *same*
    instruction stream against the *same* plan table: same opcodes and
    arguments, same sink placement, same buffer-position specs, same
    vertex count.  Everything that may differ per lane is deliberately
    excluded — wire parasitics, sink required arrivals and loads (the
    multi-corner case), and the driver (evaluated per lane at the
    root).  The library is also excluded: group consumers solve a whole
    group against one caller-chosen library and
    :meth:`CompiledNet.check_library` rejects mismatched lanes.

    Cheap to compare (tuple of bytes) and cached per instance, so group
    formation over a batch is O(total instructions) once.
    """
    signature = compiled._group_signature
    if signature is None:
        signature = (
            compiled.ops,
            compiled.args.tobytes(),
            compiled.sink_node.tobytes(),
            tuple(
                (node_id, allowed if allowed is None else tuple(allowed))
                for node_id, allowed in compiled.plan_specs
            ),
            compiled.num_nodes,
        )
        compiled._group_signature = signature
    return signature


def run_compiled_group(
    nets: List[CompiledNet],
    library: BufferLibrary,
    algorithm: str = "fast",
    driver: Optional[Driver] = None,
    options: Optional[Dict[str, object]] = None,
    factory=None,
) -> list:
    """Solve structurally identical compiled nets as one batched pass.

    The batch-axis entry point: every instruction is fetched once and
    dispatched as one vectorized kernel across all lanes (see
    :mod:`repro.core.stores.batch_axis`).  ``nets`` must share one
    :func:`group_signature`.  Returns per-lane
    :class:`~repro.core.solution.BufferingResult`\\ s in input order,
    bit-identical to solving each net individually on the compiled-soa
    path.  Requires NumPy (this call imports it; :class:`ImportError`
    without it) and an algorithm with a store ``add_buffer`` op
    (:class:`repro.core.batch.SolverPool` checks both and falls back to
    per-net solves when either is missing).
    """
    from repro.core.stores.batch_axis import solve_group

    return solve_group(
        nets, library, algorithm=algorithm, driver=driver,
        options=options, factory=factory,
    )
