"""Structure-of-arrays candidate store: the vectorized kernel engine.

Candidates live in parallel float64 arrays ``q`` and ``c`` plus an
integer array ``d`` of indices into a per-solve *provenance tape*
(:class:`ProvenanceTape`).  Each compiled-schedule instruction of
:mod:`repro.core.dp` executes as whole-array NumPy kernels with **zero
per-candidate Python objects**:

* **WIRE** — the Elmore shift staged through ``out=`` buffers plus a
  fused dominance re-prune, mutating the store in place (one pass, no
  store churn);
* **MERGE** — the two-pointer branch walk expressed as two
  ``searchsorted`` passes plus one sort; surviving pairs record their
  predecessor indices into the tape as two bulk array writes;
* **BUFFER** — :meth:`SoAStore.apply_buffer` fuses convex pruning, the
  monotone hull walk *broadcast over all ``b`` buffer types at once*
  (against the plan's precomputed ``R`` / ``C_in`` / intrinsic-delay
  vectors — see :func:`plan_kernel`), beta pruning, the Theorem-2
  sorted insertion and the final re-prune into one kernel;
* **prune / hull** — selection-only kernels; short lists take the
  shared scalar scans of :mod:`repro.core.pruning`, long lists the
  whole-array forms, behind the single :func:`kernel_cutoff` tuned by
  ``benchmarks/bench_kernel_cutoff.py``.

**Deferred provenance.**  The object backend materializes a decision
node per surviving candidate; at steady state that is the dominant
per-candidate Python cost.  Here every DP step instead appends compact
predecessor-index records to the tape (three ``intp`` columns carved
from the :class:`ScratchArena`), and only the *root's winning
candidate* is ever expanded: :meth:`SoAStore.best_for_driver` returns a
:class:`TapeRef`, whose :meth:`TapeRef.expand` backtraces the winning
chain into the ``{node_id: buffer_type}`` assignment — once per solve,
linear in the answer, via the deferred-provenance hook of
:func:`repro.core.candidate.reconstruct_assignment`.

**Scratch arena.**  Every persistent candidate array is carved from the
factory's :class:`ScratchArena`: a pool of power-of-two NumPy blocks,
grown geometrically on demand and recycled when the DP engine releases
a consumed store (:meth:`SoAStore.release`), so after the first few
nodes warm the pool, the kernels run with no per-node array allocation.
The arena is reset (not freed) per solve, which is what makes repeat
solves through a reused factory — the compiled execution layer of
:mod:`repro.core.schedule` — allocation-free at steady state.  Stores
never share arrays (ops that would alias copy instead), so releasing a
consumed store can never corrupt a live one.

**Bit-identity.**  Every numeric result is produced by the same IEEE-754
operations in the same order as the object backend (float64 throughout;
the arena only changes *where* outputs land, via ``out=`` parameters,
never what is computed), and every selection rule replays the object
backend's comparisons on identical floats: ``np.argmax`` returns the
*first* maximizer, which is the "strict improvement only" scan; the
broadcast hull walk stops each buffer type at the first
``next_value <= value`` position exactly as the pointer walk does (with
a sequential fallback for the measure-zero case where rounding breaks
the walk's monotone-pointer structure); sorted insertion places new
candidates after equal-``c`` old ones, which is the object backend's
``<=`` merge.  The parity suites (``tests/test_soa_backend.py``,
``tests/test_schedule.py``, ``tests/test_kernel_engine.py``) assert
exact (``==``, not approx) slack *and* assignment equality on
randomized corpora.

NumPy is an optional dependency: the module imports with ``numpy``
absent, and :class:`SoAStoreFactory` raises a clear
:class:`~repro.errors.AlgorithmError` at solve time instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:  # gated: the rest of the library must work without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    np = None  # type: ignore[assignment]

from repro.core.buffer_ops import BufferPlan
from repro.core.candidate import ExpandedDecision, reconstruct_assignment
from repro.core.pruning import hull_indices, prune_dominated_indices
from repro.core.stores.base import BestCandidate, CandidateStore, StoreFactory
from repro.errors import AlgorithmError

_NEG_INF = float("-inf")

#: Single scalar/vector crossover for the selection kernels.  Below it
#: the shared scalar scans of :mod:`repro.core.pruning` run on
#: ``tolist()`` views; above it the whole-array forms take over.  The
#: convex hull crosses over at ``_HULL_FACTOR`` times this value: its
#: whole-array form strips one interior layer per pass, so the scalar
#: scan stays ahead for far longer than the dominance prune's.
#: Selection involves no arithmetic, so the cutoff can never change
#: results — only which identical-output code path computes them.  The
#: default is tuned by ``benchmarks/bench_kernel_cutoff.py`` (see
#: docs/benchmarks.md).  The batch-axis engine shares the same knob,
#: comparing ``lanes * width`` (whole-group element count) against it;
#: the tuning bench's batched sweep confirms 48 sits on the optimum
#: plateau there too.
_KERNEL_CUTOFF = 48

#: Hull crossover as a multiple of the kernel cutoff (one knob governs
#: both kernels; the factor reflects the asymptotic gap between the two
#: vector forms, not a second tunable).
_HULL_FACTOR = 32

#: Smallest pool block: tiny lists are ubiquitous (every sink starts
#: one), so sub-8 requests all share a size class.
_MIN_BLOCK = 8

if np is not None:
    _EMPTY_F8 = np.empty(0, dtype=np.float64)
    _EMPTY_IP = np.empty(0, dtype=np.intp)
    _EMPTY_PAIR = np.empty((2, 0), dtype=np.float64)

#: Above this many surviving runs an in-place compaction gather falls
#: back to a block copy (many scattered slice moves lose to one take).
_MAX_SPLICE_RUNS = 8


def kernel_cutoff() -> int:
    """The current scalar/vector crossover of the selection kernels."""
    return _KERNEL_CUTOFF


def set_kernel_cutoff(length: int) -> int:
    """Set the selection-kernel crossover; returns the previous value.

    Used by the tuning micro-bench and by tests that force one of the
    two (identical-output) paths.
    """
    global _KERNEL_CUTOFF
    previous = _KERNEL_CUTOFF
    _KERNEL_CUTOFF = int(length)
    return previous


class ScratchArena:
    """A recycling pool of power-of-two NumPy blocks for one factory.

    ``f8(n)`` / ``ip(n)`` hand out length-``n`` views of float64 / intp
    blocks whose capacities grow geometrically (powers of two, so a
    released block satisfies every later request of its class);
    ``recycle`` returns a view's block to the free list.  The engine's
    release discipline guarantees a block is only recycled once its
    store is unreachable, and blocks that are never explicitly recycled
    (e.g. leaked by third-party code) simply fall back to garbage
    collection — the pool forgets them at the next :meth:`reset`.

    ``reset`` runs between solves: it keeps the free lists (that is the
    whole point — repeat solves reuse the grown pool instead of
    reallocating) and only drops the bookkeeping for blocks the previous
    solve never returned.
    """

    __slots__ = ("_free_f8", "_free_ip", "_free_pair", "_lent", "_iota")

    def __init__(self) -> None:
        self._free_f8: Dict[int, list] = {}
        self._free_ip: Dict[int, list] = {}
        self._free_pair: Dict[int, list] = {}
        self._lent: set = set()
        self._iota = _EMPTY_IP

    @staticmethod
    def _capacity(n: int) -> int:
        if n <= _MIN_BLOCK:
            return _MIN_BLOCK
        return 1 << (n - 1).bit_length()

    def f8(self, n: int):
        """Borrow a float64 view of length ``n``."""
        if n == 0:
            return _EMPTY_F8
        capacity = _MIN_BLOCK if n <= _MIN_BLOCK else 1 << (n - 1).bit_length()
        blocks = self._free_f8.get(capacity)
        if blocks:
            block = blocks.pop()
        else:
            block = np.empty(capacity, dtype=np.float64)
        self._lent.add(id(block))
        return block[:n]

    def ip(self, n: int):
        """Borrow an intp view of length ``n``."""
        if n == 0:
            return _EMPTY_IP
        capacity = _MIN_BLOCK if n <= _MIN_BLOCK else 1 << (n - 1).bit_length()
        blocks = self._free_ip.get(capacity)
        if blocks:
            block = blocks.pop()
        else:
            block = np.empty(capacity, dtype=np.intp)
        self._lent.add(id(block))
        return block[:n]

    def pair(self, n: int):
        """Borrow a full ``(2, capacity >= n)`` float64 block.

        Capacity-backed: the caller tracks its logical length, so
        in-place shrinking (the store's wire prune) costs nothing.
        """
        if n == 0:
            return _EMPTY_PAIR
        capacity = _MIN_BLOCK if n <= _MIN_BLOCK else 1 << (n - 1).bit_length()
        blocks = self._free_pair.get(capacity)
        if blocks:
            block = blocks.pop()
        else:
            block = np.empty((2, capacity), dtype=np.float64)
        self._lent.add(id(block))
        return block

    def ip_block(self, n: int):
        """Borrow a full intp block of capacity ``>= n`` (see :meth:`pair`)."""
        if n == 0:
            return _EMPTY_IP
        capacity = _MIN_BLOCK if n <= _MIN_BLOCK else 1 << (n - 1).bit_length()
        blocks = self._free_ip.get(capacity)
        if blocks:
            block = blocks.pop()
        else:
            block = np.empty(capacity, dtype=np.intp)
        self._lent.add(id(block))
        return block

    def iota(self, n: int):
        """A read-mostly ``arange(n)`` view (shared, do not recycle)."""
        if len(self._iota) < n:
            self._iota = np.arange(self._capacity(n), dtype=np.intp)
        return self._iota[: n]

    def recycle(self, view) -> None:
        """Return ``view``'s block to the pool (foreign arrays ignored)."""
        if view is None:
            return
        if view.ndim == 2:
            if view.shape[1] == 0:
                return
            block = view.base if view.base is not None else view
            key = id(block)
            if key in self._lent:
                self._lent.remove(key)
                self._free_pair.setdefault(block.shape[1], []).append(block)
            return
        if len(view) == 0:
            return
        block = view.base if view.base is not None else view
        key = id(block)
        if key in self._lent:
            self._lent.remove(key)
            pool = self._free_f8 if block.dtype == np.float64 else self._free_ip
            pool.setdefault(len(block), []).append(block)

    def reset(self) -> None:
        """Forget outstanding loans (their blocks died with the solve)."""
        self._lent.clear()

    def stats(self) -> Dict[str, int]:
        """Pool health for the serving layer's ``/stats`` endpoint."""
        pooled = 0
        free_f8 = 0
        free_ip = 0
        free_pair = 0
        for blocks in self._free_f8.values():
            free_f8 += len(blocks)
            pooled += sum(block.nbytes for block in blocks)
        for blocks in self._free_ip.values():
            free_ip += len(blocks)
            pooled += sum(block.nbytes for block in blocks)
        for blocks in self._free_pair.values():
            free_pair += len(blocks)
            pooled += sum(block.nbytes for block in blocks)
        return {
            "free_blocks_f8": free_f8,
            "free_blocks_ip": free_ip,
            "free_blocks_pair": free_pair,
            "lent_blocks": len(self._lent),
            "pooled_bytes": pooled,
        }


# ----------------------------------------------------------------------
# Deferred provenance: the tape
# ----------------------------------------------------------------------

#: Tape record kinds.
_TAPE_SINK = 0
_TAPE_MERGE = 1
_TAPE_BUFFER = 2
#: A spliced-in frontier candidate (incremental re-solve): ``a`` indexes
#: :attr:`ProvenanceTape.splices`, which holds an already-materialized
#: decision object carrying the candidate's whole sub-assignment.
_TAPE_SPLICE = 3


class ProvenanceTape:
    """Per-solve predecessor-index records, appended in bulk.

    Three parallel ``intp`` columns carved from the owning factory's
    :class:`ScratchArena` (plus a Python list of the
    :class:`~repro.core.buffer_ops.BufferPlan` objects referenced by
    buffer records — one append per buffer *position*, never per
    candidate):

    =========  =============  =============  ====================
    kind       ``a``          ``b``          ``c``
    =========  =============  =============  ====================
    SINK       node id        --             --
    MERGE      left index     right index    --
    BUFFER     below index    type index     plan slot
    =========  =============  =============  ====================

    ``type index`` addresses ``plan.by_resistance_desc``; ``plan slot``
    addresses :attr:`plans`.  A candidate's ``d`` column holds its tape
    index; the tape grows by power-of-two doubling and is *reset, not
    freed* between solves, so a warm factory appends with no
    allocation.  :meth:`reset` bumps a generation counter: a
    :class:`TapeRef` that outlives its solve fails loudly instead of
    silently reading the next solve's records (the aliasing hazard the
    recycling stress tests pin down).
    """

    __slots__ = ("op", "a", "b", "c", "length", "generation", "plans",
                 "splices", "_arena")

    def __init__(self, arena: ScratchArena) -> None:
        self._arena = arena
        self.op = _EMPTY_IP
        self.a = _EMPTY_IP
        self.b = _EMPTY_IP
        self.c = _EMPTY_IP
        self.length = 0
        self.generation = 0
        self.plans: List[BufferPlan] = []
        self.splices: List[object] = []

    def reset(self) -> None:
        """Start a new solve: rewind, keep capacity, invalidate refs."""
        self.length = 0
        self.generation += 1
        self.plans.clear()
        self.splices.clear()

    def _reserve(self, count: int) -> int:
        """Ensure room for ``count`` more records; returns their base."""
        base = self.length
        need = base + count
        if need > len(self.op):
            capacity = ScratchArena._capacity(need)
            arena = self._arena
            for name in ("op", "a", "b", "c"):
                old = getattr(self, name)
                grown = arena.ip(capacity)
                if base:
                    grown[:base] = old[:base]
                arena.recycle(old)
                setattr(self, name, grown)
        self.length = need
        return base

    def append_sink(self, node_id: int) -> int:
        base = self._reserve(1)
        self.op[base] = _TAPE_SINK
        self.a[base] = node_id
        return base

    def append_sinks(self, node_id: int, count: int) -> int:
        """Bulk-record ``count`` sink candidates at one tree vertex.

        The batch-axis engine starts every lane of a group at the same
        sink instruction; one reserve covers the whole group.  Returns
        the first record's index (lane ``i`` owns ``base + i``).
        """
        base = self._reserve(count)
        end = base + count
        self.op[base:end] = _TAPE_SINK
        self.a[base:end] = node_id
        return base

    def append_merges(self, left, right) -> int:
        """Bulk-record merged pairs; returns the first record's index."""
        count = len(left)
        base = self._reserve(count)
        end = base + count
        self.op[base:end] = _TAPE_MERGE
        self.a[base:end] = left
        self.b[base:end] = right
        return base

    def append_buffers(self, below, type_index, plan: BufferPlan) -> int:
        """Bulk-record inserted buffers; returns the first record's index."""
        slot = len(self.plans)
        self.plans.append(plan)
        count = len(below)
        base = self._reserve(count)
        end = base + count
        self.op[base:end] = _TAPE_BUFFER
        self.a[base:end] = below
        self.b[base:end] = type_index
        self.c[base:end] = slot
        return base

    def append_splices(self, decisions) -> int:
        """Bulk-record spliced frontier candidates; returns their base.

        ``decisions`` are ready-made decision objects (materialized
        provenance from a cached frontier snapshot — see
        :mod:`repro.incremental.subtree_cache`); each record's ``a``
        column points at its slot in :attr:`splices`.
        """
        slot = len(self.splices)
        self.splices.extend(decisions)
        count = len(decisions)
        base = self._reserve(count)
        end = base + count
        self.op[base:end] = _TAPE_SPLICE
        self.a[base:end] = np.arange(slot, slot + count, dtype=np.intp)
        return base

    def materialize(self, index: int, memo: Dict[int, object]):
        """Expand the record at ``index`` into a persistent decision DAG.

        The inverse of deferred provenance: turns tape records back into
        the object store's decisions (:mod:`repro.core.candidate`: an
        ``int`` sink, a ``(left, right)`` merge, a ``(node_id,
        buffer_type, below)`` buffer) that outlive the tape (frontier
        snapshots must survive ``begin_solve``'s rewind).  ``memo``
        (tape index → decision) makes repeated expansion linear in the
        *distinct* records reachable from all of a solve's snapshots;
        callers must drop it when the tape resets.  Iterative — chains
        are as deep as the tree.
        """
        op = self.op
        a = self.a
        b = self.b
        c = self.c
        plans = self.plans
        splices = self.splices
        stack = [index]
        while stack:
            i = stack[-1]
            if i in memo:
                stack.pop()
                continue
            kind = op[i]
            if kind == _TAPE_SINK:
                memo[i] = int(a[i])
                stack.pop()
            elif kind == _TAPE_SPLICE:
                memo[i] = splices[int(a[i])]
                stack.pop()
            elif kind == _TAPE_MERGE:
                left, right = int(a[i]), int(b[i])
                left_done = left in memo
                if left_done and right in memo:
                    memo[i] = (memo[left], memo[right])
                    stack.pop()
                else:
                    if not left_done:
                        stack.append(left)
                    if right not in memo:
                        stack.append(right)
            else:  # _TAPE_BUFFER
                below = int(a[i])
                if below in memo:
                    plan = plans[int(c[i])]
                    memo[i] = (
                        plan.node_id,
                        plan.by_resistance_desc[int(b[i])],
                        memo[below],
                    )
                    stack.pop()
                else:
                    stack.append(below)
        return memo[index]

    def ref(self, index: int) -> "TapeRef":
        """A decision-protocol handle for the record at ``index``."""
        return TapeRef(self, index, self.generation)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": self.length,
            "capacity": len(self.op),
            "plans": len(self.plans),
            "splices": len(self.splices),
            "generation": self.generation,
        }


#: Maximum provenance-chain depth before flattening.  Each re-solve's
#: archive may reference earlier archives through its spliced
#: decisions; unbounded, a long-lived session would pin one archive
#: per resolve.  Entries at the cap collapse to
#: :class:`~repro.core.candidate.ExpandedDecision` at archive time
#: (O(answer) once, amortized one flatten per cap-many resolves).
_CHAIN_LIMIT = 8


class TapeArchive:
    """An immutable copy of one solve's provenance tape.

    The live tape is rewound between solves, so frontier snapshots that
    must outlive a solve (the incremental engine's subtree memo) cannot
    hold tape indices into it.  Materializing every candidate's
    decision chain at capture time is exactly the per-candidate Python
    cost deferred provenance exists to avoid — so instead, the engine
    archives the whole tape **once per resolve** (four array copies
    plus two shallow list copies) and snapshots keep ``(archive, tape
    index)`` pairs.  Decisions are only built when a snapshot is
    actually spliced, and expanded only for the winning candidate
    (:class:`ArchivedDecision`).

    ``depth`` counts how many earlier archives remain reachable through
    this one's spliced decisions; entries that would exceed
    :data:`_CHAIN_LIMIT` are flattened on construction, so session
    memory holds at most a bounded chain of archives however many
    re-solves a session performs.
    """

    __slots__ = ("op", "a", "b", "c", "plans", "splices", "depth")

    def __init__(self, tape: "ProvenanceTape") -> None:
        length = tape.length
        self.op = tape.op[:length].copy()
        self.a = tape.a[:length].copy()
        self.b = tape.b[:length].copy()
        self.c = tape.c[:length].copy()
        self.plans = list(tape.plans)
        depth = 1
        splices: List[object] = []
        for obj in tape.splices:
            chain = getattr(obj, "chain_depth", 0)
            if chain >= _CHAIN_LIMIT:
                splices.append(ExpandedDecision(reconstruct_assignment(obj)))
            else:
                splices.append(obj)
                if chain + 1 > depth:
                    depth = chain + 1
        self.splices = splices
        self.depth = depth

    def nbytes(self) -> int:
        return 4 * self.op.nbytes if len(self.op) else 0


class ArchivedDecision:
    """A decision handle into a :class:`TapeArchive` (splice provenance).

    Implements the ``expand`` hook of
    :func:`repro.core.candidate.reconstruct_assignment` by walking the
    archived columns — no generation hazard (archives are immutable)
    and no per-candidate object graph until a root backtrace actually
    reaches this candidate.
    """

    __slots__ = ("archive", "index")

    def __init__(self, archive: TapeArchive, index: int) -> None:
        self.archive = archive
        self.index = index

    @property
    def chain_depth(self) -> int:
        """Archive hops reachable from here (chain-flattening input)."""
        return self.archive.depth

    def expand(self, assignment: Dict[int, object], stack: list) -> None:
        archive = self.archive
        op = archive.op
        a = archive.a
        b = archive.b
        c = archive.c
        plans = archive.plans
        splices = archive.splices
        pending = [self.index]
        while pending:
            index = pending.pop()
            kind = op[index]
            if kind == _TAPE_BUFFER:
                plan = plans[c[index]]
                assignment[plan.node_id] = plan.by_resistance_desc[b[index]]
                pending.append(a[index])
            elif kind == _TAPE_MERGE:
                pending.append(a[index])
                pending.append(b[index])
            elif kind == _TAPE_SPLICE:
                assignment.update(reconstruct_assignment(splices[a[index]]))
            # _TAPE_SINK carries no buffers.

    def __repr__(self) -> str:
        return f"ArchivedDecision({self.index})"


class TapeRef:
    """Deferred-provenance decision: a tape index awaiting backtrace.

    Implements the ``expand`` hook of
    :func:`repro.core.candidate.reconstruct_assignment`: the winning
    chain is walked iteratively over the tape's index columns — the
    only point in a SoA solve where provenance becomes Python objects,
    and it is linear in the *answer*, not in the candidates generated.
    """

    __slots__ = ("tape", "index", "generation")

    def __init__(self, tape: ProvenanceTape, index: int, generation: int) -> None:
        self.tape = tape
        self.index = index
        self.generation = generation

    def expand(self, assignment: Dict[int, object], stack: list) -> None:
        tape = self.tape
        if tape.generation != self.generation:
            raise AlgorithmError(
                "stale provenance reference: the solve that produced this "
                "candidate has ended and its tape was recycled; expand "
                "results before reusing the factory"
            )
        op = tape.op
        a = tape.a
        b = tape.b
        c = tape.c
        plans = tape.plans
        splices = tape.splices
        pending = [self.index]
        while pending:
            index = pending.pop()
            kind = op[index]
            if kind == _TAPE_BUFFER:
                plan = plans[c[index]]
                assignment[plan.node_id] = plan.by_resistance_desc[b[index]]
                pending.append(a[index])
            elif kind == _TAPE_MERGE:
                pending.append(a[index])
                pending.append(b[index])
            elif kind == _TAPE_SPLICE:
                # A spliced-in frontier: its decision object carries the
                # whole sub-assignment (possibly translated onto this
                # net's node ids — see SplicedFrontierDecision).
                assignment.update(reconstruct_assignment(splices[a[index]]))
            # _TAPE_SINK carries no buffers.

    def __repr__(self) -> str:
        return f"TapeRef({self.index}, gen={self.generation})"


# ----------------------------------------------------------------------
# Plan kernels: per-plan buffer columns as vectors
# ----------------------------------------------------------------------


class _PlanKernel:
    """The NumPy view of one :class:`BufferPlan`, built once, reused.

    Columns are in ``by_resistance_desc`` order, so broadcasting over
    them iterates buffer types exactly as the object backend's loops
    do.  Load-capped types keep their per-type scalars for the
    prefix-scan path (the hull shortcut is invalid under a cap).
    """

    __slots__ = ("size", "r", "c_in", "k", "limits", "cap_order",
                 "c_in_cap", "cap_identity", "has_caps", "uncapped",
                 "r_uncapped", "k_uncapped", "iota_u", "iota_b")

    def __init__(self, plan: BufferPlan) -> None:
        buffers = plan.by_resistance_desc
        self.size = len(buffers)
        self.r = np.array([b.driving_resistance for b in buffers],
                          dtype=np.float64)
        self.c_in = np.array([b.input_capacitance for b in buffers],
                             dtype=np.float64)
        self.k = np.array([b.intrinsic_delay for b in buffers],
                          dtype=np.float64)
        self.limits = np.array(
            [float("inf") if b.max_load is None else b.max_load
             for b in buffers],
            dtype=np.float64,
        )
        self.cap_order = np.array(plan.cap_order, dtype=np.intp)
        self.c_in_cap = self.c_in[self.cap_order]
        # Real libraries usually order C_in inversely to R, making the
        # cap permutation the identity — in which case the reorder
        # gathers are skipped entirely.
        self.cap_identity = bool(
            (self.cap_order == np.arange(self.size, dtype=np.intp)).all()
        )
        uncapped = [i for i, b in enumerate(buffers) if b.max_load is None]
        self.has_caps = len(uncapped) != self.size
        self.uncapped = np.array(uncapped, dtype=np.intp)
        self.r_uncapped = self.r[self.uncapped]
        self.k_uncapped = self.k[self.uncapped]
        self.iota_u = np.arange(len(uncapped), dtype=np.intp)
        self.iota_b = np.arange(self.size, dtype=np.intp)


def plan_kernel(plan: BufferPlan) -> _PlanKernel:
    """The (cached) kernel arrays of ``plan``.

    Cached on the plan that *owns* the sort orders, so the shared views
    :meth:`~repro.core.buffer_ops.BufferPlan.shared_view` hands out all
    reuse one kernel — mirroring how the orders themselves are shared.
    """
    owner = plan._shared_from or plan
    kernel = owner._kernel
    if kernel is None:
        kernel = _PlanKernel(owner)
        owner._kernel = kernel
    return kernel


def prime_plan_kernels(plans) -> None:
    """Build the kernels of ``plans`` eagerly (no-op without NumPy).

    Called by the batch-axis group solve before its lanes run.  Every
    other path builds a plan's kernel on its first ``soa`` use
    (:func:`plan_kernel`), so compiling a net that solves on ``object``
    builds none.
    """
    if np is None:
        return
    for plan in plans:
        plan_kernel(plan)


# ----------------------------------------------------------------------
# Selection kernels (no arithmetic: cutoff cannot change results)
# ----------------------------------------------------------------------


def _keep_indices(q, c):
    """Surviving indices of dominance pruning, or ``None`` for all-kept.

    Restatement of :func:`repro.core.pruning.prune_dominated`
    (selection only — no arithmetic, so trivially bit-identical): within
    each run of equal ``c`` keep the first maximum-``q`` candidate, then
    keep the strict running maxima of ``q`` across runs.  Short inputs
    run the shared scalar scan; long inputs the whole-array form (the
    common tie-free case is four kernels: a strict running-max mask).
    The ``None`` sentinel lets callers skip the compaction copies when
    nothing was dropped.
    """
    n = len(q)
    if n == 0:
        return None
    if n <= _KERNEL_CUTOFF:
        keep = prune_dominated_indices(q.tolist(), c.tolist())
        return None if len(keep) == n else keep
    if not bool((c[1:] == c[:-1]).any()):
        # No equal-c runs: survivors are exactly the strict running
        # maxima of q.
        keep_mask = np.empty(n, dtype=bool)
        keep_mask[0] = True
        np.greater(q[1:], np.maximum.accumulate(q)[:-1], out=keep_mask[1:])
        if keep_mask.all():
            return None
        return keep_mask.nonzero()[0]
    keep = _nonredundant_ties(q, c)
    return None if len(keep) == n else keep


def _nonredundant_indices(q, c):
    """Index form of :func:`_keep_indices` (parity tests, hull takes)."""
    keep = _keep_indices(q, c)
    if keep is None:
        return np.arange(len(q), dtype=np.intp)
    return keep


def _nonredundant_ties(q, c):
    """The general (equal-``c`` runs present) whole-array prune."""
    n = len(q)
    starts_mask = np.empty(n, dtype=bool)
    starts_mask[0] = True
    np.not_equal(c[1:], c[:-1], out=starts_mask[1:])
    starts = np.flatnonzero(starts_mask)
    group = np.cumsum(starts_mask) - 1
    group_max = np.maximum.reduceat(q, starts)
    at_max = q == group_max[group]
    # First at-max index per group: its within-group running count is 1.
    cumulative = np.cumsum(at_max)
    before_group = np.concatenate(([0], cumulative))[starts]
    winners = np.flatnonzero(at_max & (cumulative - before_group[group] == 1))
    # Strict running-max filter across group winners.
    winner_q = q[winners]
    keep = np.empty(len(winners), dtype=bool)
    keep[0] = True
    np.greater(winner_q[1:], np.maximum.accumulate(winner_q)[:-1], out=keep[1:])
    return winners[keep]


def _hull_indices(q, c):
    """Indices forming the upper-left convex hull of a nonredundant list.

    Short lists run the shared Graham scan
    (:func:`repro.core.pruning.hull_indices`); long lists first strip
    interior layers with whole-array passes (each pass simultaneously
    drops every point on/below its neighbours' chord — paper Eq. 2 —
    and the fixed point equals the Graham hull), then the scalar scan
    finishes the survivors.
    """
    n = len(q)
    crossover = _KERNEL_CUTOFF * _HULL_FACTOR
    if n <= crossover:
        return np.array(hull_indices(q.tolist(), c.tolist()), dtype=np.intp)
    idx = np.arange(n, dtype=np.intp)
    # Whole-array passes strip interior layers while the list is long;
    # once it is short (or a pass finds nothing), the scalar scan
    # finishes the job — removals cascade only one layer per pass, so
    # iterating vectorized passes to the fixed point would cost
    # O(depth * k) instead of the scan's O(k).
    while len(idx) > crossover:
        dq = np.diff(q[idx])
        dc = np.diff(c[idx])
        prunable = dq[:-1] * dc[1:] <= dq[1:] * dc[:-1]
        if not prunable.any():
            return idx
        keep = np.empty(len(idx), dtype=bool)
        keep[0] = True
        keep[-1] = True
        np.logical_not(prunable, out=keep[1:-1])
        idx = idx[keep]
    sq = q[idx]
    sc = c[idx]
    return idx[np.array(hull_indices(sq.tolist(), sc.tolist()), dtype=np.intp)]


def _walk_pointers_dense(r, hull_q, hull_c):
    """The O(b h) stop-matrix replay of the hull walk (exact fallback).

    V rows are the per-type value profiles along the hull; each type
    stops at the first non-improving step at/after the previous type's
    stop — the object walk's pointer rule on identical floats.
    """
    h = len(hull_q)
    rows = len(r)
    values = np.multiply.outer(r, hull_c)
    np.subtract(hull_q, values, out=values)
    stop = np.empty((rows, h), dtype=bool)
    stop[:, h - 1] = True
    if h > 1:
        np.less_equal(values[:, 1:], values[:, :-1], out=stop[:, : h - 1])
    pointers = stop.argmax(axis=1)
    if rows > 1 and bool((pointers[1:] < pointers[:-1]).any()):
        # Rounding broke the monotone-pointer shortcut (the first stops
        # are not nondecreasing): replay the carried walk row by row —
        # same comparisons, same result, just not in one kernel.
        carried = 0
        for row in range(rows):
            carried += int(stop[row, carried:].argmax())
            pointers[row] = carried
    vals = values[np.arange(rows, dtype=np.intp), pointers]
    return pointers, vals


def _merge_pairs(lq, lc, rq, rc):
    """The MERGE pairing kernel on raw columns (store-independent).

    The two-pointer walk emits the pair (i, j) exactly when
    ``max(lq[i-1], rq[j-1]) < min(lq[i], rq[j])``.  Split by binding
    side: left-binding pairs (``lq[i] <= rq[j]``) pair each ``i`` with
    the first ``j`` whose ``rq[j] >= lq[i]``; right-binding pairs
    (strict, so cross-list q ties are not emitted twice) symmetrically.

    Returns ``(pair_i, pair_j, pair_q, pair_c, keep)`` where ``keep``
    is the dominance-prune result of :func:`_keep_indices` — ``None``
    when every pair survives — already applied to ``pair_i`` /
    ``pair_j`` but **not** to ``pair_q`` / ``pair_c``, so callers can
    compose the prune gather with their own output placement (the
    store's arena write, the batched store's row write).  Shared by
    :meth:`SoAStore.merge` and the batch-axis engine so the two paths
    cannot drift.
    """
    left_partner = rq.searchsorted(lq, side="left")
    left_valid = left_partner < len(rq)
    right_partner = lq.searchsorted(rq, side="left")
    right_valid = right_partner < len(lq)
    right_valid &= lq[np.minimum(right_partner, len(lq) - 1)] != rq
    pair_i = np.concatenate(
        (left_valid.nonzero()[0], right_partner[right_valid])
    )
    pair_j = np.concatenate(
        (left_partner[left_valid], right_valid.nonzero()[0])
    )
    pair_q = np.concatenate((lq[left_valid], rq[right_valid]))
    # Emission order is increasing binding q (all values distinct:
    # within-list q is strictly increasing, cross-list ties were
    # routed to the left-binding side).
    order = pair_q.argsort(kind="stable")
    pair_i = pair_i[order]
    pair_j = pair_j[order]
    pair_q = pair_q[order]
    pair_c = lc[pair_i] + rc[pair_j]
    keep = _keep_indices(pair_q, pair_c)
    if keep is not None:
        pair_i = pair_i[keep]
        pair_j = pair_j[keep]
    return pair_i, pair_j, pair_q, pair_c, keep


def _best_under_load(q, c, resistance: float, limit: float, scratch_f8):
    """First argmax of ``q - R c`` over the ``c <= limit`` prefix.

    Returns ``(index, value)`` or ``(-1, -inf)`` when nothing is
    drivable — the vectorized twin of ``buffer_ops._scan_best``, on raw
    columns so the single-net and batch-axis stores share it.
    """
    count = int(c.searchsorted(limit, side="right"))
    if count == 0:
        return -1, _NEG_INF
    values = scratch_f8(count)
    np.multiply(c[:count], resistance, out=values)
    np.subtract(q[:count], values, out=values)
    index = int(values.argmax())
    return index, float(values[index])


def _generate_betas(q, c, d, plan: BufferPlan, tape: "ProvenanceTape",
                    scratch_f8, iota, scan: bool, hull_arrays=None):
    """The pruned, tape-registered buffered candidates of ``plan``.

    The store-independent core of :meth:`SoAStore._betas`, operating on
    raw ``q`` / ``c`` / ``d`` columns so the batch-axis engine can run
    it per lane (the load-capped and scan paths) against the shared
    group tape.  Returns ``(q, c, d)`` arrays (``d`` freshly minted
    tape indices) or ``None`` when no type emits a candidate.  ``scan``
    selects the exhaustive per-type argmax over the full list (Lillis);
    otherwise ``hull_arrays = (hull_q, hull_c, hull_d)`` drives the
    broadcast hull walk (the paper's O(k + b) step, executed as one
    (b × h) kernel).  The caller owns ``hull_arrays``.
    """
    kern = plan_kernel(plan)
    n = len(q)
    size = kern.size

    if scan:
        # All types at once: V[i, j] = q[j] - R_i * c[j] over the
        # whole list, load caps masked to -inf (never the argmax of
        # a non-empty prefix, matching the scan's strict-improvement
        # rule which likewise never selects -inf).
        values = np.multiply.outer(kern.r, c)
        np.subtract(q, values, out=values)
        if kern.has_caps:
            counts = c.searchsorted(kern.limits, side="right")
            masked = iota(n) >= counts[:, None]
            values[masked] = _NEG_INF
        else:
            counts = None
        best = values.argmax(axis=1)
        vals = values[kern.iota_b, best]
        beta_q = vals - kern.k
        below = d.take(best)
        valid = vals > _NEG_INF
        if counts is not None:
            valid &= counts > 0
        if not valid.all():
            order = kern.cap_order
            ordered = order[valid[order]]
            if len(ordered) == 0:
                return None
            bq = beta_q[ordered]
            bc = kern.c_in[ordered]
        elif kern.cap_identity:
            ordered = kern.iota_b
            bq = beta_q
            bc = kern.c_in
        else:
            ordered = kern.cap_order
            bq = beta_q[ordered]
            bc = kern.c_in_cap
    else:
        hull_q, hull_c, hull_d = hull_arrays
        if not kern.has_caps:
            # The common DATE-2005 case (no load caps): one
            # broadcast replay of the walk over all b types.
            pointers, vals = _walk_pointers_dense(kern.r, hull_q,
                                                  hull_c)
            beta_q = vals - kern.k
            below = hull_d.take(pointers)
            if kern.cap_identity:
                ordered = kern.iota_b
                bq = beta_q
            else:
                ordered = kern.cap_order
                bq = beta_q[ordered]
            bc = kern.c_in_cap
        else:
            beta_q = np.empty(size, dtype=np.float64)
            below = np.empty(size, dtype=np.intp)
            valid = np.zeros(size, dtype=bool)
            uncapped = kern.uncapped
            if len(uncapped):
                pointers, vals = _walk_pointers_dense(
                    kern.r_uncapped, hull_q, hull_c
                )
                beta_q[uncapped] = vals - kern.k_uncapped
                below[uncapped] = hull_d[pointers]
                # Unconditional, exactly like the object walk: an
                # uncapped type always emits its hull candidate.
                valid[uncapped] = True
            # Load-capped types cannot use the hull shortcut (the
            # constrained optimum may be an interior point): prefix
            # scan of the full list, per type.
            buffers = plan.by_resistance_desc
            for position in range(size):
                buffer = buffers[position]
                if buffer.max_load is None:
                    continue
                index, value = _best_under_load(
                    q, c, buffer.driving_resistance, buffer.max_load,
                    scratch_f8,
                )
                if index < 0 or not value > _NEG_INF:
                    continue
                beta_q[position] = value - buffer.intrinsic_delay
                below[position] = d[index]
                valid[position] = True
            order = kern.cap_order
            ordered = order[valid[order]]
            if len(ordered) == 0:
                return None
            bq = beta_q[ordered]
            bc = kern.c_in[ordered]

    # Emit in non-decreasing C_in order and prune (paper: the betas
    # are inserted as one sorted nonredundant batch).
    keep = prune_dominated_indices(bq.tolist(), bc.tolist())
    if len(keep) != len(ordered):
        ordered = ordered[keep]
        bq = bq[keep]
        bc = bc[keep]
        tape_below = below.take(ordered)
    elif ordered is kern.iota_b:
        tape_below = below
    else:
        tape_below = below.take(ordered)
    base = tape.append_buffers(tape_below, ordered, plan)
    kept = len(ordered)
    return bq, bc, np.arange(base, base + kept, dtype=np.intp)


class SoAStore(CandidateStore):
    """Candidates as a packed ``(2, k)`` value array plus a tape column.

    ``z[0]`` holds ``q``, ``z[1]`` holds ``c`` (one arena block, so
    gathers and compactions move both coordinates in single kernels);
    ``d`` holds tape indices.  Both blocks are *capacity-backed*: the
    logical candidate count is :attr:`n`, and every kernel operates on
    the ``[:n]`` prefix.  That is what makes the WIRE kernel fully in
    place — the Elmore shift writes through the prefix views and a
    prune that drops a few candidates just splices the prefix shorter,
    with no allocation at all.

    :meth:`release` recycles the blocks, after which the store must not
    be touched (``len()`` raises so misuse fails loudly).  The in-place
    operations (:meth:`add_wire`, :meth:`apply_buffer`, :meth:`insert`)
    return ``self`` — consistent with the object backend, whose
    add-wire also mutates the list it owns.
    """

    __slots__ = ("z", "d", "n", "factory")

    def __init__(self, z, d, n: int, factory: "SoAStoreFactory") -> None:
        self.z = z
        self.d = d
        self.n = n
        self.factory = factory

    def __len__(self) -> int:
        return self.n

    @property
    def q(self):
        """The slack column (logical prefix view)."""
        return self.z[0, : self.n]

    @property
    def c(self):
        """The load column (logical prefix view)."""
        return self.z[1, : self.n]

    def release(self) -> None:
        if self.z is not None:
            arena = self.factory.arena
            arena.recycle(self.z)
            arena.recycle(self.d)
        self.z = self.d = self.n = None

    def released(self) -> bool:
        return self.z is None

    def _compact(self, keep) -> None:
        """In-place gather of the surviving rows (``keep`` increasing).

        Few contiguous runs (the wire prune drops a candidate or two)
        splice the prefix with overlapping slice moves; scattered
        survivors fall back to one block-copy gather.
        """
        kept = len(keep)
        z = self.z
        d = self.d
        if isinstance(keep, list):
            runs = []
            run_start = prev = keep[0]
            for index in keep[1:]:
                if index != prev + 1:
                    runs.append((run_start, prev + 1))
                    run_start = index
                prev = index
            runs.append((run_start, prev + 1))
            if len(runs) <= _MAX_SPLICE_RUNS:
                dst = 0
                for start, stop in runs:
                    width = stop - start
                    if start != dst:
                        z[:, dst:dst + width] = z[:, start:stop]
                        d[dst:dst + width] = d[start:stop]
                    dst += width
                self.n = kept
                return
        else:
            jumps = (keep[1:] != keep[:-1] + 1).nonzero()[0]
            if len(jumps) < _MAX_SPLICE_RUNS:
                position = 0
                dst = 0
                for jump in jumps.tolist() + [kept - 1]:
                    start = int(keep[position])
                    stop = int(keep[jump]) + 1
                    width = stop - start
                    if start != dst:
                        z[:, dst:dst + width] = z[:, start:stop]
                        d[dst:dst + width] = d[start:stop]
                    dst += width
                    position = jump + 1
                self.n = kept
                return
        arena = self.factory.arena
        n = self.n
        z2 = arena.pair(kept)
        d2 = arena.ip_block(kept)
        z[0, :n].take(keep, out=z2[0, :kept])
        z[1, :n].take(keep, out=z2[1, :kept])
        d[:n].take(keep, out=d2[:kept])
        arena.recycle(z)
        arena.recycle(d)
        self.z = z2
        self.d = d2
        self.n = kept

    def _take(self, indices) -> "SoAStore":
        arena = self.factory.arena
        count = len(indices)
        n = self.n
        z2 = arena.pair(count)
        d2 = arena.ip_block(count)
        self.z[0, :n].take(indices, out=z2[0, :count])
        self.z[1, :n].take(indices, out=z2[1, :count])
        self.d[:n].take(indices, out=d2[:count])
        return SoAStore(z2, d2, count, self.factory)

    # -- WIRE ----------------------------------------------------------

    def add_wire(self, resistance: float, capacitance: float) -> "SoAStore":
        """Fused Elmore shift + dominance re-prune, fully in place."""
        if resistance == 0.0 and capacitance == 0.0:
            return self
        n = self.n
        if n == 0:
            return self
        z = self.z
        q = z[0, :n]
        c = z[1, :n]
        half_wire = capacitance / 2.0
        # q' = q - resistance * (half_wire + c); c' = c + capacitance,
        # staged through the factory's persistent scratch row so the
        # pass allocates nothing and writes straight into the store.
        scratch = self.factory.scratch_f8(n)
        np.add(c, half_wire, out=scratch)
        np.multiply(scratch, resistance, out=scratch)
        np.subtract(q, scratch, out=q)
        np.add(c, capacitance, out=c)
        # Pruned even at resistance == 0: the uniform c shift can round
        # neighbouring c values into a tie (same rule as the object
        # backend's add_wire, which this must stay bit-identical to).
        keep = _keep_indices(q, c)
        if keep is not None:
            self._compact(keep)
        return self

    # -- MERGE ---------------------------------------------------------

    def merge(self, other: "CandidateStore") -> "SoAStore":
        assert isinstance(other, SoAStore)
        if self.n == 0 or other.n == 0:
            return self if other.n == 0 else other
        lq = self.z[0, : self.n]
        lc = self.z[1, : self.n]
        ld = self.d[: self.n]
        rq = other.z[0, : other.n]
        rc = other.z[1, : other.n]
        rd = other.d[: other.n]
        pair_i, pair_j, pair_q, pair_c, keep = _merge_pairs(lq, lc, rq, rc)
        # Deferred provenance: the surviving pairs' predecessor indices
        # go to the tape as two gathered bulk writes — no decision
        # objects, no per-pair Python.
        base = self.factory.tape.append_merges(ld[pair_i], rd[pair_j])
        arena = self.factory.arena
        kept = len(pair_i)
        z = arena.pair(kept)
        d = arena.ip_block(kept)
        if keep is None:
            z[0, :kept] = pair_q
            z[1, :kept] = pair_c
        else:
            pair_q.take(keep, out=z[0, :kept])
            pair_c.take(keep, out=z[1, :kept])
        np.add(arena.iota(kept), base, out=d[:kept])
        return SoAStore(z, d, kept, self.factory)

    # -- BUFFER --------------------------------------------------------

    def convex_hull(self) -> "SoAStore":
        n = self.n
        return self._take(_hull_indices(self.z[0, :n], self.z[1, :n]))

    def _betas(self, plan: BufferPlan, scan: bool, hull_arrays=None):
        """The pruned, tape-registered buffered candidates of ``plan``.

        Thin binding of :func:`_generate_betas` to this store's columns
        and its factory's tape/scratch (see there for the contract).
        """
        n = self.n
        factory = self.factory
        return _generate_betas(
            self.z[0, :n], self.z[1, :n], self.d[:n], plan,
            factory.tape, factory.scratch_f8, factory.arena.iota,
            scan, hull_arrays,
        )

    def _insert_arrays(self, nq, nc, nd) -> None:
        """Theorem-2 sorted insertion plus the final prune, in place.

        Equal-``c`` ties place old candidates first (``side='right'``
        is the object backend's ``old.c <= new.c`` two-pointer rule).
        ``nq``/``nc``/``nd`` are read, never owned.
        """
        arena = self.factory.arena
        n = self.n
        m = len(nq)
        total = n + m
        z = self.z
        # Old candidates precede new in the concatenation, so the
        # stable sort keeps them first on equal c.
        all_q = np.concatenate((z[0, :n], nq))
        all_c = np.concatenate((z[1, :n], nc))
        order = all_c.argsort(kind="stable")
        sorted_q = all_q.take(order)
        sorted_c = all_c.take(order)
        keep = _keep_indices(sorted_q, sorted_c)
        # Composing the sort and the prune into one gather skips the
        # interleaved intermediate entirely: values and tape indices
        # land in their final blocks in a single pass.
        if keep is None:
            final = order
            kept = total
        else:
            final = order.take(keep)
            kept = len(keep)
        all_d = np.concatenate((self.d[:n], nd))
        out_z = arena.pair(kept)
        out_d = arena.ip_block(kept)
        all_q.take(final, out=out_z[0, :kept])
        all_c.take(final, out=out_z[1, :kept])
        all_d.take(final, out=out_d[:kept])
        arena.recycle(z)
        arena.recycle(self.d)
        self.z = out_z
        self.d = out_d
        self.n = kept

    def apply_buffer(
        self, plan: BufferPlan, generator: str = "hull",
        destructive: bool = False,
    ) -> "SoAStore":
        """The fused BUFFER kernel: generate, prune, insert — in place.

        One pass over arena storage replaces the convex-hull store, the
        beta store and the insertion store of the composed default
        (:meth:`repro.core.stores.base.CandidateStore.apply_buffer`),
        whose data flow — and therefore results — it reproduces
        exactly.
        """
        n = self.n
        if n == 0:
            return self
        if generator == "scan":
            betas = self._betas(plan, scan=True)
            if betas is not None:
                self._insert_arrays(*betas)
            return self
        z = self.z
        hull_idx = _hull_indices(z[0, :n], z[1, :n])
        # The hull is a subsequence: plain fancy gathers (transient,
        # one kernel per row) beat arena round-trips here.
        hull_z = z[:, :n].take(hull_idx, axis=1)
        hull_d = self.d[:n].take(hull_idx)
        betas = self._betas(plan, scan=False,
                            hull_arrays=(hull_z[0], hull_z[1], hull_d))
        if destructive:
            # The paper's Convexpruning frees interior candidates: only
            # the hull survives into the ongoing list.
            arena = self.factory.arena
            h = len(hull_idx)
            z2 = arena.pair(h)
            d2 = arena.ip_block(h)
            z2[:, :h] = hull_z
            d2[:h] = hull_d
            arena.recycle(z)
            arena.recycle(self.d)
            self.z = z2
            self.d = d2
            self.n = h
        if betas is not None:
            self._insert_arrays(*betas)
        return self

    # -- protocol generators (standalone beta stores) ------------------

    def _wrap_betas(self, betas) -> "SoAStore":
        bq, bc, bd = betas
        count = len(bq)
        arena = self.factory.arena
        z = arena.pair(count)
        d = arena.ip_block(count)
        z[0, :count] = bq
        z[1, :count] = bc
        d[:count] = bd
        return SoAStore(z, d, count, self.factory)

    def _empty(self) -> "SoAStore":
        return SoAStore(_EMPTY_PAIR, _EMPTY_IP, 0, self.factory)

    def generate_scan(self, plan: BufferPlan) -> "SoAStore":
        if self.n == 0:
            return self
        betas = self._betas(plan, scan=True)
        if betas is None:
            return self._empty()
        return self._wrap_betas(betas)

    def generate_hull(
        self, plan: BufferPlan, hull: Optional["CandidateStore"] = None
    ) -> "SoAStore":
        if self.n == 0:
            return self
        owns_hull = hull is None
        if owns_hull:
            hull = self.convex_hull()
        assert isinstance(hull, SoAStore)
        betas = self._betas(plan, scan=False,
                            hull_arrays=(hull.q, hull.c, hull.d[: hull.n]))
        if owns_hull:
            hull.release()
        if betas is None:
            return self._empty()
        return self._wrap_betas(betas)

    def insert(self, new: "CandidateStore") -> "SoAStore":
        assert isinstance(new, SoAStore)
        if new.n == 0:
            return self
        if self.n == 0:
            keep = _keep_indices(new.q, new.c)
            if keep is not None:
                new._compact(keep)
            return new
        self._insert_arrays(new.z[0, : new.n], new.z[1, : new.n],
                            new.d[: new.n])
        return self

    # -- root ----------------------------------------------------------

    def best_for_driver(self, resistance: float) -> Optional[BestCandidate]:
        n = self.n
        if n == 0:
            return None
        q = self.z[0, :n]
        c = self.z[1, :n]
        values = self.factory.scratch_f8(n)
        np.multiply(c, resistance, out=values)
        np.subtract(q, values, out=values)
        index = int(values.argmax())
        return BestCandidate(
            q=float(q[index]),
            c=float(c[index]),
            decision=self.factory.tape.ref(int(self.d[index])),
        )


class SoAStoreFactory(StoreFactory):
    """Per-net context: the provenance tape plus the scratch arena.

    One factory may serve many solves (the compiled execution layer
    reuses one per net); :meth:`begin_solve` rewinds the tape and resets
    the scratch arena without freeing their grown capacity, so repeat
    solves run with warm, recycled buffers.  Results of earlier solves
    are unaffected: a :class:`BufferingResult` holds the *expanded*
    assignment (plain dict), never tape storage, and any
    :class:`TapeRef` that escapes a solve fails loudly once the tape is
    rewound.
    """

    def __init__(self) -> None:
        if np is None:
            raise AlgorithmError(
                "the 'soa' candidate-store backend requires numpy, which is "
                "not installed; use backend='object' instead"
            )
        self.arena = ScratchArena()
        self.tape = ProvenanceTape(self.arena)
        self.solves = 0
        self._scratch = _EMPTY_F8
        # Tape-index -> materialized decision, shared by every frontier
        # snapshot of one solve (repeated expansion stays linear in the
        # distinct reachable records).  Dropped whenever the tape
        # rewinds — its keys are tape indices.
        self._materialize_memo: Dict[int, object] = {}

    def scratch_f8(self, n: int):
        """A persistent float64 scratch row of length ``n``.

        One per factory, grown monotonically and never recycled —
        transient per-kernel staging (the wire shift, root evaluation)
        uses it instead of arena round-trips.  Valid only within one
        store operation; the next call may hand out the same row.
        """
        scratch = self._scratch
        if len(scratch) < n:
            scratch = np.empty(ScratchArena._capacity(n), dtype=np.float64)
            self._scratch = scratch
        return scratch[:n]

    def begin_solve(self) -> None:
        self.solves += 1
        self.tape.reset()
        self.arena.reset()
        self._materialize_memo.clear()

    def end_solve(self) -> None:
        # The BufferingResult holds the expanded assignment, never tape
        # indices, so the records can go now instead of pinning the
        # whole solve's provenance until the next begin_solve.
        self.tape.reset()
        self._materialize_memo.clear()

    def sink(self, node_id: int, q: float, c: float) -> SoAStore:
        index = self.tape.append_sink(node_id)
        arena = self.arena
        z = arena.pair(1)
        d = arena.ip_block(1)
        z[0, 0] = q
        z[1, 0] = c
        d[0] = index
        return SoAStore(z, d, 1, self)

    def empty(self) -> SoAStore:
        return SoAStore(_EMPTY_PAIR, _EMPTY_IP, 0, self)

    def snapshot(self, store: CandidateStore):
        """Freeze a frontier: value copies plus *materialized* provenance.

        The tape is rewound on the next ``begin_solve``, so a snapshot
        must not hold tape indices: every candidate's decision chain is
        expanded into persistent decision objects here (memoized across
        the solve's snapshots via ``_materialize_memo``).  This is
        exactly the boundary that keeps stale :class:`TapeRef`\\ s from
        leaking into the frontier cache.
        """
        assert isinstance(store, SoAStore)
        n = store.n
        memo = self._materialize_memo
        tape = self.tape
        materialize = tape.materialize
        return (
            store.z[0, :n].tolist(),
            store.z[1, :n].tolist(),
            [materialize(index, memo) for index in store.d[:n].tolist()],
        )

    def snapshot_values(self, store: CandidateStore):
        """The cheap half of a frontier capture: three array copies.

        Returns ``(q, c, d)`` where ``d`` holds raw tape indices —
        valid only against a :class:`TapeArchive` of this solve's tape
        (:meth:`archive_tape`), which the incremental engine takes once
        per resolve.  This is what keeps capture overhead proportional
        to candidate *values*, not provenance graphs.
        """
        assert isinstance(store, SoAStore)
        n = store.n
        return (
            store.z[0, :n].copy(),
            store.z[1, :n].copy(),
            store.d[:n].copy(),
        )

    def archive_tape(self) -> TapeArchive:
        """Freeze the current solve's tape (see :class:`TapeArchive`)."""
        return TapeArchive(self.tape)

    def from_snapshot(self, q, c, decisions) -> SoAStore:
        """Splice a frozen frontier into the current solve.

        Values land in fresh arena blocks (the store will be mutated in
        place by downstream WIRE kernels); provenance enters the tape as
        one bulk run of ``_TAPE_SPLICE`` records pointing at the
        already-persistent decisions.
        """
        count = len(q)
        if count == 0:
            return self.empty()
        arena = self.arena
        z = arena.pair(count)
        d = arena.ip_block(count)
        z[0, :count] = q
        z[1, :count] = c
        base = self.tape.append_splices(decisions)
        np.add(arena.iota(count), base, out=d[:count])
        return SoAStore(z, d, count, self)

    def stats(self) -> Dict[str, object]:
        """Kernel-engine health for the serving layer's ``/stats``."""
        return {
            "solves": self.solves,
            "arena": self.arena.stats(),
            "tape": self.tape.stats(),
        }
