"""Batch-axis kernel execution: one compiled instruction, many nets.

The SoA engine of :mod:`repro.core.stores.soa` removed per-candidate
Python, which left NumPy *launch latency* as the floor: every kernel
call costs ~1µs regardless of how many candidates it touches, so at
small and medium list lengths the interpreter pays more for launching
kernels than for the arithmetic inside them.  This module amortizes the
launches the same way an inference server amortizes a forward pass:
``N`` **structurally identical** nets (same instruction stream, same
plan table — the multi-corner case the serving layer's ``/batch`` dedup
discovers) execute as *one* interpreter walk whose every kernel carries
an extra leading **lane axis** of size ``N``.

Layout
======

:class:`BatchedSoAStore` holds ``(lanes, capacity)`` blocks ``q`` /
``c`` / ``d`` plus a per-lane logical-length column ``n``: lane ``i``'s
candidate list is the row prefix ``q[i, :n[i]]``.  Lanes are *ragged* —
different corners prune differently — so every whole-matrix kernel is
masked by the length column and followed by a masked compaction that
left-packs survivors per row.

Bit-identity
============

Each lane must produce *exactly* the result the single-net compiled-soa
path produces (the parity corpus in ``tests/test_batch_axis.py``
asserts ``==`` on slack, assignment and DPStats):

* arithmetic kernels (the WIRE shift, the hull-walk value matrix, the
  root evaluation) run the same IEEE-754 operations in the same order —
  the lane axis only changes *where* results land, never what is
  computed;
* selection kernels replay the scalar rules: the masked dominance prune
  is the strict running-max mask of :func:`soa._keep_indices` per row,
  with the same per-lane scalar fallback on equal-``c`` ties; the
  batched hull walk selects each type's candidate by first-hit argmax
  over the *full* list, which provably lands on the same candidate the
  hull walk of :func:`soa._walk_pointers_dense` stops at (see
  :meth:`BatchedSoAStore._betas_batched`), so the hot path builds no
  hulls at all; where real hull rows are required (load caps,
  destructive Convexpruning) each lane runs the exact single-net
  :func:`soa._hull_indices` selection;
* paths that are inherently per-lane (MERGE pairing, load-capped and
  scan beta generation) call the *same* extracted kernels the single-net
  store calls (:func:`soa._merge_pairs`, :func:`soa._generate_betas`),
  so they cannot drift.

Provenance is a single shared :class:`soa.ProvenanceTape`: each lane's
``d`` column indexes interleaved records (bulk sink/merge/buffer
appends carry per-lane runs), and the root backtrace per lane walks
only that lane's chain — ``reconstruct_assignment`` is unchanged.

Fallback rules
==============

Grouping is an optimization the caller applies when
:func:`repro.core.stores.supports_batch_axis` holds and at least two
nets share a :func:`repro.core.schedule.group_signature`; anything else
(no NumPy, non-``soa`` backend, algorithms without a store
``add_buffer`` op, singleton groups, mixed structures) takes the
existing per-net path.  :func:`solve_group` itself validates lane
compatibility and raises :class:`~repro.errors.AlgorithmError` on
misuse — the *callers* in :mod:`repro.core.batch` only form groups they
can legally dispatch.

NumPy is imported unconditionally, and this module loads only when a
lane group is dispatched: where NumPy is missing or fails to import,
the import raises :class:`ImportError`, which
:class:`~repro.core.batch.SolverPool` meets by turning its batch axis
off and solving the group's lanes one by one.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.buffer_ops import BufferPlan
from repro.core.candidate import reconstruct_assignment
from repro.core.pruning import prune_dominated_indices
from repro.core.solution import BufferingResult, DPStats
from repro.core.stores.soa import (
    _NEG_INF,
    BestCandidate,
    ProvenanceTape,
    ScratchArena,
    _generate_betas,
    _hull_indices,
    _keep_indices,
    _merge_pairs,
    kernel_cutoff,
    plan_kernel,
    prime_plan_kernels,
)
from repro.errors import AlgorithmError
from repro.obs.profiler import instrument_ops
from repro.obs.spans import active_tracer
from repro.resilience.deadline import active_deadline


class BatchedScratchArena:
    """A recycling pool of ``(lanes, power-of-two)`` NumPy blocks.

    The lane-axis twin of :class:`soa.ScratchArena`: ``f8(w)`` /
    ``ip(w)`` hand out whole capacity-backed blocks (callers track
    logical widths per lane), ``recycle`` returns them, and ``reset``
    between solves keeps the grown pool.  Blocks are uninitialized —
    every kernel that could read a stale column masks it first.
    """

    __slots__ = ("lanes", "_free_f8", "_free_ip", "_lent")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self._free_f8: Dict[int, list] = {}
        self._free_ip: Dict[int, list] = {}
        self._lent: set = set()

    def _borrow(self, pool, width: int, dtype):
        capacity = ScratchArena._capacity(max(width, 1))
        blocks = pool.get(capacity)
        if blocks:
            block = blocks.pop()
        else:
            block = np.empty((self.lanes, capacity), dtype=dtype)
        self._lent.add(id(block))
        return block

    def f8(self, width: int):
        """Borrow a float64 block of per-lane capacity ``>= width``."""
        return self._borrow(self._free_f8, width, np.float64)

    def ip(self, width: int):
        """Borrow an intp block of per-lane capacity ``>= width``."""
        return self._borrow(self._free_ip, width, np.intp)

    def recycle(self, block) -> None:
        """Return a block to its pool (foreign arrays ignored)."""
        if block is None:
            return
        key = id(block)
        if key in self._lent:
            self._lent.remove(key)
            pool = self._free_f8 if block.dtype == np.float64 else self._free_ip
            pool.setdefault(block.shape[1], []).append(block)

    def reset(self) -> None:
        """Forget outstanding loans (their blocks died with the solve)."""
        self._lent.clear()

    def stats(self) -> Dict[str, int]:
        pooled = 0
        free = 0
        for pool in (self._free_f8, self._free_ip):
            for blocks in pool.values():
                free += len(blocks)
                pooled += sum(block.nbytes for block in blocks)
        return {
            "free_blocks": free,
            "lent_blocks": len(self._lent),
            "pooled_bytes": pooled,
        }


class BatchedSoAFactory:
    """Per-group context: shared tape, lane arena, named work matrices.

    One factory serves one *group width* (``lanes``) and may be reused
    across groups of that width — :meth:`begin_solve` rewinds the tape
    and resets both arenas without freeing capacity, so repeat grouped
    solves run warm exactly like the single-net factory does.

    ``cells`` is an ordinary 1-D :class:`soa.ScratchArena`; it backs
    the shared :class:`soa.ProvenanceTape` and the per-lane length
    columns.  ``work(name, width, dtype)`` hands out persistent named
    ``(lanes, >=width)`` staging matrices (grown monotonically, never
    recycled) — the batched kernels' equivalent of the single-net
    factory's ``scratch_f8`` row.  A name is valid only within one
    store operation; the next operation may reuse it.
    """

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ValueError(f"need at least one lane, got {lanes}")
        self.lanes = lanes
        self.cells = ScratchArena()
        self.tape = ProvenanceTape(self.cells)
        self.arena = BatchedScratchArena(lanes)
        self.solves = 0
        self._scratch = np.empty(0, dtype=np.float64)
        self._work: Dict[str, object] = {}

    def scratch_f8(self, n: int):
        """A persistent 1-D float64 scratch row (per-lane fallbacks)."""
        scratch = self._scratch
        if len(scratch) < n:
            scratch = np.empty(ScratchArena._capacity(n), dtype=np.float64)
            self._scratch = scratch
        return scratch[:n]

    def work(self, name: str, width: int, dtype):
        """The named persistent ``(lanes, width)`` staging view."""
        block = self._work.get(name)
        capacity = ScratchArena._capacity(max(width, 1))
        if block is None or block.shape[1] < capacity:
            block = np.empty((self.lanes, capacity), dtype=dtype)
            self._work[name] = block
        return block[:, :width]

    def begin_solve(self) -> None:
        self.solves += 1
        self.tape.reset()
        self.cells.reset()
        self.arena.reset()

    def end_solve(self) -> None:
        self.tape.reset()

    def lengths(self):
        """A fresh per-lane length column (recycled with its store)."""
        return self.cells.ip(self.lanes)

    def sink_group(self, node_id: int, q_col, c_col) -> "BatchedSoAStore":
        """All lanes' sink candidate at ``node_id``, one tape append."""
        base = self.tape.append_sinks(node_id, self.lanes)
        arena = self.arena
        q = arena.f8(1)
        c = arena.f8(1)
        d = arena.ip(1)
        q[:, 0] = q_col
        c[:, 0] = c_col
        d[:, 0] = np.arange(base, base + self.lanes, dtype=np.intp)
        n = self.lengths()
        n[:] = 1
        return BatchedSoAStore(q, c, d, n, self)

    def stats(self) -> Dict[str, object]:
        """Engine health for the serving layer's ``/stats``."""
        return {
            "solves": self.solves,
            "lanes": self.lanes,
            "arena": self.arena.stats(),
            "cells": self.cells.stats(),
            "tape": self.tape.stats(),
        }


def _keep_rows(factory: BatchedSoAFactory, q, c, lengths, width: int):
    """Per-lane dominance-prune survivor mask over ``(lanes, width)``.

    Lane ``i``'s row of the returned bool view marks exactly the
    indices :func:`soa._keep_indices` keeps on ``q[i, :lengths[i]]`` /
    ``c[i, :lengths[i]]`` (selection only, so trivially bit-identical).
    Tiny problems take the scalar scan per lane; otherwise the tie-free
    strict running-max mask runs batched, with a per-lane scalar
    fallback for lanes whose valid prefix contains an equal-``c`` tie.
    Columns at or beyond a lane's length are always ``False``.
    """
    lanes = q.shape[0]
    keep = factory.work("keep_rows", width, bool)
    if lanes * width <= kernel_cutoff():
        for lane in range(lanes):
            length = int(lengths[lane])
            row = keep[lane]
            row[:] = False
            if length == 0:
                continue
            kept = prune_dominated_indices(
                q[lane, :length].tolist(), c[lane, :length].tolist()
            )
            if len(kept) == length:
                row[:length] = True
            else:
                row[np.array(kept, dtype=np.intp)] = True
        return keep
    iota = factory.cells.iota
    valid = factory.work("keep_valid", width, bool)
    np.less(iota(width)[None, :], lengths[:, None], out=valid)
    keep[:, 0] = True
    if width > 1:
        running = factory.work("keep_runmax", width, np.float64)
        np.maximum.accumulate(q, axis=1, out=running)
        np.greater(q[:, 1:], running[:, :-1], out=keep[:, 1:])
    np.logical_and(keep, valid, out=keep)
    if width > 1:
        tie = factory.work("keep_tie", width, bool)
        np.equal(c[:, 1:], c[:, :-1], out=tie[:, : width - 1])
        np.logical_and(tie[:, : width - 1], valid[:, 1:],
                       out=tie[:, : width - 1])
        tie_lanes = tie[:, : width - 1].any(axis=1)
        if tie_lanes.any():
            # Equal-c runs need the general rule (first max-q of each
            # run): replay the scalar scan on just those lanes.
            for lane in np.flatnonzero(tie_lanes):
                length = int(lengths[lane])
                kept = prune_dominated_indices(
                    q[lane, :length].tolist(), c[lane, :length].tolist()
                )
                row = keep[lane]
                row[:] = False
                row[np.array(kept, dtype=np.intp)] = True
    return keep


def _compact_rows(factory: BatchedSoAFactory, keep, width: int,
                  blocks) -> None:
    """Left-pack the kept columns of every row of ``blocks`` in place.

    ``keep`` is a ``(lanes, width)`` survivor mask.  Safe in place:
    destinations never exceed sources (fancy-index assignment reads the
    whole right-hand side before writing).
    """
    rows, cols = np.nonzero(keep)
    positions = factory.work("compact_pos", width, np.intp)
    np.cumsum(keep, axis=1, dtype=np.intp, out=positions)
    dst = positions[rows, cols] - 1
    for block in blocks:
        block[rows, dst] = block[rows, cols]


class BatchedSoAStore:
    """``N`` candidate lists as ``(lanes, capacity)`` blocks + lengths.

    The lane-axis twin of :class:`soa.SoAStore`.  ``q`` / ``c`` hold
    the slack/load columns, ``d`` per-lane tape indices, and ``n`` the
    per-lane logical lengths; every kernel operates on the
    ``[:, :n.max()]`` prefix under masks derived from ``n``.  The
    in-place operations return ``self`` so the algorithms' store
    ``add_buffer`` callables (``store.apply_buffer(plan, ...)``) work
    unchanged.
    """

    __slots__ = ("q", "c", "d", "n", "factory")

    def __init__(self, q, c, d, n, factory: BatchedSoAFactory) -> None:
        self.q = q
        self.c = c
        self.d = d
        self.n = n
        self.factory = factory

    @property
    def lanes(self) -> int:
        return self.factory.lanes

    def __len__(self) -> int:
        """Widest lane (the interpreter tracks per-lane stats itself)."""
        return int(self.n.max())

    def release(self) -> None:
        if self.q is not None:
            arena = self.factory.arena
            arena.recycle(self.q)
            arena.recycle(self.c)
            arena.recycle(self.d)
            self.factory.cells.recycle(self.n)
        self.q = self.c = self.d = self.n = None

    # -- shared masked prune -------------------------------------------

    def _prune(self) -> None:
        """Masked dominance re-prune + compaction of every lane."""
        n = self.n
        width = int(n.max())
        if width == 0:
            return
        factory = self.factory
        keep = _keep_rows(factory, self.q[:, :width], self.c[:, :width],
                          n, width)
        counts = keep.sum(axis=1)
        if (counts == n).all():
            return
        _compact_rows(factory, keep, width, (self.q, self.c, self.d))
        np.copyto(n, counts)

    # -- WIRE ----------------------------------------------------------

    def add_wire(self, r_col, c_col) -> "BatchedSoAStore":
        """The Elmore shift across all lanes, fully in place.

        ``r_col`` / ``c_col`` are per-lane parasitics of the *same*
        structural edge (corners differ per lane).  Identical staging
        to :meth:`soa.SoAStore.add_wire` with a broadcast lane axis:
        ``q -= r * (c_wire/2 + c)``, ``c += c_wire`` (note
        ``c * 0.5 == c / 2.0`` exactly — both are correctly rounded).
        A lane with ``r == c == 0`` is arithmetically untouched and,
        being already nonredundant, unchanged by the re-prune — exactly
        the single-net early-return.
        """
        n = self.n
        width = int(n.max())
        if width == 0:
            return self
        q = self.q[:, :width]
        c = self.c[:, :width]
        factory = self.factory
        half = factory.work("wire_half", 1, np.float64)[:, 0]
        np.multiply(c_col, 0.5, out=half)
        shift = factory.work("wire_shift", width, np.float64)
        np.add(c, half[:, None], out=shift)
        np.multiply(shift, r_col[:, None], out=shift)
        np.subtract(q, shift, out=q)
        np.add(c, c_col[:, None], out=c)
        self._prune()
        return self

    # -- MERGE ---------------------------------------------------------

    def merge(self, other: "BatchedSoAStore") -> "BatchedSoAStore":
        """Per-lane two-pointer merge through :func:`soa._merge_pairs`.

        Merges have no batched form (each lane's pairing depends on its
        own value interleaving), but they are also the cheap, rare
        instruction — sink fan-in only.  An empty side passes the other
        lane's row through unchanged, matching the single-net
        short-circuit (values and tape indices are preserved; only
        their storage row moves).
        """
        factory = self.factory
        tape = factory.tape
        arena = factory.arena
        iota = factory.cells.iota
        ln = self.n
        rn = other.n
        bound = int((ln + rn).max())
        out_q = arena.f8(bound)
        out_c = arena.f8(bound)
        out_d = arena.ip(bound)
        out_n = factory.lengths()
        for lane in range(factory.lanes):
            a = int(ln[lane])
            b = int(rn[lane])
            if a == 0 or b == 0:
                src = other if a == 0 else self
                count = a + b
                out_q[lane, :count] = src.q[lane, :count]
                out_c[lane, :count] = src.c[lane, :count]
                out_d[lane, :count] = src.d[lane, :count]
                out_n[lane] = count
                continue
            pair_i, pair_j, pair_q, pair_c, keep = _merge_pairs(
                self.q[lane, :a], self.c[lane, :a],
                other.q[lane, :b], other.c[lane, :b],
            )
            base = tape.append_merges(
                self.d[lane, :a][pair_i], other.d[lane, :b][pair_j]
            )
            kept = len(pair_i)
            if keep is None:
                out_q[lane, :kept] = pair_q
                out_c[lane, :kept] = pair_c
            else:
                pair_q.take(keep, out=out_q[lane, :kept])
                pair_c.take(keep, out=out_c[lane, :kept])
            np.add(iota(kept), base, out=out_d[lane, :kept])
            out_n[lane] = kept
        return BatchedSoAStore(out_q, out_c, out_d, out_n, factory)

    # -- BUFFER --------------------------------------------------------

    def _hull_rows(self):
        """Per-lane convex hulls as masked ``(lanes, hmax)`` matrices.

        Returns ``(hq, hc, hd, hn, hmax)`` — work views holding each
        lane's hull prefix.  Only the load-capped walk and destructive
        (Convexpruning) compaction consume hull *rows*, and both are
        per-lane data flows anyway, so each lane runs
        :func:`soa._hull_indices` — the very selection the sequential
        path runs on the same floats — and gathers its survivors into
        the shared views.  The batched no-caps walk never calls this
        (see :meth:`_betas_batched` for why it needs no hull at all).
        """
        n = self.n
        width = int(n.max())
        factory = self.factory
        hq = factory.work("hull_q", width, np.float64)
        hc = factory.work("hull_c", width, np.float64)
        hd = factory.work("hull_d", width, np.intp)
        hn = np.array(n)
        for lane in range(factory.lanes):
            length = int(n[lane])
            if length == 0:
                continue
            idx = _hull_indices(self.q[lane, :length], self.c[lane, :length])
            kept = len(idx)
            self.q[lane, :length].take(idx, out=hq[lane, :kept])
            self.c[lane, :length].take(idx, out=hc[lane, :kept])
            self.d[lane, :length].take(idx, out=hd[lane, :kept])
            hn[lane] = kept
        return hq, hc, hd, hn, int(hn.max())

    def _betas_batched(self, plan: BufferPlan):
        """The no-load-caps hull walk over all lanes and types at once.

        No hull is built here, and none is needed: the single-net walk
        (:func:`soa._walk_pointers_dense`) stops each type at the first
        non-improving step of its value profile along the hull, and
        because values of ``q - r c`` along a convex hull are unimodal,
        that stop is the hull's *first maximizer*.  The same candidate
        is recoverable from the full list directly — every maximizer
        lies on the hull's maximizing face, the face's minimum-``c``
        vertex is the walk's stop, and lists are sorted by strictly
        increasing ``c``, so a first-hit ``argmax`` over the full list
        lands on the identical candidate (same floats through the same
        ``q - r c`` kernel ops; interior points are strictly below the
        face, collinear face points follow the stop in list order).
        Skipping hull construction entirely is what lets the walk run
        as one fused ``(lanes, b, width)`` kernel; pad columns are
        masked to ``-inf`` so each lane's argmax stays inside its own
        prefix.  The beta emission of :func:`soa._generate_betas` then
        runs as masked row kernels with one bulk tape append covering
        every lane.  Returns ``(nq, nc, nd, m, mmax)`` — per-lane beta
        rows and counts (``m[i] == 0`` for lanes that emit nothing).
        """
        kern = plan_kernel(plan)
        factory = self.factory
        lanes = factory.lanes
        iota = factory.cells.iota
        size = kern.size
        n = self.n
        width = int(n.max())
        values = np.multiply(kern.r[None, :, None], self.c[:, None, :width])
        np.subtract(self.q[:, None, :width], values, out=values)
        pad = factory.work("walk_pad", width, bool)
        np.greater_equal(iota(width)[None, :], n[:, None], out=pad)
        np.copyto(values, _NEG_INF, where=pad[:, None, :])
        pointers = values.argmax(axis=2)
        vals = np.take_along_axis(values, pointers[:, :, None], axis=2)[:, :, 0]
        beta_q = vals - kern.k[None, :]
        below = np.take_along_axis(self.d[:, :width], pointers, axis=1)
        if kern.cap_identity:
            ordered = kern.iota_b
            bq = beta_q
            below_ordered = below
        else:
            ordered = kern.cap_order
            bq = beta_q[:, ordered]
            below_ordered = below[:, ordered]
        bc = kern.c_in_cap

        # Beta prune per lane (selection identical to the scalar
        # prune_dominated_indices the single-net path runs on b values).
        active = self.n > 0
        keep = factory.work("beta_keep", size, bool)
        if size > 1 and bool((bc[1:] == bc[:-1]).any()):
            # Equal C_in between adjacent types needs the general
            # equal-c-run rule: replay the scalar prune per lane.
            keep[:] = False
            for lane in np.flatnonzero(active):
                kept = prune_dominated_indices(bq[lane].tolist(), bc.tolist())
                keep[lane, np.array(kept, dtype=np.intp)] = True
        else:
            keep[:, 0] = True
            if size > 1:
                running = factory.work("beta_runmax", size, np.float64)
                np.maximum.accumulate(bq, axis=1, out=running)
                np.greater(bq[:, 1:], running[:, :-1], out=keep[:, 1:])
            np.logical_and(keep, active[:, None], out=keep)

        m = keep.sum(axis=1)
        mmax = int(m.max())
        if mmax == 0:
            return None, None, None, m, 0
        rows, cols = np.nonzero(keep)
        base = factory.tape.append_buffers(
            below_ordered[rows, cols], ordered[cols], plan
        )
        offsets = np.zeros(lanes, dtype=np.intp)
        np.cumsum(m[:-1], out=offsets[1:])
        positions = factory.work("beta_pos", size, np.intp)
        np.cumsum(keep, axis=1, dtype=np.intp, out=positions)
        dst = positions[rows, cols] - 1
        nq = factory.work("beta_q_rows", mmax, np.float64)
        nc = factory.work("beta_c_rows", mmax, np.float64)
        nd = factory.work("beta_d_rows", mmax, np.intp)
        nq[rows, dst] = bq[rows, cols]
        nc[rows, dst] = bc[cols]
        nd[rows, dst] = base + offsets[rows] + dst
        return nq, nc, nd, m, mmax

    def _betas_per_lane(self, plan: BufferPlan, scan: bool,
                        hull=None):
        """Per-lane beta generation through :func:`soa._generate_betas`.

        The load-capped hull path and the Lillis scan path have
        per-lane data flow (prefix scans against each lane's own list),
        so they run the extracted single-net kernel lane by lane against
        the shared tape — bit-identity is inherited, not re-proven.
        """
        factory = self.factory
        n = self.n
        per_lane: List[Optional[tuple]] = []
        mmax = 0
        for lane in range(factory.lanes):
            length = int(n[lane])
            if length == 0:
                per_lane.append(None)
                continue
            if scan:
                hull_arrays = None
            else:
                hq, hc, hd, hn, _ = hull
                hull_length = int(hn[lane])
                hull_arrays = (
                    hq[lane, :hull_length],
                    hc[lane, :hull_length],
                    hd[lane, :hull_length],
                )
            betas = _generate_betas(
                self.q[lane, :length], self.c[lane, :length],
                self.d[lane, :length], plan, factory.tape,
                factory.scratch_f8, factory.cells.iota, scan, hull_arrays,
            )
            per_lane.append(betas)
            if betas is not None and len(betas[0]) > mmax:
                mmax = len(betas[0])
        m = np.zeros(factory.lanes, dtype=np.intp)
        if mmax == 0:
            return None, None, None, m, 0
        nq = factory.work("beta_q_rows", mmax, np.float64)
        nc = factory.work("beta_c_rows", mmax, np.float64)
        nd = factory.work("beta_d_rows", mmax, np.intp)
        for lane, betas in enumerate(per_lane):
            if betas is None:
                continue
            bq, bc, bd = betas
            count = len(bq)
            nq[lane, :count] = bq
            nc[lane, :count] = bc
            nd[lane, :count] = bd
            m[lane] = count
        return nq, nc, nd, m, mmax

    def _insert_rows(self, nq, nc, nd, m, mmax: int) -> None:
        """Theorem-2 sorted insertion + final prune across all lanes.

        Stage each lane's old prefix followed by its betas, sort every
        row by ``c`` with one stable axis-1 argsort (old-before-new on
        equal ``c`` — the object backend's ``<=`` merge — and ``+inf``
        pad keys sorting last), then masked-prune and gather survivors
        into fresh arena blocks.
        """
        factory = self.factory
        iota = factory.cells.iota
        n = self.n
        total = n + m
        full = int(total.max())
        width = int(n.max())
        aq = factory.work("ins_q", full, np.float64)
        ac = factory.work("ins_c", full, np.float64)
        ad = factory.work("ins_d", full, np.intp)
        if width:
            aq[:, :width] = self.q[:, :width]
            ac[:, :width] = self.c[:, :width]
            ad[:, :width] = self.d[:, :width]
        new_mask = factory.work("ins_new", mmax, bool)
        np.less(iota(mmax)[None, :], m[:, None], out=new_mask)
        rows, cols = np.nonzero(new_mask)
        dst = n[rows] + cols
        aq[rows, dst] = nq[rows, cols]
        ac[rows, dst] = nc[rows, cols]
        ad[rows, dst] = nd[rows, cols]
        invalid = factory.work("ins_pad", full, bool)
        np.greater_equal(iota(full)[None, :], total[:, None], out=invalid)
        np.copyto(ac[:, :full], np.inf, where=invalid)
        order = np.argsort(ac[:, :full], axis=1, kind="stable")
        sq = np.take_along_axis(aq[:, :full], order, axis=1)
        sc = np.take_along_axis(ac[:, :full], order, axis=1)
        sd = np.take_along_axis(ad[:, :full], order, axis=1)
        keep = _keep_rows(factory, sq, sc, total, full)
        counts = keep.sum(axis=1)
        arena = factory.arena
        out_q = arena.f8(full)
        out_c = arena.f8(full)
        out_d = arena.ip(full)
        rows, cols = np.nonzero(keep)
        positions = factory.work("compact_pos", full, np.intp)
        np.cumsum(keep, axis=1, dtype=np.intp, out=positions)
        dst = positions[rows, cols] - 1
        out_q[rows, dst] = sq[rows, cols]
        out_c[rows, dst] = sc[rows, cols]
        out_d[rows, dst] = sd[rows, cols]
        arena.recycle(self.q)
        arena.recycle(self.c)
        arena.recycle(self.d)
        self.q = out_q
        self.c = out_c
        self.d = out_d
        np.copyto(n, counts)

    def apply_buffer(
        self, plan: BufferPlan, generator: str = "hull",
        destructive: bool = False,
    ) -> "BatchedSoAStore":
        """The fused BUFFER kernel across all lanes, in place.

        Mirrors :meth:`soa.SoAStore.apply_buffer` lane for lane: empty
        lanes pass through untouched (the single-net early return), the
        uncapped hull path runs fully batched, and the capped/scan
        paths run the shared per-lane kernel.
        """
        n = self.n
        width = int(n.max())
        if width == 0:
            return self
        if generator == "scan":
            nq, nc, nd, m, mmax = self._betas_per_lane(plan, scan=True)
            if mmax:
                self._insert_rows(nq, nc, nd, m, mmax)
            return self
        hull = None
        if plan_kernel(plan).has_caps or destructive:
            hull = self._hull_rows()
        if plan_kernel(plan).has_caps:
            nq, nc, nd, m, mmax = self._betas_per_lane(
                plan, scan=False, hull=hull
            )
        else:
            nq, nc, nd, m, mmax = self._betas_batched(plan)
        if destructive:
            # Convexpruning: only the hull survives into the ongoing
            # list (betas were generated from the pre-replacement list
            # first, exactly like the single-net path).
            hq, hc, hd, hn, hmax = hull
            self.q[:, :hmax] = hq[:, :hmax]
            self.c[:, :hmax] = hc[:, :hmax]
            self.d[:, :hmax] = hd[:, :hmax]
            np.copyto(self.n, hn)
        if mmax:
            self._insert_rows(nq, nc, nd, m, mmax)
        return self

    # -- root ----------------------------------------------------------

    def best_for_lane(self, lane: int, resistance: float) -> Optional[BestCandidate]:
        """Lane ``lane``'s first argmax of ``q - R c`` (root rule)."""
        length = int(self.n[lane])
        if length == 0:
            return None
        q = self.q[lane, :length]
        c = self.c[lane, :length]
        values = self.factory.scratch_f8(length)
        np.multiply(c, resistance, out=values)
        np.subtract(q, values, out=values)
        index = int(values.argmax())
        return BestCandidate(
            q=float(q[index]),
            c=float(c[index]),
            decision=self.factory.tape.ref(int(self.d[lane, index])),
        )


def solve_group(
    nets,
    library,
    algorithm: str = "fast",
    driver=None,
    options: Optional[Dict[str, object]] = None,
    factory: Optional[BatchedSoAFactory] = None,
) -> List[BufferingResult]:
    """Solve structurally identical compiled nets as one batched walk.

    ``nets`` are :class:`~repro.core.schedule.CompiledNet` instances
    sharing one :func:`~repro.core.schedule.group_signature` (callers
    group; this validates).  Fetches each instruction once and executes
    it across all lanes; finishing (driver evaluation, backtrace,
    stats) is per lane, so lanes may carry different drivers, sink
    payloads and wire parasitics.  Returns per-lane
    :class:`BufferingResult`\\ s in input order, each bit-identical to
    the single-net compiled-soa solve of that lane.

    ``runtime_seconds`` in each lane's stats is the group wall-clock
    divided by the lane count — the amortized per-net cost, which is
    the comparable number against a sequential per-net solve.
    """
    from repro.core.registry import get_algorithm
    from repro.core.schedule import group_signature

    if not nets:
        return []
    representative = nets[0]
    signature = group_signature(representative)
    for net in nets[1:]:
        if group_signature(net) != signature:
            raise AlgorithmError(
                "batch-axis group contains structurally different nets; "
                "group by repro.core.schedule.group_signature first"
            )
    options = dict(options or {})
    algo = get_algorithm(algorithm)
    add_buffer = algo.add_buffer_op("soa", library, **options)
    label = algo.stats_label(**options)
    for net in nets:
        net.check_library(library)

    lanes = len(nets)
    if factory is None:
        factory = BatchedSoAFactory(lanes)
    elif factory.lanes != lanes:
        raise AlgorithmError(
            f"group factory has {factory.lanes} lanes, group has {lanes}"
        )
    plans = representative.plans()
    prime_plan_kernels(plans)
    steps = representative.runtime()[0]
    sink_node = representative.runtime()[3]
    wire_r = np.array([net.wire_r for net in nets], dtype=np.float64)
    wire_c = np.array([net.wire_c for net in nets], dtype=np.float64)
    sink_q = np.array([net.sink_q for net in nets], dtype=np.float64)
    sink_c = np.array([net.sink_c for net in nets], dtype=np.float64)
    drivers = [
        net.driver if driver is None else driver for net in nets
    ]

    factory.begin_solve()
    deadline = active_deadline()
    tracer = active_tracer()
    # Hoisted unbound ops: a local load per instruction instead of an
    # attribute lookup, and the uniform shape the kernel profiler wraps.
    # With no active profiler these come back untouched (one
    # thread-local read for the whole group).
    sink_op, wire_op, merge_op, buffer_op, end_range = instrument_ops(
        factory.sink_group, BatchedSoAStore.add_wire,
        BatchedSoAStore.merge, add_buffer,
    )
    group_handle = (
        tracer.begin(
            "batch_axis.group", lanes=lanes, instructions=len(steps)
        )
        if tracer is not None
        else None
    )
    started = time.perf_counter()
    stack: List[BatchedSoAStore] = []
    peak = np.zeros(lanes, dtype=np.intp)
    generated = np.zeros(lanes, dtype=np.intp)
    scratch_counts = np.empty(lanes, dtype=np.intp)
    # Stale lane columns can hold any bit pattern; masked kernels may
    # touch them arithmetically before discarding them, so overflow and
    # invalid-operation warnings from the pad region are expected noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for op, arg in steps:
            code = op & 3
            if code == 1:  # OP_WIRE
                current = wire_op(stack[-1], wire_r[:, arg], wire_c[:, arg])
            elif code == 0:  # OP_SINK
                current = sink_op(
                    sink_node[arg], sink_q[:, arg], sink_c[:, arg]
                )
                generated += 1
                stack.append(current)
            elif code == 2:  # OP_MERGE
                right = stack.pop()
                left = stack.pop()
                current = merge_op(left, right)
                generated += current.n
                left.release()
                right.release()
                stack.append(current)
            else:  # OP_BUFFER
                top = stack[-1]
                scratch_counts[:] = top.n
                current = buffer_op(top, plans[arg])
                if current is not top:  # pragma: no cover - custom algos
                    top.release()
                    stack[-1] = current
                np.subtract(current.n, scratch_counts, out=scratch_counts)
                np.maximum(scratch_counts, 0, out=scratch_counts)
                generated += scratch_counts
            if op & 4:  # OP_FINAL
                np.maximum(peak, current.n, out=peak)
                if deadline is not None:
                    deadline.check("batch_axis.group")
                if end_range is not None:
                    end_range(int(current.n.max()))
    if group_handle is not None:
        tracer.end(group_handle)
    root = stack.pop()
    assert not stack, "schedule left operands on the stack"
    elapsed = time.perf_counter() - started
    amortized = elapsed / lanes

    results: List[BufferingResult] = []
    for lane in range(lanes):
        lane_driver = drivers[lane]
        resistance = lane_driver.resistance if lane_driver is not None else 0.0
        best = root.best_for_lane(lane, resistance)
        assert best is not None  # a validated net always yields candidates
        slack = best.q - (
            lane_driver.delay(best.c) if lane_driver is not None else 0.0
        )
        stats = DPStats(
            algorithm=label,
            num_buffer_positions=nets[lane].num_buffer_positions,
            library_size=library.size,
            root_candidates=int(root.n[lane]),
            peak_list_length=int(peak[lane]),
            candidates_generated=int(generated[lane]),
            runtime_seconds=amortized,
            backend="soa",
        )
        results.append(
            BufferingResult(
                slack=slack,
                assignment=reconstruct_assignment(best.decision, library),
                driver_load=best.c,
                stats=stats,
            )
        )
    root.release()
    factory.end_solve()
    return results
