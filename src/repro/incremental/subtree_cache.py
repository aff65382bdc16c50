"""Digest-keyed memoization of subtree candidate frontiers.

The bottom-up dynamic program is compositional: the candidate frontier
at a vertex ``v`` depends only on the subtree under ``v`` (and the
library / algorithm / backend / options context), never on anything
above it.  :mod:`repro.service.canon` already computes a Merkle digest
for every subtree; this module keys frozen frontiers on those digests,
so an edited net re-pays only the dirty path while every unchanged
subtree — and every *structurally repeated* subtree anywhere — is
answered from memory.

A cached :class:`FrontierSnapshot` must outlive the solve that produced
it, across backends with very different lifetime rules:

* the object backend's candidates are mutated in place by downstream
  add-wire steps, so the ``(q, c)`` values are copied out; the decision
  DAG is immutable and shared as-is;
* the SoA backend's provenance lives on a per-solve tape that is
  rewound between solves, so decisions are *materialized* into
  persistent objects at capture time
  (:meth:`repro.core.stores.soa.SoAStoreFactory.snapshot`) — a stale
  :class:`~repro.core.stores.soa.TapeRef` can never reach the cache.

Because decisions name the node ids of the tree they were captured
from, each snapshot also records the capture-time
:class:`~repro.service.canon.CanonicalNet` and subtree root: splicing
into a *different* (but digest-identical) subtree translates ids
through canonical indices at backtrace time (see
:class:`~repro.incremental.engine.SplicedFrontierDecision`), which is
what makes sibling subtrees that share a digest safe to serve from one
entry.

:class:`FrontierCache` is a thread-safe LRU bounded by **bytes** as
well as entries — sessions on a server share one instance, so the bound
is the serving layer's documented memory ceiling for frontier state.
Inside that bound, an entry lives as long as someone holds its key: a
session holds the keys of its current subtrees
(:meth:`FrontierCache.hold`), and an entry is dropped as soon as its
last holder lets go (:meth:`FrontierCache.release`), so frontiers that
edits superseded do not sit in memory until the bound evicts them.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from threading import Lock
from typing import Dict, Hashable, Iterable, Optional

#: Fixed per-snapshot overhead estimate (object headers, slots, the
#: cache entry itself), plus a per-candidate estimate covering the two
#: value columns, the provenance column/reference and an amortized
#: share of the per-resolve tape archive (archives are shared by all
#: of a resolve's snapshots and die with their last snapshot, so exact
#: per-entry attribution is impossible; the constant errs high).
_SNAPSHOT_BASE_BYTES = 256
_PER_CANDIDATE_BYTES = 128


class FrontierSnapshot:
    """One frozen subtree frontier, detached from any solve.

    Attributes:
        q / c: The candidates' slack / load columns (sequences of
            floats in the store's sorted order; NumPy arrays for SoA
            captures, lists for object captures).
        decisions: Per-candidate persistent provenance (decision DAG
            nodes) for object-backend captures; ``None`` for SoA
            captures, which instead carry ``archive`` + ``d``.
        archive / d: SoA deferred provenance: an immutable
            :class:`~repro.core.stores.soa.TapeArchive` shared by the
            capturing resolve's snapshots, plus this frontier's tape
            indices into it.  Decision objects are only built when the
            snapshot is spliced (:meth:`decision_list`).
        canon: The capture-time preorder index
            (:class:`~repro.incremental.engine.TreeIndex`) of the
            *whole* net the subtree belonged to — the anchor id
            translation needs; shared by all snapshots of one resolve.
        root_id: The subtree root's node id in ``canon``'s tree.
        peak / generated: The subtree's contribution to
            :class:`~repro.core.solution.DPStats` — the max final-list
            length and the candidates-generated sum over the subtree —
            so an incremental solve reports stats identical to a
            from-scratch one.
    """

    __slots__ = ("q", "c", "decisions", "archive", "d", "canon", "root_id",
                 "peak", "generated", "nbytes")

    def __init__(
        self,
        q,
        c,
        decisions: Optional[tuple],
        canon: object,
        root_id: int,
        peak: int,
        generated: int,
        archive: object = None,
        d=None,
    ) -> None:
        self.q = q
        self.c = c
        self.decisions = decisions
        self.archive = archive
        self.d = d
        self.canon = canon
        self.root_id = root_id
        self.peak = peak
        self.generated = generated
        self.nbytes = _SNAPSHOT_BASE_BYTES + _PER_CANDIDATE_BYTES * len(q)

    def decision_list(self):
        """Per-candidate decision objects, built on demand for splicing."""
        if self.decisions is not None:
            return self.decisions
        from repro.core.stores.soa import ArchivedDecision

        archive = self.archive
        return [
            ArchivedDecision(archive, index) for index in self.d.tolist()
        ]

    def __len__(self) -> int:
        return len(self.q)

    def __repr__(self) -> str:
        return (
            f"FrontierSnapshot(candidates={len(self.q)}, "
            f"root={self.root_id}, peak={self.peak})"
        )


def capture_frontier(
    store,
    factory,
    root_id: int,
    peak: int,
    generated: int,
    portable: bool = False,
) -> FrontierSnapshot:
    """Freeze a completed store's frontier outside any solver session.

    The :class:`~repro.incremental.engine.IncrementalSolver` captures
    frontiers mid-resolve with its own batching (values now, one tape
    archive at the end); this is the standalone equivalent for callers
    that ran a whole schedule to completion themselves — above all the
    parallel partition workers, which solve an extracted
    :meth:`~repro.core.schedule.CompiledNet.subschedule` and ship its
    root frontier back to the parent process.

    Args:
        store: The completed root store (object-backend candidate list,
            or a store of ``factory``'s backend).
        factory: The store factory the solve ran on, or ``None`` for
            the object backend.  SoA-family factories are archived here
            (one :meth:`archive_tape` call), so call this *before*
            ``factory.end_solve()`` and at most once per solve.
        root_id: The subtree root's node id (parent-tree coordinates —
            subschedules preserve ids, so ``canon`` stays ``None`` and
            splicing needs no translation).
        peak / generated: The solve's DP-stats contribution.
        portable: Flatten object-backend decision DAGs into
            :class:`~repro.core.candidate.ExpandedDecision`\\ s.  The
            DAG can nest as deep as the subtree, which breaks pickling
            (recursion) across process boundaries; flattening keeps the
            reconstructed assignment — hence the final result —
            bit-identical while bounding depth.  SoA captures are
            already portable (flat archive columns).
    """
    snapshot_values = (
        getattr(factory, "snapshot_values", None)
        if factory is not None else None
    )
    if snapshot_values is not None:
        q, c, d = snapshot_values(store)
        return FrontierSnapshot(
            q, c, None, None, root_id, peak, generated,
            archive=factory.archive_tape(), d=d,
        )
    q = []
    c = []
    decisions = []
    if portable:
        from repro.core.candidate import (
            ExpandedDecision,
            reconstruct_assignment,
        )
    for candidate in store:
        q.append(candidate.q)
        c.append(candidate.c)
        decision = candidate.decision
        if portable:
            decision = ExpandedDecision(reconstruct_assignment(decision))
        decisions.append(decision)
    return FrontierSnapshot(
        q, c, tuple(decisions), None, root_id, peak, generated
    )


class FrontierCache:
    """Thread-safe LRU over frontier snapshots, bounded in bytes.

    Keys are ``(subtree digest, context)`` tuples — the context folds in
    everything else a frontier depends on (library content, algorithm,
    backend, options), so one cache instance can safely serve many
    sessions with different solve contexts.

    Holders are counted per key, apart from the entries: a key may be
    held while it has no entry (not captured yet, or evicted), and
    sessions that share the cache never drop each other's frontiers.
    An entry is dropped when the last holder of its key releases it;
    the bounds keep evicting LRU entries on top, held or not.

    Args:
        max_bytes: Total estimated snapshot bytes to retain; inserting
            beyond it evicts least-recently-used entries.
        max_entries: Entry-count cap (second bound; generous default).
    """

    def __init__(
        self, max_bytes: int = 64 << 20, max_entries: int = 1 << 20
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, FrontierSnapshot]" = OrderedDict()
        self._holds: Dict[Hashable, int] = {}
        # Released keys not applied yet (see release()); every call
        # that takes the lock applies them first.
        self._releases: "deque[Hashable]" = deque()
        self._lock = Lock()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._released = 0

    def _apply_releases(self) -> None:
        """Apply the queued releases; the caller holds the lock."""
        releases = self._releases
        holds = self._holds
        while releases:
            key = releases.popleft()
            count = holds[key] - 1
            if count:
                holds[key] = count
                continue
            del holds[key]
            snapshot = self._entries.pop(key, None)
            if snapshot is not None:
                self._bytes -= snapshot.nbytes
                self._released += 1

    def get(self, key: Hashable) -> Optional[FrontierSnapshot]:
        """The snapshot under ``key`` or ``None`` (counted either way)."""
        with self._lock:
            self._apply_releases()
            snapshot = self._entries.get(key)
            if snapshot is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return snapshot

    def put(self, key: Hashable, snapshot: FrontierSnapshot) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries past bounds."""
        with self._lock:
            self._apply_releases()
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            self._entries[key] = snapshot
            self._bytes += snapshot.nbytes
            while self._entries and (
                self._bytes > self.max_bytes
                or len(self._entries) > self.max_entries
            ):
                if len(self._entries) == 1:
                    # Never evict what was just inserted: a single
                    # oversized frontier stays servable.
                    break
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1

    def hold(self, key: Hashable) -> None:
        """Add one holder to ``key``, whether or not it has an entry."""
        with self._lock:
            self._apply_releases()
            holds = self._holds
            holds[key] = holds.get(key, 0) + 1

    def release(self, keys: Iterable[Hashable]) -> None:
        """Drop one holder from each of ``keys`` (each one held before).

        A key whose last holder leaves loses its entry.  This never
        waits for the lock: the keys are queued and applied here if the
        lock is free, else by the next call that takes it.  That makes
        it safe to call from a finalizer, which the cyclic GC may run
        inside another call of this cache on the same thread.
        """
        self._releases.extend(keys)
        if self._lock.acquire(blocking=False):
            try:
                self._apply_releases()
            finally:
                self._lock.release()

    def __len__(self) -> int:
        with self._lock:
            self._apply_releases()
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Non-counting, non-LRU-touching membership probe."""
        with self._lock:
            self._apply_releases()
            return key in self._entries

    def stats(self) -> Dict[str, object]:
        """JSON-ready counters (the ``/stats`` ``incremental`` block).

        ``held`` counts keys with at least one holder and ``released``
        the entries dropped by their last holder's release; drops by
        the bounds count as ``evictions``.
        """
        with self._lock:
            self._apply_releases()
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "released": self._released,
                "entries": len(self._entries),
                "held": len(self._holds),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }
