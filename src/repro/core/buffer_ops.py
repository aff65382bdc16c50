"""The add-buffer operation: the one step the paper makes faster.

Reaching a buffer position ``v`` with nonredundant candidate list
``N(T_v)``, each buffer type ``B_i`` spawns one new candidate

    beta_i = ( q = max over a of (q(a) - K_i - R_i * c(a)),  c = C_i )

(paper Eq. 1), inserted alongside the unbuffered candidates.

* :func:`generate_lillis` computes every ``beta_i`` by a full scan:
  ``O(b * k)`` — the inner loop that makes Lillis, Cheng & Lin's
  algorithm ``O(b^2 n^2)`` overall.

* :func:`generate_fast` is the paper's contribution: convex-prune the
  list (Lemma 3: every best candidate is on the hull), then walk the
  hull once while iterating buffer types in non-increasing driving
  resistance (Lemma 1: their best candidates move right monotonically;
  Lemma 4: a local maximum on the hull is global).  Cost ``O(k + b)``.

Both return the new candidates sorted by non-decreasing ``c`` and free of
internal dominance, ready for the ``O(k + b)`` sorted-merge insertion of
Theorem 2 (:func:`insert_candidates`).  A new candidate is a
``(q, c, (node_id, buffer_name, below))`` tuple, ``below`` being the
decision of the candidate the buffer drives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.candidate import Candidate, CandidateList
from repro.core.pruning import convex_prune, prune_dominated
from repro.library.buffer_type import BufferType


class BufferPlan:
    """Per-node precomputation shared across the dynamic program.

    Holds the node's allowed buffer types in the two orders the
    operations need, so no per-visit sorting happens:

    Attributes:
        node_id: The buffer position this plan belongs to.
        by_resistance_desc: Allowed buffers, non-increasing ``R``.
        cap_order: Permutation such that iterating
            ``by_resistance_desc[i] for i in cap_order`` yields
            non-decreasing input capacitance (paper: "establish the
            order from buffer index i to the order in C_b" once).
        drive: ``(R, intrinsic delay, max_load)`` per type of
            ``by_resistance_desc``, read by the hull walk.
        by_cap: ``(index, C_in, name)`` per type in ``cap_order``,
            read by the beta prune (decisions name their type).

    Array backends additionally attach a *plan kernel* — the ``R`` /
    ``C_in`` / intrinsic-delay / load-limit columns of
    ``by_resistance_desc`` as NumPy vectors — via the two private slots
    below.  The kernel is built lazily, on first ``soa`` use, by
    :func:`repro.core.stores.soa.plan_kernel` and is cached on the
    *owning* plan so every shared view reuses one copy; this module
    itself never imports NumPy.
    """

    __slots__ = ("node_id", "by_resistance_desc", "cap_order", "drive",
                 "by_cap", "_kernel", "_shared_from")

    def __init__(self, node_id: int, buffers: Sequence[BufferType]) -> None:
        self.node_id = node_id
        self.by_resistance_desc: Tuple[BufferType, ...] = tuple(
            sorted(buffers, key=lambda b: (-b.driving_resistance, b.input_capacitance))
        )
        self.cap_order: Tuple[int, ...] = tuple(
            sorted(
                range(len(self.by_resistance_desc)),
                key=lambda i: self.by_resistance_desc[i].input_capacitance,
            )
        )
        self.drive = tuple(
            (b.driving_resistance, b.intrinsic_delay, b.max_load)
            for b in self.by_resistance_desc
        )
        self.by_cap = tuple(
            (i, self.by_resistance_desc[i].input_capacitance,
             self.by_resistance_desc[i].name)
            for i in self.cap_order
        )
        self._kernel = None
        self._shared_from: Optional["BufferPlan"] = None

    @classmethod
    def shared_view(cls, node_id: int, full_plan: "BufferPlan") -> "BufferPlan":
        """A per-node plan sharing ``full_plan``'s precomputed orders.

        Nodes that allow the whole library need identical sort orders;
        only the ``node_id`` recorded in decisions differs.  This view
        reuses ``full_plan``'s tuples instead of re-sorting (the paper's
        one-off ``O(b log b)`` cost stays one-off), without re-running
        ``__init__``.  The backlink also makes every view share the
        owning plan's lazily-built kernel arrays.
        """
        plan = cls.__new__(cls)
        plan.node_id = node_id
        plan.by_resistance_desc = full_plan.by_resistance_desc
        plan.cap_order = full_plan.cap_order
        plan.drive = full_plan.drive
        plan.by_cap = full_plan.by_cap
        plan._kernel = None
        plan._shared_from = full_plan
        return plan

    def __len__(self) -> int:
        return len(self.by_resistance_desc)


def _scan_best(
    candidates: CandidateList, resistance: float, max_load: float
) -> Tuple[Candidate, float]:
    """Min-c argmax of ``q - R c`` over candidates with ``c <= max_load``.

    Returns ``(None, -inf)`` when no candidate is drivable.  Candidates
    are c-sorted, so the scan stops at the load limit.
    """
    best = None
    best_value = float("-inf")
    for candidate in candidates:
        q, c, _ = candidate
        if c > max_load:
            break
        value = q - resistance * c
        if value > best_value:
            best_value = value
            best = candidate
    return best, best_value


def generate_lillis(candidates: CandidateList, plan: BufferPlan) -> CandidateList:
    """All buffered candidates by exhaustive scan: ``O(b * k)``.

    Ties in ``q(a) - R_i c(a)`` resolve to the minimum-``c`` candidate
    (the scan runs in increasing ``c`` and only strict improvements move
    the argmax), matching the paper's definition of the best candidate.
    Buffer types with a ``max_load`` only consider candidates they can
    legally drive; a type that can drive nothing emits no candidate.
    """
    if not candidates:
        return []
    betas: List[Optional[Candidate]] = [None] * len(plan.by_resistance_desc)
    for index, buffer in enumerate(plan.by_resistance_desc):
        limit = buffer.max_load if buffer.max_load is not None else float("inf")
        best, best_value = _scan_best(candidates, buffer.driving_resistance, limit)
        if best is None:
            continue
        betas[index] = (
            best_value - buffer.intrinsic_delay,
            buffer.input_capacitance,
            (plan.node_id, buffer.name, best[2]),
        )
    ordered = [betas[i] for i in plan.cap_order if betas[i] is not None]
    return prune_dominated(ordered)


def generate_fast(
    candidates: CandidateList,
    plan: BufferPlan,
    hull: CandidateList = None,
) -> CandidateList:
    """All buffered candidates via the hull walk: ``O(k + b)``.

    Args:
        candidates: The nonredundant list ``N(T_v)`` (sorted).
        plan: The node's buffer plan.
        hull: Optionally a precomputed ``convex_prune(candidates)``
            (the destructive mode reuses it as the surviving list).

    The walk advances only on strict improvement, so on a plateau of
    equal ``q - R c`` the leftmost (minimum ``c``) hull point wins —
    the same tie rule as :func:`generate_lillis`, which the equivalence
    tests rely on.

    Buffer types with a ``max_load`` cannot use the hull shortcut: under
    a load cap the constrained optimum may sit strictly inside the hull
    (Lemma 3 needs all resistances to be feasible), so those types fall
    back to a prefix scan of the full list.  Unconstrained types — the
    DATE-2005 setting — keep the O(k + b) walk.

    Each type's beta is first computed as a float (its ``q``) plus the
    decision of the candidate it buffers; the betas are then
    dominance-pruned in ``cap_order`` on those floats, and a beta
    becomes a candidate tuple only when it beats the last one kept.
    """
    if not candidates:
        return []
    if hull is None:
        hull = convex_prune(candidates)
    size = len(plan.drive)
    beta_q = [0.0] * size
    below: List[object] = [None] * size
    pointer = 0
    last = len(hull) - 1
    current_q, current_c, current_d = hull[0]
    for index, (resistance, delay, max_load) in enumerate(plan.drive):
        if max_load is not None:
            best, value = _scan_best(candidates, resistance, max_load)
            if best is None:
                continue
            below[index] = best[2]
        else:
            value = current_q - resistance * current_c
            while pointer < last:
                following_q, following_c, following_d = hull[pointer + 1]
                next_value = following_q - resistance * following_c
                if next_value <= value:
                    break
                pointer += 1
                current_q = following_q
                current_c = following_c
                current_d = following_d
                value = next_value
            below[index] = current_d
        beta_q[index] = value - delay
    # prune_dominated over the cap-ordered betas, on their floats.
    node_id = plan.node_id
    betas: CandidateList = []
    append = betas.append
    last_q = last_c = 0.0
    for index, c, name in plan.by_cap:
        decision = below[index]
        if decision is None:
            continue
        q = beta_q[index]
        if not betas:
            append((q, c, (node_id, name, decision)))
        elif q > last_q:
            if c == last_c:
                betas[-1] = (q, c, (node_id, name, decision))
            else:
                append((q, c, (node_id, name, decision)))
        else:
            continue
        last_q = q
        last_c = c
    return betas


def insert_candidates(
    candidates: CandidateList, new_candidates: CandidateList
) -> CandidateList:
    """Theorem 2: merge the ``beta_i`` into the list in ``O(k + b)``.

    Both inputs must be nonredundant (sorted by strictly increasing
    ``c`` and ``q``), as every add-buffer caller passes them: the list
    a position holds and the output of :func:`generate_fast` or
    :func:`generate_lillis`.  The result is their nonredundant union;
    on an equal-``c`` tie the existing candidate is ordered first.

    Only the overlap of the two ``c`` ranges is walked.  The existing
    candidates below the first new one's ``c`` all survive, so they are
    copied as one slice; once the new candidates are used up, the rest
    of the list survives from its first candidate whose ``q`` beats the
    last one kept.  Both cut points are binary searches, so beyond the
    two slice copies the step compares only the overlap and
    ``O(log k)`` more candidates.
    """
    if not new_candidates:
        return candidates
    size = len(candidates)
    # First existing candidate with c >= the first new candidate's c.
    first_c = new_candidates[0][1]
    low, high = 0, size
    while low < high:
        middle = (low + high) // 2
        if candidates[middle][1] < first_c:
            low = middle + 1
        else:
            high = middle
    merged = candidates[:low]
    append = merged.append
    i = low
    if merged:
        last_q, last_c, _ = merged[-1]
    else:
        last_q = last_c = 0.0
    # The overlap: a sorted merge (existing first on equal c) with the
    # dominance prune inline, until the new candidates are used up.
    for new in new_candidates:
        new_q, new_c, _ = new
        while i < size:
            candidate = candidates[i]
            q, c, _ = candidate
            if c > new_c:
                break
            i += 1
            if not merged:
                append(candidate)
            elif q > last_q:
                if c == last_c:
                    merged[-1] = candidate
                else:
                    append(candidate)
            else:
                continue
            last_q = q
            last_c = c
        if not merged:
            append(new)
        elif new_q > last_q:
            if new_c == last_c:
                merged[-1] = new
            else:
                append(new)
        else:
            continue
        last_q = new_q
        last_c = new_c
    # Every remaining candidate has c above the last one kept; the
    # first whose q beats it starts the surviving tail.
    low, high = i, size
    while low < high:
        middle = (low + high) // 2
        if candidates[middle][0] > last_q:
            high = middle
        else:
            low = middle + 1
    merged += candidates[low:]
    return merged
