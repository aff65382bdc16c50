"""Dominance pruning and the paper's convex pruning (Graham's scan).

Two prunes appear in the algorithms:

* **Dominance pruning** keeps the nonredundant set: candidates sorted by
  strictly increasing ``c`` and strictly increasing ``q``.  It restores
  the invariant after operations that may break the ``q`` ordering or
  introduce dominated points.  The object store's add-wire, merge and
  insertion kernels run it inline on their own floats; the buffered
  candidates of the exhaustive scan go through :func:`prune_dominated`.

* **Convex pruning** (paper Fig. 2, function ``Convexpruning``) further
  removes candidates strictly inside the upper-left convex hull of the
  (C, Q) point set.  Lemma 3 proves the best candidate for any buffer
  type survives, so buffered candidates may be generated from the hull
  alone.  The scan is Graham's scan specialized to pre-sorted points,
  hence linear time (Lemma 2).

The candidate forms take the object store's ``(q, c, decision)`` tuples
and return survivors as the same tuple objects; the index forms
(:func:`prune_dominated_indices`, :func:`hull_indices`) serve the array
stores.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.candidate import Candidate, CandidateList


def prune_dominated(candidates: CandidateList) -> CandidateList:
    """Reduce a c-sorted candidate list to its nonredundant subset.

    Input must be sorted by non-decreasing ``c`` (ties allowed, any ``q``
    order); output is sorted by strictly increasing ``c`` and ``q``.
    Among candidates tied in both ``q`` and ``c`` the earliest survives.
    Linear time.
    """
    iterator = iter(candidates)
    for first in iterator:
        break
    else:
        return []
    result: CandidateList = [first]
    append = result.append
    # The last kept candidate's coordinates stay in locals: a candidate
    # survives exactly when its q beats the last kept q; an equal-c
    # survivor replaces the kept one, any other is appended.
    last_q, last_c, _ = first
    for candidate in iterator:
        q, c, _ = candidate
        if c < last_c:
            raise ValueError("prune_dominated requires c-sorted input")
        if q > last_q:
            if c == last_c:
                result[-1] = candidate
            else:
                append(candidate)
            last_q = q
            last_c = c
    return result


def _left_turn_or_straight(a1: Candidate, a2: Candidate, a3: Candidate) -> bool:
    """Paper Eq. (2): true when ``a2`` must be pruned.

    With C as the x-axis and Q as the y-axis, ``a2`` lies on or below the
    segment ``a1 -> a3`` exactly when
    ``(q2 - q1) / (c2 - c1) <= (q3 - q2) / (c3 - c2)``; cross-multiplying
    by the positive denominators avoids the division.
    """
    q1, c1, _ = a1
    q2, c2, _ = a2
    q3, c3, _ = a3
    return (q2 - q1) * (c3 - c2) <= (q3 - q2) * (c2 - c1)


def convex_prune(candidates: Sequence[Candidate]) -> CandidateList:
    """The surviving hull of ``Convexpruning``, non-destructively.

    Input must be a nonredundant list (strictly increasing ``c`` and
    ``q``); the result is the subsequence forming the upper-left convex
    hull: slopes between consecutive survivors strictly decrease.

    This is Graham's scan on pre-sorted points: each candidate is pushed
    once and popped at most once, so the scan is O(k) (Lemma 2).  The
    input list is not modified; the paper's destructive variant is simply
    ``lst[:] = convex_prune(lst)``, which
    :class:`repro.core.fast.FastBufferInsertion` exposes via its
    ``destructive_pruning`` flag.
    """
    # A preallocated hull store with a depth counter, plus the last two
    # hull points' coordinates in locals (``q1, c1`` the top, ``q2, c2``
    # the one below it): the popping predicate is Eq. (2) on floats, and
    # a pop reads only the new second point.
    hull: CandidateList = [None] * len(candidates)  # type: ignore[list-item]
    q1 = c1 = q2 = c2 = 0.0
    depth = 0
    for candidate in candidates:
        q, c, _ = candidate
        while depth >= 2 and (q1 - q2) * (c - c1) <= (q - q1) * (c1 - c2):
            depth -= 1
            q1 = q2
            c1 = c2
            if depth >= 2:
                q2, c2, _ = hull[depth - 2]
        hull[depth] = candidate
        depth += 1
        q2 = q1
        c2 = c1
        q1 = q
        c1 = c
    del hull[depth:]
    return hull


def prune_dominated_indices(q: Sequence[float], c: Sequence[float]) -> List[int]:
    """Index form of :func:`prune_dominated` over parallel ``q``/``c``.

    The same one-pass stack algorithm, tracking positions instead of
    candidate objects, so array backends (:mod:`repro.core.stores.soa`)
    share this selection logic instead of keeping a scalar twin: no
    arithmetic is involved, only comparisons on the given values, so the
    surviving set is bit-for-bit the one :func:`prune_dominated` keeps.
    """
    # Preallocated index store with a depth counter: the scan mutates no
    # list structure (no append/pop), only slots — measurably faster on
    # the hot mid-size lists this serves.
    kept: List[int] = [0] * len(q)
    depth = 0
    last_q = last_c = 0.0
    for i, qi in enumerate(q):
        ci = c[i]
        if depth:
            if ci == last_c and qi > last_q:
                depth -= 1
                if depth:
                    j = kept[depth - 1]
                    last_q = q[j]
                    last_c = c[j]
                else:
                    kept[0] = i
                    depth = 1
                    last_q = qi
                    last_c = ci
                    continue
            if qi > last_q:
                kept[depth] = i
                depth += 1
                last_q = qi
                last_c = ci
        else:
            kept[0] = i
            depth = 1
            last_q = qi
            last_c = ci
    del kept[depth:]
    return kept


def hull_indices(q: Sequence[float], c: Sequence[float]) -> List[int]:
    """Index form of :func:`convex_prune` over parallel ``q``/``c``.

    Graham's scan on a nonredundant (strictly increasing ``q`` and
    ``c``) point sequence, tracking positions; shared by the array
    backends for the same reason as :func:`prune_dominated_indices`.
    """
    # Preallocated index store plus the last two hull points' coordinates
    # in locals: the popping loop's predicate reads no list elements and
    # mutates no list structure.
    hull: List[int] = [0] * len(q)
    q1 = c1 = q2 = c2 = 0.0
    depth = 0
    for i, qi in enumerate(q):
        ci = c[i]
        while depth >= 2 and (q1 - q2) * (ci - c1) <= (qi - q1) * (c1 - c2):
            depth -= 1
            q1 = q2
            c1 = c2
            if depth >= 2:
                j = hull[depth - 2]
                q2 = q[j]
                c2 = c[j]
        hull[depth] = i
        depth += 1
        q2 = q1
        c2 = c1
        q1 = qi
        c1 = ci
    del hull[depth:]
    return hull


def is_nonredundant(candidates: Sequence[Candidate]) -> bool:
    """Check the sorted-nonredundant invariant (test helper).

    True when ``c`` and ``q`` are both strictly increasing.
    """
    for prev, curr in zip(candidates, candidates[1:]):
        if not (curr[1] > prev[1] and curr[0] > prev[0]):
            return False
    return True


def is_convex(candidates: Sequence[Candidate]) -> bool:
    """Check the convex-hull invariant (test helper).

    True when the list is nonredundant and consecutive slopes strictly
    decrease — i.e. ``convex_prune`` would keep every point.
    """
    if not is_nonredundant(candidates):
        return False
    for a1, a2, a3 in zip(candidates, candidates[1:], candidates[2:]):
        if _left_turn_or_straight(a1, a2, a3):
            return False
    return True
