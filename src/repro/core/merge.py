"""The branch-merge operation of the dynamic program.

At a branching vertex the candidate lists of two child branches combine:
a joint candidate loads the vertex with ``c_l + c_r`` and its slack is
the worse branch, ``min(q_l, q_r)``.  Only pairings in which the
smaller-``q`` side is matched with the cheapest adequate partner can be
nonredundant, which the classic two-pointer walk enumerates directly in
``O(k_l + k_r)`` — the paper's third major operation.

The walk prunes inline, so only surviving pairings become candidates:
each is one ``(q, c, (left decision, right decision))`` tuple.
"""

from __future__ import annotations

from repro.core.candidate import CandidateList


def merge_branches(left: CandidateList, right: CandidateList) -> CandidateList:
    """Merge two sorted nonredundant branch lists into one.

    Both inputs must be sorted by strictly increasing ``c`` and ``q``;
    so is the output.  Each output candidate's decision is the merge
    ``(left decision, right decision)`` of its two branch candidates.
    """
    if not left or not right:
        # An empty branch list cannot occur for well-formed subtrees (a
        # subtree always has at least its unbuffered candidate), but the
        # identity behaviour is the sane degenerate answer.
        return left or right

    # The dominance prune runs inline on each pairing's two floats, so a
    # pairing it drops never becomes a candidate.  (The walk makes q
    # strictly increase, so the prune only replaces the last kept
    # candidate on an equal-c tie, which rounding ``c_l + c_r`` makes.)
    size_left = len(left)
    size_right = len(right)
    i = j = 0
    a_q, a_c, a_d = left[0]
    b_q, b_c, b_d = right[0]
    # min(a_q, b_q), keeping min's choice of operand (the sign of a
    # zero survives as min returns it).
    last_q = b_q if b_q < a_q else a_q
    last_c = a_c + b_c
    merged: CandidateList = [(last_q, last_c, (a_d, b_d))]
    append = merged.append
    while True:
        # Advance the binding (smaller-q) side; on a tie advance both,
        # since keeping either pointer would only raise c at the same q.
        # Once one list is exhausted, pairing the other's remaining
        # (higher c, higher q) candidates cannot raise min(q) further:
        # dominated.
        if a_q < b_q:
            i += 1
            if i == size_left:
                break
            a_q, a_c, a_d = left[i]
        elif b_q < a_q:
            j += 1
            if j == size_right:
                break
            b_q, b_c, b_d = right[j]
        else:
            i += 1
            j += 1
            if i == size_left or j == size_right:
                break
            a_q, a_c, a_d = left[i]
            b_q, b_c, b_d = right[j]
        q = b_q if b_q < a_q else a_q
        if q > last_q:
            c = a_c + b_c
            if c == last_c:
                merged[-1] = (q, c, (a_d, b_d))
            else:
                append((q, c, (a_d, b_d)))
            last_q = q
            last_c = c
    return merged
