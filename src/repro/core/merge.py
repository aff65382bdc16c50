"""The branch-merge operation of the dynamic program.

At a branching vertex the candidate lists of two child branches combine:
a joint candidate loads the vertex with ``c_l + c_r`` and its slack is
the worse branch, ``min(q_l, q_r)``.  Only pairings in which the
smaller-``q`` side is matched with the cheapest adequate partner can be
nonredundant, which the classic two-pointer walk enumerates directly in
``O(k_l + k_r)`` — the paper's third major operation.
"""

from __future__ import annotations

from repro.core.candidate import Candidate, CandidateList, MergeDecision


def merge_branches(left: CandidateList, right: CandidateList) -> CandidateList:
    """Merge two sorted nonredundant branch lists into one.

    Both inputs must be sorted by strictly increasing ``c`` and ``q``;
    so is the output.  Each output candidate records a
    :class:`MergeDecision` pairing its two provenance decisions.
    """
    if not left or not right:
        # An empty branch list cannot occur for well-formed subtrees (a
        # subtree always has at least its unbuffered candidate), but the
        # identity behaviour is the sane degenerate answer.
        return left or right

    # The dominance prune runs inline on each pairing's two floats, so a
    # pairing it drops never becomes a Candidate.  (The walk makes q
    # strictly increase, so the prune only replaces the last kept
    # candidate on an equal-c tie, which rounding ``c_l + c_r`` makes.)
    merged: CandidateList = []
    append = merged.append
    size_left = len(left)
    size_right = len(right)
    i = j = 0
    a = left[0]
    b = right[0]
    a_q = a.q
    b_q = b.q
    last_q = last_c = 0.0
    while True:
        # min(a_q, b_q), keeping min's choice of operand (the sign of a
        # zero survives as min returns it).
        q = b_q if b_q < a_q else a_q
        c = a.c + b.c
        if not merged:
            append(Candidate(q, c, MergeDecision(a.decision, b.decision)))
            last_q = q
            last_c = c
        elif q > last_q:
            joint = Candidate(q, c, MergeDecision(a.decision, b.decision))
            if c == last_c:
                merged[-1] = joint
            else:
                append(joint)
            last_q = q
            last_c = c
        # Advance the binding (smaller-q) side; on a tie advance both,
        # since keeping either pointer would only raise c at the same q.
        # Once one list is exhausted, pairing the other's remaining
        # (higher c, higher q) candidates cannot raise min(q) further:
        # dominated.
        if a_q < b_q:
            i += 1
            if i == size_left:
                break
            a = left[i]
            a_q = a.q
        elif b_q < a_q:
            j += 1
            if j == size_right:
                break
            b = right[j]
            b_q = b.q
        else:
            i += 1
            j += 1
            if i == size_left or j == size_right:
                break
            a = left[i]
            b = right[j]
            a_q = a.q
            b_q = b.q
    return merged
