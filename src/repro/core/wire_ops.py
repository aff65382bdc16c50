"""The add-wire operation of the dynamic program.

Propagating a candidate ``(q, c)`` up through a wire with lumped
resistance ``R_e`` and capacitance ``C_e`` (pi-model) gives

    q' = q - R_e * (C_e / 2 + c)        (Elmore delay of the wire)
    c' = c + C_e

Every candidate shifts by the same ``C_e``, so the ``c`` ordering is
preserved, but the ``-R_e * c`` term shrinks high-``c`` candidates' slack
faster, so the ``q`` ordering can break and dominated candidates appear —
hence the linear re-prune.  This matches the O(k) per-wire cost in both
Lillis et al. and the paper.

Candidates are immutable ``(q, c, decision)`` tuples, so the shift and
the re-prune are one pass that builds only the survivors.
"""

from __future__ import annotations

from repro.core.candidate import CandidateList


def add_wire(
    candidates: CandidateList, resistance: float, capacitance: float
) -> CandidateList:
    """Propagate ``candidates`` through a wire; returns the pruned list.

    The input list is left as it is.  The result is the nonredundant
    subset of the wired candidates, sorted by strictly increasing ``c``
    and ``q``: a wired candidate survives when its ``q`` beats the last
    survivor's, and replaces that survivor on an equal ``c``.  Adding
    one ``C_e`` keeps the ``c`` order (rounding is monotone), but it
    can round two neighbouring ``c`` values into a tie, so the prune
    runs even at ``R_e == 0``.
    """
    if resistance == 0.0 and capacitance == 0.0:
        return candidates
    half_wire = capacitance / 2.0
    iterator = iter(candidates)
    for q, c, decision in iterator:
        break
    else:
        return []
    last_q = q - resistance * (half_wire + c)
    last_c = c + capacitance
    survivors: CandidateList = [(last_q, last_c, decision)]
    append = survivors.append
    for q, c, decision in iterator:
        q -= resistance * (half_wire + c)
        if q > last_q:
            c += capacitance
            if c == last_c:
                survivors[-1] = (q, c, decision)
            else:
                append((q, c, decision))
            last_q = q
            last_c = c
    return survivors
