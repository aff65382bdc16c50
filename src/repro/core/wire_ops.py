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
"""

from __future__ import annotations

from repro.core.candidate import CandidateList
from repro.core.pruning import prune_dominated


def add_wire(
    candidates: CandidateList, resistance: float, capacitance: float
) -> CandidateList:
    """Propagate ``candidates`` through a wire; returns the pruned list.

    Candidates are mutated in place (the dynamic program owns its lists);
    the returned list is the nonredundant subset, still sorted by
    strictly increasing ``c`` and ``q``.
    """
    if resistance == 0.0 and capacitance == 0.0:
        return candidates
    half_wire = capacitance / 2.0
    for candidate in candidates:
        c = candidate.c
        candidate.q -= resistance * (half_wire + c)
        candidate.c = c + capacitance
    # Even at resistance == 0 (where every q survives unchanged) the
    # uniform c shift can round two neighbouring c values into a tie,
    # so the re-prune is unconditional to restore strictness.
    return prune_dominated(candidates)
