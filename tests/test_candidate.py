"""Candidate, decision-DAG and driver-evaluation tests."""

import pytest

from helpers import make_candidates

from repro import BufferLibrary, BufferType
from repro.core.candidate import (
    best_candidate_for_driver,
    reconstruct_assignment,
)
from repro.core.pruning import prune_dominated
from repro.units import fF, ps


def test_dominates():
    # a dominates b: pruning the c-sorted pair keeps a alone, and a
    # dominates itself (the earliest of equal candidates survives).
    a = (5.0, 1.0, 0)
    b = (4.0, 2.0, 0)
    assert prune_dominated([a, b]) == [a]
    assert prune_dominated([a, a]) == [a]


def test_dominates_tradeoff_neither():
    a = (5.0, 3.0, 0)
    b = (4.0, 1.0, 0)
    assert prune_dominated([b, a]) == [b, a]


BUF_X = BufferType("x", 100.0, fF(1.0), ps(1.0))
BUF_Y = BufferType("y", 200.0, fF(2.0), ps(2.0))
LIBRARY = BufferLibrary([BUF_X, BUF_Y])


def test_reconstruct_sink_only():
    assert reconstruct_assignment(3, LIBRARY) == {}


def test_reconstruct_buffer_chain():
    # A buffer decision names its type; the library maps it back.
    decision = (7, "y", (3, "x", 1))
    assert reconstruct_assignment(decision, LIBRARY) == {7: BUF_Y, 3: BUF_X}


def test_reconstruct_merge_collects_both_sides():
    left = (2, "x", 0)
    right = (5, "x", 1)
    assert reconstruct_assignment((left, right), LIBRARY) == {
        2: BUF_X, 5: BUF_X,
    }


def test_reconstruct_deep_chain_iterative():
    # 50k-deep chain must not hit the recursion limit.
    decision = 0
    for node_id in range(1, 50_001):
        decision = (node_id, "x", decision)
    assignment = reconstruct_assignment(decision, LIBRARY)
    assert len(assignment) == 50_000


def test_decision_dags_are_untracked_by_the_gc():
    # Ints, names and tuples only: a collection untracks the DAG, so
    # frontiers kept past their solve cost the collector nothing.
    import gc

    decision = (4, "y", ((2, "x", 0), (3, "x", 1)))
    gc.collect()
    assert not gc.is_tracked(decision)


def test_best_candidate_for_driver_picks_max_q_minus_rc():
    candidates = make_candidates([(0.0, 0.0), (4.0, 1.0), (6.0, 2.0)])
    # R = 1: values 0, 3, 4 -> last wins.
    assert best_candidate_for_driver(candidates, 1.0) is candidates[2]
    # R = 3: values 0, 1, 0 -> middle wins.
    assert best_candidate_for_driver(candidates, 3.0) is candidates[1]


def test_best_candidate_tie_prefers_min_c():
    candidates = make_candidates([(1.0, 0.0), (2.0, 1.0)])
    # R = 1: both value 1 -> min-c candidate.
    assert best_candidate_for_driver(candidates, 1.0) is candidates[0]


def test_best_candidate_empty_list():
    assert best_candidate_for_driver([], 1.0) is None

