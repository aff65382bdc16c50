"""Branch-merge operation tests, including brute-force cross-checks."""

import itertools

import pytest

from helpers import make_candidates, qc

from repro.core.merge import merge_branches
from repro.core.pruning import is_nonredundant, prune_dominated


def brute_force_merge(left, right):
    """All |L| x |R| pairings, then dominance pruning: the spec."""
    pairs = [
        (min(a[0], b[0]), a[1] + b[1])
        for a, b in itertools.product(left, right)
    ]
    pairs.sort(key=lambda p: (p[1], p[0]))
    kept = []
    for q, c in pairs:
        if kept and c == kept[-1][1] and q > kept[-1][0]:
            kept.pop()
        if not kept or q > kept[-1][0]:
            kept.append((q, c))
    return kept


def test_single_by_single():
    left = make_candidates([(3.0, 1.0)])
    right = make_candidates([(5.0, 2.0)])
    assert qc(merge_branches(left, right)) == [(3.0, 3.0)]


def test_classic_example():
    left = make_candidates([(1.0, 1.0), (5.0, 2.0)])
    right = make_candidates([(3.0, 1.0)])
    assert qc(merge_branches(left, right)) == [(1.0, 2.0), (3.0, 3.0)]


def test_matches_brute_force_on_fixed_lists():
    left = make_candidates([(0.0, 0.0), (2.0, 1.5), (5.0, 4.0), (9.0, 8.0)])
    right = make_candidates([(1.0, 0.5), (4.0, 2.0), (6.0, 5.0)])
    expected = brute_force_merge(left, right)
    got = qc(merge_branches(left, right))
    assert got == expected


def test_equal_q_tie_advances_both():
    left = make_candidates([(2.0, 1.0), (7.0, 3.0)])
    right = make_candidates([(2.0, 2.0), (7.0, 5.0)])
    expected = brute_force_merge(left, right)
    assert qc(merge_branches(left, right)) == expected


def test_output_nonredundant():
    left = make_candidates([(0.0, 0.0), (1.0, 1.0), (4.0, 2.0)])
    right = make_candidates([(0.5, 0.2), (3.0, 3.0)])
    assert is_nonredundant(merge_branches(left, right))


def test_output_size_at_most_sum_minus_one():
    left = make_candidates([(float(i), float(i)) for i in range(6)])
    right = make_candidates([(i + 0.5, i + 0.25) for i in range(4)])
    merged = merge_branches(left, right)
    assert len(merged) <= len(left) + len(right) - 1


def test_decisions_are_merge_decisions():
    left = make_candidates([(1.0, 1.0)])
    right = make_candidates([(2.0, 2.0)])
    merged = merge_branches(left, right)
    decision = merged[0][2]
    assert type(decision) is tuple and len(decision) == 2
    assert decision[0] is left[0][2]
    assert decision[1] is right[0][2]


def test_empty_side_returns_other():
    cands = make_candidates([(1.0, 1.0)])
    assert merge_branches([], cands) is cands
    assert merge_branches(cands, []) is cands


def test_commutative_in_qc():
    left = make_candidates([(0.0, 0.0), (2.0, 1.5), (5.0, 4.0)])
    right = make_candidates([(1.0, 0.5), (4.0, 2.0)])
    ab = qc(merge_branches(left, right))
    ba = qc(merge_branches(right, left))
    assert ab == ba


def test_merge_is_spec_equal_on_random_lists():
    import random

    rng = random.Random(11)
    for _ in range(50):
        def random_list():
            points = sorted(
                {(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in
                 range(rng.randrange(1, 8))},
                key=lambda p: p[1],
            )
            return prune_dominated(
                make_candidates([(q, c) for q, c in points])
            )

        left, right = random_list(), random_list()
        if not left or not right:
            continue
        expected = brute_force_merge(left, right)
        assert qc(merge_branches(left, right)) == expected
