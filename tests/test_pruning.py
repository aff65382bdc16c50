"""Dominance- and convex-pruning tests (paper Lemmas 2 and 3)."""

import pytest

from helpers import make_candidates, qc

from repro.core.pruning import (
    convex_prune,
    is_convex,
    is_nonredundant,
    prune_dominated,
)


class TestPruneDominated:
    def test_keeps_increasing_q(self):
        cands = make_candidates([(1.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
        assert prune_dominated(cands) == cands

    def test_drops_lower_q_at_higher_c(self):
        cands = make_candidates([(5.0, 0.0), (4.0, 1.0), (6.0, 2.0)])
        assert qc(prune_dominated(cands)) == [(5.0, 0.0), (6.0, 2.0)]

    def test_equal_c_keeps_best_q(self):
        cands = make_candidates([(1.0, 0.0), (5.0, 0.0), (3.0, 0.0)])
        assert qc(prune_dominated(cands)) == [(5.0, 0.0)]

    def test_equal_everything_keeps_first(self):
        cands = make_candidates([(1.0, 0.0), (1.0, 0.0)])
        kept = prune_dominated(cands)
        assert len(kept) == 1 and kept[0] is cands[0]

    def test_empty(self):
        assert prune_dominated([]) == []

    def test_single(self):
        cands = make_candidates([(1.0, 1.0)])
        assert prune_dominated(cands) == cands

    def test_requires_sorted_input(self):
        cands = make_candidates([(1.0, 2.0), (2.0, 1.0)])
        with pytest.raises(ValueError):
            prune_dominated(cands)

    def test_output_always_nonredundant(self):
        cands = make_candidates(
            [(3.0, 0.0), (1.0, 1.0), (4.0, 2.0), (4.0, 3.0), (9.0, 3.0), (2.0, 4.0)]
        )
        assert is_nonredundant(prune_dominated(cands))


class TestConvexPrune:
    def test_keeps_strictly_concave(self):
        # Slopes 3 then 1: strictly decreasing -> all on hull.
        cands = make_candidates([(0.0, 0.0), (3.0, 1.0), (4.0, 2.0)])
        assert convex_prune(cands) == cands

    def test_prunes_below_segment(self):
        # Paper's Figure 2 situation: middle point under the chord.
        cands = make_candidates([(0.0, 0.0), (0.5, 1.0), (2.0, 2.0)])
        assert qc(convex_prune(cands)) == [(0.0, 0.0), (2.0, 2.0)]

    def test_prunes_collinear_middle(self):
        # Eq. (2) uses <=: exact collinearity is pruned too.
        cands = make_candidates([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert qc(convex_prune(cands)) == [(0.0, 0.0), (2.0, 2.0)]

    def test_cascading_pops(self):
        # Removing one interior point exposes another: Graham backtrack.
        cands = make_candidates(
            [(0.0, 0.0), (4.0, 1.0), (5.0, 2.0), (6.0, 3.0), (20.0, 4.0)]
        )
        assert qc(convex_prune(cands)) == [(0.0, 0.0), (20.0, 4.0)]

    def test_two_points_always_hull(self):
        cands = make_candidates([(0.0, 0.0), (1.0, 5.0)])
        assert convex_prune(cands) == cands

    def test_empty_and_single(self):
        assert convex_prune([]) == []
        single = make_candidates([(1.0, 1.0)])
        assert convex_prune(single) == single

    def test_non_destructive(self):
        cands = make_candidates([(0.0, 0.0), (0.5, 1.0), (2.0, 2.0)])
        convex_prune(cands)
        assert len(cands) == 3  # input untouched

    def test_output_is_convex(self):
        cands = make_candidates(
            [(0.0, 0.0), (1.0, 1.0), (1.5, 2.0), (3.4, 3.0), (3.6, 4.0), (3.7, 5.0)]
        )
        assert is_convex(convex_prune(cands))

    def test_hull_preserves_best_for_any_resistance(self):
        """Lemma 3: for every R >= 0 the hull attains the same maximum."""
        cands = make_candidates(
            [(0.0, 0.0), (2.5, 1.0), (3.0, 2.0), (5.8, 3.0), (6.0, 4.0)]
        )
        hull = convex_prune(cands)
        for resistance in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0):
            full_best = max(c[0] - resistance * c[1] for c in cands)
            hull_best = max(c[0] - resistance * c[1] for c in hull)
            assert hull_best == pytest.approx(full_best)


class TestInvariantHelpers:
    def test_is_nonredundant_rejects_equal_c(self):
        assert not is_nonredundant(make_candidates([(1.0, 0.0), (2.0, 0.0)]))

    def test_is_nonredundant_rejects_decreasing_q(self):
        assert not is_nonredundant(make_candidates([(2.0, 0.0), (1.0, 1.0)]))

    def test_is_convex_rejects_collinear(self):
        assert not is_convex(make_candidates([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))

    def test_is_convex_accepts_hull(self):
        assert is_convex(make_candidates([(0.0, 0.0), (3.0, 1.0), (4.0, 2.0)]))
