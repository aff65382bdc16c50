"""Property-based tests (hypothesis) for the candidate algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_candidates, qc

from repro.core.pruning import (
    convex_prune,
    is_convex,
    is_nonredundant,
    prune_dominated,
)

# (q, c) points with well-behaved floats; c sorted before pruning.
points = st.lists(
    st.tuples(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def sorted_candidates(raw):
    return make_candidates(sorted(raw, key=lambda p: (p[1], p[0])))


@given(points)
def test_prune_dominated_output_nonredundant(raw):
    assert is_nonredundant(prune_dominated(sorted_candidates(raw)))


@given(points)
def test_prune_dominated_is_subset(raw):
    cands = sorted_candidates(raw)
    kept = prune_dominated(cands)
    ids = {id(c) for c in cands}
    assert all(id(c) in ids for c in kept)


@given(points)
def test_prune_dominated_covers_input(raw):
    """Every dropped candidate is dominated by some kept candidate."""
    cands = sorted_candidates(raw)
    kept = prune_dominated(cands)
    for candidate in cands:
        assert any(
            k[0] >= candidate[0] and k[1] <= candidate[1] for k in kept
        )


@given(points)
def test_prune_dominated_idempotent(raw):
    once = prune_dominated(sorted_candidates(raw))
    twice = prune_dominated(list(once))
    assert qc(once) == qc(twice)


@given(points)
def test_convex_prune_output_convex(raw):
    nonredundant = prune_dominated(sorted_candidates(raw))
    assert is_convex(convex_prune(nonredundant))


@given(points)
def test_convex_prune_idempotent(raw):
    nonredundant = prune_dominated(sorted_candidates(raw))
    once = convex_prune(nonredundant)
    assert convex_prune(once) == once


@given(points, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_hull_attains_same_max_for_any_resistance(raw, resistance):
    """Lemma 3 as a property: max(q - R c) is achieved on the hull."""
    nonredundant = prune_dominated(sorted_candidates(raw))
    hull = convex_prune(nonredundant)
    full_best = max(c[0] - resistance * c[1] for c in nonredundant)
    hull_best = max(c[0] - resistance * c[1] for c in hull)
    assert hull_best >= full_best - 1e-9 * max(1.0, abs(full_best))


@given(points)
def test_hull_endpoints_survive(raw):
    """The min-c and max-c nonredundant candidates are always hull points."""
    nonredundant = prune_dominated(sorted_candidates(raw))
    hull = convex_prune(nonredundant)
    assert hull[0] is nonredundant[0]
    assert hull[-1] is nonredundant[-1]


@settings(max_examples=50)
@given(points)
def test_hull_walk_monotone_argmax(raw):
    """Lemma 1 as a property: as R decreases, the (min-c) argmax of
    q - R c over the hull moves toward larger c."""
    nonredundant = prune_dominated(sorted_candidates(raw))
    hull = convex_prune(nonredundant)

    def argmax_index(resistance):
        best, best_value = 0, float("-inf")
        for i, cand in enumerate(hull):
            value = cand[0] - resistance * cand[1]
            if value > best_value:
                best, best_value = i, value
        return best

    resistances = [100.0, 10.0, 1.0, 0.1, 0.0]
    indices = [argmax_index(r) for r in resistances]
    assert indices == sorted(indices)
