"""Property-based tests for wire, merge and buffer operations.

Two kinds of strategies are used deliberately:

* *float* strategies for invariant properties (nonredundancy, transform
  formulas), which are robust to rounding; and
* *integer-grid* strategies for exact-equality properties (the Theorem 1
  equivalence of the two add-buffer operations), where every product and
  difference is exact in float64, so ties are decided identically by
  both implementations rather than by last-ULP noise.

The kernels themselves are single passes that allocate only surviving
candidates; the parity properties hold each one to its reference body
(:mod:`helpers`) bit for bit, on float inputs seeded with the ties the
single passes decide inline: repeated values, signed zeros, and ``1``
next to its successor, which a unit wire capacitance rounds to one ``c``.
"""

import itertools

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    kernel_signature,
    make_candidates,
    qc,
    reference_add_wire,
    reference_convex_prune,
    reference_generate_fast,
    reference_insert_candidates,
    reference_merge_branches,
    reference_prune_dominated,
)

from repro.core.buffer_ops import (
    BufferPlan,
    generate_fast,
    generate_lillis,
    insert_candidates,
)
from repro.core.merge import merge_branches
from repro.core.pruning import convex_prune, is_nonredundant, prune_dominated
from repro.core.wire_ops import add_wire
from repro.library.buffer_type import BufferType

float_points = st.lists(
    st.tuples(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)

grid_points = st.lists(
    st.tuples(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=0, max_value=500),
    ),
    min_size=1,
    max_size=25,
)

wires = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)

#: Values that make ties: signed zeros, repeats, and 1 beside its
#: successor (``1 + 2**-52``), which a unit wire capacitance rounds to
#: the same ``c``.
TIE_VALUES = (0.0, -0.0, 1.0, 1.0 + 2.0 ** -52, 2.0, 0.1, 0.2, 250.0)

tie_points = st.lists(
    st.tuples(
        st.one_of(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                  st.sampled_from(TIE_VALUES)),
        st.one_of(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                  st.sampled_from(TIE_VALUES)),
    ),
    min_size=0,
    max_size=25,
)

zero_or_float = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
)

#: Float libraries: repeated input capacitances (equal-c betas) and
#: load caps, some below every candidate's ``c``.
float_buffers = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),    # R
        st.one_of(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                  st.sampled_from((0.0, 1.0, 5.0))),                  # C
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),     # K
        st.one_of(st.none(),
                  st.floats(min_value=1e-3, max_value=1e3,
                            allow_nan=False)),                         # max_load
    ),
    min_size=1,
    max_size=12,
)

grid_buffers = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=100),   # R
        st.integers(min_value=0, max_value=50),    # C
        st.integers(min_value=0, max_value=10),    # K
    ),
    min_size=1,
    max_size=10,
)


def nonredundant(raw):
    return reference_prune_dominated(
        make_candidates(sorted(((float(q), float(c)) for q, c in raw),
                               key=lambda p: (p[1], p[0])))
    )


def make_buffers(specs):
    return [
        BufferType(f"b{i}", float(spec[0]), float(spec[1]), float(spec[2]),
                   max_load=spec[3] if len(spec) > 3 else None)
        for i, spec in enumerate(specs)
    ]


def make_plan(specs):
    return BufferPlan(0, make_buffers(specs))


def restricted_plans(specs, mask):
    """The full plan, a shared view of it at another node, and a plan
    over the ``mask``-selected subset of its types (when non-empty)."""
    buffers = make_buffers(specs)
    full = BufferPlan(0, buffers)
    plans = [full, BufferPlan.shared_view(7, full)]
    subset = [b for b, keep in zip(buffers, mask) if keep]
    if subset:
        plans.append(BufferPlan(9, subset))
    return plans


def assert_add_buffer_matches_reference(cands, plan):
    """Hull, betas, keep-all and destructive insertion: bit for bit."""
    hull = convex_prune(cands)
    assert kernel_signature(hull) == kernel_signature(
        reference_convex_prune(cands))
    new = generate_fast(cands, plan, hull=hull)
    assert kernel_signature(new) == kernel_signature(
        reference_generate_fast(cands, plan, hull=hull))
    assert kernel_signature(generate_fast(cands, plan)) == kernel_signature(new)
    for target in (cands, hull):
        assert kernel_signature(insert_candidates(target, new)) == (
            kernel_signature(reference_insert_candidates(target, new)))


@given(float_points, wires)
def test_add_wire_keeps_invariant(raw, wire):
    resistance, capacitance = wire
    cands = nonredundant(raw)
    want = reference_add_wire(cands, resistance, capacitance)
    out = add_wire(cands, resistance, capacitance)
    assert is_nonredundant(out)
    assert kernel_signature(out) == kernel_signature(want)


@given(float_points, wires)
def test_add_wire_transform_values(raw, wire):
    resistance, capacitance = wire
    cands = nonredundant(raw)
    before = qc(cands)
    out = add_wire(cands, resistance, capacitance)
    expected = {
        (q - resistance * (capacitance / 2.0 + c), c + capacitance)
        for q, c in before
    }
    assert all((q, c) in expected for q, c in qc(out))


@given(grid_points, grid_points)
def test_merge_closure_properties(raw_left, raw_right):
    """merge == the nonredundant closure of all pairwise combinations:
    (a) output nonredundant, (b) every output point is an achievable
    pairing, (c) every pairing is dominated by some output point."""
    left, right = nonredundant(raw_left), nonredundant(raw_right)
    merged = merge_branches(list(left), list(right))
    assert is_nonredundant(merged)
    assert kernel_signature(merged) == kernel_signature(
        reference_merge_branches(left, right))

    achievable = {
        (min(a[0], b[0]), a[1] + b[1])
        for a, b in itertools.product(left, right)
    }
    assert all(point in achievable for point in qc(merged))
    for q, c in achievable:
        assert any(m[0] >= q and m[1] <= c for m in merged), (q, c)


@given(grid_points, grid_buffers)
@settings(max_examples=200)
def test_generate_fast_equals_lillis(raw, specs):
    """The paper's Theorem 1 as a property: the hull walk produces the
    same buffered candidates as the exhaustive scan (exact integer
    arithmetic, so ties included)."""
    cands = nonredundant(raw)
    plan = make_plan(specs)
    assert qc(generate_lillis(cands, plan)) == qc(generate_fast(cands, plan))


@given(grid_points, grid_buffers)
def test_generate_beta_values_match_definition(raw, specs):
    """Every emitted beta equals max(q - K - R c) for its buffer type,
    and betas for omitted buffer types are dominated by emitted ones."""
    cands = nonredundant(raw)
    plan = make_plan(specs)
    out = generate_fast(cands, plan)
    best = {
        buf.name: max(q - buf.intrinsic_delay - buf.driving_resistance * c
                      for q, c, _ in cands)
        for buf in plan.by_resistance_desc
    }
    # A beta's decision is (node_id, buffer_type, below).
    emitted = {decision[1].name: (q, c) for q, c, decision in out}
    for buf in plan.by_resistance_desc:
        if buf.name in emitted:
            assert emitted[buf.name][0] == best[buf.name]
            assert emitted[buf.name][1] == buf.input_capacitance
        else:
            assert any(
                q >= best[buf.name] and c <= buf.input_capacitance
                for q, c, _ in out
            ), buf.name


@given(grid_points, grid_buffers)
def test_generated_candidates_sorted_nonredundant(raw, specs):
    cands, plan = nonredundant(raw), make_plan(specs)
    out = generate_fast(cands, plan)
    assert is_nonredundant(out)
    assert_add_buffer_matches_reference(cands, plan)


@given(grid_points, grid_points)
def test_insert_candidates_is_union_nonredundant(raw_base, raw_new):
    base, new = nonredundant(raw_base), nonredundant(raw_new)
    merged = insert_candidates(list(base), list(new))
    assert is_nonredundant(merged)
    for q, c, _ in itertools.chain(base, new):
        assert any(k[0] >= q and k[1] <= c for k in merged)
    assert kernel_signature(merged) == kernel_signature(
        reference_insert_candidates(base, new))


# -- Parity with the reference kernels on float inputs -----------------------


@given(tie_points, st.randoms(use_true_random=False))
def test_prune_dominated_matches_reference(raw, rng):
    """c-sorted input with q in any order (equal-c runs included); and an
    unsorted input raises in both."""
    cands = make_candidates(sorted(raw, key=lambda p: p[1]))
    assert kernel_signature(prune_dominated(cands)) == kernel_signature(
        reference_prune_dominated(cands))
    shuffled = list(cands)
    rng.shuffle(shuffled)
    try:
        want = kernel_signature(reference_prune_dominated(shuffled))
    except ValueError:
        with pytest.raises(ValueError):
            prune_dominated(shuffled)
    else:
        assert kernel_signature(prune_dominated(shuffled)) == want


@given(tie_points, zero_or_float, zero_or_float)
def test_add_wire_matches_reference(raw, resistance, capacitance):
    """Zero-R and zero-C wires included; the wire may round two c into one."""
    cands = nonredundant(raw)
    want = reference_add_wire(cands, resistance, capacitance)
    got = add_wire(cands, resistance, capacitance)
    assert kernel_signature(got) == kernel_signature(want)


@given(tie_points, tie_points)
def test_merge_branches_matches_reference(raw_left, raw_right):
    left, right = nonredundant(raw_left), nonredundant(raw_right)
    assert kernel_signature(merge_branches(left, right)) == kernel_signature(
        reference_merge_branches(left, right))


@given(tie_points, float_buffers, st.lists(st.booleans(), min_size=12,
                                           max_size=12))
@settings(max_examples=200)
def test_add_buffer_kernels_match_reference(raw, specs, mask):
    """Float lists and libraries: equal input capacitances, load caps
    (some below every c, so a type emits nothing) and restricted plans."""
    cands = nonredundant(raw)
    for plan in restricted_plans(specs, mask):
        assert_add_buffer_matches_reference(cands, plan)


@given(
    st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0)),
    st.integers(min_value=-50, max_value=50),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1,
             max_size=12, unique=True),
    grid_points,
    grid_buffers,
)
def test_add_buffer_plateaus_match_reference(slope, base, cs, extra, specs):
    """Collinear points ``q = base + slope * c`` make ``q - R c`` exactly
    flat for a type with ``R = slope``: the walk and the capped scan must
    pick the same (leftmost) candidate as the reference."""
    raw = [(base + slope * c, c) for c in cs] + list(extra)
    cands = nonredundant(raw)
    capped = [(slope, 3, 2, 30.0), (slope, 3, 2, None), (slope, 7, 1, 1e9)]
    plan = make_plan([spec + (None,) for spec in specs] + capped)
    assert_add_buffer_matches_reference(cands, plan)


@given(
    float_points,
    float_points,
    st.sampled_from((-2e3, 0.0, 2e3)),
    st.sampled_from((-2e3, 0.0, 5e2)),
)
def test_insert_candidates_matches_reference_when_shifted(
    raw_base, raw_new, q_shift, c_shift
):
    """Shifting the new list moves it to dominate the whole list (up and
    left), none of it (down), or everything past its first point (up: a
    fully dominated tail)."""
    base = nonredundant(raw_base)
    new = nonredundant(
        [(q + q_shift, max(c + c_shift, 0.0)) for q, c in raw_new])
    assert kernel_signature(insert_candidates(base, new)) == kernel_signature(
        reference_insert_candidates(base, new))


# -- Deterministic edges ------------------------------------------------------

#: ``1 + ulp`` plus a unit capacitance rounds (ties-to-even) to ``2.0``.
NEXT_ONE = 1.0 + 2.0 ** -52


def test_wire_rounding_makes_an_equal_c_tie():
    assert 1.0 + 1.0 == NEXT_ONE + 1.0
    plan = make_plan([(0.5, 1.5, 0.0), (2.0, 1.5, 0.1), (1.0, 0.5, 0.0, 2.0)])
    # The later candidate wins the tie (replaces) or loses it (dropped).
    for q_next, resistance in ((1.0, 0.0), (1.0, 1.0), (2.0 ** -60, 1.0)):
        cands = make_candidates([(-3.0, 0.5), (0.0, 1.0), (q_next, NEXT_ONE),
                                 (5.0, 4.0)])
        want = reference_add_wire(cands, resistance, 1.0)
        got = add_wire(cands, resistance, 1.0)
        assert kernel_signature(got) == kernel_signature(want)
        assert len(got) == 3
        assert_add_buffer_matches_reference(got, plan)
        other = make_candidates([(0.5, 1.0), (9.0, 3.0)])
        assert kernel_signature(merge_branches(got, other)) == (
            kernel_signature(reference_merge_branches(got, other)))


def test_merge_rounding_makes_an_equal_c_tie():
    """``c_l + c_r`` rounds two successive pairings to one ``c``: the
    better-q pairing replaces the kept one."""
    left = make_candidates([(0.0, 1.0), (2.0, NEXT_ONE)])
    right = make_candidates([(1.0, 1.0)])
    got = merge_branches(left, right)
    assert kernel_signature(got) == kernel_signature(
        reference_merge_branches(left, right))
    assert qc(got) == [(1.0, 2.0)]


def test_merge_keeps_min_sign_of_zero():
    for left_q, right_q in ((0.0, -0.0), (-0.0, 0.0)):
        left = make_candidates([(left_q, 1.0), (4.0, 2.0)])
        right = make_candidates([(right_q, 1.0), (3.0, 5.0)])
        assert kernel_signature(merge_branches(left, right)) == (
            kernel_signature(reference_merge_branches(left, right)))


@pytest.mark.parametrize("points", [[], [(1.0, 2.0)]])
def test_empty_and_singleton_lists_match_reference(points):
    cands = make_candidates(points)
    plan = make_plan([(1.0, 0.5, 0.0), (3.0, 0.5, 1.0, 1.0)])
    assert kernel_signature(prune_dominated(cands)) == kernel_signature(
        reference_prune_dominated(cands))
    assert_add_buffer_matches_reference(cands, plan)
    for resistance, capacitance in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)):
        assert kernel_signature(
            add_wire(cands, resistance, capacitance)
        ) == kernel_signature(
            reference_add_wire(cands, resistance, capacitance))
    singleton = make_candidates([(0.5, 0.5)])
    for left, right in ((cands, singleton), (singleton, cands)):
        assert kernel_signature(merge_branches(left, right)) == (
            kernel_signature(reference_merge_branches(left, right)))
        assert kernel_signature(insert_candidates(left, right)) == (
            kernel_signature(reference_insert_candidates(left, right)))


@pytest.mark.parametrize(
    "new_points, kept",
    [
        # Betas dominate the whole list.
        ([(20.0, 0.0), (30.0, 0.5)], [(20.0, 0.0), (30.0, 0.5)]),
        # Betas dominate none of it (all dropped).
        ([(-20.0, 1.5), (-10.0, 3.5)],
         [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]),
        # The last beta dominates the whole tail past it.
        ([(0.5, 1.5), (9.0, 2.5)],
         [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (9.0, 2.5)]),
        # Equal c: the existing candidate is ordered first and loses to
        # a strictly better beta, but keeps an equal one.
        ([(1.5, 2.0), (3.0, 4.0)],
         [(0.0, 1.0), (1.5, 2.0), (2.0, 3.0), (3.0, 4.0)]),
        # The last beta ties the q of the next candidate, which it
        # dominates (lower c): the tail starts one candidate later.
        ([(2.0, 2.5)], [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5), (3.0, 4.0)]),
        # Betas past the end of the list.
        ([(4.0, 5.0), (6.0, 9.0)],
         [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0),
          (6.0, 9.0)]),
    ],
)
def test_insert_candidates_edges(new_points, kept):
    base = make_candidates([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
    new = make_candidates(new_points)
    got = insert_candidates(base, new)
    assert qc(got) == kept
    assert kernel_signature(got) == kernel_signature(
        reference_insert_candidates(base, new))


def test_generate_fast_builds_only_surviving_betas():
    """Betas dominated in ``cap_order`` never become decisions: equal
    input capacitances keep the better beta, a worse beta at a higher
    capacitance is dropped."""
    cands = make_candidates([(0.0, 1.0), (5.0, 3.0)])
    plan = make_plan([(1.0, 2.0, 0.0), (4.0, 2.0, 0.0), (8.0, 3.0, 9.0)])
    out = generate_fast(cands, plan)
    assert kernel_signature(out) == kernel_signature(
        reference_generate_fast(cands, plan))
    # A buffer decision is (node_id, buffer_type, below).
    assert [decision[1].name for _, _, decision in out] == ["b0"]
    assert all(
        type(decision) is tuple and len(decision) == 3
        for _, _, decision in out
    )
