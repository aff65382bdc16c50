"""Add-buffer operation tests: the O(bk) scan vs the O(k+b) hull walk."""

import random

import pytest

from helpers import make_candidates, qc

from repro import BufferLibrary, BufferType
from repro.core.buffer_ops import (
    BufferPlan,
    generate_fast,
    generate_lillis,
    insert_candidates,
)
from repro.core.pruning import is_nonredundant, prune_dominated
from repro.units import fF, ps


def lib3():
    return [
        BufferType("hi_r", 4000.0, fF(1.0), ps(30.0)),
        BufferType("mid", 1000.0, fF(5.0), ps(32.0)),
        BufferType("lo_r", 250.0, fF(18.0), ps(35.0)),
    ]


class TestBufferPlan:
    def test_orders(self):
        plan = BufferPlan(7, lib3())
        rs = [b.driving_resistance for b in plan.by_resistance_desc]
        assert rs == sorted(rs, reverse=True)
        caps = [
            plan.by_resistance_desc[i].input_capacitance for i in plan.cap_order
        ]
        assert caps == sorted(caps)

    def test_len(self):
        assert len(BufferPlan(0, lib3())) == 3

    def test_records_node(self):
        assert BufferPlan(42, lib3()).node_id == 42

    def test_shared_view_reuses_orders(self):
        full = BufferPlan(-1, lib3())
        view = BufferPlan.shared_view(9, full)
        assert view.node_id == 9
        assert view.by_resistance_desc is full.by_resistance_desc
        assert view.cap_order is full.cap_order
        assert len(view) == len(full)


class TestGenerateEquivalence:
    def test_simple_list(self):
        cands = prune_dominated(
            make_candidates([(0.0, fF(1.0)), (ps(50.0), fF(10.0)),
                             (ps(200.0), fF(40.0))])
        )
        plan = BufferPlan(1, lib3())
        assert qc(generate_lillis(cands, plan)) == qc(generate_fast(cands, plan))

    def test_randomized_lists_and_libraries(self):
        rng = random.Random(99)
        for trial in range(60):
            size = rng.randrange(1, 9)
            buffers = [
                BufferType(
                    f"b{i}",
                    rng.uniform(100.0, 8000.0),
                    fF(rng.uniform(0.5, 25.0)),
                    ps(rng.uniform(20.0, 40.0)),
                )
                for i in range(size)
            ]
            plan = BufferPlan(0, buffers)
            raw = sorted(
                {(ps(rng.uniform(0, 1000)), fF(rng.uniform(0.1, 100)))
                 for _ in range(rng.randrange(1, 12))},
                key=lambda p: p[1],
            )
            cands = prune_dominated(make_candidates(list(raw)))
            if not cands:
                continue
            lillis = generate_lillis(cands, plan)
            fast = generate_fast(cands, plan)
            assert qc(lillis) == qc(fast), f"trial {trial}"

    def test_same_chosen_base_candidates(self):
        """Not just equal (q, c): the *provenance* must match too."""
        cands = prune_dominated(
            make_candidates([(0.0, fF(1.0)), (ps(80.0), fF(6.0)),
                             (ps(300.0), fF(50.0))])
        )
        plan = BufferPlan(1, lib3())
        lillis = generate_lillis(cands, plan)
        fast = generate_fast(cands, plan)
        for (_, _, a), (_, _, b) in zip(lillis, fast):
            # A buffer decision is (node_id, buffer_name, below).
            assert a[1] == b[1]
            assert a[2] is b[2]


class TestGenerateProperties:
    def test_output_sorted_and_nonredundant(self):
        cands = prune_dominated(
            make_candidates([(0.0, fF(1.0)), (ps(100.0), fF(20.0))])
        )
        out = generate_fast(cands, BufferPlan(0, lib3()))
        assert is_nonredundant(out)

    def test_new_candidates_have_buffer_input_caps(self):
        cands = make_candidates([(ps(500.0), fF(10.0))])
        out = generate_fast(cands, BufferPlan(0, lib3()))
        caps = {c for _, c, _ in out}
        assert caps <= {b.input_capacitance for b in lib3()}

    def test_buffer_delay_formula(self):
        """One candidate, one buffer: beta = (q - K - R*c, C_b)."""
        buf = BufferType("b", 1000.0, fF(4.0), ps(10.0))
        cands = make_candidates([(ps(500.0), fF(10.0))])
        out = generate_fast(cands, BufferPlan(0, [buf]))
        assert len(out) == 1
        expected_q = ps(500.0) - ps(10.0) - 1000.0 * fF(10.0)
        q, c, _ = out[0]
        assert q == pytest.approx(expected_q)
        assert c == fF(4.0)

    def test_empty_candidates(self):
        plan = BufferPlan(0, lib3())
        assert generate_fast([], plan) == []
        assert generate_lillis([], plan) == []

    def test_weak_buffer_prefers_low_c_candidate(self):
        """A high-R buffer pays dearly for load: it buffers the low-c
        candidate even though the high-c one has more slack."""
        cands = prune_dominated(
            make_candidates([(ps(100.0), fF(1.0)), (ps(140.0), fF(50.0))])
        )
        weak = BufferType("w", 7000.0, fF(1.0), ps(0.0))
        out = generate_fast(cands, BufferPlan(0, [weak]))
        assert out[0][2][2] is cands[0][2]

    def test_strong_buffer_prefers_high_q_candidate(self):
        cands = prune_dominated(
            make_candidates([(ps(100.0), fF(1.0)), (ps(140.0), fF(50.0))])
        )
        strong = BufferType("s", 100.0, fF(10.0), ps(0.0))
        out = generate_fast(cands, BufferPlan(0, [strong]))
        assert out[0][2][2] is cands[1][2]


class TestInsertCandidates:
    def test_merges_sorted(self):
        base = make_candidates([(1.0, 1.0), (5.0, 5.0)])
        new = make_candidates([(3.0, 2.0)])
        assert qc(insert_candidates(base, new)) == [
            (1.0, 1.0), (3.0, 2.0), (5.0, 5.0)
        ]

    def test_new_dominating_old_removes_it(self):
        base = make_candidates([(1.0, 1.0), (2.0, 5.0)])
        new = make_candidates([(4.0, 2.0)])
        assert qc(insert_candidates(base, new)) == [(1.0, 1.0), (4.0, 2.0)]

    def test_old_dominating_new_drops_new(self):
        base = make_candidates([(10.0, 1.0)])
        new = make_candidates([(3.0, 2.0)])
        assert qc(insert_candidates(base, new)) == [(10.0, 1.0)]

    def test_empty_cases(self):
        base = make_candidates([(1.0, 1.0)])
        assert insert_candidates(base, []) is base
        new = make_candidates([(1.0, 1.0)])
        assert qc(insert_candidates([], new)) == [(1.0, 1.0)]

    def test_result_nonredundant(self):
        base = make_candidates([(1.0, 1.0), (4.0, 3.0), (9.0, 9.0)])
        new = make_candidates([(2.0, 0.5), (4.5, 3.5), (8.0, 10.0)])
        assert is_nonredundant(insert_candidates(base, new))
