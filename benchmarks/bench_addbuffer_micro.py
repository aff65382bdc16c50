"""Ablation — the add-buffer operation in isolation: O(bk) vs O(k + b).

This is the paper's Section 3 claim stripped of everything else: on a
synthetic nonredundant candidate list of length k, time the Lillis scan
against the convex-prune + hull-walk generation.  It also covers the
paper's remark that at small b the new operation carries a slight
overhead from ``Convexpruning`` — visible here as the b = 2 ratio.

Run: ``pytest benchmarks/bench_addbuffer_micro.py --benchmark-only``
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.buffer_ops import BufferPlan, generate_fast, generate_lillis
from repro.core.pruning import prune_dominated
from repro.library.generators import paper_library

LIST_LENGTHS = (100, 1000, 4000)
LIBRARY_SIZES = (2, 8, 64)


def synthetic_list(length: int, seed: int = 0):
    """A nonredundant candidate list of exactly ~length entries.

    Q grows concavely with C with noise, so a realistic fraction of the
    list survives convex pruning rather than the hull collapsing to two
    points.
    """
    rng = random.Random(seed)
    cands = []
    c = 0.0
    for i in range(length):
        c += rng.uniform(0.5e-15, 2.0e-15)
        q = 1e-9 * math.sqrt(i + 1) + rng.uniform(0.0, 2e-11)
        cands.append((q, c, i))
    cands.sort(key=lambda cand: cand[1])
    out = prune_dominated(cands)
    assert len(out) >= 0.5 * length
    return out


@pytest.mark.parametrize("length", LIST_LENGTHS)
@pytest.mark.parametrize("size", LIBRARY_SIZES)
@pytest.mark.parametrize("op", ["lillis", "fast"])
def test_addbuffer_micro(benchmark, length, size, op):
    cands = synthetic_list(length)
    plan = BufferPlan(0, paper_library(size).buffers)
    generate = generate_lillis if op == "lillis" else generate_fast
    benchmark.extra_info.update(list_length=len(cands), library_size=size)
    result = benchmark(generate, cands, plan)
    assert len(result) >= 1


def test_addbuffer_asymptotics(benchmark):
    """Measured work ratio must scale with b (the whole point).

    At k = 4000: lillis does ~b*k candidate evaluations, fast does
    ~k + b.  The wall-clock ratio at b = 64 should exceed the ratio at
    b = 2 by a wide margin.
    """
    import time

    cands = synthetic_list(4000)

    def measure(op, size):
        plan = BufferPlan(0, paper_library(size).buffers)
        generate = generate_lillis if op == "lillis" else generate_fast
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            generate(cands, plan)
            best = min(best, time.perf_counter() - start)
        return best

    def ratios():
        return {
            size: measure("lillis", size) / measure("fast", size)
            for size in (2, 64)
        }

    result = benchmark.pedantic(ratios, rounds=1, iterations=1)
    print(f"\nadd-buffer lillis/fast time ratio: b=2 -> {result[2]:.2f}x, "
          f"b=64 -> {result[64]:.2f}x")
    assert result[64] > 4.0
    assert result[64] > 2.0 * result[2]
