"""Throughput benchmarks for the new execution layers.

Two axes the paper never measured, but a production flow lives by:

* **Candidate-store backend** — object lists versus structure-of-arrays
  (``backend="soa"``) on the long-candidate-list trunk workload.  The
  baseline Lillis scan is where the SoA arrays pay off most (its
  ``O(b k)`` inner loops vectorize wholesale); the fast algorithm's
  ``O(k + b)`` add-buffer step leaves little bulk work per node, so
  parity there is the expected outcome.
* **Batch engine** — ``solve_many`` over a corpus of nets, serial
  versus ``jobs=2`` worker processes.  On multi-core machines the batch
  speedup approaches the job count; the per-net results are asserted
  identical either way.

Run: ``pytest benchmarks/bench_batch.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from conftest import batch_corpus, run_once, scaled

from repro.core.api import insert_buffers
from repro.core.batch import solve_many
from repro.experiments.workloads import FIG4_NET, build_net
from repro.library.generators import paper_library

TRUNK = scaled(FIG4_NET)
LIBRARY_SIZE = 32


@pytest.mark.parametrize("algorithm", ["lillis", "fast"])
@pytest.mark.parametrize("backend", ["object", "soa"])
def test_backend_headtohead(benchmark, algorithm, backend):
    """Object versus SoA on the trunk net (long candidate lists)."""
    tree = build_net(TRUNK, positions_override=TRUNK.target_positions // 2)
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    benchmark.extra_info.update(backend=backend,
                                positions=tree.num_buffer_positions,
                                library_size=LIBRARY_SIZE)
    result = run_once(benchmark, insert_buffers, tree, library,
                      algorithm=algorithm, backend=backend)
    benchmark.extra_info.update(slack=result.slack)


def test_backend_speedup_claim(scale):
    """SoA must beat object lists for the Lillis scans on long lists."""
    import time

    positions = TRUNK.target_positions // 2
    tree = build_net(TRUNK, positions_override=positions)
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    timings = {}
    results = {}
    for backend in ("object", "soa"):
        started = time.perf_counter()
        results[backend] = insert_buffers(tree, library, algorithm="lillis",
                                          backend=backend)
        timings[backend] = time.perf_counter() - started
    speedup = timings["object"] / timings["soa"]
    print(f"\nlillis object {timings['object']:.3f}s vs soa "
          f"{timings['soa']:.3f}s -> {speedup:.2f}x")
    assert results["object"].slack == results["soa"].slack
    assert results["object"].assignment == results["soa"].assignment
    if positions < 3000:
        pytest.skip(
            f"n={positions}: candidate lists too short for the array win "
            "(raise REPRO_BENCH_SCALE to assert the speedup)"
        )
    # The vectorized O(b k) scans should win clearly on this workload.
    assert speedup > 1.2


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_jobs(benchmark, jobs, scale):
    """solve_many over a corpus: serial vs. workers.

    Nets compile once in the parent and workers receive flat
    CompiledNet payloads (no per-solve validation or tree pickling).
    """
    trees = batch_corpus(8, max(int(150 * scale), 30))
    library = paper_library(8, jitter=0.03, seed=8)
    benchmark.extra_info.update(jobs=jobs, nets=len(trees))
    results = run_once(benchmark, solve_many, trees, library, jobs=jobs)
    benchmark.extra_info.update(total_buffers=sum(r.num_buffers
                                                  for r in results))


def test_batch_results_identical_across_jobs(scale):
    """Whatever the wall-clock story, jobs must not change answers."""
    trees = batch_corpus(6, max(int(120 * scale), 30))
    library = paper_library(8, jitter=0.03, seed=8)
    serial = solve_many(trees, library, jobs=1)
    parallel = solve_many(trees, library, jobs=2)
    assert [r.slack for r in serial] == [r.slack for r in parallel]
    assert [r.assignment for r in serial] == [r.assignment for r in parallel]
