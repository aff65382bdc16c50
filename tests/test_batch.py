"""Batch engine tests: solve_many equivalence, SolverPool, plumbing."""

import pytest

from helpers import random_small_tree

from repro import (
    SolverPool,
    compile_net,
    insert_buffers,
    paper_library,
    solve_many,
    uniform_random_library,
)
from repro.core.batch import parallel_map
from repro.errors import AlgorithmError
from repro.tree.node import Driver


@pytest.fixture(scope="module")
def corpus():
    return [random_small_tree(seed) for seed in range(8)]


def test_serial_matches_individual_solves(corpus):
    library = paper_library(4)
    batch = solve_many(corpus, library, jobs=1)
    for tree, result in zip(corpus, batch):
        reference = insert_buffers(tree, library)
        assert result.slack == reference.slack
        assert result.assignment == reference.assignment


def test_jobs2_matches_serial(corpus):
    library = uniform_random_library(5, seed=99)
    serial = solve_many(corpus, library, jobs=1)
    parallel = solve_many(corpus, library, jobs=2)
    assert [r.slack for r in serial] == [r.slack for r in parallel]
    assert [r.assignment for r in serial] == [r.assignment for r in parallel]
    assert [r.driver_load for r in serial] == [r.driver_load for r in parallel]
    # "auto" routes each net the same way at every jobs value.
    assert [r.stats.backend for r in serial] == [
        r.stats.backend for r in parallel
    ]


def test_jobs2_soa_matches_serial_object(corpus):
    pytest.importorskip("numpy")
    library = paper_library(3)
    serial = solve_many(corpus, library, jobs=1, backend="object")
    parallel = solve_many(corpus, library, jobs=2, backend="soa")
    assert [r.slack for r in serial] == [r.slack for r in parallel]
    assert [r.assignment for r in serial] == [r.assignment for r in parallel]


def test_algorithm_and_options_forwarded(corpus):
    library = paper_library(2)
    lillis = solve_many(corpus[:3], library, algorithm="lillis", jobs=2)
    assert all(r.stats.algorithm == "lillis" for r in lillis)
    destructive = solve_many(corpus[:3], library, jobs=2,
                             destructive_pruning=True)
    assert all(r.stats.algorithm == "fast-destructive" for r in destructive)


def test_driver_override_applies_to_every_net(corpus):
    library = paper_library(2)
    weak = solve_many(corpus[:2], library, driver=Driver(5000.0))
    strong = solve_many(corpus[:2], library, driver=Driver(10.0))
    for w, s in zip(weak, strong):
        assert s.slack > w.slack


def test_results_preserve_input_order(corpus):
    library = paper_library(2)
    batch = solve_many(corpus, library, jobs=2)
    expected = [insert_buffers(tree, library).slack for tree in corpus]
    assert [r.slack for r in batch] == expected


def test_empty_corpus():
    assert solve_many([], paper_library(2)) == []


def test_bad_jobs_rejected(corpus):
    with pytest.raises(ValueError, match="jobs"):
        solve_many(corpus, paper_library(2), jobs=0)


def test_bad_algorithm_fails_fast_in_parent(corpus):
    with pytest.raises(AlgorithmError):
        solve_many(corpus, paper_library(2), algorithm="bogus", jobs=2)
    with pytest.raises(AlgorithmError):
        solve_many(corpus, paper_library(2), backend="bogus", jobs=2)
    with pytest.raises(AlgorithmError, match="unknown options"):
        solve_many(corpus, paper_library(2), algorithm="lillis", jobs=2,
                   destructive_pruning=True)


class TestSolverPool:
    def test_inline_pool_matches_individual_solves(self, corpus):
        library = paper_library(3)
        with SolverPool(library) as pool:
            results = pool.solve(corpus)
        for tree, result in zip(corpus, results):
            reference = insert_buffers(tree, library)
            assert result.slack == reference.slack
            assert result.assignment == reference.assignment

    def test_pool_persists_across_solve_calls(self, corpus):
        library = paper_library(2)
        expected = [insert_buffers(tree, library).slack for tree in corpus]
        with SolverPool(library, jobs=2) as pool:
            first = pool.solve(corpus[:4])
            second = pool.solve(corpus[4:])
            # The worker pool object survives between calls.
            assert pool._pool is not None
            again = pool.solve(corpus[:2])
        assert [r.slack for r in first + second] == expected
        assert [r.slack for r in again] == expected[:2]

    def test_single_net_still_uses_the_warm_pool(self, corpus):
        library = paper_library(2)
        with SolverPool(library, jobs=2) as pool:
            result = pool.solve([corpus[0]])
            assert pool._pool is not None  # dispatched, not inlined
        assert result[0].slack == insert_buffers(corpus[0], library).slack

    def test_accepts_precompiled_nets(self, corpus):
        library = paper_library(2)
        compiled = [compile_net(tree, library) for tree in corpus[:3]]
        with SolverPool(library) as pool:
            results = pool.solve(compiled)
        assert [r.slack for r in results] == [
            insert_buffers(t, library).slack for t in corpus[:3]]

    def test_closed_pool_raises(self, corpus):
        pool = SolverPool(paper_library(2))
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.solve(corpus[:1])

    def test_bad_context_fails_at_construction(self):
        with pytest.raises(AlgorithmError):
            SolverPool(paper_library(2), algorithm="bogus")
        with pytest.raises(AlgorithmError):
            SolverPool(paper_library(2), backend="bogus")
        with pytest.raises(ValueError, match="jobs"):
            SolverPool(paper_library(2), jobs=0)


class TestStatsFromAnotherThread:
    """The server reads a pool's live state and the process registry
    on its event loop while executor threads solve, so a read must
    neither walk state the solving thread mutates nor wait for a solve
    to finish."""

    def test_batch_axis_stats_never_walks_a_factory(self):
        pool = SolverPool(paper_library(2))

        class MidReadDispatch:
            """A warm lane factory whose ``stats()`` lands mid-dispatch:
            the solving thread's ``_factory_for`` adds another lane
            count to the factory map."""

            def stats(self):
                pool._factories[len(pool._factories) + 2] = MidReadDispatch()
                empty = {"pooled_bytes": 0}
                return {"arena": empty, "cells": empty}

        pool._factories[2] = MidReadDispatch()
        pool._factories[3] = MidReadDispatch()
        stats = pool.batch_axis_stats()
        assert (stats["groups"], stats["scalar_solves"]) == (0, 0)
        assert list(pool._factories) == [2, 3]

    def test_stats_never_wait_on_a_solve(self):
        """``/stats``, ``/metrics`` and ``batch_axis_stats()`` answer
        while a solve holds the pool."""
        import asyncio
        import json
        import threading

        from repro.service.server import BufferServer
        from repro.tree.io import library_to_dict, tree_to_dict

        library = paper_library(2)
        server = BufferServer()
        body = json.dumps({
            "net": tree_to_dict(random_small_tree(1)),
            "library": library_to_dict(library),
        }).encode()
        assert asyncio.run(server._dispatch("POST", "/solve", body))[0] == 200
        (entry,) = server._pools.values()
        pool = entry.pool
        answers = {}

        def read():
            answers["batch_axis"] = pool.batch_axis_stats()["scalar_solves"]
            for path in ("/stats", "/metrics"):
                status, _ = asyncio.run(server._dispatch("GET", path, b""))
                answers[path] = status

        with pool._serial_lock:  # held for a whole inline solve
            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            reader.join(timeout=10.0)
            waited = reader.is_alive()
        reader.join()
        assert not waited
        assert answers == {"batch_axis": 1, "/stats": 200, "/metrics": 200}


def test_parallel_map_serial_and_parallel():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=2) == [x * x for x in items]


def _square(x):
    return x * x


def test_time_batch_reports_throughput(corpus):
    from repro.experiments import time_batch

    library = paper_library(2)
    measured = time_batch(corpus[:4], library, jobs=1)
    assert measured.num_nets == 4
    assert measured.seconds > 0.0
    assert measured.nets_per_second > 0.0
    assert [r.slack for r in measured.results] == [
        insert_buffers(t, library).slack for t in corpus[:4]
    ]


def test_run_table1_jobs_matches_serial_structure():
    """jobs=2 must produce the same grid cells (timings aside)."""
    from repro.experiments import NetSpec, run_table1

    tiny = NetSpec(name="tiny", paper_sinks=337, sinks=6, target_positions=40)
    serial = run_table1(nets=[tiny], library_sizes=(2, 3), jobs=1)
    parallel = run_table1(nets=[tiny], library_sizes=(2, 3), jobs=2)
    assert [(r.net, r.library_size, r.slack_ps, r.num_buffers)
            for r in serial] == [
        (r.net, r.library_size, r.slack_ps, r.num_buffers) for r in parallel
    ]
