"""Batch-axis engine tests: lane parity, grouping, fallbacks.

The engine's contract (:mod:`repro.core.stores.batch_axis`) is that a
group solve is *bit-identical* per lane to solving each net alone on
the compiled-soa path — not approximately equal: every assertion here
is ``==`` on floats.  The corpus deliberately crosses the regimes that
exercise different kernels: uncapped libraries (the hull-free argmax
walk), load caps (per-lane hull selection), destructive pruning
(Convexpruning on real hull rows), single-type van Ginneken, mixed
sink polarities (carried, ignored by the standard DP), and ragged
group sizes where lanes prune to different lengths and some lanes die
early.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from helpers import process_counts, random_small_tree

from repro import (
    Driver,
    SolverPool,
    compile_net,
    insert_buffers,
    paper_library,
    solve_many,
)
from repro.core.schedule import group_signature, run_compiled_group
from repro.core.stores.batch_axis import BatchedSoAFactory, solve_group
from repro.errors import AlgorithmError
from repro.experiments.workloads import corner_variants, make_corners
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.tree.builders import random_tree_net
from repro.tree.segmenting import segment_to_position_count
from repro.units import fF, ps

#: DPStats fields that must match the sequential solve exactly
#: (``runtime_seconds`` is wall-clock and legitimately differs).
STAT_FIELDS = (
    "algorithm",
    "num_buffer_positions",
    "library_size",
    "root_candidates",
    "peak_list_length",
    "candidates_generated",
    "backend",
)


def medium_net(seed: int, sinks: int = 10, positions: int = 120):
    """A segmented random net big enough to prune non-trivially."""
    base = random_tree_net(
        sinks,
        seed=seed,
        required_arrival=(ps(500.0), ps(3000.0)),
        driver=Driver(resistance=180.0),
    )
    return segment_to_position_count(base, positions)


def capped_library():
    """A small library where max-load caps actually bind."""
    return BufferLibrary([
        BufferType("weak", driving_resistance=900.0,
                   input_capacitance=fF(4.0), intrinsic_delay=ps(18.0),
                   max_load=fF(120.0)),
        BufferType("mid", driving_resistance=350.0,
                   input_capacitance=fF(11.0), intrinsic_delay=ps(29.0),
                   max_load=fF(260.0)),
        BufferType("strong", driving_resistance=120.0,
                   input_capacitance=fF(30.0), intrinsic_delay=ps(45.0)),
    ])


def assert_lane_parity(tree, lanes, library, algorithm="fast", **options):
    """Group-solve ``lanes`` corner replicas; assert each lane is
    bit-identical to its own sequential compiled-soa solve."""
    variants = [v for _, v in corner_variants(tree, lanes)]
    compiled = [compile_net(v, library) for v in variants]
    signature = group_signature(compiled[0])
    assert all(group_signature(c) == signature for c in compiled[1:])

    results = run_compiled_group(
        compiled, library, algorithm=algorithm, options=options)
    assert len(results) == lanes
    for net, result in zip(compiled, results):
        reference = insert_buffers(
            net, library, algorithm=algorithm, backend="soa", **options)
        assert result.slack == reference.slack
        assert result.driver_load == reference.driver_load
        assert result.assignment == reference.assignment
        for field in STAT_FIELDS:
            assert getattr(result.stats, field) == getattr(
                reference.stats, field), field
    return results


# -- parity corpus -----------------------------------------------------


@pytest.mark.parametrize("lanes", [2, 5, 16])
def test_fast_corner_parity(lanes):
    assert_lane_parity(medium_net(11), lanes, paper_library(4))


def test_destructive_pruning_parity():
    assert_lane_parity(medium_net(23), 6, paper_library(3),
                       destructive_pruning=True)


def test_lillis_parity():
    assert_lane_parity(medium_net(37, sinks=6, positions=60), 5,
                       paper_library(3), algorithm="lillis")


def test_van_ginneken_parity():
    assert_lane_parity(medium_net(41, sinks=6, positions=60), 4,
                       paper_library(1), algorithm="van_ginneken")


def test_capped_library_parity():
    """Load caps force the per-lane hull path; parity must hold."""
    assert_lane_parity(medium_net(53), 5, capped_library())


def test_capped_destructive_parity():
    assert_lane_parity(medium_net(59), 4, capped_library(),
                       destructive_pruning=True)


def test_polarity_sinks_parity():
    """Mixed sink polarities ride along untouched by the standard DP."""
    base = random_tree_net(8, seed=67, driver=Driver(resistance=150.0))
    for node in base.sinks():
        node.polarity = -1 if node.node_id % 2 else 1
    tree = segment_to_position_count(base, 90)
    assert_lane_parity(tree, 5, paper_library(3))


def test_small_trees_parity():
    """Tiny nets (the oracle corpus) hit the degenerate-width kernels."""
    for seed in range(4):
        assert_lane_parity(random_small_tree(seed), 3, paper_library(2))


def test_randomized_stress():
    """Random shapes x libraries x algorithms x ragged group sizes."""
    rng = random.Random(2005)
    for trial in range(10):
        sinks = rng.randint(2, 12)
        positions = rng.randint(sinks, 100)
        lanes = rng.choice([2, 3, 4, 7, 9])
        algorithm, options, size = rng.choice([
            ("fast", {}, rng.randint(1, 5)),
            ("fast", {"destructive_pruning": True}, rng.randint(1, 4)),
            ("lillis", {}, rng.randint(1, 3)),
            ("van_ginneken", {}, 1),
        ])
        tree = medium_net(rng.randint(0, 10_000), sinks=sinks,
                          positions=positions)
        assert_lane_parity(tree, lanes, paper_library(size),
                           algorithm=algorithm, **options)


# -- grouping and validation ------------------------------------------


def test_corner_variants_share_signature_across_counts():
    tree = medium_net(71, sinks=5, positions=40)
    library = paper_library(2)
    signatures = {
        group_signature(compile_net(v, library))
        for _, v in corner_variants(tree, 7)
    }
    assert len(signatures) == 1
    assert len(make_corners(7)) == 7
    with pytest.raises(ValueError):
        make_corners(0)


def test_mixed_group_rejected():
    library = paper_library(2)
    compiled = [compile_net(random_small_tree(s), library) for s in (0, 1)]
    assert group_signature(compiled[0]) != group_signature(compiled[1])
    with pytest.raises(AlgorithmError, match="structurally different"):
        solve_group(compiled, library)


def test_factory_lane_mismatch_rejected():
    library = paper_library(2)
    variants = [v for _, v in corner_variants(random_small_tree(3), 3)]
    compiled = [compile_net(v, library) for v in variants]
    with pytest.raises(AlgorithmError, match="lanes"):
        solve_group(compiled, library, factory=BatchedSoAFactory(2))


def test_empty_group():
    assert solve_group([], paper_library(2)) == []


def test_warm_factory_reuse_is_still_exact():
    """A second solve on a recycled factory must not see stale state."""
    library = paper_library(3)
    factory = BatchedSoAFactory(4)
    for seed in (5, 6):
        tree = medium_net(seed, sinks=6, positions=70)
        compiled = [compile_net(v, library)
                    for _, v in corner_variants(tree, 4)]
        results = solve_group(compiled, library, factory=factory)
        for net, result in zip(compiled, results):
            reference = insert_buffers(net, library, backend="soa")
            assert result.slack == reference.slack
            assert result.assignment == reference.assignment
    stats = factory.stats()
    assert stats["solves"] == 2
    assert stats["lanes"] == 4


# -- SolverPool integration -------------------------------------------


class TestPoolGrouping:
    def test_pool_groups_corner_replicas(self):
        library = paper_library(3)
        tree = medium_net(83, sinks=6, positions=70)
        nets = [v for _, v in corner_variants(tree, 5)]
        loner = random_small_tree(9)
        # On the soa store: under "auto" these short lanes would solve
        # one by one on object (see the test_auto_* cases below).
        with SolverPool(library, backend="soa") as pool:
            results = pool.solve(nets + [loner])
            stats = pool.batch_axis_stats()
        assert stats["enabled"] is True
        assert stats["groups"] == 1
        assert stats["batched_solves"] == 5
        assert stats["scalar_solves"] == 1
        assert stats["lanes_histogram"] == {5: 1}
        # Published by the solving thread after the group.
        assert stats["factories"] == 1
        assert stats["arena_pooled_bytes"] > 0
        for tree_in, result in zip(nets + [loner], results):
            reference = insert_buffers(tree_in, library, backend="soa")
            assert result.slack == reference.slack
            assert result.assignment == reference.assignment

    def test_auto_short_lanes_solve_one_by_one_on_object(self):
        """An "auto" pool keeps a group of short-list lanes off the
        batch axis: each lane solves on object, bit-identical."""
        library = paper_library(3)
        tree = medium_net(83, sinks=6, positions=70)
        nets = [v for _, v in corner_variants(tree, 5)]
        with SolverPool(library) as pool:
            results = pool.solve(nets)
            stats = pool.batch_axis_stats()
        assert stats["enabled"] is True
        assert stats["groups"] == 0
        assert stats["scalar_solves"] == 5
        batched = run_compiled_group(
            [compile_net(net, library) for net in nets], library
        )
        for result, reference in zip(results, batched):
            assert result.stats.backend == "object"
            assert result.slack == reference.slack
            assert result.assignment == reference.assignment

    def test_auto_long_lanes_ride_the_batch_axis(self):
        """Lanes on the soa side of the static rule batch under "auto"."""
        from repro.experiments.workloads import FIG4_NET, build_net
        from repro.routing.router import SOA_MIN_POSITION_TYPES

        library = paper_library(32)
        positions = -(-SOA_MIN_POSITION_TYPES // library.size)
        trunk = build_net(FIG4_NET, positions_override=positions)
        nets = [v for _, v in corner_variants(trunk, 4)]
        with SolverPool(library) as pool:
            results = pool.solve(nets)
            stats = pool.batch_axis_stats()
        assert stats["groups"] == 1
        assert stats["batched_solves"] == 4
        for net, result in zip(nets, results):
            reference = insert_buffers(net, library, backend="object")
            assert result.slack == reference.slack
            assert result.assignment == reference.assignment

    def test_pool_all_singletons_never_errors(self):
        """Structurally distinct nets degrade to the per-net path."""
        library = paper_library(2)
        nets = [random_small_tree(s) for s in range(5)]
        with SolverPool(library) as pool:
            results = pool.solve(nets)
            stats = pool.batch_axis_stats()
        assert stats["groups"] == 0
        assert stats["scalar_solves"] == 5
        expected = [insert_buffers(t, library).slack for t in nets]
        assert [r.slack for r in results] == expected

    def test_pool_object_backend_disables_batch_axis(self):
        library = paper_library(2)
        nets = [v for _, v in corner_variants(random_small_tree(2), 3)]
        with SolverPool(library, backend="object") as pool:
            results = pool.solve(nets)
            stats = pool.batch_axis_stats()
        assert stats["enabled"] is False
        assert stats["batched_solves"] == 0
        expected = [insert_buffers(t, library, backend="object").slack
                    for t in nets]
        assert [r.slack for r in results] == expected

    def test_pool_unsupported_algorithm_falls_back(self):
        """van Ginneken + multi-type library cannot solve at all, but
        the pool must construct with batch axis off, not raise."""
        with SolverPool(paper_library(4), algorithm="van_ginneken") as pool:
            assert pool.batch_axis_stats()["enabled"] is False

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lane_group_counts_in_the_parent_registry(self, jobs):
        """A group a worker process solves counts its lanes where the
        pool routed it, exactly as an inline group does."""
        library = paper_library(3)
        nets = [v for _, v in corner_variants(random_small_tree(3), 4)]
        with SolverPool(library, jobs=jobs, backend="soa") as pool:
            pool.solve(nets)
            stats = pool.batch_axis_stats()
        assert process_counts(
            "repro_batch_axis_groups_total", "lanes") == {"4": 1}
        assert (stats["groups"], stats["batched_solves"]) == (1, 4)
        assert stats["lanes_histogram"] == {4: 1}

    def test_pool_jobs2_grouping_matches_serial(self):
        library = paper_library(3)
        tree = medium_net(97, sinks=5, positions=50)
        nets = [v for _, v in corner_variants(tree, 6)]
        serial = solve_many(nets, library, jobs=1)
        parallel = solve_many(nets, library, jobs=2)
        assert [r.slack for r in serial] == [r.slack for r in parallel]
        assert ([r.assignment for r in serial]
                == [r.assignment for r in parallel])

    def test_solve_many_corner_group_matches_insert_buffers(self):
        library = paper_library(3)
        tree = medium_net(101, sinks=7, positions=80)
        nets = [v for _, v in corner_variants(tree, 8)]
        batch = solve_many(nets, library, jobs=1)
        for net, result in zip(nets, batch):
            reference = insert_buffers(net, library)
            assert result.slack == reference.slack
            assert result.assignment == reference.assignment

    def test_stats_reads_stay_whole_under_concurrent_groups(self):
        """Three solving threads (more than this box's cores) dispatch
        lane groups of two to five lanes through one pool while a
        fourth reads ``batch_axis_stats()``: no read may fail or see a
        torn update, and no count may be lost."""
        import sys
        import threading
        import time

        library = paper_library(3)
        tree = random_small_tree(3)
        groups = [
            [compile_net(v, library) for _, v in corner_variants(tree, lanes)]
            for lanes in range(2, 6)
        ]
        pool = SolverPool(library, backend="soa")
        solved = [0, 0]  # groups, lanes
        failures = []
        stop = time.monotonic() + 1.0
        count_lock = threading.Lock()

        def solve():
            try:
                index = 0
                while time.monotonic() < stop:
                    nets = groups[index % len(groups)]
                    pool.solve(nets)
                    with count_lock:
                        solved[0] += 1
                        solved[1] += len(nets)
                    index += 1
            except Exception as exc:  # reported below
                failures.append(exc)

        def read():
            try:
                while time.monotonic() < stop:
                    stats = pool.batch_axis_stats()
                    histogram = stats["lanes_histogram"]
                    assert stats["groups"] == sum(histogram.values())
                    assert stats["batched_solves"] == sum(
                        lanes * count for lanes, count in histogram.items()
                    )
            except Exception as exc:  # reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve) for _ in range(3)]
            threads.append(threading.Thread(target=read))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = pool.batch_axis_stats()
        assert (stats["groups"], stats["batched_solves"]) == tuple(solved)
