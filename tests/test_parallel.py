"""Partitioned parallel solve tests: planning, parity, pool routing.

The headline contract is the repo-wide one: a partitioned solve —
cut, dispatch, splice, all on the object store — returns the
*bit-identical* result of the serial solve on every store, for every
algorithm and library shape.  The
parity corpus runs the real splice path with inline dispatch
(``jobs=1`` plus a precomputed plan), so it is cheap enough to sweep;
a smaller set of tests exercises real worker processes through
:class:`~repro.core.batch.SolverPool`.
"""

import pickle

import pytest

from helpers import process_counts
from repro import (
    Driver,
    RoutingTree,
    SolverPool,
    compile_net,
    insert_buffers,
    paper_library,
    random_tree_net,
    uniform_random_library,
)
from repro.core.stores import numpy_installed
from repro.errors import AlgorithmError
from repro.obs.metrics import default_registry, process_counter
from repro.parallel import (
    DEFAULT_PARALLEL_THRESHOLD,
    plan_partitions,
    solve_partitioned,
)
from repro.tree.builders import star_net, two_pin_net
from repro.tree.segmenting import segment_to_position_count
from repro.units import fF, ps


def assert_identical(result, reference, backend=None):
    """Bit-identical: slack, assignment, load and DP accounting; the
    result ran on ``backend`` (default: the reference's store)."""
    assert result.slack == reference.slack
    assert result.assignment == reference.assignment
    assert result.driver_load == reference.driver_load
    assert result.stats.root_candidates == reference.stats.root_candidates
    assert result.stats.peak_list_length == reference.stats.peak_list_length
    assert (result.stats.candidates_generated
            == reference.stats.candidates_generated)
    assert result.stats.algorithm == reference.stats.algorithm
    assert result.stats.backend == (backend or reference.stats.backend)


def decisions():
    """Routing decisions in the process registry, by strategy."""
    return process_counts("repro_routing_decisions_total", "strategy")


def partitioned_outcomes():
    """Partitioned solves in the process registry, by outcome."""
    return process_counts("repro_partitioned_solves_total", "outcome")


def partitions_total():
    return process_counter("repro_partitions_total").value()


def _delta(after, before):
    """The counts that moved from ``before`` to ``after``."""
    moved = {key: count - before.get(key, 0) for key, count in after.items()}
    return {key: count for key, count in moved.items() if count}


def random_net(seed, sinks=24, positions=800):
    base = random_tree_net(
        sinks, seed=seed, required_arrival=(ps(400.0), ps(2500.0)),
        driver=Driver(resistance=200.0),
    )
    return segment_to_position_count(base, positions)


def mixed_polarity_net(seed, sinks=16):
    """A branchy net whose sinks alternate polarity.

    The plain compiled DP ignores polarity, so the partitioned and the
    serial pipeline must agree on these nets exactly as on all-positive
    ones — this guards the subschedule extraction against accidentally
    consulting sink metadata it must not.
    """
    import random

    rng = random.Random(seed)
    tree = RoutingTree.with_source(driver=Driver(resistance=180.0))
    spine = tree.root_id
    for index in range(sinks):
        spine = tree.add_internal(
            spine, rng.uniform(20.0, 120.0), fF(rng.uniform(5.0, 40.0))
        )
        arm = spine
        for _ in range(rng.randrange(8, 16)):
            arm = tree.add_internal(
                arm, rng.uniform(10.0, 80.0), fF(rng.uniform(3.0, 25.0))
            )
        tree.add_sink(
            arm, rng.uniform(10.0, 60.0), fF(rng.uniform(2.0, 20.0)),
            capacitance=fF(rng.uniform(5.0, 30.0)),
            required_arrival=ps(rng.uniform(400.0, 1800.0)),
            polarity=1 if index % 2 == 0 else -1,
        )
    tree.validate()
    return tree


@pytest.fixture(scope="module")
def library():
    return paper_library(4)


@pytest.fixture(scope="module")
def medium_net():
    return random_net(11, sinks=48, positions=3000)


class TestPlanning:
    def test_random_net_plan_is_viable_and_balanced(self, medium_net, library):
        compiled = compile_net(medium_net, library)
        plan = plan_partitions(compiled, 4)
        assert plan.viable
        assert len(plan.cuts) >= 2
        assert 0.5 <= plan.coverage <= 1.0
        assert plan.covered_instructions == sum(c.size for c in plan.cuts)
        previous_end = -1
        for cut in plan.cuts:  # disjoint, sorted, sized to target
            assert cut.start > previous_end
            assert cut.final == compiled.final_of_node[cut.node_id]
            assert cut.start == compiled.start_of_node[cut.node_id]
            assert 64 <= cut.size <= plan.target
            previous_end = cut.final

    def test_chain_schedule_is_not_viable(self, library):
        chain = two_pin_net(
            length=4000.0, sink_capacitance=fF(20.0),
            required_arrival=ps(900.0),
            driver=Driver(resistance=180.0), num_segments=400,
        )
        plan = plan_partitions(compile_net(chain, library), 4)
        assert not plan.viable
        assert "chain" in plan.reason

    def test_single_worker_is_not_viable(self, medium_net, library):
        plan = plan_partitions(compile_net(medium_net, library), 1)
        assert not plan.viable
        assert "fewer than two workers" in plan.reason

    def test_unpickled_schedule_cannot_be_planned(self, medium_net, library):
        compiled = pickle.loads(pickle.dumps(compile_net(medium_net, library)))
        with pytest.raises(AlgorithmError, match="unpickled"):
            plan_partitions(compiled, 4)

    def test_low_coverage_reported(self, medium_net, library):
        compiled = compile_net(medium_net, library)
        # An absurd cut floor leaves everything in the residual.
        plan = plan_partitions(
            compiled, 4, min_instructions=len(compiled.ops)
        )
        assert not plan.viable


class TestSubschedule:
    def test_extract_matches_cut_range(self, medium_net, library):
        compiled = compile_net(medium_net, library)
        plan = plan_partitions(compiled, 4)
        cut = plan.cuts[0]
        sub = compiled.subschedule(cut.node_id)
        assert len(sub.ops) == cut.size
        assert sub.library is compiled.library
        start, final = compiled.instruction_range(cut.node_id)
        assert (start, final) == (cut.start, cut.final)

    def test_instruction_range_unknown_node(self, medium_net, library):
        compiled = compile_net(medium_net, library)
        with pytest.raises(AlgorithmError):
            compiled.instruction_range(10**9)

    def test_extract_survives_pickling(self, medium_net, library):
        compiled = compile_net(medium_net, library)
        cut = plan_partitions(compiled, 4).cuts[0]
        sub = pickle.loads(pickle.dumps(compiled.subschedule(cut.node_id)))
        assert len(sub.ops) == cut.size


class TestParityCorpus:
    """Partitioned == serial, bit for bit, across the context matrix.

    Inline dispatch (``jobs=1`` + a precomputed 4-worker plan) runs the
    identical cut/splice code path without process overhead.
    """

    @pytest.mark.parametrize("algorithm", ["fast", "lillis", "van_ginneken"])
    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_algorithms_and_backends(self, algorithm, store, library):
        """The partitioned solve matches the serial solve on ``store``."""
        pytest.importorskip("numpy") if store == "soa" else None
        if algorithm == "van_ginneken":  # single-buffer algorithm
            library = paper_library(1)
        for seed in (0, 1, 2):
            compiled = compile_net(random_net(seed), library)
            plan = plan_partitions(compiled, 4, min_instructions=16)
            assert plan.viable, plan.reason
            result = solve_partitioned(
                compiled, library, algorithm=algorithm, jobs=1, plan=plan,
            )
            reference = insert_buffers(
                compiled, library, algorithm=algorithm, backend=store
            )
            assert_identical(result, reference, backend="object")

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_library_sizes(self, size):
        library = uniform_random_library(size, seed=size)
        compiled = compile_net(random_net(5, sinks=20, positions=600), library)
        plan = plan_partitions(compiled, 4, min_instructions=16)
        assert plan.viable, plan.reason
        result = solve_partitioned(
            compiled, library, jobs=1, plan=plan
        )
        assert_identical(result, insert_buffers(compiled, library))

    @pytest.mark.parametrize("store", ["object", "soa"])
    def test_mixed_polarity_sinks(self, store, library):
        pytest.importorskip("numpy") if store == "soa" else None
        for seed in (3, 4):
            net = mixed_polarity_net(seed)
            compiled = compile_net(net, library)
            plan = plan_partitions(compiled, 4, min_instructions=8)
            assert plan.viable, plan.reason
            result = solve_partitioned(compiled, library, jobs=1, plan=plan)
            reference = insert_buffers(compiled, library, backend=store)
            assert_identical(result, reference, backend="object")

    def test_report_is_filled(self, medium_net, library):
        compiled = compile_net(medium_net, library)
        plan = plan_partitions(compiled, 4)
        report = {}
        solve_partitioned(compiled, library, jobs=1, plan=plan, report=report)
        assert report["engaged"]
        assert report["partitions"] == len(plan.cuts)
        assert report["coverage"] == plan.coverage
        assert len(report["cut_depths"]) == len(plan.cuts)
        assert report["total_instructions"] == len(compiled.ops)


class TestEdgeCases:
    def test_cut_at_driver_child(self, library):
        """Star topology: every cut is a direct child of the root."""
        star = star_net(
            6, arm_length=900.0, required_arrival=ps(1200.0),
            driver=Driver(resistance=200.0),
        )
        star = segment_to_position_count(star, 300)
        compiled = compile_net(star, library)
        plan = plan_partitions(compiled, 2, min_instructions=8)
        assert plan.viable, plan.reason
        assert all(cut.depth == 1 for cut in plan.cuts)
        result = solve_partitioned(compiled, library, jobs=1, plan=plan)
        assert_identical(result, insert_buffers(compiled, library))

    def test_single_sink_partitions(self, library):
        """min_instructions=1 admits leaf-sized cuts (a lone SINK+FINAL)."""
        star = star_net(
            8, arm_length=40.0, required_arrival=ps(800.0),
            driver=Driver(resistance=200.0),
        )
        compiled = compile_net(star, library)
        plan = plan_partitions(
            compiled, 2, min_instructions=1, min_coverage=0.0
        )
        assert plan.viable, plan.reason
        assert min(cut.size for cut in plan.cuts) <= 4
        result = solve_partitioned(compiled, library, jobs=1, plan=plan)
        assert_identical(result, insert_buffers(compiled, library))

    def test_degenerate_chain_falls_back_serially(self, library):
        chain = two_pin_net(
            length=3000.0, sink_capacitance=fF(15.0),
            required_arrival=ps(800.0),
            driver=Driver(resistance=150.0), num_segments=300,
        )
        report = {}
        result = solve_partitioned(
            chain, library, jobs=2, report=report
        )
        assert not report["engaged"]
        assert "chain" in report["reason"]
        assert_identical(result, insert_buffers(chain, library))

    def test_one_job_without_plan_falls_back(self, medium_net, library):
        report = {}
        result = solve_partitioned(
            medium_net, library, jobs=1, report=report
        )
        assert not report["engaged"]
        assert "fewer than two workers" in report["reason"]
        assert_identical(result, insert_buffers(medium_net, library))


class TestSolverPoolRouting:
    def test_invalid_policy_rejected(self, library):
        """Routing has one rule: ``policy`` is no pool option, and the
        algorithm's option check refuses it."""
        with pytest.raises(AlgorithmError, match="policy"):
            SolverPool(library, policy="sometimes_parallel")

    def test_pool_partitioned_solve_bit_identical(self, medium_net, library):
        reference = insert_buffers(medium_net, library)
        with SolverPool(
            library, jobs=2, parallel_threshold=0
        ) as pool:
            first = pool.solve([medium_net])[0]
            second = pool.solve([medium_net])[0]  # pool reuse
        last = default_registry().latest("partitioned_solve")
        assert_identical(first, reference)
        assert_identical(second, reference)
        assert partitioned_outcomes() == {"engaged": 2}
        assert partitions_total() >= 4
        assert last["engaged"]
        assert last["pool_utilization"] > 0.0

    def test_auto_threshold_keeps_small_nets_serial(self, library):
        small = random_net(9, sinks=12, positions=200)
        with SolverPool(library, jobs=2) as pool:
            result = pool.solve([small])[0]
        assert partitioned_outcomes() == {}
        assert pool.parallel_threshold == DEFAULT_PARALLEL_THRESHOLD
        assert_identical(result, insert_buffers(small, library))

    def test_custom_threshold_routes_small_nets(self, library):
        small = random_net(9, sinks=12, positions=400)
        with SolverPool(
            library, jobs=2, parallel_threshold=100
        ) as pool:
            result = pool.solve([small])[0]
        assert sum(partitioned_outcomes().values()) == 1
        assert_identical(result, insert_buffers(small, library))

    def test_parallel_never_disables_routing(self, medium_net, library):
        """A threshold above the net keeps a multi-process pool's solve
        serial: the plan a ``jobs=1`` pool runs, the same answer."""
        above = compile_net(medium_net, library).num_instructions + 1
        with SolverPool(
            library, jobs=2, parallel_threshold=above
        ) as pool:
            result = pool.solve([medium_net])[0]
        assert partitioned_outcomes() == {}
        assert decisions() == {"object-compiled": 1}
        assert_identical(result, insert_buffers(medium_net, library))

    def test_mixed_batch_routes_only_large_nets(self, medium_net, library):
        small = [random_net(seed, sinks=8, positions=60) for seed in (20, 21)]
        nets = [small[0], medium_net, small[1]]
        references = [insert_buffers(net, library) for net in nets]
        with SolverPool(
            library, jobs=2, parallel_threshold=2000
        ) as pool:
            results = pool.solve(nets)
        for result, reference in zip(results, references):
            assert_identical(result, reference)
        assert sum(partitioned_outcomes().values()) == 1

    def test_auto_pool_routes_units_like_the_inline_pool(self, library):
        """A ``jobs=2`` "auto" pool routes each unit as ``jobs=1`` does:
        solo nets on object, 8 R/C corners of an 866-position trunk at
        b = 32 on the batch axis, and the same corners lane by lane on
        object under ``backend="object"``.  Answers match ``jobs=1``."""
        from repro.experiments.workloads import (
            FIG4_NET, build_net, corner_variants,
        )

        solo = [random_net(seed, sinks=8, positions=60) for seed in (20, 21)]
        solo.append(random_net(22, sinks=24, positions=800))
        trunk = build_net(FIG4_NET, positions_override=866)
        corners = [variant for _, variant in corner_variants(trunk, 8)]
        for nets, lib, backend in (
            (solo, library, "auto"),
            (corners, paper_library(32), "auto"),
            (corners, paper_library(32), "object"),
        ):
            with SolverPool(lib, backend=backend) as inline:
                before = decisions()
                references = inline.solve(nets)
                groups_before = inline.batch_axis_stats()["groups"]
                inline_decisions = _delta(decisions(), before)
            with SolverPool(lib, jobs=2, backend=backend) as pool:
                before = decisions()
                results = pool.solve(nets)
                pool_decisions = _delta(decisions(), before)
                groups = pool.batch_axis_stats()["groups"] - groups_before
            for result, reference in zip(results, references):
                assert_identical(result, reference)
            # Each unit is routed and counted once, as inline.
            assert pool_decisions == inline_decisions
            if nets is solo or backend == "object":
                assert set(pool_decisions) == {"object-compiled"}
                assert groups == 0
            elif numpy_installed():
                assert pool_decisions["soa-compiled+batch"] == 1
                assert groups == 1

    def test_direct_partitioned_solve_routes_auto(self, medium_net, library):
        """``solve_partitioned`` runs the cuts and the residual on the
        object store, and takes no store option."""
        report = {}
        result = solve_partitioned(medium_net, library, jobs=2, report=report)
        assert report["engaged"], report["reason"]
        assert result.stats.backend == "object"
        assert_identical(result, insert_buffers(medium_net, library))
        with pytest.raises(TypeError, match="backend"):
            solve_partitioned(medium_net, library, backend="soa")

    def test_soa_pool_partitions_on_object(self, medium_net, library):
        """A ``backend="soa"`` pool keeps soa for single nets, yet its
        partitioned solves run on object: the same answer and DP
        accounting as serial object and serial soa, bit for bit."""
        pytest.importorskip("numpy")
        compiled = compile_net(medium_net, library)
        serial = {
            store: insert_buffers(compiled, library, backend=store)
            for store in ("object", "soa")
        }
        with SolverPool(
            library, jobs=2, backend="soa", parallel_threshold=0
        ) as pool:
            result = pool.solve([compiled])[0]
        assert decisions() == {"object-compiled+parallel": 1}
        assert partitioned_outcomes() == {"engaged": 1}
        assert default_registry().latest("partitioned_solve")["engaged"]
        for reference in serial.values():
            assert_identical(result, reference, backend="object")
        with SolverPool(library, backend="soa") as pool:
            assert pool.solve([compiled])[0].stats.backend == "soa"

    def test_closed_pool_refuses_work(self, library):
        pool = SolverPool(
            library, jobs=2, parallel_threshold=0
        )
        pool.close()
        with pytest.raises(RuntimeError):
            pool.solve([random_net(1, sinks=8, positions=60)])
