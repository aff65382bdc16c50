"""Execution routing: features, the one routing rule and the knobs
that pin its axes, workload capture/replay — and the parity doctrine
that routing may only ever *pick* an execution, never change its
answer."""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import insert_buffers, paper_library, uniform_random_library
from repro.core.batch import SolverPool
from repro.core.schedule import compile_net
from repro.core.stores import numpy_installed
from repro.errors import AlgorithmError
from repro.experiments.workloads import corner_variants
from repro.routing.features import (
    RequestFeatures,
    estimate_instructions,
    features_of,
)
from repro.routing.router import (
    DEFAULT_PARALLEL_THRESHOLD,
    SOA_MIN_POSITION_TYPES,
    SOA_MIN_POSITION_TYPES_PER_SINK,
    ExecutionPlan,
    Router,
    static_store,
)
from repro.routing.workload import (
    ReplayError,
    WorkloadLog,
    _result_fingerprint,
    candidate_plans,
    compiled_digest,
    read_log,
    replay,
)
from repro.tree.builders import random_tree_net

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

#: The store on the static rule's soa side: soa with NumPy.
SOA = "soa" if numpy is not None else "object"

# ---------------------------------------------------------------------
# Feature extraction


class TestFeatures:
    def test_estimate_instructions_is_exact(self):
        """The closed-form estimate equals what compile_net emits, so
        routing a plain tree and its compiled form agree."""
        library = paper_library(4)
        for sinks, seed in ((2, 1), (5, 2), (16, 3), (40, 4)):
            tree = random_tree_net(sinks, seed=seed)
            compiled = compile_net(tree, library)
            assert estimate_instructions(tree) == compiled.num_instructions

    def test_tree_and_compiled_features_agree(self):
        library = paper_library(8)
        tree = random_tree_net(12, seed=9)
        compiled = compile_net(tree, library)
        assert features_of(tree, library) == features_of(compiled)

    def test_round_trip_ignores_unknown_keys(self):
        features = features_of(
            random_tree_net(6, seed=5), paper_library(4),
            lanes=3, kind="session",
        )
        data = dict(features.to_dict(), future_field=123)
        assert RequestFeatures.from_dict(data) == features

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RequestFeatures(
                positions=1, sinks=1, library_size=1,
                instructions=1, kind="nope",
            )

    def test_tree_requires_library(self):
        with pytest.raises(ValueError, match="library"):
            features_of(random_tree_net(4, seed=1))


def _features(**overrides):
    base = dict(positions=100, sinks=10, library_size=8, instructions=300)
    base.update(overrides)
    return RequestFeatures(**base)


# ---------------------------------------------------------------------
# Plans and the rule


class TestExecutionPlan:
    def test_strategy_labels(self):
        assert ExecutionPlan("object", "compiled").strategy == "object-compiled"
        assert (
            ExecutionPlan("soa", "compiled", batch_axis=True).strategy
            == "soa-compiled+batch"
        )
        assert (
            ExecutionPlan("object", "compiled", parallel=True).strategy
            == "object-compiled+parallel"
        )

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="schedule_mode"):
            ExecutionPlan("object", "sideways")

    def test_round_trip(self):
        plan = ExecutionPlan("soa", "compiled", batch_axis=True)
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan


class TestPolicies:
    """The one rule, and the knobs that pin its axes in its place."""

    def test_unknown_policy_rejected(self):
        """Routing has one rule: the policy tables and the per-policy
        router cache are gone, and the router takes no policy."""
        import repro.routing
        import repro.routing.router as router_module

        for name in ("_PINS", "POLICIES", "DEFAULT_POLICY",
                     "validate_policy", "router_for"):
            assert not hasattr(router_module, name), name
            assert not hasattr(repro.routing, name), name
        with pytest.raises(TypeError, match="policy"):
            Router(policy="static")

    def test_static_rule_routes_by_size(self):
        """The static rule: a single net solves on object at any size,
        groups batch on the soa side only, the instruction floor
        partitions, and sessions splice on object at any size."""
        router = Router(parallel_threshold=1000)
        short = _features()  # 10 positions per sink: object
        long = _features(positions=2000, sinks=1)
        assert router.route(short) == ExecutionPlan("object", "compiled")
        assert router.route(long) == ExecutionPlan("object", "compiled")
        # A structural group batches only when it is on soa ...
        plan = router.route(replace(short, lanes=2), supports_batch=True)
        assert plan == ExecutionPlan("object", "compiled")
        if numpy is not None:
            plan = router.route(replace(long, lanes=2), supports_batch=True)
            assert plan == ExecutionPlan("soa", "compiled", batch_axis=True)
        # ... and never when the context cannot batch: its lanes solve
        # one by one, on a single net's store.
        plan = router.route(replace(long, lanes=2))
        assert plan == ExecutionPlan("object", "compiled")
        # A store the caller names decides for the rule.
        plan = router.route(replace(short, lanes=2), backend="soa",
                            supports_batch=True)
        assert plan == ExecutionPlan("soa", "compiled", batch_axis=True)
        plan = router.route(replace(long, lanes=2), backend="object",
                            supports_batch=True)
        assert plan == ExecutionPlan("object", "compiled")
        # The instruction floor turns on the partitioned solve.
        plan = router.route(
            _features(instructions=1000), supports_parallel=True
        )
        assert plan.parallel
        plan = router.route(
            _features(instructions=999), supports_parallel=True
        )
        assert not plan.parallel
        # Sessions splice on object, whatever their size.
        plan = router.route(replace(short, kind="session"))
        assert plan == ExecutionPlan("object", "splice")
        plan = router.route(replace(long, kind="session"))
        assert plan == ExecutionPlan("object", "splice")

    def test_escape_hatches_pin_axes(self):
        """The knobs pin each axis: ``backend`` the store and so the
        batch axis (``"object"`` solves a group lane by lane, ``"soa"``
        batches it), ``parallel_threshold`` the partitioned solve
        (``0`` partitions every net, a floor above the net none)."""
        features = _features(lanes=4)
        plan = Router().route(features, backend="object", supports_batch=True)
        assert plan == ExecutionPlan("object", "compiled")
        plan = Router().route(features, backend="soa", supports_batch=True)
        assert plan == ExecutionPlan("soa", "compiled", batch_axis=True)
        plan = Router(parallel_threshold=0).route(
            _features(), supports_parallel=True
        )
        assert plan == ExecutionPlan("object", "compiled", parallel=True)
        plan = Router(parallel_threshold=10**6 + 1).route(
            _features(instructions=10**6), supports_parallel=True
        )
        assert plan == ExecutionPlan("object", "compiled")

    def test_explicit_backend_beats_routing(self):
        """An explicit store wins over the rule at every partitioning
        floor: a group on ``object`` solves lane by lane.  Sessions and
        partitioned solves are the exception: only ``object`` splices
        frontiers, so they run there whatever the store."""
        group = _features(lanes=8)
        for router in (Router(), Router(parallel_threshold=0)):
            plan = router.route(_features(), backend="object")
            assert plan == ExecutionPlan("object", "compiled")
            plan = router.route(group, backend="object", supports_batch=True)
            assert plan == ExecutionPlan("object", "compiled")
            plan = router.route(_features(kind="session"), backend="soa")
            assert plan == ExecutionPlan("object", "splice")
            plan = router.route(
                _features(instructions=10**6), backend="soa",
                supports_parallel=True,
            )
            assert plan == ExecutionPlan("object", "compiled", parallel=True)

    def test_decision_counters(self):
        router = Router()
        for _ in range(3):
            router.route(_features())
        assert router.stats() == {
            "decisions": 3,
            "decisions_by_strategy": {"object-compiled": 3},
        }


#: The static rule's decisions over :func:`_golden_cells`, recorded
#: when sessions and partitioned solves moved to ``object`` under every
#: store.
ROUTE_GOLDEN = Path(__file__).parent / "data" / "route_golden.json"


def _golden_cells():
    """``(key, features, route kwargs)`` over the locked grid: solo,
    8-lane group and session requests on both sides of both
    :func:`static_store` floors (which bind sessions and groups), at
    the largest measured single nets (8000 positions at b = 32, 4000
    at b = 64), and on both sides of the partitioned-solve threshold,
    under every backend and capability flag."""
    sizes = ((499, 20, 32), (500, 20, 32), (1199, 1, 8), (1200, 1, 8),
             (8000, 1, 32), (4000, 1, 64))
    shapes = ((1, "solve"), (8, "solve"), (1, "session"))
    counts = (DEFAULT_PARALLEL_THRESHOLD - 1, DEFAULT_PARALLEL_THRESHOLD)
    for (positions, sinks, b), (lanes, kind), count in itertools.product(
        sizes, shapes, counts
    ):
        features = RequestFeatures(
            positions=positions, sinks=sinks, library_size=b,
            instructions=count, lanes=lanes, kind=kind,
        )
        for backend, batch, parallel in itertools.product(
            ("auto", "object", "soa"), (False, True), (False, True)
        ):
            key = (f"{kind} lanes={lanes} n={positions} sinks={sinks} "
                   f"b={b} i={count} backend={backend} "
                   f"batch={int(batch)} parallel={int(parallel)}")
            yield key, features, dict(
                backend=backend, supports_batch=batch,
                supports_parallel=parallel,
            )


@pytest.mark.skipif(
    numpy is None,
    reason="the golden table was recorded with NumPy",
)
def test_route_golden():
    """The one rule decides as recorded on the whole grid."""
    golden = json.loads(ROUTE_GOLDEN.read_text())
    assert set(golden) == {"static"}
    router = Router()
    cells = list(_golden_cells())
    assert set(golden["static"]) == {key for key, _, _ in cells}
    for key, features, kwargs in cells:
        plan = router.route(features, **kwargs)
        assert plan.strategy == golden["static"][key], key


def _corner_group(tree, library_size, lanes=8):
    library = paper_library(library_size)
    return replace(features_of(tree, library), lanes=lanes)


class TestStaticStore:
    """The static rule's store choice, pinned on both sides of the
    object/soa crossover (``benchmarks/bench_crossover.py``), on inputs
    the repo benchmark does and does not send.  A single net — a solve
    or a session — takes ``object`` at every measured size; only
    multi-lane groups keep the floors."""

    @pytest.mark.parametrize("positions, sinks, library_size", [
        (586, 34, 8),     # Table-1 net 1 at b = 8
        (586, 34, 16),    # ... at b = 16 (the ECO session)
        (600, 1, 8),      # a short trunk
        (300, 300, 32),   # a 300-sink random net, ~1 position per sink
        (5, 5, 32),       # the smallest nets /solve traffic sends
    ])
    def test_object_side(self, positions, sinks, library_size):
        features = _features(
            positions=positions, sinks=sinks, library_size=library_size
        )
        for kind, lanes in (("solve", 1), ("session", 1), ("solve", 8)):
            assert static_store(
                replace(features, kind=kind, lanes=lanes)
            ) == "object"

    @pytest.mark.parametrize("positions, sinks, library_size", [
        (2000, 1, 8),     # a 2000-position trunk at b = 8
        (500, 1, 32),     # the Figure 4 trunks at b = 32 ...
        (1350, 1, 32),
        (8000, 1, 32),    # ... up to the paper's regime
        (1600, 16, 32),   # a 16-sink net segmented to 100 per sink
    ])
    def test_soa_side(self, positions, sinks, library_size):
        """Long lists: an 8-lane group takes soa, while one net's solve
        or session stays on object (it wins there too, by 1.1-1.5x up
        to 8000 positions at b = 8-64)."""
        features = _features(
            positions=positions, sinks=sinks, library_size=library_size
        )
        assert static_store(replace(features, lanes=8)) == SOA
        assert static_store(features) == "object"
        assert static_store(replace(features, kind="session")) == "object"

    @pytest.mark.parametrize("sinks, library_size", [(20, 32), (1, 8)])
    def test_each_floor_is_the_boundary(self, sinks, library_size):
        """For a group, the first position count that clears both floors
        picks soa; one less picks object (20 sinks: the per-sink floor
        binds; one sink: the total).  A session at the floor stays on
        object."""
        floor = max(SOA_MIN_POSITION_TYPES_PER_SINK * sinks,
                    SOA_MIN_POSITION_TYPES)
        positions = -(-floor // library_size)
        features = _features(
            positions=positions, sinks=sinks, library_size=library_size,
            lanes=8,
        )
        assert static_store(features) == SOA
        below = replace(features, positions=positions - 1)
        assert static_store(below) == "object"
        session = replace(features, kind="session", lanes=1)
        assert static_store(session) == "object"

    def test_real_nets(self):
        from repro.experiments.workloads import (
            FIG4_NET, TABLE1_NETS, build_net,
        )

        table1 = build_net(TABLE1_NETS[0])
        trunk = build_net(FIG4_NET, positions_override=2000)
        for net in (table1, trunk):
            assert static_store(
                features_of(net, paper_library(8))
            ) == "object"
        for net in (table1, trunk):
            assert static_store(
                features_of(net, paper_library(8), kind="session")
            ) == "object"

    def test_corner_groups(self):
        """An 8-lane group of a 40-sink b = 8 net solves lane by lane on
        object; the same group of an 866-position trunk at b = 32 rides
        the batch axis (1.1x faster than per-lane object), though one
        such trunk alone solves on object."""
        from repro.experiments.workloads import FIG4_NET, build_net

        router = Router()
        small = _corner_group(random_tree_net(40, seed=3), 8)
        plan = router.route(small, supports_batch=True)
        assert plan == ExecutionPlan("object", "compiled")
        trunk = _corner_group(build_net(FIG4_NET, positions_override=866), 32)
        plan = router.route(replace(trunk, lanes=1), supports_batch=True)
        assert plan == ExecutionPlan("object", "compiled")
        if numpy is not None:
            plan = router.route(trunk, supports_batch=True)
            assert plan == ExecutionPlan("soa", "compiled", batch_axis=True)

    def test_session_store(self):
        """Every session resolves on object: the Table-1 net, and long
        trunks too, where object won the session sweep (7 or 8 of 8
        cells in each of five sweeps)."""
        from repro.experiments.workloads import (
            FIG4_NET, TABLE1_NETS, build_net,
        )
        from repro.incremental.engine import IncrementalSolver
        from repro.tree.io import tree_from_dict, tree_to_dict

        def private(tree):  # sessions edit their tree; build_net caches
            return tree_from_dict(tree_to_dict(tree))

        table1 = private(build_net(TABLE1_NETS[0]))
        assert IncrementalSolver(table1, paper_library(16)).backend == "object"
        for positions, size in ((2000, 8), (1350, 32)):
            trunk = private(build_net(FIG4_NET, positions_override=positions))
            assert IncrementalSolver(
                trunk, paper_library(size)
            ).backend == "object"


# ---------------------------------------------------------------------
# Parity: every candidate plan returns the identical answer


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_every_candidate_plan_is_bit_identical(
    sinks, seed, library_size, library_seed
):
    """The routing contract: whatever plan the router picks, the slack,
    assignment, driver load and DP statistics are those of the
    plain-tree object-store reference — bit for bit, not approximately."""
    tree = random_tree_net(sinks, seed=seed)
    library = uniform_random_library(library_size, seed=library_seed)
    compiled = compile_net(tree, library)
    reference = _result_fingerprint(
        insert_buffers(tree, library, backend="object")
    )
    plans = candidate_plans(features_of(compiled))
    assert len(plans) == (2 if numpy is not None else 1)
    for plan in plans:
        result = insert_buffers(compiled, library, backend=plan.backend)
        assert _result_fingerprint(result) == reference, plan.strategy


@pytest.mark.skipif(
    not numpy_installed(), reason="batch axis needs NumPy"
)
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(min_value=3, max_value=16),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=8),
)
def test_batch_axis_plan_is_bit_identical(sinks, seed, lanes):
    """The batched group answer matches per-net sequential solves."""
    from repro.core.schedule import run_compiled_group

    library = paper_library(8)
    base = random_tree_net(sinks, seed=seed)
    nets = [
        compile_net(tree, library)
        for _, tree in corner_variants(base, lanes)
    ]
    batched = run_compiled_group(nets, library)
    for net, result in zip(nets, batched):
        expected = insert_buffers(net, library, backend="soa")
        assert _result_fingerprint(result) == _result_fingerprint(expected)


# ---------------------------------------------------------------------
# Workload capture


class TestWorkloadLog:
    def test_record_and_read_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = WorkloadLog(path)
        library = paper_library(4)
        compiled = compile_net(random_tree_net(6, seed=3), library)
        features = features_of(compiled)
        plan = ExecutionPlan("object", "compiled")
        entry = log.record(
            "solve", digest=compiled_digest(compiled),
            features=features, plan=plan, seconds=0.01,
        )
        log.close()
        (record,) = read_log(path)
        assert record == entry
        assert record["features"] == features.to_dict()
        assert record["plan"] == plan.to_dict()
        # Routing has one rule, so a record names no policy.
        assert "policy" not in record

    def test_features_capture_omits_payload(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = WorkloadLog(path)  # capture="features"
        library = paper_library(4)
        compiled = compile_net(random_tree_net(6, seed=3), library)
        log.record(
            "solve", digest="d", features=features_of(compiled),
            plan=ExecutionPlan("object", "compiled"),
            seconds=0.01,
            payload={"net": {"nodes": []}},
        )
        log.close()
        (record,) = read_log(path)
        assert "net" not in record

    def test_bad_capture_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="capture"):
            WorkloadLog(tmp_path / "x.jsonl", capture="everything")

    def test_read_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"v": 99}\n')
        with pytest.raises(ReplayError, match="version"):
            read_log(path)
        path.write_text('{"v": 1, "kind": "solve"}\n')
        with pytest.raises(ReplayError, match="lacks"):
            read_log(path)
        path.write_text("not json\n")
        with pytest.raises(ReplayError, match="not JSON"):
            read_log(path)

    def test_solver_pool_capture_is_replayable(self, tmp_path):
        """A full-capture pool log round-trips through replay."""
        path = tmp_path / "pool.jsonl"
        library = paper_library(4)
        log = WorkloadLog(path, capture="full")
        pool = SolverPool(library, workload_log=log)
        # Different sink counts: structurally distinct, so the pool
        # logs two solo records rather than one lane group.
        trees = [random_tree_net(5, seed=1), random_tree_net(7, seed=2)]
        expected = pool.solve(trees)
        pool.close()
        log.close()

        records = read_log(path)
        assert len(records) == 2
        report = replay(records, repeats=1)
        assert report["requests"] == 2
        # Each record is solved on every store that imports.
        assert report["parity_checked"] == 2 * (2 if numpy is not None else 1)
        # The logged answers came from these very requests.
        assert report["logged_seconds"] > 0.0
        assert expected[0].slack is not None


# ---------------------------------------------------------------------
# Partitioning is pinned by the pool's threshold, not a policy


class TestDeprecations:
    def test_parallel_override_with_policy_is_clean(self):
        """``parallel_threshold`` is the one partitioning knob: a pool
        reports it and no policy, and ``parallel`` and ``policy`` are
        no pool options — the algorithm's option check rejects both."""
        library = paper_library(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for threshold, want in (
                (0, 0), (None, DEFAULT_PARALLEL_THRESHOLD)
            ):
                with SolverPool(
                    library, jobs=1, parallel_threshold=threshold
                ) as pool:
                    stats = pool.parallel_stats()
                assert "policy" not in stats
                assert stats["threshold_instructions"] == want
                assert stats["enabled"] is False  # jobs=1 never partitions
        for option in ("parallel", "policy"):
            with pytest.raises(AlgorithmError, match=option):
                SolverPool(library, **{option: "never"})


# ---------------------------------------------------------------------
# Committed replay corpus (the tier-1 regression harness)

CORPUS = "tests/data/workload_mixed.jsonl"


class TestReplayCorpus:
    @pytest.fixture(scope="class")
    def report(self):
        return replay(Path(__file__).parent / "data" / "workload_mixed.jsonl",
                      repeats=1)

    def test_corpus_shape(self, report):
        """The committed schema-v1 records still carry the ``policy``
        key of the days of several rules; the reader accepts and
        ignores it."""
        corpus = Path(__file__).parent / "data" / "workload_mixed.jsonl"
        assert all(record["policy"] == "static"
                   for record in read_log(corpus))
        assert report["schema_version"] == 1
        assert report["requests"] == 40
        kinds = [entry["kind"] for entry in report["per_request"]]
        assert kinds.count("solve") == 24
        assert kinds.count("batch") == 8
        assert kinds.count("session") == 8

    def test_static_routes_the_corpus_to_object(self, report):
        """Every corpus net is short-list: the rule solves solos and
        group lanes on ``object`` and splices sessions there."""
        assert report["static"]["decisions_by_strategy"] == {
            "object-compiled": 32, "object-splice": 8,
        }

    def test_identical_results_across_policies(self, report):
        """replay() raises ReplayError on any parity breach, so a
        returned report *is* the bit-identity proof; every request
        checked at least two plans (a solve without NumPy has only the
        object store to run on)."""
        for entry in report["per_request"]:
            plans = len(entry["measured_seconds"])
            if entry["kind"] == "session" or numpy is not None:
                assert plans >= 2
        assert report["parity_checked"] == sum(
            len(entry["measured_seconds"]) for entry in report["per_request"]
        )

    def test_regret_accounting_is_sane(self, report):
        oracle = report["oracle_seconds"]
        assert oracle > 0.0
        bucket = report["static"]
        # The rule cannot beat the oracle, and its regret is exactly
        # the gap to it (same shared measurement table).
        assert bucket["total_seconds"] >= oracle - 1e-12
        assert bucket["regret_seconds"] == pytest.approx(
            bucket["total_seconds"] - oracle
        )
        assert bucket["regret_seconds"] >= -1e-12
        assert bucket["speedup_vs_oracle"] <= 1.0 + 1e-9
        assert sum(bucket["decisions_by_strategy"].values()) == 40
        assert bucket["total_seconds"] == pytest.approx(sum(
            entry["measured_seconds"][entry["chosen"]]
            for entry in report["per_request"]
        ))

    def test_per_request_regret_consistent(self, report):
        for entry in report["per_request"]:
            best = entry["measured_seconds"][entry["best"]]
            chosen = entry["measured_seconds"][entry["chosen"]]
            assert chosen >= best - 1e-12
            assert entry["regret_seconds"] == pytest.approx(chosen - best)

    def test_sessions_price_both_stores(self, report):
        """Session replay measures the object splice resolve against a
        from-scratch solve on every store."""
        for entry in report["per_request"]:
            if entry["kind"] == "session":
                assert set(entry["measured_seconds"]) == {
                    "object-splice", "object-compiled", f"{SOA}-compiled",
                }

    def test_policies_only_change_time_never_answers(self, report):
        """The rule's chosen plan appears in the shared measurement
        table — pricing never executed anything unmeasured."""
        for entry in report["per_request"]:
            assert entry["chosen"] in entry["measured_seconds"]
