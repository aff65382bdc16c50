"""Resilient-execution tests: deadlines, supervision, breakers, faults.

The contract under test is the one ``docs/resilience.md`` states: under
any committed fault plan a solve either returns the **bit-identical**
result of the healthy path (degraded execution is legal, different
answers are not) or raises a *typed* error — and it never hangs and
never returns silently corrupted data.  Fault injection is deterministic
(:mod:`repro.resilience.faults`), so every chaos scenario here replays
exactly.
"""

import time

import pytest

from helpers import process_counts
from repro import Driver, compile_net, insert_buffers, paper_library, random_tree_net
from repro.core.batch import SolverPool, solve_many
from repro.errors import (
    DeadlineExceeded,
    FaultInjectedError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.parallel import plan_partitions, solve_partitioned
from repro.resilience import (
    FAULT_SITES,
    BackoffPolicy,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultRule,
    Supervisor,
    active_deadline,
    clear_fault_plan,
    deadline_scope,
    install_fault_plan,
    is_supervisable,
)
from repro.tree.segmenting import segment_to_position_count
from repro.units import ps


def assert_identical(result, reference):
    """Bit-identical: slack, assignment, load and DP accounting."""
    assert result.slack == reference.slack
    assert result.assignment == reference.assignment
    assert result.driver_load == reference.driver_load
    assert result.stats.root_candidates == reference.stats.root_candidates
    assert result.stats.peak_list_length == reference.stats.peak_list_length
    assert (result.stats.candidates_generated
            == reference.stats.candidates_generated)


def small_net(seed=11, sinks=8):
    return random_tree_net(
        sinks, seed=seed, required_arrival=(ps(500.0), ps(2000.0)),
        driver=Driver(resistance=200.0),
    )


def supervisor_events():
    """Supervisor events in the process registry, by event."""
    return process_counts("repro_supervisor_events_total", "event")


def breaker_events(axis):
    """One axis's breaker events in the process registry, by event."""
    return process_counts("repro_breaker_events_total", "event", axis=axis)


def partitionable_net(seed=5, sinks=24, positions=800):
    base = random_tree_net(
        sinks, seed=seed, required_arrival=(ps(400.0), ps(2500.0)),
        driver=Driver(resistance=200.0),
    )
    return segment_to_position_count(base, positions)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture(autouse=True)
def no_leaked_faults():
    """No fault plan survives a test (nor the REPRO_FAULTS export)."""
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def library():
    return paper_library(4)


# -- deadlines --------------------------------------------------------


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            Deadline(0.0)
        with pytest.raises(ValueError, match="> 0"):
            Deadline(-1.0)

    def test_remaining_and_expired(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.now = 1.5
        assert deadline.remaining() == pytest.approx(0.5)
        clock.now = 2.0
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(0.0)
        clock.now = 3.0
        assert deadline.remaining() == pytest.approx(-1.0)

    def test_check_raises_typed_error_with_site(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        deadline.check("dp.schedule")  # within budget: no raise
        clock.now = 1.0
        with pytest.raises(DeadlineExceeded, match="dp.schedule") as info:
            deadline.check("dp.schedule")
        assert info.value.site == "dp.schedule"
        assert info.value.budget == pytest.approx(0.5)

    def test_from_ms(self):
        clock = FakeClock()
        deadline = Deadline.from_ms(250.0, clock=clock)
        assert deadline.budget == pytest.approx(0.25)

    def test_scope_installs_and_restores(self):
        assert active_deadline() is None
        outer = Deadline(10.0)
        with deadline_scope(outer):
            assert active_deadline() is outer
            inner = Deadline(1.0)
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_scope_none_keeps_existing(self):
        outer = Deadline(10.0)
        with deadline_scope(outer):
            with deadline_scope(None):
                # An unbounded call nested in a bounded one stays bounded.
                assert active_deadline() is outer
            assert active_deadline() is outer


class TestDeadlineInStrategies:
    """Every execution strategy honors an (already expired) deadline."""

    def expired(self):
        clock = FakeClock()
        deadline = Deadline(0.001, clock=clock)
        clock.now = 1.0
        return deadline

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_insert_buffers(self, backend, library):
        if backend == "soa":
            pytest.importorskip("numpy")
        with pytest.raises(DeadlineExceeded):
            insert_buffers(
                small_net(), library, backend=backend,
                deadline=self.expired(),
            )

    def test_solve_partitioned_inline(self, library):
        compiled = compile_net(partitionable_net(), library)
        plan = plan_partitions(compiled, 4, min_instructions=16)
        assert plan.viable, plan.reason
        with pytest.raises(DeadlineExceeded):
            solve_partitioned(
                compiled, library, jobs=1, plan=plan,
                deadline=self.expired(),
            )

    def test_batch_axis_group(self, library):
        pytest.importorskip("numpy")
        from repro.experiments.workloads import corner_variants

        trees = [tree for _, tree in corner_variants(small_net(), 3)]
        with pytest.raises(DeadlineExceeded):
            solve_many(trees, library, backend="soa",
                       deadline=self.expired())

    def test_incremental_resolve(self, library):
        from repro.incremental import IncrementalSolver

        solver = IncrementalSolver(small_net(), library)
        with deadline_scope(self.expired()):
            with pytest.raises(DeadlineExceeded):
                solver.resolve()

    @pytest.mark.parametrize("dp", ["polarity", "min_cost", "wiresizing"])
    def test_extension_dps(self, dp, library):
        from repro import insert_buffers_with_inverters
        from repro.cost import slack_cost_frontier
        from repro.wiresizing import (
            default_wire_classes,
            size_wires_and_insert_buffers,
        )

        solve = {
            "polarity": insert_buffers_with_inverters,
            "min_cost": slack_cost_frontier,
            "wiresizing": lambda net, lib: size_wires_and_insert_buffers(
                net, lib, default_wire_classes(2)),
        }[dp]
        with deadline_scope(self.expired()):
            with pytest.raises(DeadlineExceeded):
                solve(small_net(), library)

    def test_pool_dispatch_bounded_without_task_timeout(self, library):
        """A hung worker cannot outlive the deadline even with no
        task_timeout configured: the parent's wait is clipped."""
        install_fault_plan(FaultPlan(
            [FaultRule("worker.task", "hang", seconds=30.0)], seed=1,
        ), export_env=True)
        nets = [small_net(seed) for seed in (1, 2, 3)]
        started = time.monotonic()
        with SolverPool(library, jobs=2, max_retries=0) as pool:
            with pytest.raises(DeadlineExceeded):
                pool.solve(nets, deadline=Deadline(1.0))
        assert time.monotonic() - started < 15.0

    def test_generous_deadline_is_bit_identical(self, library):
        net = small_net()
        reference = insert_buffers(net, library)
        bounded = insert_buffers(net, library, deadline=Deadline(300.0))
        assert_identical(bounded, reference)


# -- backoff and supervisor -------------------------------------------


class TestBackoffPolicy:
    def test_deterministic_for_a_seed(self):
        a = BackoffPolicy(seed=7)
        b = BackoffPolicy(seed=7)
        assert [a.delay(i) for i in range(6)] == [b.delay(i) for i in range(6)]

    def test_cap_and_growth(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_bounds(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.25)
        for attempt in range(50):
            assert 0.75 <= policy.delay(attempt) <= 1.25


class TestSupervisor:
    def test_success_needs_no_supervision(self):
        supervisor = Supervisor(max_retries=2, sleep=lambda _: None)
        assert supervisor.run(lambda: 42) == 42
        assert supervisor_events() == {}

    def test_retry_then_success(self):
        supervisor = Supervisor(max_retries=2, sleep=lambda _: None)
        attempts = []

        def attempt():
            attempts.append(1)
            if len(attempts) == 1:
                raise FaultInjectedError("test.site")
            return "ok"

        respawns = []
        assert supervisor.run(attempt, respawn=lambda: respawns.append(1)) == "ok"
        assert len(attempts) == 2
        assert len(respawns) == 1
        stats = supervisor_events()
        assert stats["retries"] == 1
        assert stats["respawns"] == 1
        assert "fallbacks" not in stats

    def test_non_supervisable_raises_immediately(self):
        supervisor = Supervisor(max_retries=5, sleep=lambda _: None)
        attempts = []

        def attempt():
            attempts.append(1)
            raise ValueError("algorithm bug")

        with pytest.raises(ValueError):
            supervisor.run(attempt, fallback=lambda: "never")
        assert len(attempts) == 1

    def test_deadline_exceeded_is_not_supervisable(self):
        assert not is_supervisable(DeadlineExceeded("dp.walk", 1.0))
        assert is_supervisable(FaultInjectedError("x"))
        assert is_supervisable(WorkerCrashError("dead"))
        assert is_supervisable(WorkerHangError("stuck"))
        supervisor = Supervisor(max_retries=5, sleep=lambda _: None)
        attempts = []

        def attempt():
            attempts.append(1)
            raise DeadlineExceeded("dp.walk", 1.0)

        with pytest.raises(DeadlineExceeded):
            supervisor.run(attempt, fallback=lambda: "never")
        assert len(attempts) == 1

    def test_fallback_after_exhaustion(self):
        supervisor = Supervisor(max_retries=1, sleep=lambda _: None)

        def attempt():
            raise FaultInjectedError("test.site")

        assert supervisor.run(attempt, fallback=lambda: "degraded") == "degraded"
        stats = supervisor_events()
        assert stats["fallbacks"] == 1
        assert stats["supervised_failures"] == 2  # initial + 1 retry

    def test_exhaustion_without_fallback_reraises(self):
        supervisor = Supervisor(max_retries=1, sleep=lambda _: None)
        with pytest.raises(FaultInjectedError):
            supervisor.run(lambda: (_ for _ in ()).throw(
                FaultInjectedError("test.site")))

    def test_on_failure_observes_every_failure(self):
        supervisor = Supervisor(max_retries=2, sleep=lambda _: None)
        seen = []
        supervisor.run(
            lambda: (_ for _ in ()).throw(FaultInjectedError("s")),
            fallback=lambda: None, on_failure=seen.append,
        )
        assert len(seen) == 3
        assert all(isinstance(exc, FaultInjectedError) for exc in seen)


# -- circuit breakers -------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=30.0):
        return CircuitBreaker(
            "parallel", failure_threshold=threshold,
            reset_seconds=reset, clock=clock,
        )

    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker_events("parallel")["trip"] == 1

    def test_success_resets_the_count(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.state == "half_open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else waits on it
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker_events("parallel")["trip"] == 2
        clock.now = 40.0
        assert not breaker.allow()  # cool-down restarted at 31
        clock.now = 62.0
        assert breaker.allow()

    def test_cancel_probe_returns_the_token(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow()
        # The caller consulted allow() at routing time but the router
        # declined the strategy: without cancel the breaker would stay
        # wedged half-open with its only token lost.
        breaker.cancel_probe()
        assert breaker.allow()

    def test_events_count_in_the_process_registry(self):
        """Each failure, success and trip is one registry event, by
        axis: the counts ``/stats`` and ``/metrics`` both read."""
        breaker = self.make(FakeClock())
        other = CircuitBreaker("batch_axis", failure_threshold=1)
        breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        other.record_failure()
        assert breaker_events("parallel") == {
            "success": 1, "failure": 3, "trip": 1,
        }
        assert breaker_events("batch_axis") == {"failure": 1, "trip": 1}

    def test_board(self):
        clock = FakeClock()
        board = BreakerBoard(failure_threshold=1, clock=clock)
        assert board.allow("parallel")
        board.record("parallel", False)
        assert not board.allow("parallel")
        assert board.allow("batch_axis")
        assert process_counts("repro_breaker_events_total", "axis",
                              event="trip") == {"parallel": 1}
        assert board.breaker("parallel").state == "open"
        assert board.breaker("batch_axis").state == "closed"
        # Unknown axes are permissive no-ops, never KeyErrors.
        assert board.allow("nonexistent")
        board.record("nonexistent", False)
        board.cancel("nonexistent")


# -- fault plans ------------------------------------------------------


class TestFaultPlan:
    def test_site_registry_documents_every_site(self):
        names = [name for name, _ in FAULT_SITES]
        assert names == [
            "worker.task", "worker.partition", "batch.dispatch",
            "parallel.dispatch", "batch.group", "cache.payload",
        ]
        assert all(description for _, description in FAULT_SITES)

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule("worker.task", "explode")
        with pytest.raises(ValueError, match="rate"):
            FaultRule("worker.task", "crash", rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            FaultRule("worker.task", "crash", rate=1.5)

    def test_draws_are_deterministic_per_seed(self):
        def sequence(seed):
            plan = FaultPlan(
                [FaultRule("worker.task", "error", rate=0.5)], seed=seed)
            return [
                plan.draw("worker.task", ("error",)) is not None
                for _ in range(40)
            ]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)
        fired = sum(sequence(7))
        assert 0 < fired < 40  # rate 0.5 actually mixes

    def test_site_streams_are_independent(self):
        plan_a = FaultPlan([
            FaultRule("worker.task", "error", rate=0.5),
            FaultRule("batch.group", "error", rate=0.5),
        ], seed=3)
        plan_b = FaultPlan([
            FaultRule("worker.task", "error", rate=0.5),
        ], seed=3)
        # Drawing at batch.group must not perturb worker.task's stream.
        draws_a = []
        for _ in range(20):
            plan_a.draw("batch.group", ("error",))
            draws_a.append(plan_a.draw("worker.task", ("error",)) is not None)
        draws_b = [
            plan_b.draw("worker.task", ("error",)) is not None
            for _ in range(20)
        ]
        assert draws_a == draws_b

    def test_limit_bounds_fires(self):
        plan = FaultPlan(
            [FaultRule("worker.task", "error", rate=1.0, limit=2)], seed=1)
        fires = [
            plan.draw("worker.task", ("error",)) is not None
            for _ in range(5)
        ]
        assert fires == [True, True, False, False, False]
        assert plan.fired["worker.task:error"] == 2

    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultRule("worker.task", "crash", rate=0.1),
            FaultRule("worker.task", "hang", rate=0.05, seconds=2.0),
            FaultRule("cache.payload", "corrupt", rate=1.0, limit=3),
        ], seed=99)
        import json

        clone = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert clone.to_dict() == plan.to_dict()

    def test_env_export_round_trip(self):
        import os

        from repro.resilience.faults import ENV_VAR

        plan = FaultPlan(
            [FaultRule("worker.task", "error", rate=0.25)], seed=42)
        install_fault_plan(plan, export_env=True)
        exported = os.environ[ENV_VAR]
        assert FaultPlan.from_json(exported).to_dict() == plan.to_dict()
        clear_fault_plan()
        assert ENV_VAR not in os.environ

    def test_inject_is_inert_without_a_plan(self):
        from repro.resilience import inject, should_corrupt

        inject("worker.task")  # no plan: must be a no-op
        assert not should_corrupt("cache.payload")

    def test_error_kind_raises_typed_error(self):
        from repro.resilience import inject

        install_fault_plan(FaultPlan(
            [FaultRule("batch.dispatch", "error", rate=1.0)], seed=1))
        with pytest.raises(FaultInjectedError, match="batch.dispatch"):
            inject("batch.dispatch")


# -- chaos: fault sites x strategies ----------------------------------


class TestFaultSitesAcrossStrategies:
    """Injected faults degrade bit-identically or fail typed — never
    hang, never corrupt."""

    def refs(self, nets, library):
        return [insert_buffers(net, library) for net in nets]

    def test_worker_task_error_degrades_bit_identically(self, library):
        install_fault_plan(FaultPlan(
            [FaultRule("worker.task", "error", rate=1.0)], seed=1,
        ), export_env=True)
        nets = [small_net(seed) for seed in (1, 2, 3)]
        with SolverPool(library, jobs=2, max_retries=1) as pool:
            results = pool.solve(nets)
        stats = supervisor_events()
        clear_fault_plan()
        for result, reference in zip(results, self.refs(nets, library)):
            assert_identical(result, reference)
        assert stats["fallbacks"] == 1
        assert stats["retries"] == 1

    def test_worker_task_crash_detected_and_degraded(self, library):
        """os._exit in a pool worker: multiprocessing.Pool does not
        raise — the per-task timeout must catch it."""
        install_fault_plan(FaultPlan(
            [FaultRule("worker.task", "crash", rate=1.0)], seed=1,
        ), export_env=True)
        nets = [small_net(seed) for seed in (1, 2, 3)]
        started = time.monotonic()
        with SolverPool(
            library, jobs=2, task_timeout=1.0, max_retries=1,
        ) as pool:
            results = pool.solve(nets)
        stats = supervisor_events()
        clear_fault_plan()
        assert time.monotonic() - started < 30.0
        for result, reference in zip(results, self.refs(nets, library)):
            assert_identical(result, reference)
        assert stats["fallbacks"] == 1
        assert stats["respawns"] == 1

    def test_worker_task_hang_detected_and_degraded(self, library):
        install_fault_plan(FaultPlan(
            [FaultRule("worker.task", "hang", seconds=20.0)], seed=1,
        ), export_env=True)
        nets = [small_net(seed) for seed in (1, 2, 3)]
        started = time.monotonic()
        with SolverPool(
            library, jobs=2, task_timeout=0.5, max_retries=0,
        ) as pool:
            results = pool.solve(nets)
        stats = supervisor_events()
        clear_fault_plan()
        assert time.monotonic() - started < 15.0
        for result, reference in zip(results, self.refs(nets, library)):
            assert_identical(result, reference)
        assert stats["fallbacks"] == 1

    def test_transient_retry_recovers_without_fallback(self, library):
        install_fault_plan(FaultPlan(
            [FaultRule("batch.dispatch", "error", rate=1.0, limit=1)],
            seed=1,
        ), export_env=True)
        nets = [small_net(seed) for seed in (1, 2, 3)]
        with SolverPool(library, jobs=2, max_retries=2) as pool:
            results = pool.solve(nets)
        stats = supervisor_events()
        clear_fault_plan()
        for result, reference in zip(results, self.refs(nets, library)):
            assert_identical(result, reference)
        assert stats["retries"] == 1
        assert "fallbacks" not in stats

    def test_batch_group_fault_degrades_bit_identically(self, library):
        pytest.importorskip("numpy")
        from repro.experiments.workloads import corner_variants

        install_fault_plan(FaultPlan(
            [FaultRule("batch.group", "error", rate=1.0, limit=1)], seed=1))
        trees = [tree for _, tree in corner_variants(small_net(), 3)]
        with SolverPool(library, jobs=1, backend="soa") as pool:
            results = pool.solve(trees)
        degraded = process_counts("repro_degraded_units_total", "path")
        references = [
            insert_buffers(tree, library, backend="soa") for tree in trees
        ]
        for result, reference in zip(results, references):
            assert_identical(result, reference)
        assert degraded["batch_group"] >= 1
        assert breaker_events("batch_axis")["failure"] >= 1

    def test_partitioned_dispatch_fault_degrades_bit_identically(
        self, library
    ):
        install_fault_plan(FaultPlan(
            [FaultRule("parallel.dispatch", "error", rate=1.0)], seed=1,
        ), export_env=True)
        net = partitionable_net()
        with SolverPool(
            library, jobs=2, parallel_threshold=0, task_timeout=5.0,
        ) as pool:
            result = pool.solve([net])[0]
        degraded = process_counts("repro_degraded_units_total", "path")
        clear_fault_plan()
        assert_identical(result, insert_buffers(net, library))
        assert degraded["partitioned"] >= 1

    def test_worker_partition_crash_raises_typed_error(self, library):
        """Satellite regression: an os._exit worker during a transient
        partitioned dispatch surfaces as WorkerCrashError with the
        in-flight cut ids — not a hang, not a bare BrokenProcessPool."""
        install_fault_plan(FaultPlan(
            [FaultRule("worker.partition", "crash", rate=1.0)], seed=1,
        ), export_env=True)
        compiled = compile_net(partitionable_net(), library)
        plan = plan_partitions(compiled, 2, min_instructions=16)
        assert plan.viable, plan.reason
        started = time.monotonic()
        with pytest.raises(WorkerCrashError) as info:
            solve_partitioned(compiled, library, jobs=2, plan=plan)
        clear_fault_plan()
        assert time.monotonic() - started < 30.0
        assert info.value.cuts, "the error must carry the in-flight cuts"
        assert "worker pool broke" in str(info.value)

    def test_breaker_opens_and_reroutes_after_group_failures(self, library):
        """Three failing group solves trip the axis (the board's
        default threshold)."""
        pytest.importorskip("numpy")
        from repro.experiments.workloads import corner_variants

        install_fault_plan(FaultPlan(
            [FaultRule("batch.group", "error", rate=1.0)], seed=1))
        trees = [tree for _, tree in corner_variants(small_net(), 3)]
        references = [
            insert_buffers(tree, library, backend="soa") for tree in trees
        ]
        with SolverPool(library, jobs=1, backend="soa") as pool:
            first = [pool.solve(trees) for _ in range(3)]
            assert pool.breakers.breaker("batch_axis").state == "open"
            # Tripped axis: groups are no longer formed, the scalar
            # path answers — and the fault site is never reached.
            second = pool.solve(trees)
        fired_after_trip = process_counts(
            "repro_degraded_units_total", "path")
        for results in first + [second]:
            for result, reference in zip(results, references):
                assert_identical(result, reference)
        assert fired_after_trip["batch_group"] == 3


class TestDeadlineErrorMapping:
    def test_workers_do_not_inherit_ambient_deadline(self, library):
        """Regression: under the fork start method, a pool whose workers
        fork while the dispatching thread holds a deadline_scope copied
        the thread-local into the children — and once that budget
        expired, every later request (with no deadline of its own) died
        on the stale copy inside the workers."""
        import time as _time

        nets = [small_net(seed) for seed in (1, 2)]
        references = [insert_buffers(net, library) for net in nets]
        with SolverPool(library, jobs=2) as pool:
            with deadline_scope(Deadline(1.0)):
                pool.solve(nets)  # workers fork inside the live scope
            _time.sleep(1.1)  # any leaked copy is now expired
            # No deadline anywhere in the parent: if the workers kept
            # the forked copy, this solve dies at dp.schedule.
            results = pool.solve(nets)
        for result, reference in zip(results, references):
            assert_identical(result, reference)

    def test_typed_errors_survive_pickling(self):
        """Regression: default Exception pickling replays args (the
        formatted message) into __init__, so a DeadlineExceeded raised
        in a worker came back doubly wrapped and without its fields."""
        import pickle

        errors = [
            DeadlineExceeded("dp.schedule", 0.25),
            WorkerCrashError("worker pool broke", cuts=(3, 7)),
            WorkerHangError("dispatch exceeded 0.50s"),
            FaultInjectedError("worker.task"),
        ]
        for error in errors:
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)
        assert pickle.loads(pickle.dumps(errors[0])).budget == 0.25
        assert pickle.loads(pickle.dumps(errors[1])).cuts == (3, 7)
        assert pickle.loads(pickle.dumps(errors[3])).site == "worker.task"

    def test_worker_crash_error_fields(self):
        error = WorkerCrashError("pool broke", cuts=(3, 7))
        assert error.cuts == (3, 7)
        assert isinstance(WorkerHangError("stuck"), WorkerCrashError)

    def test_deadline_exceeded_fields(self):
        error = DeadlineExceeded("batch.dispatch", 0.25)
        assert error.site == "batch.dispatch"
        assert error.budget == pytest.approx(0.25)
        assert "250.0 ms" in str(error)
