"""End-to-end serving-layer tests.

A real :class:`~repro.service.server.BufferServer` on an ephemeral port
(``port=0``), driven through the real
:class:`~repro.service.client.ServiceClient` over real sockets.  The
headline assertion is the caching contract: a repeated ``/solve``
request is answered from cache — the hit counter moves, the
worker-dispatch counter does not — with a solution bit-identical to the
in-process :func:`repro.core.api.insert_buffers` result.
"""

import asyncio
import json
import threading
import time
from pathlib import Path

import pytest

from helpers import (
    SLACK_ATOL,
    inverter_repro,
    malformed_requests,
    random_small_tree,
    relabeled,
    run_fresh_python,
)
from repro import Driver, insert_buffers, paper_library, random_tree_net
from repro.core.batch import SolverPool
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import BufferServer
from repro.timing.buffered import evaluate_assignment
from repro.tree.io import tree_to_dict
from repro.tree.routing_tree import RoutingTree
from repro.units import ps

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

#: The store a session or a long-lane group routes to: soa with NumPy.
SOA = "soa" if numpy is not None else "object"

#: ``/solve`` answers recorded before the server read nets as records:
#: nets with int, string and mixed ids, each sent twice (miss, hit).
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "solve_golden.json").read_text()
)


class ServerHarness:
    """A BufferServer running on a daemon thread's event loop."""

    def __init__(self, **kwargs) -> None:
        self.server = BufferServer(port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "server did not start"
        self.client = ServiceClient(port=self.server.port, timeout=30.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def shutdown(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture()
def harness():
    h = ServerHarness(jobs=1, cache_size=64)
    try:
        yield h
    finally:
        h.shutdown()


@pytest.fixture()
def net():
    return random_tree_net(
        8, seed=11, required_arrival=(ps(500.0), ps(2000.0)),
        driver=Driver(resistance=200.0),
    )


@pytest.fixture()
def library():
    return paper_library(4)


class TestEndpoints:
    def test_healthz(self, harness):
        import repro

        answer = harness.client.healthz()
        assert answer["status"] == "ok"
        assert answer["version"] == repro.__version__
        assert answer["jobs"] == 1

    def test_unknown_path_is_404(self, harness):
        with pytest.raises(ServiceError, match="404"):
            harness.client._request("GET", "/nope")

    def test_wrong_method_is_405(self, harness):
        with pytest.raises(ServiceError, match="405"):
            harness.client._request("GET", "/solve")

    def test_bad_json_is_400(self, harness):
        import http.client
        import json

        connection = http.client.HTTPConnection(
            harness.client.host, harness.client.port, timeout=10.0)
        connection.request("POST", "/solve", body="{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_unknown_algorithm_is_400(self, harness, net, library):
        with pytest.raises(ServiceError, match="unknown algorithm"):
            harness.client.solve(net, library, algorithm="nope")

    def test_invalid_net_is_400(self, harness, library):
        with pytest.raises(ServiceError, match="invalid net"):
            harness.client.solve({"format_version": 99}, library)

    def test_empty_batch_is_400(self, harness, library):
        with pytest.raises(ServiceError, match="at least one"):
            harness.client.solve_batch([], library)


class TestSolveAndCache:
    def test_solve_matches_in_process_bit_for_bit(self, harness, net, library):
        expected = insert_buffers(net, library)
        answer = harness.client.solve(net, library)
        assert answer["cached"] is False
        assert answer["slack_seconds"] == expected.slack  # bit-identical
        assert answer["driver_load_farads"] == expected.driver_load
        assert answer["num_buffers"] == expected.num_buffers
        assert answer["assignment"] == {
            str(node_id): buffer.name
            for node_id, buffer in expected.assignment.items()
        }

    def test_repeat_request_is_served_from_cache(self, harness, net, library):
        first = harness.client.solve(net, library)
        before = harness.client.stats()
        second = harness.client.solve(net, library)
        after = harness.client.stats()

        assert second["cached"] is True
        # Bit-identical answer (the identical JSON text, in fact).
        for field in ("slack_seconds", "driver_load_farads", "assignment",
                      "key", "num_buffers"):
            assert second[field] == first[field]
        # The hit registered and no new work reached the pool.
        assert (after["cache"]["hits"] == before["cache"]["hits"] + 1)
        assert (after["counters"]["worker_dispatches"]
                == before["counters"]["worker_dispatches"])
        assert (after["counters"]["nets_solved"]
                == before["counters"]["nets_solved"])

    def test_renamed_reordered_net_hits_the_same_entry(self, harness, net, library):
        first = harness.client.solve(net, library)
        twin = relabeled(net, rename=True, reverse_children=True)
        answer = harness.client.solve(twin, library)
        assert answer["cached"] is True
        assert answer["key"] == first["key"]
        assert answer["slack_seconds"] == first["slack_seconds"]
        # The assignment is expressed in the twin's node ids and is a
        # valid optimal buffering of the twin per the timing oracle.
        assignment = {
            int(node_id): library.get(name)
            for node_id, name in answer["assignment"].items()
        }
        report = evaluate_assignment(twin, assignment)
        assert report.slack == pytest.approx(
            first["slack_seconds"], abs=SLACK_ATOL)

    def test_distinct_requests_do_not_collide(self, harness, net, library):
        harness.client.solve(net, library)
        other = harness.client.solve(net, library, algorithm="lillis")
        assert other["cached"] is False
        assert other["algorithm"] == "lillis"
        richer = harness.client.solve(net, paper_library(6))
        assert richer["cached"] is False

    def test_same_structure_different_driver_is_solved_fresh(
        self, harness, net, library
    ):
        # The driver is part of the request key, and a CompiledNet
        # embeds the driver it was compiled with: a miss must solve
        # with its own driver, never an equal structure's old one
        # (which would also poison the new request's cache entry).
        first = harness.client.solve(net, library)
        weak = tree_to_dict(net)
        weak["driver"]["resistance"] = 9000.0
        answer = harness.client.solve(weak, library)
        assert answer["cached"] is False
        from repro.tree.io import tree_from_dict

        expected = insert_buffers(tree_from_dict(weak), library)
        assert answer["slack_seconds"] == expected.slack
        assert answer["slack_seconds"] != first["slack_seconds"]

    def test_solve_accepts_plain_dict_payloads(self, harness, net, library):
        answer = harness.client.solve(tree_to_dict(net), library)
        assert answer["num_buffers"] >= 1


class TestAutoRouting:
    """``backend: "auto"`` (the default) picks the store per request."""

    def test_small_net_solves_on_object(self, harness, net, library):
        answer = harness.client.solve(net, library)
        assert answer["backend"] == "object"
        assert harness.client.stats()["solves_by_backend"] == {"object": 1}
        # A pool with worker processes routes "auto" the same way.
        workers = ServerHarness(jobs=2, cache_size=64)
        try:
            assert workers.client.solve(net, library)["backend"] == "object"
            stats = workers.client.stats()
            assert stats["solves_by_backend"] == {"object": 1}
            assert stats["pools"][0]["backend"] == "auto"
        finally:
            workers.shutdown()

    def test_fig4_trunk_solves_on_object(self, harness):
        """One net solves on object at any size, and a session on the
        same trunk resolves on object too."""
        from repro.experiments.workloads import FIG4_NET, build_net

        library = paper_library(32)
        trunk = build_net(FIG4_NET, positions_override=500)
        answer = harness.client.solve(trunk, library)
        assert answer["backend"] == "object"
        expected = insert_buffers(trunk, library, backend=SOA)
        assert answer["slack_seconds"] == expected.slack
        session = harness.client.create_session(trunk, library)
        assert session.info["backend"] == "object"
        session.delete()

    def test_table1_session_runs_on_object(self, harness):
        from repro.experiments.workloads import TABLE1_NETS, build_net

        session = harness.client.create_session(
            build_net(TABLE1_NETS[0]), paper_library(16)
        )
        assert session.info["backend"] == "object"
        session.delete()

    def test_cached_auto_answer_never_answers_another_store(
        self, harness, library
    ):
        """An "auto" answer routed to object must not be served to a
        later explicit "soa" request as if soa had computed it."""
        from repro.tree.io import library_to_dict

        body = {
            "net": tree_to_dict(random_tree_net(8, seed=11)),
            "library": library_to_dict(library),
            "backend": "auto",
        }
        first = harness.client._request("POST", "/solve", body)
        assert first["backend"] == "object"
        second = harness.client._request(
            "POST", "/solve", dict(body, backend=SOA)
        )
        assert second["cached"] is False
        assert second["backend"] == SOA
        assert second["slack_seconds"] == first["slack_seconds"]
        again = harness.client._request(
            "POST", "/solve", dict(body, backend=SOA)
        )
        assert again["cached"] is True and again["backend"] == SOA


    def test_session_counts_on_the_one_router(self, harness, library):
        """A /session is routed, and counted, by the process-wide
        router, and splices on object, the one store that splices."""
        from repro.tree.io import library_to_dict

        body = {
            "net": tree_to_dict(random_tree_net(8, seed=11)),
            "library": library_to_dict(library),
        }
        answer = harness.client._request("POST", "/solve", body)
        assert answer["backend"] == "object"
        session = harness.client._request("POST", "/session", body)
        assert session["backend"] == "object"
        assert harness.client.stats()["routing"]["decisions_by_strategy"] == {
            "object-compiled": 1, "object-splice": 1,
        }
        harness.client._request("DELETE", f"/session/{session['session']}")

    def test_a_policy_field_opens_no_second_pool(self, harness, library):
        """A /solve with ``"policy"`` is refused before it reaches a
        pool, so it never warms a second pool beside the one a /solve
        without it uses: one context, one pool."""
        from repro.tree.io import library_to_dict

        body = {
            "net": tree_to_dict(random_tree_net(8, seed=11)),
            "library": library_to_dict(library),
        }
        assert harness.client._request("POST", "/solve", body)
        for policy in ("static", "never_batch"):
            status, _ = harness.client._request_text(
                "POST", "/solve", dict(body, policy=policy))
            assert status == 400
        assert harness.client._request(
            "POST", "/solve", body)["cached"] is True
        assert len(harness.client.stats()["pools"]) == 1

    @pytest.mark.parametrize("store", ["soa", "mmap"])
    def test_session_on_another_store_is_400(self, harness, library, store):
        """Sessions splice on object only: asking for another store is
        a 400 that opens no session, never a silent object session."""
        from repro.tree.io import library_to_dict

        body = {
            "net": tree_to_dict(random_tree_net(8, seed=11)),
            "library": library_to_dict(library),
            "backend": store,
        }
        live = harness.client.stats()["incremental"]["sessions"]["live"]
        status, text = harness.client._request_text("POST", "/session", body)
        assert status == 400
        assert "backend" in json.loads(text)["error"]
        stats = harness.client.stats()
        assert stats["incremental"]["sessions"]["live"] == live

    @pytest.mark.parametrize(
        "policy", ["model", "always_splice", "always_scratch", "fastest"]
    )
    def test_unknown_policy_is_400(self, harness, net, library, policy):
        """Any ``policy`` field is refused: routing has one rule."""
        from repro.tree.io import library_to_dict

        body = {
            "net": tree_to_dict(net),
            "library": library_to_dict(library),
            "policy": policy,
        }
        for path in ("/solve", "/session"):
            status, text = harness.client._request_text("POST", path, body)
            assert status == 400
            assert POLICY_REFUSAL in json.loads(text)["error"]


class TestBatch:
    def test_batch_solves_in_order_and_dedupes(self, harness, library):
        nets = [random_small_tree(seed) for seed in (1, 2, 3)]
        expected = [insert_buffers(tree, library) for tree in nets]
        # Duplicate net 0: within one batch it must be solved once.
        answers = harness.client.solve_batch(
            [nets[0], nets[1], nets[2], nets[0]], library)
        assert [a["slack_seconds"] for a in answers] == [
            expected[0].slack, expected[1].slack, expected[2].slack,
            expected[0].slack,
        ]
        stats = harness.client.stats()
        assert stats["counters"]["nets_solved"] == 3
        assert stats["counters"]["worker_dispatches"] == 1

    def test_batch_mixes_hits_and_misses(self, harness, library):
        nets = [random_small_tree(seed) for seed in (4, 5)]
        harness.client.solve(nets[0], library)
        answers = harness.client.solve_batch(nets, library)
        assert [a["cached"] for a in answers] == [True, False]
        again = harness.client.solve_batch(nets, library)
        assert [a["cached"] for a in again] == [True, True]


#: An "auto" ``/batch`` of corner lanes long enough to batch, in a
#: fresh interpreter whose NumPy is found but fails to import.
_BROKEN_NUMPY_BATCH = """
import asyncio, json
from repro import insert_buffers, paper_library
from repro.core.stores import numpy_installed
from repro.experiments.workloads import FIG4_NET, build_net, corner_variants
from repro.service.server import BufferServer
from repro.tree.io import library_to_dict, tree_to_dict

assert numpy_installed()
library = paper_library(32)
lanes = [variant for _, variant in corner_variants(
    build_net(FIG4_NET, positions_override=500), 4)]
body = {"nets": [tree_to_dict(net) for net in lanes],
        "library": library_to_dict(library)}
server = BufferServer()
status, payload = asyncio.run(
    server._dispatch("POST", "/batch", json.dumps(body).encode()))
assert status == 200, payload
for net, answer in zip(lanes, payload["results"]):
    expected = insert_buffers(net, library, backend="object")
    assert answer["backend"] == "object"
    assert answer["slack_seconds"] == expected.slack
    assert answer["driver_load_farads"] == expected.driver_load
    assert answer["assignment"] == {
        str(node): buffer.name for node, buffer in expected.assignment.items()
    }
(entry,) = server._pools.values()
stats = entry.pool.batch_axis_stats()
assert stats["enabled"] is False, stats
assert (stats["groups"], stats["scalar_solves"]) == (0, 4), stats
status, payload = asyncio.run(server._dispatch("GET", "/stats", b""))
assert payload["batch_axis"]["pools_enabled"] == 0, payload["batch_axis"]
routing = payload["routing"]["decisions_by_strategy"]
assert routing == {"object-compiled": 4}, routing
print("degraded")
"""


class TestLaneGroups:
    """A ``/batch`` of lanes above both :func:`static_store` floors
    (4 R/C corners of a 500-position Figure 4 trunk at b = 32) is
    where an ``"auto"`` server first loads NumPy: the lane engine
    imports when the group is dispatched onto the batch axis."""

    @pytest.mark.skipif(numpy is None, reason="the batch axis needs NumPy")
    def test_long_lanes_ride_the_batch_axis(self, harness):
        from repro.experiments.workloads import (
            FIG4_NET,
            build_net,
            corner_variants,
        )

        library = paper_library(32)
        lanes = [variant for _, variant in corner_variants(
            build_net(FIG4_NET, positions_override=500), 4)]
        answers = harness.client.solve_batch(lanes, library)
        block = harness.client.stats()["batch_axis"]
        assert (block["groups"], block["batched_solves"]) == (1, 4)
        for net, answer in zip(lanes, answers):
            expected = insert_buffers(net, library, backend="object")
            assert answer["backend"] == "soa"
            assert answer["slack_seconds"] == expected.slack
            assert answer["driver_load_farads"] == expected.driver_load
            assert answer["assignment"] == {
                str(node_id): buffer.name
                for node_id, buffer in expected.assignment.items()
            }

    def test_broken_numpy_solves_the_lanes_one_by_one(self, tmp_path):
        """NumPy that is found but fails to import: the pool turns its
        batch axis off and answers every lane on the per-net path, bit
        for bit, instead of failing the request."""
        stub = tmp_path / "numpy"
        stub.mkdir()
        (stub / "__init__.py").write_text(
            'raise ImportError("a broken NumPy install")\n'
        )
        proc = run_fresh_python(_BROKEN_NUMPY_BATCH, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "degraded"


class TestStats:
    def test_stats_shape(self, harness, net, library):
        harness.client.solve(net, library)
        stats = harness.client.stats()
        assert stats["counters"]["solve_requests"] == 1
        assert stats["cache"]["size"] == 1
        # Deprecated block: no compiled net is kept, so it only counts
        # compiles (as misses).
        assert stats["compiled_cache"] == {
            "hits": 0, "misses": 1, "evictions": 0, "expirations": 0,
            "size": 0, "maxsize": 0, "ttl_seconds": None, "hit_rate": 0.0,
            "payload_bytes": 0,
        }
        # An inline "auto" pool routes every net's store: its pinned
        # store is "auto", and the answers say which one ran.
        assert stats["pools"] == [{
            "algorithm": "fast",
            "backend": "auto",
            "jobs": 1,
            "library_size": 4,
            "in_flight": 0,
        }]

    def test_stats_kernel_health(self, harness, net, library):
        """Per-backend solve counters.  No compiled net outlives its
        request, so there are no warm per-net factories to report."""
        harness.client.solve(net, library, backend=SOA)
        # cache hit: no new solve
        harness.client.solve(net, library, backend=SOA)
        stats = harness.client.stats()
        assert stats["solves_by_backend"] == {SOA: 1}
        assert "kernels" not in stats

    def test_stats_batch_axis_block(self, harness, library):
        """A multi-corner /batch on the soa store forms one lane group,
        visible in /stats, and every lane's answer matches the
        in-process solve.  (Under "auto" these small lanes would solve
        one by one on object.)"""
        from repro.experiments.workloads import corner_variants

        tree = random_small_tree(7)
        nets = [variant for _, variant in corner_variants(tree, 4)]
        answers = harness.client.solve_batch(nets, library, backend=SOA)
        for net, answer in zip(nets, answers):
            expected = insert_buffers(net, library)
            assert answer["slack_seconds"] == expected.slack

        block = harness.client.stats()["batch_axis"]
        assert set(block) == {
            "pools_enabled", "groups", "lanes_histogram",
            "batched_solves", "scalar_solves", "arena_pooled_bytes",
        }
        if numpy is not None:
            assert block["pools_enabled"] == 1
            assert block["groups"] == 1
            assert block["batched_solves"] == 4
            assert block["scalar_solves"] == 0
            assert block["lanes_histogram"] == {"4": 1}


class TestTTLIntegration:
    def test_expired_entry_is_resolved(self, net, library):
        harness = ServerHarness(jobs=1, cache_size=64, cache_ttl=0.05)
        try:
            harness.client.solve(net, library)
            time.sleep(0.1)
            answer = harness.client.solve(net, library)
            assert answer["cached"] is False
        finally:
            harness.shutdown()


class TestServeEntryPoint:
    def test_cli_serve_validation(self, capsys):
        from repro.cli import main

        assert main(["serve", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["serve", "--cache-size", "0"]) == 2
        assert "--cache-size" in capsys.readouterr().err
        assert main(["serve", "--cache-ttl", "-1"]) == 2
        assert "--cache-ttl" in capsys.readouterr().err

    def test_serve_function_runs_and_stops(self):
        """The CLI's engine: boot on an ephemeral port, probe, stop."""
        from repro.service.server import serve

        holder = {}
        done = threading.Event()

        def ready(server):
            holder["server"] = server
            holder["loop"] = asyncio.get_event_loop()
            done.set()

        thread = threading.Thread(
            target=lambda: serve(port=0, ready=ready), daemon=True)
        thread.start()
        assert done.wait(10)
        client = ServiceClient(port=holder["server"].port, timeout=10.0)
        assert client.healthz()["status"] == "ok"
        # stop() cancels serve_forever; serve() treats that as a clean
        # shutdown and returns, ending the thread.
        asyncio.run_coroutine_threadsafe(
            holder["server"].stop(), holder["loop"]).result(10)
        thread.join(10)
        assert not thread.is_alive()


class TestSessions:
    """The stateful /session endpoints: the incremental ECO surface."""

    def test_create_edit_resolve_matches_solve(self, harness, net, library):
        session = harness.client.create_session(net, library)
        assert session.info["num_nodes"] == net.num_nodes
        baseline = session.resolve()
        expected = harness.client.solve(net, library)
        assert baseline["slack_seconds"] == expected["slack_seconds"]
        assert baseline["assignment"] == expected["assignment"]
        assert baseline["incremental"]["executed_fraction"] == 1.0

        # Edit one sink, re-solve, and compare against /solve of the
        # identically edited net — bit-identical through the cache-less
        # incremental path.
        sink = net.sinks()[0]
        session.edit({"op": "set_sink_rat", "node": sink.node_id,
                      "required_arrival": sink.required_arrival * 0.75})
        updated = session.resolve()
        import copy

        edited = copy.deepcopy(net)
        edited.set_sink(sink.node_id,
                        required_arrival=sink.required_arrival * 0.75)
        expected = harness.client.solve(edited, library)
        assert updated["slack_seconds"] == expected["slack_seconds"]
        assert updated["assignment"] == expected["assignment"]
        assert updated["incremental"]["executed_fraction"] < 1.0
        session.delete()

    def test_typed_edits_and_created_labels(self, harness, net, library):
        from repro.incremental import AddSink, SetWire

        session = harness.client.create_session(net, library)
        internal = net.children_of(net.root_id)[0]
        answer = session.edit(
            AddSink(parent=internal, edge_resistance=2.0,
                    edge_capacitance=2e-15, capacitance=8e-15,
                    required_arrival=9e-10),
        )
        assert answer["applied"] == 1
        assert len(answer["created"]) == 1
        created = answer["created"][0]
        assert answer["num_nodes"] == net.num_nodes + 1
        # The fresh label addresses the new node in later edits.
        session.edit({"op": "set_sink_rat", "node": created,
                      "required_arrival": 8e-10})
        resolved = session.resolve()
        assert resolved["num_buffers"] >= 0
        edge = net.edge_to(internal)
        session.edit(SetWire(node=internal, resistance=edge.resistance * 2.0,
                             capacitance=edge.capacitance))
        assert session.resolve()["session"] == session.session_id
        session.delete()

    def test_unknown_node_id_is_400(self, harness, net, library):
        session = harness.client.create_session(net, library)
        with pytest.raises(ServiceError, match="unknown node id"):
            session.edit({"op": "set_sink_rat", "node": 10_000,
                          "required_arrival": 1e-9})
        session.delete()

    def test_invalid_edit_is_400(self, harness, net, library):
        session = harness.client.create_session(net, library)
        with pytest.raises(ServiceError, match="unknown edit op"):
            session.edit({"op": "teleport", "node": 1})
        with pytest.raises(ServiceError, match="not a sink"):
            session.edit({"op": "set_sink_rat", "node": net.root_id,
                          "required_arrival": 1e-9})
        session.delete()

    def test_delete_then_use_is_rejected(self, harness, net, library):
        session = harness.client.create_session(net, library)
        assert session.delete()["deleted"] is True
        with pytest.raises(ServiceError, match="unknown or expired"):
            session.resolve()
        with pytest.raises(ServiceError, match="unknown or expired"):
            session.delete()

    def test_session_expiry(self, net, library):
        harness = ServerHarness(jobs=1, session_ttl=0.05)
        try:
            session = harness.client.create_session(net, library)
            session.resolve()
            time.sleep(0.12)
            with pytest.raises(ServiceError, match="unknown or expired"):
                session.resolve()
            stats = harness.client.stats()
            assert stats["incremental"]["sessions"]["expired"] >= 1
        finally:
            harness.shutdown()

    def test_session_eviction_bound(self, net, library):
        harness = ServerHarness(jobs=1, max_sessions=2)
        try:
            sessions = [
                harness.client.create_session(net, library)
                for _ in range(3)
            ]
            stats = harness.client.stats()["incremental"]["sessions"]
            assert stats["live"] == 2
            assert stats["evicted"] == 1
            with pytest.raises(ServiceError, match="unknown or expired"):
                sessions[0].resolve()  # the LRU one was evicted
        finally:
            harness.shutdown()

    def test_delete_and_eviction_free_frontiers(self, harness, net, library):
        session = harness.client.create_session(net, library)
        session.resolve()
        sink = net.sinks()[0]
        session.edit({"op": "set_sink_cap", "node": sink.node_id,
                      "capacitance": sink.capacitance * 1.5})
        session.resolve()
        cache = harness.client.stats()["incremental"]["frontier_cache"]
        assert cache["entries"] > 0 and cache["held"] > 0
        # A reference that outlives the DELETE, as a request still in
        # flight would hold one: the frontiers must go all the same.
        live = harness.server.sessions.get(session.info["session"])
        session.delete()
        cache = harness.client.stats()["incremental"]["frontier_cache"]
        assert (cache["entries"], cache["held"]) == (0, 0)
        assert cache["released"] > 0
        assert live.solver.capture is False

        # An LRU-evicted session lets go of its frontiers as well.
        single = ServerHarness(jobs=1, max_sessions=1)
        try:
            first = single.client.create_session(net, library)
            first.resolve()
            cache = single.client.stats()["incremental"]["frontier_cache"]
            assert cache["held"] > 0
            single.client.create_session(net, library)
            stats = single.client.stats()["incremental"]
            assert stats["sessions"]["evicted"] == 1
            cache = stats["frontier_cache"]
            assert (cache["entries"], cache["held"]) == (0, 0)
        finally:
            single.shutdown()

    def test_stats_incremental_block(self, harness, net, library):
        session = harness.client.create_session(net, library)
        session.resolve()
        sink = net.sinks()[0]
        session.edit({"op": "set_sink_cap", "node": sink.node_id,
                      "capacitance": sink.capacitance * 1.5})
        session.resolve()
        stats = harness.client.stats()["incremental"]
        cache = stats["frontier_cache"]
        assert cache["entries"] > 0
        assert cache["bytes"] > 0
        assert cache["hits"] + cache["misses"] > 0
        sessions = stats["sessions"]
        assert sessions["live"] == 1
        assert sessions["created"] == 1
        assert sessions["resident_bytes"] > 0
        assert stats["resolves"] == 2
        assert stats["edits"] == 1
        assert 0.0 < stats["last_executed_fraction"] < 1.0
        assert 0.0 < stats["mean_executed_fraction"] <= 1.0
        session.delete()


class TestInverterInputs:
    """Inputs the served solvers would answer in the wrong phase: a
    negative-phase sink or an inverting type is a 422, never an answer
    (and never cached); the in-process polarity DP solves them."""

    def test_solve_and_batch_reject_the_repro(self, harness):
        net, plain, library = inverter_repro()
        sink = net.sinks()[0].node_id
        with pytest.raises(ServiceError, match="422") as info:
            harness.client.solve(net, library)
        assert "inverting types ['INV']" in str(info.value)
        for _ in range(2):  # never cached: a repeat is rejected too
            with pytest.raises(ServiceError, match="422") as info:
                harness.client.solve(net, plain)
            assert f"negative-phase sinks [{sink}]" in str(info.value)
        stats = harness.client.stats()
        assert stats["cache"]["size"] == 0
        assert stats["compiled_cache"]["misses"] == 0  # nothing compiled
        with pytest.raises(ServiceError, match="422") as info:
            harness.client.solve_batch([random_small_tree(3), net], plain)
        assert "net at index 1" in str(info.value)
        stats = harness.client.stats()
        assert stats["cache"]["size"] == 0
        assert stats["counters"]["worker_dispatches"] == 0
        # The refused batch compiled nothing, not even its valid net 0:
        # nets compile only once the whole request has been checked.
        assert stats["compiled_cache"]["misses"] == 0

    def test_sessions_reject_phase_inputs(self, harness):
        net, plain, library = inverter_repro()
        sink = net.sinks()[0].node_id
        with pytest.raises(ServiceError, match="422") as info:
            harness.client.create_session(net, plain)
        assert f"negative-phase sinks [{sink}]" in str(info.value)
        net.set_sink(sink, polarity=1)
        with pytest.raises(ServiceError, match="422") as info:
            harness.client.create_session(net, library)
        assert "'INV'" in str(info.value)
        assert harness.client.stats()["incremental"]["sessions"]["live"] == 0

    def test_negative_phase_edits_apply_nothing(self, harness):
        net, plain, _ = inverter_repro()
        sink = net.sinks()[0].node_id
        net.set_sink(sink, polarity=1)
        session = harness.client.create_session(net, plain)
        before = session.resolve()
        parent = net.edge_to(sink).parent
        for edit in (
            {"op": "set_sink_polarity", "node": sink, "polarity": -1},
            {"op": "add_sink", "parent": parent, "edge_resistance": 2.0,
             "edge_capacitance": 2e-15, "capacitance": 8e-15,
             "required_arrival": 9e-10, "polarity": -1},
        ):
            valid = {"op": "set_sink_rat", "node": sink,
                     "required_arrival": ps(100.0)}
            with pytest.raises(ServiceError, match="422") as info:
                session.edit(valid, edit)
            assert "edits[1]" in str(info.value)
            assert "no edit of this batch was applied" in str(info.value)
        after = session.resolve()
        assert after["slack_seconds"] == before["slack_seconds"]
        assert after["incremental"]["edits_applied"] == 0
        session.delete()


class TestResilienceServing:
    """Server hardening: deadlines, limits, shedding, integrity, drain."""

    def test_deep_healthz_reports_internals(self, harness, net, library):
        harness.client.solve(net, library)
        shallow = harness.client.healthz()
        assert "workers" not in shallow
        deep = harness.client.healthz(deep=True)
        assert deep["status"] == "ok"
        worker = deep["workers"][0]
        assert worker["pool_created"] in (True, False)
        assert worker["jobs"] == 1
        assert worker["in_flight"] == 0
        assert set(deep["breakers"]) == {"parallel", "batch_axis"}
        admission = deep["admission"]
        assert admission["max_inflight"] == 8
        # The healthz request itself is the one in flight.
        assert admission["in_flight_requests"] == 1
        pressure = deep["cache_pressure"]
        assert pressure["results_size"] == 1
        assert pressure["integrity_failures"] == 0

    def test_deadline_ms_maps_to_504(self, harness, library):
        big = random_tree_net(
            64, seed=3, required_arrival=(ps(500.0), ps(2000.0)),
            driver=Driver(resistance=200.0),
        )
        with pytest.raises(ServiceError, match="504") as info:
            harness.client.solve(big, paper_library(8), deadline_ms=1e-4)
        assert "deadline" in str(info.value)
        stats = harness.client.stats()
        assert stats["resilience"]["server"]["deadline_hits"] == 1

    def test_invalid_deadline_ms_is_400(self, harness, net, library):
        with pytest.raises(ServiceError, match="400"):
            harness.client.solve(net, library, deadline_ms=-5)
        with pytest.raises(ServiceError, match="400"):
            harness.client.solve(net, library, deadline_ms="soon")

    def test_generous_deadline_is_bit_identical(self, harness, net, library):
        expected = insert_buffers(net, library)
        answer = harness.client.solve(net, library, deadline_ms=300_000)
        assert answer["slack_seconds"] == expected.slack

    def test_oversized_request_is_413(self, net, library):
        h = ServerHarness(jobs=1, max_request_bytes=200)
        try:
            with pytest.raises(ServiceError, match="413") as info:
                h.client.solve(net, library)
            assert "too large" in str(info.value)
        finally:
            h.shutdown()

    def test_too_many_positions_is_422(self, net, library):
        h = ServerHarness(jobs=1, max_positions=2)
        try:
            with pytest.raises(ServiceError, match="422") as info:
                h.client.solve(net, library)
            assert "buffer positions" in str(info.value)
            stats = h.client.stats()
            assert stats["resilience"]["server"]["rejected_payloads"] == 1
            # Rejected before the result cache is probed.
            assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0
        finally:
            h.shutdown()

    def test_overload_sheds_with_503(self, library, monkeypatch):
        h = ServerHarness(jobs=1, max_inflight=1, max_queue_depth=0)
        solve = SolverPool.solve

        def solve_once_a_request_was_shed(pool, *args, **kwargs):
            # Hold the one admission slot until another request has
            # been shed, so the overlap never rests on solve time.
            give_up = time.monotonic() + 30.0
            while not h.server.counters["sheds"]:
                if time.monotonic() > give_up:
                    break
                time.sleep(0.005)
            return solve(pool, *args, **kwargs)

        monkeypatch.setattr(SolverPool, "solve", solve_once_a_request_was_shed)
        try:
            big = random_tree_net(
                40, seed=5, required_arrival=(ps(500.0), ps(2000.0)),
                driver=Driver(resistance=200.0),
            )
            lib8 = paper_library(8)
            results = []

            def worker():
                try:
                    h.client.solve(big, lib8)
                    results.append(("ok", None))
                except ServiceError as exc:
                    results.append(("err", str(exc)))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert h.server.counters["sheds"] >= 1
            assert any(kind == "ok" for kind, _ in results)
            for kind, message in results:
                if kind == "err":
                    assert "503" in message and "overloaded" in message
        finally:
            h.shutdown()

    def test_corrupted_cache_entry_is_not_served(self, harness, net, library):
        from repro.resilience import (
            FaultPlan, FaultRule, clear_fault_plan, install_fault_plan,
        )

        install_fault_plan(FaultPlan(
            [FaultRule("cache.payload", "corrupt", rate=1.0)], seed=1))
        try:
            first = harness.client.solve(net, library)
            assert first["cached"] is False
            # The stored payload was tampered with after its digest was
            # taken: the repeat must detect the mismatch, drop the
            # entry, and re-solve rather than serve corrupted bits.
            second = harness.client.solve(net, library)
            assert second["cached"] is False
            assert second["slack_seconds"] == first["slack_seconds"]
            assert harness.server.counters["integrity_failures"] >= 1
        finally:
            clear_fault_plan()

    def test_stats_resilience_block(self, harness, net, library):
        harness.client.solve(net, library)
        block = harness.client.stats()["resilience"]
        assert set(block) == {
            "server", "supervisor", "breaker_trips", "breakers",
            "batch_group_fallbacks", "partitioned_fallbacks",
        }
        server = block["server"]
        assert server["sheds"] == 0
        assert server["draining"] is False
        assert server["max_inflight"] == 8
        assert block["supervisor"]["retries"] == 0
        assert block["breakers"]["parallel"]["open"] == 0

    def test_drain_completes_in_flight_and_refuses_new(self, library):
        h = ServerHarness(jobs=1)
        try:
            big = random_tree_net(
                1200, seed=7, required_arrival=(ps(500.0), ps(2000.0)),
                driver=Driver(resistance=200.0),
            )
            result = {}

            def slow_solve():
                try:
                    result["answer"] = h.client.solve(big, paper_library(8))
                except ServiceError as exc:
                    result["error"] = str(exc)

            # An artificial in-flight token holds the drain window open
            # deterministically — a real solve can finish before the
            # mid-drain probes land.
            def hold():
                h.server._active_requests += 1

            h.loop.call_soon_threadsafe(hold)
            thread = threading.Thread(target=slow_solve)
            thread.start()
            time.sleep(0.15)  # let the solve get admitted
            h.server.request_drain()
            time.sleep(0.05)
            # While draining: no new admissions, healthz says so.
            with pytest.raises(ServiceError, match="draining|503"):
                h.client.healthz()
            with pytest.raises(ServiceError, match="draining|503"):
                h.client.solve(big, library)
            thread.join(60)
            # The already-admitted solve completed during the drain.
            assert "answer" in result, result
            assert result["answer"]["num_buffers"] >= 0

            def release():
                h.server._active_requests -= 1

            h.loop.call_soon_threadsafe(release)
            # After the drain the listening socket is closed outright.
            # Until then the server still answers 503 "draining".
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    h.client.healthz()
                except ServiceError as exc:
                    if "cannot reach" in str(exc):
                        break  # refused / reset: socket is down
                time.sleep(0.05)
            else:
                pytest.fail("server kept answering after drain")
            assert h.server.counters["drains"] == 1
        finally:
            h.loop.call_soon_threadsafe(h.loop.stop)
            h.thread.join(10)
            h.loop.close()


class TestPartitionedServing:
    """Large /solve nets route through the partitioned solver."""

    def test_stats_parallel_block_shape(self, harness, net, library):
        harness.client.solve(net, library)
        block = harness.client.stats()["parallel"]
        assert set(block) == {
            "pools_enabled", "parallel_solves", "fallback_solves",
            "partitions_total", "last",
        }
        # jobs=1 harness: routing is off and nothing was partitioned.
        assert block["pools_enabled"] == 0
        assert block["parallel_solves"] == 0

    def test_large_solve_is_partitioned_and_bit_identical(self, library):
        from repro.tree.segmenting import segment_to_position_count

        big = segment_to_position_count(
            random_tree_net(
                32, seed=13, required_arrival=(ps(500.0), ps(2500.0)),
                driver=Driver(resistance=200.0),
            ),
            2500,
        )
        expected = insert_buffers(big, library)
        h = ServerHarness(jobs=2, cache_size=16, parallel_threshold=500)
        try:
            answer = h.client.solve(big, library)
            assert answer["slack_seconds"] == expected.slack
            assert answer["assignment"] == {
                str(node_id): buffer.name
                for node_id, buffer in expected.assignment.items()
            }
            block = h.client.stats()["parallel"]
            assert block["pools_enabled"] == 1
            assert block["parallel_solves"] == 1
            assert block["partitions_total"] >= 2
            last = block["last"]
            assert last["engaged"] is True
            assert last["partitions"] >= 2
            assert last["workers"] == 2
            assert 0.0 < last["coverage"] <= 1.0
            assert last["residual_fraction"] == 1.0 - last["coverage"]
            assert len(last["cut_depths"]) == last["partitions"]
            assert last["pool_utilization"] > 0.0
        finally:
            h.shutdown()


class TestRecordsPath:
    """Each net is read once; neither a hit nor a miss builds a tree."""

    def test_hit_builds_no_tree(self, harness, net, library, monkeypatch):
        twin = tree_to_dict(relabeled(net, rename=True, reverse_children=True))
        others = [tree_to_dict(random_small_tree(seed)) for seed in (5, 6)]
        builds = []
        build = RoutingTree.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(RoutingTree, "__init__", counted)
        first = harness.client.solve(tree_to_dict(net), library)
        assert first["cached"] is False
        answers = harness.client.solve_batch(others, library)
        assert [a["cached"] for a in answers] == [False, False]
        assert builds == []  # misses compile from the records
        answer = harness.client.solve(twin, library)
        assert answer["cached"] is True
        assert answer["key"] == first["key"]
        assert builds == []

    def test_batch_compiles_a_repeated_net_once(self, harness, library):
        """A /batch sending one net twice (once relabeled) compiles and
        solves it once, and both copies answer in their own ids."""
        net = random_small_tree(8)
        twin = relabeled(net, rename=True, reverse_children=True)
        answers = harness.client.solve_batch([net, twin], library)
        assert answers[0]["key"] == answers[1]["key"]
        assert [a["cached"] for a in answers] == [False, False]
        assert answers[0]["slack_seconds"] == (
            insert_buffers(net, library).slack)
        for tree, answer in zip((net, twin), answers):
            assignment = {
                int(node_id): library.get(name)
                for node_id, name in answer["assignment"].items()
            }
            report = evaluate_assignment(tree, assignment)
            assert report.slack == pytest.approx(
                answers[0]["slack_seconds"], abs=SLACK_ATOL)
        stats = harness.client.stats()
        assert stats["compiled_cache"]["misses"] == 1
        assert stats["counters"]["nets_solved"] == 1

    def test_misses_keep_no_compiled_net_or_tree(self, harness, library):
        """After 50 distinct misses no CompiledNet or RoutingTree made
        while serving them is alive: a miss keeps only its payload."""
        import gc

        from repro.core.schedule import CompiledNet

        def alive():
            gc.collect()
            return [
                obj for obj in gc.get_objects()
                if isinstance(obj, (CompiledNet, RoutingTree))
            ]

        bodies = [tree_to_dict(random_small_tree(seed)) for seed in range(50)]
        before = alive()  # held, so no new object can reuse their ids
        known = {id(obj) for obj in before}
        for body in bodies:
            assert harness.client.solve(body, library)["cached"] is False
        assert harness.client.stats()["counters"]["nets_solved"] == 50
        assert [obj for obj in alive() if id(obj) not in known] == []

    @pytest.mark.parametrize(
        "case", GOLDEN["cases"], ids=[case["name"] for case in GOLDEN["cases"]]
    )
    def test_answers_match_the_golden_file(self, harness, case):
        """Miss and hit answers equal the recorded ones in every field
        but the runtime, key order included (mixed int and string ids
        cannot be sorted, so the order is the request's node order)."""

        def pinned(answer):
            stats = dict(answer["stats"])
            del stats["solve_runtime_seconds"]
            return json.dumps(dict(answer, stats=stats))

        body = {"net": case["net"], "library": GOLDEN["library"]}
        for sent in ("miss", "hit"):
            answer = harness.client._request("POST", "/solve", body)
            assert pinned(answer) == pinned(case[sent])


#: The one message every entry point refuses an unknown store with.
UNKNOWN_STORE = (
    "unknown candidate-store backend 'mmap'; choose one of ('object', 'soa')"
)

#: The 400 every endpoint answers a ``"policy"`` field with.
POLICY_REFUSAL = "'policy' is not a request field: routing has one rule"

#: Every surface that takes a store name, and every one that took a
#: routing policy.
STORE_SURFACES = (
    "insert_buffers", "insert_buffers_with_inverters", "run_dynamic_program",
    "SolverPool", "solve_many", "/solve", "/batch", "/session",
    "repro buffer",
)
POLICY_SURFACES = (
    "insert_buffers", "SolverPool", "solve_many", "Router", "request_key",
    "WorkloadLog.record", "replay", "BufferServer", "serve",
    "/solve", "/batch", "/session", "repro serve", "repro replay",
)
#: The one rule's old name, the retired escape hatches and the retired
#: store pins.
POLICY_NAMES = (
    "static", "always_batch", "never_batch", "always_parallel",
    "never_parallel", "always_object", "always_soa",
)


@pytest.mark.parametrize("surface, field, name", [
    *[(surface, "backend", "mmap") for surface in STORE_SURFACES],
    *[(surface, "policy", policy) for surface in POLICY_SURFACES
      for policy in POLICY_NAMES],
])
def test_one_rejection_rule(
    request, net, library, tmp_path, monkeypatch, surface, field, name
):
    """A store is named by ``backend`` alone, and every entry point
    refuses an unknown one the same way: ``AlgorithmError`` with one
    message in process, a 400 that opens no pool or session over HTTP,
    exit 2 from the CLI.  Routing has one rule, so a ``policy`` is
    refused loudly everywhere it was once taken, never ignored: the
    unknown-option ``AlgorithmError`` where a call takes ``**options``,
    a ``TypeError`` where it does not, the same 400 over HTTP and
    exit 2 from the CLI."""
    from repro.core.batch import solve_many
    from repro.core.dp import run_dynamic_program
    from repro.core.polarity import insert_buffers_with_inverters
    from repro.core.registry import get_algorithm
    from repro.errors import AlgorithmError
    from repro.routing.features import features_of
    from repro.routing.router import ExecutionPlan, Router
    from repro.routing.workload import WorkloadLog, replay
    from repro.service.canon import request_key
    from repro.service.server import BufferServer, serve
    from repro.tree.io import library_to_dict

    kwargs = {field: name}
    if field == "backend":
        error, message = AlgorithmError, UNKNOWN_STORE
    elif surface in ("insert_buffers", "SolverPool", "solve_many"):
        error, message = (
            AlgorithmError, "unknown options for 'fast': ['policy']")
    elif surface.startswith("/"):
        error, message = None, POLICY_REFUSAL
    else:
        error, message = TypeError, None
    if surface.startswith("/"):
        harness = request.getfixturevalue("harness")
        body = {"net": tree_to_dict(net), "library": library_to_dict(library),
                **kwargs}
        if surface == "/batch":
            body["nets"] = [body.pop("net")]
        status, text = harness.client._request_text("POST", surface, body)
        assert status == 400
        assert message in json.loads(text)["error"]
        stats = harness.client.stats()
        assert stats["pools"] == []
        assert stats["incremental"]["sessions"]["live"] == 0
    elif surface.startswith("repro "):
        from repro.cli import main

        served = []
        monkeypatch.setattr(
            "repro.service.server.serve", lambda **kw: served.append(kw))
        if surface in ("repro serve", "repro replay"):
            log = tmp_path / "log.jsonl"
            log.write_text("")
            argv = (["serve", "--port", "0"] if surface == "repro serve"
                    else ["replay", "--log", str(log)])
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--policy", name])
            assert exit_info.value.code == 2
        else:
            net_path = tmp_path / "net.json"
            lib_path = tmp_path / "lib.json"
            assert main(["generate", "--net", str(net_path), "--sinks", "3",
                         "--positions", "10", "--library", str(lib_path),
                         "--library-size", "2"]) == 0
            with pytest.raises(SystemExit) as exit_info:
                main(["buffer", "--net", str(net_path), "--library",
                      str(lib_path), "--backend", name])
            assert exit_info.value.code == 2
        assert served == []
    else:
        calls = {
            "insert_buffers": lambda: insert_buffers(net, library, **kwargs),
            "insert_buffers_with_inverters": lambda: (
                insert_buffers_with_inverters(net, library, **kwargs)),
            "run_dynamic_program": lambda: run_dynamic_program(
                net, library, get_algorithm("fast").add_buffer_op(
                    "object", library), "fast", **kwargs),
            "SolverPool": lambda: SolverPool(library, **kwargs),
            "solve_many": lambda: solve_many([net], library, **kwargs),
            "Router": lambda: Router(**kwargs),
            "request_key": lambda: request_key(net, library, **kwargs),
            "WorkloadLog.record": lambda: WorkloadLog(log).record(
                "solve", digest="d", features=features_of(net, library),
                plan=ExecutionPlan("object", "compiled"), seconds=0.0,
                **kwargs),
            "replay": lambda: replay([], policies=(name,)),
            "BufferServer": lambda: BufferServer(**kwargs),
            "serve": lambda: serve(port=0, **kwargs),
        }
        log = tmp_path / "log.jsonl"
        with pytest.raises(error) as info:
            calls[surface]()
        if message is not None:
            assert str(info.value).startswith(message)
        else:
            assert "unexpected keyword argument 'polic" in str(info.value)
        assert not log.exists()


MALFORMED = malformed_requests()


class TestMalformedRequests:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_400_even_with_the_valid_twin_cached(self, harness, case):
        """Every endpoint rejects a malformed field with a 400, and a
        cached answer for its valid twin neither leaks out nor lets the
        request reach a worker."""
        malformed, twin = MALFORMED[case]
        solve = harness.client._request
        assert solve("POST", "/solve", twin)["cached"] is False
        dispatches = harness.client.stats()["counters"]["worker_dispatches"]
        batch = {"nets": [malformed["net"]], "library": malformed["library"]}
        for path, body in (("/solve", malformed), ("/batch", batch),
                           ("/session", malformed)):
            status, text = harness.client._request_text("POST", path, body)
            assert status == 400, (path, text)
        stats = harness.client.stats()
        assert stats["counters"]["worker_dispatches"] == dispatches
        assert solve("POST", "/solve", twin)["cached"] is True

