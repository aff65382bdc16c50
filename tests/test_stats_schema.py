"""Golden-schema lock on the ``/stats`` payload.

``/stats`` is the service's observability contract: dashboards and the
replay tooling key on its exact field names.  This test snapshots the
full JSON *shape* (recursive key structure with scalar types, dynamic
counter dicts normalized) into ``tests/data/stats_schema.json`` so any
added, removed or renamed field shows up as a reviewable golden diff —
the routing block included.

Regenerate after an intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_stats_schema.py
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from pathlib import Path

import pytest

from helpers import random_small_tree
from repro import Driver, paper_library, random_tree_net
from repro.experiments.workloads import corner_variants
from repro.service.client import ServiceClient
from repro.service.server import BufferServer
from repro.units import ps

GOLDEN = Path(__file__).parent / "data" / "stats_schema.json"

#: Keys whose sub-keys are runtime-dependent counters (per-strategy,
#: per-backend, per-lane-width...).  Their *contents* vary by machine
#: and workload; only their presence is part of the schema.
DYNAMIC_KEYS = {
    "decisions_by_strategy",
    "solves_by_backend",
    "lanes_histogram",
}


def shape_of(value, key=None):
    """The JSON shape: dicts keep sorted keys, scalars become type
    names, lists keep one element's shape, dynamic dicts collapse."""
    if key in DYNAMIC_KEYS:
        return "dict[dynamic]"
    if isinstance(value, dict):
        return {k: shape_of(value[k], k) for k in sorted(value)}
    if isinstance(value, list):
        return [shape_of(value[0])] if value else []
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return "string"


class _Harness:
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
    h = _Harness(jobs=1, cache_size=64)
    try:
        yield h
    finally:
        h.shutdown()


def test_stats_schema_matches_golden(harness):
    """Exercise every subsystem once (solve, batch, session), then
    lock the full /stats shape against the committed golden."""
    library = paper_library(4)
    net = random_tree_net(
        8, seed=11, required_arrival=(ps(500.0), ps(2000.0)),
        driver=Driver(resistance=200.0),
    )
    harness.client.solve(net, library)
    group = [v for _, v in corner_variants(random_small_tree(7), 4)]
    harness.client.solve_batch(group, library)
    session = harness.client.create_session(net, library)
    session.resolve()
    sink = net.sinks()[0]
    session.edit({"op": "set_sink_rat", "node": sink.node_id,
                  "required_arrival": sink.required_arrival * 0.9})
    session.resolve()

    stats = harness.client.stats()
    shape = shape_of(stats)

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(shape, indent=2, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert shape == golden, (
        "/stats shape drifted from tests/data/stats_schema.json — if "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and review "
        "the diff"
    )

    # The routing block is the PR8 contract; pin its keys explicitly so
    # a golden regeneration cannot silently drop them.
    routing = stats["routing"]
    assert set(routing) == {
        "decisions", "decisions_by_strategy", "workload_records",
    }
    assert routing["decisions"] >= 1
