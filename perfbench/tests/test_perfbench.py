"""Tests for the benchmark's own code (not for the program it measures)."""

import random
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.library.generators import paper_library
from repro.service.canon import canonicalize, request_key
from repro.tree.io import tree_from_dict

from perfbench import inputs, workloads
from perfbench.server import ServerProcess
from perfbench.speed import REFERENCE_SECONDS, Speedometer
from perfbench.stats import percentile, samples_needed
from perfbench.trace import Span, descendants, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_percentile_needs_ten_samples_beyond_it():
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError, match="at least 10"):
        percentile(list(range(1, 100)), 90)
    with pytest.raises(ValueError, match="at least 10"):
        percentile(list(range(1, 20)), 50)


def test_relabelled_net_keeps_its_request_key():
    net = inputs.random_net(20, seed=3)
    fresh, label = inputs.relabel(net, "t0_", random.Random(0))
    assert not set(label.values()) & set(label)
    library = paper_library(8)
    keys = [
        request_key(canonicalize(tree), library, driver=tree.driver)
        for tree in (tree_from_dict(net), tree_from_dict(fresh))
    ]
    assert keys[0] == keys[1]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, 0, "op", 0.0, 10.0),
        Span(2, 1, 0, "a", 1.0, 4.0),
        Span(3, 1, 0, "b", 3.0, 6.0),   # overlaps a: [1, 6] covered once
        Span(4, 2, 0, "a.child", 2.0, 3.0),
        Span(5, 1, 0, "late", 9.0, 12.0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)
    assert sorted(s.span_id for s in descendants(spans, 1)) == [2, 3, 4, 5]


def _refused(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=2).close()
    except ConnectionRefusedError:
        return True
    return False


def test_server_is_stopped_when_a_run_fails(monkeypatch):
    seen = {}

    def failing_op(self, op):
        seen["proc"], seen["port"] = self.server.proc, self.server.port
        raise RuntimeError("op failed")

    monkeypatch.setattr(workloads.SolveMiss, "execute", failing_op)
    with pytest.raises(RuntimeError, match="op failed"):
        workloads.run_workload("solve_miss", seed=1, seconds=0.2, trace=False)
    assert seen["proc"].poll() is not None
    assert _refused(seen["port"])


def test_miss_pool_outlives_the_servers_result_cache():
    # The server's default --cache-size, as `repro serve` parses it.
    from repro.cli import _build_parser

    args = _build_parser().parse_args(["serve"])
    assert workloads.SolveMiss.POOL_NETS > args.cache_size


def test_durations_scale_with_the_probes_near_them():
    speed = Speedometer()
    # Probes read the reference time until t=10, then twice it: a host
    # at half speed.
    speed.times = [0.1 * i for i in range(200)]
    speed.seconds = [REFERENCE_SECONDS * (1 if t < 10 else 2) for t in speed.times]
    assert speed.scaled([(2.0, 0.010), (15.0, 0.020)]) == pytest.approx(
        [0.010, 0.010]
    )
    # Beyond every probe's reach the nearest one scales.
    assert speed.scale_at(100.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Speedometer().scale_at(0.0)


def test_server_is_stopped_when_its_block_raises(tmp_path):
    server = ServerProcess(ROOT, tmp_path / "server.log")
    with pytest.raises(KeyError):
        with server:
            server.start()
            proc, port = server.proc, server.port
            raise KeyError("boom")
    assert proc.poll() is not None
    assert _refused(port)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
