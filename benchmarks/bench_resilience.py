"""Chaos benchmark: availability under injected faults — ``BENCH_PR9.json``.

Replays a deterministic 100-request solve corpus through a supervised
:class:`~repro.core.batch.SolverPool` while the committed fault plan
kills and hangs pool workers underneath it (10% crash rate and 5%
two-second hangs at the ``worker.task`` site, seeded — see
:mod:`repro.resilience.faults`).  Every surviving answer is compared
bit-for-bit against the healthy in-process solve of the same net.

What the numbers mean:

* ``success_rate`` — the fraction of requests that returned a result at
  all (supervised retries, pool respawns and the in-process fallback
  are all legal ways to get there; an exception is a failure).
* ``bit_identical_fraction`` — of the successes, how many match the
  healthy reference exactly.  The resilience layer's contract is that
  degraded execution never changes bits, so anything below 1.0 is a
  correctness bug, not a tuning problem.
* ``latency`` — per-request wall-clock percentiles.  Fault handling
  costs time (a hang is only detected at ``task_timeout``); p99 shows
  the price of the worst recovery path.
* ``supervisor`` / ``breaker_trips`` — what the recovery machinery
  actually did during the run: retries, pool respawns, in-process
  fallbacks, and each breaker's trips, failures and successes (deltas
  of the process registry's counters) beside its final state.

``ci_gate`` thresholds are embedded in the output and enforced by
``tools/perf_gate.py`` against a freshly generated file: at least
``min_success_rate`` of requests must succeed, and with
``require_bit_identical`` every success must match the healthy
reference bit-for-bit.

Run::

    PYTHONPATH=src python benchmarks/bench_resilience.py \\
        [--out BENCH_PR9.json] [--requests 100] [--scale 1.0] [--seed 2005]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.api import insert_buffers
from repro.core.batch import SolverPool
from repro.library.generators import paper_library
from repro.obs.metrics import process_counter
from repro.resilience import (
    FaultPlan,
    FaultRule,
    clear_fault_plan,
    install_fault_plan,
)
from repro.resilience.breaker import STRATEGY_AXES
from repro.tree.builders import random_tree_net

LIBRARY_SIZE = 8

#: The committed chaos plan: every tenth worker task dies with
#: ``os._exit``, every twentieth sleeps for two seconds (longer than
#: the pool's task timeout, so it reads as a hung worker).
FAULT_RULES = (
    ("worker.task", "crash", 0.10, None),
    ("worker.task", "hang", 0.05, 2.0),
)

CI_GATE = {
    # At least 99 of 100 requests must come back with an answer even
    # while workers are being killed and hung underneath the pool ...
    "min_success_rate": 0.99,
    # ... and every answer must be bit-identical to the healthy solve:
    # degraded execution is allowed, degraded *results* are not.
    "require_bit_identical": True,
}


#: The supervisor's events, as BENCH_PR9's ``supervisor`` block names them.
SUPERVISOR_EVENTS = ("retries", "respawns", "fallbacks", "supervised_failures")

#: Each breaker's counted events, by the key BENCH_PR9 reports them under.
BREAKER_EVENTS = (("trips", "trip"), ("failures", "failure"),
                  ("successes", "success"))


def _events() -> Dict[str, Dict[str, float]]:
    """Supervisor and per-axis breaker events counted so far in this
    process's registry."""
    events = {
        "supervisor": process_counter("repro_supervisor_events_total").by(
            "event")
    }
    for axis in STRATEGY_AXES:
        events[axis] = process_counter("repro_breaker_events_total").by(
            "event", axis=axis)
    return events


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(int(round(fraction * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[index]


def _corpus(requests: int, scale: float) -> List:
    """Deterministic request mix across the small-net size spectrum."""
    sizes = (4, 6, 8, 12, 16, 24)
    nets = []
    for index in range(requests):
        sinks = max(int(sizes[index % len(sizes)] * scale), 2)
        nets.append(random_tree_net(sinks, seed=100 + index))
    return nets


def _identical(result, reference) -> bool:
    return (
        result.slack == reference.slack
        and result.assignment == reference.assignment
        and result.driver_load == reference.driver_load
        and result.stats.root_candidates == reference.stats.root_candidates
        and result.stats.peak_list_length == reference.stats.peak_list_length
        and (result.stats.candidates_generated
             == reference.stats.candidates_generated)
    )


def collect(requests: int, scale: float, seed: int,
            task_timeout: float) -> Dict:
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    nets = _corpus(requests, scale)
    references = [insert_buffers(net, library) for net in nets]

    plan = FaultPlan(
        [FaultRule(site, kind, rate=rate, seconds=seconds)
         for site, kind, rate, seconds in FAULT_RULES],
        seed=seed,
    )
    latencies: List[float] = []
    successes = 0
    identical = 0
    failures: List[str] = []
    before = _events()
    install_fault_plan(plan, export_env=True)
    try:
        with SolverPool(
            library, jobs=2, task_timeout=task_timeout, max_retries=2,
        ) as pool:
            for net, reference in zip(nets, references):
                started = time.perf_counter()
                try:
                    result = pool.solve([net])[0]
                except Exception as exc:  # any escape counts against us
                    failures.append(f"{type(exc).__name__}: {exc}")
                else:
                    successes += 1
                    if _identical(result, reference):
                        identical += 1
                latencies.append(time.perf_counter() - started)
            states = {
                axis: pool.breakers.breaker(axis).state
                for axis in STRATEGY_AXES
            }
    finally:
        clear_fault_plan()
    after = _events()

    def moved(kind: str, event: str) -> int:
        return int(after[kind].get(event, 0) - before[kind].get(event, 0))

    supervisor = {
        event: moved("supervisor", event) for event in SUPERVISOR_EVENTS
    }
    breakers = {
        axis: {"state": states[axis], **{
            key: moved(axis, event) for key, event in BREAKER_EVENTS
        }}
        for axis in STRATEGY_AXES
    }

    return {
        "meta": {
            "bench": "PR9 resilience chaos run",
            "requests": requests,
            "scale": scale,
            "seed": seed,
            "task_timeout_seconds": task_timeout,
            "jobs": 2,
            "library_size": LIBRARY_SIZE,
            "python": sys.version.split()[0],
            "workload": (
                "deterministic small-net solve corpus pushed one request "
                "at a time through a supervised two-worker SolverPool "
                "while the seeded fault plan crashes and hangs workers "
                "at the worker.task site; every answer compared "
                "bit-for-bit against the healthy in-process solve"
            ),
        },
        "ci_gate": dict(CI_GATE),
        "resilience": {
            "fault_plan": plan.to_dict(),
            "requests": requests,
            "successes": successes,
            "success_rate": successes / requests if requests else 0.0,
            "bit_identical": identical,
            "bit_identical_fraction": (
                identical / successes if successes else 0.0
            ),
            "failures": failures,
            "latency": {
                "p50_seconds": _percentile(latencies, 0.50),
                "p99_seconds": _percentile(latencies, 0.99),
                "max_seconds": max(latencies),
                "total_seconds": sum(latencies),
            },
            "supervisor": supervisor,
            "breaker_trips": breakers,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persist the PR9 resilience chaos run to JSON.")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR9.json",
        help="output path (default: BENCH_PR9.json at the repo root)")
    parser.add_argument(
        "--requests", type=int, default=100,
        help="chaos corpus size (default 100)")
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="net-size scale factor (default: $REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument(
        "--seed", type=int, default=2005,
        help="fault-plan seed (default 2005)")
    parser.add_argument(
        "--task-timeout", type=float, default=0.75,
        help="pool per-dispatch timeout in seconds (default 0.75)")
    args = parser.parse_args(argv)

    payload = collect(args.requests, args.scale, args.seed,
                      args.task_timeout)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    report = payload["resilience"]
    print(f"chaos run: {report['successes']}/{report['requests']} ok "
          f"({report['success_rate']:.1%}), "
          f"{report['bit_identical']} bit-identical "
          f"({report['bit_identical_fraction']:.1%})")
    latency = report["latency"]
    print(f"  latency p50 {latency['p50_seconds']*1e3:8.1f}ms  "
          f"p99 {latency['p99_seconds']*1e3:8.1f}ms  "
          f"max {latency['max_seconds']*1e3:8.1f}ms")
    supervisor = report["supervisor"]
    print(f"  supervisor: {supervisor['retries']} retries, "
          f"{supervisor['respawns']} respawns, "
          f"{supervisor['fallbacks']} fallbacks")
    for failure in report["failures"]:
        print(f"  FAILURE: {failure}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
