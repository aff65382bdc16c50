"""Partitioned parallel solve benchmark: ``BENCH_PR7.json``.

Measures :func:`~repro.parallel.solver.solve_partitioned` through a warm
:class:`~repro.core.batch.SolverPool` on single large nets — the
workload the partitioner exists for — against the serial compiled solve
of the *same pre-compiled net*.  Both sides run on the ``object`` store:
a partitioned solve always does, and so does one net solved alone.
Two topology sweeps:

* ``random`` (gated) — branchy random-topology nets segmented to the
  position targets.  These partition well: balanced cuts cover 70–90 %
  of the instruction stream and the worker pool runs them concurrently.
* ``fig4_trunk`` (context, never gated) — the paper's 2-pin trunk.  A
  chain-shaped DP nests every subtree inside the next, the planner
  reports non-viability and the solve falls back to serial; the cells
  document that the fallback costs nothing (speedup ~1.0).

Bit-identity of the partitioned result against the serial solve —
slack, assignment and DP accounting — is asserted before anything is
timed, so speedups can never come from solving a different problem.
``speedup`` is serial/partitioned wall-clock (bigger is better).

Note the physics: instruction *coverage* overstates the parallelizable
*work* share, because candidate frontiers grow toward the root — the
serial residual executes the longest lists.  The busy/residual
decomposition puts the ideal 4-worker speedup near 2x at 5·10^4
positions and rising with size; the gate below is set under that
ceiling and only where partitioning is meant to win.

``ci_gate`` thresholds are embedded in the output and enforced by
``tools/perf_gate.py check_parallel`` against a freshly generated
file: for every gated position level (actual positions >=
``min_positions``) the best speedup among cells with at least
``min_workers`` workers must reach ``min_speedup``.  Gating is skipped
(with a note) when the generating machine has fewer than
``min_workers`` cores — a single-core box cannot honestly measure
multi-core speedup; ``meta.cpu_count`` records the truth.

Run::

    PYTHONPATH=src python benchmarks/bench_parallel.py \\
        [--out BENCH_PR7.json] [--scale 1.0] [--repeats 3]
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
from repro.core.schedule import compile_net
from repro.experiments.workloads import FIG4_NET, build_net
from repro.library.generators import paper_library
from repro.tree.builders import random_tree_net
from repro.tree.node import Driver
from repro.tree.segmenting import segment_to_position_count
from repro.units import ps

#: Worker counts swept per cell (1 = the serial baseline through the
#: same pool settings, i.e. the fallback path's overhead).
WORKER_SWEEP = (1, 2, 4, 8)

#: Random-topology position targets at scale 1.0 (the gated sweep).
RANDOM_POSITION_SWEEP = (10_000, 100_000, 1_000_000)

#: Figure 4 trunk position targets at scale 1.0 (fallback context; the
#: trunk's serial DP is superlinear in n, so the sweep stays modest).
TRUNK_POSITION_SWEEP = (10_000, 25_000)

LIBRARY_SIZE = 32

CI_GATE = {
    # Position levels with at least this many *actual* positions are
    # gated; smaller cells are recorded as overhead-floor context.
    "min_positions": 100_000,
    # Only cells with at least this many workers count toward the
    # gate, and gating is skipped entirely on machines with fewer
    # cores than this (meta.cpu_count tells the checker).
    "min_workers": 4,
    # Floor on the *best* serial/partitioned speedup among qualifying
    # cells at each gated position level.  Amdahl over the measured
    # busy/residual split caps 4 workers near 2x, so 1.8x demands the
    # dispatch+splice machinery stay cheap.
    "min_speedup": 1.8,
}


def _random_net(positions: int, seed: int = 13):
    base = random_tree_net(
        max(32, positions // 300), seed=seed,
        required_arrival=(ps(500.0), ps(2500.0)),
        driver=Driver(resistance=200.0),
    )
    return segment_to_position_count(base, positions)


def measure_cell(compiled, library, workers: int, serial_seconds: float,
                 reference, repeats: int) -> Dict:
    """One (net, worker count) cell: parity check, then warm timing."""
    # A zero threshold partitions every net the pool solves.
    with SolverPool(
        library, jobs=workers, parallel_threshold=0
    ) as pool:
        # Warm-up doubles as the honesty guard: the partitioned result
        # must be bit-identical to the serial solve of the same net.
        result = pool.solve([compiled])[0]
        if (result.slack != reference.slack
                or result.assignment != reference.assignment
                or result.stats.candidates_generated
                != reference.stats.candidates_generated):
            raise AssertionError(
                f"partitioned/serial mismatch at workers={workers}: "
                f"{result.slack} != {reference.slack}"
            )
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            pool.solve([compiled])
            best = min(best, time.perf_counter() - started)
        report = pool.parallel_stats()["last"]
    if report is None:
        # jobs=1: the pool never routes, the cell is the pure serial
        # baseline through the same pool plumbing.
        report = {
            "engaged": False, "reason": "single worker (serial baseline)",
            "partitions": 0, "coverage": 0.0, "residual_fraction": 1.0,
            "plan_seconds": 0.0, "dispatch_seconds": 0.0,
            "worker_busy_seconds": 0.0, "pool_utilization": 0.0,
        }
    return {
        "workers": workers,
        "partitioned_seconds": best,
        "speedup": serial_seconds / best,
        "engaged": report["engaged"],
        "fallback_reason": report["reason"],
        "partitions": report["partitions"],
        "coverage": report["coverage"],
        "residual_fraction": report["residual_fraction"],
        "plan_seconds": report["plan_seconds"],
        "dispatch_seconds": report["dispatch_seconds"],
        "worker_busy_seconds": report["worker_busy_seconds"],
        "pool_utilization": report["pool_utilization"],
    }


def measure_net(tree, library, repeats: int) -> Dict:
    compiled = compile_net(tree, library)
    positions = compiled.num_buffer_positions
    effective = repeats if positions < 50_000 else 1
    serial_best = float("inf")
    reference = None
    for _ in range(max(effective, 1)):
        started = time.perf_counter()
        reference = insert_buffers(compiled, library, backend="object")
        serial_best = min(serial_best, time.perf_counter() - started)
    cells = [
        dict(
            measure_cell(
                compiled, library, workers, serial_best, reference,
                effective,
            ),
            positions=positions,
        )
        for workers in WORKER_SWEEP
    ]
    return {
        "positions": positions,
        "instructions": len(compiled.ops),
        "serial_seconds": serial_best,
        "baseline_slack_seconds": reference.slack,
        "repeats": effective,
        "cells": cells,
    }


def collect(scale: float, repeats: int) -> Dict:
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    random_points: List[Dict] = []
    for target in RANDOM_POSITION_SWEEP:
        positions = max(int(target * scale), 100)
        point = measure_net(_random_net(positions), library, repeats)
        point["target_positions"] = target
        random_points.append(point)
    trunk_points: List[Dict] = []
    for target in TRUNK_POSITION_SWEEP:
        positions = max(int(target * scale), 100)
        point = measure_net(
            build_net(FIG4_NET, positions_override=positions),
            library, repeats,
        )
        point["target_positions"] = target
        trunk_points.append(point)
    return {
        "meta": {
            "bench": "PR7 partitioned parallel solver",
            "scale": scale,
            "repeats": repeats,
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count() or 1,
            "algorithm": "fast",
            "backend": "object",
            "library_size": LIBRARY_SIZE,
            "workload": (
                "single large nets cut at balanced subtree boundaries "
                "and solved across a warm SolverPool process pool "
                "(parallel_threshold=0), vs the serial compiled-object solve "
                "of the same pre-compiled net; bit-identity asserted "
                "before timing; timings best-of-repeats on a warm pool"
            ),
        },
        "ci_gate": dict(CI_GATE),
        "random": {
            "topology": "random",
            "gated": True,
            "points": random_points,
        },
        "fig4_trunk": {
            "topology": "trunk",
            "gated": False,
            "net": FIG4_NET.name,
            "points": trunk_points,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persist the PR7 partitioned-solve trajectory to JSON.")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR7.json",
        help="output path (default: BENCH_PR7.json at the repo root)")
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="instance scale factor (default: $REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats per cell (default 3; cells at >= 50k "
             "positions drop to 1 automatically)")
    args = parser.parse_args(argv)

    payload = collect(args.scale, args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    for section in ("random", "fig4_trunk"):
        print(f"{section}:")
        for point in payload[section]["points"]:
            print(f"  n={point['positions']:>7}  serial "
                  f"{point['serial_seconds']:8.2f}s")
            for cell in point["cells"]:
                note = "" if cell["engaged"] else "  (serial fallback)"
                print(
                    f"    workers={cell['workers']:>2}"
                    f"  partitioned {cell['partitioned_seconds']:8.2f}s"
                    f"  speedup {cell['speedup']:5.2f}x"
                    f"  parts={cell['partitions']:>3}"
                    f"  cov={cell['coverage']:.2f}{note}"
                )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
