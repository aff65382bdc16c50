"""Edit-replay benchmark of the incremental engine: ``BENCH_PR5.json``.

Replays a randomized single-edit ECO workload over the Figure 4 trunk
(the paper's long-candidate-list net) and measures, per edit, an
incremental session re-solve against a from-scratch
:func:`~repro.core.api.insert_buffers` of the identically edited net —
asserting **bit-identical** slack at every step, so the speedups below
can never come from solving a different problem.

The replay mixes the three canonical ECO edit classes:

* ``sink`` — the trunk's sink moves its required arrival or load
  (alternating RAT/cap).  On a *trunk* this is the engine's worst case
  by construction: every vertex is an ancestor of the single sink, so
  the dirty path is the whole net and the re-solve degenerates to a
  full solve plus capture overhead (expected speedup ~1x; reported
  honestly).
* ``wire`` — a uniformly random segment is re-parasitized (re-route /
  re-length).  The subtree below the segment is clean and splices from
  the frontier cache; cost is the path above, so speedups range from
  ~1x (sink-side edits) to ~100x (driver-side edits).
* ``driver`` — the source driver is resized.  The driver sits outside
  every subtree digest, so the re-solve is a single argmax over the
  memoized root frontier (three to four orders of magnitude faster).

Sessions and the scratch rival both run on the ``object`` store: every
session solves there, and so does a single net under ``"auto"``.  Per
position count the file records each class's total-time speedup and
the **headline: the geometric mean of per-edit speedups over the whole
mix** — the standard cross-workload benchmark aggregate, which weights
every edit equally instead of letting the slowest class's wall time
drown out the others.  A multi-sink companion net (where dirty paths
are genuinely short and *every* class wins) is measured alongside for
context; the CI gate reads the trunk numbers.

``ci_gate`` thresholds are embedded in the output and enforced by
``tools/perf_gate.py`` against a freshly generated file: at every point
with at least ``min_positions`` actual positions, the headline geomean
speedup must be at least ``min_speedup``.

Run::

    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        [--out BENCH_PR5.json] [--scale 1.0] [--edits-per-class 6]
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.api import insert_buffers
from repro.experiments.workloads import FIG4_NET, build_net
from repro.incremental import (
    IncrementalSolver,
    SetSinkCap,
    SetSinkRAT,
    SetWire,
    SwapDriver,
)
from repro.library.generators import paper_library
from repro.tree.builders import random_tree_net
from repro.tree.node import Driver
from repro.tree.segmenting import segment_to_position_count
from repro.units import ps

#: Figure 4 position counts at scale 1.0 (subset of the full sweep —
#: the replay solves from scratch once per edit, so the n^2 points are
#: budgeted carefully; 1000+ is where the CI gate applies).
TRUNK_SWEEP = (1000, 4000, 8000)
LIBRARY_SIZE = 32

#: The store every session and every scratch rival runs on.
BACKEND = "object"

CI_GATE = {
    # Points with at least this many *actual* positions are gated.
    "min_positions": 1000,
    # Geometric-mean per-edit speedup floor.
    "min_speedup": 5.0,
    # The store the gated points ran on: the one sessions solve on.
    "backend": BACKEND,
}


def _edit_classes(tree, rng) -> Dict[str, Callable]:
    sinks = [
        (node.node_id, node.required_arrival, node.capacitance)
        for node in tree.sinks()
    ]
    internals = [
        node.node_id for node in tree.nodes()
        if not node.is_sink and not node.is_source
    ]

    def sink_edit():
        node, rat, cap = rng.choice(sinks)
        if rng.random() < 0.5:
            return SetSinkRAT(node=node,
                              required_arrival=rat * rng.uniform(0.85, 1.15))
        return SetSinkCap(node=node,
                          capacitance=cap * rng.uniform(0.7, 1.4))

    def wire_edit():
        node = rng.choice(internals)
        edge = tree.edge_to(node)
        return SetWire(
            node=node,
            resistance=edge.resistance * rng.uniform(0.6, 1.6),
            capacitance=edge.capacitance * rng.uniform(0.6, 1.6),
        )

    def driver_edit():
        return SwapDriver(resistance=rng.uniform(100.0, 400.0))

    return {"sink": sink_edit, "wire": wire_edit, "driver": driver_edit}


def replay(
    tree, library, edits_per_class: int, seed: int,
    classes: Optional[List[str]] = None,
) -> Dict:
    """One edit-replay measurement on ``tree`` (which it mutates)."""
    rng = random.Random(seed)
    solver = IncrementalSolver(tree, library, algorithm="fast")
    started = time.perf_counter()
    baseline = solver.resolve()
    initial_seconds = time.perf_counter() - started

    makers = _edit_classes(tree, rng)
    if classes is not None:
        makers = {name: makers[name] for name in classes}
    # Interleave classes so background drift hits all of them equally.
    schedule = [
        name for _ in range(edits_per_class) for name in makers
    ]
    per_class: Dict[str, Dict[str, object]] = {
        name: {"incremental_seconds": 0.0, "scratch_seconds": 0.0,
               "edits": 0, "speedups": []}
        for name in makers
    }
    log_speedups: List[float] = []
    fractions: List[float] = []

    for name in schedule:
        edit = makers[name]()
        started = time.perf_counter()
        solver.apply(edit)
        result = solver.resolve()
        incremental = time.perf_counter() - started
        # The scratch rival pays what any stateless caller pays for the
        # edited net: validate + plan + compile + solve.
        started = time.perf_counter()
        scratch = insert_buffers(tree, library, algorithm="fast",
                                 backend=BACKEND)
        scratch_seconds = time.perf_counter() - started
        if result.slack != scratch.slack:  # pragma: no cover - honesty guard
            raise AssertionError(
                f"incremental/scratch mismatch after {name} edit: "
                f"{result.slack} != {scratch.slack}"
            )
        bucket = per_class[name]
        bucket["incremental_seconds"] += incremental
        bucket["scratch_seconds"] += scratch_seconds
        bucket["edits"] += 1
        speedup = scratch_seconds / incremental if incremental else float("inf")
        bucket["speedups"].append(speedup)
        log_speedups.append(math.log(speedup))
        fractions.append(solver.last_executed_fraction)

    for bucket in per_class.values():
        speedups = bucket.pop("speedups")
        bucket["speedup_total"] = (
            bucket["scratch_seconds"] / bucket["incremental_seconds"]
            if bucket["incremental_seconds"] else float("inf")
        )
        bucket["speedup_geomean"] = math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        )

    cache_stats = solver.stats()["frontier_cache"]
    return {
        "backend": BACKEND,
        "initial_solve_seconds": initial_seconds,
        "baseline_slack_seconds": baseline.slack,
        "edits": len(schedule),
        "classes": per_class,
        "geomean_speedup": math.exp(sum(log_speedups) / len(log_speedups)),
        "mean_executed_fraction": sum(fractions) / len(fractions),
        "frontier_cache": {
            "entries": cache_stats["entries"],
            "bytes": cache_stats["bytes"],
            "hit_rate": cache_stats["hit_rate"],
        },
    }


def measure_trunk(scale: float, edits_per_class: int) -> Dict:
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    points = []
    for target in TRUNK_SWEEP:
        positions = max(int(target * scale), 50)
        per_point = edits_per_class if target <= 4000 else max(
            2, edits_per_class // 2
        )
        tree = copy.deepcopy(build_net(FIG4_NET,
                                       positions_override=positions))
        # target + 6: the seed the object rows have always replayed.
        row = replay(tree, library, per_point, seed=target + 6)
        row["positions"] = positions
        row["target_positions"] = target
        points.append(row)
    return {
        "net": FIG4_NET.name,
        "algorithm": "fast",
        "library_size": LIBRARY_SIZE,
        "points": points,
    }


def measure_multi_sink(scale: float, edits_per_class: int) -> Dict:
    """Companion: a branchy net where dirty paths are genuinely short."""
    positions = max(int(2000 * scale), 100)
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    base = random_tree_net(
        50, seed=50, required_arrival=(ps(500.0), ps(3000.0)),
        driver=Driver(resistance=200.0),
    )
    tree = segment_to_position_count(copy.deepcopy(base), positions)
    # Sink and wire edits only: this net exists to show the dirty-path
    # claim without the driver class's huge numbers.
    row = replay(
        tree, library, edits_per_class, seed=11, classes=["sink", "wire"],
    )
    row["positions"] = positions
    return {"net": "random50", "positions_target": 2000, "points": [row]}


def collect(scale: float, edits_per_class: int) -> Dict:
    return {
        "meta": {
            "bench": "PR5 incremental ECO re-solve engine",
            "scale": scale,
            "edits_per_class": edits_per_class,
            "python": sys.version.split()[0],
            "backends": [BACKEND],
            "workload": (
                "single-edit replay: apply one random edit "
                "(sink RAT/cap | wire re-parasitize | driver swap), "
                "incremental resolve vs from-scratch insert_buffers of "
                "the same edited net, bit-identity asserted per edit; "
                "headline = geometric mean of per-edit speedups"
            ),
        },
        "ci_gate": dict(CI_GATE),
        "incremental": measure_trunk(scale, edits_per_class),
        "multi_sink": measure_multi_sink(scale, edits_per_class),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persist the PR5 incremental-engine trajectory to JSON.")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR5.json",
        help="output path (default: BENCH_PR5.json at the repo root)")
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="instance scale factor (default: $REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument("--edits-per-class", type=int, default=6,
                        help="replay length per edit class (default 6; "
                             "halved at the largest point)")
    args = parser.parse_args(argv)

    payload = collect(args.scale, args.edits_per_class)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"incremental edit replay ({payload['incremental']['net']}, "
          f"fast, b={LIBRARY_SIZE}):")
    for point in payload["incremental"]["points"]:
        classes = point["classes"]
        detail = "  ".join(
            f"{name} {bucket['speedup_total']:.2f}x"
            for name, bucket in classes.items()
        )
        print(f"  n={point['positions']:>5} {point['backend']:<7}"
              f" geomean {point['geomean_speedup']:8.2f}x   {detail}")
    for row in payload["multi_sink"]["points"]:
        detail = "  ".join(
            f"{name} {bucket['speedup_total']:.2f}x"
            for name, bucket in row["classes"].items()
        )
        print(f"  multi-sink n={row['positions']:>5} {row['backend']:<7}"
              f" geomean {row['geomean_speedup']:8.2f}x   {detail}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
