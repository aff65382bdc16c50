"""Object/soa crossover sweep: where ``backend="auto"`` should pick ``soa``.

The static routing rule (:func:`repro.routing.router.static_store`)
sends a request to the vectorized ``soa`` store only when its
candidate lists will be long, and to the ``object`` store otherwise; a
multi-lane group rides the batch axis only when its lanes are on the
``soa`` side.  This script measures both sides of that rule on a grid
that straddles it, and prints every cell's time ratio next to the plan
the static router picks, so its constants can be re-derived (or
re-checked) on any machine.

Cells (``paper_library(b, jitter=0.03, seed=b)`` throughout):

* ``solo`` — one compiled solve per store: ``random_tree_net(sinks)``
  as generated (about one position per sink) and segmented to 10-200
  positions per sink, plus Figure 4 trunks of 100-8000 positions, at
  b = 8 to 64.
* ``group`` — the 8 R/C-corner replicas of a net: one batch-axis pass
  against the lanes solved one by one on the ``object`` store.

Sessions have no cells: they splice on ``object`` only, which won 7 or
8 of the 8 session cells in each of five sweeps before the ``soa``
splice path was retired.

Every cell times warm solves, best of ``--repeats``, the two plans
alternating within each repeat.  Nothing is gated: the table is the
evidence behind the rule's constants.

Run::

    PYTHONPATH=src python benchmarks/bench_crossover.py [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.api import insert_buffers
from repro.core.schedule import compile_net, run_compiled_group
from repro.core.stores.batch_axis import BatchedSoAFactory
from repro.experiments.workloads import FIG4_NET, build_net, corner_variants
from repro.library.generators import paper_library
from repro.routing.features import features_of
from repro.routing.router import Router
from repro.tree.builders import random_tree_net
from repro.tree.node import Driver
from repro.tree.segmenting import segment_to_position_count
from repro.units import ps

LIBRARY_SIZES = (8, 16, 24, 32, 64)
#: Random nets: sink counts and positions-per-sink ratios (``1`` keeps
#: the generated net; larger ratios segment its wires).
RANDOM_SINKS = (4, 16, 64)
RANDOM_RATIOS = (1, 10, 30, 50, 100, 200)
TRUNK_POSITIONS = (100, 200, 300, 400, 600, 800, 1200, 1600, 2000, 3000,
                   4000, 6000, 8000)
#: Solo cells above this ``positions * b`` are skipped (seconds per
#: solve): the paper's 8000-position trunk at b = 32, 4000 at b = 64.
MAX_POSITION_TYPES = 8000 * 32
GROUP_LANES = 8
#: (description, builder, library size) of the group cells.
GROUP_CELLS = (
    ("random 10 sinks", lambda: _random(10, 1), 8),
    ("random 40 sinks", lambda: _random(40, 1), 8),
    ("random 80 sinks", lambda: _random(80, 1), 8),
    ("random 200 sinks", lambda: _random(200, 1), 32),
    ("random 8 sinks x100", lambda: _random(8, 100), 32),
    ("trunk 866", lambda: build_net(FIG4_NET, positions_override=866), 32),
    ("trunk 2000", lambda: build_net(FIG4_NET, positions_override=2000), 8),
)


def _random(sinks: int, ratio: int):
    tree = random_tree_net(
        sinks, seed=1000 + sinks,
        required_arrival=(ps(500.0), ps(3000.0)),
        driver=Driver(resistance=200.0),
    )
    if ratio > 1:
        tree = segment_to_position_count(tree, sinks * ratio)
    return tree


def _library(size: int):
    return paper_library(size, jitter=0.03, seed=size)


def _race(plans: Dict[str, Callable[[], None]], repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` seconds per plan, after one warm-up each; the
    plans alternate within every repeat so host drift hits both."""
    for run in plans.values():
        run()
    best: Dict[str, float] = {}
    for _ in range(max(repeats, 1)):
        for name, run in plans.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            best[name] = min(best.get(name, elapsed), elapsed)
    return best


def solo_cells(repeats: int) -> List[dict]:
    nets = [
        (f"random {sinks} sinks x{ratio}", sinks * ratio,
         lambda s=sinks, r=ratio: _random(s, r))
        for sinks in RANDOM_SINKS for ratio in RANDOM_RATIOS
    ] + [
        (f"trunk {positions}", positions,
         lambda n=positions: build_net(FIG4_NET, positions_override=n))
        for positions in TRUNK_POSITIONS
    ]
    rows = []
    for size in LIBRARY_SIZES:
        library = _library(size)
        for name, positions, build in nets:
            if positions * size > MAX_POSITION_TYPES:
                continue
            net = compile_net(build(), library)
            seconds = _race({
                store: (lambda s=store: insert_buffers(
                    net, library, backend=s))
                for store in ("object", "soa")
            }, repeats)
            rows.append(_row("solo", name, features_of(net, library),
                             seconds, "soa-compiled"))
    return rows


def group_cells(repeats: int) -> List[dict]:
    rows = []
    for name, build, size in GROUP_CELLS:
        library = _library(size)
        lanes = [compile_net(tree, library)
                 for _, tree in corner_variants(build(), GROUP_LANES)]
        factory = BatchedSoAFactory(GROUP_LANES)
        seconds = _race({
            "object": lambda: [insert_buffers(net, library, backend="object")
                               for net in lanes],
            "soa": lambda: run_compiled_group(lanes, library, factory=factory),
        }, repeats)
        features = features_of(lanes[0], library, lanes=GROUP_LANES)
        rows.append(_row("group", name, features, seconds,
                         "soa-compiled+batch", supports_batch=True))
    return rows


def _row(kind: str, name: str, features, seconds: Dict[str, float],
         soa_plan: str, supports_batch: bool = False) -> dict:
    plan = Router(policy="static").route(
        features, supports_batch=supports_batch
    )
    picked = "soa" if plan.strategy == soa_plan else "object"
    best = min(seconds, key=seconds.get)
    return {
        "kind": kind,
        "net": name,
        "positions": features.positions,
        "sinks": features.sinks,
        "b": features.library_size,
        "object_ms": seconds["object"] * 1e3,
        "soa_ms": seconds["soa"] * 1e3,
        "ratio": seconds["soa"] / seconds["object"],
        "picked": picked,
        "best": best,
        "regret_ms": (seconds[picked] - seconds[best]) * 1e3,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per plan (default 3)")
    parser.add_argument("--only", choices=("solo", "group"),
                        default=None, help="run one kind of cell")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the rows as JSON here")
    args = parser.parse_args(argv)

    kinds: Dict[str, Callable[[int], List[dict]]] = {
        "solo": solo_cells, "group": group_cells,
    }
    print("| kind | net | n | sinks | b | object ms | soa ms "
          "| soa/object | static picks | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    rows: List[dict] = []
    for kind, cells in kinds.items():
        if args.only not in (None, kind):
            continue
        for row in cells(args.repeats):
            rows.append(row)
            mark = "" if row["picked"] == row["best"] else "slower"
            print(f"| {row['kind']} | {row['net']} | {row['positions']} "
                  f"| {row['sinks']} | {row['b']} | {row['object_ms']:.2f} "
                  f"| {row['soa_ms']:.2f} | {row['ratio']:.2f} "
                  f"| {row['picked']} | {mark} |")
    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=1) + "\n")
    oracle = sum(min(row["object_ms"], row["soa_ms"]) for row in rows)
    wrong = sum(1 for row in rows if row["picked"] != row["best"])
    print(f"\n{len(rows)} cells; static picks the slower store in {wrong}; "
          f"oracle {oracle:.1f} ms, "
          f"static {oracle + sum(row['regret_ms'] for row in rows):.1f} ms, "
          f"always object {sum(row['object_ms'] for row in rows):.1f} ms, "
          f"always soa {sum(row['soa_ms'] for row in rows):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
