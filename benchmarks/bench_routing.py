"""Execution-routing replay benchmark: ``BENCH_PR8.json``.

Builds a deterministic mixed workload — solo solves across the size
spectrum, multi-corner batch groups and incremental ECO sessions —
captures it in the workload-log format (:mod:`repro.routing.workload`),
then replays it under the routing rule and reports its total wall time
and regret against the oracle (the per-request best measured plan).

The corpus is the benchmark's contract with the test suite: running
with ``--capture tests/data/workload_mixed.jsonl`` regenerates the
committed regression corpus the tier-1 replay test locks the schema
with.  The benchmark itself builds the same corpus in a temporary
file, so the committed artifact and the measured one cannot drift
structurally.

What the numbers mean:

* ``oracle_seconds`` — sum over requests of the best measured plan;
  the rule cannot beat it (both are priced from the same table).
* ``static`` — the one routing rule's fixed size rules (SoA only for
  a group's long candidate lists,
  :func:`repro.routing.router.static_store`; batch a structural group
  only when its lanes are on SoA; 50k-instruction parallel floor).
  This is what all traffic gets, so it is gated against the oracle
  directly.

Every plan's result is checked bit-identical before anything is
priced, so a routing choice can only ever change wall time, never
answers.

``ci_gate`` thresholds are embedded in the output and enforced by
``tools/perf_gate.py`` against a freshly generated file: the static
rule must reach ``min_static_speedup_vs_oracle`` (how close to the
per-request best it lands).

Run::

    PYTHONPATH=src python benchmarks/bench_routing.py \\
        [--out BENCH_PR8.json] [--scale 1.0] [--repeats 3]
    PYTHONPATH=src python benchmarks/bench_routing.py \\
        --capture tests/data/workload_mixed.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.batch import SolverPool
from repro.experiments.workloads import corner_variants
from repro.incremental.engine import IncrementalSolver
from repro.library.generators import paper_library
from repro.routing.features import features_of
from repro.routing.router import ExecutionPlan
from repro.routing.workload import WorkloadLog, compiled_digest, replay
from repro.tree.builders import random_tree_net
from repro.tree.io import library_to_dict, tree_from_dict, tree_to_dict

#: (sinks, seed) cells of the solo-solve sweep, per library size.
SOLO_CELLS = {
    8: ((2, 11), (3, 12), (4, 13), (6, 14), (8, 15), (12, 16),
        (16, 17), (24, 18)),
    16: ((6, 21), (10, 22), (14, 23), (20, 24), (28, 25), (40, 26),
         (56, 27), (80, 28)),
    32: ((4, 31), (8, 32), (12, 33), (16, 34), (24, 35), (32, 36),
         (48, 37), (64, 38)),
}

#: (sinks, lanes, seed) cells of the multi-corner batch sweep (b=8).
BATCH_CELLS = (
    (8, 4, 41), (16, 4, 42), (32, 4, 43), (64, 4, 44),
    (8, 8, 45), (16, 8, 46), (32, 8, 47), (64, 8, 48),
)

#: (sinks, seed, edit script) cells of the session sweep (b=8).  Each
#: script is a list of edit dicts in the loaded net's preorder ids;
#: sink ids are resolved per net at build time (``"sink:<k>"`` means
#: the k-th sink in preorder).
SESSION_CELLS = (
    (16, 51, [{"op": "set_sink_rat", "node": "sink:0",
               "required_arrival": 5e-10}]),
    (16, 52, [{"op": "set_sink_rat", "node": "sink:1",
               "required_arrival": 8e-10},
              {"op": "set_sink_rat", "node": "sink:2",
               "required_arrival": 3e-10}]),
    (32, 53, [{"op": "set_sink_rat", "node": "sink:0",
               "required_arrival": 6e-10}]),
    (32, 54, [{"op": "set_sink_rat", "node": "sink:3",
               "required_arrival": 4e-10},
              {"op": "set_sink_rat", "node": "sink:5",
               "required_arrival": 9e-10}]),
    (48, 55, [{"op": "set_sink_rat", "node": "sink:2",
               "required_arrival": 7e-10}]),
    (48, 56, [{"op": "swap_driver", "resistance": 150.0}]),
    (64, 57, [{"op": "set_sink_rat", "node": "sink:4",
               "required_arrival": 5e-10}]),
    (64, 58, [{"op": "swap_driver", "resistance": 90.0}]),
)

CI_GATE = {
    # The routing rule must land within 10% of the oracle (the
    # per-request best measured plan) on the mixed corpus: what
    # traffic gets.
    "min_static_speedup_vs_oracle": 0.9,
}


def _scaled(sinks: int, scale: float) -> int:
    return max(int(round(sinks * scale)), 2)


def _resolve_sink_ids(tree, script: List[dict]) -> List[dict]:
    """Replace ``"sink:<k>"`` placeholders with the net's actual ids."""
    sinks = [node.node_id for node in tree.sinks()]
    resolved = []
    for spec in script:
        spec = dict(spec)
        node = spec.get("node")
        if isinstance(node, str) and node.startswith("sink:"):
            spec["node"] = sinks[int(node.split(":", 1)[1]) % len(sinks)]
        resolved.append(spec)
    return resolved


def build_corpus(path: Path, scale: float = 1.0) -> Dict[str, int]:
    """Write the mixed workload corpus (full capture) to ``path``.

    Deterministic by construction: fixed seeds, fixed cell tables, and
    nets serialized through one ``tree_to_dict`` round trip so node
    ids in session edit scripts are stable under re-loading.
    """
    counts = {"solve": 0, "batch": 0, "session": 0}
    log = WorkloadLog(path, capture="full")

    for library_size, cells in sorted(SOLO_CELLS.items()):
        library = paper_library(library_size, jitter=0.03, seed=library_size)
        pool = SolverPool(library, workload_log=log)
        for sinks, seed in cells:
            pool.solve([random_tree_net(_scaled(sinks, scale), seed=seed)])
            counts["solve"] += 1
        pool.close()

    library = paper_library(8, jitter=0.03, seed=8)
    for sinks, lanes, seed in BATCH_CELLS:
        base = random_tree_net(_scaled(sinks, scale), seed=seed)
        variants = [tree for _, tree in corner_variants(base, lanes)]
        # Captured as one batch request: the static rule would solve
        # these short-list lanes one by one and log each as a solo, so
        # the pool names the store that batches them.
        pool = SolverPool(library, workload_log=log, backend="soa")
        pool.solve(variants)
        pool.close()
        counts["batch"] += 1

    for sinks, seed, script in SESSION_CELLS:
        # Round-trip the tree first: tree_from_dict re-assigns ids in
        # preorder, so the serialized net and the edit script agree on
        # ids both now and at replay time.
        tree = tree_from_dict(
            tree_to_dict(random_tree_net(_scaled(sinks, scale), seed=seed))
        )
        net_dict = tree_to_dict(tree)
        edits = _resolve_sink_ids(tree, script)
        solver = IncrementalSolver(tree, library)
        solver.resolve()
        for edit in edits:
            solver.apply(edit)
        started = time.perf_counter()
        solver.resolve()
        seconds = time.perf_counter() - started
        plan = ExecutionPlan(backend=solver.backend, schedule_mode="splice")
        log.record(
            "session",
            digest=compiled_digest(solver.compiled),
            features=features_of(solver.compiled, kind="session"),
            plan=plan,
            seconds=seconds,
            algorithm=solver.algorithm,
            options=solver.options,
            payload={
                "library": library_to_dict(library),
                "net": net_dict,
                "edits": edits,
            },
        )
        counts["session"] += 1

    log.close()
    return counts


def collect(scale: float, repeats: int) -> Dict:
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "workload.jsonl"
        counts = build_corpus(corpus_path, scale=scale)
        report = replay(corpus_path, repeats=repeats)
    return {
        "meta": {
            "bench": "PR8 execution-routing replay",
            "scale": scale,
            "repeats": repeats,
            "python": sys.version.split()[0],
            "corpus": dict(counts, requests=sum(counts.values())),
            "workload": (
                "deterministic mixed corpus (solo solves over three "
                "library sizes, multi-corner batch groups, incremental "
                "ECO sessions) captured in the workload-log format, "
                "then replayed: every candidate plan of every request "
                "measured best-of-repeats into one shared table, "
                "bit-identity asserted across plans, the routing "
                "rule priced from the same table"
            ),
        },
        "ci_gate": dict(CI_GATE),
        "routing": report,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persist the PR8 routing-replay trajectory to JSON.")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR8.json",
        help="output path (default: BENCH_PR8.json at the repo root)")
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="instance scale factor (default: $REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats per (request, plan) (default 3)")
    parser.add_argument(
        "--capture", type=Path, default=None, metavar="PATH",
        help="only write the corpus JSONL here (the committed "
             "tests/data/workload_mixed.jsonl mode) and exit")
    args = parser.parse_args(argv)

    if args.capture is not None:
        args.capture.parent.mkdir(parents=True, exist_ok=True)
        if args.capture.exists():
            args.capture.unlink()
        counts = build_corpus(args.capture, scale=args.scale)
        total = sum(counts.values())
        print(f"wrote {total} records ({counts['solve']} solve, "
              f"{counts['batch']} batch, {counts['session']} session) "
              f"-> {args.capture}")
        return 0

    payload = collect(args.scale, args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    report = payload["routing"]
    print(f"routing replay ({report['requests']} requests, "
          f"repeats={args.repeats}):")
    static = report["static"]
    print(f"  oracle {report['oracle_seconds'] * 1e3:9.1f}ms")
    print(
        f"  static {static['total_seconds'] * 1e3:9.1f}ms"
        f"  regret {static['regret_seconds'] * 1e3:8.1f}ms"
        f"  vs-oracle {static['speedup_vs_oracle']:5.2f}x"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
