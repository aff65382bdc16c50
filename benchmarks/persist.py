"""Benchmark trajectory persistence: write ``BENCH_PR4.json``.

The benchmark suite (``pytest benchmarks/ --benchmark-only``) measures a
lot, but nothing survives the run — so successive PRs have no baseline
to compare against.  This script distills the workloads the kernel-
engine work targets into one JSON file at the repo root:

* ``fig4`` — the Figure 4 trunk sweep (algorithm ``fast``) over the
  paper's full position range (500 … 8000), each point timed as a
  **compiled** repeat solve on both stores in paired rounds (the store
  that runs first alternates), plus the store the static routing rule
  (:func:`repro.routing.router.static_store`) picks there.  Each point
  records both stores' median seconds and ``picked_over_other``: the
  median over rounds of the picked store's time over the other's (< 1
  means the rule picked the faster store).
* ``op_profile`` — the wire/merge/buffer wall-clock split of
  ``bench_op_profile.py`` (object backend, measured by
  :class:`repro.obs.profiler.KernelProfiler`) for both algorithms,
  recording where solve time goes.
* ``fig3`` — one Figure 3 cell: lillis vs fast on the same compiled
  net (the paper's own speedup, for trend tracking).
* ``batch`` — :func:`~repro.core.batch.solve_many` throughput over a
  corpus of small nets (compiled dispatch), plus the pickled payload
  sizes of the object trees and of their compiled encoding.
* ``ci_gate`` — thresholds the CI perf smoke job enforces with
  ``tools/perf_gate.py`` against a freshly generated file: at every
  sweep point with at least ``min_positions`` actual positions, the
  store the rule picks must not be slower than
  ``max_picked_over_other`` times the other store.  Since the object
  store's single-pass kernels the rule solves every single net on
  ``object``, so this checks that ``object`` is the faster store on
  every long trunk (before them it checked ``soa``, which the rule
  picked there).

Run::

    PYTHONPATH=src python benchmarks/persist.py [--out BENCH_PR4.json]
                                                [--scale 1.0] [--repeats 5]

``--scale`` (default: the ``REPRO_BENCH_SCALE`` environment variable,
else 1.0) shrinks the instances the same way the benchmark suite's
conftest does, so the CI smoke job can afford the sweep.  ``fig4``
runs ``--repeats`` paired rounds per point and reports medians; the
other sections' timings are best-of-``--repeats`` (minimum = least
noisy estimator of deterministic work).

Reading the file: every ``*_seconds`` field is wall time, every
``speedup`` field is "old over new" (bigger is better for the new
path), and ``meta`` records the scale/repeats so numbers are only
compared against runs with the same settings.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.api import insert_buffers
from repro.core.batch import solve_many
from repro.core.schedule import compile_net
from repro.experiments.workloads import (
    FIG4_NET,
    FIGURE_NET,
    TABLE1_NETS,
    build_net,
)
from repro.library.generators import paper_library
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.routing.features import features_of
from repro.routing.router import static_store

# persist.py runs from the benchmarks directory (as a script or under
# pytest's rootdir), so the suite's shared helpers import directly.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import batch_corpus  # noqa: E402

#: Figure 4 position counts measured at scale 1.0 — the paper's full
#: Figure-4 domain (FIG4_NET's canonical size is n = 8000).
FIG4_SWEEP = (500, 1000, 2000, 4000, 8000)
LIBRARY_SIZE = 32

#: CI thresholds embedded in the output (tools/perf_gate.py reads them
#: back from the freshly generated file).
CI_GATE = {
    # Points with at least this many *actual* positions are gated.
    "min_positions": 1000,
    # The picked store's seconds must be <= this multiple of the
    # other store's (median of per-round ratios).
    "max_picked_over_other": 1.0,
}


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _paired_rounds(
    first: Callable[[], object], second: Callable[[], object], rounds: int
) -> tuple:
    """Per-round seconds of two rivals, the one that runs first
    alternating every round, so both see the same background drift
    (thermal throttling, noisy neighbours) and neither always runs
    on a cache the other just warmed."""
    first_seconds: List[float] = []
    second_seconds: List[float] = []
    for round_index in range(rounds):
        order = ((first, first_seconds), (second, second_seconds))
        if round_index % 2:
            order = order[::-1]
        for solve, seconds in order:
            started = time.perf_counter()
            solve()
            seconds.append(time.perf_counter() - started)
    return first_seconds, second_seconds


def _backends() -> List[str]:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return ["object"]
    return ["object", "soa"]


def measure_fig4(scale: float, repeats: int) -> Dict:
    """Per point: both stores' compiled repeat-solve seconds in paired
    rounds, and how the static rule's pick compares to the other."""
    points = []
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    backends = _backends()
    for target in FIG4_SWEEP:
        positions = max(int(target * scale), 50)
        compiled = compile_net(
            build_net(FIG4_NET, positions_override=positions), library
        )
        picked = static_store(features_of(compiled, library))
        solves = {
            backend: (lambda backend=backend: insert_buffers(
                compiled, library, algorithm="fast", backend=backend
            ))
            for backend in backends
        }
        for solve in solves.values():
            solve()  # warm the factory's scratch arena/tape
        point = {
            "positions": positions,
            "target_positions": target,
            "picked": picked,
        }
        if len(backends) == 2:
            other = "soa" if picked == "object" else "object"
            picked_seconds, other_seconds = _paired_rounds(
                solves[picked], solves[other], repeats
            )
            point[f"{picked}_seconds"] = statistics.median(picked_seconds)
            point[f"{other}_seconds"] = statistics.median(other_seconds)
            point["picked_over_other"] = statistics.median(
                mine / theirs
                for mine, theirs in zip(picked_seconds, other_seconds)
            )
        else:
            point["object_seconds"] = _best_of(solves["object"], repeats)
        points.append(point)
    return {
        "algorithm": "fast",
        "library_size": LIBRARY_SIZE,
        "points": points,
    }


def measure_op_profile(scale: float) -> Dict:
    """The wire/merge/buffer wall-clock split (object backend)."""
    spec = TABLE1_NETS[1] if scale == 1.0 else TABLE1_NETS[1].scale(scale)
    tree = build_net(spec)
    rows = []
    for size in (8, LIBRARY_SIZE):
        library = paper_library(size, jitter=0.03, seed=size)
        for algorithm in ("lillis", "fast"):
            profiler = KernelProfiler()
            with profile_scope(profiler, flush=False):
                insert_buffers(tree, library, algorithm=algorithm,
                               backend="object")
            seconds = profiler.seconds
            measured = seconds["wire"] + seconds["merge"] + seconds["buffer"]
            rows.append({
                "net": spec.name,
                "algorithm": algorithm,
                "library_size": size,
                "wire_seconds": seconds["wire"],
                "merge_seconds": seconds["merge"],
                "buffer_seconds": seconds["buffer"],
                "buffer_fraction": (
                    seconds["buffer"] / measured if measured else 0.0
                ),
            })
    return {"rows": rows}


def measure_fig3(scale: float, repeats: int) -> Dict:
    """One Figure 3 cell: the paper's lillis-vs-fast speedup."""
    spec = FIGURE_NET if scale == 1.0 else FIGURE_NET.scale(scale)
    tree = build_net(spec)
    library = paper_library(16, jitter=0.03, seed=16)
    compiled = compile_net(tree, library)
    # The object backend: the paper's lillis-vs-fast claim is about
    # per-candidate work, which the SoA backend's vectorized scans
    # deliberately sidestep.
    insert_buffers(compiled, library, algorithm="fast", backend="object")
    fast = _best_of(
        lambda: insert_buffers(compiled, library, algorithm="fast",
                               backend="object"),
        repeats,
    )
    lillis = _best_of(
        lambda: insert_buffers(compiled, library, algorithm="lillis",
                               backend="object"),
        repeats,
    )
    return {
        "net": spec.name,
        "backend": "object",
        "library_size": 16,
        "positions": compiled.num_buffer_positions,
        "lillis_seconds": lillis,
        "fast_seconds": fast,
        "speedup": lillis / fast if fast else float("inf"),
    }


def measure_batch(scale: float, repeats: int) -> Dict:
    """solve_many throughput over compiled nets, and payload sizes."""
    trees = batch_corpus(8, max(int(150 * scale), 30))
    library = paper_library(8, jitter=0.03, seed=8)
    results: Dict = {"nets": len(trees), "backends": []}
    compiled = [compile_net(tree, library) for tree in trees]
    results["payload_bytes_tree"] = len(pickle.dumps(trees))
    results["payload_bytes_compiled"] = len(pickle.dumps(compiled))
    for backend in _backends():
        def solve_compiled() -> None:
            solve_many(compiled, library, jobs=1, backend=backend)

        solve_compiled()  # warm arenas
        seconds = _best_of(solve_compiled, repeats)
        results["backends"].append({
            "backend": backend,
            "compiled_dispatch_seconds": seconds,
            "compiled_nets_per_second": len(trees) / seconds,
        })
    return results


def collect(scale: float, repeats: int) -> Dict:
    """Every persisted measurement, as one JSON-ready dict."""
    return {
        "meta": {
            "bench": "PR4 zero-object SoA kernel engine",
            "scale": scale,
            "repeats": repeats,
            "python": sys.version.split()[0],
            "backends": _backends(),
        },
        "ci_gate": dict(CI_GATE),
        "fig4": measure_fig4(scale, repeats),
        "op_profile": measure_op_profile(scale),
        "fig3": measure_fig3(scale, repeats),
        "batch": measure_batch(scale, repeats),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persist the PR4 benchmark trajectory to JSON.")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR4.json",
        help="output path (default: BENCH_PR4.json at the repo root)")
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="instance scale factor (default: $REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N timing repeats (default 5)")
    args = parser.parse_args(argv)

    payload = collect(args.scale, args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    fig4 = payload["fig4"]
    print(f"fig4 trunk sweep (fast, b={fig4['library_size']}):")
    for point in fig4["points"]:
        line = (f"  n={point['positions']:>5} picked {point['picked']:<7}"
                f" object {point['object_seconds']*1e3:9.2f}ms")
        if "soa_seconds" in point:
            line += (f"  soa {point['soa_seconds']*1e3:9.2f}ms"
                     f"  picked/other {point['picked_over_other']:.3f}")
        print(line)
    for row in payload["op_profile"]["rows"]:
        print(f"op split {row['algorithm']:<7} b={row['library_size']:<3}"
              f" wire {row['wire_seconds']*1e3:7.2f}ms"
              f" merge {row['merge_seconds']*1e3:7.2f}ms"
              f" buffer {row['buffer_seconds']*1e3:7.2f}ms"
              f" (buffer share {row['buffer_fraction']:.0%})")
    fig3 = payload["fig3"]
    print(f"fig3 cell b=16: lillis/fast = {fig3['speedup']:.2f}x")
    for row in payload["batch"]["backends"]:
        print(f"batch {row['backend']:<7}"
              f" {row['compiled_nets_per_second']:6.1f} nets/s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
