"""Observability overhead benchmark — ``BENCH_PR10.json``.

The observability layer's core promise is that *not using it is free*:
with no profiler and no tracer installed, every instrumented layer pays
a single thread-local read per solve (``instrument_ops`` returns the op
callables unchanged), plus one histogram observation per solve for the
always-on ``DPStats`` feed.  This benchmark prices that promise on the
Figure-4 trunk workload (compiled solve on the ``soa`` store, the one
this gate has timed since it was added) against a hard-bypassed
baseline (``repro.obs.profiler.set_bypass``, which removes even the
entry checks), and records — ungated — what fully enabled profiling +
tracing costs.

Measured modes:

* ``bypass``   — ``set_bypass(True)``: the instrumentation entry checks
  short-circuit; the closest honest stand-in for "the code before the
  observability layer existed".
* ``disabled`` — the production default: observability importable and
  polled, nothing installed.  **Gated**: the median over
  :data:`PAIRED_ROUNDS` paired rounds of the per-round
  ``disabled / bypass`` time ratio must stay within
  ``ci_gate.max_disabled_over_bypass`` (2%).  Each round times the two
  back to back, the one that runs first alternating, so both see the
  same background drift; a ratio of two best-of times, which this gate
  read before, flipped on unchanged code.
* ``enabled``  — ``profile_scope`` + ``trace_scope`` active, default
  sampling, best of ``--repeats``.  Recorded as context; timed wrappers
  around every kernel op are expected to cost real time.

``ci_gate`` thresholds are embedded in the output and enforced by
``tools/perf_gate.py`` against a freshly generated file.

Run::

    PYTHONPATH=src python benchmarks/bench_obs.py \\
        [--out BENCH_PR10.json] [--scale 1.0] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.api import insert_buffers
from repro.core.schedule import compile_net
from repro.experiments.workloads import FIG4_NET, build_net
from repro.library.generators import paper_library
from repro.obs.profiler import KernelProfiler, profile_scope, set_bypass
from repro.obs.spans import Tracer, trace_scope

#: Figure-4 trunk size at scale 1.0 (the paper's mid sweep point; large
#: enough that per-instruction costs dominate fixed solve overhead).
FULL_POSITIONS = 4000
LIBRARY_SIZE = 32

#: Paired bypass/disabled rounds behind the gated median ratio.
PAIRED_ROUNDS = 15

CI_GATE = {
    # The disabled observability path (thread-local poll + one DPStats
    # histogram observation per solve) must stay within 2% of the
    # hard-bypassed baseline on the gated workload.
    "max_disabled_over_bypass": 1.02,
}


def measure(scale: float, repeats: int) -> Dict:
    positions = max(250, int(round(FULL_POSITIONS * scale)))
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    tree = build_net(FIG4_NET, positions_override=positions)
    # Named explicitly: a single net routes to object, but this gate
    # keeps timing the soa solve it was recorded on.
    backend = "soa"
    compiled = compile_net(tree, library)

    def solve() -> None:
        insert_buffers(compiled, library, backend=backend)

    solve()  # warm schedule/store caches before timing anything

    def timed(fn) -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    def bypassed() -> None:
        set_bypass(True)
        try:
            solve()
        finally:
            set_bypass(False)

    seconds = {"bypass": [], "disabled": []}
    for round_index in range(PAIRED_ROUNDS):
        order = (("bypass", bypassed), ("disabled", solve))
        if round_index % 2:
            order = order[::-1]
        for mode, run in order:
            seconds[mode].append(timed(run))
    ratios = [
        disabled / bypass
        for disabled, bypass in zip(seconds["disabled"], seconds["bypass"])
    ]

    enabled = float("inf")
    profiler = KernelProfiler()
    for _ in range(repeats):
        tracer = Tracer()
        with trace_scope(tracer), profile_scope(profiler, flush=False):
            enabled = min(enabled, timed(solve))

    bypass_best = min(seconds["bypass"])
    return {
        "positions": positions,
        "library_size": LIBRARY_SIZE,
        "backend": backend,
        "paired_rounds": PAIRED_ROUNDS,
        "bypass_seconds": bypass_best,
        "disabled_seconds": min(seconds["disabled"]),
        "enabled_seconds": enabled,
        "disabled_over_bypass": statistics.median(ratios),
        "round_ratios": ratios,
        "enabled_over_bypass": enabled / bypass_best,
        "profiled": profiler.snapshot(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR10.json")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of runs of the enabled mode (default 5)")
    args = parser.parse_args(argv)

    report = measure(args.scale, args.repeats)
    payload = {
        "meta": {
            "generated_unix": int(time.time()),
            "scale": args.scale,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "obs": report,
        "ci_gate": dict(CI_GATE),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"bench_obs: n={report['positions']} backend={report['backend']}  "
        f"bypass {report['bypass_seconds']*1e3:.2f}ms  "
        f"disabled {report['disabled_seconds']*1e3:.2f}ms "
        f"(median paired ratio {report['disabled_over_bypass']:.4f}x)  "
        f"enabled {report['enabled_seconds']*1e3:.2f}ms "
        f"({report['enabled_over_bypass']:.2f}x)"
    )
    print(f"bench_obs: wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
