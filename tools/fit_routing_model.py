#!/usr/bin/env python3
"""Fit the routing cost-model artifact from committed benchmark sweeps.

Produces ``src/repro/routing/model_default.json``, the versioned
artifact :mod:`repro.routing.cost_model` ships with.  Two data sources:

1. **Committed BENCH files** (offline, the authoritative large-work
   anchors): ``BENCH_PR4.json`` fig4 points give compiled seconds per
   backend at ``b=32``, positions 500..8000;
   ``BENCH_PR6.json`` gives the batch-axis speedup surface over
   ``(work, lanes)``; ``BENCH_PR5.json`` gives the splice overhead
   fraction (``1/speedup - executed_fraction`` per edit class);
   ``BENCH_PR7.json`` engaged cells give the partitioned solve's
   residual fraction and planning overhead.
2. **Micro-calibration** (a few seconds of local solves on tiny nets):
   the committed sweeps never measured nets below 500 positions, but
   routing's most consequential calls are exactly there — the numpy
   launch-latency floor that makes ``object`` beat ``soa`` on small
   work.  ``--no-calibrate`` skips it and clamps the curves at the
   smallest committed anchor instead.

The curves are stored as piecewise-linear knots over the DP work
product ``positions^2 * library_size`` (the paper's O(b n^2));
prediction-time interpolation lives in
:func:`repro.routing.cost_model._interp`.

Usage::

    PYTHONPATH=src python tools/fit_routing_model.py \
        --out src/repro/routing/model_default.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

MODEL_VERSION = "routing-model/1"

#: (sinks, seed, library_size) cells of the micro-calibration sweep —
#: small nets only; the committed sweeps own the large end.
CALIBRATION_CELLS = (
    (2, 3, 4),
    (4, 5, 8),
    (8, 11, 8),
    (16, 7, 16),
    (32, 13, 32),
    (64, 17, 32),
    (96, 19, 8),
    (128, 23, 32),
)


def _best_of(fn, repeats: int = 5) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def calibrate(repeats: int = 5) -> dict:
    """Measure the solo strategies on tiny nets; knots by strategy."""
    from repro import paper_library
    from repro.core.api import insert_buffers
    from repro.core.schedule import compile_net
    from repro.core.stores import resolve_backend
    from repro.tree.builders import random_tree_net

    backends = ["object"]
    if resolve_backend("auto") == "soa":
        backends.append("soa")
    knots: dict = {}
    for sinks, seed, b in CALIBRATION_CELLS:
        library = paper_library(b)
        tree = random_tree_net(sinks, seed=seed)
        compiled = compile_net(tree, library)
        # The paper-complexity axis O(b n^2) — see
        # repro.routing.features.RequestFeatures.work.
        work = compiled.num_buffer_positions ** 2 * b
        for backend in backends:
            # Warm the kernels/plans outside the timed region.
            insert_buffers(compiled, library, backend=backend)
            compiled_seconds = _best_of(
                lambda: insert_buffers(compiled, library, backend=backend),
                repeats,
            )
            knots.setdefault(f"{backend}-compiled", []).append(
                [work, compiled_seconds]
            )
    return knots


def bench_anchors(pr4: dict) -> dict:
    """Large-work knots from the committed PR4 fig4 sweep."""
    library_size = pr4["fig4"]["library_size"]
    knots: dict = {}
    for point in pr4["fig4"]["points"]:
        work = point["positions"] ** 2 * library_size
        backend = point["backend"]
        knots.setdefault(f"{backend}-compiled", []).append(
            [work, point["compiled_seconds"]]
        )
    return knots


def _merge_knots(*sources: dict) -> dict:
    merged: dict = {}
    for source in sources:
        for key, points in source.items():
            merged.setdefault(key, []).extend(points)
    for key, points in merged.items():
        points.sort(key=lambda knot: knot[0])
        deduped = []
        for work, seconds in points:
            if deduped and deduped[-1][0] == work:
                deduped[-1][1] = min(deduped[-1][1], seconds)
            else:
                deduped.append([work, seconds])
        merged[key] = deduped
    return merged


#: (sinks, seed) cells of the small-scale batch calibration and the
#: lane widths measured per cell (library size fixed at b=8 — the
#: regime the committed PR6 trunk sweep never covered).
BATCH_CALIBRATION_CELLS = ((32, 13), (64, 17))
BATCH_CALIBRATION_LANES = (4, 16, 64)


def calibrate_batch(repeats: int = 3) -> dict:
    """Measure batch-axis speedup rows at small work (b=8 corner groups).

    The committed PR6 surface was swept on ``b=32`` trunk nets, whose
    smallest work cell (~320k) is far above where mixed workloads live;
    extrapolating it downward overstates the batch win on small nets.
    These rows anchor the surface's low-work edge with directly
    measured ``solve_group`` vs per-net sequential speedups.
    """
    from repro import paper_library
    from repro.core.api import insert_buffers
    from repro.core.schedule import compile_net, run_compiled_group
    from repro.experiments.workloads import corner_variants
    from repro.tree.builders import random_tree_net

    rows: dict = {}
    library = paper_library(8)
    for sinks, seed in BATCH_CALIBRATION_CELLS:
        base = random_tree_net(sinks, seed=seed)
        compiled = compile_net(base, library)
        work = compiled.num_buffer_positions ** 2 * library.size
        speedups = []
        for lanes in BATCH_CALIBRATION_LANES:
            variants = [
                compile_net(tree, library)
                for _, tree in corner_variants(base, lanes)
            ]
            # Warm kernels/plans outside the timed region.
            for net in variants:
                insert_buffers(net, library, backend="soa")
            run_compiled_group(variants, library)
            sequential = _best_of(
                lambda: [
                    insert_buffers(net, library, backend="soa")
                    for net in variants
                ],
                repeats,
            )
            batched = _best_of(
                lambda: run_compiled_group(variants, library), repeats
            )
            speedups.append(max(sequential / batched, 0.05))
        rows[work] = speedups
    return rows


def batch_surface(pr6: dict, calibrated_rows: dict = None) -> dict:
    """Speedup grid over ``(work, lanes)`` — PR6 trunk rows at the
    large-work end plus optional small-work calibration rows."""
    library_size = pr6["batch_axis"]["library_size"]
    points = pr6["batch_axis"]["points"]
    lanes = sorted({p["lanes"] for p in points})
    rows: dict = {}
    for point in points:
        work = point["positions"] ** 2 * library_size
        row = rows.setdefault(work, [1.0] * len(lanes))
        row[lanes.index(point["lanes"])] = point["speedup"]
    for work, speedups in (calibrated_rows or {}).items():
        # Calibration rows are measured at BATCH_CALIBRATION_LANES;
        # resample them onto the PR6 lane axis by nearest measured lane.
        resampled = []
        for lane in lanes:
            nearest = min(
                range(len(BATCH_CALIBRATION_LANES)),
                key=lambda i: abs(BATCH_CALIBRATION_LANES[i] - lane),
            )
            resampled.append(speedups[nearest])
        rows[work] = resampled
    works = sorted(rows)
    return {
        "work": works,
        "lanes": lanes,
        "speedup": [rows[work] for work in works],
    }


def splice_overhead(pr5: dict) -> float:
    """Median of ``1/speedup - executed_fraction`` over edit classes."""
    overheads = []
    for point in pr5["incremental"]["points"]:
        fraction = point.get("mean_executed_fraction")
        if fraction is None:
            continue
        for bucket in point["classes"].values():
            speedup = bucket.get("speedup_geomean")
            if speedup and speedup > 0:
                overheads.append(max(1.0 / speedup - fraction, 0.0))
    if not overheads:
        return 0.1
    return min(max(statistics.median(overheads), 0.01), 0.5)


def parallel_params(pr7: dict) -> dict:
    residuals, overheads = [], []
    for point in pr7["random"]["points"]:
        for cell in point["cells"]:
            if cell.get("engaged"):
                residuals.append(cell["residual_fraction"])
                # dispatch_seconds includes waiting for worker results,
                # so only the cut-planning time counts as overhead here.
                overheads.append(cell.get("plan_seconds", 0.0))
    return {
        "residual_fraction": (
            round(statistics.mean(residuals), 4) if residuals else 0.3
        ),
        "overhead_seconds": (
            round(statistics.mean(overheads), 4) if overheads else 0.01
        ),
    }


def fit(bench_dir: Path, calibrate_local: bool, repeats: int) -> dict:
    pr4 = json.loads((bench_dir / "BENCH_PR4.json").read_text())
    pr5 = json.loads((bench_dir / "BENCH_PR5.json").read_text())
    pr6 = json.loads((bench_dir / "BENCH_PR6.json").read_text())
    pr7 = json.loads((bench_dir / "BENCH_PR7.json").read_text())

    sources = [bench_anchors(pr4)]
    calibrated = False
    batch_rows: dict = {}
    if calibrate_local:
        sources.insert(0, calibrate(repeats))
        calibrated = True
        from repro.core.stores.batch_axis import batch_axis_available

        if batch_axis_available():
            batch_rows = calibrate_batch(repeats)
    base = _merge_knots(*sources)
    if "soa-compiled" not in base:
        # A numpy-less calibration box leaves the soa curve to the
        # committed anchors alone — never drop a required strategy.
        base["soa-compiled"] = [
            [knot[0], knot[1] * 1.05] for knot in base["object-compiled"]
        ]
    return {
        "version": MODEL_VERSION,
        "fitted_from": [
            "BENCH_PR4.json", "BENCH_PR5.json",
            "BENCH_PR6.json", "BENCH_PR7.json",
        ],
        "calibrated": calibrated,
        "base": {
            key: {"knots": knots} for key, knots in sorted(base.items())
        },
        "batch_axis": batch_surface(pr6, batch_rows),
        "splice": {"overhead_fraction": splice_overhead(pr5)},
        "parallel": parallel_params(pr7),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir", type=Path, default=Path("."),
        help="directory holding the committed BENCH_PR*.json files",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path("src/repro/routing/model_default.json"),
    )
    parser.add_argument(
        "--no-calibrate", action="store_true",
        help="skip the local micro-calibration sweep",
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    spec = fit(args.bench_dir, not args.no_calibrate, args.repeats)

    # The artifact must load through the runtime validator.
    from repro.routing.cost_model import CostModel

    CostModel.from_spec(spec)

    args.out.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    total_knots = sum(len(c["knots"]) for c in spec["base"].values())
    print(
        f"wrote {args.out}: {len(spec['base'])} strategy curves, "
        f"{total_knots} knots, splice overhead "
        f"{spec['splice']['overhead_fraction']:.3f}, parallel residual "
        f"{spec['parallel']['residual_fraction']:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
