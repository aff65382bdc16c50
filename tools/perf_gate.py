#!/usr/bin/env python3
"""CI perf smoke gate over freshly generated benchmark JSON files.

Accepts any mix of the repository's benchmark trajectory files and
dispatches on their content; exit 1 when any gated measurement
regresses.  Thresholds always come from the benchmark file itself
(``ci_gate``), so a bench and its gate cannot drift apart.

* ``BENCH_PR4.json`` (has ``fig4``) — the store-routing gate: on every
  Figure 4 trunk point (b = 32) at or above ``ci_gate.min_positions``,
  the store that :func:`repro.routing.router.static_store` picks must
  not be slower than ``ci_gate.max_picked_over_other`` times the other
  store (``picked_over_other``: the median of per-round paired ratios,
  see ``benchmarks/persist.py``).  The rule solves every single net on
  ``object``, so today this checks that ``object`` beats ``soa`` on the
  gated trunks.
* ``BENCH_PR5.json`` (has ``incremental``) — the incremental-engine
  gate: at every trunk point with at least ``ci_gate.min_positions``
  actual positions, the edit-replay headline (the geometric mean of
  per-edit incremental-vs-scratch speedups; see
  ``benchmarks/bench_incremental.py`` for the workload definition) of
  the ``ci_gate.backend`` store must be at least
  ``ci_gate.min_speedup``.  That store is ``object``, the one sessions
  run on; points of any other store print as ungated context.
* ``BENCH_PR6.json`` (has ``batch_axis``) — the batch-axis gate: every
  multi-corner group cell with at least ``ci_gate.min_positions``
  actual positions and at least ``ci_gate.min_group`` lanes must solve
  at least ``ci_gate.min_speedup`` times faster through one
  ``solve_group`` call than through per-net sequential solves of the
  same pre-compiled lanes (see ``benchmarks/bench_batch_axis.py``).
  Smaller cells are printed as ungated context.
* ``BENCH_PR8.json`` (has ``routing``) — the execution-routing gate:
  on the mixed replay corpus the default ``static`` policy's total must
  reach ``ci_gate.min_static_speedup_vs_oracle`` of the oracle
  (per-request best measured plan; see ``benchmarks/bench_routing.py``).
* ``BENCH_PR9.json`` (has ``resilience``) — the chaos gate: under the
  committed fault plan (seeded worker crashes and hangs; see
  ``benchmarks/bench_resilience.py``) at least
  ``ci_gate.min_success_rate`` of requests must return an answer, and
  with ``ci_gate.require_bit_identical`` every answer must match the
  healthy in-process solve bit-for-bit.
* ``BENCH_PR10.json`` (has ``obs``) — the observability-overhead gate:
  on the Figure-4 trunk compiled solve, the disabled observability
  path (thread-local polls, nothing installed) must stay within
  ``ci_gate.max_disabled_over_bypass`` of the hard-bypassed baseline,
  read as the median of per-round ratios over paired rounds (see
  ``benchmarks/bench_obs.py``).  The fully enabled profiling+tracing
  cost is printed as ungated context.
* ``BENCH_PR7.json`` (has ``fig4_trunk``) — the partitioned-solve gate:
  at every random-topology position level with at least
  ``ci_gate.min_positions`` actual positions, the best
  serial/partitioned speedup among engaged cells with at least
  ``ci_gate.min_workers`` workers must reach ``ci_gate.min_speedup``
  (see ``benchmarks/bench_parallel.py``).  Trunk cells are fallback
  context, never gated; the whole gate is skipped with a note when
  ``meta.cpu_count`` is below ``min_workers`` (a single-core box
  cannot measure multi-core speedup).

Usage::

    python tools/perf_gate.py BENCH_PR4.json [BENCH_PR5.json ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def check_obs_overhead(payload: dict, path: Path) -> int:
    gate = payload["ci_gate"]
    max_ratio = gate["max_disabled_over_bypass"]

    report = payload["obs"]
    ratio = report["disabled_over_bypass"]
    print(
        f"perf gate: n={report['positions']} backend={report['backend']}  "
        f"bypass {report['bypass_seconds']*1e3:9.2f}ms  "
        f"disabled {report['disabled_seconds']*1e3:9.2f}ms  "
        f"enabled {report['enabled_seconds']*1e3:9.2f}ms "
        f"({report['enabled_over_bypass']:.2f}x, info)"
    )
    verdict = "ok" if ratio <= max_ratio else "FAIL"
    print(
        f"perf gate: disabled/bypass {ratio:.4f} "
        f"(median of {report.get('paired_rounds', 1)} paired rounds, "
        f"limit {max_ratio:.2f})  {verdict}"
    )
    if verdict == "FAIL":
        print(
            "perf gate: the disabled observability path is no longer "
            "near-free — an instrumentation check leaked into a hot loop"
        )
        return 1
    return 0


def check_resilience(payload: dict, path: Path) -> int:
    gate = payload["ci_gate"]
    min_success = gate["min_success_rate"]
    require_identical = gate.get("require_bit_identical", False)

    report = payload["resilience"]
    success_rate = report["success_rate"]
    identical_fraction = report["bit_identical_fraction"]
    latency = report["latency"]
    supervisor = report["supervisor"]
    print(
        f"perf gate: chaos run {report['successes']}/{report['requests']} "
        f"ok, {report['bit_identical']} bit-identical, "
        f"p50 {latency['p50_seconds']*1e3:.1f}ms "
        f"p99 {latency['p99_seconds']*1e3:.1f}ms "
        f"({supervisor['retries']} retries, {supervisor['respawns']} "
        f"respawns, {supervisor['fallbacks']} fallbacks)"
    )

    failures = 0
    verdict = "ok" if success_rate >= min_success else "FAIL"
    if verdict == "FAIL":
        failures += 1
    print(
        f"perf gate: success rate {success_rate:.3f} "
        f"(floor {min_success:.2f})  {verdict}"
    )
    if require_identical:
        verdict = "ok" if identical_fraction == 1.0 else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(
            f"perf gate: bit-identical fraction {identical_fraction:.3f} "
            f"(must be 1.000)  {verdict}"
        )
    for failure in report["failures"]:
        print(f"perf gate:   escaped failure: {failure}")
    if failures:
        print(
            f"perf gate: {failures} resilience threshold(s) missed — "
            "requests failed or answers drifted under the fault plan"
        )
    return 1 if failures else 0


def check_fig4(payload: dict, path: Path) -> int:
    gate = payload["ci_gate"]
    min_positions = gate["min_positions"]
    max_ratio = gate["max_picked_over_other"]

    gated = [
        point for point in payload["fig4"]["points"]
        if point["positions"] >= min_positions and "picked_over_other" in point
    ]
    if not gated:
        print(
            f"perf gate: no fig4 points with >= {min_positions} positions "
            "and both stores measured — nothing to gate (is numpy "
            "installed and the scale high enough?)"
        )
        return 1

    failures = 0
    for point in gated:
        ratio = point["picked_over_other"]
        verdict = "ok" if ratio <= max_ratio else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(
            f"perf gate: n={point['positions']:>5}  object "
            f"{point['object_seconds']*1e3:9.2f}ms  soa "
            f"{point['soa_seconds']*1e3:9.2f}ms  picked {point['picked']:<6}"
            f"  picked/other {ratio:.3f} (limit {max_ratio:.3f})  {verdict}"
        )
    if failures:
        print(
            f"perf gate: {failures} point(s) regressed — the store the "
            "static routing rule picks is slower than the other one"
        )
    return 1 if failures else 0


def check_incremental(payload: dict, path: Path) -> int:
    gate = payload["ci_gate"]
    min_positions = gate["min_positions"]
    min_speedup = gate["min_speedup"]
    # The gate pins the production path (the store sessions run on,
    # recorded at generation time); other backends are reported ungated.
    gate_backend = gate.get("backend")

    points = payload["incremental"]["points"]
    gated = [
        point for point in points
        if point["positions"] >= min_positions
        and (gate_backend is None or point["backend"] == gate_backend)
    ]
    if not gated:
        print(
            f"perf gate: no incremental points with >= {min_positions} "
            f"positions on backend {gate_backend!r} — nothing to gate "
            "(is the scale high enough?)"
        )
        return 1

    failures = 0
    for point in points:
        if point["positions"] < min_positions:
            continue
        speedup = point["geomean_speedup"]
        if point in gated:
            verdict = "ok" if speedup >= min_speedup else "FAIL"
        else:
            verdict = "(info)"
        if verdict == "FAIL":
            failures += 1
        detail = "  ".join(
            f"{name} {bucket['speedup_total']:.2f}x"
            for name, bucket in point["classes"].items()
        )
        print(
            f"perf gate: n={point['positions']:>5} {point['backend']:<7}"
            f" edit-replay geomean {speedup:8.2f}x "
            f"(floor {min_speedup:.1f}x)  {verdict}   [{detail}]"
        )
    if failures:
        print(
            f"perf gate: {failures} point(s) below the incremental "
            "edit-replay speedup floor"
        )
    return 1 if failures else 0


def check_batch_axis(payload: dict, path: Path) -> int:
    gate = payload["ci_gate"]
    min_positions = gate["min_positions"]
    min_group = gate["min_group"]
    min_speedup = gate["min_speedup"]

    points = payload["batch_axis"]["points"]
    gated = [
        point for point in points
        if point["positions"] >= min_positions
        and point["lanes"] >= min_group
    ]
    if not gated:
        print(
            f"perf gate: no batch-axis cells with >= {min_positions} "
            f"positions and >= {min_group} lanes — nothing to gate "
            "(is the scale high enough?)"
        )
        return 1

    failures = 0
    for point in points:
        speedup = point["speedup"]
        if point in gated:
            verdict = "ok" if speedup >= min_speedup else "FAIL"
        else:
            verdict = "(info)"
        if verdict == "FAIL":
            failures += 1
        print(
            f"perf gate: n={point['positions']:>5} "
            f"lanes={point['lanes']:>3}"
            f"  sequential {point['sequential_seconds']*1e3:9.1f}ms"
            f"  batched {point['batched_seconds']*1e3:9.1f}ms"
            f"  speedup {speedup:6.2f}x (floor {min_speedup:.1f}x)  "
            f"{verdict}"
        )
    if failures:
        print(
            f"perf gate: {failures} cell(s) below the batch-axis "
            "group-solve speedup floor"
        )
    return 1 if failures else 0


def check_parallel(payload: dict, path: Path) -> int:
    gate = payload["ci_gate"]
    min_positions = gate["min_positions"]
    min_workers = gate["min_workers"]
    min_speedup = gate["min_speedup"]

    cpu_count = payload.get("meta", {}).get("cpu_count")
    if cpu_count is not None and cpu_count < min_workers:
        # A box with fewer cores than the gated worker count cannot
        # honestly measure multi-core speedup — worker processes just
        # time-slice one core.  The numbers stay in the file as
        # context; the gate only binds where it can mean something.
        print(
            f"perf gate: skipping parallel speedup gate — generated on "
            f"{cpu_count} core(s), gate needs >= {min_workers} "
            "(see meta.cpu_count)"
        )
        return 0

    failures = 0
    gated_levels = 0
    for point in payload["random"]["points"]:
        positions = point["positions"]
        level_gated = positions >= min_positions
        best = 0.0
        for cell in point["cells"]:
            qualifying = (
                level_gated and cell["workers"] >= min_workers
                and cell["engaged"]
            )
            if qualifying:
                best = max(best, cell["speedup"])
            note = "" if cell["engaged"] else " fallback"
            print(
                f"perf gate: n={positions:>7} workers={cell['workers']:>2}"
                f"  serial {point['serial_seconds']:8.2f}s"
                f"  partitioned {cell['partitioned_seconds']:8.2f}s"
                f"  speedup {cell['speedup']:5.2f}x"
                f"  {'gated' if qualifying else '(info)'}{note}"
            )
        if level_gated:
            gated_levels += 1
            verdict = "ok" if best >= min_speedup else "FAIL"
            if verdict == "FAIL":
                failures += 1
            print(
                f"perf gate: n={positions:>7} best gated speedup "
                f"{best:5.2f}x (floor {min_speedup:.1f}x)  {verdict}"
            )
    for point in payload.get("fig4_trunk", {}).get("points", ()):
        for cell in point["cells"]:
            print(
                f"perf gate: trunk n={point['positions']:>7} "
                f"workers={cell['workers']:>2}"
                f"  speedup {cell['speedup']:5.2f}x  (info, "
                f"{'engaged' if cell['engaged'] else 'serial fallback'})"
            )
    if not gated_levels:
        print(
            f"perf gate: no random-topology points with >= {min_positions} "
            "positions — nothing to gate (is the scale high enough?)"
        )
        return 1
    if failures:
        print(
            f"perf gate: {failures} position level(s) below the "
            "partitioned-solve speedup floor"
        )
    return 1 if failures else 0


def check_routing(payload: dict, path: Path) -> int:
    min_static_vs_oracle = payload["ci_gate"]["min_static_speedup_vs_oracle"]

    report = payload["routing"]
    policies = report["policies"]
    if "static" not in policies:
        print("perf gate: replay report has no 'static' policy bucket")
        return 1

    oracle = report["oracle_seconds"]
    print(
        f"perf gate: {report['requests']} requests, "
        f"parity checked across {report['parity_checked']} plan runs, "
        f"oracle {oracle*1e3:.1f}ms"
    )
    for name, bucket in policies.items():
        print(
            f"perf gate:   {name:<16}"
            f" {bucket['total_seconds']*1e3:9.1f}ms"
            f"  vs-oracle {bucket['speedup_vs_oracle']:5.2f}x"
            f"  vs-static {bucket['speedup_vs_static']:5.2f}x"
        )

    static_vs_oracle = policies["static"]["speedup_vs_oracle"]
    ok = static_vs_oracle >= min_static_vs_oracle
    print(
        f"perf gate: static vs oracle {static_vs_oracle:.3f} "
        f"(floor {min_static_vs_oracle:.2f})  {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        print(
            "perf gate: the default routing policy is leaving measured "
            "wall time on the table"
        )
    return 0 if ok else 1


def check(path: Path) -> int:
    payload = json.loads(path.read_text())
    if not payload.get("ci_gate"):
        print(f"perf gate: {path} has no ci_gate section")
        return 1
    print(f"perf gate: {path}")
    if "obs" in payload:
        return check_obs_overhead(payload, path)
    if "resilience" in payload:
        return check_resilience(payload, path)
    if "routing" in payload:
        return check_routing(payload, path)
    if "incremental" in payload:
        return check_incremental(payload, path)
    if "fig4_trunk" in payload:
        return check_parallel(payload, path)
    if "fig4" in payload:
        return check_fig4(payload, path)
    if "batch_axis" in payload:
        return check_batch_axis(payload, path)
    print(f"perf gate: {path} has no recognized benchmark section")
    return 1


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    status = 0
    for name in argv[1:]:
        status |= check(Path(name))
    if status == 0:
        print("perf gate: pass")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
