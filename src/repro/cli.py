"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the workflow a user needs without writing code:

* ``generate`` — synthesize a net and/or a buffer library to JSON;
* ``buffer``   — run an insertion algorithm on saved net + library and
  print the report (optionally saving the assignment);
* ``batch``    — buffer many saved nets in one run, optionally across
  worker processes (``--jobs``);
* ``edit``     — replay an ECO edit script against a saved net with the
  incremental engine (:mod:`repro.incremental`), re-solving only the
  dirty path per step; ``--verify`` cross-checks every step against a
  from-scratch solve;
* ``info``     — describe a saved net;
* ``serve``    — run the HTTP serving layer (:mod:`repro.service`):
  ``/solve``, ``/batch``, ``/session`` (stateful incremental ECO
  sessions), ``/healthz``, ``/stats`` with canonical-hash result
  caching and a persistent worker pool; ``--workload-log`` captures
  every routed solve to a JSONL file;
* ``replay``   — re-run a captured workload log (:mod:`repro.routing`)
  and price the static routing rule against the observed best plan of
  each request.

``--algorithm`` lists the registry's built-ins
(:data:`repro.core.registry.BUILTIN_ALGORITHMS`) without importing
them, and any name a plugin registered before :func:`main` runs is
selectable too; an unknown name exits 2 with the registry's message.
The candidate stores are the fixed
:data:`repro.core.stores.STORE_BACKENDS`.

Example session (see ``docs/cli.md`` for full transcripts)::

    python -m repro generate --net net.json --sinks 50 --positions 400 \\
                             --library lib.json --library-size 16
    python -m repro buffer --net net.json --library lib.json --algorithm fast
    python -m repro batch --nets a.json b.json c.json --library lib.json \\
                          --jobs 4
    python -m repro edit --net net.json --library lib.json \\
                         --edits eco.json --verify
    python -m repro info --net net.json
    python -m repro serve --port 8080 --jobs 4 --workload-log workload.jsonl
    python -m repro replay --log workload.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

# Only what the parser needs loads here; each subcommand imports what
# it runs, so ``repro serve`` starts without the strategies, the
# builders, the report printer or the batch solver.
from repro.core.registry import BUILTIN_ALGORITHMS
from repro.core.stores import AUTO_BACKEND, SPLICE_BACKEND, STORE_BACKENDS

#: ``--algorithm``'s metavar and help, from the registry's names alone.
_ALGORITHM_METAVAR = "{" + ",".join(BUILTIN_ALGORITHMS) + "}"
_ALGORITHM_HELP = (
    f"insertion algorithm: one of {', '.join(BUILTIN_ALGORITHMS)} "
    "(default fast), or the name of a plugin registered before main() "
    "runs"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal buffer insertion (Li & Shi, DATE 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a net and/or library")
    gen.add_argument("--net", type=Path, help="write the net JSON here")
    gen.add_argument("--sinks", type=int, default=50, help="sink count m")
    gen.add_argument("--positions", type=int, default=400,
                     help="buffer-position count n (via wire segmenting)")
    gen.add_argument("--seed", type=int, default=2005)
    gen.add_argument("--driver-resistance", type=float, default=200.0)
    gen.add_argument("--rat-ps", type=float, nargs=2, default=(500.0, 3000.0),
                     metavar=("LO", "HI"),
                     help="sink required-arrival window in picoseconds")
    gen.add_argument("--library", type=Path, help="write the library JSON here")
    gen.add_argument("--library-size", type=int, default=16, help="b")

    buf = sub.add_parser("buffer", help="run buffer insertion")
    buf.add_argument("--net", type=Path, required=True)
    buf.add_argument("--library", type=Path, required=True)
    buf.add_argument("--algorithm", default="fast",
                     metavar=_ALGORITHM_METAVAR, help=_ALGORITHM_HELP)
    buf.add_argument("--backend",
                     choices=(AUTO_BACKEND,) + STORE_BACKENDS,
                     default="auto",
                     help="candidate-store backend; 'auto' (default) "
                          "picks object for a single net; a partitioned "
                          "solve (--jobs > 1) runs on object and takes "
                          "'auto' or 'object' only")
    buf.add_argument("--paper-pseudocode", action="store_true",
                     help="use the paper's destructive Convexpruning "
                          "(exact on 2-pin nets only)")
    buf.add_argument("--jobs", type=int, default=1,
                     help="worker processes for a partitioned solve of "
                          "this single net, >= 1 (default 1 = serial; "
                          "large nets are cut into balanced subtrees "
                          "solved concurrently, bit-identical result)")
    buf.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                     help="wall-clock budget for the solve in "
                          "milliseconds; exceeding it aborts with exit "
                          "code 2 (default: no deadline)")
    buf.add_argument("--output", type=Path,
                     help="write the buffer assignment JSON here")
    buf.add_argument("--show-tree", action="store_true",
                     help="print an ASCII sketch with buffer markers")
    buf.add_argument("--trace", type=Path, default=None, metavar="FILE",
                     help="write a Chrome trace_event JSON of this solve "
                          "(route/compile/kernel/worker spans; open it at "
                          "https://ui.perfetto.dev)")

    batch = sub.add_parser(
        "batch", help="buffer many nets in one run (multi-process capable)")
    batch.add_argument("--nets", type=Path, nargs="*", required=True,
                       metavar="NET", help="net JSON files to buffer")
    batch.add_argument("--library", type=Path, required=True)
    batch.add_argument("--algorithm", default="fast",
                       metavar=_ALGORITHM_METAVAR, help=_ALGORITHM_HELP)
    batch.add_argument("--backend",
                       choices=(AUTO_BACKEND,) + STORE_BACKENDS,
                       default="auto",
                       help="candidate-store backend; 'auto' (default) "
                            "picks object for each net, and the soa batch "
                            "axis for a corner group with long candidate "
                            "lists")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes, >= 1 (default 1; pass your "
                            "CPU count for one worker per core)")
    batch.add_argument("--corners", type=int, default=0, metavar="N",
                       help="replicate every net across N R/C process "
                            "corners and buffer all replicas (corner "
                            "groups ride the batch-axis engine on the "
                            "soa backend)")
    batch.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="wall-clock budget for the whole batch in "
                            "milliseconds; exceeding it aborts with exit "
                            "code 2 (default: no deadline)")
    batch.add_argument("--output", type=Path,
                       help="write per-net results JSON here")

    edit = sub.add_parser(
        "edit",
        help="replay an ECO edit script with incremental re-solving")
    edit.add_argument("--net", type=Path, required=True)
    edit.add_argument("--library", type=Path, required=True)
    edit.add_argument("--edits", type=Path, required=True,
                      help="JSON file: a list of edit objects "
                           '(e.g. [{"op": "set_sink_rat", "node": 3, '
                           '"required_arrival": 9e-10}, ...]); node ids '
                           "are the loaded net's ids (see 'repro info')")
    edit.add_argument("--algorithm", default="fast",
                      metavar=_ALGORITHM_METAVAR, help=_ALGORITHM_HELP)
    edit.add_argument("--verify", action="store_true",
                      help="cross-check every step against a from-scratch "
                           "solve (bit-identical slack and assignment)")
    edit.add_argument("--output", type=Path,
                      help="write per-step results JSON here")

    info = sub.add_parser("info", help="describe a saved net")
    info.add_argument("--net", type=Path, required=True)

    serve = sub.add_parser(
        "serve", help="run the HTTP serving layer (solve/batch/healthz/stats)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (default 8080; 0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes per solve pool, >= 1 "
                            "(default 1 = solve in the server process; "
                            "requests route to the same store at any "
                            "--jobs)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache capacity in entries (default 1024)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="result-cache TTL in seconds "
                            "(default: no expiry)")
    serve.add_argument("--max-pools", type=int, default=4,
                       help="distinct solve contexts kept warm (default 4)")
    serve.add_argument("--max-sessions", type=int, default=32,
                       help="live incremental ECO sessions kept resident; "
                            "least recently used beyond this are evicted "
                            "(default 32)")
    serve.add_argument("--session-ttl", type=float, default=3600.0,
                       help="seconds an idle session stays alive "
                            "(default 3600; <= 0 disables expiry)")
    serve.add_argument("--parallel-threshold", type=int, default=None,
                       metavar="N",
                       help="instruction count above which a single "
                            "/solve net is partitioned across the "
                            "pool's workers (default: calibrated; "
                            "needs --jobs > 1)")
    serve.add_argument("--workload-log", type=Path, default=None,
                       metavar="PATH",
                       help="append one JSONL record per routed solve "
                            "here ('repro replay' re-runs it offline)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="solve dispatches allowed to run "
                            "concurrently (default 8)")
    serve.add_argument("--max-queue-depth", type=int, default=32,
                       metavar="N",
                       help="requests allowed to wait for an admission "
                            "slot before the server sheds load with a "
                            "503 + Retry-After (default 32; 0 sheds "
                            "immediately when saturated)")
    serve.add_argument("--max-request-bytes", type=int,
                       default=64 * 1024 * 1024, metavar="BYTES",
                       help="request-body size cap; larger bodies are "
                            "rejected with a 413 (default 64 MiB)")
    serve.add_argument("--max-positions", type=int, default=None,
                       metavar="N",
                       help="per-net cap on buffer positions; larger "
                            "nets are rejected with a 422 (default: "
                            "unlimited)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="default per-request solve deadline in "
                            "milliseconds, answered with a 504 when "
                            "exceeded; a request's own deadline_ms "
                            "overrides it (default: no deadline)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit structured JSON log lines on stderr, "
                            "each stamped with the request id it "
                            "belongs to")

    replay = sub.add_parser(
        "replay",
        help="re-run a captured workload log and price the routing rule")
    replay.add_argument("--log", type=Path, required=True,
                        help="workload JSONL captured with capture='full' "
                             "(the committed corpus format)")
    replay.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per (request, plan); the "
                             "best is kept (default 3)")
    replay.add_argument("--per-request", action="store_true",
                        help="also print the per-request table")
    replay.add_argument("--output", type=Path,
                        help="write the full replay report JSON here")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.net is None and args.library is None:
        print("generate: nothing to do (pass --net and/or --library)",
              file=sys.stderr)
        return 2
    from repro.library.generators import paper_library
    from repro.tree.builders import random_tree_net
    from repro.tree.io import library_to_dict, save_tree
    from repro.tree.node import Driver
    from repro.tree.segmenting import segment_to_position_count
    from repro.units import ps

    if args.net is not None:
        lo, hi = args.rat_ps
        tree = random_tree_net(
            args.sinks,
            seed=args.seed,
            required_arrival=(ps(lo), ps(hi)),
            driver=Driver(resistance=args.driver_resistance),
        )
        tree = segment_to_position_count(tree, args.positions)
        save_tree(tree, args.net)
        print(f"wrote net: m={tree.num_sinks} n={tree.num_buffer_positions} "
              f"-> {args.net}")
    if args.library is not None:
        library = paper_library(args.library_size, jitter=0.03, seed=args.seed)
        args.library.write_text(json.dumps(library_to_dict(library), indent=2))
        print(f"wrote library: b={library.size} -> {args.library}")
    return 0


def _cmd_buffer(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"buffer: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print(f"buffer: --deadline-ms must be > 0, got {args.deadline_ms}",
              file=sys.stderr)
        return 2
    if args.jobs > 1 and args.backend not in (AUTO_BACKEND, SPLICE_BACKEND):
        print(f"buffer: a partitioned solve (--jobs > 1) runs on the "
              f"{SPLICE_BACKEND} store; --backend {args.backend} needs "
              f"--jobs 1", file=sys.stderr)
        return 2
    from repro.core.api import insert_buffers
    from repro.errors import DeadlineExceeded, WorkerCrashError
    from repro.obs.spans import Tracer, new_request_id, request_scope, trace_scope
    from repro.report import full_report, render_tree
    from repro.resilience import Deadline
    from repro.tree.io import library_from_dict, load_tree

    tree = load_tree(args.net)
    library = library_from_dict(json.loads(args.library.read_text()))
    options = {}
    if args.paper_pseudocode:
        if args.algorithm != "fast":
            print("--paper-pseudocode only applies to --algorithm fast",
                  file=sys.stderr)
            return 2
        options["destructive_pruning"] = True
    deadline = (
        Deadline.from_ms(args.deadline_ms)
        if args.deadline_ms is not None else None
    )
    tracer = (
        Tracer(request_id=new_request_id())
        if args.trace is not None else None
    )

    def _solve():
        if args.jobs > 1:
            from repro.parallel import solve_partitioned

            report: dict = {}
            try:
                result = solve_partitioned(
                    tree, library, algorithm=args.algorithm,
                    jobs=args.jobs, options=options, report=report,
                    deadline=deadline,
                )
            except WorkerCrashError as exc:
                # The partitioned result is bit-identical to the serial
                # one by construction, so a crashed pool degrades to
                # the same answer — slower, never different.
                print(f"buffer: {exc}; retrying serially", file=sys.stderr)
                report = {"engaged": False,
                          "reason": "worker crash, degraded to serial"}
                result = insert_buffers(
                    tree, library, algorithm=args.algorithm,
                    backend=SPLICE_BACKEND, deadline=deadline, **options,
                )
            if report["engaged"]:
                print(f"partitioned solve: {report['partitions']} partitions "
                      f"across {report['workers']} workers, "
                      f"coverage {report['coverage']:.0%}, "
                      f"pool utilization {report['pool_utilization']:.0%}")
            else:
                print(f"partitioned solve fell back to serial: "
                      f"{report['reason']}")
            print()
            return result
        return insert_buffers(tree, library, algorithm=args.algorithm,
                              backend=args.backend, deadline=deadline,
                              **options)

    try:
        # The ambient scope makes every layer under the solve —
        # routing, compile, kernel, worker partitions — emit spans
        # onto the tracer (a no-op when --trace was not given).
        with request_scope(tracer.request_id if tracer else None), \
                trace_scope(tracer):
            result = _solve()
    except DeadlineExceeded as exc:
        print(f"buffer: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        args.trace.write_text(json.dumps(tracer.to_chrome()))
        print(f"wrote trace ({len(tracer)} spans, request "
              f"{tracer.request_id}) -> {args.trace}")
    print(full_report(tree, result))
    if args.show_tree:
        print()
        print(render_tree(tree, result))
    if args.output is not None:
        payload = {
            "slack_seconds": result.slack,
            "algorithm": result.stats.algorithm,
            "backend": result.stats.backend,
            "assignment": {
                str(node_id): buffer.name
                for node_id, buffer in sorted(result.assignment.items())
            },
        }
        args.output.write_text(json.dumps(payload, indent=2))
        print(f"\nwrote assignment -> {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if not args.nets:
        print("batch: --nets needs at least one net file", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"batch: --jobs must be >= 1, got {args.jobs} "
              "(pass your CPU count for one worker per core)",
              file=sys.stderr)
        return 2
    missing = [str(path) for path in args.nets if not path.is_file()]
    if missing:
        print(f"batch: net file(s) not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.corners < 0:
        print(f"batch: --corners must be >= 0, got {args.corners}",
              file=sys.stderr)
        return 2
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print(f"batch: --deadline-ms must be > 0, got {args.deadline_ms}",
              file=sys.stderr)
        return 2
    from repro.core.batch import solve_many
    from repro.errors import DeadlineExceeded
    from repro.resilience import Deadline
    from repro.tree.io import library_from_dict, load_tree
    from repro.units import to_ps

    library = library_from_dict(json.loads(args.library.read_text()))
    loaded = [load_tree(path) for path in args.nets]
    if args.corners >= 1:
        from repro.experiments.workloads import corner_variants

        labels = []
        trees = []
        for path, tree in zip(args.nets, loaded):
            for corner, variant in corner_variants(tree, args.corners):
                labels.append(f"{path.name}@{corner}")
                trees.append(variant)
    else:
        labels = [path.name for path in args.nets]
        trees = loaded
    jobs = args.jobs
    deadline = (
        Deadline.from_ms(args.deadline_ms)
        if args.deadline_ms is not None else None
    )
    started = time.perf_counter()
    try:
        results = solve_many(trees, library, algorithm=args.algorithm,
                             jobs=jobs, backend=args.backend,
                             deadline=deadline)
    except DeadlineExceeded as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    header = f"{'net':<28}{'n':>7}{'slack (ps)':>13}{'buffers':>9}"
    print(header)
    print("-" * len(header))
    for label, tree, result in zip(labels, trees, results):
        print(f"{label:<28}{tree.num_buffer_positions:>7}"
              f"{to_ps(result.slack):>13.1f}{result.num_buffers:>9}")
    rate = len(trees) / elapsed if elapsed > 0 else float("inf")
    corner_note = (
        f", corners={args.corners}" if args.corners >= 1 else ""
    )
    print(f"\n{len(trees)} nets in {elapsed:.3f}s "
          f"({rate:.1f} nets/s, algorithm={args.algorithm}, "
          f"backend={args.backend}, jobs={args.jobs}{corner_note})")

    if args.output is not None:
        payload = {
            "algorithm": args.algorithm,
            "backend": args.backend,
            "jobs": args.jobs,
            "corners": args.corners,
            "elapsed_seconds": elapsed,
            "results": [
                {
                    "net": label,
                    "slack_seconds": result.slack,
                    "num_buffers": result.num_buffers,
                    "assignment": {
                        str(node_id): buffer.name
                        for node_id, buffer in sorted(result.assignment.items())
                    },
                }
                for label, result in zip(labels, results)
            ],
        }
        args.output.write_text(json.dumps(payload, indent=2))
        print(f"wrote results -> {args.output}")
    return 0


def _cmd_edit(args: argparse.Namespace) -> int:
    from repro.core.api import insert_buffers
    from repro.errors import EditError, ReproError
    from repro.incremental import IncrementalSolver, edit_from_dict
    from repro.tree.io import library_from_dict, load_tree
    from repro.units import to_ps

    tree = load_tree(args.net)
    library = library_from_dict(json.loads(args.library.read_text()))
    try:
        edit_specs = json.loads(args.edits.read_text())
    except json.JSONDecodeError as exc:
        print(f"edit: {args.edits} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(edit_specs, list) or not edit_specs:
        print("edit: the edit script must be a non-empty JSON list",
              file=sys.stderr)
        return 2
    try:
        edits = [edit_from_dict(spec) for spec in edit_specs]
    except EditError as exc:
        print(f"edit: {exc}", file=sys.stderr)
        return 2

    solver = IncrementalSolver(tree, library, algorithm=args.algorithm)
    started = time.perf_counter()
    baseline = solver.resolve()
    baseline_seconds = time.perf_counter() - started
    print(f"baseline: slack {to_ps(baseline.slack):.1f} ps, "
          f"{baseline.num_buffers} buffers "
          f"({baseline_seconds * 1e3:.1f} ms full solve, "
          f"algorithm={args.algorithm}, backend={solver.backend})")

    header = (f"{'step':>5}  {'edit':<34}{'slack (ps)':>12}{'buffers':>9}"
              f"{'resolve (ms)':>14}{'dirty %':>9}")
    print(header)
    print("-" * len(header))
    steps = []
    mismatches = 0
    for number, (edit, spec) in enumerate(zip(edits, edit_specs), start=1):
        try:
            solver.apply(edit)
        except (EditError, ReproError) as exc:
            print(f"edit: step {number} rejected: {exc}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        result = solver.resolve()
        elapsed = time.perf_counter() - started
        verified = None
        if args.verify:
            scratch = insert_buffers(tree, library, algorithm=args.algorithm)
            verified = (
                scratch.slack == result.slack
                and scratch.assignment == result.assignment
            )
            if not verified:
                mismatches += 1
        summary = edit.describe()
        if len(summary) > 32:
            summary = summary[:31] + "…"
        flag = "" if verified is None else ("  ok" if verified else "  MISMATCH")
        print(f"{number:>5}  {summary:<34}{to_ps(result.slack):>12.1f}"
              f"{result.num_buffers:>9}{elapsed * 1e3:>14.2f}"
              f"{solver.last_executed_fraction * 100:>8.1f}%{flag}")
        steps.append({
            "edit": spec,
            "slack_seconds": result.slack,
            "num_buffers": result.num_buffers,
            "resolve_seconds": elapsed,
            "executed_fraction": solver.last_executed_fraction,
            "spliced_subtrees": solver.last_spliced_subtrees,
            **({} if verified is None else {"verified": verified}),
        })

    cache = solver.stats()["frontier_cache"]
    print(f"\n{len(edits)} edits; frontier cache: {cache['hits']} hits / "
          f"{cache['misses']} misses ({cache['hit_rate']:.0%}), "
          f"{cache['bytes'] / 1024:.0f} KiB resident, "
          f"{cache['held']} held, {cache['released']} released")
    if args.output is not None:
        final = steps[-1] if steps else {}
        payload = {
            "algorithm": args.algorithm,
            "backend": solver.backend,
            "baseline_slack_seconds": baseline.slack,
            "steps": steps,
            "final_assignment": {
                str(node_id): buffer.name
                for node_id, buffer in sorted(
                    solver.resolve().assignment.items()
                )
            },
            "final_slack_seconds": final.get("slack_seconds", baseline.slack),
        }
        args.output.write_text(json.dumps(payload, indent=2))
        print(f"wrote results -> {args.output}")
    if mismatches:
        print(f"edit: {mismatches} step(s) FAILED verification",
              file=sys.stderr)
        return 1
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.report import describe_net
    from repro.tree.io import load_tree

    tree = load_tree(args.net)
    print(describe_net(tree))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"serve: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.cache_size < 1:
        print(f"serve: --cache-size must be >= 1, got {args.cache_size}",
              file=sys.stderr)
        return 2
    if args.cache_ttl is not None and args.cache_ttl <= 0:
        print(f"serve: --cache-ttl must be > 0, got {args.cache_ttl}",
              file=sys.stderr)
        return 2
    if args.max_sessions < 1:
        print(f"serve: --max-sessions must be >= 1, got {args.max_sessions}",
              file=sys.stderr)
        return 2
    if args.parallel_threshold is not None and args.parallel_threshold < 1:
        print(f"serve: --parallel-threshold must be >= 1, "
              f"got {args.parallel_threshold}", file=sys.stderr)
        return 2
    if args.max_inflight < 1:
        print(f"serve: --max-inflight must be >= 1, got {args.max_inflight}",
              file=sys.stderr)
        return 2
    if args.max_queue_depth < 0:
        print(f"serve: --max-queue-depth must be >= 0, "
              f"got {args.max_queue_depth}", file=sys.stderr)
        return 2
    if args.max_request_bytes < 1:
        print(f"serve: --max-request-bytes must be >= 1, "
              f"got {args.max_request_bytes}", file=sys.stderr)
        return 2
    if args.max_positions is not None and args.max_positions < 1:
        print(f"serve: --max-positions must be >= 1, "
              f"got {args.max_positions}", file=sys.stderr)
        return 2
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print(f"serve: --deadline-ms must be > 0, got {args.deadline_ms}",
              file=sys.stderr)
        return 2
    from repro.service.server import serve

    if args.log_json:
        from repro.obs.logging import configure_json_logging

        configure_json_logging()
    session_ttl = args.session_ttl if args.session_ttl > 0 else None
    serve(host=args.host, port=args.port, jobs=args.jobs,
          cache_size=args.cache_size, cache_ttl=args.cache_ttl,
          max_pools=args.max_pools, max_sessions=args.max_sessions,
          session_ttl=session_ttl,
          parallel_threshold=args.parallel_threshold,
          workload_log=(
              str(args.workload_log) if args.workload_log is not None
              else None
          ),
          max_inflight=args.max_inflight,
          max_queue_depth=args.max_queue_depth,
          max_request_bytes=args.max_request_bytes,
          max_positions=args.max_positions,
          deadline_ms=args.deadline_ms)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.routing.workload import replay

    if args.repeats < 1:
        print(f"replay: --repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    if not args.log.is_file():
        print(f"replay: log file not found: {args.log}", file=sys.stderr)
        return 2
    try:
        report = replay(args.log, repeats=args.repeats)
    except ReproError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2

    print(f"replayed {report['requests']} request(s) "
          f"(repeats={report['repeats']}, "
          f"parity checked on {report['parity_checked']} plan(s))")
    static = report["static"]
    print(f"oracle best: {report['oracle_seconds'] * 1e3:.2f} ms total")
    print(f"static rule: {static['total_seconds'] * 1e3:.2f} ms total, "
          f"regret {static['regret_seconds'] * 1e3:.2f} ms, "
          f"{static['speedup_vs_oracle']:.2f}x of the oracle")
    if args.per_request:
        print()
        header = (f"{'#':>4}  {'kind':<8}{'features':<24}{'best plan':<24}"
                  f"{'best (ms)':>10}")
        print(header)
        print("-" * len(header))
        for entry in report["per_request"]:
            features = entry["features"]
            shape = (f"n={features['positions']} b={features['library_size']}"
                     + (f" lanes={features['lanes']}"
                        if features.get("lanes", 1) > 1 else ""))
            best_seconds = entry["measured_seconds"][entry["best"]]
            print(f"{entry['index']:>4}  {entry['kind']:<8}{shape:<24}"
                  f"{entry['best']:<24}"
                  f"{best_seconds * 1e3:>10.3f}")
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"\nwrote report -> {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "algorithm", None) is not None:
        from repro.core.registry import get_algorithm
        from repro.errors import AlgorithmError

        try:
            get_algorithm(args.algorithm)
        except AlgorithmError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "buffer":
        return _cmd_buffer(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "edit":
        return _cmd_edit(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "replay":
        return _cmd_replay(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
