"""Run one benchmark workload and print its result as the last line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload solve_hit --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints the per-layer metrics
(a Chrome trace of the run is written under ``.perfbench/``).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"p50_ms": {"value": 7.9, "unit": "ms"}, ...}}

Progress and failed checks go to standard error.  The exit code is 0
when a result was printed, 2 otherwise (for example, when the checkout
holds no ``src/repro`` to benchmark).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Replace this script's directory on the path: its module names
    # (trace, stats...) would shadow the standard library's.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import run_workload

    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    measured = result["metrics"]
    if set(measured) != set(units):
        print(f"perfbench: measured metrics {sorted(measured)} differ from "
              f"{spec_path.name}'s {sorted(units)}", file=sys.stderr)
        return 2
    result["metrics"] = {
        name: {"value": measured[name], "unit": units[name]} for name in units
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
