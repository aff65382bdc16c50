"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``perfbench/run.py`` once per seed (seeds 1, 2, ...) for every
workload in ``BENCHMARK.json``, one run after another and the workloads
in turn within a seed, so each workload's runs are spread over the
whole sweep as a driver's would be.  Then reports per metric the median
and the distance between the first and third quartiles as a share of
the median::

    python3 perfbench/spread.py --seeds 10

With ``--seeds 1`` it runs every workload once and prints each
end-to-end metric with its unit.  A spread is flagged when it exceeds a
third of the metric's ``bound`` in ``BENCHMARK.json`` (``setup_s`` has
no spread limit, only a bound on its median).  Exit code 1 when any run
failed or was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    values = {w: {name: [] for name in bounds} for w in workloads}
    flagged = False
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            result = run_once(workload, seed)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                flagged = True
            metrics = result["metrics"]
            for name in bounds:
                values[workload][name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {metrics[name]['value']:.4g} {metrics[name]['unit']}"
                for name in bounds
            ), flush=True)
    if args.seeds < 2:
        return 1 if flagged else 0
    for workload in workloads:
        for name, series in values[workload].items():
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid
            limit = bounds[name] / 3
            mark = ""
            if name != "setup_s" and spread > limit:
                mark = "  <-- above bound/3"
                flagged = True
            print(f"{workload:14s} {name:12s} median {mid:10.4f}  "
                  f"spread {spread:6.3f} (bound/3 {limit:.3f}){mark}")
        sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
