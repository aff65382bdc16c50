"""Make ``perfbench`` and ``repro`` importable for the benchmark's tests.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
