"""Golden answers of the extension DPs: polarity, wire sizing, min-cost.

``tests/data/extensions_golden.json`` was recorded on the corpus of
``helpers.extension_golden_cases`` by the tree-walking DPs that the
compiled schedule's op sets replaced, and is never re-recorded from the
op sets.  Every record holds slack and driver load as ``float.hex``,
the buffer (and wire-class) assignment by node id and name and the root
list length; a min-cost record holds every frontier point.  Polarity
cases are replayed on every store backend.  All comparisons are ``==``.
"""

import json
from pathlib import Path

import pytest

from helpers import extension_golden_cases, solve_extension_case

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

BACKENDS = ["object"] + (["soa"] if numpy is not None else [])

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "extensions_golden.json").read_text()
)["cases"]
CASES = extension_golden_cases()


def test_golden_covers_the_corpus():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_extension_golden(case_id):
    kind, tree, library, kwargs = CASES[case_id]()
    backends = BACKENDS if kind == "polarity" else ["object"]
    for backend in backends:
        record = solve_extension_case(kind, tree, library, kwargs, backend)
        assert record == GOLDEN[case_id], backend
