"""Figure 4 — normalized running time versus buffer positions n.

Paper: at b = 32, both algorithms grow superlinearly in n, but the new
algorithm grows much more slowly because the add-buffer operation —
the step it accelerates — dominates as n (and with it the candidate
list length k) increases.

Run: ``pytest benchmarks/bench_fig4.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from conftest import run_once, scaled

from repro.core.api import insert_buffers
from repro.core.schedule import compile_net
from repro.experiments.figures import format_figure, run_fig4
from repro.experiments.workloads import (
    FIG4_NET,
    FIG4_POSITION_COUNTS,
    build_net,
)
from repro.library.generators import paper_library

SPEC = scaled(FIG4_NET)
LIBRARY_SIZE = 32


@pytest.mark.parametrize("positions", FIG4_POSITION_COUNTS)
@pytest.mark.parametrize("algorithm", ["lillis", "fast"])
@pytest.mark.parametrize("backend", ["object", "soa"])
def test_fig4_point(benchmark, positions, algorithm, backend):
    tree = build_net(SPEC, positions_override=positions)
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    benchmark.extra_info.update(positions=tree.num_buffer_positions,
                                library_size=LIBRARY_SIZE,
                                backend=backend)
    run_once(benchmark, insert_buffers, tree, library, algorithm=algorithm,
             backend=backend)


def test_fig4_solve_path(benchmark):
    """The compiled repeat-solve on one trunk point.

    Measures exactly what a sweep pays per repeat solve: compilation
    (validation, plans, flattening) happens once, outside the timed
    region.
    """
    tree = build_net(SPEC, positions_override=FIG4_POSITION_COUNTS[1])
    library = paper_library(LIBRARY_SIZE, jitter=0.03, seed=LIBRARY_SIZE)
    benchmark.extra_info.update(positions=tree.num_buffer_positions,
                                library_size=LIBRARY_SIZE)
    net = compile_net(tree, library)
    insert_buffers(net, library)  # warm the scratch arena
    run_once(benchmark, insert_buffers, net, library)


def test_fig4_claims(benchmark):
    series = run_once(benchmark, run_fig4, spec=SPEC,
                      library_size=LIBRARY_SIZE)
    print()
    print(format_figure(series))

    # Times increase with n for both algorithms.
    lillis_norms = [p.lillis_normalized for p in series.points]
    fast_norms = [p.fast_normalized for p in series.points]
    assert lillis_norms == sorted(lillis_norms)
    assert fast_norms == sorted(fast_norms)
    # The baseline's growth outpaces the new algorithm's (paper's point).
    assert lillis_norms[-1] > fast_norms[-1]
    # And in absolute terms the new algorithm wins at the largest n.
    last = series.points[-1]
    assert last.fast_seconds < last.lillis_seconds
