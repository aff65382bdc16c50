"""Analysis — operation-time split (the paper's Figure-4 explanation).

The paper attributes Figure 4's divergence to the add-buffer operation
dominating the baseline as n grows.  This benchmark measures the
wire/merge/buffer wall-clock split for both algorithms across b, and the
candidate-list statistics that drive it.

Run: ``pytest benchmarks/bench_op_profile.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from conftest import run_once, scaled

from repro.core.api import insert_buffers
from repro.experiments.list_stats import collect_list_stats
from repro.experiments.workloads import FIG4_NET, TABLE1_NETS, build_net
from repro.library.generators import paper_library
from repro.obs.profiler import KernelProfiler, profile_scope

SPEC = scaled(TABLE1_NETS[1])
TRUNK = scaled(FIG4_NET)


def buffer_fraction(tree, library, algorithm: str) -> float:
    """Add-buffer share of op time in one profiled object-store solve."""
    profiler = KernelProfiler()
    with profile_scope(profiler, flush=False):
        insert_buffers(tree, library, algorithm=algorithm, backend="object")
    seconds = profiler.seconds
    return seconds["buffer"] / (
        seconds["wire"] + seconds["merge"] + seconds["buffer"]
    )


@pytest.mark.parametrize("algorithm", ["lillis", "fast"])
@pytest.mark.parametrize("size", [8, 32])
def test_op_profile(benchmark, algorithm, size):
    tree = build_net(SPEC)
    library = paper_library(size, jitter=0.03, seed=size)
    benchmark.extra_info.update(algorithm=algorithm, library_size=size)
    fraction = run_once(benchmark, buffer_fraction, tree, library,
                        algorithm=algorithm)
    benchmark.extra_info["buffer_fraction"] = round(fraction, 3)


def test_buffer_share_claims(benchmark):
    """At b = 32 the baseline spends a much larger share of its time
    adding buffers than the fast algorithm does — the imbalance the
    paper removes."""
    library = paper_library(32, jitter=0.03, seed=32)

    def fractions():
        tree = build_net(SPEC)
        return (
            buffer_fraction(tree, library, "lillis"),
            buffer_fraction(tree, library, "fast"),
        )

    lillis, fast = run_once(benchmark, fractions)
    print()
    print(f"  buffer share: lillis {lillis:5.1%}  fast {fast:5.1%}")
    assert lillis > fast


def test_list_statistics(benchmark):
    """Candidate lists stay far below the b n + 1 bound; their mean
    growth with n is what widens the Figure-4 gap."""
    library = paper_library(32, jitter=0.03, seed=32)

    def stats():
        out = {}
        for positions in (1000, 4000):
            tree = build_net(TRUNK, positions_override=positions)
            out[tree.num_buffer_positions] = collect_list_stats(tree, library)
        return out

    results = run_once(benchmark, stats)
    print()
    means = []
    for positions in sorted(results):
        print(f"  n={positions}: {results[positions]}")
        means.append(results[positions].mean)
        assert results[positions].maximum <= results[positions].theoretical_bound
    assert means[-1] > means[0]
