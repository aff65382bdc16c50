"""Per-operation kernel profiling of the DP (wire / merge / buffer split)."""

import json
import time

import pytest

from repro import Driver, insert_buffers, paper_library, two_pin_net
from repro.errors import AlgorithmError
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.units import fF, ps


@pytest.fixture
def net():
    return two_pin_net(length=20_000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(3000.0), driver=Driver(200.0),
                       num_segments=600)


def profile(tree, library, algorithm="lillis"):
    """One object-store solve under a fresh profiler; returns it and
    the solve's wall seconds."""
    profiler = KernelProfiler()
    started = time.perf_counter()
    with profile_scope(profiler, flush=False):
        insert_buffers(tree, library, algorithm=algorithm, backend="object")
    return profiler, time.perf_counter() - started


def buffer_fraction(profiler):
    seconds = profiler.seconds
    measured = seconds["wire"] + seconds["merge"] + seconds["buffer"]
    return seconds["buffer"] / measured


def test_counts_match_structure(net):
    profiler, _ = profile(net, paper_library(4))
    assert profiler.calls["wire"] == net.num_nodes - 1   # one per edge
    assert profiler.calls["merge"] == 0                   # a path net
    assert profiler.calls["buffer"] == net.num_buffer_positions
    assert profiler.ranges == net.num_nodes               # one per vertex


def test_fractions_sum_to_one(net):
    profiler, total = profile(net, paper_library(4))
    seconds = profiler.seconds
    measured = seconds["wire"] + seconds["merge"] + seconds["buffer"]
    assert measured > 0.0
    assert measured <= total
    assert 0.0 <= buffer_fraction(profiler) <= 1.0


def test_unknown_algorithm(net):
    with pytest.raises(AlgorithmError):
        profile(net, paper_library(2), algorithm="magic")


def test_buffer_fraction_higher_for_lillis_at_large_b(net):
    """The baseline's add-buffer share dwarfs the fast algorithm's —
    the very imbalance the paper's Section 3 removes."""
    library = paper_library(32)
    lillis, _ = profile(net, library, algorithm="lillis")
    fast, _ = profile(net, library, algorithm="fast")
    assert buffer_fraction(lillis) > buffer_fraction(fast)


def test_buffer_fraction_grows_with_b_for_lillis(net):
    """The baseline's add-buffer share rises steeply with b (its O(b k)
    inner loop), while the fast algorithm's stays comparatively flat —
    the imbalance behind the paper's Figure 3."""
    lillis_fractions = []
    fast_fractions = []
    for size in (2, 8, 32):
        library = paper_library(size)
        lillis_fractions.append(
            buffer_fraction(profile(net, library, algorithm="lillis")[0])
        )
        fast_fractions.append(
            buffer_fraction(profile(net, library, algorithm="fast")[0])
        )
    assert lillis_fractions == sorted(lillis_fractions)
    lillis_growth = lillis_fractions[-1] - lillis_fractions[0]
    fast_growth = fast_fractions[-1] - fast_fractions[0]
    assert lillis_growth > fast_growth


def test_merges_counted_on_branchy_net():
    from repro import balanced_tree_net

    net = balanced_tree_net(3, required_arrival=ps(500.0), driver=Driver(200.0))
    profiler, _ = profile(net, paper_library(2))
    # Branching vertices: the root plus levels 1 and 2 (1 + 2 + 4); the
    # level-3 internals feed a single sink each, so they merge nothing.
    assert profiler.calls["merge"] == 7


def test_str_output(net):
    """The snapshot is the profiler's JSON-ready report."""
    profiler, _ = profile(net, paper_library(2))
    snapshot = json.loads(json.dumps(profiler.snapshot()))
    assert set(snapshot["seconds"]) >= {"wire", "merge", "buffer"}
    assert snapshot["calls"]["buffer"] == net.num_buffer_positions
    assert snapshot["peak_list_length"] == profiler.peak_list_length > 0
