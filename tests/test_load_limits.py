"""Buffer max-load constraint tests."""

import itertools

import pytest

from helpers import SLACK_ATOL

from repro import (
    BufferLibrary,
    BufferType,
    Driver,
    evaluate_assignment,
    evaluate_slack,
    insert_buffers,
    insert_buffers_brute_force,
    two_pin_net,
)
from repro.errors import LibraryError, TimingError
from repro.units import fF, ps


def limited(name, r, c, k, max_load):
    return BufferType(name, r, c, k, max_load=max_load)


@pytest.fixture
def net():
    return two_pin_net(length=6000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=10)


def test_max_load_validation():
    with pytest.raises(LibraryError):
        limited("x", 100.0, fF(1.0), ps(10.0), max_load=0.0)
    with pytest.raises(LibraryError):
        limited("x", 100.0, fF(1.0), ps(10.0), max_load=-fF(1.0))


def test_oracle_rejects_overloaded_buffer(net):
    tight = limited("tight", 100.0, fF(1.0), ps(10.0), max_load=fF(0.1))
    position = net.buffer_positions()[0].node_id
    with pytest.raises(TimingError):
        evaluate_assignment(net, {position: tight})


def test_oracle_can_measure_anyway(net):
    tight = limited("tight", 100.0, fF(1.0), ps(10.0), max_load=fF(0.1))
    position = net.buffer_positions()[0].node_id
    report = evaluate_assignment(net, {position: tight},
                                 enforce_load_limits=False)
    assert report.num_buffers == 1


def test_unconstrained_limit_matches_plain(net):
    """A max_load larger than any possible load changes nothing."""
    loose = [
        BufferType(f"b{i}", r, fF(c), ps(30.0), max_load=1.0)  # 1 farad!
        for i, (r, c) in enumerate([(3000.0, 2.0), (800.0, 8.0), (200.0, 20.0)])
    ]
    plain = [
        BufferType(f"b{i}", b.driving_resistance, b.input_capacitance,
                   b.intrinsic_delay)
        for i, b in enumerate(loose)
    ]
    constrained = insert_buffers(net, BufferLibrary(loose))
    unconstrained = insert_buffers(net, BufferLibrary(plain))
    assert constrained.slack == pytest.approx(unconstrained.slack,
                                              abs=SLACK_ATOL)


def test_binding_limit_changes_solution(net):
    """A tight limit must produce a feasible (oracle-accepted) solution
    that is no better than the unconstrained one."""
    free = BufferType("free", 400.0, fF(6.0), ps(30.0))
    capped = BufferType("capped", 400.0, fF(6.0), ps(30.0),
                        max_load=fF(120.0))
    free_result = insert_buffers(net, BufferLibrary([free]))
    capped_result = insert_buffers(net, BufferLibrary([capped]))
    assert capped_result.slack <= free_result.slack + SLACK_ATOL
    # Feasibility: the oracle (which enforces limits) accepts it.
    report = evaluate_assignment(net, capped_result.assignment)
    assert report.slack == pytest.approx(capped_result.slack, rel=1e-12)


@pytest.mark.parametrize("algorithm", ["fast", "lillis"])
def test_fast_and_lillis_agree_under_limits(net, algorithm):
    library = BufferLibrary([
        limited("a", 2000.0, fF(2.0), ps(28.0), max_load=fF(200.0)),
        limited("b", 600.0, fF(7.0), ps(31.0), max_load=fF(350.0)),
        BufferType("c", 250.0, fF(18.0), ps(34.0)),
    ])
    fast = insert_buffers(net, library, algorithm="fast")
    lillis = insert_buffers(net, library, algorithm="lillis")
    assert fast.slack == pytest.approx(lillis.slack, abs=SLACK_ATOL)


def test_matches_brute_force_with_limits():
    net = two_pin_net(length=3000.0, sink_capacitance=fF(20.0),
                      required_arrival=ps(900.0), driver=Driver(200.0),
                      num_segments=5)
    library = BufferLibrary([
        limited("a", 1200.0, fF(3.0), ps(28.0), max_load=fF(150.0)),
        limited("b", 400.0, fF(9.0), ps(32.0), max_load=fF(300.0)),
    ])
    exact = insert_buffers_brute_force(net, library)
    dp = insert_buffers(net, library)
    assert dp.slack == pytest.approx(exact.slack, rel=1e-12)


def test_interior_candidate_under_limit():
    """The regression the hull shortcut would get wrong: the constrained
    optimum sits strictly inside the hull, so constrained types must
    scan the full list (see generate_fast docstring)."""
    from helpers import make_candidates
    from repro.core.buffer_ops import BufferPlan, generate_fast, generate_lillis
    from repro.core.pruning import convex_prune, prune_dominated

    # Hull of {A(0,0), P(4.9,5), B(10,10)} is {A, B}; P is interior.
    cands = prune_dominated(make_candidates([(0.0, 0.0), (4.9, 5.0), (10.0, 10.0)]))
    assert len(convex_prune(cands)) == 2
    capped = BufferType("capped", 1e-9, 0.0, 0.0, max_load=5.0)
    plan = BufferPlan(0, [capped])
    fast = generate_fast(cands, plan)
    lillis = generate_lillis(cands, plan)
    # Eligible candidates: A and P; best is P (q=4.9).
    assert fast[0][0] == pytest.approx(4.9, abs=1e-6)
    assert lillis[0][0] == pytest.approx(fast[0][0])


def test_undrivable_everywhere_means_no_insertion():
    net = two_pin_net(length=6000.0, sink_capacitance=fF(20.0),
                      required_arrival=ps(900.0), driver=Driver(200.0),
                      num_segments=6)
    hopeless = limited("hopeless", 100.0, fF(1.0), ps(5.0), max_load=fF(0.01))
    result = insert_buffers(net, BufferLibrary([hopeless]))
    assert result.assignment == {}
    assert result.slack == pytest.approx(
        evaluate_slack(net), abs=SLACK_ATOL
    )


def test_dominates_respects_max_load():
    free = BufferType("free", 100.0, fF(1.0), ps(10.0))
    capped = BufferType("capped", 100.0, fF(1.0), ps(10.0), max_load=fF(10.0))
    assert free.dominates(capped)
    assert not capped.dominates(free)
    looser = BufferType("looser", 100.0, fF(1.0), ps(10.0), max_load=fF(20.0))
    assert looser.dominates(capped)
    assert not capped.dominates(looser)
