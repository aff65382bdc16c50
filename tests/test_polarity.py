"""Polarity-aware insertion tests (inverters + sink polarities)."""

import itertools
import random

import pytest

from helpers import (
    SLACK_ATOL,
    assert_same_solve,
    inverter_repro,
    random_small_tree,
)

from repro import (
    BufferLibrary,
    BufferType,
    Driver,
    RoutingTree,
    evaluate_assignment,
    evaluate_slack,
    insert_buffers,
    insert_buffers_with_inverters,
    mixed_paper_library,
    paper_library,
    random_tree_net,
    segment_tree,
    two_pin_net,
    uniform_random_library,
    verify_polarities,
)
from repro.errors import AlgorithmError, InfeasibleError, TreeError
from repro.units import fF, ps, to_ps

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

BACKENDS = ["object"] + (["soa"] if numpy is not None else [])


def inverter(name="inv", r=800.0, c=fF(4.0), k=ps(25.0)):
    return BufferType(name, r, c, k, inverting=True)


def buffer_(name="buf", r=800.0, c=fF(5.0), k=ps(30.0)):
    return BufferType(name, r, c, k)


def chain_net(polarity=1, segments=8):
    net = RoutingTree.with_source(driver=Driver(250.0))
    parent = net.root_id
    for _ in range(segments - 1):
        parent = net.add_internal(parent, 60.0, fF(20.0))
    net.add_sink(parent, 60.0, fF(20.0), capacitance=fF(15.0),
                 required_arrival=ps(800.0), polarity=polarity)
    net.validate()
    return net


def brute_force_polarity(tree, library, driver=None):
    """Exhaustive polarity-respecting oracle for tiny instances."""
    positions = [n.node_id for n in tree.buffer_positions()]
    best = float("-inf")
    choices = [None] + list(library.buffers)
    for combo in itertools.product(choices, repeat=len(positions)):
        assignment = {
            pos: buf for pos, buf in zip(positions, combo) if buf is not None
        }
        if not verify_polarities(tree, assignment):
            continue
        slack = evaluate_slack(tree, assignment, driver)
        best = max(best, slack)
    return best


class TestModel:
    def test_sink_polarity_validation(self):
        with pytest.raises(TreeError):
            RoutingTree.with_source().add_sink(
                0, 1.0, 0.0, capacitance=0.0, required_arrival=0.0, polarity=0
            )

    def test_internal_cannot_be_negative(self):
        from repro.tree.node import Node, NodeKind

        with pytest.raises(TreeError):
            Node(1, NodeKind.INTERNAL, polarity=-1)

    def test_inverting_flag_in_str(self):
        assert "[INV]" in str(inverter())
        assert "[BUF]" in str(buffer_())

    def test_inverter_never_dominates_buffer(self):
        strong_inv = inverter(r=100.0, c=fF(1.0), k=ps(1.0))
        weak_buf = buffer_(r=9000.0, c=fF(50.0), k=ps(50.0))
        assert not strong_inv.dominates(weak_buf)
        assert not weak_buf.dominates(strong_inv)


class TestVerifyPolarities:
    def test_empty_assignment_positive_sinks(self):
        net = chain_net(polarity=1)
        assert verify_polarities(net, {})

    def test_empty_assignment_negative_sink_fails(self):
        net = chain_net(polarity=-1)
        assert not verify_polarities(net, {})

    def test_single_inverter_fixes_negative_sink(self):
        net = chain_net(polarity=-1)
        position = net.buffer_positions()[0].node_id
        assert verify_polarities(net, {position: inverter()})

    def test_two_inverters_cancel(self):
        net = chain_net(polarity=1, segments=6)
        a, b = (n.node_id for n in net.buffer_positions()[:2])
        assert verify_polarities(net, {a: inverter(), b: inverter("inv2")})

    def test_non_inverting_buffer_neutral(self):
        net = chain_net(polarity=1)
        position = net.buffer_positions()[0].node_id
        assert verify_polarities(net, {position: buffer_()})


def polarity_free_cases():
    """Nets with every sink +1 and libraries without an inverting type."""
    nets = [
        two_pin_net(length=6000.0, sink_capacitance=fF(20.0),
                    required_arrival=ps(900.0), driver=Driver(200.0),
                    num_segments=12),
    ]
    nets += [random_small_tree(seed) for seed in range(6)]
    nets += [
        segment_tree(random_tree_net(3 + seed, seed=seed, die_size=4000.0,
                                     required_arrival=ps(900.0),
                                     driver=Driver(250.0)), 500.0)
        for seed in range(3)
    ]
    libraries = [
        paper_library(4),
        mixed_paper_library(8, inverter_fraction=0.0, jitter=0.05, seed=3),
        uniform_random_library(5, seed=11),
    ]
    return [(net, library) for net in nets for library in libraries]


class TestInsertion:
    def test_all_positive_matches_plain_algorithm(self):
        """With only non-inverting types and positive sinks, the
        polarity DP must reduce exactly to the plain one on the same
        store: slack, assignment, driver load and every stats count."""
        for net, library in polarity_free_cases():
            for algorithm in ("fast", "lillis"):
                for backend in BACKENDS:
                    plain = insert_buffers(net, library, algorithm=algorithm,
                                           backend=backend)
                    polarity = insert_buffers_with_inverters(
                        net, library, algorithm=algorithm, backend=backend
                    )
                    assert_same_solve(polarity, plain)

    def test_negative_sink_requires_inverter(self):
        net = chain_net(polarity=-1)
        with pytest.raises(InfeasibleError):
            insert_buffers_with_inverters(net, BufferLibrary([buffer_()]))

    def test_negative_sink_solved_with_inverter(self):
        net = chain_net(polarity=-1)
        library = BufferLibrary([buffer_(), inverter()])
        result = insert_buffers_with_inverters(net, library)
        assert verify_polarities(net, result.assignment)
        inverters_used = sum(
            1 for b in result.assignment.values() if b.inverting
        )
        assert inverters_used % 2 == 1

    def test_positive_sink_uses_even_inverters(self):
        net = chain_net(polarity=1)
        library = BufferLibrary([inverter()])  # only inverters available
        result = insert_buffers_with_inverters(net, library)
        assert sum(1 for b in result.assignment.values() if b.inverting) % 2 == 0
        assert verify_polarities(net, result.assignment)

    def test_slack_verified_by_oracle(self):
        net = chain_net(polarity=-1, segments=10)
        library = mixed_paper_library(6)
        result = insert_buffers_with_inverters(net, library)
        measured = evaluate_slack(net, result.assignment)
        assert measured == pytest.approx(result.slack, rel=1e-12)
        assert verify_polarities(net, result.assignment)

    def test_fast_equals_lillis_mode(self):
        net = chain_net(polarity=-1, segments=14)
        library = mixed_paper_library(8)
        fast = insert_buffers_with_inverters(net, library, algorithm="fast")
        lillis = insert_buffers_with_inverters(net, library, algorithm="lillis")
        assert fast.slack == pytest.approx(lillis.slack, abs=SLACK_ATOL)

    def test_unknown_algorithm(self):
        net = chain_net()
        with pytest.raises(AlgorithmError):
            insert_buffers_with_inverters(net, mixed_paper_library(2),
                                          algorithm="magic")

    def test_stats_labeled(self):
        net = chain_net()
        result = insert_buffers_with_inverters(net, mixed_paper_library(4))
        assert result.stats.algorithm == "fast-inverters"


class TestMixedPolaritySinks:
    def build(self, seed=0):
        """A branch with one positive and one negative sink."""
        rng = random.Random(seed)
        net = RoutingTree.with_source(driver=Driver(rng.uniform(100, 600)))
        trunk = net.add_internal(0, 80.0, fF(25.0))
        fork = net.add_internal(trunk, 80.0, fF(25.0))
        for polarity in (1, -1):
            leg = net.add_internal(fork, 50.0, fF(15.0))
            net.add_sink(leg, 50.0, fF(15.0), capacitance=fF(12.0),
                         required_arrival=ps(rng.uniform(400, 900)),
                         polarity=polarity)
        net.validate()
        return net

    def test_solves_and_verifies(self):
        net = self.build()
        library = mixed_paper_library(6)
        result = insert_buffers_with_inverters(net, library)
        assert verify_polarities(net, result.assignment)
        assert evaluate_slack(net, result.assignment) == pytest.approx(
            result.slack, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        net = self.build(seed)
        library = BufferLibrary([
            buffer_("b1", r=1500.0, c=fF(3.0)),
            inverter("i1", r=900.0, c=fF(4.0)),
        ])
        exact = brute_force_polarity(net, library)
        result = insert_buffers_with_inverters(net, library)
        assert result.slack == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_equals_lillis_on_mixed(self, seed):
        net = self.build(seed + 100)
        library = mixed_paper_library(5, jitter=0.05, seed=seed)
        fast = insert_buffers_with_inverters(net, library, algorithm="fast")
        lillis = insert_buffers_with_inverters(net, library, algorithm="lillis")
        assert fast.slack == pytest.approx(lillis.slack, abs=SLACK_ATOL)

    def test_inverters_can_beat_plain_buffers(self):
        """With inverter-heavy libraries the polarity DP exploits the
        electrically better inverters even for positive sinks."""
        net = two_pin_net(length=12_000.0, sink_capacitance=fF(20.0),
                          required_arrival=ps(1500.0), driver=Driver(250.0),
                          num_segments=24)
        buffers_only = paper_library(4)
        with_inverters = mixed_paper_library(8, inverter_fraction=0.5)
        plain = insert_buffers(net, buffers_only)
        mixed = insert_buffers_with_inverters(net, with_inverters)
        assert mixed.slack >= plain.slack - SLACK_ATOL


class TestReproNet:
    """The net whose polarity-blind answer delivers the wrong phase."""

    def test_oracle_names_the_wrong_phase_sink(self):
        net, _, library = inverter_repro()
        sink = net.sinks()[0].node_id
        blind = insert_buffers(net, library)
        assert round(to_ps(blind.slack), 1) == -166.0
        report = evaluate_assignment(net, blind.assignment)
        assert report.wrong_phase_sinks == (sink,)
        assert not verify_polarities(net, blind.assignment)
        right = insert_buffers_with_inverters(net, library)
        assert round(to_ps(right.slack), 1) == -716.0
        assert [b.name for b in right.assignment.values()] == ["INV"]
        assert evaluate_assignment(net, right.assignment).wrong_phase_sinks == ()

    @pytest.mark.parametrize("engine", ["frontier", "min_cost", "wiresizing"])
    def test_polarity_blind_extensions_refuse_phase_inputs(self, engine):
        from repro.cost import minimize_cost, slack_cost_frontier
        from repro.wiresizing import (
            default_wire_classes,
            size_wires_and_insert_buffers,
        )

        solve = {
            "frontier": slack_cost_frontier,
            "min_cost": lambda tree, lib: minimize_cost(tree, lib, -1.0),
            "wiresizing": lambda tree, lib: size_wires_and_insert_buffers(
                tree, lib, default_wire_classes(2)),
        }[engine]
        net, plain, library = inverter_repro()
        sink = net.sinks()[0].node_id
        with pytest.raises(AlgorithmError, match=f"sinks \\[{sink}\\]"):
            solve(net, plain)
        net.set_sink(sink, polarity=1)
        with pytest.raises(AlgorithmError, match="'INV'"):
            solve(net, library)
        solve(net, plain)  # polarity-free inputs still solve


class TestIoRoundTrip:
    def test_polarity_survives_serialization(self):
        from repro.tree.io import tree_from_dict, tree_to_dict

        net = chain_net(polarity=-1)
        copy = tree_from_dict(tree_to_dict(net))
        assert copy.sinks()[0].polarity == -1

    def test_inverting_survives_library_serialization(self):
        from repro.tree.io import library_from_dict, library_to_dict

        library = mixed_paper_library(4)
        copy = library_from_dict(library_to_dict(library))
        assert [b.inverting for b in copy] == [b.inverting for b in library]

    def test_polarity_survives_segmenting(self):
        from repro import segment_tree

        net = RoutingTree.with_source()
        net.add_sink(0, 10.0, fF(5.0), capacitance=fF(3.0),
                     required_arrival=0.0, length=500.0, polarity=-1)
        segmented = segment_tree(net, 100.0)
        assert segmented.sinks()[0].polarity == -1
