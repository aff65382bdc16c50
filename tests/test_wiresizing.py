"""Simultaneous wire-sizing + buffer-insertion tests."""

import itertools

import pytest

from helpers import SLACK_ATOL, assert_same_solve, random_small_tree

from repro import (
    Driver,
    evaluate_slack,
    insert_buffers,
    paper_library,
    random_tree_net,
    segment_tree,
    two_pin_net,
    uniform_random_library,
)
from repro.errors import AlgorithmError, LibraryError
from repro.units import fF, ps
from repro.wiresizing import (
    WireClass,
    default_wire_classes,
    size_wires_and_insert_buffers,
    verify_wire_sizing,
)

UNIT_CLASS = WireClass("unit", 1.0, 1.0)


@pytest.fixture
def net():
    return two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=12)


class TestWireLibrary:
    def test_default_classes_shape(self):
        classes = default_wire_classes(3, max_width=4.0)
        assert len(classes) == 3
        assert classes[0].resistance_scale == pytest.approx(1.0)
        assert classes[0].capacitance_scale == pytest.approx(1.0)
        # Wider: less resistance, more capacitance.
        assert classes[-1].resistance_scale == pytest.approx(0.25)
        assert classes[-1].capacitance_scale > 1.0

    def test_monotone_scales(self):
        classes = default_wire_classes(5, max_width=6.0)
        r = [wc.resistance_scale for wc in classes]
        c = [wc.capacitance_scale for wc in classes]
        assert r == sorted(r, reverse=True)
        assert c == sorted(c)

    def test_validation(self):
        with pytest.raises(LibraryError):
            default_wire_classes(0)
        with pytest.raises(LibraryError):
            default_wire_classes(2, max_width=0.5)
        with pytest.raises(LibraryError):
            WireClass("bad", 0.0, 1.0)
        with pytest.raises(LibraryError):
            WireClass("bad", 1.0, -1.0)


class TestReducesToPlain:
    def test_single_unit_class_equals_insert_buffers(self, net):
        """One unit wire class is the plain DP on the object store:
        slack, assignment, driver load and every stats count."""
        nets = [net] + [random_small_tree(seed) for seed in range(6)] + [
            segment_tree(random_tree_net(3 + seed, seed=seed,
                                         die_size=4000.0,
                                         required_arrival=ps(900.0),
                                         driver=Driver(250.0)), 500.0)
            for seed in range(3)
        ]
        libraries = [paper_library(4), uniform_random_library(5, seed=11),
                     paper_library(8, jitter=0.05, seed=2)]
        for tree in nets:
            for library in libraries:
                plain = insert_buffers(tree, library, backend="object")
                sized = size_wires_and_insert_buffers(tree, library,
                                                      [UNIT_CLASS])
                assert_same_solve(sized, plain)
                assert sized.stats.algorithm == "fast-wiresizing"

    def test_every_edge_gets_a_width(self, net):
        library = paper_library(2)
        sized = size_wires_and_insert_buffers(net, library, [UNIT_CLASS])
        # Every non-root node terminates an edge.
        assert len(sized.wire_assignment) == net.num_nodes - 1


class TestImprovement:
    def test_wider_wires_never_hurt(self, net):
        library = paper_library(4)
        one = size_wires_and_insert_buffers(net, library,
                                            default_wire_classes(1))
        three = size_wires_and_insert_buffers(net, library,
                                              default_wire_classes(3))
        assert three.slack >= one.slack - SLACK_ATOL

    def test_sizing_helps_resistive_line(self):
        """A long thin line gains real slack from widening."""
        net = two_pin_net(length=15_000.0, sink_capacitance=fF(10.0),
                          required_arrival=ps(3000.0), driver=Driver(150.0),
                          num_segments=20)
        library = paper_library(4)
        base = size_wires_and_insert_buffers(net, library,
                                             default_wire_classes(1))
        sized = size_wires_and_insert_buffers(net, library,
                                              default_wire_classes(4))
        assert sized.slack > base.slack + ps(1.0)
        used = {wc.name for wc in sized.wire_assignment.values()}
        assert len(used) >= 2  # actually mixes widths


class TestVerification:
    def test_oracle_reproduces_slack(self, net):
        library = paper_library(4)
        sized = size_wires_and_insert_buffers(net, library,
                                              default_wire_classes(3))
        report = verify_wire_sizing(net, sized)
        assert report.slack == pytest.approx(sized.slack, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_on_random_trees(self, seed):
        tree = random_small_tree(seed)
        library = uniform_random_library(3, seed=seed)
        sized = size_wires_and_insert_buffers(tree, library,
                                              default_wire_classes(3))
        report = verify_wire_sizing(tree, sized)
        assert report.slack == pytest.approx(sized.slack, rel=1e-12)


class TestBruteForce:
    def test_matches_exhaustive_on_tiny_instance(self):
        """Enumerate every (wire class per edge) x (buffer per position)
        combination and compare with the DP."""
        net = two_pin_net(length=4000.0, sink_capacitance=fF(20.0),
                          required_arrival=ps(900.0), driver=Driver(250.0),
                          num_segments=3)
        library = paper_library(2)
        classes = default_wire_classes(2, max_width=3.0)
        sized = size_wires_and_insert_buffers(net, library, classes)

        from repro.wiresizing import apply_wire_assignment

        edges = [n for n in range(1, net.num_nodes)]
        positions = [n.node_id for n in net.buffer_positions()]
        best = float("-inf")
        buffer_choices = [None] + list(library.buffers)
        for wire_combo in itertools.product(classes, repeat=len(edges)):
            wire_assignment = dict(zip(edges, wire_combo))
            resized, id_map = apply_wire_assignment(net, wire_assignment)
            for buf_combo in itertools.product(buffer_choices,
                                               repeat=len(positions)):
                assignment = {
                    id_map[pos]: buf
                    for pos, buf in zip(positions, buf_combo)
                    if buf is not None
                }
                slack = evaluate_slack(resized, assignment)
                best = max(best, slack)
        assert sized.slack == pytest.approx(best, rel=1e-12)


class TestValidation:
    def test_empty_classes_rejected(self, net):
        with pytest.raises(AlgorithmError):
            size_wires_and_insert_buffers(net, paper_library(2), [])

    def test_duplicate_names_rejected(self, net):
        with pytest.raises(AlgorithmError):
            size_wires_and_insert_buffers(
                net, paper_library(2), [UNIT_CLASS, WireClass("unit", 0.5, 2.0)]
            )

    def test_stats_labeled(self, net):
        sized = size_wires_and_insert_buffers(net, paper_library(2),
                                              default_wire_classes(2))
        assert sized.stats.algorithm == "fast-wiresizing"
        assert "WireSizingResult" in str(sized)
