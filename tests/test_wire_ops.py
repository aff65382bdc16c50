"""Add-wire operation tests."""

import pytest

from helpers import make_candidates, qc

from repro.core.pruning import is_nonredundant
from repro.core.wire_ops import add_wire


def test_transform_formula():
    cands = make_candidates([(10.0, 2.0)])
    out = add_wire(cands, resistance=3.0, capacitance=4.0)
    # q' = 10 - 3 * (4/2 + 2) = -2 ; c' = 2 + 4 = 6
    assert qc(out) == [(-2.0, 6.0)]


def test_zero_wire_is_identity():
    cands = make_candidates([(1.0, 0.0), (2.0, 1.0)])
    out = add_wire(cands, 0.0, 0.0)
    assert out is cands
    assert qc(out) == [(1.0, 0.0), (2.0, 1.0)]


def test_pure_capacitance_shifts_c_only():
    cands = make_candidates([(1.0, 0.0), (2.0, 1.0)])
    out = add_wire(cands, 0.0, 5.0)
    assert qc(out) == [(1.0, 5.0), (2.0, 6.0)]


def test_pure_resistance_tilts_q():
    cands = make_candidates([(1.0, 0.0), (2.0, 1.0)])
    out = add_wire(cands, 1.0, 0.0)
    assert qc(out) == [(1.0, 0.0), (1.0, 1.0)][:1]  # second became dominated


def test_resistance_can_create_dominance():
    """High-c candidates lose q faster and may fall off the list."""
    cands = make_candidates([(0.0, 0.0), (0.5, 1.0), (0.9, 2.0)])
    out = add_wire(cands, 1.0, 0.0)
    # q': 0.0, -0.5, -1.1 -> only the first survives.
    assert qc(out) == [(0.0, 0.0)]


def test_order_preserved_when_spacing_wide():
    cands = make_candidates([(0.0, 0.0), (10.0, 1.0), (20.0, 2.0)])
    out = add_wire(cands, 1.0, 2.0)
    assert len(out) == 3
    assert is_nonredundant(out)


def test_leaves_input_unchanged():
    points = [(0.0, 0.0), (0.5, 1.0), (0.9, 2.0), (3.0, 3.0)]
    cands = make_candidates(points)
    before = list(cands)
    out = add_wire(cands, 1.0, 0.5)
    assert out is not cands
    assert len(cands) == len(before)
    assert all(now is then for now, then in zip(cands, before))
    assert qc(cands) == points


def test_decision_unchanged():
    cands = make_candidates([(10.0, 2.0)])
    decision = cands[0][2]
    out = add_wire(cands, 1.0, 1.0)
    assert out[0][2] is decision


def test_sequential_wires_compose():
    """Two wires in sequence equal one wire only in the lumped sense;
    check against direct formula composition."""
    cands_a = make_candidates([(10.0, 2.0)])
    out = add_wire(add_wire(cands_a, 1.0, 2.0), 3.0, 4.0)
    q1 = 10.0 - 1.0 * (1.0 + 2.0)          # after wire 1
    c1 = 4.0
    q2 = q1 - 3.0 * (2.0 + c1)              # after wire 2
    assert qc(out) == [(q2, 10.0 - 2.0)]


def test_output_nonredundant_on_adversarial_input():
    cands = make_candidates([(0.0, 0.0), (0.2, 1.0), (0.5, 2.0), (3.0, 3.0)])
    out = add_wire(cands, 0.7, 0.3)
    assert is_nonredundant(out)
