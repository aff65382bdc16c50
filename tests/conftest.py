"""Shared fixtures for the test suite.

Non-fixture helpers (``SLACK_ATOL``, ``make_candidates``, ``qc``,
``random_small_tree``) live in :mod:`helpers`; they are re-exported here
for backward compatibility with ``from conftest import ...``.
"""

from __future__ import annotations

import pytest

from helpers import (  # noqa: F401  (re-exported for legacy imports)
    SLACK_ATOL,
    make_candidates,
    qc,
    random_small_tree,
)

from repro import BufferLibrary, BufferType, RoutingTree, paper_library, two_pin_net
from repro.obs import metrics
from repro.tree.node import Driver
from repro.units import fF, ps


@pytest.fixture(autouse=True)
def fresh_process_registry():
    """Every test counts into a process registry of its own, so the
    solver-side counts a test reads (routing decisions, batch-axis
    units, partitioned outcomes, supervisor and breaker events) are its
    own, whatever ran before it."""
    saved = metrics._default_registry
    metrics._default_registry = metrics.MetricsRegistry()
    yield metrics._default_registry
    metrics._default_registry = saved


@pytest.fixture
def small_library() -> BufferLibrary:
    """A 3-type library with spread parameters."""
    return BufferLibrary(
        [
            BufferType("weak", 4000.0, fF(1.5), ps(30.0)),
            BufferType("mid", 1200.0, fF(6.0), ps(32.0)),
            BufferType("strong", 300.0, fF(18.0), ps(35.0)),
        ]
    )


@pytest.fixture
def single_buffer() -> BufferType:
    return BufferType("only", 1000.0, fF(5.0), ps(30.0))


@pytest.fixture
def line_net() -> RoutingTree:
    """An 8-segment 2-pin line with a driver."""
    return two_pin_net(
        length=6000.0,
        sink_capacitance=fF(20.0),
        required_arrival=ps(900.0),
        driver=Driver(resistance=200.0),
        num_segments=8,
    )


@pytest.fixture
def paper_lib8() -> BufferLibrary:
    return paper_library(8)
