"""Shared non-fixture helpers for the test suite.

Kept separate from ``conftest.py`` so test modules can import them by an
unambiguous module name (``from helpers import ...``): ``conftest`` is a
pytest-managed name that exists once per collected directory, so under a
rootdir that also contains ``benchmarks/conftest.py`` a plain
``import conftest`` can resolve to the wrong file depending on
collection order.  ``helpers`` exists only here.
"""

from __future__ import annotations

import copy
import itertools
import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import Driver, RoutingTree
from repro.core.candidate import Candidate
from repro.units import fF, ps

#: Tolerance for slack comparisons in seconds (sub-femtosecond).
SLACK_ATOL = 1e-16


#: Dummy sink ids for :func:`make_candidates`, unique across calls, so
#: identity checks can tell any two made candidates' decisions apart.
_DUMMY_SINKS = itertools.count()


def make_candidates(points: Sequence[Tuple[float, float]]) -> List[Candidate]:
    """Candidates from raw (q, c) pairs with dummy sink decisions."""
    return [(q, c, next(_DUMMY_SINKS)) for q, c in points]


def qc(candidates: Sequence[Candidate]) -> List[Tuple[float, float]]:
    """The (q, c) pairs of a candidate list, for equality assertions."""
    return [(cand[0], cand[1]) for cand in candidates]


def kernel_signature(candidates) -> list:
    """What a kernel parity check compares, per candidate.

    The ``float.hex`` of ``q`` and ``c`` (so a sign of zero or a last
    ulp counts), plus the decision: passed-through decisions by
    identity, a new buffer ``(node_id, buffer_type, below)`` by its
    node, type object and the decision below it, a new merge
    ``(left, right)`` by its two children.
    """
    rows = []
    for q, c, decision in candidates:
        if type(decision) is tuple and len(decision) == 3:
            node_id, buffer, below = decision
            shape = ("buffer", node_id, id(buffer), id(below))
        elif type(decision) is tuple:
            shape = ("merge", id(decision[0]), id(decision[1]))
        else:
            shape = ("same", id(decision))
        rows.append((float.hex(q), float.hex(c), shape))
    return rows


# -- Reference kernels ----------------------------------------------------
#
# The object store's list kernels as first written: generic list passes
# that build every candidate, then prune.  The production kernels in
# ``repro.core`` are single passes that allocate only survivors; the
# property tests hold them to these bodies bit for bit (every ``q`` and
# ``c`` by ``float.hex``, every decision node).


def reference_prune_dominated(candidates):
    result = []
    for candidate in candidates:
        q, c, _ = candidate
        if result and c < result[-1][1]:
            raise ValueError("prune_dominated requires c-sorted input")
        if result and c == result[-1][1] and q > result[-1][0]:
            result.pop()
        if not result or q > result[-1][0]:
            result.append(candidate)
    return result


def _reference_left_turn_or_straight(a1, a2, a3):
    (q1, c1, _), (q2, c2, _), (q3, c3, _) = a1, a2, a3
    return (q2 - q1) * (c3 - c2) <= (q3 - q2) * (c2 - c1)


def reference_convex_prune(candidates):
    hull = []
    for candidate in candidates:
        while len(hull) >= 2 and _reference_left_turn_or_straight(
            hull[-2], hull[-1], candidate
        ):
            hull.pop()
        hull.append(candidate)
    return hull


def _reference_scan_best(candidates, resistance, max_load):
    best = None
    best_value = float("-inf")
    for candidate in candidates:
        q, c, _ = candidate
        if c > max_load:
            break
        value = q - resistance * c
        if value > best_value:
            best_value = value
            best = candidate
    return best, best_value


def reference_generate_fast(candidates, plan, hull=None):
    if not candidates:
        return []
    if hull is None:
        hull = reference_convex_prune(candidates)
    betas = [None] * len(plan.by_resistance_desc)
    pointer = 0
    last = len(hull) - 1
    for index, buffer in enumerate(plan.by_resistance_desc):
        resistance = buffer.driving_resistance
        if buffer.max_load is not None:
            current, value = _reference_scan_best(
                candidates, resistance, buffer.max_load
            )
            if current is None:
                continue
        else:
            current = hull[pointer]
            value = current[0] - resistance * current[1]
            while pointer < last:
                following = hull[pointer + 1]
                next_value = following[0] - resistance * following[1]
                if next_value <= value:
                    break
                pointer += 1
                current = following
                value = next_value
        betas[index] = (
            value - buffer.intrinsic_delay,
            buffer.input_capacitance,
            (plan.node_id, buffer, current[2]),
        )
    ordered = [betas[i] for i in plan.cap_order if betas[i] is not None]
    return reference_prune_dominated(ordered)


def reference_insert_candidates(candidates, new_candidates):
    if not new_candidates:
        return candidates
    if not candidates:
        return reference_prune_dominated(new_candidates)
    merged = []
    i = j = 0
    while i < len(candidates) and j < len(new_candidates):
        if candidates[i][1] <= new_candidates[j][1]:
            merged.append(candidates[i])
            i += 1
        else:
            merged.append(new_candidates[j])
            j += 1
    merged.extend(candidates[i:])
    merged.extend(new_candidates[j:])
    return reference_prune_dominated(merged)


def reference_merge_branches(left, right):
    if not left or not right:
        return left or right
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        merged.append((min(a[0], b[0]), a[1] + b[1], (a[2], b[2])))
        if a[0] < b[0]:
            i += 1
        elif b[0] < a[0]:
            j += 1
        else:
            i += 1
            j += 1
    return reference_prune_dominated(merged)


def reference_add_wire(candidates, resistance, capacitance):
    if resistance == 0.0 and capacitance == 0.0:
        return candidates
    half_wire = capacitance / 2.0
    wired = [
        (q - resistance * (half_wire + c), c + capacitance, decision)
        for q, c, decision in candidates
    ]
    return reference_prune_dominated(wired)


def relabeled(
    tree: RoutingTree, rename: bool = True, reverse_children: bool = False
) -> RoutingTree:
    """A structurally identical tree with new names and/or child order.

    Rebuilt through the tree API, so node ids are reassigned too: attach
    order is child order, and reversing it at every vertex exercises the
    canonicalization's sibling sort (tests for :mod:`repro.service`).
    """
    twin = RoutingTree.with_source(driver=tree.driver)
    mapping = {tree.root_id: twin.root_id}
    stack = [tree.root_id]
    counter = 0
    while stack:
        node_id = stack.pop()
        children = tree.children_of(node_id)
        if reverse_children:
            children = tuple(reversed(children))
        for child_id in children:
            node = tree.node(child_id)
            edge = tree.edge_to(child_id)
            counter += 1
            name = f"renamed_{counter * 31 + 7}" if rename else node.name
            if node.is_sink:
                mapping[child_id] = twin.add_sink(
                    mapping[node_id], edge.resistance, edge.capacitance,
                    capacitance=node.capacitance,
                    required_arrival=node.required_arrival,
                    name=name, polarity=node.polarity,
                )
            else:
                mapping[child_id] = twin.add_internal(
                    mapping[node_id], edge.resistance, edge.capacitance,
                    buffer_position=node.is_buffer_position,
                    allowed_buffers=node.allowed_buffers,
                    name=name,
                )
            stack.append(child_id)
    return twin


def random_small_tree(seed: int, max_extra: int = 3) -> RoutingTree:
    """A random tree with <= ~7 buffer positions, for oracle tests.

    The shape mixes chains and branches so merges happen above buffer
    positions (the structurally interesting case).
    """
    rng = random.Random(seed)
    tree = RoutingTree.with_source(driver=Driver(rng.uniform(100.0, 800.0)))

    def wire() -> Tuple[float, float]:
        return rng.uniform(5.0, 400.0), fF(rng.uniform(2.0, 60.0))

    def sink(parent: int) -> None:
        r, c = wire()
        tree.add_sink(
            parent,
            r,
            c,
            capacitance=fF(rng.uniform(2.0, 41.0)),
            required_arrival=ps(rng.uniform(0.0, 1500.0)),
        )

    # A short chain off the source, then a branch, then short chains.
    r, c = wire()
    node = tree.add_internal(tree.root_id, r, c)
    for _ in range(rng.randrange(max_extra)):
        r, c = wire()
        node = tree.add_internal(node, r, c)
    branches = rng.choice([1, 2, 2, 3])
    for _ in range(branches):
        child = node
        for _ in range(rng.randrange(1, 3)):
            r, c = wire()
            child = tree.add_internal(child, r, c)
        sink(child)
    tree.validate()
    return tree


def restricted_steiner_tree(library) -> RoutingTree:
    """Allowed-buffer subsets, an empty subset and a pure Steiner point."""
    names = [b.name for b in library.buffers]
    tree = RoutingTree.with_source(driver=Driver(400.0))
    v1 = tree.add_internal(0, 120.0, fF(30.0), allowed_buffers=[names[0]])
    v2 = tree.add_internal(v1, 90.0, fF(20.0), buffer_position=False)
    v3 = tree.add_internal(v2, 90.0, fF(20.0), allowed_buffers=[])
    tree.add_sink(v3, 60.0, fF(10.0), capacitance=fF(15.0),
                  required_arrival=ps(700.0))
    tree.add_sink(v2, 80.0, fF(12.0), capacitance=fF(18.0),
                  required_arrival=ps(900.0))
    return tree


def golden_cases() -> dict:
    """The corpus behind ``tests/data/dp_golden.json``.

    Maps a case id to a zero-argument builder returning
    ``(tree, library, solve_kwargs)``; ``solve_kwargs`` holds the
    algorithm, an optional driver override and algorithm options.
    Covers fast / lillis / van_ginneken, driver overrides, load-capped
    libraries, per-position library subsets (including empty ones) and
    destructive pruning; every case is solved on both backends.
    """
    from repro import BufferLibrary, BufferType, paper_library
    from repro import random_tree_net, two_pin_net, uniform_random_library

    def trunk(segments):
        return two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                           required_arrival=ps(900.0), driver=Driver(200.0),
                           num_segments=segments)

    def load_capped(seed):
        base = uniform_random_library(5, seed=seed)
        capped = [
            BufferType(
                name=f"{b.name}_capped",
                driving_resistance=b.driving_resistance,
                input_capacitance=b.input_capacitance,
                intrinsic_delay=b.intrinsic_delay,
                max_load=fF(40.0 + 12.0 * i),
            )
            for i, b in enumerate(base.buffers[:2])
        ]
        return BufferLibrary(list(base.buffers) + capped)

    def subsets(seed, size):
        library = paper_library(size)
        names = [b.name for b in library.buffers]
        tree = random_tree_net(24, seed=seed, required_arrival=ps(800.0),
                               driver=Driver(300.0))
        for rank, node in enumerate(tree.buffer_positions()):
            if rank % 3:
                node.allowed_buffers = frozenset(names[:rank % size])
        return tree, library

    cases = {}
    for seed in range(20):
        for algorithm in ("fast", "lillis"):
            cases[f"random-{algorithm}-{seed}"] = (
                lambda seed=seed, algorithm=algorithm: (
                    random_small_tree(seed),
                    uniform_random_library(5, seed=seed + 500),
                    {"algorithm": algorithm},
                )
            )
    cases["van_ginneken"] = lambda: (
        trunk(48), paper_library(1), {"algorithm": "van_ginneken"}
    )
    for destructive in (False, True):
        cases[f"destructive-{destructive}"] = (
            lambda destructive=destructive: (
                trunk(64), paper_library(8),
                {"algorithm": "fast", "destructive_pruning": destructive},
            )
        )
    for algorithm in ("fast", "lillis"):
        cases[f"restricted-{algorithm}"] = lambda algorithm=algorithm: (
            restricted_steiner_tree(paper_library(4)), paper_library(4),
            {"algorithm": algorithm},
        )
    for label, driver in (("default", None), ("strong", Driver(10.0)),
                          ("weak", Driver(5000.0))):
        cases[f"driver-{label}"] = lambda driver=driver: (
            random_small_tree(4), uniform_random_library(4, seed=9),
            {"algorithm": "fast", "driver": driver},
        )
    drivers = (None, Driver(140.0), Driver(2500.0))
    for seed in range(6):
        for algorithm in ("fast", "lillis"):
            cases[f"loadcap-{algorithm}-{seed}"] = (
                lambda seed=seed, algorithm=algorithm: (
                    random_small_tree(seed + 30), load_capped(seed + 600),
                    {"algorithm": algorithm, "driver": drivers[seed % 3]},
                )
            )
    for size in (2, 4, 8):
        for algorithm in ("fast", "lillis"):
            cases[f"subset-b{size}-{algorithm}"] = (
                lambda size=size, algorithm=algorithm: (
                    *subsets(size + 40, size), {"algorithm": algorithm}
                )
            )
    return cases


def golden_record(result) -> dict:
    """One solve's answer in the ``dp_golden.json`` encoding."""
    return {
        "slack": float.hex(result.slack),
        "driver_load": float.hex(result.driver_load),
        "assignment": {
            str(node): buffer.name
            for node, buffer in sorted(result.assignment.items())
        },
        "root_candidates": result.stats.root_candidates,
        "peak_list_length": result.stats.peak_list_length,
        "candidates_generated": result.stats.candidates_generated,
    }


def assert_same_solve(result, reference) -> None:
    """``result`` equals ``reference`` bit for bit: slack, driver load,
    buffer assignment and every :class:`~repro.core.solution.DPStats`
    count (the algorithm label and runtime aside)."""
    assignment = getattr(result, "buffer_assignment", None)
    if assignment is None:
        assignment = result.assignment
    assert float.hex(result.slack) == float.hex(reference.slack)
    assert float.hex(result.driver_load) == float.hex(reference.driver_load)
    assert assignment == reference.assignment
    for field in ("num_buffer_positions", "library_size", "root_candidates",
                  "peak_list_length", "candidates_generated", "backend"):
        assert getattr(result.stats, field) == getattr(reference.stats, field), field


def inverter_repro():
    """A net whose only sink wants the inverted phase, and two libraries.

    ``two_pin_net(6000.0, num_segments=10)`` with its sink at polarity
    -1; ``paper_library(4)``, and the same plus an inverter with the
    first buffer's R, 0.7x its input capacitance and 0.6x its intrinsic
    delay.  A polarity-blind solve of the second answers -166.0 ps with
    no buffer, which delivers the wrong phase; the polarity DP finds
    -716.0 ps with one inverter.  Returns ``(net, plain, with_inverter)``.
    """
    from repro import BufferLibrary, BufferType, paper_library, two_pin_net

    net = two_pin_net(6000.0, num_segments=10)
    net.set_sink(net.sinks()[0].node_id, polarity=-1)
    plain = paper_library(4)
    first = plain.buffers[0]
    inverter = BufferType(
        "INV", first.driving_resistance, first.input_capacitance * 0.7,
        first.intrinsic_delay * 0.6, inverting=True,
    )
    return net, plain, BufferLibrary(list(plain.buffers) + [inverter])


def golden_cost(buffer) -> int:
    """A non-unit buffer cost for the min-cost golden cases: 1 + the
    input capacitance in whole 10 fF steps."""
    return 1 + int(buffer.input_capacitance / fF(10.0))


def extension_golden_cases() -> dict:
    """The corpus behind ``tests/data/extensions_golden.json``.

    Maps a case id to a zero-argument builder returning
    ``(kind, tree, library, kwargs)``.  ``kind`` names the extension
    DP: ``"polarity"`` (:func:`repro.insert_buffers_with_inverters`,
    ``kwargs`` holds the algorithm, solved on every store backend),
    ``"wiresizing"`` (:func:`repro.wiresizing.size_wires_and_insert_buffers`,
    ``kwargs`` holds the wire classes) or ``"mincost"``
    (:func:`repro.cost.slack_cost_frontier`, ``kwargs`` holds
    ``cost_fn`` and ``max_cost``).

    Polarity cases: segmented random nets with about 40% negative-phase
    sinks and mixed libraries from no inverter to all inverters (the
    inverter-free ones with a negative sink are infeasible), a
    polarity-free net, restricted positions (subsets with only
    inverters, only buffers, or nothing), load-capped types and a
    driverless net.  Wire-sizing cases use 1-4 wire classes;
    min-cost cases use unit and non-unit costs, with and without a
    small ``max_cost``.
    """
    from repro import (
        BufferLibrary,
        BufferType,
        mixed_paper_library,
        paper_library,
        random_tree_net,
        segment_tree,
        two_pin_net,
        uniform_random_library,
    )
    from repro.wiresizing import default_wire_classes

    def polarized_net(seed, sinks, segment=250.0, driver=True):
        rng = random.Random(seed)
        tree = segment_tree(
            random_tree_net(
                sinks, seed=seed, die_size=4000.0,
                required_arrival=ps(rng.uniform(300.0, 1200.0)),
                driver=Driver(rng.uniform(100.0, 600.0)) if driver else None,
            ),
            segment,
        )
        for sink in tree.sinks():
            if rng.random() < 0.4:
                sink.polarity = -1
        return tree

    def load_capped(seed):
        base = mixed_paper_library(4, inverter_fraction=0.5, seed=seed,
                                   jitter=0.05)
        capped = [
            BufferType(
                name=f"{b.name}_capped",
                driving_resistance=b.driving_resistance * 0.8,
                input_capacitance=b.input_capacitance,
                intrinsic_delay=b.intrinsic_delay,
                max_load=fF(30.0 + 15.0 * i),
                inverting=b.inverting,
            )
            for i, b in enumerate(base.buffers)
        ]
        return BufferLibrary(list(base.buffers) + capped)

    def restricted(seed):
        library = mixed_paper_library(6, inverter_fraction=0.5, seed=seed,
                                      jitter=0.05)
        inverters = [b.name for b in library.buffers if b.inverting]
        buffers = [b.name for b in library.buffers if not b.inverting]
        tree = polarized_net(seed, 5)
        subsets = (None, frozenset(inverters[:1]), frozenset(buffers),
                   frozenset(), frozenset(inverters))
        for rank, node in enumerate(tree.buffer_positions()):
            node.allowed_buffers = subsets[rank % len(subsets)]
        return tree, library

    polarity_cases = {}
    fractions = (0.0, 0.25, 0.5, 1.0)
    for seed in range(24):
        size = (2, 4, 6, 8)[seed % 4]
        fraction = fractions[(seed // 3) % 4]
        polarity_cases[f"random-{seed}"] = (
            lambda seed=seed, size=size, fraction=fraction: (
                polarized_net(seed + 200, 2 + seed % 5),
                mixed_paper_library(size, inverter_fraction=fraction,
                                    jitter=0.05, seed=seed),
            )
        )
    polarity_cases["positive-only"] = lambda: (
        two_pin_net(6000.0, num_segments=12, driver=Driver(200.0),
                    required_arrival=ps(900.0)),
        mixed_paper_library(6, inverter_fraction=0.5),
    )
    polarity_cases["restricted"] = lambda: restricted(7)
    polarity_cases["loadcap"] = lambda: (polarized_net(31, 4),
                                         load_capped(31))
    polarity_cases["driverless"] = lambda: (
        polarized_net(41, 4, driver=False),
        mixed_paper_library(4, inverter_fraction=0.5, jitter=0.05, seed=41),
    )

    cases = {}
    for name, builder in polarity_cases.items():
        for algorithm in ("fast", "lillis"):
            cases[f"polarity-{name}-{algorithm}"] = (
                lambda builder=builder, algorithm=algorithm: (
                    "polarity", *builder(), {"algorithm": algorithm}
                )
            )
    for seed in range(8):
        classes = 1 + seed % 4
        cases[f"wiresizing-{classes}-{seed}"] = (
            lambda seed=seed, classes=classes: (
                "wiresizing",
                random_small_tree(seed + 60) if seed % 2 else
                segment_tree(random_tree_net(
                    3 + seed, seed=seed + 60, die_size=4000.0,
                    required_arrival=ps(900.0), driver=Driver(250.0),
                ), 600.0),
                uniform_random_library(2 + seed % 3, seed=seed + 60),
                {"wire_classes": default_wire_classes(classes)},
            )
        )
    cases["wiresizing-4-trunk"] = lambda: (
        "wiresizing",
        two_pin_net(12000.0, num_segments=16, driver=Driver(200.0),
                    required_arrival=ps(1500.0)),
        paper_library(4),
        {"wire_classes": default_wire_classes(4)},
    )
    for seed in range(12):
        cost_fn = golden_cost if seed % 2 else None
        max_cost = (None, 3, 6)[seed % 3]
        cases[f"mincost-{seed}"] = (
            lambda seed=seed, cost_fn=cost_fn, max_cost=max_cost: (
                "mincost",
                random_small_tree(seed + 80) if seed % 4 < 2 else
                segment_tree(random_tree_net(
                    3 + seed % 5, seed=seed + 80, die_size=4000.0,
                    required_arrival=ps(900.0), driver=Driver(250.0),
                ), 800.0),
                uniform_random_library(2 + seed % 3, seed=seed + 80)
                if seed % 3 else paper_library(4),
                {"cost_fn": cost_fn, "max_cost": max_cost},
            )
        )
    return cases


def extension_record(kind: str, result) -> dict:
    """One extension solve's answer in the ``extensions_golden.json``
    encoding: slacks and loads as ``float.hex``, assignments as
    ``{node id: type or wire-class name}``."""

    def names(assignment):
        return {str(node): value.name
                for node, value in sorted(assignment.items())}

    if kind == "mincost":
        return {"frontier": [
            {"cost": point.cost, "slack": float.hex(point.slack),
             "assignment": names(point.assignment)}
            for point in result
        ]}
    record = {
        "slack": float.hex(result.slack),
        "driver_load": float.hex(result.driver_load),
        "root_candidates": result.stats.root_candidates,
    }
    if kind == "wiresizing":
        record["assignment"] = names(result.buffer_assignment)
        record["wire_assignment"] = names(result.wire_assignment)
    else:
        record["assignment"] = names(result.assignment)
    return record


def solve_extension_case(kind: str, tree, library, kwargs, backend="object"):
    """Run one :func:`extension_golden_cases` case and encode it with
    :func:`extension_record`; an infeasible polarity case encodes as
    ``{"infeasible": True}``."""
    from repro import insert_buffers_with_inverters
    from repro.cost import slack_cost_frontier
    from repro.errors import InfeasibleError
    from repro.wiresizing import size_wires_and_insert_buffers

    if kind == "polarity":
        try:
            result = insert_buffers_with_inverters(
                tree, library, backend=backend, **kwargs
            )
        except InfeasibleError:
            return {"infeasible": True}
    elif kind == "wiresizing":
        result = size_wires_and_insert_buffers(
            tree, library, kwargs["wire_classes"]
        )
    else:
        result = slack_cost_frontier(tree, library, **kwargs)
    return extension_record(kind, result)


def malformed_requests() -> Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Malformed solve bodies, each with the valid twin it came from.

    Maps a case name to ``(malformed body, twin body)`` over an 8-sink
    net with a driver and ``paper_library(4)``.  The twin is the valid
    request a lenient reader would take the malformed one for: the same
    net and library, except that ``allowed_buffers`` read as a string
    becomes the set of its characters.  A server must reject every
    malformed body with a 400, even with the twin's answer cached.
    """
    from repro import paper_library, random_tree_net
    from repro.tree.io import library_to_dict, tree_to_dict

    net = tree_to_dict(random_tree_net(
        8, seed=11, required_arrival=(ps(500.0), ps(2000.0)),
        driver=Driver(resistance=200.0),
    ))
    library = library_to_dict(paper_library(4))
    nodes = net["nodes"]
    sink = next(i for i, node in enumerate(nodes) if node["kind"] == "sink")
    inner = next(
        i for i, node in enumerate(nodes)
        if node["kind"] == "internal" and node.get("buffer_position")
    )
    buffer_name = library["buffers"][0]["name"]

    def node(body: Dict[str, Any], index: int) -> Dict[str, Any]:
        return body["net"]["nodes"][index]

    edits: Dict[str, Callable[[Dict[str, Any]], Any]] = {
        "node-without-kind": lambda body: node(body, sink).pop("kind"),
        "string-capacitance": lambda body: node(body, sink).update(
            capacitance=repr(nodes[sink]["capacitance"])),
        "string-edge-resistance": lambda body: node(body, sink)["edge"].update(
            resistance=repr(nodes[sink]["edge"]["resistance"])),
        "integer-position": lambda body: node(body, inner).update(position=5),
        "driver-without-resistance":
            lambda body: body["net"]["driver"].pop("resistance"),
        "nodes-not-a-list": lambda body: body["net"].update(nodes="abc"),
        "allowed_buffers-as-a-string":
            lambda body: node(body, inner).update(allowed_buffers=buffer_name),
        "buffer_position-as-a-string":
            lambda body: node(body, inner).update(buffer_position="no"),
        "buffer-without-name":
            lambda body: body["library"]["buffers"][0].pop("name"),
        "string-driving_resistance":
            lambda body: body["library"]["buffers"][0].update(
                driving_resistance=repr(
                    library["buffers"][0]["driving_resistance"])),
    }
    base = {"net": net, "library": library}
    cases = {}
    for case, edit in edits.items():
        malformed, twin = copy.deepcopy(base), copy.deepcopy(base)
        edit(malformed)
        if case == "allowed_buffers-as-a-string":
            node(twin, inner)["allowed_buffers"] = sorted(set(buffer_name))
        cases[case] = (malformed, twin)
    return cases
