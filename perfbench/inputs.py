"""Seeded input generation: nets, relabelled re-sends, bodies, edit scripts.

Everything a run sends is built here, from the workload seed, before
its timed window opens.  The program under test only ever sees the
generated JSON.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Tuple

from repro.experiments.workloads import make_corners
from repro.library.generators import paper_library
from repro.library.library import BufferLibrary
from repro.tree.builders import random_tree_net
from repro.tree.io import tree_to_dict
from repro.tree.node import Driver
from repro.units import ps

Net = Dict[str, Any]


def library(size: int, seed: int) -> BufferLibrary:
    """``paper_library(size)`` with 3% seeded jitter on every parameter."""
    return paper_library(size, jitter=0.03, seed=seed)


def random_net(sinks: int, seed: int) -> Net:
    """A ``random_tree_net`` with Table-1 electricals, as request JSON."""
    tree = random_tree_net(
        sinks, seed=seed,
        required_arrival=(ps(500.0), ps(3000.0)),
        driver=Driver(resistance=200.0),
    )
    return tree_to_dict(tree)


def spread_sizes(lo: int, hi: int, count: int, log: bool = False) -> List[int]:
    """``count`` sizes in ``[lo, hi]``, evenly spread over any prefix.

    A golden-ratio sequence, independent of the seed: every run sends
    the same size mix, and the latency percentiles fall inside a
    continuous distribution instead of on the step between two size
    classes.  ``log=True`` spreads the sizes evenly in log scale.
    """
    sizes = []
    for i in range(count):
        u = (i * 0.6180339887498949) % 1.0
        if log:
            sizes.append(round(lo * (hi / lo) ** u))
        else:
            sizes.append(lo + int((hi - lo + 1) * u))
    return sizes


def relabel(net: Net, tag: str, rng: random.Random) -> Tuple[Net, Dict[Any, str]]:
    """The same net under fresh node ids; returns ``(net, {old: new})``.

    New ids are ``tag`` plus a shuffled index, so they share nothing
    with the old ids or with another relabelling's.  Node order,
    topology and every electrical value are untouched, so the request
    key is the same and the answer is the same up to the id mapping.
    """
    order = list(range(len(net["nodes"])))
    rng.shuffle(order)
    label = {
        node["id"]: f"{tag}{k}" for node, k in zip(net["nodes"], order)
    }
    nodes = []
    for node in net["nodes"]:
        fresh = dict(node, id=label[node["id"]])
        if "edge" in node:
            fresh["edge"] = dict(node["edge"], parent=label[node["edge"]["parent"]])
        nodes.append(fresh)
    return dict(net, nodes=nodes), label


def solve_body(net: Net, library_dict: Dict[str, Any]) -> bytes:
    """A ``POST /solve`` body at default settings."""
    return json.dumps({
        "net": net, "library": library_dict,
        "algorithm": "fast", "backend": "auto", "options": {},
    }).encode("utf-8")


def batch_body(nets: List[Net], library_dict: Dict[str, Any]) -> bytes:
    """A ``POST /batch`` body at default settings."""
    return json.dumps({
        "nets": nets, "library": library_dict,
        "algorithm": "fast", "backend": "auto", "options": {},
    }).encode("utf-8")


def corner_lanes(net: Net, lanes: int) -> List[Net]:
    """``lanes`` R/C-corner replicas of ``net``: the wire scaling of
    ``corner_variants`` over ``make_corners``, applied to the JSON so
    the replicas keep ``net``'s ids."""
    replicas = []
    for _, r_scale, c_scale in make_corners(lanes):
        nodes = []
        for node in net["nodes"]:
            edge = node.get("edge")
            if edge is not None:
                node = dict(node, edge=dict(
                    edge, resistance=edge["resistance"] * r_scale,
                    capacitance=edge["capacitance"] * c_scale,
                ))
            nodes.append(node)
        replicas.append(dict(net, nodes=nodes))
    return replicas


def edit_script(net: Net, steps: int, rng: random.Random) -> List[Dict[str, Any]]:
    """``steps`` single ECO edits on ``net``'s ids, one JSON edit each.

    A third each of ``set_sink_rat`` (RAT x U(0.85, 1.15)),
    ``set_sink_cap`` (load x U(0.7, 1.4)) and ``set_wire`` (a random
    wire's R and C x U(0.6, 1.6)); values are drawn against the base
    net, so no edit compounds on an earlier one.
    """
    sinks = [node for node in net["nodes"] if node["kind"] == "sink"]
    wired = [node for node in net["nodes"] if "edge" in node]
    script = []
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            sink = rng.choice(sinks)
            edit = {"op": "set_sink_rat", "node": sink["id"],
                    "required_arrival":
                        sink["required_arrival"] * rng.uniform(0.85, 1.15)}
        elif kind == 1:
            sink = rng.choice(sinks)
            edit = {"op": "set_sink_cap", "node": sink["id"],
                    "capacitance": sink["capacitance"] * rng.uniform(0.7, 1.4)}
        else:
            node = rng.choice(wired)
            edit = {"op": "set_wire", "node": node["id"],
                    "resistance": node["edge"]["resistance"] * rng.uniform(0.6, 1.6),
                    "capacitance":
                        node["edge"]["capacitance"] * rng.uniform(0.6, 1.6)}
        script.append(edit)
    return script
