"""Per-request feature extraction for execution routing.

A :class:`RequestFeatures` vector is everything the router is allowed
to look at: quantities that are *already known* before any solving
happens — tree/schedule size counters, the library size, how many
structurally identical lanes arrived together, and whether the request
is a solve or an incremental-session resolve.  Feature extraction never
triggers validation, plan building or compilation; for a plain
:class:`~repro.tree.routing_tree.RoutingTree` the instruction count is
a closed-form estimate of what :func:`compile_net` would emit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Union

from repro.core.schedule import CompiledNet
from repro.library.library import BufferLibrary
from repro.tree.routing_tree import RoutingTree

#: Request kinds the router distinguishes: a (possibly grouped) solve
#: versus an incremental-session resolve.
KINDS = ("solve", "session")


@dataclass(frozen=True)
class RequestFeatures:
    """The feature vector of one routable request.

    Attributes:
        positions: Legal buffer positions ``n`` of one net (the DP's
            outer work axis).
        sinks: Sink count of one net.
        library_size: Buffer types ``b`` (the DP's inner work axis).
        instructions: Compiled schedule length (exact for a
            :class:`CompiledNet`, estimated for a plain tree) — the
            quantity the partitioned-solve threshold is expressed in.
        lanes: Structurally identical nets arriving as one group
            (``1`` for a solo solve) — the batch-axis width.
        kind: ``"solve"`` or ``"session"``.
    """

    positions: int
    sinks: int
    library_size: int
    instructions: int
    lanes: int = 1
    kind: str = "solve"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (workload-log JSONL payload)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RequestFeatures":
        """Inverse of :meth:`to_dict`; ignores unknown keys so old logs
        survive feature-vector growth."""
        names = {field for field in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


def estimate_instructions(tree: RoutingTree) -> int:
    """What ``len(compile_net(tree, ...).ops)`` will be, without compiling.

    The flattener emits one instruction per sink, one per edge (every
    non-root node has exactly one entry edge), one per buffer position,
    and one merge per extra child — and because every leaf is a sink,
    the merge count collapses to ``num_sinks - 1`` for any topology.
    """
    return (
        2 * tree.num_sinks
        + tree.num_nodes
        + tree.num_buffer_positions
        - 2
    )


def features_of(
    net: Union[RoutingTree, CompiledNet],
    library: Optional[BufferLibrary] = None,
    *,
    lanes: int = 1,
    kind: str = "solve",
) -> RequestFeatures:
    """Extract the routing feature vector from a net, without solving.

    Args:
        net: A plain tree or a compiled schedule.  Compiled nets carry
            exact counters; trees use :func:`estimate_instructions`.
        library: The buffer library (its size is a feature).  Optional
            for a :class:`CompiledNet`, which remembers its library.
        lanes: Group width this net arrived with (batch axis).
        kind: ``"solve"`` or ``"session"``.
    """
    if isinstance(net, CompiledNet):
        lib = library if library is not None else net.library
        return RequestFeatures(
            positions=net.num_buffer_positions,
            sinks=net.num_sinks,
            library_size=lib.size,
            instructions=net.num_instructions,
            lanes=lanes,
            kind=kind,
        )
    if library is None:
        raise ValueError("library is required for a plain RoutingTree")
    return RequestFeatures(
        positions=net.num_buffer_positions,
        sinks=net.num_sinks,
        library_size=library.size,
        instructions=estimate_instructions(net),
        lanes=lanes,
        kind=kind,
    )
