"""Buffer libraries: buffer types, library containers, synthesis, clustering.

A :class:`~repro.library.buffer_type.BufferType` models a (non-inverting)
repeater with the linear delay model the paper uses: inserting buffer type
``B_i`` driving downstream capacitance ``C`` costs ``K_i + R_i * C`` and
presents input capacitance ``C_i`` upstream.

:class:`~repro.library.library.BufferLibrary` is an immutable, validated
collection of buffer types with the two sorted views the O(bn^2) algorithm
needs (by non-increasing driving resistance and by non-decreasing input
capacitance), both precomputed once per library.
"""

from importlib import import_module

_LAZY = {
    "BufferType": "repro.library.buffer_type",
    "BufferLibrary": "repro.library.library",
    "paper_library": "repro.library.generators",
    "geometric_library": "repro.library.generators",
    "mixed_paper_library": "repro.library.generators",
    "uniform_random_library": "repro.library.generators",
    "cluster_library": "repro.library.clustering",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
