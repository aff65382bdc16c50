"""Core buffer-insertion algorithms and the candidate algebra they share.

The public entry point is :func:`repro.core.api.insert_buffers`, which
dispatches to one of three algorithms:

* ``"van_ginneken"`` — the classic single-buffer-type O(n^2) algorithm
  (van Ginneken, ISCAS 1990); requires a size-1 library.
* ``"lillis"`` — the O(b^2 n^2) multi-type extension (Lillis, Cheng &
  Lin, JSSC 1996): the baseline the paper compares against.
* ``"fast"`` — the paper's O(b n^2) algorithm: convex pruning of the
  (Q, C) candidate list plus a monotone hull walk over buffer types
  sorted by non-increasing driving resistance.

All three run the same bottom-up dynamic program
(:mod:`repro.core.dp`); they differ only in the "add buffer" operation
(:mod:`repro.core.buffer_ops`), exactly as in the paper.
"""

from importlib import import_module

_LAZY = {
    "prune_dominated": "repro.core.pruning",
    "convex_prune": "repro.core.pruning",
    "is_nonredundant": "repro.core.pruning",
    "is_convex": "repro.core.pruning",
    "BufferingResult": "repro.core.solution",
    "DPStats": "repro.core.solution",
    "InsertionAlgorithm": "repro.core.registry",
    "register_algorithm": "repro.core.registry",
    "unregister_algorithm": "repro.core.registry",
    "get_algorithm": "repro.core.registry",
    "algorithm_names": "repro.core.registry",
    "available_algorithms": "repro.core.registry",
    "CompiledNet": "repro.core.schedule",
    "compile_net": "repro.core.schedule",
    "insert_buffers": "repro.core.api",
    "insert_buffers_van_ginneken": "repro.core.van_ginneken",
    "insert_buffers_lillis": "repro.core.lillis",
    "insert_buffers_fast": "repro.core.fast",
    "insert_buffers_brute_force": "repro.core.brute_force",
    "insert_buffers_with_inverters": "repro.core.polarity",
    "verify_polarities": "repro.core.polarity",
    "solve_many": "repro.core.batch",
    "SolverPool": "repro.core.batch",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
