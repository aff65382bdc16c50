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

from repro.core.pruning import prune_dominated, convex_prune, is_nonredundant, is_convex
from repro.core.solution import BufferingResult, DPStats
from repro.core.registry import (
    InsertionAlgorithm,
    algorithm_names,
    available_algorithms,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.schedule import CompiledNet, compile_net
from repro.core.api import insert_buffers
from repro.core.fast import insert_buffers_fast
from repro.core.lillis import insert_buffers_lillis
from repro.core.van_ginneken import insert_buffers_van_ginneken
from repro.core.brute_force import insert_buffers_brute_force
from repro.core.polarity import insert_buffers_with_inverters, verify_polarities
from repro.core.batch import SolverPool, solve_many

__all__ = [
    "prune_dominated",
    "convex_prune",
    "is_nonredundant",
    "is_convex",
    "BufferingResult",
    "DPStats",
    "InsertionAlgorithm",
    "register_algorithm",
    "unregister_algorithm",
    "get_algorithm",
    "algorithm_names",
    "available_algorithms",
    "CompiledNet",
    "compile_net",
    "insert_buffers",
    "insert_buffers_van_ginneken",
    "insert_buffers_lillis",
    "insert_buffers_fast",
    "insert_buffers_brute_force",
    "insert_buffers_with_inverters",
    "verify_polarities",
    "solve_many",
    "SolverPool",
]
