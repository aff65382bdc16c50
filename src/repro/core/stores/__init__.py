"""Candidate stores: the names ``backend=`` takes, and their one check.

A *store* decides how the DP's per-subtree candidate lists are kept
and how the paper's operations execute over them:

* ``"object"`` — a Python list of ``(q, c, decision)`` tuples operated
  on by the list functions of :mod:`repro.core.wire_ops`,
  :mod:`repro.core.merge` and :mod:`repro.core.buffer_ops` (the
  reference; every single net, session and partitioned solve runs
  here by default).
* ``"soa"`` — structure of arrays: parallel NumPy ``q``/``c`` float
  arrays plus a provenance-tape index array, whose hot loops are
  whole-array operations (:mod:`repro.core.stores.soa`; the batch
  axis's lane engine, :mod:`repro.core.stores.batch_axis`, builds on
  its kernels).

``"auto"`` (:data:`AUTO_BACKEND`) is not a store.  The public entry
points resolve it once per request through the execution router;
the strategies and the DP interpreter reject it.

This package imports neither store module.  Whether a context *can*
batch (:func:`supports_batch_axis`) is answered from
:func:`numpy_installed`, which asks the import system where NumPy would
load from without loading it, so NumPy loads only at the first lane
group dispatched onto the batch axis or the first ``soa`` solve.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache

from repro.errors import AlgorithmError

#: Every candidate store, by the name ``backend=`` takes.
STORE_BACKENDS = ("object", "soa")

#: The name that lets the execution router pick the store for the
#: request at hand (:func:`repro.routing.router.static_store`).
AUTO_BACKEND = "auto"

#: The one store whose frontiers are frozen and spliced: every
#: incremental session and every partitioned solve runs on it.
SPLICE_BACKEND = "object"


def validate_backend(backend: str) -> str:
    """Return ``backend`` if it names a store in :data:`STORE_BACKENDS`.

    Raises:
        AlgorithmError: Any other name, ``"auto"`` included (callers
            that accept it resolve it first).
    """
    if backend not in STORE_BACKENDS:
        raise AlgorithmError(
            f"unknown candidate-store backend {backend!r}; "
            f"choose one of {STORE_BACKENDS}"
        )
    return backend


@lru_cache(maxsize=None)
def numpy_installed() -> bool:
    """Whether NumPy is installed, answered without importing it.

    ``importlib.util.find_spec`` only locates the package: ~0.1 ms,
    once per process, where importing the lane engine, NumPy
    included, takes ~140 ms and ~13 MB of RSS (2-core x86-64 box,
    Python 3.11).  An installed NumPy that then fails to import is met
    where the lane engine loads: a :class:`~repro.core.batch.SolverPool`
    turns its batch axis off and solves the group's lanes one by one.
    """
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:  # a finder that refuses NumPy outright
        return False


def supports_batch_axis(
    backend: str, library, algorithm: str, options: dict
) -> bool:
    """Whether a solve context can legally dispatch structural groups.

    Requires ``backend`` ``"soa"`` (the batched store packs SoA
    columns) or ``"auto"`` (the router may put a group there), an
    installed NumPy, and an algorithm that drives candidate stores
    through the ``add_buffer_op`` seam for this library and these
    options — the preconditions of
    :func:`repro.core.stores.batch_axis.solve_group`.  Anything else
    falls back to the per-net path, never errors.  Loads no NumPy.
    """
    if backend not in ("soa", AUTO_BACKEND) or not numpy_installed():
        return False
    from repro.core.registry import get_algorithm

    try:
        get_algorithm(algorithm).add_buffer_op("soa", library, **options)
    except AlgorithmError:
        return False
    return True


__all__ = [
    "STORE_BACKENDS",
    "AUTO_BACKEND",
    "SPLICE_BACKEND",
    "validate_backend",
    "numpy_installed",
    "supports_batch_axis",
]
