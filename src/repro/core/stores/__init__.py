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

This package imports neither store module, so NumPy loads only where
``soa`` or the batch axis is named.
"""

from __future__ import annotations

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


__all__ = [
    "STORE_BACKENDS",
    "AUTO_BACKEND",
    "SPLICE_BACKEND",
    "validate_backend",
]
