"""Serving layer: canonical request hashing, result caching, HTTP server.

The solver core (:mod:`repro.core`) is a stateless compute kernel: every
call to :func:`~repro.core.api.insert_buffers` pays the full solve cost,
even for a net it has seen a thousand times.  This package adds the
stateful front end a traffic-serving deployment needs:

* :mod:`repro.service.canon` — canonical serialization and a stable
  content hash of ``(net, library, algorithm, backend, options)``, so
  structurally identical requests hit the same cache entry regardless of
  node naming, node numbering or child ordering;
* :mod:`repro.service.cache` — a thread-safe LRU + TTL result cache with
  hit/miss/eviction counters, storing compact solution payloads keyed by
  canonical hash;
* :mod:`repro.service.server` — an asyncio HTTP JSON server
  (``repro serve``) with ``/solve``, ``/batch``, stateful ``/session``
  endpoints (incremental ECO re-solve, backed by
  :mod:`repro.incremental`), ``/healthz`` and ``/stats``; cache-miss
  work shards across a persistent :class:`~repro.core.batch.SolverPool`;
* :mod:`repro.service.client` — a small stdlib client
  (:class:`ServiceClient` / :class:`ServiceSession`) used by the tests,
  ``examples/serving.py`` and ``examples/incremental_eco.py``.

Everything here is standard library only (the compute kernel underneath
may still use NumPy through the ``soa`` backend).  Each public name
loads its module on first use, so code that needs only the canonical
hash (the incremental engine) imports neither the result cache nor the
HTTP stack.
"""

from importlib import import_module

_LAZY = {
    "CanonicalNet": "repro.service.canon",
    "canonicalize": "repro.service.canon",
    "library_key": "repro.service.canon",
    "options_key": "repro.service.canon",
    "request_key": "repro.service.canon",
    "CacheStats": "repro.service.cache",
    "ResultCache": "repro.service.cache",
    "SolutionPayload": "repro.service.cache",
    "ServiceClient": "repro.service.client",
    "ServiceSession": "repro.service.client",
    "BufferServer": "repro.service.server",
    "serve": "repro.service.server",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
