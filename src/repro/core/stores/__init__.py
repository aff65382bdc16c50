"""Candidate-store backends and their registry.

A *backend* decides how the DP's per-subtree candidate lists are stored
and how the paper's operations execute over them:

* ``"object"`` — the seed representation: a Python list of
  ``(q, c, decision)`` tuples (:mod:`repro.core.candidate`; reference
  implementation; default).
* ``"soa"`` — structure of arrays: parallel NumPy ``q``/``c`` float
  arrays plus a decision index array; hot loops are whole-array
  operations (:mod:`repro.core.stores.soa`).

``"auto"`` (:data:`AUTO_BACKEND`) is not a store.  The public entry
points resolve it once per request through the execution router;
the strategies and the DP interpreter reject it.

Third-party backends register without touching core::

    from repro.core.stores import register_store_backend
    from repro.core.stores.base import StoreFactory

    @register_store_backend("mmap")
    class MmapStoreFactory(StoreFactory):
        ...

    insert_buffers(tree, library, backend="mmap")
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Type

from repro.core.stores.base import BestCandidate, CandidateStore, StoreFactory
from repro.core.stores.object_store import ObjectStore, ObjectStoreFactory
from repro.core.stores.soa import SoAStore, SoAStoreFactory
from repro.errors import AlgorithmError

_BACKENDS: Dict[str, Type[StoreFactory]] = {}


def register_store_backend(
    name: str,
) -> Callable[[Type[StoreFactory]], Type[StoreFactory]]:
    """Class decorator registering a :class:`StoreFactory` under ``name``.

    Raises:
        AlgorithmError: If ``name`` is already taken (re-registering the
            same class is a no-op, so modules may be safely re-imported).
    """

    def decorator(factory_cls: Type[StoreFactory]) -> Type[StoreFactory]:
        existing = _BACKENDS.get(name)
        if existing is not None and existing is not factory_cls:
            raise AlgorithmError(
                f"candidate-store backend {name!r} is already registered "
                f"to {existing.__name__}"
            )
        factory_cls.backend = name
        _BACKENDS[name] = factory_cls
        return factory_cls

    return decorator


def unregister_store_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _BACKENDS.pop(name, None)


def get_store_backend(name: str) -> Type[StoreFactory]:
    """The factory class registered under ``name``.

    Raises:
        AlgorithmError: Unknown backend name.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown candidate-store backend {name!r}; "
            f"choose one of {store_backend_names()}"
        ) from None


def store_backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


#: The name that lets the execution router pick the store for the
#: request at hand (:func:`repro.routing.router.static_store`).
AUTO_BACKEND = "auto"


register_store_backend("object")(ObjectStoreFactory)
register_store_backend("soa")(SoAStoreFactory)

__all__ = [
    "BestCandidate",
    "CandidateStore",
    "StoreFactory",
    "ObjectStore",
    "ObjectStoreFactory",
    "SoAStore",
    "SoAStoreFactory",
    "register_store_backend",
    "unregister_store_backend",
    "get_store_backend",
    "store_backend_names",
    "AUTO_BACKEND",
]
