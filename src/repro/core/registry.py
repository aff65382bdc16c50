"""Pluggable insertion-algorithm registry.

The dispatch layer between :func:`repro.core.api.insert_buffers` and the
algorithms.  An algorithm is a subclass of :class:`InsertionAlgorithm`
registered under a name::

    from repro.core.registry import InsertionAlgorithm, register_algorithm

    @register_algorithm("mine")
    class MyAlgorithm(InsertionAlgorithm):
        complexity = "O(?)"
        summary = "my experimental strategy"

        def run(self, tree, library, driver=None, backend="object", **options):
            ...return a BufferingResult...

    insert_buffers(tree, library, algorithm="mine")

Third-party algorithms therefore plug in without touching core; the CLI
and the experiment harness enumerate :func:`algorithm_names` instead of
hardcoding tuples.  The built-in strategies (:data:`BUILTIN_ALGORITHMS`)
live in their own modules and are imported lazily on first lookup,
keeping this module import-cycle-free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from importlib import import_module
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Type

from repro.core.solution import BufferingResult
from repro.errors import AlgorithmError
from repro.library.library import BufferLibrary
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


class InsertionAlgorithm(ABC):
    """A buffer-insertion strategy selectable by name.

    Class attributes (documentation and validation metadata):

    Attributes:
        name: Registry name; set by :func:`register_algorithm`.
        complexity: Asymptotic running time, e.g. ``"O(b n^2)"``.
        summary: One-line description for ``--help`` and the README.
        options: Keyword options :meth:`run` accepts beyond ``driver``
            and ``backend``; anything else is rejected by the dispatcher
            with an :class:`AlgorithmError`.
    """

    name: str = ""
    complexity: str = ""
    summary: str = ""
    options: FrozenSet[str] = frozenset()

    @abstractmethod
    def run(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        driver: Optional[Driver] = None,
        backend: str = "object",
        **options,
    ) -> BufferingResult:
        """Solve one instance and return the optimal buffering."""

    def add_buffer_op(
        self, backend: str, library: BufferLibrary, **options
    ) -> Callable:
        """The algorithm's add-buffer operation as a bare callable.

        This is what makes a strategy *incrementally re-solvable*: the
        engine of :mod:`repro.incremental` drives the shared dynamic
        program itself (splicing memoized subtree frontiers into the
        instruction stream) and only needs the one operation the
        algorithms differ in.  The returned callable follows the
        :data:`repro.core.dp.AddBufferOp` contract for ``backend``.
        The built-ins all implement this; strategies that don't simply
        cannot be used in an :class:`~repro.incremental.engine.IncrementalSolver`.

        Raises:
            AlgorithmError: The strategy does not expose its add-buffer
                operation (default), or ``library``/``options`` are
                invalid for it.
        """
        raise AlgorithmError(
            f"algorithm {self.name!r} does not expose add_buffer_op and "
            "therefore cannot be re-solved incrementally"
        )

    def stats_label(self, **options) -> str:
        """The ``DPStats.algorithm`` label a run with ``options`` reports."""
        return self.name

    def validate_options(self, options: Dict[str, object]) -> None:
        """Reject unknown keyword options with the canonical message."""
        unknown = set(options) - set(self.options)
        if unknown:
            raise AlgorithmError(
                f"unknown options for {self.name!r}: {sorted(unknown)}"
            )


#: The built-in strategies, in registration order; ``name`` registers
#: in the module ``repro.core.<name>``.  Naming them here lets a caller
#: (the CLI parser) list them without importing any strategy.
BUILTIN_ALGORITHMS = ("fast", "lillis", "van_ginneken")

_REGISTRY: Dict[str, InsertionAlgorithm] = {}
_BUILTINS_LOADED = False


def register_algorithm(
    name: str,
) -> Callable[[Type[InsertionAlgorithm]], Type[InsertionAlgorithm]]:
    """Class decorator registering an :class:`InsertionAlgorithm`.

    The class is instantiated once at registration (strategies are
    stateless); re-registering the *same* class is a no-op so modules
    survive re-import, but claiming an already-taken name with a
    different class raises.

    Raises:
        AlgorithmError: ``name`` is registered to a different class.
    """

    def decorator(cls: Type[InsertionAlgorithm]) -> Type[InsertionAlgorithm]:
        existing = _REGISTRY.get(name)
        if existing is not None and type(existing) is not cls:
            raise AlgorithmError(
                f"algorithm {name!r} is already registered to "
                f"{type(existing).__name__}"
            )
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (primarily for tests and plugins)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins_loaded() -> None:
    """Import the built-in strategy modules (registration side effect)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    for name in BUILTIN_ALGORITHMS:
        import_module(f"repro.core.{name}")


def get_algorithm(name: str) -> InsertionAlgorithm:
    """The registered strategy instance for ``name``.

    Raises:
        AlgorithmError: Unknown algorithm name.
    """
    _ensure_builtins_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; choose one of {algorithm_names()}"
        ) from None


def algorithm_names() -> Tuple[str, ...]:
    """Registered algorithm names, in registration order."""
    _ensure_builtins_loaded()
    return tuple(_REGISTRY)


def available_algorithms() -> Dict[str, InsertionAlgorithm]:
    """Name-to-strategy mapping (a copy; mutating it has no effect)."""
    _ensure_builtins_loaded()
    return dict(_REGISTRY)
