"""The library's front door: :func:`insert_buffers`.

Dispatch is a registry lookup (:mod:`repro.core.registry`): the
``algorithm`` argument names a registered :class:`InsertionAlgorithm`
strategy, so third-party algorithms plug in without touching this
module.  The ``backend`` argument names a candidate store
(:data:`repro.core.stores.STORE_BACKENDS`) — or ``"auto"``, the
default, which defers the choice to the execution router
(:mod:`repro.routing`): the default ``static`` policy picks the object
store for one net (:func:`repro.routing.router.static_store`).
``"auto"`` is resolved here, once; the strategy only ever sees a
concrete store.

The first positional argument may be a plain
:class:`~repro.tree.routing_tree.RoutingTree` *or* a
:class:`~repro.core.schedule.CompiledNet` from
:func:`~repro.core.schedule.compile_net`: compile a net once, then
re-solve it across algorithms, drivers and backends without paying for
validation, plan building and flattening again.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.registry import get_algorithm
from repro.core.schedule import CompiledNet
from repro.core.solution import BufferingResult
from repro.core.stores import AUTO_BACKEND, validate_backend
from repro.library.library import BufferLibrary
from repro.resilience.deadline import Deadline, deadline_scope
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


def insert_buffers(
    tree: Union[RoutingTree, CompiledNet],
    library: BufferLibrary,
    algorithm: str = "fast",
    driver: Optional[Driver] = None,
    backend: str = "auto",
    policy: Optional[str] = None,
    deadline: Optional[Deadline] = None,
    **options,
) -> BufferingResult:
    """Maximize slack by optimal buffer insertion.

    This is the public entry point.  ``algorithm`` selects a registered
    strategy; the built-ins are:

    * ``"fast"`` (default) — the paper's O(b n^2) algorithm.  Accepts
      ``destructive_pruning=True`` to run the literal DATE-2005
      pseudocode (see :mod:`repro.core.fast`).
    * ``"lillis"`` — the O(b^2 n^2) baseline.
    * ``"van_ginneken"`` — the classic algorithm; requires ``b == 1``.

    All algorithms return the same optimal slack; they differ in running
    time only (that difference being the paper's entire point).
    ``backend`` selects how candidate lists are stored and operated on:
    ``"object"`` (lists of candidate tuples), ``"soa"`` (structure-of-arrays
    over NumPy), or ``"auto"`` (the default), which hands the choice to
    the execution router: under the default ``policy="static"``, the
    object store, which is the faster one for a single net at every
    measured size (see :func:`repro.routing.router.static_store`).
    Every backend produces bit-identical results, so the choice only
    ever moves running time.

    Args:
        tree: A routing tree, or a pre-compiled net from
            :func:`repro.core.schedule.compile_net` (fastest for repeat
            solves: a plain tree is validated and compiled on every
            call).
        library: The buffer library.
        algorithm: A registered algorithm name
            (:func:`repro.core.registry.algorithm_names`).
        driver: Source driver; defaults to ``tree.driver``; ``None``
            means an ideal driver.
        backend: ``"auto"`` or a candidate store named in
            :data:`repro.core.stores.STORE_BACKENDS`.
        policy: Routing policy for the ``"auto"`` backend decision:
            ``"static"`` (the default for ``None``) or an ``always_*`` /
            ``never_*`` escape hatch (see :mod:`repro.routing.router`).
        deadline: Optional per-request wall budget
            (:class:`repro.resilience.Deadline`).  Checked cooperatively
            at instruction-range boundaries; an expired deadline raises
            :class:`~repro.errors.DeadlineExceeded` instead of returning
            a partial result.  Deadlines never change a completed
            result.
        **options: Algorithm-specific flags.

    Returns:
        A :class:`~repro.core.solution.BufferingResult`.

    Raises:
        AlgorithmError: Unknown algorithm or backend name, invalid
            options, or a compiled net whose library does not match.
        ValueError: Unknown ``policy``.
    """
    if deadline is not None:
        with deadline_scope(deadline):
            return insert_buffers(
                tree, library, algorithm=algorithm, driver=driver,
                backend=backend, policy=policy, **options,
            )
    strategy = get_algorithm(algorithm)
    strategy.validate_options(options)
    if backend != AUTO_BACKEND:
        validate_backend(backend)
    if backend == AUTO_BACKEND or policy is not None:
        from repro.routing.features import features_of
        from repro.routing.router import router_for

        backend = router_for(policy).route(
            features_of(tree, library), backend=backend
        ).backend
    return strategy.run(
        tree, library, driver=driver, backend=backend, **options
    )
