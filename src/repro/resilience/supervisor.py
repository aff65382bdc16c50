"""Supervised execution: retry, respawn, degrade — never hang.

The :class:`Supervisor` runs an *attempt* callable under a simple
policy: on a **supervisable** failure (worker crash, broken pool, hung
task timeout, injected fault) it respawns the resource (caller-supplied
``respawn`` hook, e.g. terminate + recreate a process pool), sleeps a
capped exponential backoff with deterministic jitter, and retries; when
retries are exhausted it invokes the caller's ``fallback`` — for this
codebase always the *bit-identical in-process plan* — instead of
failing the request.  Genuine algorithm errors and
:class:`~repro.errors.DeadlineExceeded` are never supervisable: they
propagate immediately.

Backoff jitter is drawn from a seeded stream so resilience tests and
``bench_resilience.py`` replay identically.
"""

from __future__ import annotations

import random
import threading
import time
from functools import lru_cache
from typing import Callable, Optional, Tuple, TypeVar

from repro.errors import (
    DeadlineExceeded,
    FaultInjectedError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.obs.metrics import process_counter
from repro.obs.spans import active_tracer
from repro.resilience.deadline import Deadline

__all__ = [
    "BackoffPolicy",
    "SUPERVISABLE_ERRORS",
    "Supervisor",
    "is_supervisable",
]

T = TypeVar("T")

@lru_cache(maxsize=None)
def _supervisable_errors() -> Tuple[type, ...]:
    """Failures the supervisor may retry: dead or hung workers, broken
    pools, torn pipes, and injected faults.  ``OSError`` covers
    ``BrokenPipeError`` / ``ConnectionResetError`` from pool plumbing.

    Built on first use: the pool plumbing's exception types are the
    only reason to import :mod:`multiprocessing` here, and a process
    that solves inline never needs them until something fails.
    """
    import multiprocessing
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    return (
        BrokenProcessPool,
        multiprocessing.TimeoutError,
        FuturesTimeoutError,
        TimeoutError,
        EOFError,
        OSError,
        FaultInjectedError,
        WorkerCrashError,
        WorkerHangError,
    )


def __getattr__(name: str):
    # ``SUPERVISABLE_ERRORS`` stays a public tuple, resolved on first use.
    if name == "SUPERVISABLE_ERRORS":
        return _supervisable_errors()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def is_supervisable(exc: BaseException) -> bool:
    """Whether ``exc`` is a fault the supervisor may retry.

    :class:`DeadlineExceeded` is explicitly excluded even though a hung
    worker surfaces as a timeout — once the *request* deadline is gone,
    retrying cannot help.
    """
    if isinstance(exc, DeadlineExceeded):
        return False
    return isinstance(exc, _supervisable_errors())


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(cap, base * factor**attempt)`` scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from a stream seeded at
    construction, so a given policy instance replays the same delays.
    """

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        cap: float = 1.0,
        jitter: float = 0.25,
        seed: int = 2005,
    ) -> None:
        if base < 0 or cap < 0 or not 0 <= jitter < 1:
            raise ValueError("invalid backoff parameters")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self._stream = random.Random(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        raw = min(self.cap, self.base * (self.factor ** max(0, attempt)))
        if self.jitter == 0.0:
            return raw
        with self._lock:
            scale = 1.0 + self.jitter * (2.0 * self._stream.random() - 1.0)
        return raw * scale


class Supervisor:
    """Retry/respawn/degrade loop around a fallible attempt.

    One instance per supervised resource (e.g. per :class:`SolverPool`).
    Every retry, respawn, fallback and supervised failure counts in the
    process registry's ``repro_supervisor_events_total`` (by ``event``),
    which the ``/stats`` ``resilience`` block projects.
    """

    def __init__(
        self,
        max_retries: int = 2,
        backoff: Optional[BackoffPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = int(max_retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._sleep = sleep

    @staticmethod
    def _count(event: str) -> None:
        process_counter("repro_supervisor_events_total").inc(event=event)

    def run(
        self,
        attempt: Callable[[], T],
        respawn: Optional[Callable[[], None]] = None,
        fallback: Optional[Callable[[], T]] = None,
        deadline: Optional[Deadline] = None,
        on_failure: Optional[Callable[[BaseException], None]] = None,
    ) -> T:
        """Run ``attempt`` with supervision.

        Retries supervisable failures up to ``max_retries`` times,
        calling ``respawn`` and sleeping a backoff (clipped to the
        deadline's remaining budget) between attempts.  When retries
        are exhausted, runs ``fallback`` if given, else re-raises the
        last failure.  ``on_failure`` observes every supervisable
        failure (used to feed circuit breakers).
        """
        last: Optional[BaseException] = None
        for attempt_index in range(self.max_retries + 1):
            if deadline is not None:
                deadline.check("supervisor.retry")
            try:
                return attempt()
            except BaseException as exc:  # noqa: BLE001 - reclassified below
                if not is_supervisable(exc):
                    raise
                last = exc
                self._count("supervised_failures")
                if on_failure is not None:
                    on_failure(exc)
            if attempt_index >= self.max_retries:
                break
            tracer = active_tracer()
            retry_handle = (
                tracer.begin(
                    "supervisor.retry", attempt=attempt_index,
                    error=type(last).__name__,
                )
                if tracer is not None
                else None
            )
            if respawn is not None:
                respawn()
                self._count("respawns")
            pause = self.backoff.delay(attempt_index)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    break
                pause = min(pause, remaining)
            if pause > 0:
                self._sleep(pause)
            if retry_handle is not None:
                tracer.end(retry_handle)
            self._count("retries")
        if fallback is not None:
            self._count("fallbacks")
            return fallback()
        assert last is not None
        raise last
