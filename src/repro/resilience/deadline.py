"""Per-request wall-clock deadlines, checked cooperatively.

A :class:`Deadline` is a monotonic wall budget created at admission
time (one per request).  It is *threaded* through the execution layers
ambiently: :func:`deadline_scope` installs it in a thread-local slot,
and both interpreter loops — the schedule executor
(:func:`repro.core.dp._execute_schedule`, which also runs the
partitioned residual replay and the incremental engine's resolves, each
under its own site name) and the batch-axis lane loop
(:func:`repro.core.stores.batch_axis.solve_group`) — poll
:func:`active_deadline` once at entry and then check expiry only at
instruction-range boundaries (``OP_FINAL`` instructions, one per tree
node), so the per-instruction cost with no deadline installed is a
single ``is not None`` test.

Deadlines never change results: a solve either returns its
bit-identical answer in time or raises
:class:`~repro.errors.DeadlineExceeded` (HTTP 504 at the server).
Worker processes do not inherit the thread-local; instead the parent
bounds its *wait* on worker results by ``remaining()`` (see
:mod:`repro.resilience.supervisor`), which bounds the request all the
same.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "active_deadline",
    "deadline_scope",
    "reset_active_deadline",
]


class Deadline:
    """A wall-clock budget with a fixed expiry instant.

    Args:
        budget_seconds: Seconds from *now* until expiry; must be > 0.
        clock: Monotonic time source (injectable so tests don't sleep).
    """

    __slots__ = ("budget", "_clock", "_expires_at")

    def __init__(
        self,
        budget_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_seconds <= 0:
            raise ValueError(
                f"deadline budget must be > 0 seconds, got {budget_seconds}"
            )
        self.budget = float(budget_seconds)
        self._clock = clock
        self._expires_at = clock() + budget_seconds

    @classmethod
    def from_ms(cls, budget_ms: float, **kwargs) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(budget_ms / 1e3, **kwargs)

    def remaining(self) -> float:
        """Seconds until expiry; negative once expired."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the budget has run out."""
        if self._clock() >= self._expires_at:
            raise DeadlineExceeded(site, self.budget)

    def __repr__(self) -> str:
        return (
            f"Deadline(budget={self.budget:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )


_local = threading.local()


def active_deadline() -> Optional[Deadline]:
    """The deadline installed on this thread, or ``None``."""
    return getattr(_local, "deadline", None)


def reset_active_deadline() -> None:
    """Forget any deadline installed on this thread.

    Worker-process entry points call this: under the fork start method
    a child forked while the parent thread held a ``deadline_scope``
    inherits that thread-local, and a request-scoped budget must never
    outlive its request inside a pooled worker.
    """
    _local.deadline = None


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` as this thread's active deadline.

    ``None`` keeps whatever deadline is already active (so nesting an
    unbounded call inside a bounded one stays bounded).  The previous
    deadline is restored on exit.
    """
    previous = getattr(_local, "deadline", None)
    if deadline is not None:
        _local.deadline = deadline
    try:
        yield deadline if deadline is not None else previous
    finally:
        _local.deadline = previous
