"""Circuit breakers for execution strategies.

A :class:`CircuitBreaker` guards one strategy axis (``"parallel"``,
``"batch_axis"``).  It is a classic three-state machine:

* **closed** — traffic flows; consecutive failures are counted and the
  count resets on any success.
* **open** — tripped after ``failure_threshold`` consecutive failures;
  :meth:`allow` answers ``False`` so callers skip the strategy (the
  bit-identical serial plan is always available) until
  ``reset_seconds`` of cool-down have passed.
* **half-open** — after the cool-down one *probe* call is admitted;
  success closes the breaker, failure re-opens it and restarts the
  cool-down.

Every trip, failure and success counts in the process registry's
``repro_breaker_events_total`` (by ``axis`` and ``event``), which the
``/stats`` ``resilience`` block projects beside each breaker's live
state.  :class:`BreakerBoard` holds one breaker per axis.  Callers
consult the board by masking the ``supports_parallel`` /
``supports_batch`` capability flags they pass to
:meth:`repro.routing.router.Router.route`, so a tripped axis is simply
never chosen — routing itself stays deterministic.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from repro.obs.metrics import process_counter

__all__ = ["CircuitBreaker", "BreakerBoard", "STRATEGY_AXES"]

#: The strategy axes guarded by breakers (capability-flag names at the
#: route() call sites).
STRATEGY_AXES = ("parallel", "batch_axis")

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half_open"


class CircuitBreaker:
    """A three-state breaker for one strategy axis.

    Args:
        name: Axis label, the ``axis`` of its counted events.
        failure_threshold: Consecutive failures that trip the breaker.
        reset_seconds: Cool-down before a half-open probe is admitted.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = _CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    def _count(self, event: str) -> None:
        process_counter("repro_breaker_events_total").inc(
            axis=self.name, event=event
        )

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Lock held.  An open breaker whose cool-down elapsed reads as
        # half-open; the transition is realized by the next allow().
        if self._state == _OPEN and (
            self._clock() - self._opened_at >= self.reset_seconds
        ):
            return _HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a call may use this strategy right now.

        In half-open state exactly one caller gets ``True`` (the probe)
        until :meth:`record_success` / :meth:`record_failure` settles it.
        """
        with self._lock:
            state = self._effective_state()
            if state == _CLOSED:
                return True
            if state == _HALF_OPEN:
                if self._probe_in_flight:
                    return False
                self._state = _HALF_OPEN
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = _CLOSED
            self._probe_in_flight = False
        self._count("success")

    def cancel_probe(self) -> None:
        """Return an unused half-open probe token.

        Callers consult :meth:`allow` before *routing*; when the router
        then declines the strategy anyway, the probe was never
        exercised and must be returned, or the breaker would stay
        half-open with its one token lost.  A no-op in other states.
        """
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            self._consecutive_failures += 1
            # A failed probe re-opens and restarts the cool-down.
            tripped = self._state == _HALF_OPEN or (
                self._state == _CLOSED
                and self._consecutive_failures >= self.failure_threshold
            )
            if tripped:
                self._state = _OPEN
                self._opened_at = self._clock()
        self._count("failure")
        if tripped:
            self._count("trip")

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


class BreakerBoard:
    """One breaker per strategy axis."""

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        axes: tuple = STRATEGY_AXES,
    ) -> None:
        self._breakers: Dict[str, CircuitBreaker] = {
            axis: CircuitBreaker(
                axis,
                failure_threshold=failure_threshold,
                reset_seconds=reset_seconds,
                clock=clock,
            )
            for axis in axes
        }

    def breaker(self, axis: str) -> CircuitBreaker:
        return self._breakers[axis]

    def allow(self, axis: str) -> bool:
        breaker = self._breakers.get(axis)
        return True if breaker is None else breaker.allow()

    def cancel(self, axis: str) -> None:
        breaker = self._breakers.get(axis)
        if breaker is not None:
            breaker.cancel_probe()

    def record(self, axis: str, ok: bool) -> None:
        breaker = self._breakers.get(axis)
        if breaker is None:
            return
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()
