"""The sampling kernel profiler: per-op wall time from any strategy.

:class:`KernelProfiler` measures where kernel time goes — ``sink`` /
``wire`` / ``merge`` / ``buffer`` wall seconds and call counts, plus
peak candidate-list length — at the interpreter loop, so it works for
every execution strategy: the object and soa stores, batch-axis groups,
splice replays and partitioned workers.  The paper's Figure 4
explanation — add-buffer dominating the baseline as ``n`` grows — is
measured this way (``benchmarks/bench_op_profile.py``).

It is **opt-in and ambient**: :func:`profile_scope` installs a profiler
in a thread-local slot exactly as ``deadline_scope`` installs a
deadline; each interpreter calls :func:`instrument_ops` once at entry,
which returns the op callables *unchanged* (plus a ``None`` range hook)
when no profiler is active — the instruction stream executed with
profiling off is identical to the uninstrumented one, which is what
keeps the disabled-overhead gate in ``benchmarks/bench_obs.py`` honest.

When a profiler *and* a tracer are both active, sampled instruction
ranges (1 in :attr:`KernelProfiler.sample_every`) emit
``kernel.wire`` / ``kernel.merge`` / ``kernel.buffer`` spans into the
trace, so Perfetto shows where inside the interpreter a slow range
spent its time without paying span overhead on every range.

Independent of any profiler, one **always-on** registry histogram is
fed once per solve from :class:`~repro.core.solution.DPStats`
(:func:`record_dp_stats`) — one observation per solve, not per
instruction.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.obs.metrics import (
    LIST_LENGTH_BUCKETS,
    Histogram,
    default_registry,
)
from repro.obs.spans import Tracer, active_tracer

__all__ = [
    "KernelProfiler",
    "active_profiler",
    "instrument_ops",
    "profile_scope",
    "record_dp_stats",
    "reset_active_profiler",
]

_local = threading.local()

#: When ``True``, :func:`active_profiler`, :func:`instrument_ops` and
#: the always-on histogram feed short-circuit to no-ops.  Only
#: ``benchmarks/bench_obs.py`` sets this, to measure the cost of the
#: observability entry checks themselves against a bypassed baseline.
_BYPASS = False

_OPS = ("sink", "wire", "merge", "buffer")


def set_bypass(flag: bool) -> None:
    """Benchmark-only switch; see :data:`_BYPASS`."""
    global _BYPASS
    _BYPASS = bool(flag)


def active_profiler() -> Optional["KernelProfiler"]:
    """The profiler installed on this thread, or ``None``."""
    if _BYPASS:
        return None
    return getattr(_local, "profiler", None)


def reset_active_profiler() -> None:
    """Forget any profiler installed on this thread (worker entry)."""
    _local.profiler = None


@contextmanager
def profile_scope(
    profiler: Optional["KernelProfiler"], flush: bool = True
) -> Iterator[Optional["KernelProfiler"]]:
    """Install ``profiler`` as this thread's active kernel profiler.

    ``None`` keeps whatever profiler is already active; the previous
    one is restored on exit.  With ``flush=True`` (the default) the
    profiler's totals are folded into the process-wide metrics registry
    when the scope closes.
    """
    previous = getattr(_local, "profiler", None)
    if profiler is not None:
        _local.profiler = profiler
    try:
        yield profiler if profiler is not None else previous
    finally:
        _local.profiler = previous
        if profiler is not None and flush:
            profiler.flush_to_registry()


class KernelProfiler:
    """Accumulates per-op wall time and calls across interpreter runs.

    Args:
        sample_every: Emit ``kernel.*`` spans for one instruction range
            in this many (only when a tracer is also active).  ``1``
            traces every range; the default keeps tracing overhead
            bounded on large nets.

    One profiler may observe many solves (a batch, a session); totals
    accumulate.  Not thread-safe by design — it lives in a thread-local
    and each worker process builds its own.
    """

    __slots__ = ("sample_every", "seconds", "calls", "peak_list_length", "ranges")

    def __init__(self, sample_every: int = 16) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.seconds: Dict[str, float] = {op: 0.0 for op in _OPS}
        self.calls: Dict[str, int] = {op: 0 for op in _OPS}
        self.peak_list_length = 0
        self.ranges = 0

    # -- interpreter hook ----------------------------------------------

    def wrap(
        self,
        sink_op: Callable,
        wire_op: Callable,
        merge_op: Callable,
        add_buffer: Callable,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[Callable, Callable, Callable, Callable, Callable]:
        """Timed versions of the four kernel ops plus a range hook.

        Returns ``(sink, wire, merge, buffer, end_range)``; the
        interpreter calls ``end_range(list_length)`` at each
        instruction-range boundary (the ``OP_FINAL`` site where it
        already polls the deadline).
        """
        perf = time.perf_counter
        seconds = self.seconds
        calls = self.calls

        def timed_sink(*args):
            t0 = perf()
            out = sink_op(*args)
            seconds["sink"] += perf() - t0
            calls["sink"] += 1
            return out

        def timed_wire(*args):
            t0 = perf()
            out = wire_op(*args)
            seconds["wire"] += perf() - t0
            calls["wire"] += 1
            return out

        def timed_merge(*args):
            t0 = perf()
            out = merge_op(*args)
            seconds["merge"] += perf() - t0
            calls["merge"] += 1
            return out

        def timed_buffer(*args):
            t0 = perf()
            out = add_buffer(*args)
            seconds["buffer"] += perf() - t0
            calls["buffer"] += 1
            return out

        sample_every = self.sample_every
        # Mutable closure state: [range start, wire-mark, merge-mark,
        # buffer-mark] — marks are cumulative seconds at the last
        # sampled boundary, so a sampled range reports only its own
        # op-time deltas.
        state = [perf(), seconds["wire"], seconds["merge"], seconds["buffer"]]

        def end_range(length: int) -> None:
            if length > self.peak_list_length:
                self.peak_list_length = length
            index = self.ranges
            self.ranges = index + 1
            if tracer is None or index % sample_every:
                return
            now = perf()
            start = state[0]
            cursor = start
            for slot, op in ((1, "wire"), (2, "merge"), (3, "buffer")):
                delta = seconds[op] - state[slot]
                if delta > 0.0:
                    tracer.record(
                        f"kernel.{op}", cursor, delta,
                        {"range": index, "list_length": length},
                    )
                    cursor += delta
                state[slot] = seconds[op]
            state[0] = now

        return timed_sink, timed_wire, timed_merge, timed_buffer, end_range

    # -- results --------------------------------------------------------

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe summary of everything observed so far."""
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "peak_list_length": self.peak_list_length,
            "ranges": self.ranges,
            "sample_every": self.sample_every,
        }

    def flush_to_registry(self, registry=None) -> None:
        """Fold accumulated totals into the metrics registry."""
        registry = registry if registry is not None else default_registry()
        seconds = registry.counter(
            "repro_kernel_op_seconds_total",
            "Wall seconds spent in each kernel operation (profiled runs).",
        )
        calls = registry.counter(
            "repro_kernel_op_calls_total",
            "Kernel operation invocations (profiled runs).",
        )
        for op in _OPS:
            if self.calls[op]:
                seconds.inc(self.seconds[op], op=op)
                calls.inc(self.calls[op], op=op)
        if self.peak_list_length:
            _peak_histogram(registry).observe(self.peak_list_length)


def instrument_ops(
    sink_op: Callable,
    wire_op: Callable,
    merge_op: Callable,
    add_buffer: Callable,
) -> Tuple[Callable, Callable, Callable, Callable, Optional[Callable]]:
    """The one call an interpreter makes before its dispatch loop.

    With no active profiler this returns the four callables untouched
    and ``None`` for the range hook — the disabled cost is this single
    thread-local read per solve, never per instruction.
    """
    if _BYPASS:
        return sink_op, wire_op, merge_op, add_buffer, None
    profiler = getattr(_local, "profiler", None)
    if profiler is None:
        return sink_op, wire_op, merge_op, add_buffer, None
    return profiler.wrap(
        sink_op, wire_op, merge_op, add_buffer, tracer=active_tracer()
    )


# -- the always-on histogram feed (one observation per solve) -----------

def _peak_histogram(registry=None) -> Histogram:
    registry = registry if registry is not None else default_registry()
    return registry.histogram(
        "repro_peak_list_length",
        "Peak nonredundant candidate-list length per solve.",
        LIST_LENGTH_BUCKETS,
    )


def record_dp_stats(stats) -> None:
    """Feed the always-on histogram from one solve's ``DPStats``."""
    if _BYPASS:
        return
    _peak_histogram().observe(stats.peak_list_length)
