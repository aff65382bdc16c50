"""The per-strategy latency predictor behind ``policy="model"``.

The model is deliberately boring: for each solo execution strategy
(``object-compiled``, ``soa-compiled``) it stores a piecewise-linear
curve of solve seconds over the DP work product
``positions^2 * library_size`` (the paper's O(b n^2) — see
:attr:`repro.routing.features.RequestFeatures.work`), and for the
composite strategies it stores the few parameters that relate them to the solo curves — a
batch-axis speedup surface over ``(work, lanes)``, a splice
overhead fraction, and an Amdahl residual for the partitioned solve.
The coefficients are fitted **offline** by ``tools/fit_routing_model.py``
from the committed ``BENCH_PR2/4/5/6/7.json`` sweeps plus a small
micro-calibration run, and shipped as the versioned JSON artifact
``src/repro/routing/model_default.json``.

At runtime the model is refined **online**: every measured solve feeds
:meth:`CostModel.observe`, which nudges a per-strategy multiplicative
correction by an exponential moving average of the measured/predicted
ratio.  The correction adapts the committed curves to the current
machine without ever touching the artifact; ``/stats`` surfaces the
update count and the cumulative predicted-vs-actual error so drift is
visible from the outside.

Predictions are *costs for ranking*, not promises: the router only ever
compares strategies against each other on the same request, so a
machine-wide constant factor cancels out.  What must be right is the
ordering — which the parity-gated replay benchmark
(``benchmarks/bench_routing.py``) checks end to end.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.routing.features import RequestFeatures

#: Solo strategy keys every model artifact must provide curves for.
BASE_STRATEGIES = ("object-compiled", "soa-compiled")

#: EMA weight of one new observation in the online correction.
EMA_ALPHA = 0.2

#: Clamp on one observation's measured/predicted ratio, so a single
#: scheduler hiccup cannot poison the correction.
_RATIO_CLAMP = (0.05, 20.0)

_DEFAULT_PATH = Path(__file__).with_name("model_default.json")
_default_model: Optional["CostModel"] = None
_default_lock = threading.Lock()


def _interp(knots: Sequence[Sequence[float]], x: float) -> float:
    """Piecewise-linear ``y(x)`` over sorted ``[x, y]`` knots.

    Below the first knot the curve is clamped flat (the first knot is a
    micro-calibrated launch-overhead floor, which does not shrink with
    the net); above the last knot the final segment's slope continues
    (underestimates O(n^2) growth, but preserves the strategy ordering,
    which is all routing consumes).
    """
    first = knots[0]
    if x <= first[0]:
        return first[1]
    for left, right in zip(knots, knots[1:]):
        if x <= right[0]:
            span = right[0] - left[0]
            t = (x - left[0]) / span if span else 1.0
            return left[1] + t * (right[1] - left[1])
    left, right = knots[-2], knots[-1]
    slope = (right[1] - left[1]) / (right[0] - left[0])
    return max(right[1] + slope * (x - right[0]), right[1] * 0.5)


def _bilinear(
    xs: Sequence[float], ys: Sequence[float],
    grid: Sequence[Sequence[float]], x: float, y: float,
) -> float:
    """Bilinear interpolation on a small rectangular grid, clamped to
    the grid's hull (``grid[i][j]`` is the value at ``xs[i], ys[j]``)."""

    def _bracket(axis: Sequence[float], value: float):
        value = min(max(value, axis[0]), axis[-1])
        for index in range(len(axis) - 1):
            if value <= axis[index + 1]:
                span = axis[index + 1] - axis[index]
                t = (value - axis[index]) / span if span else 0.0
                return index, t
        return len(axis) - 2, 1.0

    i, tx = _bracket(xs, x)
    j, ty = _bracket(ys, y)
    top = grid[i][j] * (1 - ty) + grid[i][j + 1] * ty
    bottom = grid[i + 1][j] * (1 - ty) + grid[i + 1][j + 1] * ty
    return top * (1 - tx) + bottom * tx


class CostModel:
    """Latency predictions per :class:`~repro.routing.router.ExecutionPlan`.

    Construct from a model-spec dict (:meth:`from_spec` validates), a
    JSON file (:meth:`from_file`), or use the committed default artifact
    via :func:`default_model`.  Instances are thread-safe: the serving
    layer shares one model across pools so online corrections pool too.
    """

    def __init__(self, spec: dict) -> None:
        version = spec.get("version")
        if not isinstance(version, str) or not version:
            raise ValueError("model spec has no version string")
        base = spec.get("base", {})
        missing = [key for key in BASE_STRATEGIES if key not in base]
        if missing:
            raise ValueError(f"model spec lacks base curves for {missing}")
        for key, curve in base.items():
            knots = curve.get("knots")
            if not knots or any(len(k) != 2 for k in knots):
                raise ValueError(f"base curve {key!r} has malformed knots")
            if sorted(k[0] for k in knots) != [k[0] for k in knots]:
                raise ValueError(f"base curve {key!r} knots are unsorted")
        self.version = version
        self.spec = spec
        self._base = {
            key: [list(map(float, k)) for k in curve["knots"]]
            for key, curve in base.items()
        }
        batch = spec.get("batch_axis", {})
        self._batch_work = batch.get("work")
        self._batch_lanes = batch.get("lanes")
        self._batch_speedup = batch.get("speedup")
        splice = spec.get("splice", {})
        self._splice_overhead = float(splice.get("overhead_fraction", 0.1))
        parallel = spec.get("parallel", {})
        self._parallel_residual = float(
            parallel.get("residual_fraction", 0.3)
        )
        self._parallel_overhead = float(
            parallel.get("overhead_seconds", 0.01)
        )
        self._lock = threading.Lock()
        self._scales: Dict[str, float] = {}
        self._updates = 0
        self._predicted_total = 0.0
        self._actual_total = 0.0
        self._abs_error_total = 0.0

    # -- construction ---------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "CostModel":
        return cls(spec)

    @classmethod
    def from_file(cls, path) -> "CostModel":
        return cls(json.loads(Path(path).read_text()))

    # -- prediction -----------------------------------------------------

    def _solo_seconds(self, backend: str, work: float) -> float:
        return _interp(self._base[f"{backend}-compiled"], work)

    def _batch_speedup_at(self, work: float, lanes: float) -> float:
        if not self._batch_speedup:
            return max(1.0, min(lanes, 4.0))
        speedup = _bilinear(
            self._batch_work, self._batch_lanes,
            self._batch_speedup, work, lanes,
        )
        return max(speedup, 0.2)

    def predict_raw(self, plan, features: RequestFeatures) -> float:
        """Artifact-only prediction (no online correction), in seconds.

        The returned cost covers the *whole request*: for a group of
        ``features.lanes`` structurally identical nets it is the
        group-total time, so batched and sequential strategies compare
        directly.
        """
        work = float(features.work)
        if plan.schedule_mode == "splice":
            base = self._solo_seconds(plan.backend, work)
            fraction = min(max(features.dirty_fraction, 0.0), 1.0)
            return base * (fraction + self._splice_overhead)
        if plan.batch_axis:
            per_lane = self._solo_seconds("soa", work)
            speedup = self._batch_speedup_at(work, float(features.lanes))
            return per_lane * features.lanes / speedup
        base = self._solo_seconds(plan.backend, work)
        if plan.parallel:
            jobs = max(features.jobs, 1)
            residual = self._parallel_residual
            return (
                base * (residual + (1.0 - residual) / jobs)
                + self._parallel_overhead
            )
        return base * features.lanes

    def predict(self, plan, features: RequestFeatures) -> float:
        """Predicted seconds for ``plan``, online correction applied."""
        raw = self.predict_raw(plan, features)
        with self._lock:
            scale = self._scales.get(plan.strategy, 1.0)
        return raw * scale

    # -- online refinement ----------------------------------------------

    def observe(self, plan, features: RequestFeatures, seconds: float) -> None:
        """Fold one measured execution into the online correction.

        The per-strategy scale moves by an EMA of the clamped
        measured/predicted ratio; the cumulative predicted-vs-actual
        error (surfaced by ``/stats``) is accounted *before* the update,
        so it reflects the predictions routing actually used.
        """
        if seconds <= 0.0:
            return
        raw = self.predict_raw(plan, features)
        if raw <= 0.0:
            return
        key = plan.strategy
        with self._lock:
            scale = self._scales.get(key, 1.0)
            predicted = raw * scale
            self._updates += 1
            self._predicted_total += predicted
            self._actual_total += seconds
            self._abs_error_total += abs(predicted - seconds)
            ratio = seconds / raw
            low, high = _RATIO_CLAMP
            ratio = min(max(ratio, low), high)
            self._scales[key] = (1.0 - EMA_ALPHA) * scale + EMA_ALPHA * ratio
        # Outside the lock: the registry has its own.  A scrape of this
        # histogram reads calibration drift without a live /stats —
        # what `repro replay` and offline refits consume.
        from repro.obs.metrics import ROUTING_ERROR_BUCKETS, default_registry

        default_registry().histogram(
            "repro_routing_abs_error_seconds",
            "Absolute predicted-vs-actual error per routed execution.",
            ROUTING_ERROR_BUCKETS,
        ).observe(abs(predicted - seconds), strategy=key)

    def stats(self) -> dict:
        """Observability snapshot (the ``/stats`` ``routing.model`` block)."""
        with self._lock:
            return {
                "version": self.version,
                "online_updates": self._updates,
                "predicted_seconds": self._predicted_total,
                "actual_seconds": self._actual_total,
                "abs_error_seconds": self._abs_error_total,
                "scales": dict(self._scales),
            }


def default_model() -> CostModel:
    """The process-wide model over the committed default artifact.

    One shared instance means online corrections learned by any pool
    benefit every later router in the process — mirroring how the
    serving layer shares caches across requests.
    """
    global _default_model
    with _default_lock:
        if _default_model is None:
            _default_model = CostModel.from_file(_DEFAULT_PATH)
        return _default_model
