"""Metric primitives and the registry that names them.

Four metric kinds cover everything the engine, schedulers, interfaces
and the health layer need to expose:

* :class:`Counter` — a monotonically increasing total (packets sent,
  flags cleared, alerts raised).
* :class:`Gauge` — a point-in-time level, either set explicitly or
  bound to a zero-argument callback that is evaluated lazily at
  collection time (queue occupancy, deficit backlog, utilization).
  Callback gauges are the backbone of the "sample, don't intercept"
  instrumentation style: the hot path keeps its plain integer
  counters and the registry reads them only when a snapshot is taken.
* :class:`Histogram` — fixed, caller-chosen bucket bounds with exact
  per-bucket counts (decision work, queue-occupancy distributions).
* :class:`QuantileSketch` — a log-bucketed streaming sketch for
  long-tailed positive values (decision latency): O(1) per
  observation, bounded relative error set by the bucket growth
  factor, mergeable across sketches.

:class:`MetricsRegistry` is the namespace: components create metrics
by dotted name (``engine.packets_sent_total``), creation is
idempotent, and ``collect()`` renders every metric to a JSON-safe
dict — the payload :class:`~repro.obs.snapshot.SnapshotProcess`
writes out as JSONL.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Default bucket growth factor for :class:`QuantileSketch`; bucket
#: edges grow geometrically by this ratio, so quantile estimates carry
#: at most ~``(growth - 1) / 2`` relative error (2.5% at 1.05).
DEFAULT_SKETCH_GROWTH = 1.05

#: Quantiles reported in metric snapshots.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r}: cannot decrease by {amount}"
            )
        self._value += amount

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe rendering for snapshots."""
        return {"type": self.kind, "value": self._value}


class Gauge:
    """A point-in-time level, explicit or callback-backed.

    A gauge constructed with ``fn`` evaluates the callback on every
    read, so instrumentation can expose existing component counters
    (``interface.bytes_sent``, scheduler deficit sums) without adding
    any work to the paths that maintain them.
    """

    __slots__ = ("name", "help", "_value", "_fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    @property
    def callback_backed(self) -> bool:
        """``True`` when the gauge reads through a callback."""
        return self._fn is not None

    @property
    def value(self) -> float:
        """The current level (evaluates the callback if bound)."""
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def set(self, value: float) -> None:
        """Set the level explicitly (illegal on callback gauges)."""
        if self._fn is not None:
            raise ConfigurationError(
                f"gauge {self.name!r} is callback-backed; cannot set()"
            )
        self._value = float(value)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe rendering for snapshots."""
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact counts.

    ``bounds`` are inclusive upper edges in increasing order; an
    implicit overflow bucket catches everything above the last edge.
    """

    __slots__ = ("name", "help", "_bounds", "_counts", "_count", "_sum", "_min", "_max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float], help: str = "") -> None:
        edges = [float(bound) for bound in bounds]
        if not edges or any(upper <= lower for upper, lower in zip(edges[1:], edges)):
            raise ConfigurationError(
                f"histogram {name!r}: bounds must be non-empty and increasing"
            )
        self.name = name
        self.help = help
        self._bounds = edges
        self._counts = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observed values."""
        return self._sum

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The inclusive upper bucket edges."""
        return tuple(self._bounds)

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts; the final entry is the overflow bucket."""
        return list(self._counts)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe_many(self, value: float, count: int) -> None:
        """Record *count* observations of the same *value* in O(log B).

        The batched path snapshot drains use: folding a
        ``Counter``-aggregated backlog of identical values costs one
        bucket update per distinct value instead of one per sample.
        """
        if count < 0:
            raise ConfigurationError(
                f"histogram {self.name!r}: cannot observe {count} samples"
            )
        if count == 0:
            return
        self._counts[bisect_left(self._bounds, value)] += count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s observations into this histogram.

        Both histograms must share the same bucket bounds — merging is
        then exact (per-bucket integer addition), which is what lets
        per-shard occupancy/work distributions aggregate into fleet
        totals without any re-binning error.
        """
        if other._bounds != self._bounds:
            raise ConfigurationError(
                f"cannot merge histograms with bounds {self._bounds} "
                f"and {other._bounds}"
            )
        self._counts = [
            mine + theirs for mine, theirs in zip(self._counts, other._counts)
        ]
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile by interpolating within a bucket."""
        if not 0 <= q <= 1:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        lower = self._min
        for index, bucket_count in enumerate(self._counts):
            upper = (
                self._bounds[index] if index < len(self._bounds) else self._max
            )
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    upper = min(upper, self._max)
                    lower = max(min(lower, upper), self._min)
                    fraction = 1 - (cumulative - target) / bucket_count
                    return lower + (upper - lower) * fraction
                lower = upper
        return self._max

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe rendering for snapshots."""
        payload: Dict[str, object] = {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "bounds": list(self._bounds),
            "counts": list(self._counts),
        }
        if self._count:
            payload["min"] = self._min
            payload["max"] = self._max
            for q in SNAPSHOT_QUANTILES:
                payload[f"p{int(q * 100)}"] = self.quantile(q)
        return payload


class QuantileSketch:
    """A log-bucketed streaming quantile sketch for positive values.

    Observations land in geometric buckets ``[g^k, g^(k+1))`` where
    ``g`` is the growth factor; a quantile query returns the geometric
    midpoint of the bucket holding the target rank, so the relative
    error is bounded by the bucket width — no per-sample storage, O(1)
    updates, and sketches with the same growth merge exactly. Values
    ``<= 0`` are counted in a dedicated zero bucket (reported as 0.0).
    """

    __slots__ = ("name", "help", "_growth", "_log_growth", "_buckets", "_zero",
                 "_count", "_sum", "_min", "_max")

    kind = "sketch"

    def __init__(
        self, name: str, help: str = "", growth: float = DEFAULT_SKETCH_GROWTH
    ) -> None:
        if growth <= 1.0:
            raise ConfigurationError(
                f"sketch {name!r}: growth must exceed 1, got {growth}"
            )
        self.name = name
        self.help = help
        self._growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def growth(self) -> float:
        """The geometric bucket growth factor."""
        return self._growth

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0:
            self._zero += 1
            return
        key = math.floor(math.log(value) / self._log_growth)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record every value in *values*, in order.

        Leaves exactly the state that one :meth:`observe` per value
        leaves: the same arithmetic, value by value, in one local loop.
        The running sum is therefore built one addition at a time —
        ``sum()`` (compensated for floats since Python 3.12) or
        ``math.fsum`` would round differently.
        """
        count = self._count
        total = self._sum
        low = self._min
        high = self._max
        zero = self._zero
        buckets = self._buckets
        log_growth = self._log_growth
        log = math.log
        floor = math.floor
        try:
            for value in values:
                count += 1
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
                if value <= 0:
                    zero += 1
                    continue
                key = floor(log(value) / log_growth)
                buckets[key] = buckets.get(key, 0) + 1
        finally:
            self._count = count
            self._sum = total
            self._min = low
            self._max = high
            self._zero = zero

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other*'s observations into this sketch (same growth)."""
        if other._growth != self._growth:
            raise ConfigurationError(
                f"cannot merge sketches with growths {self._growth} "
                f"and {other._growth}"
            )
        self._count += other._count
        self._sum += other._sum
        self._zero += other._zero
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for key, bucket_count in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + bucket_count

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (bounded relative error)."""
        if not 0 <= q <= 1:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        return self._quantile_from(sorted(self._buckets.items()), q)

    def _quantile_from(
        self, items: List[Tuple[int, int]], q: float
    ) -> float:
        """The *q*-quantile given pre-sorted ``(key, count)`` buckets."""
        target = q * self._count
        cumulative = self._zero
        if cumulative >= target and self._zero:
            return 0.0
        for key, bucket_count in items:
            cumulative += bucket_count
            if cumulative >= target:
                midpoint = self._growth ** (key + 0.5)
                return min(max(midpoint, self._min), self._max)
        return self._max

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe rendering for snapshots (summary, not buckets)."""
        payload: Dict[str, object] = {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
        }
        if self._count:
            payload["min"] = self._min
            payload["max"] = self._max
            # Sort the buckets once for all reported quantiles;
            # quantile() re-sorts per call, which adds up at snapshot
            # cadence.
            items = sorted(self._buckets.items())
            for q in SNAPSHOT_QUANTILES:
                payload[f"p{int(q * 100)}"] = self._quantile_from(items, q)
        return payload


class MetricsRegistry:
    """A namespace of metrics with idempotent creation.

    ``counter("a.b")`` either creates the metric or returns the
    existing one; asking for an existing name with a different kind is
    a configuration error. ``collect()`` renders every metric by name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """Look up a metric by name."""
        metric = self._metrics.get(name)
        if metric is None:
            raise ConfigurationError(f"unknown metric {name!r}")
        return metric

    def _register(self, name: str, kind: str, factory):
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._register(name, "counter", lambda: Counter(name, help))

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        """Get or create a :class:`Gauge` (optionally callback-backed)."""
        return self._register(name, "gauge", lambda: Gauge(name, help, fn=fn))

    def histogram(
        self, name: str, bounds: Sequence[float], help: str = ""
    ) -> Histogram:
        """Get or create a fixed-bucket :class:`Histogram`."""
        return self._register(
            name, "histogram", lambda: Histogram(name, bounds, help)
        )

    def sketch(
        self, name: str, help: str = "", growth: float = DEFAULT_SKETCH_GROWTH
    ) -> QuantileSketch:
        """Get or create a :class:`QuantileSketch`."""
        return self._register(
            name, "sketch", lambda: QuantileSketch(name, help, growth=growth)
        )

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Render every metric to a JSON-safe ``{name: payload}`` dict."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }

    def describe(self) -> Dict[str, Tuple[str, str]]:
        """``{name: (kind, help)}`` for catalog/report rendering."""
        return {
            name: (metric.kind, metric.help)
            for name, metric in sorted(self._metrics.items())
        }

    # ------------------------------------------------------------------
    # Shard state
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Dict[str, object]]:
        """Serialize every metric's internals as a JSON-safe dict, the
        shard payload :meth:`merge_state` folds into another registry.

        Callback-backed gauges are skipped: they read live component
        state, which does not travel with the payload.
        """
        state: Dict[str, Dict[str, object]] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                state[name] = {"kind": "counter", "value": metric._value}
            elif isinstance(metric, Gauge):
                if metric.callback_backed:
                    continue
                state[name] = {"kind": "gauge", "value": metric._value}
            elif isinstance(metric, Histogram):
                state[name] = {
                    "kind": "histogram",
                    "bounds": list(metric._bounds),
                    "counts": list(metric._counts),
                    "count": metric._count,
                    "sum": metric._sum,
                    "min": metric._min,
                    "max": metric._max,
                }
            elif isinstance(metric, QuantileSketch):
                state[name] = {
                    "kind": "sketch",
                    "growth": metric._growth,
                    "buckets": {str(key): count for key, count in metric._buckets.items()},
                    "zero": metric._zero,
                    "count": metric._count,
                    "sum": metric._sum,
                    "min": metric._min,
                    "max": metric._max,
                }
        return state

    # ------------------------------------------------------------------
    # Cross-process aggregation
    # ------------------------------------------------------------------
    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot_state` into this one.

        The fleet coordinator's primitive: every worker ships its shard
        registry as the JSON-safe ``snapshot_state()`` payload and the
        coordinator folds the shards into one fleet registry. Merge
        semantics per kind:

        * **counter** — totals add (packets sent on shard A plus shard
          B is the fleet total).
        * **gauge** — levels add; per-shard gauges are population
          aggregates (backlog bytes, flow counts), so the fleet level
          is their sum. Callback-backed gauges cannot be merged into
          (they read live local state) and raise.
        * **histogram** — exact per-bucket addition (same bounds
          required).
        * **sketch** — exact bucket-count addition (same growth
          required); quantiles of the merged sketch equal quantiles of
          a single sketch fed the union stream.

        Merging is commutative and associative (the hypothesis suite
        pins this), so shard arrival order never changes the fleet
        report. Metrics absent here are created from the incoming
        shape (bounds, growth).
        """
        for name, doc in state.items():
            kind = doc["kind"]
            if kind == "counter":
                self.counter(name)._value += doc["value"]
            elif kind == "gauge":
                metric = self.gauge(name)
                if metric.callback_backed:
                    raise ConfigurationError(
                        f"gauge {name!r} is callback-backed; cannot merge "
                        "shard state into live local telemetry"
                    )
                metric._value += doc["value"]
            elif kind == "histogram":
                incoming = Histogram(name, doc["bounds"])
                incoming._counts = list(doc["counts"])
                incoming._count = doc["count"]
                incoming._sum = doc["sum"]
                incoming._min = doc["min"]
                incoming._max = doc["max"]
                self.histogram(name, doc["bounds"]).merge(incoming)
            elif kind == "sketch":
                incoming = QuantileSketch(name, growth=doc["growth"])
                incoming._buckets = {
                    int(key): count for key, count in doc["buckets"].items()
                }
                incoming._zero = doc["zero"]
                incoming._count = doc["count"]
                incoming._sum = doc["sum"]
                incoming._min = doc["min"]
                incoming._max = doc["max"]
                self.sketch(name, growth=doc["growth"]).merge(incoming)
            else:
                raise ConfigurationError(
                    f"metric state {name!r} has unknown kind {kind!r}"
                )
