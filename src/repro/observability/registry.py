"""Process-wide metrics registry: counters, gauges and quantiles.

The registry is the accounting half of :mod:`repro.observability`.  Hot
paths (the blind-rotation loop, the FFT engines, the HBM model) register
their metrics once at import time and then update them behind the one
telemetry switch (``BUS.enabled``), so the instrumented code costs one
attribute read and one branch per site when telemetry is off.

Design points:

- *labels*: every update may carry keyword labels (``direction="forward"``)
  producing one time series per label set, Prometheus style;
- *thread safety*: each metric guards its series map with a lock; reads
  (:meth:`MetricsRegistry.snapshot`) take the same locks, so snapshots
  are consistent per metric;
- *zero overhead when disabled*: ``update -> if not BUS.enabled:
  return`` is the whole disabled path (verified by
  ``benchmarks/bench_observability_overhead.py``);
- *snapshot/reset*: :meth:`MetricsRegistry.snapshot` returns plain dicts
  ready for the JSON/Prometheus exporters; :meth:`MetricsRegistry.reset`
  zeroes values but keeps registrations.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from .bus import BUS as _BUS
from .sketch import DEFAULT_QUANTILES, DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Quantile",
    "MetricsRegistry",
]


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable key for a label set."""
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared machinery: name, help text, per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[tuple, Any] = {}

    # -- subclass hooks -------------------------------------------------
    def _zero(self) -> Any:
        return 0.0

    def _series_snapshot(self, value: Any) -> dict:
        return {"value": value}

    # -- shared API -----------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def snapshot(self) -> dict:
        """Plain-dict view: ``{"type", "help", "values": [...]}``."""
        with self._lock:
            values = [
                dict(labels=dict(key), **self._series_snapshot(value))
                for key, value in sorted(self._series.items())
            ]
        return {"type": self.kind, "help": self.help, "values": values}

    def value(self, **labels: Any) -> Any:
        """Current value for one label set (None if never updated)."""
        with self._lock:
            return self._series.get(_label_key(labels))


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, operations)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not _BUS.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount
        _BUS.publish("metric", self.name, value=amount,
                     metric="counter", labels=labels)


class Gauge(_Metric):
    """Point-in-time value (group size, residency, occupancy)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not _BUS.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)
        _BUS.publish("metric", self.name, value=float(value),
                     metric="gauge", labels=labels)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not _BUS.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            new_value = self._series.get(key, 0.0) + amount
            self._series[key] = new_value
        _BUS.publish("metric", self.name, value=new_value,
                     metric="gauge", labels=labels)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Quantile(_Metric):
    """Streaming quantile distribution (mergeable DDSketch per label set).

    The registry's one distribution kind: it answers "what is the p99"
    with a bounded relative error, and its per-label-set sketches merge
    exactly across shards (see :mod:`repro.observability.sketch`).  This
    is the metric kind behind every request-latency SLO.
    """

    kind = "quantile"

    def __init__(self, name: str, help: str = "",
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 quantiles: Iterable[float] = DEFAULT_QUANTILES):
        super().__init__(name, help)
        self.relative_accuracy = float(relative_accuracy)
        self.quantiles = tuple(float(q) for q in quantiles)

    def _series_snapshot(self, value: QuantileSketch) -> dict:
        return {
            "count": value.count,
            "sum": value.sum,
            "min": value.min,
            "max": value.max,
            "quantiles": {repr(q): value.quantile(q) for q in self.quantiles},
        }

    def observe(self, value: float, count: int = 1, **labels: Any) -> None:
        """Fold ``count`` observations of ``value`` into the sketch."""
        if not _BUS.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            sketch = self._series.get(key)
            if sketch is None:
                sketch = QuantileSketch(self.relative_accuracy)
                self._series[key] = sketch
            sketch.add(value, count)
        _BUS.publish("metric", self.name, value=value,
                     metric="quantile", count=count, labels=labels)

    def sketch(self, **labels: Any) -> Optional[QuantileSketch]:
        """Copy of the sketch behind one label set (None if never fed)."""
        with self._lock:
            sketch = self._series.get(_label_key(labels))
            return sketch.copy() if sketch is not None else None

    def merged(self) -> Optional[QuantileSketch]:
        """All label sets merged into one sketch (None if never fed)."""
        with self._lock:
            sketches = list(self._series.values())
        if not sketches:
            return None
        merged = sketches[0].copy()
        for sketch in sketches[1:]:
            merged.merge(sketch)
        return merged


class MetricsRegistry:
    """Named collection of metrics, recording while telemetry is on.

    Registration is idempotent: asking for an existing name returns the
    existing metric (so module-level registration and tests compose), but
    re-registering under a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration ---------------------------------------------------
    def _register(self, cls: Type[_Metric], name: str, help: str,
                  **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def quantile(self, name: str, help: str = "",
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 quantiles: Iterable[float] = DEFAULT_QUANTILES) -> Quantile:
        return self._register(Quantile, name, help,
                              relative_accuracy=relative_accuracy,
                              quantiles=quantiles)

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Zero every metric's series; registrations survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # -- reads ----------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Point-in-time view of every metric, exporter-ready."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}
