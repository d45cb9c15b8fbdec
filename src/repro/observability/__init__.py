"""Unified telemetry: metrics registry, span tracer, exporters.

This package is the instrumentation substrate every layer shares.  The
process-wide singletons are

- :data:`REGISTRY` - the :class:`~repro.observability.registry.MetricsRegistry`
  all hot paths register their counters/gauges/quantiles on;
- :data:`TRACER` - the :class:`~repro.observability.tracer.Tracer`
  collecting wall-clock and simulated-time spans;
- :data:`COUNTERS` - the modelled hardware perf-counter bank;
- :data:`NOISE` - the per-ciphertext noise tracker;
- :data:`BUS` - the :class:`~repro.observability.bus.TelemetryBus` the
  four systems above publish typed events onto, feeding
- :data:`FLIGHT` - the always-on
  :class:`~repro.observability.flightrec.FlightRecorder` that dumps the
  recent event window to a JSON bundle when an anomaly trigger fires.

Telemetry is **off by default** and has one switch, ``BUS.enabled``:
every recorder above records exactly while it is on, and every
instrumented site guards itself with one read of it, so the
uninstrumented code path is restored when off (see
``benchmarks/bench_observability_overhead.py``).
Turn it on around a region of interest::

    from repro import observability as obs

    with obs.telemetry():
        simulate_bootstrap(config, params)
        print(obs.render_prometheus(obs.REGISTRY.snapshot()))

or globally with :func:`enable` / :func:`disable`.  Exporters turn what
was recorded into Prometheus text, JSON, JSONL event logs, or a Chrome
trace-event file that opens in Perfetto (see ``docs/observability.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from .bus import (
    BUS,
    EVENT_SCHEMA_VERSION,
    SUPPORTED_EVENT_SCHEMA_VERSIONS,
    JsonlEventLog,
    TelemetryBus,
    TelemetryEvent,
    event_from_jsonable,
    event_to_jsonable,
    read_jsonl_events,
    read_jsonl_header,
)
from .context import (
    TraceContext,
    extract,
    get_worker_id,
    inject,
    set_worker_id,
    start_trace,
    use_context,
)
from .counters import COUNTERS, PerfCounters
from .dashboard import Dashboard, run_top
from .distrib import (
    FLEET_SCHEMA_VERSION,
    FleetReport,
    ShardWriter,
    aggregate_shards,
    discover_shards,
    worker_telemetry,
)
from .export import (
    chrome_trace_events,
    counter_track_events,
    flight_trace_events,
    merged_trace_events,
    noise_trace_events,
    pipeline_trace_events,
    render_prometheus,
    schedule_trace_events,
    to_jsonable,
    write_chrome_trace,
)
from .flightrec import (
    BUNDLE_SCHEMA_VERSION,
    FLIGHT,
    FlightRecorder,
    flight_recording,
    load_bundle,
    report_anomaly,
)
from .noise import (
    NOISE,
    FailurePoint,
    NoiseRecord,
    NoiseTracker,
    OpClassDrift,
    drift_report,
    noise_tracking,
)
from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    Quantile,
)
from .sketch import DEFAULT_QUANTILES, DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from .slo import (
    DEFAULT_BURN_WINDOWS,
    SLO_REPORT_SCHEMA_VERSION,
    FailureBudgetObjective,
    LatencyObjective,
    SLOMonitor,
    SLORegistry,
    SLOReport,
    ThroughputObjective,
    price_slos,
)
from .tracer import Span, Tracer, traced

__all__ = [
    "REGISTRY",
    "TRACER",
    "COUNTERS",
    "NOISE",
    "BUS",
    "FLIGHT",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Quantile",
    "QuantileSketch",
    "DEFAULT_QUANTILES",
    "DEFAULT_RELATIVE_ACCURACY",
    "SLORegistry",
    "SLOMonitor",
    "SLOReport",
    "LatencyObjective",
    "ThroughputObjective",
    "FailureBudgetObjective",
    "price_slos",
    "SLO_REPORT_SCHEMA_VERSION",
    "DEFAULT_BURN_WINDOWS",
    "Tracer",
    "Span",
    "traced",
    "PerfCounters",
    "NoiseTracker",
    "NoiseRecord",
    "FailurePoint",
    "OpClassDrift",
    "noise_tracking",
    "drift_report",
    "TelemetryBus",
    "TelemetryEvent",
    "JsonlEventLog",
    "EVENT_SCHEMA_VERSION",
    "SUPPORTED_EVENT_SCHEMA_VERSIONS",
    "event_to_jsonable",
    "event_from_jsonable",
    "read_jsonl_events",
    "read_jsonl_header",
    "TraceContext",
    "start_trace",
    "use_context",
    "inject",
    "extract",
    "set_worker_id",
    "get_worker_id",
    "ShardWriter",
    "worker_telemetry",
    "discover_shards",
    "FleetReport",
    "aggregate_shards",
    "FLEET_SCHEMA_VERSION",
    "FlightRecorder",
    "BUNDLE_SCHEMA_VERSION",
    "flight_recording",
    "load_bundle",
    "report_anomaly",
    "Dashboard",
    "run_top",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "telemetry",
    "to_jsonable",
    "render_prometheus",
    "chrome_trace_events",
    "counter_track_events",
    "noise_trace_events",
    "pipeline_trace_events",
    "schedule_trace_events",
    "merged_trace_events",
    "flight_trace_events",
    "write_chrome_trace",
]

#: Process-wide metrics registry (records while telemetry is on).
REGISTRY = MetricsRegistry()

#: Process-wide span tracer (records while telemetry is on).
TRACER = Tracer()


def enable() -> None:
    """Switch telemetry on: every recorder records, the bus publishes."""
    BUS.enable()


def disable() -> None:
    """Switch telemetry off."""
    BUS.disable()


def is_enabled() -> bool:
    return BUS.enabled


def reset() -> None:
    """Clear all recorded metrics, spans, counters, noise records and
    buffered bus/flight-recorder events."""
    REGISTRY.reset()
    TRACER.reset()
    COUNTERS.reset()
    NOISE.reset()
    BUS.reset()
    FLIGHT.reset()


@contextmanager
def telemetry() -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Switch telemetry on for a ``with`` block, restoring the prior state.

    Every recorder is reset on entry, so the block observes only its own
    activity.
    """
    prior = BUS.enabled
    reset()
    enable()
    try:
        yield REGISTRY, TRACER
    finally:
        BUS.enabled = prior
