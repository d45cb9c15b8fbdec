"""Unified telemetry bus: one typed event stream for every subsystem.

PRs 1/3/4 grew three parallel telemetry systems - the metrics registry,
the span tracer, the perf-counter bank - plus the noise tracker.  Each
kept its own buffer and its own export path, which is fine for post-hoc
analysis but gives no single *runtime* view: nothing a live dashboard or
an always-on flight recorder can subscribe to.  This module is that
missing spine.

A :class:`TelemetryBus` carries :class:`TelemetryEvent` values - small
frozen records ``(seq, t_s, kind, name, value, fields)`` plus the
distributed identity stamped since schema v2 (``worker`` and the
``trace_id/span_id/parent_id`` triple from
:mod:`repro.observability.context`) - from *publishers* to
*subscribers*:

- the four existing systems publish as a side effect of recording (a
  counter increment becomes a ``"metric"`` event, a span a ``"span"``
  event, a perf-counter sample a ``"sample"`` event, a noise record a
  ``"noise"`` event), so every instrumented site built since PR 1 feeds
  the bus with **zero new call sites**;
- the hot paths publish a handful of direct events: batched bootstraps
  (``"batch"``), simulator and scheduler result summaries
  (``"snapshot"``), machine stage boundaries (``"stage"``), workload
  descriptors (``"workload"``) and anomalies (``"anomaly"``);
- subscribers are plain callables: the flight recorder
  (:mod:`repro.observability.flightrec`), the live ``repro top``
  dashboard (:mod:`repro.observability.dashboard`), and the
  :class:`JsonlEventLog` structured log writer.

:data:`BUS` is the one process-wide singleton, off by default, and its
``enabled`` flag is the package's only on/off switch: the registry,
tracer, perf counters, noise tracker and flight recorder all record
exactly while it is on.  The disabled path is a single ``enabled``
read-and-branch with **zero allocation**
(``benchmarks/bench_observability_overhead.py`` proves it with a
``tracemalloc`` guard).  Publishing happens synchronously on the caller's
thread; subscriber lists are copy-on-write tuples so ``publish`` never
takes a lock around user code.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, Union

from . import context as _context

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "SUPPORTED_EVENT_SCHEMA_VERSIONS",
    "EVENT_KINDS",
    "TelemetryEvent",
    "TelemetryBus",
    "BUS",
    "JsonlEventLog",
    "event_to_jsonable",
    "event_from_jsonable",
    "read_jsonl_events",
    "read_jsonl_header",
]

#: Bump on any incompatible change to the JSONL / bundle event shape.
#: v2 added the distributed-identity fields (``worker``, ``trace_id``,
#: ``span_id``, ``parent_id``) and the ``"heartbeat"`` kind.
EVENT_SCHEMA_VERSION = 2

#: Versions :func:`event_from_jsonable` can still read.  v1 records
#: simply lack the distributed-identity fields; readers default them.
SUPPORTED_EVENT_SCHEMA_VERSIONS = (1, 2)

#: The closed set of event kinds the bus carries.  Publishers may only
#: use these; consumers switch on them.
EVENT_KINDS = (
    "metric",         # registry counter/gauge/quantile update
    "span",           # tracer span (wall-clock or simulated time)
    "counter",        # perf-counter cycles/bytes/ops accumulation
    "sample",         # perf-counter time-resolved (t, value) sample
    "stage",          # ordered discrete event (machine/stages, ...)
    "noise",          # one noise-tracker provenance record
    "failure_point",  # one noise-tracker rounding-decision record
    "batch",          # one batched-bootstrap dispatch (size, precision)
    "snapshot",       # end-of-run summary (simulator/scheduler reports)
    "workload",       # workload descriptor announced before a run
    "anomaly",        # a trigger fired (drift breach, budget overrun, ...)
    "request",        # one request-latency sample (value=s, count-weighted)
    "heartbeat",      # worker liveness beacon (distrib shards)
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed event on the bus.

    ``t_s`` is seconds since the bus epoch (wall clock by default; tests
    inject a deterministic clock).  ``value`` is the event's one headline
    number when it has one (span duration, sample value, batch size);
    everything else rides in ``fields``.

    Since schema v2 every event also carries its distributed identity:
    ``worker`` is the producing process's id ("" when anonymous) and
    ``trace_id/span_id/parent_id`` mirror the trace context active at
    publish time (None outside any trace).
    """

    seq: int
    t_s: float
    kind: str
    name: str
    value: Optional[float] = None
    worker: str = ""
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    fields: Dict[str, Any] = field(default_factory=dict)


def event_to_jsonable(event: TelemetryEvent) -> Dict[str, Any]:
    """Stable-field-order plain dict for one event.

    The order is part of the JSONL contract (golden-tested): ``v, seq,
    t_s, kind, name, value, worker, trace_id, span_id, parent_id,
    fields`` - with ``fields`` keys sorted - so logs diff cleanly and
    line-level consumers can parse positionally.
    """
    from .export import to_jsonable

    return {
        "v": EVENT_SCHEMA_VERSION,
        "seq": event.seq,
        "t_s": event.t_s,
        "kind": event.kind,
        "name": event.name,
        "value": event.value,
        "worker": event.worker,
        "trace_id": event.trace_id,
        "span_id": event.span_id,
        "parent_id": event.parent_id,
        "fields": {k: to_jsonable(event.fields[k]) for k in sorted(event.fields)},
    }


def event_from_jsonable(record: Dict[str, Any]) -> TelemetryEvent:
    """Rebuild a :class:`TelemetryEvent` from an exported JSONL record.

    Inverse of :func:`event_to_jsonable` for offline replay (``repro top
    --from``): the schema version must be one of
    :data:`SUPPORTED_EVENT_SCHEMA_VERSIONS` (v1 records default the
    distributed-identity fields) and header records are rejected -
    filter with :func:`read_jsonl_events` first.
    """
    version = record.get("v")
    if version not in SUPPORTED_EVENT_SCHEMA_VERSIONS:
        supported = ", ".join(f"v{v}" for v in SUPPORTED_EVENT_SCHEMA_VERSIONS)
        raise ValueError(
            f"unsupported event schema version {version!r} "
            f"(this build reads {supported})"
        )
    kind = record["kind"]
    if kind == "jsonl_header":
        raise ValueError("header record is not an event; skip it "
                         "(read_jsonl_events does)")
    value = record.get("value")
    return TelemetryEvent(
        seq=int(record["seq"]),
        t_s=float(record["t_s"]),
        kind=kind,
        name=record["name"],
        value=None if value is None else float(value),
        worker=str(record.get("worker", "")),
        trace_id=record.get("trace_id"),
        span_id=record.get("span_id"),
        parent_id=record.get("parent_id"),
        fields=dict(record.get("fields", {})),
    )


Subscriber = Callable[[TelemetryEvent], None]


class TelemetryBus:
    """In-process pub/sub spine for telemetry events.

    All publishing methods are no-ops while ``enabled`` is False - the
    whole disabled path is one attribute read and branch, nothing is
    allocated.  Subscribers run synchronously on the publishing thread in
    subscription order; a subscriber must therefore be cheap and must
    never publish back into the bus *for the event kinds it consumes*
    (the flight recorder publishes ``"anomaly"`` events but does not
    re-trigger on them).
    """

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None,
                 wall_clock: Optional[Callable[[], float]] = None):
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        self._wall_clock = wall_clock if wall_clock is not None else time.time
        self._epoch = self._clock()
        self._epoch_unix = self._wall_clock()
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: Tuple[Subscriber, ...] = ()

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Restart the sequence counter and the clock epoch.

        Subscribers stay attached (they are wiring, not data); each keeps
        its own buffer to clear.
        """
        with self._lock:
            self._seq = 0
            self._epoch = self._clock()
            self._epoch_unix = self._wall_clock()

    # -- subscriptions ----------------------------------------------------
    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Attach ``fn``; it receives every subsequent published event."""
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers = self._subscribers + (fn,)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        # Equality, not identity: a bound method (`recorder._on_event`) is
        # a fresh object on every attribute access, but compares equal.
        with self._lock:
            self._subscribers = tuple(s for s in self._subscribers if s != fn)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- clock ------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the bus epoch (the ``t_s`` of a new event)."""
        return self._clock() - self._epoch

    @property
    def epoch_unix(self) -> float:
        """Wall-clock time (unix seconds) of the bus epoch.

        Written into JSONL shard headers so the fleet aggregator can put
        events from different processes on one global timeline:
        ``global_t = epoch_unix + t_s``.
        """
        return self._epoch_unix

    # -- publishing -------------------------------------------------------
    def publish(self, kind: str, name: str, value: Optional[float] = None,
                **fields: Any) -> Optional[TelemetryEvent]:
        """Publish one event; returns it, or None when the bus is off.

        ``kind`` must come from :data:`EVENT_KINDS`.  Keyword arguments
        become the event's ``fields``.
        """
        if not self.enabled:
            return None
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one "
                             f"of {', '.join(EVENT_KINDS)}")
        with self._lock:
            seq = self._seq
            self._seq += 1
        ctx = _context.current()
        event = TelemetryEvent(
            seq=seq,
            t_s=self._clock() - self._epoch,
            kind=kind,
            name=name,
            value=None if value is None else float(value),
            worker=_context.get_worker_id(),
            trace_id=None if ctx is None else ctx.trace_id,
            span_id=None if ctx is None else ctx.span_id,
            parent_id=None if ctx is None else ctx.parent_id,
            fields=fields,
        )
        for subscriber in self._subscribers:
            subscriber(event)
        return event


#: Process-wide telemetry bus (disabled until enabled explicitly or via
#: :func:`repro.observability.enable`).
BUS = TelemetryBus()


class JsonlEventLog:
    """Bus subscriber writing one JSON line per event (schema-versioned).

    Every line is self-describing: it opens with ``"v"`` (the event
    schema version) and keeps the stable field order of
    :func:`event_to_jsonable`.  The first line is a header record
    (``"kind": "jsonl_header"``) naming the schema version once more so a
    consumer can reject a whole file cheaply.

    Use as a context manager around a run::

        with obs.telemetry(), JsonlEventLog("run.jsonl") as log:
            run_workload(...)
        # one line per event, replayable offline

    Crash safety: the log registers an ``atexit`` flush (so an
    interpreter shutdown never strands buffered lines) and flushes
    eagerly whenever an ``"anomaly"`` event passes through (the flight
    recorder publishes one before cutting a bundle, so the shard on disk
    is complete up to the moment something went wrong).  Both hooks are
    pid-guarded: a fork child inheriting this object by accident will
    not double-flush the parent's file handle.
    """

    def __init__(self, target: Union[str, IO[str]], bus: Optional[TelemetryBus] = None,
                 worker: Optional[str] = None):
        self._bus = bus if bus is not None else BUS
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._closed = False
        self.worker = worker if worker is not None else _context.get_worker_id()
        self.lines_written = 0
        self._write_header()
        self._bus.subscribe(self._on_event)
        atexit.register(self._atexit_flush)

    def _write_header(self) -> None:
        header = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": "jsonl_header",
            "producer": "repro.observability.bus",
            "worker": self.worker,
            "epoch_unix": self._bus.epoch_unix,
        }
        self._fh.write(json.dumps(header, separators=(", ", ": ")) + "\n")

    def _on_event(self, event: TelemetryEvent) -> None:
        line = json.dumps(event_to_jsonable(event), separators=(", ", ": "),
                          default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self.lines_written += 1
            if event.kind == "anomaly":
                # Something just went wrong; make the shard durable up
                # to this moment in case the process dies next.
                self._fh.flush()

    def flush(self) -> None:
        """Flush buffered lines to the underlying file."""
        with self._lock:
            if not self._closed:
                self._fh.flush()

    def _atexit_flush(self) -> None:
        if self._closed or os.getpid() != self._pid:
            return
        try:
            self.flush()
        except (OSError, ValueError):
            pass  # interpreter teardown; the file may already be gone

    def close(self) -> None:
        """Detach from the bus and flush/close the underlying file."""
        self._bus.unsubscribe(self._on_event)
        if self._closed:
            return
        with self._lock:
            self._closed = True
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
        try:
            atexit.unregister(self._atexit_flush)
        except Exception:
            pass

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_jsonl_header(path: str) -> Optional[Dict[str, Any]]:
    """The file's ``jsonl_header`` record, or None when absent.

    The header carries the schema version, the producing worker's id,
    and ``epoch_unix`` - everything the fleet aggregator needs before it
    commits to reading the body.
    """
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return None
            return record if record.get("kind") == "jsonl_header" else None
    return None


def read_jsonl_events(path: str, tolerant: bool = False) -> List[Dict[str, Any]]:
    """Load a JSONL event log back into plain dicts (header skipped).

    With ``tolerant=True`` an undecodable *final* line is silently
    dropped: a SIGKILL'd worker can die mid-write, leaving one truncated
    record at the tail of an otherwise-valid shard.  Corruption anywhere
    else still raises - that is a broken file, not a crash artifact.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if tolerant and i == len(lines) - 1:
                break
            raise
        if record.get("kind") == "jsonl_header":
            continue
        events.append(record)
    return events
