"""Distributed telemetry: per-worker shards and the fleet aggregator.

Everything in :mod:`repro.observability` up to PR 8 is single-process:
one bus, one registry, one flight recorder.  The serving roadmap
(continuous batching, multi-worker sharding) needs the same telemetry to
survive process boundaries, the way Morphling's per-XPU counters roll up
to one machine-level throughput figure.  This module supplies the three
pieces:

- :class:`ShardWriter` - each worker process writes its own
  schema-versioned JSONL shard (``events-<worker_id>.jsonl``), plus
  periodic **heartbeat** events and serialized sketch/counter
  **snapshots**, so the shard alone is enough to reconstruct the
  worker's latency distribution and liveness timeline;
- :func:`worker_telemetry` - the worker-side lifecycle: reset every
  singleton (a fork child must never inherit parent buffers - a
  process-level ``os.register_at_fork`` hook backstops this), name the
  process, enter the trace context carried from the driver, and start
  heartbeats;
- :func:`aggregate_shards` - the driver-side roll-up: merge N shards
  into one re-sequenced timeline, merge latency sketches **exactly**
  (the PR 8 pointwise-merge proof is what makes fleet p99 from shards
  identical to the single-process sketch), union counter banks, and
  detect dead workers from missed heartbeats, firing a ``worker_lost``
  flight-recorder anomaly with a bundle of the lost worker's trailing
  events.

Timeline semantics: every shard header records the producing bus's
``epoch_unix`` (wall clock at epoch).  The aggregator places event ``e``
of worker ``w`` at ``global_t = epoch_unix(w) + e.t_s``, sorts by
``(global_t, worker_id, seq)`` and re-sequences; the merged timeline's
``t_s`` is relative to the earliest shard epoch.  Clock skew between
hosts is out of scope (single-host multiprocessing); ordering within a
worker is always preserved because ``seq`` breaks ties.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import context as _context
from .bus import (
    BUS,
    SUPPORTED_EVENT_SCHEMA_VERSIONS,
    JsonlEventLog,
    TelemetryBus,
    TelemetryEvent,
    event_from_jsonable,
    event_to_jsonable,
    read_jsonl_events,
    read_jsonl_header,
)
from .counters import COUNTERS
from .flightrec import BUNDLE_SCHEMA_VERSION, report_anomaly
from .sketch import DEFAULT_QUANTILES, DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "DEFAULT_MISS_FACTOR",
    "ShardWriter",
    "worker_telemetry",
    "discover_shards",
    "FleetReport",
    "aggregate_shards",
]

#: Bump on any incompatible change to the fleet-report JSON shape.
FLEET_SCHEMA_VERSION = 1

#: How often a worker beacons liveness (and flushes its shard).
DEFAULT_HEARTBEAT_INTERVAL_S = 0.25

#: A worker is declared lost when the fleet timeline extends more than
#: ``miss_factor * heartbeat_interval`` past its last heartbeat without
#: a final one.
DEFAULT_MISS_FACTOR = 3.0

#: Trailing-window length (global seconds) of a ``worker_lost`` bundle.
LOST_WINDOW_S = 30.0


# ---------------------------------------------------------------------------
# fork safety
# ---------------------------------------------------------------------------

_FORK_HOOK_INSTALLED = False


def _reset_in_child() -> None:
    """Drop every inherited telemetry buffer in a freshly forked child.

    The child must start anonymous and silent: parent subscribers (log
    writers, dashboards) would otherwise double-write into the parent's
    file handles, and inherited ring/span buffers would leak parent
    events into the child's shard.  The flight recorder is re-attached
    (it is wiring, not data); :func:`worker_telemetry` then names the
    process and re-enables what it needs.
    """
    import repro.observability as obs

    BUS._subscribers = ()
    obs.disable()
    obs.reset()
    from .flightrec import FLIGHT

    FLIGHT.attach(BUS)
    _context.set_worker_id("")


def _install_fork_hook() -> None:
    global _FORK_HOOK_INSTALLED
    if _FORK_HOOK_INSTALLED:
        return
    if hasattr(os, "register_at_fork"):  # not on Windows
        os.register_at_fork(after_in_child=_reset_in_child)
    _FORK_HOOK_INSTALLED = True


_install_fork_hook()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

class ShardWriter:
    """One worker's telemetry shard: JSONL events + heartbeats + snapshots.

    Wraps a :class:`JsonlEventLog` on ``<shard_dir>/events-<worker_id>.jsonl``
    and additionally:

    - folds every ``"request"`` event into a local
      :class:`QuantileSketch` (count-weighted), mirroring what the
      dashboard does live;
    - :meth:`heartbeat` publishes a ``"heartbeat"`` event and flushes
      the shard, so the aggregator can bound how stale a silent worker's
      file can be;
    - :meth:`snapshot_state` publishes serialized sketch and counter
      snapshots (``"snapshot"`` events named ``worker/sketch/latency``
      and ``worker/counters``) that the aggregator rebuilds exactly via
      :meth:`QuantileSketch.from_state`;
    - :meth:`start_heartbeats` runs both on a daemon thread every
      ``heartbeat_interval_s``.

    :meth:`close` emits one final snapshot and a ``final=True``
    heartbeat (the clean-shutdown marker the dead-worker detector keys
    on) before closing the file.
    """

    def __init__(self, shard_dir: str, worker_id: Optional[str] = None,
                 bus: Optional[TelemetryBus] = None,
                 heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        self.worker_id = (worker_id if worker_id is not None
                          else _context.get_worker_id()) or f"pid{os.getpid()}"
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        os.makedirs(shard_dir, exist_ok=True)
        self.path = os.path.join(shard_dir, f"events-{self.worker_id}.jsonl")
        self._bus = bus if bus is not None else BUS
        self._log = JsonlEventLog(self.path, bus=self._bus, worker=self.worker_id)
        self._sketch = QuantileSketch(relative_accuracy)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.heartbeats_sent = 0
        self._bus.subscribe(self._on_event)

    # -- live folding ---------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        if event.kind == "request" and event.value is not None:
            count = int(event.fields.get("count", 1))
            if count > 0 and event.value >= 0.0:
                with self._lock:
                    self._sketch.add(event.value, count=count)

    def sketch(self) -> QuantileSketch:
        """Copy of the worker's request-latency sketch so far."""
        with self._lock:
            return self._sketch.copy()

    # -- beacons --------------------------------------------------------
    def heartbeat(self, final: bool = False) -> None:
        """Publish a liveness beacon and make the shard durable."""
        self._bus.publish(
            "heartbeat", f"worker/{self.worker_id}",
            value=float(self.heartbeats_sent),
            interval_s=self.heartbeat_interval_s, final=final,
        )
        self.heartbeats_sent += 1
        self._log.flush()

    def snapshot_state(self) -> None:
        """Publish serialized sketch + counter state into the shard."""
        with self._lock:
            state = self._sketch.to_state()
        self._bus.publish("snapshot", "worker/sketch/latency",
                          value=float(state["count"]), state=state)
        counters = COUNTERS.snapshot()
        self._bus.publish("snapshot", "worker/counters",
                          cycles=counters["cycles"],
                          bytes=counters["bytes"],
                          ops=counters["ops"])
        self._log.flush()

    # -- heartbeat thread -----------------------------------------------
    def start_heartbeats(self) -> None:
        """Beacon + snapshot every ``heartbeat_interval_s`` on a daemon
        thread until :meth:`close`."""
        if self._thread is not None:
            return
        self.heartbeat()  # immediate first beacon: liveness from t=0

        def _loop() -> None:
            while not self._stop.wait(self.heartbeat_interval_s):
                self.heartbeat()
                self.snapshot_state()

        self._thread = threading.Thread(
            target=_loop, name=f"shard-heartbeat-{self.worker_id}", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Final snapshot, ``final=True`` heartbeat, close the shard."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.snapshot_state()
        self.heartbeat(final=True)
        self._bus.unsubscribe(self._on_event)
        self._log.close()

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@contextmanager
def worker_telemetry(
    worker_id: str,
    shard_dir: str,
    carrier: Optional[str] = None,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
) -> Iterator[ShardWriter]:
    """Worker-side telemetry lifecycle, as a ``with`` block.

    Names the process ``worker_id``, switches telemetry on, opens the
    shard with heartbeats running, and - when ``carrier`` is given -
    enters the extracted trace context so every span and event the
    worker produces parents to the driver's submitting span.  When
    telemetry was off on entry every recorder is reset first (so nothing
    inherited from the parent leaks into the shard); when it was on, the
    caller's recordings are left alone.  On exit the shard is closed
    cleanly (final heartbeat) and the switch and worker id are restored
    to their values on entry.
    """
    import repro.observability as obs

    was_enabled = obs.is_enabled()
    prior_worker = _context.get_worker_id()
    if not was_enabled:
        obs.reset()
    _context.set_worker_id(worker_id)
    obs.enable()
    writer = ShardWriter(shard_dir, worker_id=worker_id,
                         heartbeat_interval_s=heartbeat_interval_s)
    token = None
    ctx = _context.extract(carrier)
    if ctx is not None:
        token = _context.activate(ctx)
    writer.start_heartbeats()
    try:
        yield writer
    finally:
        if token is not None:
            _context.deactivate(token)
        writer.close()
        obs.BUS.enabled = was_enabled
        _context.set_worker_id(prior_worker)


# ---------------------------------------------------------------------------
# driver side: aggregation
# ---------------------------------------------------------------------------

def discover_shards(shard_dir: str) -> List[str]:
    """Sorted shard paths (``events-*.jsonl``) under ``shard_dir``."""
    return sorted(_glob.glob(os.path.join(shard_dir, "events-*.jsonl")))


class FleetReport:
    """The merged view of N worker shards (see :func:`aggregate_shards`).

    Attributes:

    - ``events``: the re-sequenced merged timeline
      (:class:`TelemetryEvent`, ``t_s`` relative to the earliest shard
      epoch, per-event ``worker`` preserved);
    - ``sketch``: the fleet latency sketch - per-worker sketches folded
      from ``"request"`` events, merged pointwise (exact);
    - ``snapshot_sketch``: the merge of the workers' last *serialized*
      snapshots (None when no shard carried one) - lags ``sketch`` by at
      most one heartbeat interval per worker;
    - ``counters``: unioned cycle/byte/op banks;
    - ``workers``: per-worker summaries (events, requests, heartbeat
      status);
    - ``lost_workers`` / ``lost_bundles``: dead-worker verdicts and the
      flight-bundle-shaped evidence for each.
    """

    def __init__(self, event_schema_version: int):
        self.event_schema_version = event_schema_version
        self.epoch_unix = 0.0
        self.elapsed_s = 0.0
        self.events: List[TelemetryEvent] = []
        self.sketch = QuantileSketch()
        self.snapshot_sketch: Optional[QuantileSketch] = None
        self.counters: Dict[str, Dict[str, float]] = {
            "cycles": {}, "bytes": {}, "ops": {},
        }
        self.workers: Dict[str, Dict[str, Any]] = {}
        self.lost_workers: List[str] = []
        self.lost_bundles: List[Dict[str, Any]] = []

    # -- views ----------------------------------------------------------
    def quantiles(self, qs: Sequence[float] = DEFAULT_QUANTILES) -> Dict[float, Optional[float]]:
        return self.sketch.quantiles(qs)

    def to_jsonable(self) -> Dict[str, Any]:
        """Schema-versioned plain dict (the ``repro fleet --json`` body).

        Stable field order, workers sorted by id - golden-pinned in
        ``tests/observability/golden/fleet_report.json``.
        """
        latency = self.sketch.to_jsonable()
        return {
            "v": FLEET_SCHEMA_VERSION,
            "kind": "fleet_report",
            "event_schema_version": self.event_schema_version,
            "elapsed_s": self.elapsed_s,
            "events_total": len(self.events),
            "workers": [self.workers[w] for w in sorted(self.workers)],
            "lost_workers": sorted(self.lost_workers),
            "latency": latency,
            "snapshot_latency": (None if self.snapshot_sketch is None
                                 else self.snapshot_sketch.to_jsonable()),
            "counters": {
                bank: dict(sorted(values.items()))
                for bank, values in sorted(self.counters.items())
            },
        }

    def to_bundle(self) -> Dict[str, Any]:
        """The merged timeline as a flight-bundle-shaped dict.

        Shape-compatible with :func:`repro.observability.load_bundle`
        consumers, so ``repro replay --chrome`` renders a fleet timeline
        exactly like a single-process bundle.
        """
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "kind": "flight_bundle",
            "event_schema_version": self.event_schema_version,
            "trigger": {
                "reason": "fleet_aggregate",
                "t_s": self.elapsed_s,
                "fields": {"workers": sorted(self.workers),
                           "lost_workers": sorted(self.lost_workers)},
            },
            "window_s": self.elapsed_s,
            "capacity": len(self.events),
            "counts": {k: counts[k] for k in sorted(counts)},
            "events": [event_to_jsonable(e) for e in self.events],
        }

    def render_text(self) -> str:
        """Fixed-width fleet panel (the ``repro fleet`` default output)."""
        lines = [
            f"fleet report (v{FLEET_SCHEMA_VERSION}) | "
            f"{len(self.workers)} workers | {len(self.events)} events | "
            f"elapsed {self.elapsed_s:.3f}s",
            "",
            f"  {'worker':<10} {'events':>7} {'requests':>9} "
            f"{'bootstraps':>11} {'heartbeats':>11}  status",
        ]
        for worker_id in sorted(self.workers):
            row = self.workers[worker_id]
            status = "LOST" if worker_id in self.lost_workers else (
                "ok" if row["final_heartbeat"] else "open")
            lines.append(
                f"  {worker_id:<10} {row['events']:>7} {row['requests']:>9} "
                f"{row['bootstraps']:>11.0f} {row['heartbeats']:>11}  {status}"
            )
        qs = self.quantiles()
        fmt = {q: ("-" if v is None else f"{v * 1e3:.3f}ms")
               for q, v in qs.items()}
        lines.append("")
        lines.append(
            f"  latency (fleet, n={self.sketch.count}): "
            + "  ".join(f"p{int(q * 100)} {fmt[q]}" for q in sorted(fmt))
        )
        if self.lost_workers:
            lines.append(
                f"  !! worker_lost: {', '.join(sorted(self.lost_workers))}"
            )
        return "\n".join(lines)


def _read_shard(path: str, tolerant: bool) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    header = read_jsonl_header(path)
    if header is None or header.get("kind") != "jsonl_header":
        raise ValueError(f"{path} has no jsonl_header record; not a telemetry shard")
    version = header.get("v")
    if version not in SUPPORTED_EVENT_SCHEMA_VERSIONS:
        supported = ", ".join(f"v{v}" for v in SUPPORTED_EVENT_SCHEMA_VERSIONS)
        raise ValueError(
            f"{path} has event schema version {version!r}; this build reads {supported}"
        )
    return header, read_jsonl_events(path, tolerant=tolerant)


def aggregate_shards(
    paths: Sequence[str],
    miss_factor: float = DEFAULT_MISS_FACTOR,
    relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    dump_dir: Optional[str] = None,
    tolerant: bool = True,
) -> FleetReport:
    """Merge N worker shards into one :class:`FleetReport`.

    - the merged timeline is ordered by ``(global_t, worker_id, seq)``
      and re-sequenced from 0, with ``t_s`` rebased to the earliest
      shard epoch;
    - the fleet latency sketch is the **exact** pointwise merge of
      per-worker sketches folded from ``"request"`` events, so fleet
      percentiles match a single-process sketch of the same stream
      bucket-for-bucket;
    - counter banks are unioned by summing per-name across workers;
    - a worker that beaconed heartbeats but never sent a ``final`` one,
      and whose last beacon is more than ``miss_factor * interval``
      behind the fleet's last event, is declared **lost**: a
      ``worker_lost`` anomaly is reported (flight recorder / bus, when
      enabled) and a flight-bundle-shaped evidence bundle of its
      trailing events is built (written to ``dump_dir`` when given).

    All shards must share one event schema version; mixing versions
    raises ``ValueError``.  With ``tolerant`` (the default) a truncated
    final line - the signature of a SIGKILL mid-write - is dropped
    instead of failing the whole aggregation.
    """
    if not paths:
        raise ValueError("aggregate_shards needs at least one shard path")
    shards: List[Tuple[str, Dict[str, Any], List[Dict[str, Any]]]] = []
    versions: Dict[int, List[str]] = {}
    for path in paths:
        header, records = _read_shard(path, tolerant=tolerant)
        shards.append((path, header, records))
        versions.setdefault(int(header["v"]), []).append(path)
    if len(versions) > 1:
        detail = "; ".join(
            f"v{v}: {', '.join(os.path.basename(p) for p in ps)}"
            for v, ps in sorted(versions.items())
        )
        raise ValueError(
            f"cannot aggregate shards with mixed event schema versions ({detail})"
        )

    report = FleetReport(event_schema_version=next(iter(versions)))
    fleet_epoch = min(float(h.get("epoch_unix", 0.0)) for _, h, _ in shards)
    report.epoch_unix = fleet_epoch

    # -- merge the timeline --------------------------------------------
    # keyed rows: (global_t, worker_id, seq, event)
    rows: List[Tuple[float, str, int, TelemetryEvent]] = []
    per_worker_events: Dict[str, List[Tuple[float, TelemetryEvent]]] = {}
    for path, header, records in shards:
        epoch = float(header.get("epoch_unix", 0.0))
        worker_id = str(header.get("worker", "")) or os.path.basename(path)
        bucket = per_worker_events.setdefault(worker_id, [])
        for record in records:
            event = event_from_jsonable(record)
            if not event.worker:
                event = replace(event, worker=worker_id)
            global_t = epoch + event.t_s
            rows.append((global_t, event.worker, event.seq, event))
            bucket.append((global_t, event))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))

    fleet_end = rows[-1][0] if rows else fleet_epoch
    report.elapsed_s = max(0.0, fleet_end - fleet_epoch)
    report.events = [
        replace(event, seq=i, t_s=global_t - fleet_epoch)
        for i, (global_t, _, _, event) in enumerate(rows)
    ]

    # -- fold per-worker state -----------------------------------------
    snapshot_states: List[Dict[str, Any]] = []
    for worker_id in sorted(per_worker_events):
        events = per_worker_events[worker_id]
        worker_sketch = QuantileSketch(relative_accuracy)
        requests = 0
        bootstraps = 0.0
        heartbeats = 0
        final_heartbeat = False
        last_heartbeat_t: Optional[float] = None
        interval_s = DEFAULT_HEARTBEAT_INTERVAL_S
        last_sketch_state: Optional[Dict[str, Any]] = None
        for global_t, event in events:
            if event.kind == "request" and event.value is not None:
                count = int(event.fields.get("count", 1))
                if count > 0 and event.value >= 0.0:
                    worker_sketch.add(event.value, count=count)
                    requests += count
            elif event.kind == "batch" and event.value is not None:
                bootstraps += event.value
            elif event.kind == "heartbeat":
                heartbeats += 1
                last_heartbeat_t = global_t
                interval_s = float(event.fields.get("interval_s", interval_s))
                if event.fields.get("final"):
                    final_heartbeat = True
            elif event.kind == "counter" and event.value is not None:
                bank = {"cycles": "cycles", "bytes": "bytes",
                        "ops": "ops"}.get(str(event.fields.get("unit", "")))
                if bank is not None:
                    values = report.counters[bank]
                    values[event.name] = values.get(event.name, 0.0) + event.value
            elif event.kind == "snapshot" and event.name == "worker/sketch/latency":
                state = event.fields.get("state")
                if isinstance(state, dict):
                    last_sketch_state = state
        report.sketch.merge(worker_sketch)
        if last_sketch_state is not None:
            snapshot_states.append(last_sketch_state)
        report.workers[worker_id] = {
            "worker": worker_id,
            "events": len(events),
            "requests": requests,
            "bootstraps": bootstraps,
            "heartbeats": heartbeats,
            "final_heartbeat": final_heartbeat,
            "last_heartbeat_t": (None if last_heartbeat_t is None
                                 else last_heartbeat_t - fleet_epoch),
            "heartbeat_interval_s": interval_s,
            "latency": worker_sketch.to_jsonable(),
        }

        # -- dead-worker verdict ---------------------------------------
        if (heartbeats > 0 and not final_heartbeat
                and last_heartbeat_t is not None
                and fleet_end - last_heartbeat_t > miss_factor * interval_s):
            report.lost_workers.append(worker_id)
            bundle = _lost_bundle(
                report, worker_id, events,
                last_heartbeat_t=last_heartbeat_t, fleet_end=fleet_end,
                fleet_epoch=fleet_epoch, miss_factor=miss_factor,
                interval_s=interval_s,
            )
            report.lost_bundles.append(bundle)

    if snapshot_states:
        merged = QuantileSketch.from_state(snapshot_states[0])
        for state in snapshot_states[1:]:
            merged.merge(QuantileSketch.from_state(state))
        report.snapshot_sketch = merged

    # -- side effects: anomaly + evidence ------------------------------
    for worker_id, bundle in zip(report.lost_workers, report.lost_bundles):
        row = report.workers[worker_id]
        report_anomaly(
            "worker_lost", worker=worker_id,
            last_heartbeat_t=row["last_heartbeat_t"],
            heartbeat_interval_s=row["heartbeat_interval_s"],
            miss_factor=miss_factor,
        )
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            out = os.path.join(dump_dir, f"fleet-worker-lost-{worker_id}.json")
            with open(out, "w") as fh:
                json.dump(bundle, fh, indent=1)

    return report


def _lost_bundle(
    report: FleetReport,
    worker_id: str,
    events: List[Tuple[float, TelemetryEvent]],
    last_heartbeat_t: float,
    fleet_end: float,
    fleet_epoch: float,
    miss_factor: float,
    interval_s: float,
) -> Dict[str, Any]:
    """Flight-bundle-shaped evidence for one lost worker.

    Carries the worker's trailing :data:`LOST_WINDOW_S` seconds of
    events (times rebased to the fleet epoch) so the usual bundle
    tooling (``repro replay``) renders what the worker was doing when it
    went silent.
    """
    cutoff = fleet_end - LOST_WINDOW_S
    window = [(t, e) for t, e in events if t >= cutoff]
    counts: Dict[str, int] = {}
    for _, event in window:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "kind": "flight_bundle",
        "event_schema_version": report.event_schema_version,
        "trigger": {
            "reason": "worker_lost",
            "t_s": fleet_end - fleet_epoch,
            "fields": {
                "worker": worker_id,
                "last_heartbeat_t": last_heartbeat_t - fleet_epoch,
                "heartbeat_interval_s": interval_s,
                "miss_factor": miss_factor,
            },
        },
        "window_s": LOST_WINDOW_S,
        "capacity": len(events),
        "counts": {k: counts[k] for k in sorted(counts)},
        "events": [event_to_jsonable(replace(e, t_s=t - fleet_epoch))
                   for t, e in window],
    }
