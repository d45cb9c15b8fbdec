"""Always-on flight recorder: bounded event ring + anomaly-triggered dumps.

Aircraft keep a flight recorder running at all times precisely because
failures are not reproducible on demand; a serving stack needs the same
thing, and the telemetry bus (:mod:`repro.observability.bus`) finally
gives one stream worth recording.  A :class:`FlightRecorder` subscribes
to the bus and keeps the most recent events in a bounded ring buffer
(``collections.deque(maxlen=...)`` - O(1) append, old events fall off the
back).  When an **anomaly trigger** fires, the recorder freezes the last
``window_s`` seconds of that ring into a self-contained JSON **bundle**:
spans, counter samples, noise records, stage markers and the triggering
event itself, plus the trigger's reason and context.

Trigger catalog (all route through :meth:`FlightRecorder.trigger`):

- ``noise_drift`` - a measured noise sample left the analytic envelope
  (``sigma > drift_sigmas``); detected inline on every ``"noise"`` event;
- ``failure_budget`` - a workload's union-bound decryption-failure
  probability overran its budget (reported by the failure-probability
  analyzer through :func:`report_anomaly`);
- ``latency_spike`` - a scheduled workload blew its latency budget
  (``run_workload(..., latency_budget_s=...)``);
- ``exception`` - an uncaught exception escaped ``run_workload`` or the
  batched bootstrap pipeline (reported, then re-raised);
- ``slo_burn`` - a latency objective's error budget is burning faster
  than its multi-window alert factor (fired by
  :class:`repro.observability.slo.SLOMonitor`);
- ``manual`` - an explicit ``repro record`` capture.

Every trigger publishes an ``"anomaly"`` event back onto the bus (so the
live dashboard shows it) *before* collecting the window, which puts the
anomaly itself inside its own bundle.  Consecutive triggers within
``cooldown_s`` are coalesced into the first dump so a drifting op class
cannot flood the disk.

Discipline matches the bus: one process-wide singleton (:data:`FLIGHT`)
that records only while telemetry is on.  The bus calls subscribers only
while it is enabled, so with telemetry off the recorder is never entered
and allocates nothing (held to it by
``benchmarks/bench_observability_overhead.py``).
"""

from __future__ import annotations

import collections
import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, Optional

from .bus import BUS, EVENT_SCHEMA_VERSION, TelemetryBus, TelemetryEvent, event_to_jsonable

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "FlightRecorder",
    "FLIGHT",
    "report_anomaly",
    "load_bundle",
    "flight_recording",
]

#: Bump on any incompatible change to the flight-bundle JSON shape.
BUNDLE_SCHEMA_VERSION = 1

#: Default ring capacity (events) and dump window (bus seconds).
DEFAULT_CAPACITY = 8192
DEFAULT_WINDOW_S = 30.0
#: Default drift threshold, matching :func:`repro.observability.drift_report`.
DEFAULT_DRIFT_SIGMAS = 6.0


class FlightRecorder:
    """Bounded ring of bus events with anomaly-triggered JSON dumps.

    The recorder holds at most ``capacity`` events; a trigger freezes the
    trailing ``window_s`` seconds into a bundle, keeps it as
    :attr:`last_bundle`, and - when ``dump_dir`` is set - writes it to
    ``flight-<seq>-<reason>.json`` there.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        window_s: float = DEFAULT_WINDOW_S,
        drift_sigmas: float = DEFAULT_DRIFT_SIGMAS,
        cooldown_s: float = 1.0,
        dump_dir: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError("flight recorder needs capacity >= 1")
        self.capacity = capacity
        self.window_s = window_s
        self.drift_sigmas = drift_sigmas
        self.cooldown_s = cooldown_s
        self.dump_dir = dump_dir
        self.last_bundle: Optional[Dict[str, Any]] = None
        self.last_dump_path: Optional[str] = None
        self.dumps_written = 0
        self.triggers_fired = 0
        self.triggers_coalesced = 0
        self._ring: Deque[TelemetryEvent] = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._last_trigger_t: Optional[float] = None
        self._bus: TelemetryBus = BUS

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Drop every buffered event and forget the last dump."""
        with self._lock:
            self._ring.clear()
            self._last_trigger_t = None
        self.last_bundle = None
        self.last_dump_path = None
        self.dumps_written = 0
        self.triggers_fired = 0
        self.triggers_coalesced = 0

    def attach(self, bus: Optional[TelemetryBus] = None) -> None:
        """Subscribe to ``bus`` (the global one by default)."""
        self._bus = bus if bus is not None else BUS
        self._bus.subscribe(self._on_event)

    def detach(self) -> None:
        self._bus.unsubscribe(self._on_event)

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording ------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        """Bus subscriber: O(1) ring append + inline drift detection."""
        self._ring.append(event)
        if event.kind == "noise":
            sigma = event.fields.get("sigma")
            if sigma is not None and sigma > self.drift_sigmas:
                self.trigger(
                    "noise_drift", op=event.name, sigma=float(sigma),
                    drift_sigmas=self.drift_sigmas, event_seq=event.seq,
                )

    # -- triggering -----------------------------------------------------
    def trigger(self, reason: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Fire an anomaly: publish it, freeze the window, maybe dump.

        Returns the bundle, or None when the recorder's bus is off or the
        trigger landed inside the cooldown window of the previous one
        (coalesced - the earlier dump already covers it).
        """
        if not self._bus.enabled:
            return None
        self.triggers_fired += 1
        now = self._bus.now()
        with self._lock:
            if (self._last_trigger_t is not None
                    and now - self._last_trigger_t < self.cooldown_s):
                self.triggers_coalesced += 1
                return None
            self._last_trigger_t = now
        # The anomaly event lands in the ring before the window is cut,
        # so every bundle contains its own trigger.
        self._bus.publish("anomaly", reason, **fields)
        bundle = self._bundle(reason, fields)
        self.last_bundle = bundle
        if self.dump_dir is not None:
            self._write(bundle)
        return bundle

    def _bundle(self, reason: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Freeze the trailing window into a self-contained plain dict."""
        from .export import to_jsonable

        now = self._bus.now()
        cutoff = now - self.window_s
        with self._lock:
            window = [e for e in self._ring if e.t_s >= cutoff]
        counts: Dict[str, int] = {}
        for event in window:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "kind": "flight_bundle",
            "event_schema_version": EVENT_SCHEMA_VERSION,
            "trigger": {
                "reason": reason,
                "t_s": now,
                "fields": {k: to_jsonable(fields[k]) for k in sorted(fields)},
            },
            "window_s": self.window_s,
            "capacity": self.capacity,
            "counts": {k: counts[k] for k in sorted(counts)},
            "events": [event_to_jsonable(e) for e in window],
        }

    def _write(self, bundle: Dict[str, Any]) -> str:
        assert self.dump_dir is not None
        os.makedirs(self.dump_dir, exist_ok=True)
        seq = bundle["events"][-1]["seq"] if bundle["events"] else 0
        reason = str(bundle["trigger"]["reason"]).replace("/", "_")
        path = os.path.join(self.dump_dir, f"flight-{seq:08d}-{reason}.json")
        with open(path, "w") as fh:
            json.dump(bundle, fh, indent=1)
        self.last_dump_path = path
        self.dumps_written += 1
        return path

    # -- explicit capture -------------------------------------------------
    def capture(self, reason: str = "manual", **fields: Any) -> Dict[str, Any]:
        """Post-mortem bundle of whatever the ring holds, telemetry on or off.

        Unlike :meth:`trigger` this never publishes, never dumps and
        ignores the cooldown - it is the read-side API ``repro record``
        and the CI failure hook use to serialize the recorder's state.
        """
        return self._bundle(reason, fields)

    def dump(self, path: str, reason: str = "manual", **fields: Any) -> Dict[str, Any]:
        """Write a :meth:`capture` bundle to ``path`` and return it."""
        bundle = self.capture(reason, **fields)
        with open(path, "w") as fh:
            json.dump(bundle, fh, indent=1)
        return bundle


#: Process-wide flight recorder, subscribed to :data:`BUS` at import; it
#: records whenever telemetry is on.
FLIGHT = FlightRecorder()
FLIGHT.attach(BUS)


def report_anomaly(reason: str, **fields: Any) -> Optional[Dict[str, Any]]:
    """Report an anomaly from anywhere: dashboard sees it, recorder dumps.

    Safe to call unconditionally on cold paths (exception handlers,
    budget checks): with telemetry on it routes through
    :meth:`FlightRecorder.trigger`; with telemetry off it is a no-op.
    """
    return FLIGHT.trigger(reason, **fields)


def load_bundle(path: str) -> Dict[str, Any]:
    """Load a flight bundle, validating kind and schema version."""
    with open(path) as fh:
        bundle = json.load(fh)
    if bundle.get("kind") != "flight_bundle":
        raise ValueError(f"{path} is not a flight-recorder bundle")
    version = bundle.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has bundle schema {version}, expected {BUNDLE_SCHEMA_VERSION}"
        )
    return bundle


@contextmanager
def flight_recording(dump_dir: Optional[str] = None,
                     window_s: Optional[float] = None) -> Iterator[FlightRecorder]:
    """Switch telemetry on for a block, as
    :func:`repro.observability.telemetry` does, and yield :data:`FLIGHT`.

    ``dump_dir`` and ``window_s`` override the recorder's settings for the
    block only::

        with flight_recording(dump_dir="dumps") as rec:
            run_workload(...)        # anomalies dump automatically
        bundle = rec.capture()       # or capture explicitly at the end
    """
    from . import telemetry

    prior = (FLIGHT.dump_dir, FLIGHT.window_s)
    if dump_dir is not None:
        FLIGHT.dump_dir = dump_dir
    if window_s is not None:
        FLIGHT.window_s = window_s
    try:
        with telemetry():
            yield FLIGHT
    finally:
        FLIGHT.dump_dir, FLIGHT.window_s = prior
