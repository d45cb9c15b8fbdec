"""Shared deterministic scenario behind the bus/flightrec golden tests.

The golden files pin the JSONL event schema and the flight-bundle shape:
any change to field order, field names, or serialization is a schema
change and must come with an ``EVENT_SCHEMA_VERSION`` /
``BUNDLE_SCHEMA_VERSION`` bump and regenerated goldens (see
``regenerate()`` below).  The scenario publishes one event of every kind
on a bus with an injected deterministic clock, so reruns are
byte-identical.
"""

import itertools
import os

from repro.observability.bus import TelemetryBus
from repro.observability.context import (
    TraceContext,
    get_worker_id,
    set_worker_id,
    use_context,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_JSONL = os.path.join(GOLDEN_DIR, "events.jsonl")
GOLDEN_BUNDLE = os.path.join(GOLDEN_DIR, "flight_bundle.json")
GOLDEN_FLEET = os.path.join(GOLDEN_DIR, "fleet_report.json")

#: Deterministic wall-clock epoch for shard headers (epoch_unix).
FAKE_EPOCH_UNIX = 1700000000.0

#: Fixed trace context stamped on the scenario's request event, pinning
#: the v2 identity fields in the goldens.
FIXED_TRACE = TraceContext(
    "0123456789abcdef0123456789abcdef", "02468ace13579bdf", "fdb97531eca86420"
)


def fake_clock():
    """Deterministic clock: 0.0, 0.5, 1.0, ... seconds per call."""
    counter = itertools.count()
    return lambda: next(counter) * 0.5


def make_bus(epoch_unix=FAKE_EPOCH_UNIX):
    return TelemetryBus(enabled=True, clock=fake_clock(),
                        wall_clock=lambda: epoch_unix)


def run_scenario(bus):
    """Publish one event of every kind, with representative fields."""
    bus.publish("metric", "tfhe_bootstraps_total", value=1.0,
                metric="counter", labels={"stage": "br"})
    bus.publish("span", "programmable_bootstrap", value=12.5,
                ts_us=0.0, dur_us=12.5, category="tfhe", track="main",
                args={"batch": 2})
    bus.publish("counter", "xpu/stage/rotation", value=256.0, unit="cycles")
    bus.publish("sample", "buffer/shared", value=0.75, t_sim_s=1e-05)
    bus.publish("stage", "blind_rotate", track="machine/stages")
    bus.publish("noise", "programmable_bootstrap", value=-12.3,
                op_id=7, label="s0", predicted_std_log2=-12.3,
                measured=0.00021, sigma=1.4)
    bus.publish("failure_point", "bootstrap_decision", value=0.125,
                op_id=7, variance=1e-06, label="s0")
    bus.publish("batch", "machine/bootstrap_batch", value=48.0, capacity=64)
    bus.publish("snapshot", "sim/report", value=1250000.0,
                bottleneck="bsk_bandwidth", group_size=64)
    bus.publish("workload", "XG-Boost", value=2510.0, layers=3,
                linear_macs=21600)
    bus.publish("anomaly", "latency_spike", budget_s=0.001, actual_s=0.002)
    # The v2 distributed-identity fields, pinned: the request event rides
    # a fixed trace context, the heartbeat a fixed worker id.
    prior_worker = get_worker_id()
    set_worker_id("w0")
    try:
        with use_context(FIXED_TRACE):
            bus.publish("request", "sched/request", value=0.0042, count=64,
                        group=0, config="morphling", params="III")
        bus.publish("heartbeat", "worker/w0", value=0.0,
                    interval_s=0.25, final=False)
    finally:
        set_worker_id(prior_worker)


def build_fleet_shards(shard_dir):
    """Two deterministic worker shards for the fleet-aggregation golden.

    Each worker gets its own bus (fake clock, fixed ``epoch_unix`` one
    second apart so the merge interleaves) and a ShardWriter driven by
    hand - no heartbeat thread, so reruns are byte-identical.
    """
    import repro.observability as obs
    from repro.observability.distrib import ShardWriter

    obs.reset()  # deterministic (empty) counter snapshots in close()
    for i in range(2):
        bus = make_bus(epoch_unix=FAKE_EPOCH_UNIX + float(i))
        writer = ShardWriter(shard_dir, worker_id=f"w{i}", bus=bus,
                             heartbeat_interval_s=0.25)
        writer.heartbeat()
        for k in range(4):
            bus.publish("request", "sched/request",
                        value=0.001 * (k + 1) * (i + 1), count=2)
        bus.publish("batch", "machine/bootstrap_batch", value=8.0, capacity=64)
        bus.publish("counter", "xpu/stage/rotation",
                    value=100.0 * (i + 1), unit="cycles")
        writer.close()


def build_fleet_report(shard_dir):
    """Aggregate the shards of :func:`build_fleet_shards`."""
    from repro.observability.distrib import aggregate_shards, discover_shards

    return aggregate_shards(discover_shards(shard_dir))


def regenerate():
    """Rewrite the golden files (run after an intentional schema bump)."""
    import json
    import shutil
    import tempfile

    from repro.observability.bus import JsonlEventLog
    from repro.observability.flightrec import FlightRecorder

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    bus = make_bus()
    rec = FlightRecorder()
    rec.attach(bus)
    with JsonlEventLog(GOLDEN_JSONL, bus=bus):
        run_scenario(bus)
    bundle = rec.capture("golden", note="deterministic scenario")
    with open(GOLDEN_BUNDLE, "w") as fh:
        json.dump(bundle, fh, indent=1)
        fh.write("\n")

    tmp = tempfile.mkdtemp()
    try:
        build_fleet_shards(tmp)
        report = build_fleet_report(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(GOLDEN_FLEET, "w") as fh:
        json.dump(report.to_jsonable(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
    print(f"regenerated {GOLDEN_JSONL}, {GOLDEN_BUNDLE} and {GOLDEN_FLEET}")
