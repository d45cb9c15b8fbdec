"""Tests for the telemetry bus: pub/sub, JSONL log, schema goldens."""

import io
import json

import pytest

from repro import observability as obs
from repro.observability.bus import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    JsonlEventLog,
    TelemetryBus,
    event_to_jsonable,
    read_jsonl_events,
)

from . import _golden


@pytest.fixture()
def bus():
    return _golden.make_bus()


class TestPublish:
    def test_disabled_returns_none_and_calls_nobody(self):
        bus = TelemetryBus(enabled=False)
        seen = []
        bus.subscribe(seen.append)
        assert bus.publish("metric", "x", value=1.0) is None
        assert seen == []

    def test_event_carries_kind_name_value_fields(self, bus):
        event = bus.publish("batch", "machine/bootstrap_batch",
                            value=48, capacity=64)
        assert event.kind == "batch"
        assert event.name == "machine/bootstrap_batch"
        assert event.value == 48.0 and isinstance(event.value, float)
        assert event.fields == {"capacity": 64}

    def test_seq_is_monotonic_from_zero(self, bus):
        seqs = [bus.publish("stage", f"s{i}").seq for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_injected_clock_gives_deterministic_timestamps(self, bus):
        # epoch consumes tick 0; each publish consumes one tick of 0.5s
        a = bus.publish("stage", "a")
        b = bus.publish("stage", "b")
        assert (a.t_s, b.t_s) == (0.5, 1.0)

    def test_unknown_kind_rejected(self, bus):
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.publish("bogus", "x")

    def test_every_documented_kind_accepted(self, bus):
        for kind in EVENT_KINDS:
            assert bus.publish(kind, "x").kind == kind

    def test_reset_restarts_seq_but_keeps_subscribers(self, bus):
        seen = []
        bus.subscribe(seen.append)
        bus.publish("stage", "before")
        bus.reset()
        event = bus.publish("stage", "after")
        assert event.seq == 0
        assert [e.name for e in seen] == ["before", "after"]


class TestSubscriptions:
    def test_all_subscribers_see_each_event(self, bus):
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        bus.publish("stage", "x")
        assert len(seen_a) == len(seen_b) == 1

    def test_unsubscribe_stops_delivery(self, bus):
        seen = []
        bus.subscribe(seen.append)
        bus.publish("stage", "one")
        bus.unsubscribe(seen.append)
        bus.publish("stage", "two")
        assert [e.name for e in seen] == ["one"]

    def test_duplicate_subscribe_is_idempotent(self, bus):
        seen = []
        bus.subscribe(seen.append)
        bus.subscribe(seen.append)
        assert bus.subscriber_count == 1
        bus.publish("stage", "x")
        assert len(seen) == 1


class TestJsonable:
    def test_stable_top_level_field_order(self, bus):
        event = bus.publish("metric", "m", value=1.0, b=2, a=1)
        record = event_to_jsonable(event)
        assert list(record) == ["v", "seq", "t_s", "kind", "name", "value",
                                "worker", "trace_id", "span_id", "parent_id",
                                "fields"]
        assert record["v"] == EVENT_SCHEMA_VERSION

    def test_fields_keys_sorted(self, bus):
        event = bus.publish("metric", "m", zeta=1, alpha=2, mid=3)
        assert list(event_to_jsonable(event)["fields"]) == [
            "alpha", "mid", "zeta"
        ]


class TestJsonlEventLog:
    def test_header_then_one_line_per_event(self, bus):
        sink = io.StringIO()
        with JsonlEventLog(sink, bus=bus) as log:
            bus.publish("stage", "a")
            bus.publish("stage", "b")
            assert log.lines_written == 2
        lines = sink.getvalue().splitlines()
        assert len(lines) == 3
        header = json.loads(lines[0])
        assert header == {"v": EVENT_SCHEMA_VERSION, "kind": "jsonl_header",
                          "producer": "repro.observability.bus",
                          "worker": "",
                          "epoch_unix": _golden.FAKE_EPOCH_UNIX}
        assert json.loads(lines[1])["name"] == "a"

    def test_close_detaches_from_bus(self, bus):
        sink = io.StringIO()
        log = JsonlEventLog(sink, bus=bus)
        log.close()
        bus.publish("stage", "late")
        assert log.lines_written == 0

    def test_file_round_trip(self, bus, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlEventLog(path, bus=bus):
            _golden.run_scenario(bus)
        events = read_jsonl_events(path)
        assert len(events) == len(EVENT_KINDS)
        assert [e["kind"] for e in events] == list(EVENT_KINDS)
        assert all(e["v"] == EVENT_SCHEMA_VERSION for e in events)


class TestGoldenJsonl:
    def test_jsonl_matches_golden_byte_for_byte(self, tmp_path):
        """The JSONL wire format is a schema: changing field order, names,
        or serialization requires an EVENT_SCHEMA_VERSION bump and
        regenerated goldens (tests/observability/_golden.py)."""
        path = str(tmp_path / "events.jsonl")
        bus = _golden.make_bus()
        with JsonlEventLog(path, bus=bus):
            _golden.run_scenario(bus)
        with open(path) as fh, open(_golden.GOLDEN_JSONL) as golden:
            assert fh.read() == golden.read()


class TestSystemHooks:
    """The four PR1/3/4 systems publish onto the bus with no new call sites."""

    def test_registry_tracer_counters_publish(self):
        seen = []
        with obs.telemetry():
            obs.BUS.subscribe(seen.append)
            try:
                obs.REGISTRY.counter("bus_hook_total").inc(2, stage="br")
                obs.REGISTRY.gauge("bus_hook_depth").set(4.0)
                obs.REGISTRY.quantile("bus_hook_seconds").observe(3.0)
                obs.TRACER.add_span("hooked", ts_us=0.0, dur_us=1.0)
                obs.COUNTERS.add_cycles("xpu/stage/rotation", 10.0)
                obs.COUNTERS.add_bytes("hbm/channel/0", 64.0)
                obs.COUNTERS.add_ops("rotator/vector_reads", 2.0)
                obs.COUNTERS.sample("buffer/shared", 0.0, 1.0)
                obs.COUNTERS.event("machine/stages", "blind_rotate")
            finally:
                obs.BUS.unsubscribe(seen.append)
        kinds = [e.kind for e in seen]
        assert kinds == ["metric", "metric", "metric", "span",
                         "counter", "counter", "counter", "sample", "stage"]
        metric = seen[0]
        assert metric.fields["metric"] == "counter"
        assert metric.fields["labels"] == {"stage": "br"}
        span = seen[3]
        assert span.fields["dur_us"] == 1.0
        cycles = seen[4]
        assert cycles.fields["unit"] == "cycles" and cycles.value == 10.0

    def test_gauge_inc_publishes_new_value_not_delta(self):
        seen = []
        with obs.telemetry():
            obs.BUS.subscribe(seen.append)
            try:
                g = obs.REGISTRY.gauge("bus_hook_level")
                g.inc(2.0)
                g.inc(3.0)
            finally:
                obs.BUS.unsubscribe(seen.append)
        assert [e.value for e in seen] == [2.0, 5.0]

    def test_disabled_registry_never_reaches_bus(self):
        """Telemetry off: the hook sits inside the enabled path."""
        seen = []
        obs.disable()
        obs.BUS.subscribe(seen.append)
        try:
            obs.REGISTRY.counter("bus_hook_off_total").inc()
        finally:
            obs.BUS.unsubscribe(seen.append)
        assert seen == []

    def test_noise_tracker_publishes_noise_and_failure_events(self, ctx):
        seen = []
        with obs.telemetry():
            obs.BUS.subscribe(seen.append)
            try:
                obs.NOISE.register_debug_key(ctx.keyset.lwe_key)
                ct = ctx.encrypt(1)
                ctx.bootstrap(ct)
            finally:
                obs.BUS.unsubscribe(seen.append)
        noise = [e for e in seen if e.kind == "noise"]
        fps = [e for e in seen if e.kind == "failure_point"]
        assert noise, "bootstrap under telemetry published no noise events"
        assert fps, "bootstrap published no failure_point events"
        assert noise[0].fields["sigma"] is not None
        assert fps[0].value is not None  # the decision margin
