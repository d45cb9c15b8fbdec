"""Tests for the flight recorder: ring, triggers, bundles, goldens."""

import json

import pytest

from repro import observability as obs
from repro.observability.flightrec import (
    BUNDLE_SCHEMA_VERSION,
    FlightRecorder,
    flight_recording,
    load_bundle,
    report_anomaly,
)

from . import _golden


@pytest.fixture()
def rig():
    """A deterministic (bus, recorder) pair, the bus enabled."""
    bus = _golden.make_bus()
    rec = FlightRecorder(cooldown_s=0.0)
    rec.attach(bus)
    return bus, rec


class TestRing:
    def test_events_accumulate(self, rig):
        bus, rec = rig
        for i in range(5):
            bus.publish("stage", f"s{i}")
        assert len(rec) == 5

    def test_capacity_bounds_the_ring(self):
        bus = _golden.make_bus()
        rec = FlightRecorder(capacity=3)
        rec.attach(bus)
        for i in range(10):
            bus.publish("stage", f"s{i}")
        assert len(rec) == 3
        bundle = rec.capture()
        assert [e["name"] for e in bundle["events"]] == ["s7", "s8", "s9"]

    def test_disabled_recorder_buffers_nothing(self):
        bus = _golden.make_bus()
        rec = FlightRecorder()
        rec.attach(bus)
        bus.disable()
        bus.publish("stage", "s")
        assert len(rec) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestTriggers:
    def test_trigger_returns_bundle_with_own_anomaly_inside(self, rig):
        bus, rec = rig
        bus.publish("stage", "work")
        bundle = rec.trigger("latency_spike", budget_s=0.1, actual_s=0.2)
        kinds = [e["kind"] for e in bundle["events"]]
        assert "anomaly" in kinds, "bundle must contain its own trigger"
        anomaly = [e for e in bundle["events"] if e["kind"] == "anomaly"][0]
        assert anomaly["name"] == "latency_spike"
        assert anomaly["fields"]["budget_s"] == 0.1
        assert bundle["trigger"]["reason"] == "latency_spike"
        assert rec.last_bundle is bundle

    def test_noise_drift_breach_triggers_automatically(self, rig):
        bus, rec = rig
        rec.drift_sigmas = 6.0
        bus.publish("noise", "bootstrap", value=-12.0, sigma=2.0)  # inside
        assert rec.last_bundle is None
        bus.publish("noise", "bootstrap", value=-12.0, sigma=7.5)  # breach
        bundle = rec.last_bundle
        assert bundle is not None
        assert bundle["trigger"]["reason"] == "noise_drift"
        assert bundle["trigger"]["fields"]["sigma"] == 7.5
        # the breaching noise event itself is in the window
        seqs = [e["seq"] for e in bundle["events"]]
        assert bundle["trigger"]["fields"]["event_seq"] in seqs

    def test_disabled_trigger_returns_none(self):
        rec = FlightRecorder()
        assert rec.trigger("manual") is None

    def test_cooldown_coalesces_consecutive_triggers(self):
        bus = _golden.make_bus()
        # fake clock ticks 0.5s per call; a 100s cooldown swallows all
        rec = FlightRecorder(cooldown_s=100.0)
        rec.attach(bus)
        assert rec.trigger("noise_drift") is not None
        assert rec.trigger("noise_drift") is None
        assert rec.trigger("latency_spike") is None
        assert rec.triggers_fired == 3
        assert rec.triggers_coalesced == 2

    def test_window_excludes_old_events(self):
        bus = _golden.make_bus()  # 0.5s per clock tick
        rec = FlightRecorder(window_s=2.0, cooldown_s=0.0)
        rec.attach(bus)
        old = bus.publish("stage", "old")
        for _ in range(10):
            bus.publish("stage", "recent")  # each tick advances 0.5s
        bundle = rec.capture()
        names = [e["name"] for e in bundle["events"]]
        assert "old" not in names and "recent" in names
        assert all(e["seq"] != old.seq for e in bundle["events"])

    def test_dump_dir_writes_bundle_file(self, tmp_path):
        bus = _golden.make_bus()
        rec = FlightRecorder(cooldown_s=0.0, dump_dir=str(tmp_path))
        rec.attach(bus)
        bus.publish("stage", "work")
        rec.trigger("noise_drift", sigma=9.0)
        assert rec.dumps_written == 1
        loaded = load_bundle(rec.last_dump_path)
        assert loaded["trigger"]["reason"] == "noise_drift"
        assert "noise_drift" in rec.last_dump_path


class TestBundleShape:
    def test_schema_and_counts(self, rig):
        bus, rec = rig
        _golden.run_scenario(bus)
        bundle = rec.capture("manual")
        assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION
        assert bundle["kind"] == "flight_bundle"
        assert sum(bundle["counts"].values()) == len(bundle["events"])
        assert list(bundle["counts"]) == sorted(bundle["counts"])

    def test_capture_works_while_disabled(self, rig):
        bus, rec = rig
        bus.publish("stage", "work")
        bus.disable()
        bundle = rec.capture("test_failure", test="nodeid::x")
        assert bundle["trigger"]["fields"]["test"] == "nodeid::x"
        assert len(bundle["events"]) == 1

    def test_dump_round_trips_through_load_bundle(self, rig, tmp_path):
        bus, rec = rig
        _golden.run_scenario(bus)
        path = str(tmp_path / "bundle.json")
        written = rec.dump(path)
        assert load_bundle(path) == written

    def test_load_bundle_rejects_wrong_kind(self, tmp_path):
        path = str(tmp_path / "not_a_bundle.json")
        with open(path, "w") as fh:
            json.dump({"kind": "something_else"}, fh)
        with pytest.raises(ValueError, match="not a flight-recorder bundle"):
            load_bundle(path)

    def test_load_bundle_rejects_wrong_schema_version(self, tmp_path):
        path = str(tmp_path / "future.json")
        with open(path, "w") as fh:
            json.dump({"kind": "flight_bundle",
                       "schema_version": BUNDLE_SCHEMA_VERSION + 1}, fh)
        with pytest.raises(ValueError, match="bundle schema"):
            load_bundle(path)

    def test_bundle_matches_golden_byte_for_byte(self, tmp_path):
        """The bundle layout is a schema: changes require a
        BUNDLE_SCHEMA_VERSION bump and regenerated goldens."""
        bus = _golden.make_bus()
        rec = FlightRecorder()
        rec.attach(bus)
        _golden.run_scenario(bus)
        bundle = rec.capture("golden", note="deterministic scenario")
        rendered = json.dumps(bundle, indent=1) + "\n"
        with open(_golden.GOLDEN_BUNDLE) as fh:
            assert rendered == fh.read()


class TestReportAnomaly:
    def test_routes_to_recorder_when_enabled(self):
        with flight_recording() as rec:
            obs.BUS.publish("stage", "work")
            bundle = report_anomaly("failure_budget", total_log2_prob=-3.0)
            assert bundle is not None
            assert rec.last_bundle["trigger"]["reason"] == "failure_budget"

    def test_noop_when_everything_disabled(self):
        obs.disable()
        assert report_anomaly("exception", error="boom") is None


class TestFlightRecordingContext:
    def test_enables_and_restores(self):
        obs.disable()
        with flight_recording(window_s=5.0) as rec:
            assert obs.is_enabled()
            assert rec is obs.FLIGHT and rec.window_s == 5.0
        assert not obs.is_enabled()
        assert obs.FLIGHT.window_s == 30.0

    def test_dump_dir_set_and_restored(self, tmp_path):
        with flight_recording(dump_dir=str(tmp_path)):
            assert obs.FLIGHT.dump_dir == str(tmp_path)
        assert obs.FLIGHT.dump_dir is None

    def test_clear_resets_prior_ring(self):
        with flight_recording():
            obs.BUS.publish("stage", "first-run")
        with flight_recording() as rec:
            assert len(rec) == 0


class TestExceptionAnomalies:
    def test_run_workload_reports_exception(self):
        from repro.core.accelerator import MorphlingConfig
        from repro.core.scheduler import run_workload
        from repro.params import get_params

        with flight_recording() as rec:
            with pytest.raises(AttributeError):
                run_workload(MorphlingConfig(), get_params("I"),
                             ["not a layer"])
            assert rec.last_bundle is not None
            trigger = rec.last_bundle["trigger"]
            assert trigger["reason"] == "exception"
            assert trigger["fields"]["where"] == "run_workload"

    def test_latency_budget_breach_reports_spike(self):
        from repro.core.accelerator import MorphlingConfig
        from repro.core.scheduler import LayerDemand, run_workload
        from repro.params import get_params

        with flight_recording() as rec:
            run_workload(MorphlingConfig(), get_params("I"),
                         [LayerDemand("l0", bootstraps=64)],
                         latency_budget_s=1e-12)
            assert rec.last_bundle["trigger"]["reason"] == "latency_spike"
            fields = rec.last_bundle["trigger"]["fields"]
            assert fields["actual_s"] > fields["budget_s"]

    def test_bootstrap_batch_exception_reported(self, ctx):
        import numpy as np

        from repro.tfhe.bootstrap import programmable_bootstrap_batch

        with flight_recording() as rec:
            cts = [ctx.encrypt(1)]
            bad_tp = np.zeros(3, dtype=np.uint32)  # wrong LUT length
            with pytest.raises(Exception):
                programmable_bootstrap_batch(cts, bad_tp, ctx.keyset)
            assert rec.last_bundle is not None
            assert (rec.last_bundle["trigger"]["fields"]["where"]
                    == "programmable_bootstrap_batch")


class TestInducedDriftBreach:
    """The PR's acceptance scenario: a drift breach during a measured
    workload run dumps a bundle whose window contains the breaching
    event, and the bundle renders as one merged Chrome timeline."""

    def test_breach_during_gate_workload_dumps_and_replays(self, ctx, tmp_path):
        from repro.cli import main

        with flight_recording(dump_dir=str(tmp_path)) as rec:
            # Tighten the envelope so real measured noise (sigma ~ 1)
            # counts as drift - an induced breach with real ciphertexts.
            rec.drift_sigmas = 1e-6
            obs.NOISE.register_debug_key(ctx.keyset.lwe_key)
            try:
                ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
            finally:
                obs.NOISE.clear_debug_key()
                rec.drift_sigmas = 6.0
            bundle = rec.last_bundle
        assert bundle is not None
        assert bundle["trigger"]["reason"] == "noise_drift"
        assert rec.dumps_written >= 1
        dump_path = rec.last_dump_path
        # the triggering noise event is inside its own window
        trigger_seq = bundle["trigger"]["fields"]["event_seq"]
        assert any(e["seq"] == trigger_seq and e["kind"] == "noise"
                   for e in bundle["events"])
        # and `repro replay --chrome` renders it as one merged timeline
        out = str(tmp_path / "merged_timeline.json")
        assert main(["replay", dump_path, "--chrome", out]) == 0
        doc = json.loads(open(out).read())
        events = doc["traceEvents"]
        sections = {e["args"]["name"] for e in events
                    if e.get("name") == "process_name"}
        assert "noise" in sections
        assert {"X", "C"} <= {e["ph"] for e in events}
