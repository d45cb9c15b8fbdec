"""Unit tests for the perf-counter subsystem (repro.observability.counters)."""

import json

import pytest

from repro import observability as obs
from repro.observability import COUNTERS, PerfCounters, counter_track_events
from repro.core.accelerator import MorphlingConfig
from repro.core.simulator import simulate_bootstrap
from repro.params import get_params


class TestPerfCounters:
    def test_disabled_records_nothing(self):
        bank = PerfCounters()
        bank.add_cycles("xpu", 10.0)
        bank.add_bytes("hbm/channel/0", 64.0)
        bank.add_ops("rotator/streams")
        bank.sample("buffer/shared", 0.0, 1.0)
        bank.event("machine/stages", "blind_rotate")
        assert len(bank) == 0
        assert bank.cycles("xpu") == 0.0

    def test_all_five_kinds_record_when_enabled(self, telemetry_on):
        bank = PerfCounters()
        bank.add_cycles("xpu", 10.0)
        bank.add_cycles("xpu", 5.0)
        bank.add_bytes("hbm/channel/0", 64.0)
        bank.add_ops("rotator/streams", 3.0)
        bank.sample("buffer/shared", 0.0, 1.0)
        bank.sample("buffer/shared", 1.0, 4.0)
        bank.sample("buffer/shared", 2.0, 2.0)
        bank.event("machine/stages", "modulus_switch")
        bank.event("machine/stages", "blind_rotate")
        assert bank.cycles("xpu") == 15.0
        assert bank.bytes_moved("hbm/channel/0") == 64.0
        assert bank.ops("rotator/streams") == 3.0
        assert bank.samples_on("buffer/shared") == [(0.0, 1.0), (1.0, 4.0), (2.0, 2.0)]
        assert bank.watermark("buffer/shared") == 4.0
        assert bank.events_on("machine/stages") == ["modulus_switch", "blind_rotate"]
        assert bank.tracks() == ["buffer/shared"]

    def test_negative_increments_rejected(self, telemetry_on):
        bank = PerfCounters()
        with pytest.raises(ValueError):
            bank.add_cycles("xpu", -1.0)
        with pytest.raises(ValueError):
            bank.add_bytes("hbm/channel/0", -1.0)
        with pytest.raises(ValueError):
            bank.add_ops("rotator/streams", -1.0)

    def test_reset_clears_values_but_not_enabled(self, telemetry_on):
        bank = PerfCounters()
        bank.add_cycles("xpu", 1.0)
        bank.event("machine/stages", "key_switch")
        bank.reset()
        assert len(bank) == 0
        assert obs.is_enabled()

    def test_snapshot_shape_and_sorted_keys(self, telemetry_on):
        bank = PerfCounters()
        bank.add_cycles("b", 1.0)
        bank.add_cycles("a", 2.0)
        bank.sample("track", 0.5, 3.0)
        bank.event("t", "e")
        snap = bank.snapshot()
        assert set(snap) == {"cycles", "bytes", "ops", "samples",
                             "watermarks", "events"}
        assert list(snap["cycles"]) == ["a", "b"]
        assert snap["samples"] == {"track": [[0.5, 3.0]]}
        assert snap["watermarks"] == {"track": 3.0}
        assert snap["events"] == [["t", "e"]]
        json.dumps(snap)  # must already be plain JSON types

    def test_digest_is_stable_and_content_sensitive(self, telemetry_on):
        a, b = PerfCounters(), PerfCounters()
        for bank in (a, b):
            bank.add_cycles("xpu", 7.0)
            bank.sample("buffer/shared", 0.0, 2.0)
        assert a.digest() == b.digest()
        b.add_ops("rotator/streams")
        assert a.digest() != b.digest()


class TestCountingContext:
    def test_observability_toggles_include_counters(self):
        obs.reset()
        obs.enable()
        try:
            COUNTERS.add_cycles("x", 1.0)
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert COUNTERS.cycles("x") == 1.0
        obs.reset()
        COUNTERS.add_cycles("x", 1.0)
        assert COUNTERS.cycles("x") == 0.0


class TestSimulatorCounters:
    def test_simulator_populates_every_counter_kind(self):
        with obs.telemetry():
            report = simulate_bootstrap(MorphlingConfig(), get_params("I"))
            snap = COUNTERS.snapshot()
        assert snap["cycles"]["xpu/stage/rotation"] > 0
        assert snap["cycles"]["vpu/stage/key_switch"] > 0
        cfg = MorphlingConfig()
        for ch in range(cfg.xpu_hbm_channels + cfg.vpu_hbm_channels):
            assert snap["bytes"][f"hbm/channel/{ch}"] > 0
        assert snap["ops"]["noc/hops/private_a1_to_xpu"] > 0
        assert snap["ops"]["rotator/rotations"] > 0
        assert snap["watermarks"]["buffer/shared"] > 0
        # The bottleneck stage paces the pipeline: its occupancy approaches
        # 1.0 (the per-iteration overhead cycles keep it just below).
        paced = max(
            snap["watermarks"][k]
            for k in snap["watermarks"]
            if k.startswith("xpu/occupancy/")
        )
        assert 0.9 < paced <= 1.0
        assert report.group_size >= 1

    def test_two_identical_runs_identical_snapshots(self):
        snaps = []
        for _ in range(2):
            with obs.telemetry():
                simulate_bootstrap(MorphlingConfig(), get_params("III"))
                snaps.append((COUNTERS.snapshot(), COUNTERS.digest()))
        assert snaps[0] == snaps[1]

    def test_xpu_byte_counters_match_traffic_model(self):
        cfg, params = MorphlingConfig(), get_params("I")
        with obs.telemetry():
            report = simulate_bootstrap(cfg, params)
            snap = COUNTERS.snapshot()
        xpu_total = sum(
            snap["bytes"][f"hbm/channel/{ch}"]
            for ch in range(cfg.xpu_hbm_channels)
        )
        expected = report.traffic.xpu_bytes * report.group_size
        assert xpu_total == pytest.approx(expected, rel=1e-9)


class TestCounterTrackEvents:
    def test_sample_and_event_shapes(self, telemetry_on):
        bank = PerfCounters()
        bank.sample("buffer/shared", 1e-6, 42.0)
        bank.event("machine/stages", "blind_rotate")
        events = counter_track_events(bank)
        kinds = {e["ph"] for e in events}
        assert kinds == {"C", "i"}
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["name"] == "buffer/shared"
        assert counter["ts"] == pytest.approx(1.0)  # seconds -> microseconds
        assert counter["args"]["value"] == 42.0
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["name"] == "blind_rotate"

    def test_accepts_snapshot_dict(self, telemetry_on):
        bank = PerfCounters()
        bank.sample("t", 0.0, 1.0)
        assert counter_track_events(bank.snapshot()) == counter_track_events(bank)
