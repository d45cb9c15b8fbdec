"""Tests for the metrics registry: counters, gauges, labels."""

import threading

import pytest

from repro import observability as obs
from repro.observability.registry import MetricsRegistry


@pytest.fixture()
def reg(telemetry_on):
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("events_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_make_separate_series(self, reg):
        c = reg.counter("ops_total")
        c.inc(direction="forward")
        c.inc(3, direction="inverse")
        assert c.value(direction="forward") == 1
        assert c.value(direction="inverse") == 3
        assert c.value(direction="sideways") is None

    def test_negative_increment_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("mono_total").inc(-1)

    def test_disabled_is_noop(self):
        reg = MetricsRegistry()
        c = reg.counter("off_total")
        c.inc(100)
        assert c.value() is None

    def test_reenabling_resumes(self):
        reg = MetricsRegistry()
        c = reg.counter("toggle_total")
        c.inc()
        with obs.telemetry():
            c.inc()
        assert c.value() == 1


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_labelled(self, reg):
        g = reg.gauge("occupancy")
        g.set(0.5, stage="fft")
        assert g.value(stage="fft") == 0.5


class TestRegistry:
    def test_registration_is_idempotent(self, reg):
        a = reg.counter("same_total")
        b = reg.counter("same_total")
        assert a is b

    def test_type_conflict_rejected(self, reg):
        reg.counter("name_clash")
        with pytest.raises(ValueError):
            reg.gauge("name_clash")

    def test_snapshot_shape(self, reg):
        reg.counter("a_total", "first").inc(2, kind="x")
        reg.gauge("b").set(7)
        snap = reg.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["help"] == "first"
        assert snap["a_total"]["values"] == [
            {"labels": {"kind": "x"}, "value": 2.0}
        ]
        assert snap["b"]["values"] == [{"labels": {}, "value": 7.0}]

    def test_reset_zeroes_but_keeps_registrations(self, reg):
        c = reg.counter("kept_total")
        c.inc(9)
        reg.reset()
        assert c.value() is None
        assert "kept_total" in reg.names()

    def test_concurrent_increments_are_not_lost(self, reg):
        c = reg.counter("race_total")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000
