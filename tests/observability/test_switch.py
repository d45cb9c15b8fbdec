"""One telemetry switch: every recorder records exactly while ``BUS.enabled``."""

from types import SimpleNamespace

import pytest

from repro import observability as obs


def _record_metric():
    obs.REGISTRY.counter("switch_probe_total").inc()


def _record_span():
    obs.TRACER.add_span("switch_probe", ts_us=0.0, dur_us=1.0)


def _record_counter():
    obs.COUNTERS.add_ops("switch/probe")


def _record_noise():
    obs.NOISE.track(SimpleNamespace(), "lwe_encrypt", 1e-14, 0)


def _record_flight():
    obs.FLIGHT.trigger("manual")


#: recorder -> (one recording call, "did it record?")
RECORDERS = {
    "registry": (_record_metric,
                 lambda: obs.REGISTRY.counter("switch_probe_total").value() is not None),
    "tracer": (_record_span, lambda: len(obs.TRACER) > 0),
    "counters": (_record_counter, lambda: obs.COUNTERS.ops("switch/probe") > 0),
    "noise": (_record_noise, lambda: len(obs.NOISE) > 0),
    "flight": (_record_flight, lambda: len(obs.FLIGHT) > 0),
}


@pytest.mark.parametrize("record, recorded", list(RECORDERS.values()),
                         ids=list(RECORDERS))
def test_switch_governs_every_recorder(record, recorded):
    seen = []
    obs.BUS.subscribe(seen.append)
    try:
        obs.reset()
        assert not obs.is_enabled()
        record()
        assert not recorded()
        assert seen == []

        with obs.telemetry():
            record()
            assert recorded()
            assert seen, "a recording must be published on the bus"
            with obs.telemetry():
                assert obs.is_enabled()
            assert obs.is_enabled(), "an inner block restores the outer state"
        assert not obs.is_enabled()

        published = len(seen)
        record()
        assert len(seen) == published
    finally:
        obs.BUS.unsubscribe(seen.append)
        obs.reset()
