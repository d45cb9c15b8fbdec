"""Tests for the SLO engine: sketch properties, burn rates, report golden.

The quantile sketch is held to its DDSketch contract with hypothesis
(relative-error bound on adversarial streams, exact shard-merge
agreement, merge associativity/commutativity); the monitor is driven on
a deterministic fake-clock bus; the ``repro slo --json`` report shape is
golden-pinned (regenerate with ``python -m tests.observability.test_slo``
after an intentional ``SLO_REPORT_SCHEMA_VERSION`` bump).
"""

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.registry import MetricsRegistry
from repro.observability.sketch import DEFAULT_QUANTILES, QuantileSketch
from repro.observability.slo import (
    SLO_REPORT_SCHEMA_VERSION,
    FailureBudgetObjective,
    LatencyObjective,
    SLOMonitor,
    SLORegistry,
    ThroughputObjective,
    price_slos,
)

from . import _golden

GOLDEN_SLO = os.path.join(_golden.GOLDEN_DIR, "slo_report.json")

# Latency-like values spanning nanoseconds to hours; the log-bucketed
# sketch must hold its bound over the whole dynamic range at once.
latencies = st.floats(min_value=1e-9, max_value=1e4,
                      allow_nan=False, allow_infinity=False)
streams = st.lists(latencies, min_size=1, max_size=200)


def _true_quantile(values, q):
    """The rank convention the sketch documents: lower interpolation."""
    ordered = sorted(values)
    return ordered[int(math.floor(q * (len(ordered) - 1)))]


# ---------------------------------------------------------------------------
# Sketch properties
# ---------------------------------------------------------------------------
class TestSketchProperties:
    @settings(max_examples=200, deadline=None)
    @given(values=streams, q=st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99, 1.0]))
    def test_relative_error_bound(self, values, q):
        sketch = QuantileSketch(relative_accuracy=0.01)
        for v in values:
            sketch.add(v)
        truth = _true_quantile(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - truth) <= sketch.alpha * truth * (1 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(a=streams, b=streams)
    def test_merge_is_commutative_and_exact(self, a, b):
        sa, sb = QuantileSketch(), QuantileSketch()
        for v in a:
            sa.add(v)
        for v in b:
            sb.add(v)
        ab = sa.copy().merge(sb)
        ba = sb.copy().merge(sa)
        assert ab.state() == ba.state()
        assert ab.count == ba.count == len(a) + len(b)
        # A merged sketch is bucket-identical to a single-stream one.
        combined = QuantileSketch()
        for v in a + b:
            combined.add(v)
        assert ab.state() == combined.state()

    @settings(max_examples=100, deadline=None)
    @given(a=streams, b=streams, c=streams)
    def test_merge_is_associative(self, a, b, c):
        def sketch_of(values):
            s = QuantileSketch()
            for v in values:
                s.add(v)
            return s

        sa, sb, sc = sketch_of(a), sketch_of(b), sketch_of(c)
        left = sa.copy().merge(sb).merge(sc)
        right = sa.copy().merge(sb.copy().merge(sc))
        assert left.state() == right.state()

    @settings(max_examples=100, deadline=None)
    @given(values=streams, data=st.data())
    def test_sharded_ingest_agrees_with_single_stream(self, values, data):
        """However a stream is split across shards, merging the shard
        sketches reproduces the single-stream sketch exactly."""
        shards = [QuantileSketch() for _ in range(3)]
        for v in values:
            shards[data.draw(st.integers(0, 2))].add(v)
        merged = shards[0].copy().merge(shards[1]).merge(shards[2])
        single = QuantileSketch()
        for v in values:
            single.add(v)
        assert merged.state() == single.state()
        assert merged.min == single.min and merged.max == single.max

    @settings(max_examples=50, deadline=None)
    @given(value=latencies, count=st.integers(1, 1000))
    def test_weighted_add_equals_repeated_adds(self, value, count):
        weighted, repeated = QuantileSketch(), QuantileSketch()
        weighted.add(value, count)
        for _ in range(count):
            repeated.add(value)
        assert weighted.state() == repeated.state()


class TestSketchEdges:
    def test_empty_sketch_has_no_quantiles(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) is None
        assert sketch.mean is None
        assert len(sketch) == 0

    def test_subnormal_values_collapse_into_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.add(0.0, 5)
        sketch.add(1e-15)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.bucket_count == 1

    def test_rejects_bad_values_and_counts(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))
        with pytest.raises(ValueError):
            sketch.add(float("inf"))
        with pytest.raises(ValueError):
            sketch.add(1.0, count=0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_rejects_mismatched_merges(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))
        with pytest.raises(TypeError):
            QuantileSketch().merge({"not": "a sketch"})

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)


# ---------------------------------------------------------------------------
# Quantile metric kind
# ---------------------------------------------------------------------------
class TestQuantileMetric:
    def test_observe_snapshot_and_merged(self):
        reg = MetricsRegistry(enabled=True)
        q = reg.quantile("req_latency_seconds", "per-request latency")
        q.observe(0.010, count=3, shard="a")
        q.observe(0.020, shard="b")
        snap = reg.snapshot()["req_latency_seconds"]
        assert snap["type"] == "quantile"
        by_shard = {v["labels"]["shard"]: v for v in snap["values"]}
        assert by_shard["a"]["count"] == 3
        assert by_shard["b"]["max"] == 0.020
        merged = q.merged()
        assert merged.count == 4
        assert q.sketch(shard="a").count == 3

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        q = reg.quantile("off_seconds")
        q.observe(1.0)
        assert q.merged() is None

    def test_prometheus_renders_quantile_as_summary(self):
        from repro.observability.export import render_prometheus

        reg = MetricsRegistry(enabled=True)
        reg.quantile("lat_seconds", "latency").observe(0.5, count=10)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.5"}' in text
        assert "lat_seconds_count 10" in text


# ---------------------------------------------------------------------------
# Objectives + registry + pricing
# ---------------------------------------------------------------------------
class TestSLORegistry:
    def test_ordered_and_typed(self):
        slos = SLORegistry()
        slos.latency("p99", 0.99, 0.02)
        slos.throughput("floor", 100.0)
        slos.failure_budget("fail", -20.0)
        kinds = [o.kind for o in slos]
        assert kinds == ["latency", "throughput", "failure"]
        assert len(slos) == 3
        assert slos.get("p99").budget_fraction == pytest.approx(0.01)
        assert [o.name for o in slos.latency_objectives] == ["p99"]

    def test_duplicate_name_rejected(self):
        slos = SLORegistry()
        slos.latency("p99", 0.99, 0.02)
        with pytest.raises(ValueError, match="already registered"):
            slos.throughput("p99", 100.0)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            LatencyObjective("bad", quantile=1.0, threshold_s=0.1)
        with pytest.raises(ValueError):
            LatencyObjective("bad", quantile=0.5, threshold_s=0.0)
        with pytest.raises(ValueError):
            ThroughputObjective("bad", floor_per_s=0.0)
        assert FailureBudgetObjective("f").log2_budget == -20.0


class TestPricing:
    def test_priced_contract_shape(self):
        from repro.core.accelerator import MorphlingConfig
        from repro.params import get_params

        slos = price_slos(MorphlingConfig.morphling(), get_params("III"),
                          total_bootstraps=10_000, slack=2.0)
        names = [o.name for o in slos]
        assert names == ["request_p50", "request_p95", "request_p99",
                         "throughput_floor", "decrypt_failure"]
        p50, p95, p99 = slos.latency_objectives
        # Completion-time thresholds grow with the quantile.
        assert p50.threshold_s < p95.threshold_s < p99.threshold_s
        floor = slos.get("throughput_floor")
        # Doubling the slack halves the floor and doubles the thresholds.
        loose = price_slos(MorphlingConfig.morphling(), get_params("III"),
                           total_bootstraps=10_000, slack=4.0)
        assert loose.get("throughput_floor").floor_per_s == pytest.approx(
            floor.floor_per_s / 2.0)
        assert loose.get("request_p99").threshold_s == pytest.approx(
            2.0 * p99.threshold_s)

    def test_slack_below_one_rejected(self):
        from repro.core.accelerator import MorphlingConfig
        from repro.params import get_params

        with pytest.raises(ValueError, match="slack"):
            price_slos(MorphlingConfig.morphling(), get_params("III"), slack=0.5)


# ---------------------------------------------------------------------------
# Monitor: folding, burn rates, cooldown, evaluation
# ---------------------------------------------------------------------------
def _monitor(slos, **kw):
    bus = _golden.make_bus()  # deterministic 0.5 s per clock tick
    kw.setdefault("windows", ((1.0, 2.0, 2.0),))
    kw.setdefault("cooldown_s", 100.0)
    return SLOMonitor(slos, bus=bus, **kw), bus


class _Failure:
    def __init__(self, total_log2_prob):
        self.total_log2_prob = total_log2_prob


class TestMonitor:
    def test_folds_only_request_events(self):
        slos = SLORegistry()
        slos.latency("p50", 0.5, 1.0)
        monitor, bus = _monitor(slos)
        with monitor:
            bus.publish("request", "sched/request", value=0.004, count=64)
            bus.publish("metric", "noise", value=9.0)  # ignored
            bus.publish("request", "sched/request", value=0.008, count=36)
        assert monitor.requests == 100
        assert monitor.sketch.max == 0.008

    def test_detach_stops_folding(self):
        slos = SLORegistry()
        slos.latency("p50", 0.5, 1.0)
        monitor, bus = _monitor(slos)
        monitor.attach()
        monitor.detach()
        bus.publish("request", "r", value=0.1)
        assert monitor.requests == 0

    def test_burn_alert_needs_both_windows_over_factor(self):
        slos = SLORegistry()
        slos.latency("p50", 0.5, 0.010)  # budget 0.5, factor 2 => all-bad
        monitor, bus = _monitor(slos)
        with monitor:
            for _ in range(6):  # t = 0.5 .. 3.0, every sample bad
                bus.publish("request", "r", value=0.050, count=8)
        assert len(monitor.breaches) == 1  # cooldown swallows repeats
        alert = monitor.breaches[0]
        assert alert["objective"] == "p50"
        assert alert["burn_short"] == pytest.approx(2.0)
        assert alert["burn_long"] == pytest.approx(2.0)

    def test_good_traffic_never_alerts(self):
        slos = SLORegistry()
        slos.latency("p99", 0.99, 0.010)
        monitor, bus = _monitor(slos)
        with monitor:
            for _ in range(50):
                bus.publish("request", "r", value=0.002, count=8)
        assert monitor.breaches == []
        report = monitor.evaluate()
        assert report.ok

    def test_cooldown_zero_refires(self):
        slos = SLORegistry()
        slos.latency("p50", 0.5, 0.010)
        monitor, bus = _monitor(slos, cooldown_s=0.0)
        with monitor:
            for _ in range(6):
                bus.publish("request", "r", value=0.050, count=8)
        assert len(monitor.breaches) > 1

    def test_evaluate_breached_latency_objective(self):
        slos = SLORegistry()
        slos.latency("p50", 0.5, 0.010)
        monitor, bus = _monitor(slos)
        with monitor:
            for _ in range(6):
                bus.publish("request", "r", value=0.050, count=8)
        report = monitor.evaluate()
        status = report.objectives[0]
        assert not status.ok and not report.ok
        assert status.budget_remaining < 0.0  # budget overspent
        assert report.breaches  # burn alerts ride along in the report

    def test_throughput_derived_from_completion_times(self):
        slos = SLORegistry()
        slos.throughput("floor", 100.0)
        monitor, bus = _monitor(slos)
        with monitor:
            # Completion times since start: max sample is the makespan.
            bus.publish("request", "r", value=0.5, count=400)
            bus.publish("request", "r", value=1.0, count=400)
        report = monitor.evaluate()
        assert report.makespan_s == pytest.approx(1.0)
        status = report.objectives[0]
        assert status.observed == pytest.approx(800.0)
        assert status.ok
        # An explicit override wins over the derived value.
        assert monitor.evaluate(throughput_per_s=50.0).objectives[0].ok is False

    def test_failure_budget_evaluation(self):
        slos = SLORegistry()
        slos.failure_budget("fail", -20.0)
        monitor, _ = _monitor(slos)
        unevaluated = monitor.evaluate().objectives[0]
        assert unevaluated.ok and unevaluated.observed is None
        good = monitor.evaluate(failure=_Failure(-30.0)).objectives[0]
        assert good.ok
        assert good.budget_remaining == pytest.approx(1.0 - 2.0 ** -10)
        bad = monitor.evaluate(failure=_Failure(-10.0)).objectives[0]
        assert not bad.ok and bad.budget_remaining < 0.0


# ---------------------------------------------------------------------------
# Report shape: schema golden
# ---------------------------------------------------------------------------
def build_golden_report():
    """Deterministic contract evaluation behind the schema golden."""
    slos = SLORegistry()
    slos.latency("request_p50", 0.5, 0.010)
    slos.latency("request_p99", 0.99, 0.020)
    slos.throughput("throughput_floor", 1000.0)
    slos.failure_budget("decrypt_failure", -20.0)
    monitor, bus = _monitor(slos, windows=((1.0, 2.0, 4.0),))
    with monitor:
        for latency, count in ((0.004, 64), (0.008, 64), (0.012, 32),
                               (0.025, 1)):
            bus.publish("request", "sched/request", value=latency, count=count)
    return monitor.evaluate(failure=_Failure(-30.0))


class TestReportGolden:
    def test_report_matches_golden_byte_for_byte(self):
        """Any diff here is a schema change: bump
        SLO_REPORT_SCHEMA_VERSION and regenerate (this file's __main__)."""
        report = build_golden_report()
        assert report.schema_version == SLO_REPORT_SCHEMA_VERSION
        rendered = json.dumps(report.to_jsonable(), indent=1) + "\n"
        with open(GOLDEN_SLO) as fh:
            assert rendered == fh.read()

    def test_report_render_text_names_every_objective(self):
        report = build_golden_report()
        text = report.render_text()
        for name in ("request_p50", "request_p99", "throughput_floor",
                     "decrypt_failure"):
            assert name in text
        assert "all objectives met" in text

    def test_default_quantiles_quoted_in_latency_block(self):
        report = build_golden_report()
        assert sorted(report.latency) == sorted(
            f"p{q * 100:g}" for q in DEFAULT_QUANTILES)


def regenerate():
    report = build_golden_report()
    with open(GOLDEN_SLO, "w") as fh:
        json.dump(report.to_jsonable(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
    print(f"regenerated {GOLDEN_SLO}")
