"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.param_set == "I"
        assert args.xpus == 4

    def test_unknown_set_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--set", "Z"])


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "147," in out  # the Table V set I number

    def test_simulate_reuse_override(self, capsys):
        assert main(["simulate", "--set", "B", "--reuse", "none",
                     "--no-merge-split"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "74.6" in out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "fig8b" in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--id", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "46,752" in out or "46752" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--id", "fig99"]) == 2

    def test_workload(self, capsys):
        assert main(["workload", "xgboost"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_demo(self, capsys):
        assert main(["demo", "--message", "1"]) == 0
        out = capsys.readouterr().out
        assert "decrypted 1" in out

    def test_demo_bad_message(self, capsys):
        assert main(["demo", "--message", "7"]) == 2


class TestTraceCommand:
    def test_trace_renders(self, capsys):
        assert main(["trace", "--set", "II", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "rotation" in out
        assert "steady state" in out

    def test_trace_reuse_override(self, capsys):
        assert main(["trace", "--reuse", "none", "--no-merge-split"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_trace_chrome_export(self, capsys, tmp_path):
        path = tmp_path / "pipeline.json"
        assert main(["trace", "--iterations", "4", "--chrome", str(path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4 * 5  # iterations x pipeline stages
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e)
                   for e in complete)


class TestJsonReports:
    def test_simulate_json_uses_shared_serializer(self, capsys):
        assert main(["simulate", "--set", "I", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["group_size"] == 64
        assert report["bottleneck"] == "xpu_compute"
        assert report["traffic"]["bsk_bytes"] > 0

    def test_metrics_json_snapshot(self, capsys):
        assert main(["metrics", "--set", "I", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["metrics"]
        values = {
            name: {tuple(sorted(v["labels"].items())): v["value"]
                   for v in metric["values"]}
            for name, metric in metrics.items()
            if metric["type"] == "counter"
        }
        assert values["sim_bootstraps_total"][()] == 64
        assert values["hbm_bytes_total"][(("channel", "xpu"),)] > 0
        assert values["sim_transforms_total"][(("direction", "forward"),)] > 0


class TestProfileCommand:
    def test_text_report(self, capsys):
        assert main(["profile", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "xpu_compute" in out
        assert "what-if" in out
        assert "counters digest" in out

    def test_named_config_variants(self, capsys):
        assert main(["profile", "--config", "no-reuse", "--set", "III",
                     "--no-what-if"]) == 0
        out = capsys.readouterr().out
        assert "no-reuse @ set III" in out
        assert "what-if" not in out

    def test_json_schema_versioned(self, capsys):
        assert main(["profile", "--set", "I", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["bottleneck"] == "xpu_compute"
        assert doc["utilization"]["xpu_compute"] == pytest.approx(1.0)
        assert len(doc["counters_digest"]) == 64
        names = {wi["name"] for wi in doc["what_ifs"]}
        assert "xpu_hbm_2x" in names
        for wi in doc["what_ifs"]:
            assert wi["speedup"] == pytest.approx(
                wi["throughput_bs"] / wi["baseline_throughput_bs"]
            )

    def test_chrome_counter_tracks(self, capsys, tmp_path):
        path = tmp_path / "counters.json"
        assert main(["profile", "--set", "I", "--no-what-if",
                     "--chrome", str(path)]) == 0
        assert "wrote counter tracks" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert "buffer/shared" in tracks
        assert any(t.startswith("xpu/occupancy/") for t in tracks)

    def test_counters_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["profile", "--set", "I", "--no-what-if"]) == 0
        assert not obs.is_enabled()


class TestMetricsCommand:
    def test_prometheus_text_default(self, capsys):
        assert main(["metrics", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sim_bootstraps_total counter" in out
        assert "sim_bootstraps_total 64" in out
        assert 'hbm_bytes_total{channel="xpu"}' in out

    def test_functional_fires_tfhe_counters(self, capsys):
        assert main(["metrics", "--set", "I", "--functional"]) == 0
        out = capsys.readouterr().out
        assert "tfhe_bootstraps_total 1" in out
        assert 'transforms_fft_total{direction="forward"}' in out

    def test_chrome_span_export(self, capsys, tmp_path):
        path = tmp_path / "spans.json"
        assert main(["metrics", "--chrome", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "xpu_compute" in names

    def test_telemetry_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["metrics", "--set", "I"]) == 0
        assert not obs.is_enabled()


class TestNoiseCommand:
    def test_gates_workload_predicted_only(self, capsys):
        assert main(["noise", "--workload", "gates"]) == 0
        out = capsys.readouterr().out
        assert "noise telemetry" in out
        assert "programmable_bootstrap" in out
        assert "unmeasured" in out  # no debug key without --measure
        assert "within 2^-20 budget: yes" in out

    def test_adder_workload_measured(self, capsys):
        assert main(["noise", "--workload", "adder", "--measure"]) == 0
        out = capsys.readouterr().out
        assert "'carry': 1" in out  # 3 + 1 = 4 -> carry set
        assert "ok" in out and "DRIFT" not in out
        assert "log2(p_fail)" in out

    def test_fail_prob_only_skips_the_drift_table(self, capsys):
        assert main(["noise", "--workload", "gates", "--fail-prob"]) == 0
        out = capsys.readouterr().out
        assert "op class" not in out
        assert "decision points" in out

    def test_json_snapshot(self, capsys):
        assert main(["noise", "--workload", "gates", "--measure",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["functional_ok"] is True
        assert doc["noise"]["measured"] is True
        assert doc["noise"]["records"]
        assert all(d["within_envelope"] for d in doc["drift"])
        assert doc["failure"]["total_log2_prob"] <= -20.0

    def test_chrome_waterfall_export(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        assert main(["noise", "--workload", "gates", "--chrome",
                     str(path)]) == 0
        assert "noise waterfall" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert any(e.get("cat") == "noise" and e["ph"] == "X" for e in events)
        assert any(e["ph"] in ("s", "f") for e in events)  # provenance flows

    def test_tracker_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["noise", "--workload", "gates"]) == 0
        assert not obs.is_enabled()
        assert not obs.NOISE.measuring


class TestWorkloadNoise:
    def test_noise_appends_failure_report(self, capsys):
        assert main(["workload", "xgboost", "--noise"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "log2(p_fail)" in out
        assert "within 2^-20 budget: yes" in out

    def test_json_with_noise_carries_failure_block(self, capsys):
        assert main(["workload", "xgboost", "--noise", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "XG-Boost"
        assert doc["failure"]["within_budget"] is True
        assert doc["failure"]["bootstraps"] == doc["bootstraps"]
        assert doc["failure"]["total_log2_prob"] <= -20.0

    def test_json_without_noise_unchanged(self, capsys):
        assert main(["workload", "xgboost", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "failure" not in doc
        assert doc["speedup"] > 1


class TestProfileNoise:
    def test_noise_appends_failure_report(self, capsys):
        assert main(["profile", "--set", "I", "--no-what-if",
                     "--noise"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "log2(p_fail)" in out

    def test_json_shape_with_noise(self, capsys):
        assert main(["profile", "--set", "I", "--no-what-if", "--noise",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"profile", "failure"}
        assert doc["profile"]["schema_version"] >= 1
        assert doc["failure"]["params"] == "I"

    def test_json_shape_without_noise_unchanged(self, capsys):
        assert main(["profile", "--set", "I", "--no-what-if", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "profile" not in doc  # profile fields stay at top level
        assert "schema_version" in doc


class TestTraceMerge:
    def test_merged_chrome_trace_has_process_groups(self, capsys, tmp_path):
        path = tmp_path / "merged.json"
        assert main(["trace", "--iterations", "3", "--chrome", str(path),
                     "--merge"]) == 0
        assert "merged Chrome trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["otherData"]["merged"] is True
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert names == {"counters", "pipeline"}
        pids = {e["pid"] for e in events}
        assert len(pids) == 2  # one process group per section


class TestTopCommand:
    def test_json_snapshot(self, capsys):
        assert main(["top", "--workload", "xgboost", "--iterations", "2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "XG-Boost"
        assert doc["bootstraps"] > 0
        assert doc["batch_occupancy"] is not None
        assert doc["stage_cycle_fractions"]
        assert doc["drift_ok"] is True

    def test_panel_redraws_per_iteration(self, capsys):
        assert main(["top", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
        assert "batch occupancy" in out

    def test_telemetry_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["top", "--iterations", "1", "--json"]) == 0
        assert not obs.is_enabled()


class TestRecordReplay:
    def test_record_writes_manual_bundle_and_jsonl(self, capsys, tmp_path):
        bundle_path = tmp_path / "flight.json"
        jsonl_path = tmp_path / "events.jsonl"
        assert main(["record", "--workload", "xgboost",
                     "-o", str(bundle_path), "--jsonl", str(jsonl_path)]) == 0
        out = capsys.readouterr().out
        assert "trigger: manual" in out
        from repro.observability import load_bundle, read_jsonl_events

        bundle = load_bundle(str(bundle_path))
        kinds = set(bundle["counts"])
        assert {"span", "counter", "workload", "snapshot"} <= kinds
        events = read_jsonl_events(str(jsonl_path))
        assert len(events) == len(bundle["events"])

    def test_record_latency_budget_triggers_spike_bundle(self, capsys, tmp_path):
        bundle_path = tmp_path / "flight.json"
        assert main(["record", "--workload", "xgboost",
                     "-o", str(bundle_path),
                     "--latency-budget", "1e-12"]) == 0
        assert "trigger: latency_spike" in capsys.readouterr().out
        from repro.observability import load_bundle

        bundle = load_bundle(str(bundle_path))
        assert bundle["trigger"]["reason"] == "latency_spike"
        assert any(e["kind"] == "anomaly" for e in bundle["events"])

    def test_replay_summarizes_bundle(self, capsys, tmp_path):
        bundle_path = tmp_path / "flight.json"
        assert main(["record", "-o", str(bundle_path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "trigger : manual" in out
        assert "span" in out and "counter" in out

    def test_replay_json_and_chrome_merged_timeline(self, capsys, tmp_path):
        bundle_path = tmp_path / "flight.json"
        chrome_path = tmp_path / "timeline.json"
        assert main(["record", "-o", str(bundle_path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle_path), "--json",
                     "--chrome", str(chrome_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trigger"]["reason"] == "manual"
        assert doc["events"] == sum(doc["counts"].values())
        timeline = json.loads(chrome_path.read_text())
        events = timeline["traceEvents"]
        sections = {e["args"]["name"] for e in events
                    if e.get("name") == "process_name"}
        assert {"spans", "counters"} <= sections
        assert {"X", "C"} <= {e["ph"] for e in events}

    def test_replay_rejects_non_bundle(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nope"}')
        assert main(["replay", str(bad)]) == 2
        assert "not a flight-recorder bundle" in capsys.readouterr().err

    def test_replay_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "absent.json")]) == 2
        assert "cannot replay" in capsys.readouterr().err


def _write_cli_shard(tmp_path, worker_id, epoch, publishes):
    """A deterministic shard for the fleet/top CLI tests."""
    from repro.observability.bus import JsonlEventLog

    from .observability import _golden

    bus = _golden.make_bus(epoch_unix=epoch)
    path = str(tmp_path / f"events-{worker_id}.jsonl")
    with JsonlEventLog(path, bus=bus, worker=worker_id):
        for kind, name, value, fields in publishes:
            bus.publish(kind, name, value=value, **fields)
    return path


def _write_v1_cli_shard(tmp_path):
    path = str(tmp_path / "events-old.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"v": 1, "kind": "jsonl_header",
                             "producer": "repro.observability.bus"}) + "\n")
        fh.write(json.dumps({"v": 1, "seq": 0, "t_s": 0.5, "kind": "stage",
                             "name": "x", "value": None, "fields": {}}) + "\n")
    return path


class TestFleetCommand:
    def _fleet_dir(self, tmp_path):
        from .observability import _golden

        _golden.build_fleet_shards(str(tmp_path))
        return str(tmp_path)

    def test_text_report_with_per_worker_rows(self, capsys, tmp_path):
        assert main(["fleet", self._fleet_dir(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet report" in out
        assert "w0" in out and "w1" in out
        assert "latency (fleet" in out

    def test_json_report_is_schema_versioned(self, capsys, tmp_path):
        from repro.observability.distrib import FLEET_SCHEMA_VERSION

        assert main(["fleet", self._fleet_dir(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["v"] == FLEET_SCHEMA_VERSION
        assert doc["kind"] == "fleet_report"
        assert [w["worker"] for w in doc["workers"]] == ["w0", "w1"]
        assert doc["lost_workers"] == []

    def test_chrome_export_writes_merged_timeline(self, capsys, tmp_path):
        chrome = tmp_path / "fleet-trace.json"
        assert main(["fleet", self._fleet_dir(tmp_path),
                     "--chrome", str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["workers"] == ["w0", "w1"]

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        assert main(["fleet", str(tmp_path)]) == 2
        assert "no events-*.jsonl shards" in capsys.readouterr().err

    def test_mixed_schema_versions_exit_2(self, capsys, tmp_path):
        from .observability import _golden

        old = _write_v1_cli_shard(tmp_path)
        new = _write_cli_shard(tmp_path, "w0", _golden.FAKE_EPOCH_UNIX,
                               [("stage", "x", None, {})])
        assert main(["fleet", old, new]) == 2
        err = capsys.readouterr().err
        assert "cannot aggregate shards" in err
        assert "mixed event schema versions" in err

    def test_lost_worker_exits_1_and_dumps_evidence(self, capsys, tmp_path):
        from .observability import _golden

        _write_cli_shard(tmp_path, "w1", _golden.FAKE_EPOCH_UNIX,
                         [("heartbeat", "worker/w1", 0.0,
                           {"interval_s": 0.25, "final": False})])
        _write_cli_shard(tmp_path, "driver", _golden.FAKE_EPOCH_UNIX,
                         [("stage", f"tick{i}", None, {}) for i in range(10)])
        dump = tmp_path / "dumps"
        assert main(["fleet", str(tmp_path), "--dump", str(dump)]) == 1
        out = capsys.readouterr().out
        assert "!! worker_lost: w1" in out
        assert (dump / "fleet-worker-lost-w1.json").exists()

    def test_generous_miss_factor_keeps_exit_0(self, capsys, tmp_path):
        from .observability import _golden

        _write_cli_shard(tmp_path, "w1", _golden.FAKE_EPOCH_UNIX,
                         [("heartbeat", "worker/w1", 0.0,
                           {"interval_s": 0.25, "final": False})])
        _write_cli_shard(tmp_path, "driver", _golden.FAKE_EPOCH_UNIX,
                         [("stage", f"tick{i}", None, {}) for i in range(10)])
        assert main(["fleet", str(tmp_path), "--miss-factor", "100"]) == 0


class TestTopFromFleet:
    def test_repeated_from_flags_merge_shards(self, capsys, tmp_path):
        from .observability import _golden

        a = _write_cli_shard(tmp_path, "w0", _golden.FAKE_EPOCH_UNIX,
                             [("request", "sched/request", 0.002,
                               {"count": 4})])
        b = _write_cli_shard(tmp_path, "w1", _golden.FAKE_EPOCH_UNIX + 1.0,
                             [("request", "sched/request", 0.004,
                               {"count": 4})])
        assert main(["top", "--from", a, "--from", b, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["workers"]) == {"w0", "w1"}
        assert doc["workers"]["w0"]["requests"] == 4

    def test_mixed_schema_versions_exit_2(self, capsys, tmp_path):
        from .observability import _golden

        old = _write_v1_cli_shard(tmp_path)
        new = _write_cli_shard(tmp_path, "w0", _golden.FAKE_EPOCH_UNIX,
                               [("stage", "x", None, {})])
        assert main(["top", "--from", old, "--from", new]) == 2
        assert "mixed event schema versions" in capsys.readouterr().err


class TestReplayMultiBundle:
    def _golden_bundle_copy(self, tmp_path, name, version=None):
        import shutil

        from .observability import _golden

        path = tmp_path / name
        shutil.copy(_golden.GOLDEN_BUNDLE, path)
        if version is not None:
            doc = json.loads(path.read_text())
            doc["event_schema_version"] = version
            path.write_text(json.dumps(doc))
        return str(path)

    def test_several_bundles_merge_onto_one_timeline(self, capsys, tmp_path):
        a = self._golden_bundle_copy(tmp_path, "a.json")
        b = self._golden_bundle_copy(tmp_path, "b.json")
        chrome = tmp_path / "merged.json"
        assert main(["replay", a, b, "--json", "--chrome", str(chrome)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trigger"]["reason"] == "merged_replay"
        assert doc["trigger"]["fields"]["bundles"] == 2
        assert doc["events"] == sum(doc["counts"].values())
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_mixed_schema_versions_exit_2(self, capsys, tmp_path):
        a = self._golden_bundle_copy(tmp_path, "a.json")
        b = self._golden_bundle_copy(tmp_path, "b.json", version=1)
        assert main(["replay", a, b]) == 2
        assert "mixed event schema versions" in capsys.readouterr().err


class TestPoolCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["pool"])
        assert args.param_set == "test"
        assert args.workers == "1,2,4"
        assert args.batch == 16
        assert args.backend is None

    def test_pool_scaling_table(self, capsys):
        assert main(["pool", "--workers", "1,2", "--batch", "4",
                     "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out
        assert "bootstraps/s" in out
        assert "single-process" in out

    def test_pool_json(self, capsys):
        assert main(["pool", "--workers", "1", "--batch", "4",
                     "--rounds", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["param_set"] == "test"
        assert doc["backend"] == "numpy"
        assert doc["batch"] == 4
        assert [e["workers"] for e in doc["entries"]] == [1]
        assert doc["entries"][0]["bootstraps_per_s"] > 0

    def test_pool_radix2_backend_stamped(self, capsys, radix2_backend):
        assert main(["pool", "--workers", "1", "--batch", "4", "--rounds", "1",
                     "--backend", radix2_backend, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == radix2_backend

    def test_pool_scipy_backend_exit_2(self, capsys):
        assert main(["pool", "--workers", "1", "--batch", "4",
                     "--backend", "scipy"]) == 2
        err = capsys.readouterr().err
        assert "'scipy'" in err
        assert "available backends: numpy" in err

    def test_pool_unknown_backend_exit_2(self, capsys):
        assert main(["pool", "--workers", "1", "--batch", "4",
                     "--backend", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        assert "numpy" in err

    def test_pool_invalid_workers_exit_2(self, capsys):
        assert main(["pool", "--workers", "zero,none"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_pool_telemetry_feeds_fleet(self, capsys, tmp_path):
        tdir = tmp_path / "pool-telemetry"
        assert main(["pool", "--workers", "2", "--batch", "4",
                     "--rounds", "1", "--telemetry", str(tdir)]) == 0
        capsys.readouterr()
        assert main(["fleet", str(tdir / "workers2"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        workers = {w["worker"] for w in doc["workers"]}
        assert {"driver", "w0", "w1"} <= workers
