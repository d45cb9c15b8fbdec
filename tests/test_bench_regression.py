"""Unit tests for the bench baseline checker (benchmarks/check_bench_regression.py).

The checker lives next to the benches rather than in ``repro`` (it runs
standalone in CI before any package install), so load it by path.
"""

import importlib.util
import json
import pathlib

import pytest

_CHECKER = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _CHECKER)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def _doc(entries):
    return {"schema_version": 1, "entries": entries}


def compare(base_entries, cur_entries, **kw):
    return checker.compare_documents(_doc(base_entries), _doc(cur_entries), **kw)


class TestStructure:
    def test_identical_documents_pass(self):
        entries = {"e@x": {"throughput_bs": 10.0, "backend": "numpy"}}
        violations, notes = compare(entries, entries)
        assert violations == []
        assert notes == []

    def test_schema_mismatch_is_fatal(self):
        violations, notes = checker.compare_documents(
            {"schema_version": 1, "entries": {}},
            {"schema_version": 2, "entries": {}},
        )
        assert len(violations) == 1
        assert "schema_version" in violations[0]

    def test_entry_missing_from_current(self):
        violations, _ = compare({"e@x": {}}, {})
        assert violations == ["e@x: missing from current run"]

    def test_entry_not_in_baseline(self):
        violations, _ = compare({}, {"e@x": {}})
        assert violations == ["e@x: not in baseline (refresh it deliberately)"]

    def test_malformed_entry_is_violation(self):
        violations, _ = compare({"e@x": "oops"}, {"e@x": "oops"})
        assert any("malformed" in v for v in violations)


class TestMissingMetrics:
    def test_metric_missing_from_current_names_the_side(self):
        violations, _ = compare(
            {"e@x": {"backend": "numpy"}}, {"e@x": {}}
        )
        assert len(violations) == 1
        assert "e@x.backend" in violations[0]
        assert "missing from the current run" in violations[0]

    def test_metric_missing_from_baseline_names_the_side(self):
        violations, _ = compare(
            {"e@x": {}}, {"e@x": {"backend": "numpy"}}
        )
        assert len(violations) == 1
        assert "e@x.backend" in violations[0]
        assert "missing from the baseline" in violations[0]

    def test_newly_added_informational_metric_is_a_note(self):
        violations, notes = compare(
            {"e@x": {}}, {"e@x": {"workers4_bootstraps_per_s": 123.0}}
        )
        assert violations == []
        assert len(notes) == 1
        assert "newly-added informational" in notes[0]

    def test_no_keyerror_on_any_asymmetry(self):
        # The original checker crashed with KeyError on one-sided
        # metrics; any asymmetric mix must produce messages, not raise.
        violations, notes = compare(
            {"e@x": {"a_only": 1, "throughput_bs": 2.0}},
            {"e@x": {"b_only": 3, "throughput_bs": 2.0}},
        )
        assert len(violations) == 2


class TestFloorsAndTolerance:
    def test_floor_metric_passes_at_or_above(self):
        violations, _ = compare(
            {"e@x": {"speedup_batch16": 5.0}}, {"e@x": {"speedup_batch16": 5.0}}
        )
        assert violations == []

    def test_floor_metric_fails_below(self):
        violations, _ = compare(
            {"e@x": {"speedup_batch16": 5.0}}, {"e@x": {"speedup_batch16": 4.0}}
        )
        assert violations == ["e@x.speedup_batch16: 4.0 below the 5.0 floor"]

    def test_floor_metric_non_numeric_is_clear(self):
        violations, _ = compare(
            {"e@x": {"speedup_batch16": "fast"}},
            {"e@x": {"speedup_batch16": 5.0}},
        )
        assert any("not numeric" in v for v in violations)

    def test_tolerant_metric_within_tolerance(self):
        violations, _ = compare(
            {"e@x": {"throughput_bs": 100.0}}, {"e@x": {"throughput_bs": 100.5}}
        )
        assert violations == []

    def test_tolerant_metric_beyond_tolerance(self):
        violations, _ = compare(
            {"e@x": {"throughput_bs": 100.0}}, {"e@x": {"throughput_bs": 110.0}}
        )
        assert len(violations) == 1
        assert "tolerance" in violations[0]

    def test_informational_metrics_never_compared(self):
        violations, notes = compare(
            {"e@x": {"x_per_s": 1.0, "y_wall_ms": 9.0}},
            {"e@x": {"x_per_s": 99.0, "y_wall_ms": 1e9}},
        )
        assert violations == []
        assert notes == []

    def test_cpu_count_is_recorded_not_compared(self):
        violations, notes = compare(
            {"e@x": {"cpu_count": 2}}, {"e@x": {"cpu_count": 4}}
        )
        assert violations == []
        assert notes == []

    def test_structural_metric_must_match(self):
        violations, _ = compare(
            {"e@x": {"backend": "numpy"}}, {"e@x": {"backend": "scipy"}}
        )
        assert violations == ["e@x.backend: 'numpy' != 'scipy'"]


class TestConditionalScalingFloors:
    def test_enforced_when_measured(self):
        violations, _ = compare(
            {"e@x": {"scaling_workers4": 2.5}}, {"e@x": {"scaling_workers4": 2.1}}
        )
        assert violations == ["e@x.scaling_workers4: 2.1 below the 2.5 floor"]

    def test_passes_when_met(self):
        violations, notes = compare(
            {"e@x": {"scaling_workers4": 2.5}}, {"e@x": {"scaling_workers4": 3.0}}
        )
        assert violations == []
        assert notes == []

    def test_null_current_is_a_note_not_a_violation(self):
        violations, notes = compare(
            {"e@x": {"scaling_workers4": 2.5}}, {"e@x": {"scaling_workers4": None}}
        )
        assert violations == []
        assert len(notes) == 1
        assert "not enforceable" in notes[0]

    def test_null_baseline_is_a_note(self):
        violations, notes = compare(
            {"e@x": {"scaling_workers4": None}}, {"e@x": {"scaling_workers4": 2.8}}
        )
        assert violations == []
        assert len(notes) == 1
        assert "no floor" in notes[0]


class TestMain:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_with_notes(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _doc(
            {"e@x": {"scaling_workers4": 2.5}}
        ))
        cur = self._write(tmp_path, "cur.json", _doc(
            {"e@x": {"scaling_workers4": None, "new_per_s": 5.0}}
        ))
        assert checker.main(["--baseline", base, "--current", cur]) == 0
        out = capsys.readouterr().out
        assert out.count("note:") == 2

    def test_exit_one_on_violation(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _doc(
            {"e@x": {"speedup_batch16": 5.0}}
        ))
        cur = self._write(tmp_path, "cur.json", _doc(
            {"e@x": {"speedup_batch16": 1.0}}
        ))
        assert checker.main(["--baseline", base, "--current", cur]) == 1
        assert "below the" in capsys.readouterr().out

    def test_committed_pool_baseline_is_well_formed(self):
        baseline = json.loads(
            (_CHECKER.parent / "baselines" / "BENCH_tfhe.json").read_text()
        )
        entry = baseline["entries"]["tfhe_pool@test"]
        assert entry["backend"] == "numpy"
        assert entry["scaling_workers2"] == pytest.approx(1.5)
        assert entry["scaling_workers4"] == pytest.approx(2.5)
        for n in (1, 2, 4):
            assert entry[f"workers{n}_bootstraps_per_s"] > 0
        # Set I: the 2-lane floor is against the pool's own 1-lane rate.
        entry = baseline["entries"]["tfhe_pool@I"]
        assert entry["backend"] == "numpy"
        assert entry["scaling_workers2"] == pytest.approx(1.3)
        assert entry["trials"] >= 10
        assert entry["cpu_count"] >= 1
