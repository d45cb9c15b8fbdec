"""Integration tests: noise telemetry through the functional TFHE path.

The tracker unit tests use stand-in objects; here real ciphertexts flow
through encrypt -> linear ops -> bootstrap -> decode with tracking on,
and the records must carry correct plaintext shadows, sane predicted
variances, full provenance chains, and (with the debug key registered)
measured phase errors inside the analytic envelope.
"""

import pytest

from repro import TEST_PARAMS
from repro import observability as obs
from repro.observability import NOISE, drift_report, noise_tracking
from repro.tfhe.integer import add_integers, decrypt_integer, encrypt_integer
from repro.tfhe.lwe import lwe_add, lwe_scalar_mul
from repro.tfhe.noise import (
    blind_rotation_noise_variance,
    key_switch_noise_variance,
)


class TestGatePath:
    def test_gate_is_tracked_end_to_end(self, ctx):
        with noise_tracking(ctx.keyset.lwe_key) as tracker:
            x, y = ctx.encrypt(1), ctx.encrypt(0)
            out = ctx.gate("nand", x, y)
            assert ctx.decrypt(out) == 1
            ops = {r.op for r in tracker.records()}
            assert {"lwe_encrypt", "lwe_add", "programmable_bootstrap"} <= ops
            kinds = {p.kind for p in tracker.failure_points()}
            assert {"bootstrap_decision", "decode"} <= kinds

    def test_gate_records_carry_the_gate_label(self, ctx):
        with noise_tracking() as tracker:
            ctx.gate("xor", ctx.encrypt(1), ctx.encrypt(1))
            bootstraps = tracker.records_for("programmable_bootstrap")
            assert bootstraps and all(r.label == "gate:xor" for r in bootstraps)

    def test_provenance_chains_back_to_the_encrypts(self, ctx):
        with noise_tracking() as tracker:
            x, y = ctx.encrypt(1), ctx.encrypt(0)
            out = ctx.gate("and", x, y)
            record = tracker.record_of(out)
            assert record is not None
            by_id = {r.op_id: r for r in tracker.records()}
            frontier, seen_ops = list(record.parents), set()
            while frontier:
                parent = by_id[frontier.pop()]
                seen_ops.add(parent.op)
                frontier.extend(parent.parents)
            assert {"lwe_add", "lwe_encrypt"} <= seen_ops

    def test_measured_errors_stay_inside_the_envelope(self, ctx):
        with noise_tracking(ctx.keyset.lwe_key) as tracker:
            for name in ("and", "or", "nand"):
                ctx.decrypt(ctx.gate(name, ctx.encrypt(1), ctx.encrypt(0)))
            measured = [r for r in tracker.records() if r.measured is not None]
            assert measured
            assert max(r.sigma for r in measured) < 8.0
            assert all(d.within_envelope for d in drift_report(tracker))

    def test_bootstrap_output_variance_is_input_independent(self, ctx):
        expected = key_switch_noise_variance(
            TEST_PARAMS, blind_rotation_noise_variance(TEST_PARAMS))
        with noise_tracking() as tracker:
            ctx.gate("or", ctx.encrypt(0), ctx.encrypt(0))
            (record,) = tracker.records_for("programmable_bootstrap")
            assert record.predicted_variance == pytest.approx(expected)


class TestLinearAlgebra:
    def test_fresh_encrypt_variance_matches_params(self, ctx):
        with noise_tracking() as tracker:
            ctx.encrypt(1)
            (record,) = tracker.records()
            assert record.predicted_variance == pytest.approx(
                (2.0 ** TEST_PARAMS.lwe_noise_log2) ** 2)

    def test_self_addition_quadruples_variance(self, ctx):
        """lwe_add(x, x) doubles the value, so the variance quadruples."""
        with noise_tracking() as tracker:
            x = ctx.encrypt(1)
            fresh = tracker.record_of(x).predicted_variance
            doubled = lwe_add(x, x)
            record = tracker.record_of(doubled)
            assert record.predicted_variance == pytest.approx(4 * fresh)

    def test_scalar_mul_scales_variance_by_square(self, ctx):
        with noise_tracking() as tracker:
            x = ctx.encrypt(1)
            fresh = tracker.record_of(x).predicted_variance
            record = tracker.record_of(lwe_scalar_mul(3, x))
            assert record.predicted_variance == pytest.approx(9 * fresh)

    def test_shadow_tracks_the_actual_phase(self, ctx):
        """With the debug key the measured error must be tiny for fresh
        linear combinations - shadow and ciphertext agree."""
        with noise_tracking(ctx.keyset.lwe_key) as tracker:
            x, y = ctx.encrypt(1), ctx.encrypt(0)
            record = tracker.record_of(lwe_add(x, y))
            assert record.measured is not None
            assert abs(record.measured) < 2.0 ** (TEST_PARAMS.lwe_noise_log2 + 6)


class TestHigherLayers:
    def test_integer_add_labels_records(self, ctx):
        with noise_tracking() as tracker:
            a = encrypt_integer(ctx, 5, num_digits=2)
            b = encrypt_integer(ctx, 6, num_digits=2)
            total = add_integers(ctx, a, b)
            assert decrypt_integer(ctx, total) == 11
            labelled = [r for r in tracker.records() if r.label == "int:add"]
            assert labelled
            assert any(r.op == "programmable_bootstrap" for r in labelled)

    def test_circuit_nodes_annotate_records(self, ctx):
        from repro.tfhe.boolean import Circuit

        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        circuit.mark_output(circuit.gate("xor", a, b), "out")
        with noise_tracking() as tracker:
            enc = {"a": ctx.encrypt(1), "b": ctx.encrypt(0)}
            out = circuit.evaluate_encrypted(ctx, enc)
            assert ctx.decrypt(out["out"]) == 1
            annotated = [r for r in tracker.records()
                         if "circuit_node" in r.meta]
            assert annotated


class TestDisabledPath:
    def test_disabled_tracker_leaves_ciphertexts_bare(self, ctx):
        assert not obs.is_enabled()  # tier-1 default
        NOISE.reset()
        out = ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0))
        assert NOISE.record_of(out) is None
        assert len(NOISE) == 0

    def test_tracking_block_leaves_no_residue(self, ctx):
        with noise_tracking(ctx.keyset.lwe_key):
            ctx.gate("or", ctx.encrypt(1), ctx.encrypt(0))
        assert not obs.is_enabled()
        assert not NOISE.measuring
