"""Batched bootstrap pipeline: bit-identity, precision modes, reuse accounting.

The batch-first hot path must be a pure reshape of the scalar path: the
same einsum contraction with a fixed reduction order, the same FFT
butterflies applied elementwise along the batch axes.  These tests pin
that down as *bit*-identity (``np.array_equal`` on raw torus words, not
approximate decryption agreement), on the toy sets and on a secure
Table III parameter set, and check the telemetry actually proves the
Input/Output-reuse transform counts the paper claims.
"""

import tracemalloc

import numpy as np
import pytest

from repro import observability as obs
from repro.params import PARAM_SETS, TEST_PARAMS_K2
from repro.tfhe import (
    KeySwitchingKey,
    LweBatch,
    identity_test_polynomial,
    key_switch_batch,
    make_test_polynomial,
    programmable_bootstrap,
    programmable_bootstrap_batch,
)
from repro.tfhe.decomposition import decompose
from repro.tfhe.ops import TfheContext
from repro.tfhe.torus import TORUS_DTYPE, to_torus

P = 8


def _assert_bit_identical(batch_outs, scalar_outs):
    assert len(batch_outs) == len(scalar_outs)
    for got, ref in zip(batch_outs, scalar_outs):
        assert np.array_equal(got.a, ref.a)
        assert got.b == ref.b


def _batch_both_ways(cts, tps, keyset):
    """The kernel on both input kinds: a list, then one ``LweBatch``.

    Each call must give back the kind it was given; the caller runs its
    assertions on both.
    """
    as_list = programmable_bootstrap_batch(cts, tps, keyset)
    as_batch = programmable_bootstrap_batch(LweBatch.from_ciphertexts(cts), tps, keyset)
    assert isinstance(as_list, list)
    assert isinstance(as_batch, LweBatch)
    return as_list, as_batch


class TestBitIdentity:
    def test_batch16_matches_scalar_toy(self, ctx):
        msgs = [m % (P // 2) for m in range(16)]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        scalar = [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
        for batch in _batch_both_ways(cts, tp, ctx.keyset):
            _assert_bit_identical(batch, scalar)
            for m, out in zip(msgs, batch):
                assert ctx.decrypt(out, P) == m

    def test_per_sample_test_polynomials(self, ctx):
        """A (B, N) test-poly stack applies row r's LUT to sample r."""
        identity = identity_test_polynomial(ctx.params, P)
        square = make_test_polynomial(
            np.array([(x * x) % P for x in range(P // 2)], dtype=np.int64),
            ctx.params, P,
        )
        cts = [ctx.encrypt(3, P), ctx.encrypt(3, P)]
        tps = np.stack([identity, square])
        for batch in _batch_both_ways(cts, tps, ctx.keyset):
            _assert_bit_identical(
                batch,
                [programmable_bootstrap(cts[0], identity, ctx.keyset),
                 programmable_bootstrap(cts[1], square, ctx.keyset)],
            )
            assert ctx.decrypt(batch[0], P) == 3
            assert ctx.decrypt(batch[1], P) == 1  # 9 mod 8

    def test_batch_matches_scalar_k2(self):
        """GLWE dimension k=2 exercises the full (component, level) grid."""
        ctx = TfheContext.create(TEST_PARAMS_K2, seed=11)
        msgs = [0, 1, 2, 3, 1]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        for batch in _batch_both_ways(cts, tp, ctx.keyset):
            _assert_bit_identical(
                batch, [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
            )
            for m, out in zip(msgs, batch):
                assert ctx.decrypt(out, P) == m

    def test_batch_matches_scalar_secure_set(self):
        """Bit-identity holds on a secure Table III set, not just toys."""
        ctx = TfheContext.create(PARAM_SETS["I"], seed=1)
        msgs = [0, 2, 3]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        for batch in _batch_both_ways(cts, tp, ctx.keyset):
            _assert_bit_identical(
                batch, [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
            )
            for m, out in zip(msgs, batch):
                assert ctx.decrypt(out, P) == m


class TestEntryChecks:
    """Malformed input raises at the kernel entry, naming both shapes."""

    def _batch(self, ctx, width):
        cts = [ctx.encrypt(m, P) for m in (1, 2)]
        a = np.stack([ct.a for ct in cts])
        a = np.resize(a, (2, width)) if width > a.shape[1] else a[:, :width]
        return LweBatch(a, np.array([ct.b for ct in cts]))

    @pytest.mark.parametrize("delta", [5, -5])
    def test_mask_width_must_match_keyset(self, ctx, delta):
        n = ctx.params.n
        batch = self._batch(ctx, n + delta)
        tp = identity_test_polynomial(ctx.params, P)
        with pytest.raises(ValueError) as info:
            programmable_bootstrap_batch(batch, tp, ctx.keyset)
        assert f"(2, {n + delta})" in str(info.value)
        assert f"(2, {n})" in str(info.value)

    @pytest.mark.parametrize("shape", ["short", "rows", "cols", "3d"])
    def test_test_polys_shape(self, ctx, shape):
        N = ctx.params.N
        bad = {"short": (N - 1,), "rows": (3, N), "cols": (2, N + 1),
               "3d": (1, 2, N)}[shape]
        cts = [ctx.encrypt(m, P) for m in (1, 2)]
        with pytest.raises(ValueError) as info:
            programmable_bootstrap_batch(cts, np.zeros(bad, np.uint32), ctx.keyset)
        assert str(bad) in str(info.value)
        assert f"({N},) or (2, {N})" in str(info.value)

    def test_empty_batch_keeps_its_kind(self, ctx):
        tp = identity_test_polynomial(ctx.params, P)
        empty = LweBatch(np.zeros((0, ctx.params.n), np.uint32), np.zeros(0, np.uint32))
        out = programmable_bootstrap_batch(empty, tp, ctx.keyset)
        assert isinstance(out, LweBatch) and out.a.shape == (0, ctx.params.n)
        assert programmable_bootstrap_batch([], tp, ctx.keyset) == []


class TestPrecisionModes:
    def test_single_precision_decodes_correctly(self, ctx):
        msgs = [0, 1, 2, 3]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        outs = programmable_bootstrap_batch(cts, tp, ctx.keyset, precision="single")
        for m, out in zip(msgs, outs):
            assert ctx.decrypt(out, P) == m

    def test_tables_cached_per_precision(self, ctx):
        double = ctx.keyset.bsk_spectrum_table("double")
        single = ctx.keyset.bsk_spectrum_table("single")
        assert ctx.keyset.bsk_spectrum_table("double") is double
        assert ctx.keyset.bsk_spectrum_table("single") is single
        assert double.dtype == np.complex128
        assert single.dtype == np.complex64
        p = ctx.params
        assert double.shape == (p.n, (p.k + 1) * p.l_b, p.k + 1, p.N // 2)

    def test_double_table_matches_lazy_spectra(self, ctx):
        """The eager whole-BSK transform is bit-compatible with the lazy path."""
        table = ctx.keyset.bsk_spectrum_table("double")
        for i in (0, 1, ctx.params.n - 1):
            assert np.array_equal(table[i], ctx.keyset.bsk[i].spectrum())

    def test_invalid_precision_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.keyset.bsk_spectrum_table("half")
        with pytest.raises(ValueError):
            programmable_bootstrap_batch(
                [ctx.encrypt(0, P)], identity_test_polynomial(ctx.params, P),
                ctx.keyset, precision="half",
            )


class TestTransformReuseCounters:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _counter(self, name, **labels):
        metric = obs.REGISTRY.get(name)
        value = metric.value(**labels) if metric is not None else None
        return 0.0 if value is None else value

    def test_fft_counts_prove_transform_reuse(self, ctx):
        """Per blind-rotation step the batch does exactly (k+1)*l_b forward
        and k+1 inverse transforms per sample: the BSK contributes *zero*
        (pre-transformed table, Input reuse) and each output polynomial is
        inverse-transformed once, not once per partial product (Output
        reuse in the POLY-ACC-REG)."""
        p = ctx.params
        cts = [ctx.encrypt(m % (P // 2), P) for m in range(4)]
        tp = identity_test_polynomial(p, P)
        ctx.keyset.bsk_spectrum_table("double")  # pre-transform outside the window
        with obs.telemetry():
            outs = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        steps = self._counter("tfhe_blind_rotation_steps_total")
        assert 0 < steps <= len(cts) * p.n
        forward = self._counter("transforms_fft_total", direction="forward")
        inverse = self._counter("transforms_fft_total", direction="inverse")
        # Forward: only the decomposed accumulator digits, never BSK rows.
        assert forward == steps * (p.k + 1) * p.l_b
        # Inverse: one per output polynomial per step...
        assert inverse == steps * (p.k + 1)
        # ...not one per pointwise partial product (what no reuse would cost).
        assert inverse < steps * (p.k + 1) ** 2 * p.l_b
        assert self._counter("tfhe_bootstraps_total") == len(cts)
        for m, out in zip(range(4), outs):
            assert ctx.decrypt(out, P) == m % (P // 2)

    def test_batch_and_scalar_transform_counts_match(self, ctx):
        """Shared kernel: B scalar calls cost exactly what one B-batch costs."""
        cts = [ctx.encrypt(m, P) for m in (1, 2, 3)]
        tp = identity_test_polynomial(ctx.params, P)
        ctx.keyset.bsk_spectrum_table("double")
        with obs.telemetry():
            programmable_bootstrap_batch(cts, tp, ctx.keyset)
        batched = (
            self._counter("transforms_fft_total", direction="forward"),
            self._counter("transforms_fft_total", direction="inverse"),
        )
        with obs.telemetry():
            for ct in cts:
                programmable_bootstrap(ct, tp, ctx.keyset)
        scalar = (
            self._counter("transforms_fft_total", direction="forward"),
            self._counter("transforms_fft_total", direction="inverse"),
        )
        assert batched == scalar


class TestKeySwitchMemory:
    """The KSK contraction must not materialize the (m, l_k, n) product."""

    def _make_ksk(self, rng, m, l_k, n):
        masks = rng.integers(0, 1 << 32, size=(m, l_k, n), dtype=np.uint64)
        bodies = rng.integers(0, 1 << 32, size=(m, l_k), dtype=np.uint64)
        return KeySwitchingKey(
            masks.astype(TORUS_DTYPE), bodies.astype(TORUS_DTYPE), beta_ks_bits=7
        )

    def test_matches_naive_broadcast_reference(self):
        rng = np.random.default_rng(2)
        m, l_k, n, batch = 32, 3, 12, 4
        ksk = self._make_ksk(rng, m, l_k, n)
        a = rng.integers(0, 1 << 32, size=(batch, m), dtype=np.uint64).astype(TORUS_DTYPE)
        b = rng.integers(0, 1 << 32, size=(batch,), dtype=np.uint64).astype(TORUS_DTYPE)
        out_a, out_b = key_switch_batch(a, b, ksk)
        d64 = decompose(a, ksk.beta_ks_bits, ksk.l_k).transpose(0, 2, 1)
        for r in range(batch):
            # The pre-optimization formula, allocation blowup and all.
            ref_a = to_torus(-(d64[r][:, :, None] * ksk.masks.astype(np.int64)).sum(axis=(0, 1)))
            ref_b = to_torus(np.int64(b[r]) - (d64[r] * ksk.bodies.astype(np.int64)).sum())
            assert np.array_equal(out_a[r], ref_a)
            assert out_b[r] == ref_b

    def test_peak_allocation_regression(self):
        rng = np.random.default_rng(3)
        m, l_k, n, batch = 2048, 4, 500, 2
        ksk = self._make_ksk(rng, m, l_k, n)
        a = rng.integers(0, 1 << 32, size=(batch, m), dtype=np.uint64).astype(TORUS_DTYPE)
        b = rng.integers(0, 1 << 32, size=(batch,), dtype=np.uint64).astype(TORUS_DTYPE)
        key_switch_batch(a, b, ksk)  # warm caches outside the measured window
        tracemalloc.start()
        key_switch_batch(a, b, ksk)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The broadcast formula materialized (B, m, l_k, n) int64 partials.
        naive_bytes = batch * m * l_k * n * 8
        assert peak < naive_bytes / 8, (
            f"key_switch_batch peaked at {peak / 2**20:.1f} MiB; "
            f"the naive product would be {naive_bytes / 2**20:.1f} MiB"
        )
