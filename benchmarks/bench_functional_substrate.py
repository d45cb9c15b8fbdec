"""Micro-benchmarks of the functional substrate itself.

Not a paper table - these time the Python implementation's hot paths
(negacyclic FFT, external product, full bootstrap) so substrate
regressions are visible, and they double as a sanity check that the
transform engine beats the exact engine, mirroring why Concrete and
Morphling use FFTs at all.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.timing import TRIALS, interleaved_walls, median_iqr
from repro import TEST_PARAMS, TfheContext
from repro.params import PARAM_SETS
from repro.tfhe.bootstrap import modulus_switch, programmable_bootstrap, programmable_bootstrap_batch
from repro.tfhe.decomposition import decompose
from repro.tfhe.ggsw import external_product, external_product_transform, ggsw_encrypt
from repro.tfhe.glwe import GlweCiphertext, glwe_encrypt, glwe_rotate, glwe_trivial, sample_extract
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.polynomial import from_spectrum
from repro.tfhe.torus import to_torus
from repro.transforms import active_backend_name, negacyclic_convolve_fft, negacyclic_fft


@pytest.fixture(scope="module")
def ctx():
    return TfheContext.create(TEST_PARAMS, seed=3)


def test_negacyclic_fft_n1024(benchmark):
    rng = np.random.default_rng(0)
    poly = rng.integers(-(2**31), 2**31, size=1024).astype(float)
    benchmark(negacyclic_fft, poly)


def test_negacyclic_convolution_n1024(benchmark):
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, size=1024)
    b = rng.integers(-(2**31), 2**31, size=1024)
    result = benchmark(negacyclic_convolve_fft, a, b)
    assert result.shape == (1024,)


def test_external_product_transform_engine(benchmark, ctx):
    rng = np.random.default_rng(5)
    key = ctx.keyset.glwe_key
    g = ggsw_encrypt(1, key, TEST_PARAMS.beta_bits, TEST_PARAMS.l_b, rng)
    ct = glwe_encrypt(np.zeros(key.N, np.uint32), key, rng)
    g.spectrum()  # pre-transform, as the Private-A2 buffer would
    benchmark(external_product_transform, g, ct)


def test_exact_engine_reference_cost(benchmark, ctx):
    """Time the exact integer engine; it must lose to the transform engine
    (why Concrete and Morphling use FFTs at all)."""
    import time

    rng = np.random.default_rng(5)
    key = ctx.keyset.glwe_key
    g = ggsw_encrypt(1, key, TEST_PARAMS.beta_bits, TEST_PARAMS.l_b, rng)
    ct = glwe_encrypt(np.zeros(key.N, np.uint32), key, rng)
    g.spectrum()
    benchmark(external_product, g, ct, engine="exact")

    start = time.perf_counter()
    for _ in range(10):
        external_product_transform(g, ct)
    fast = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(10):
        external_product(g, ct, engine="exact")
    slow = time.perf_counter() - start
    assert fast < slow


def test_full_bootstrap(benchmark, ctx):
    ct = ctx.encrypt(2)
    out = benchmark(ctx.bootstrap, ct)
    assert ctx.decrypt(out) == 2


# ---------------------------------------------------------------------------
# Batched-pipeline throughput vs. the pre-batching (seed) per-sample path.
#
# The seed path is reimplemented here verbatim-in-spirit so the speedup is
# measured fresh on whatever machine runs the bench: lazy per-GGSW spectra,
# a Python (component, level, output) triple loop around the transform-domain
# MAC, one CMux object per blind-rotation step, and the broadcast
# key-switch contraction.  No pytest-benchmark fixture: the CI bench job
# installs only numpy + pytest.
# ---------------------------------------------------------------------------
def _seed_external_product_transform(ggsw, glwe):
    digits = decompose(glwe.data, ggsw.beta_bits, ggsw.l_b)
    spec = ggsw.spectrum()
    k, l_b, n = ggsw.k, ggsw.l_b, ggsw.N
    acc = np.zeros((k + 1, n // 2), dtype=np.complex128)
    for i in range(k + 1):
        for j in range(l_b):
            d_spec = negacyclic_fft(digits[i, j].astype(np.float64))
            for c in range(k + 1):
                acc[c] += d_spec * spec[i * l_b + j, c]
    out = np.stack([from_spectrum(acc[c], n) for c in range(k + 1)])
    return GlweCiphertext(out)


def _seed_cmux(ggsw_bit, ct_false, ct_true):
    diff = GlweCiphertext(ct_true.data - ct_false.data)
    prod = _seed_external_product_transform(ggsw_bit, diff)
    return GlweCiphertext(prod.data + ct_false.data)


def _seed_key_switch(ct, ksk):
    digits = decompose(ct.a, ksk.beta_ks_bits, ksk.l_k).T  # (m, l_k)
    mask_acc = -(digits[:, :, None] * ksk.masks.astype(np.int64)).sum(axis=(0, 1))
    body_acc = np.int64(ct.b) - (digits * ksk.bodies.astype(np.int64)).sum()
    return LweCiphertext(to_torus(mask_acc), to_torus(body_acc))


def _seed_programmable_bootstrap(ct, test_poly, keyset):
    params = keyset.params
    a_tilde, b_tilde = modulus_switch(ct, params.N)
    acc = glwe_rotate(glwe_trivial(test_poly, params.k), -int(b_tilde))
    for i in range(params.n):
        t = int(a_tilde[i])
        if t == 0:
            continue
        acc = _seed_cmux(keyset.bsk[i], acc, glwe_rotate(acc, t))
    return _seed_key_switch(sample_extract(acc), keyset.ksk)


def test_batched_bootstrap_throughput(ctx, bench_record):
    """Batch-16 gate bootstraps >= 5x the seed per-sample path, bit-identical
    to the scalar path in the default complex128 mode."""
    from repro.tfhe import identity_test_polynomial

    p = 8
    msgs = [m % (p // 2) for m in range(16)]
    cts = [ctx.encrypt(m, p) for m in msgs]
    tp = identity_test_polynomial(ctx.params, p)
    ctx.keyset.bsk_spectrum_table("double")  # one-time eager pre-transform

    def timed(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def percentiles_ms(fn, rounds=12):
        """Tail-latency view: per-call wall times through a quantile
        sketch, the same estimator the SLO engine runs in production."""
        from repro.observability import QuantileSketch

        sketch = QuantileSketch()
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            sketch.add(time.perf_counter() - start)
        return {q: sketch.quantile(q) * 1e3 for q in (0.5, 0.95, 0.99)}

    seed_outs = [_seed_programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
    seed_time = timed(
        lambda: [_seed_programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
    )
    scalar_outs = [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
    scalar_time = timed(
        lambda: [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
    )
    batch_outs = programmable_bootstrap_batch(cts, tp, ctx.keyset)
    batch_time = timed(lambda: programmable_bootstrap_batch(cts, tp, ctx.keyset))
    batch_pcts = percentiles_ms(
        lambda: programmable_bootstrap_batch(cts, tp, ctx.keyset)
    )

    bit_identical = all(
        np.array_equal(b.a, s.a) and b.b == s.b
        for b, s in zip(batch_outs, scalar_outs)
    )
    assert bit_identical
    for m, seed_out, batch_out in zip(msgs, seed_outs, batch_outs):
        assert ctx.decrypt(seed_out, p) == m
        assert ctx.decrypt(batch_out, p) == m

    speedup = seed_time / batch_time
    assert speedup >= 5.0, (
        f"batch-16 only {speedup:.1f}x the seed per-sample path "
        f"({seed_time:.3f}s vs {batch_time:.3f}s for 16 bootstraps)"
    )
    bench_record(
        "tfhe_substrate@test",
        bit_identical=bit_identical,
        speedup_batch16=round(speedup, 2),
        seed_bootstraps_per_s=round(len(cts) / seed_time, 2),
        scalar_bootstraps_per_s=round(len(cts) / scalar_time, 2),
        batch16_bootstraps_per_s=round(len(cts) / batch_time, 2),
        # Tail latency of the batch-16 call (informational: _wall_ms
        # metrics are trend-watched, never compared across machines).
        batch16_p50_wall_ms=round(batch_pcts[0.5], 3),
        batch16_p95_wall_ms=round(batch_pcts[0.95], 3),
        batch16_p99_wall_ms=round(batch_pcts[0.99], 3),
    )


def test_set1_batch_throughput(bench_record):
    """Set-I batch-16 throughput with its spread.

    Median and IQR over interleaved trials of the batch-16 call and the
    batch-of-one call (per-call fixed costs), after checking the batch
    against the scalar path bit for bit.  All ``_per_s``/``_wall_ms``
    values are informational: absolute rates depend on the machine,
    whose CPU count is recorded alongside.
    """
    from repro.tfhe import identity_test_polynomial

    p, batch = 8, 16
    ctx = TfheContext.create(PARAM_SETS["I"], seed=3)
    msgs = [m % (p // 2) for m in range(batch)]
    cts = [ctx.encrypt(m, p) for m in msgs]
    tp = identity_test_polynomial(ctx.params, p)
    ctx.keyset.bsk_spectrum_table("double")  # one-time eager pre-transform

    batch_outs = programmable_bootstrap_batch(cts, tp, ctx.keyset)
    scalar_outs = [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts[:4]]
    bit_identical = all(
        np.array_equal(b.a, s.a) and b.b == s.b
        for b, s in zip(batch_outs, scalar_outs)
    )
    assert bit_identical
    assert [ctx.decrypt(out, p) for out in batch_outs] == msgs

    walls = interleaved_walls({
        "batch16": lambda: programmable_bootstrap_batch(cts, tp, ctx.keyset),
        "batch1": lambda: programmable_bootstrap_batch(cts[:1], tp, ctx.keyset),
    })
    batch16_rate, batch16_iqr = median_iqr(batch / walls["batch16"])
    batch1_rate, batch1_iqr = median_iqr(1 / walls["batch1"])
    bench_record(
        "tfhe_substrate@I",
        backend=active_backend_name(),
        batch=batch,
        trials=TRIALS,
        cpu_count=os.cpu_count() or 1,
        bit_identical=bit_identical,
        batch16_bootstraps_per_s=round(batch16_rate, 2),
        batch16_iqr_bootstraps_per_s=round(batch16_iqr, 2),
        batch1_bootstraps_per_s=round(batch1_rate, 2),
        batch1_iqr_bootstraps_per_s=round(batch1_iqr, 2),
        batch16_p50_wall_ms=round(float(np.median(walls["batch16"])) * 1e3, 1),
    )
