"""BootstrapPool: sharded execution, shared spectrum, crash hygiene.

The pool must change *where* samples run, never *what* they compute:
every test here pins pool output against the single-process batched
pipeline, and the telemetry tests prove the zero-setup property (no
worker ever re-runs the BSK pre-transform) from the workers' own
``transforms_fft_total`` counters.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.observability.distrib import aggregate_shards, discover_shards
from repro.pool import BootstrapPool, PoolWorkerLost, leaked_segments
from repro.tfhe.batch import LweBatch
from repro.tfhe.bootstrap import programmable_bootstrap_batch

BATCH = 8
P = 8


@pytest.fixture(scope="module")
def workload(ctx):
    rng = np.random.default_rng(42)
    msgs = [int(m) for m in rng.integers(0, P // 2, size=BATCH)]
    cts = [ctx.encrypt(m, P) for m in msgs]
    tp = ctx._lut_test_poly(lambda x: x, P)
    return msgs, cts, tp


def _assert_same(expected, actual):
    assert len(expected) == len(actual)
    for e, a in zip(expected, actual):
        np.testing.assert_array_equal(e.a, a.a)
        assert e.b == a.b


def _pool_both_ways(pool, cts, tps):
    """One pool call on the list, one on an ``LweBatch`` of it.

    Each must come back as the kind it was given; the caller runs its
    assertions on both.
    """
    as_list = pool.bootstrap_batch(cts, tps)
    as_batch = pool.bootstrap_batch(LweBatch.from_ciphertexts(cts), tps)
    assert isinstance(as_list, list)
    assert isinstance(as_batch, LweBatch)
    return as_list, as_batch


class TestBitIdentity:
    def test_two_workers_match_single_process(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            outs = _pool_both_ways(pool, cts, tp)
        for out in outs:
            _assert_same(ref, out)
        assert leaked_segments() == []

    def test_three_workers_uneven_shards(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=3) as pool:
            outs = _pool_both_ways(pool, cts, tp)
        for out in outs:
            _assert_same(ref, out)

    def test_per_sample_luts(self, ctx, workload):
        _, cts, _ = workload
        tps = np.stack([
            ctx._lut_test_poly(lambda x, r=r: (x + r) % (P // 2), P)
            for r in range(len(cts))
        ])
        ref = programmable_bootstrap_batch(cts, tps, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            outs = _pool_both_ways(pool, cts, tps)
        for out in outs:
            _assert_same(ref, out)

    def test_more_workers_than_samples(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts[:2], tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=4) as pool:
            outs = _pool_both_ways(pool, cts[:2], tp)
        for out in outs:
            _assert_same(ref, out)

    def test_empty_batch(self, ctx, workload):
        _, _, tp = workload
        empty = LweBatch(np.zeros((0, ctx.params.n), np.uint32), np.zeros(0, np.uint32))
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            assert pool.bootstrap_batch([], tp) == []
            assert pool.bootstrap_batch(empty, tp).a.shape == (0, ctx.params.n)

    def test_decrypts_correctly(self, ctx, workload):
        msgs, cts, tp = workload
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            out = pool.bootstrap_batch(cts, tp)
        assert [ctx.decrypt(c, P) for c in out] == msgs


class TestInputChecks:
    def test_bad_input_raises_and_pool_keeps_serving(self, ctx, workload):
        """Malformed input fails in the driver, naming the problem; no
        lane dies, so the next good batch is served by the same pool."""
        msgs, cts, tp = workload
        batch = LweBatch.from_ciphertexts(cts)
        n, N = ctx.params.n, ctx.params.N
        bad_words = {
            "float": batch.a.astype(np.float64),
            "int64 >= 2^32": batch.a.astype(np.int64) + 2**32,
            "negative int64": batch.a.astype(np.int64) - 2**32,
        }
        bad_calls = [
            (LweBatch(np.resize(batch.a, (len(cts), n + 5)), batch.b), tp,
             f"({len(cts)}, {n + 5})"),
            (LweBatch(batch.a[:, :n - 5], batch.b), tp, f"({len(cts)}, {n - 5})"),
            (batch, tp[:-1], f"({N - 1},)"),
            (batch, np.stack([tp] * 3), f"(3, {N})"),
        ]
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            for words in bad_words.values():
                with pytest.raises(ValueError, match="^a: "):
                    pool.bootstrap_batch(LweBatch(words, batch.b), tp)
            for bad, polys, shape in bad_calls:
                with pytest.raises(ValueError) as info:
                    pool.bootstrap_batch(bad, polys)
                assert shape in str(info.value)
            out = pool.bootstrap_batch(batch, tp)
        assert [ctx.decrypt(c, P) for c in out] == msgs


class TestSharedSpectrum:
    def test_workers_never_rerun_the_pretransform(self, ctx, workload, tmp_path):
        """Each worker's own fft counters match its shard's steady-state
        cost exactly - the table pre-transform (a much larger count)
        never ran in any worker."""
        _, cts, tp = workload
        shards = np.array_split(np.arange(len(cts)), 2)

        # Cold reference: shard 0 with an empty spectrum cache pays the
        # BSK pre-transform inside the run.
        ctx.keyset.drop_spectrum_cache()
        with obs.telemetry() as (registry, _tracer):
            programmable_bootstrap_batch(
                [cts[r] for r in shards[0]], tp, ctx.keyset
            )
            cold_forward = registry.get("transforms_fft_total").value(
                direction="forward"
            )

        # Warm reference per shard: the table is cached, only the
        # steady-state per-sample transforms run.
        expected = []
        for rows in shards:
            with obs.telemetry() as (registry, _tracer):
                programmable_bootstrap_batch(
                    [cts[r] for r in rows], tp, ctx.keyset
                )
                fft_total = registry.get("transforms_fft_total")
                expected.append((
                    fft_total.value(direction="forward"),
                    fft_total.value(direction="inverse"),
                ))
        assert cold_forward > expected[0][0]

        with BootstrapPool(
            ctx.keyset, workers=2, telemetry_dir=str(tmp_path)
        ) as pool:
            pool.bootstrap_batch(cts, tp)
            stats = pool.worker_stats()

        for i, (fwd, inv) in enumerate(expected):
            worker = stats[f"w{i}"]
            # Exactly the warm per-shard cost, strictly below the cold
            # cost: the workers mapped the driver's table instead of
            # re-running the pre-transform.
            assert worker["fft_forward"] == fwd
            assert worker["fft_inverse"] == inv
            assert worker["fft_forward"] < cold_forward
            assert worker["bootstraps"] == len(shards[i])

    def test_unknown_backend_fails_with_available_list(self, ctx):
        with pytest.raises(ValueError, match="available backends"):
            BootstrapPool(ctx.keyset, workers=2, backend="not-a-backend")

    def test_pool_runs_radix2_backend(self, ctx, workload, radix2_backend):
        # Forked lanes inherit the driver's registry, test-only entries too.
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=2, backend=radix2_backend) as pool:
            assert pool.backend == radix2_backend
            out = pool.bootstrap_batch(cts, tp)
        _assert_same(ref, out)


class TestFleetTelemetry:
    def test_shards_aggregate_into_one_trace(self, ctx, workload, tmp_path):
        _, cts, tp = workload
        jobs = 2
        with BootstrapPool(
            ctx.keyset, workers=2, telemetry_dir=str(tmp_path)
        ) as pool:
            for _ in range(jobs):
                pool.bootstrap_batch(cts, tp)

        report = aggregate_shards(discover_shards(str(tmp_path)))
        assert sorted(report.workers) == ["driver", "w0", "w1"]
        assert report.lost_workers == []

        # One causally-linked trace: every span in every shard shares the
        # driver's root trace id, and the root is the pool submit span.
        spans = [e for e in report.events
                 if e.kind == "span" and e.trace_id is not None]
        assert spans
        assert len({s.trace_id for s in spans}) == 1
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["pool/submit"]

        # Exact fleet percentiles: the merged sketch holds every
        # request observation (each batched call is count-weighted by
        # its shard size), so the count is exactly jobs * batch.
        assert report.sketch.count == jobs * len(cts)
        for q, value in report.quantiles().items():
            assert value is not None and value > 0.0

    def test_workload_announce_names_backend(self, ctx, workload, tmp_path):
        _, cts, tp = workload
        with BootstrapPool(
            ctx.keyset, workers=1, telemetry_dir=str(tmp_path)
        ) as pool:
            pool.bootstrap_batch(cts, tp)
        report = aggregate_shards(discover_shards(str(tmp_path)))
        announces = [e for e in report.events
                     if e.kind == "workload" and e.name == "pool/run"]
        assert len(announces) == 1
        assert announces[0].fields["backend"] == "numpy"
        requests = [e for e in report.events
                    if e.kind == "request" and e.worker == "w0"]
        assert requests
        assert all(e.fields.get("backend") == "numpy" for e in requests)


    def test_telemetry_pool_keeps_callers_telemetry(self, ctx, workload, tmp_path):
        """Inside a caller's telemetry block the pool neither wipes what
        the caller recorded nor switches telemetry off when it closes."""
        _, cts, tp = workload
        with obs.telemetry():
            obs.COUNTERS.add_ops("caller/probe", 5)
            with BootstrapPool(
                ctx.keyset, workers=1, telemetry_dir=str(tmp_path)
            ) as pool:
                pool.bootstrap_batch(cts[:2], tp)
            assert obs.COUNTERS.ops("caller/probe") == 5
            assert obs.is_enabled()
        assert not obs.is_enabled()


class TestLifecycleHygiene:
    def test_no_segment_leak_on_clean_shutdown(self, ctx, workload):
        _, cts, tp = workload
        before = leaked_segments()
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            pool.bootstrap_batch(cts, tp)
            assert len(leaked_segments()) == len(before) + 1
        assert leaked_segments() == before

    def test_sigkill_drill_unlinks_segment(self, ctx, workload):
        """A lane SIGKILLed mid-run (the fleet_demo drill pattern) is
        detected and the shared segment is still unlinked."""
        _, cts, tp = workload
        before = leaked_segments()
        pool = BootstrapPool(ctx.keyset, workers=2, kill_after_jobs={1: 1})
        pool.start()
        pool.bootstrap_batch(cts, tp)  # lane 1 completes, flushes, dies
        with pytest.raises(PoolWorkerLost) as info:
            pool.bootstrap_batch(cts, tp)
        assert info.value.worker_id == "w1"
        assert leaked_segments() == before
        pool.close()  # idempotent after the crash path already closed

    def test_start_after_close_rejected(self, ctx):
        pool = BootstrapPool(ctx.keyset, workers=1)
        pool.start()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.start()

    def test_invalid_configuration_rejected(self, ctx):
        with pytest.raises(ValueError, match="workers"):
            BootstrapPool(ctx.keyset, workers=0)
        with pytest.raises(ValueError, match="precision"):
            BootstrapPool(ctx.keyset, precision="half")
