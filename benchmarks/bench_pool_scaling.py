"""Multi-worker pool scaling bench (``repro.pool``).

Measures sharded batch-16 bootstrap throughput at 1/2/4 workers against
the single-process baseline, using the real :class:`BootstrapPool`
(shared-memory BSK spectrum, forked lanes, ordered reassembly).

Two modes, so the committed scaling floors are enforced exactly where
they are meaningful:

- **enforcing** (default, the bench machine): with >= 4 CPUs the
  2-worker and 4-worker scaling ratios must meet ``SCALING_FLOORS`` and
  are recorded as ``scaling_workers<N>`` for the baseline checker
  (which treats ``scaling_*`` as conditional floors);
- **informational** (``REPRO_BENCH_INFORMATIONAL=1``, or machines with
  fewer CPUs than a row's worker count): throughput is still recorded
  (``workers<N>_bootstraps_per_s`` are ``_per_s`` trend metrics) but
  the unenforceable ``scaling_*`` values are recorded as ``null`` so
  the checker reports a note instead of a bogus violation.

The CI ``pool-scaling`` job runs this in informational mode (shared
runners make no scaling promises); the committed floors in
``baselines/BENCH_tfhe.json`` bind on the bench machine.

``test_set1_pool_scaling`` records ``tfhe_pool@I`` on secure set I with
the interleaved median + IQR method of :mod:`benchmarks.timing`; its
floor is set against the pool's own 1-lane rate.
"""

import os

import numpy as np

from benchmarks.timing import TRIALS, interleaved_walls, median_iqr
from repro import TfheContext
from repro.params import PARAM_SETS
from repro.pool import BootstrapPool, leaked_segments, run_pool_scaling
from repro.tfhe.bootstrap import programmable_bootstrap_batch

WORKER_COUNTS = (1, 2, 4)

#: Minimum scaling ratio (pool throughput / single-process throughput)
#: per worker count, enforced when the machine can parallelize.
SCALING_FLOORS = {2: 1.5, 4: 2.5}


def _informational() -> bool:
    return os.environ.get("REPRO_BENCH_INFORMATIONAL", "") not in ("", "0")


def test_pool_scaling_throughput(bench_record):
    """1/2/4-worker sharded batch-16 throughput, floors where enforceable."""
    result = run_pool_scaling(
        param_set="test", workers=WORKER_COUNTS, batch=16, rounds=3,
    )
    assert leaked_segments() == [], "pool leaked shared-memory segments"

    cpus = os.cpu_count() or 1
    informational = _informational()
    metrics = {
        "backend": result.backend,
        "pool_batch": result.batch,
        "single_bootstraps_per_s": round(result.single_bootstraps_per_s, 2),
    }
    for entry in result.entries:
        n = entry["workers"]
        scaling = entry["scaling"]
        metrics[f"workers{n}_bootstraps_per_s"] = round(
            entry["bootstraps_per_s"], 2
        )
        enforceable = (not informational) and cpus >= n
        floor = SCALING_FLOORS.get(n)
        if floor is not None:
            # Only floored counts get a scaling_* metric: a floorless
            # measured ratio in the baseline would act as an accidental
            # floor on the bench machine.
            metrics[f"scaling_workers{n}"] = (
                round(scaling, 2) if enforceable else None
            )
        if enforceable and floor is not None:
            assert scaling >= floor, (
                f"{n}-worker pool only {scaling:.2f}x the single process "
                f"({entry['bootstraps_per_s']:.1f} vs "
                f"{result.single_bootstraps_per_s:.1f} bootstraps/s) - "
                f"floor is {floor}x"
            )
    bench_record("tfhe_pool@test", **metrics)


#: Set-I floor on 2-lane throughput over the pool's *own* 1-lane rate
#: (not a separately timed single process, so pool overheads cancel).
SET_I_SCALING_FLOOR = 1.3


def test_set1_pool_scaling(bench_record):
    """Set-I 1- and 2-lane pool throughput, median + IQR over interleaved trials.

    Both pools stay up for the whole measurement and every trial runs
    the single process, the 1-lane pool and the 2-lane pool once each.
    ``scaling_workers2`` is the median of the per-trial ratios of the
    2-lane to the 1-lane rate, floored where the machine has 2 CPUs.
    """
    batch = 16
    ctx = TfheContext.create(PARAM_SETS["I"], seed=3)
    rng = np.random.default_rng(3)
    messages = [int(m) for m in rng.integers(0, 4, size=batch)]
    cts = [ctx.encrypt(m, 8) for m in messages]
    tp = ctx._lut_test_poly(lambda x: x, 8)
    ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)  # warms the table

    with BootstrapPool(ctx.keyset, workers=1) as one, \
            BootstrapPool(ctx.keyset, workers=2) as two:
        for pool in (one, two):  # warm every lane and check it bit for bit
            for got, want in zip(pool.bootstrap_batch(cts, tp), ref):
                assert np.array_equal(got.a, want.a) and got.b == want.b
        walls = interleaved_walls({
            "single": lambda: programmable_bootstrap_batch(cts, tp, ctx.keyset),
            "workers1": lambda: one.bootstrap_batch(cts, tp),
            "workers2": lambda: two.bootstrap_batch(cts, tp),
        })
        backend = one.backend
    assert leaked_segments() == [], "pool leaked shared-memory segments"
    assert [ctx.decrypt(out, 8) for out in ref] == messages

    cpus = os.cpu_count() or 1
    scaling = float(np.median(walls["workers1"] / walls["workers2"]))
    enforceable = (not _informational()) and cpus >= 2
    if enforceable:
        assert scaling >= SET_I_SCALING_FLOOR, (
            f"2-lane pool only {scaling:.2f}x its own 1-lane rate on set I - "
            f"floor is {SET_I_SCALING_FLOOR}x"
        )
    metrics = {
        "backend": backend,
        "pool_batch": batch,
        "trials": TRIALS,
        "cpu_count": cpus,
        "scaling_workers2": round(scaling, 2) if enforceable else None,
    }
    for name, wall in walls.items():
        rate, iqr = median_iqr(batch / wall)
        metrics[f"{name}_bootstraps_per_s"] = round(rate, 2)
        metrics[f"{name}_iqr_bootstraps_per_s"] = round(iqr, 2)
    bench_record("tfhe_pool@I", **metrics)
