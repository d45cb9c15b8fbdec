"""Benchmark guard: disabled telemetry must cost < 5% on gate bootstraps.

Telemetry has one switch, ``BUS.enabled``, and every instrumented site
guards itself with a single read of it and a branch, so with telemetry
off the code path is the uninstrumented one plus those checks.  This
bench verifies the guarantee two ways on a gate-bootstrap loop (the
hottest functional path: ``n`` CMux iterations, each several batched
FFTs):

1. *Analytic bound*: count the enabled-checks one gate bootstrap actually
   performs (by swapping in a probe bus class whose ``enabled`` attribute
   is a counting property that still reports False), measure the
   per-check cost in a tight loop, and assert
   ``checks x cost_per_check < 5%`` of the measured bootstrap time.
2. *A/B sanity*: time the loop with telemetry disabled vs enabled and
   print both (informational - wall-clock A/B on equal code paths is too
   noisy to gate on, the analytic bound is the contract).

Run directly (``python benchmarks/bench_observability_overhead.py``) or
via pytest.
"""

import time
import tracemalloc

import numpy as np

from repro import TEST_PARAMS, observability as obs
from repro.observability.bus import TelemetryBus
from repro.observability.registry import MetricsRegistry
from repro.tfhe import TfheContext
from repro.tfhe.gatebootstrap import encrypt_bool, nand_gate

MAX_DISABLED_OVERHEAD = 0.05


class _ProbeBus(TelemetryBus):
    """Telemetry bus whose ``enabled`` read is counted (always False).

    ``BUS.enabled`` is the one telemetry switch, so its reads are every
    enabled-check the instrumented code performs.
    """

    checks = 0

    @property
    def enabled(self):
        _ProbeBus.checks += 1
        return False

    @enabled.setter
    def enabled(self, value):
        pass


def _count_enabled_checks(run_once) -> int:
    """How many telemetry enabled-checks one gate bootstrap performs."""
    _ProbeBus.checks = 0
    obs.BUS.__class__ = _ProbeBus
    try:
        run_once()
        return _ProbeBus.checks
    finally:
        obs.BUS.__class__ = TelemetryBus
        obs.BUS.enabled = False


def _per_check_seconds(iterations: int = 200_000) -> float:
    """Cost of one disabled-counter update (the whole disabled hot path)."""
    counter = MetricsRegistry().counter("probe_total")
    start = time.perf_counter()
    for _ in range(iterations):
        counter.inc()
    return (time.perf_counter() - start) / iterations


def _time_loop(run_once, repeats: int = 3, loops: int = 4) -> float:
    """Best-of-``repeats`` seconds per call for a ``loops``-long run."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            run_once()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def test_disabled_instrumentation_overhead_under_5_percent():
    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    rng = np.random.default_rng(42)
    a = encrypt_bool(1, ctx.keyset, rng)
    b = encrypt_bool(0, ctx.keyset, rng)

    def one_gate_bootstrap():
        nand_gate(a, b, ctx.keyset)

    obs.disable()
    checks = _count_enabled_checks(one_gate_bootstrap)
    per_check = _per_check_seconds()
    disabled = _time_loop(one_gate_bootstrap)

    overhead = checks * per_check
    fraction = overhead / disabled
    obs.enable()
    try:
        enabled = _time_loop(one_gate_bootstrap)
    finally:
        obs.disable()
        obs.reset()

    print(
        f"\n  gate bootstrap: {disabled * 1e3:.2f} ms telemetry-off, "
        f"{enabled * 1e3:.2f} ms telemetry-on\n"
        f"  enabled-checks/bootstrap: {checks}, "
        f"{per_check * 1e9:.0f} ns/check -> "
        f"{fraction:.3%} of the disabled run (limit {MAX_DISABLED_OVERHEAD:.0%})"
    )
    assert checks > 0, "instrumentation sites vanished - nothing was measured"
    assert fraction < MAX_DISABLED_OVERHEAD


def test_disabled_counters_allocate_nothing_on_simulator_hot_path():
    """With the perf counters off the simulator must not touch them at all.

    Stronger than the timing bound: ``tracemalloc`` filtered to the
    counters module proves the disabled path allocates *zero* objects
    there across a full simulator run - the single read-and-branch
    discipline, enforced.
    """
    from repro.core.accelerator import MorphlingConfig
    from repro.core.simulator import simulate_bootstrap
    from repro.params import get_params

    config, params = MorphlingConfig(), get_params("I")
    simulate_bootstrap(config, params)  # warm caches outside the trace
    obs.disable()
    counters_file = obs.COUNTERS.__class__.__module__.replace(".", "/")
    tracemalloc.start()
    try:
        simulate_bootstrap(config, params)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, f"*{counters_file.rsplit('/', 1)[-1]}.py")]
    ).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled perf counters allocated {blocks} blocks: {stats}"
    )


def test_disabled_noise_tracker_allocates_nothing_on_gate_path():
    """With tracking off the tfhe gate path must not touch the tracker.

    Same contract as the counters: ``tracemalloc`` filtered to the noise
    module proves a full gate bootstrap (encrypt -> linear ops ->
    bootstrap -> decode) allocates *zero* objects there while disabled.
    """
    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    x, y = ctx.encrypt(1), ctx.encrypt(0)
    ctx.decrypt(ctx.gate("nand", x, y))  # warm caches outside the trace
    obs.disable()
    tracemalloc.start()
    try:
        ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*observability/noise.py")]
    ).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled noise tracker allocated {blocks} blocks: {stats}"
    )


def test_disabled_bus_allocates_nothing_on_gate_and_simulator_paths():
    """With the bus off, neither hot path may allocate in bus.py.

    The publish hooks live inside the recorders' already-enabled paths
    plus a handful of direct ``if _BUS.enabled`` sites (batched
    bootstrap, simulator/scheduler reports) - with telemetry disabled
    none of them may construct an event, take the lock, or touch a
    subscriber tuple.
    """
    from repro.core.accelerator import MorphlingConfig
    from repro.core.simulator import simulate_bootstrap
    from repro.params import get_params

    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    config, params = MorphlingConfig(), get_params("I")
    ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))  # warm
    simulate_bootstrap(config, params)  # warm
    obs.disable()
    tracemalloc.start()
    try:
        ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
        simulate_bootstrap(config, params)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*observability/bus.py")]
    ).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, f"disabled bus allocated {blocks} blocks: {stats}"


def test_disabled_flight_recorder_allocates_nothing():
    """With telemetry off the always-subscribed recorder is never entered.

    The recorder stays subscribed to the bus at all times ("always-on");
    the bus calls subscribers only while it is on, so prove the whole
    workload run allocates zero blocks in flightrec.py with telemetry
    off (the common production state).
    """
    from repro.core.accelerator import MorphlingConfig
    from repro.core.scheduler import LayerDemand, run_workload
    from repro.params import get_params

    config, params = MorphlingConfig(), get_params("I")
    layers = [LayerDemand("bench", bootstraps=128)]
    run_workload(config, params, layers)  # warm caches outside the trace
    obs.disable()
    tracemalloc.start()
    try:
        run_workload(config, params, layers)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*observability/flightrec.py")]
    ).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled flight recorder allocated {blocks} blocks: {stats}"
    )


def test_disabled_slo_instrumentation_allocates_nothing():
    """With telemetry off the request-latency sites must stay untouched.

    The SLO engine adds quantile-metric observes and ``"request"`` bus
    publishes to the scheduler, simulator and tfhe bootstrap hot paths -
    all behind the same single read-and-branch.  ``tracemalloc`` filtered
    to sketch.py and slo.py proves a full scheduled workload plus a
    batched bootstrap allocates *zero* objects in either module while
    disabled - even with an (idle, detached-bus) monitor constructed.
    """
    from repro.core.accelerator import MorphlingConfig
    from repro.core.scheduler import LayerDemand, run_workload
    from repro.observability.slo import SLORegistry
    from repro.params import get_params

    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    config, params = MorphlingConfig(), get_params("I")
    layers = [LayerDemand("bench", bootstraps=128)]
    run_workload(config, params, layers)  # warm caches outside the trace
    ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))  # warm
    slos = SLORegistry()
    slos.latency("p99", 0.99, 1.0)
    obs.disable()
    tracemalloc.start()
    try:
        run_workload(config, params, layers)
        ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces([
        tracemalloc.Filter(True, "*observability/sketch.py"),
        tracemalloc.Filter(True, "*observability/slo.py"),
    ]).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled SLO instrumentation allocated {blocks} blocks: {stats}"
    )


def test_disabled_trace_context_allocates_nothing_on_hot_paths():
    """The distributed-identity stamp must be free while telemetry is off.

    The bus consults :mod:`repro.observability.context` (ambient trace
    context + worker id) only *after* its ``enabled`` check passed, and
    the tracer resolves its span context behind the same branch -
    ``tracemalloc`` filtered to context.py and distrib.py proves a gate
    bootstrap plus a simulator run allocates *zero* objects in either
    module while disabled, even inside an active trace context.
    """
    from repro.core.accelerator import MorphlingConfig
    from repro.core.simulator import simulate_bootstrap
    from repro.observability import context
    from repro.params import get_params

    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    config, params = MorphlingConfig(), get_params("I")
    ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))  # warm
    simulate_bootstrap(config, params)  # warm
    root = context.start_trace()  # allocated outside the trace window
    obs.disable()
    with context.use_context(root):
        tracemalloc.start()
        try:
            ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
            simulate_bootstrap(config, params)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    stats = snapshot.filter_traces([
        tracemalloc.Filter(True, "*observability/context.py"),
        tracemalloc.Filter(True, "*observability/distrib.py"),
    ]).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled trace-context stamping allocated {blocks} blocks: {stats}"
    )


def test_counter_recording_is_deterministic_across_runs():
    """Two identical simulator runs must produce byte-identical digests."""
    from repro.core.accelerator import MorphlingConfig
    from repro.core.simulator import simulate_bootstrap
    from repro.params import get_params

    config, params = MorphlingConfig(), get_params("II")
    digests = []
    for _ in range(2):
        with obs.telemetry():
            simulate_bootstrap(config, params)
            digests.append(obs.COUNTERS.digest())
    assert digests[0] == digests[1]


if __name__ == "__main__":
    test_disabled_instrumentation_overhead_under_5_percent()
    test_disabled_counters_allocate_nothing_on_simulator_hot_path()
    test_disabled_noise_tracker_allocates_nothing_on_gate_path()
    test_disabled_bus_allocates_nothing_on_gate_and_simulator_paths()
    test_disabled_flight_recorder_allocates_nothing()
    test_disabled_slo_instrumentation_allocates_nothing()
    test_disabled_trace_context_allocates_nothing_on_hot_paths()
    test_counter_recording_is_deterministic_across_runs()
    print("overhead guard: OK")
