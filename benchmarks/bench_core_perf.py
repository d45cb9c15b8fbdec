"""Core performance benchmarks for the regression harness.

One entry per canonical (configuration, parameter set) pair: throughput,
latency, bottleneck, scheduler shape, and the perf-counter digest of the
simulated steady-state group.  With ``--bench-json`` the session writes
them to a schema-versioned document that CI diffs against the committed
baseline (``baselines/BENCH_core.json``) via ``check_bench_regression.py``
- the digest catches *any* silent change to the modelled work, while the
tolerance-checked float metrics allow benign numeric noise.
"""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.simulator import simulate_bootstrap
from repro import observability as obs
from repro.params import get_params

_CONFIGS = {
    "morphling": MorphlingConfig.morphling,
    "no-reuse": MorphlingConfig.no_reuse,
    "input-reuse": MorphlingConfig.input_reuse,
}

#: The canonical config x params grid the baseline pins down: the shipped
#: build across every Table III set, plus the Fig. 7-b ablation variants
#: on the 128-bit set III.
CANONICAL_PAIRS = [
    ("morphling", "I"),
    ("morphling", "II"),
    ("morphling", "III"),
    ("morphling", "IV"),
    ("no-reuse", "III"),
    ("input-reuse", "III"),
]


@pytest.mark.parametrize("config_name,param_set", CANONICAL_PAIRS)
def test_core_perf(config_name, param_set, bench_record):
    config = _CONFIGS[config_name]()
    params = get_params(param_set)
    with obs.telemetry():
        report = simulate_bootstrap(config, params)
        digest = obs.COUNTERS.digest()

    assert report.throughput_bs > 0
    assert report.bootstrap_latency_s > 0
    assert report.group_size >= 1

    bench_record(
        f"{config_name}@{param_set}",
        throughput_bs=report.throughput_bs,
        bootstrap_latency_ms=report.bootstrap_latency_ms,
        bottleneck=report.bottleneck,
        group_size=report.group_size,
        acc_streams=report.acc_streams,
        bsk_reuse=report.bsk_reuse,
        ksk_reuse=report.ksk_reuse,
        counters_digest=digest,
    )
