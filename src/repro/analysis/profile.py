"""Bottleneck-attribution profiler built on the perf-counter subsystem.

``collect_profile`` runs one steady-state bootstrap group with the
:mod:`repro.observability.counters` bank enabled and condenses what the
counters saw into a single schema-versioned report:

- **utilization** per overlapped group resource (XPU compute, BSK
  bandwidth, VPU compute, KSK bandwidth) - busy seconds over the group
  time, so the bottleneck row reads 1.0;
- **stage cycles and occupancy** inside the XPU pipeline and the VPU,
  the paper's Fig. 7-a component view at counter granularity;
- **per-HBM-channel traffic** and the sampled buffer high-water marks;
- **roofline position** of the two big stages at the achieved reuse
  factors (:mod:`repro.analysis.roofline`);
- **what-if estimates**: each candidate upgrade (2x XPU HBM bandwidth,
  2x FFT units, ...) is priced by *actually re-running the simulator*
  with the perturbed configuration - no analytical shortcut that could
  drift from the model - and reported as a speedup over the baseline;
- the counter **digest**, the fingerprint the benchmark-regression
  harness compares across commits.

The report is a plain dataclass: ``repro profile --json`` serializes it
with the shared :func:`repro.observability.to_jsonable` exporter, and
``schema_version`` gates consumers the same way the bench harness does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import observability as obs
from ..core.accelerator import MorphlingConfig
from ..core.simulator import SimulationReport, simulate_bootstrap
from ..params import TFHEParams
from .roofline import machine_balance, workload_points

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "WhatIf",
    "BootstrapProfile",
    "what_if_catalog",
    "collect_profile",
]

#: Bump on any incompatible change to :class:`BootstrapProfile`'s JSON shape.
PROFILE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class WhatIf:
    """One candidate upgrade, priced by re-running the perturbed simulator."""

    name: str
    description: str
    overrides: Dict[str, Any]
    baseline_throughput_bs: float
    throughput_bs: float
    speedup: float
    bottleneck_before: str
    bottleneck_after: str


@dataclass(frozen=True)
class BootstrapProfile:
    """Schema-versioned bottleneck-attribution report for one run."""

    schema_version: int
    config_name: str
    params_name: str
    clock_ghz: float
    throughput_bs: float
    bootstrap_latency_ms: float
    bottleneck: str
    group_size: int
    acc_streams: int
    bsk_reuse: int
    ksk_reuse: int
    group_time_s: float
    utilization: Dict[str, float]
    latency_fractions: Dict[str, float]
    xpu_stage_cycles: Dict[str, float]
    xpu_occupancy: Dict[str, float]
    vpu_stage_cycles: Dict[str, float]
    hbm_channel_bytes: Dict[str, float]
    hbm_channel_utilization: Dict[str, float]
    noc_hops: Dict[str, float]
    buffer_watermarks: Dict[str, float]
    rotator_ops: Dict[str, float]
    roofline_balance: Dict[str, float]
    roofline_points: List[Dict[str, Any]]
    counters_digest: str
    what_ifs: List[WhatIf] = field(default_factory=list)

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Human-readable report (the default ``repro profile`` output)."""
        lines = [
            f"profile: {self.config_name} @ set {self.params_name} "
            f"({self.clock_ghz:g} GHz)",
            f"  throughput        : {self.throughput_bs:,.0f} bootstraps/s",
            f"  bootstrap latency : {self.bootstrap_latency_ms:.3f} ms",
            f"  scheduler group   : {self.group_size} ciphertexts "
            f"({self.acc_streams} streams, BSK/KSK reuse "
            f"{self.bsk_reuse}x/{self.ksk_reuse}x)",
            f"  bottleneck        : {self.bottleneck}",
            "  resource utilization (of group time):",
        ]
        for name, util in self.utilization.items():
            marker = "  <- bottleneck" if name == self.bottleneck else ""
            lines.append(f"    {name:16s} {util:7.1%}{marker}")
        lines.append("  XPU pipeline occupancy (of the iteration interval):")
        for stage, occ in self.xpu_occupancy.items():
            lines.append(f"    {stage:16s} {occ:7.1%}")
        lines.append("  roofline:")
        for point in self.roofline_points:
            regime = "compute-bound" if point["compute_bound"] else "memory-bound"
            lines.append(
                f"    {str(point['name']):16s} "
                f"{float(point['ops_per_byte']):10.1f} ops/B  ({regime})"
            )
        if self.what_ifs:
            lines.append("  what-if (simulator re-run with the perturbed config):")
            for wi in self.what_ifs:
                shift = (
                    ""
                    if wi.bottleneck_after == wi.bottleneck_before
                    else f", bottleneck -> {wi.bottleneck_after}"
                )
                lines.append(
                    f"    {wi.name:16s} {wi.speedup:5.2f}x  "
                    f"({wi.description}{shift})"
                )
        lines.append(f"  counters digest   : {self.counters_digest[:16]}...")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def what_if_catalog(config: MorphlingConfig) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Candidate upgrades as ``(name, description, config overrides)``.

    Channel-count doublings keep the *other* group's bandwidth constant
    by doubling the stack bandwidth and channel count together with the
    target group's share (integral for any starting split), so each
    what-if isolates exactly one resource.
    """
    return [
        (
            "xpu_hbm_2x",
            "2x XPU HBM bandwidth, VPU bandwidth unchanged",
            {
                "hbm_bandwidth_gbs": config.hbm_bandwidth_gbs * 2,
                "hbm_channels": config.hbm_channels * 2,
                "xpu_hbm_channels": config.xpu_hbm_channels * 2,
            },
        ),
        (
            "vpu_hbm_2x",
            "2x VPU HBM bandwidth, XPU bandwidth unchanged",
            {
                "hbm_bandwidth_gbs": config.hbm_bandwidth_gbs * 2,
                "hbm_channels": config.hbm_channels * 2,
                "vpu_hbm_channels": config.vpu_hbm_channels * 2,
            },
        ),
        (
            "fft_units_2x",
            "2x FFT and IFFT units per XPU",
            {
                "fft_units_per_xpu": config.fft_units_per_xpu * 2,
                "ifft_units_per_xpu": config.ifft_units_per_xpu * 2,
            },
        ),
        (
            "vpu_macs_2x",
            "2x VPU MAC throughput",
            {"vpu_lanes_per_group": config.vpu_lanes_per_group * 2},
        ),
        (
            "clock_1p5x",
            "1.5x core clock, memory system unchanged",
            {"clock_ghz": config.clock_ghz * 1.5},
        ),
        (
            "a1_2x",
            "2x Private-A1 capacity and stream cap",
            {
                "private_a1_bytes": config.private_a1_bytes * 2,
                "max_acc_streams": config.max_acc_streams * 2,
            },
        ),
    ]


def _evaluate_what_ifs(
    config: MorphlingConfig,
    params: TFHEParams,
    baseline: SimulationReport,
) -> List[WhatIf]:
    results: List[WhatIf] = []
    for name, description, overrides in what_if_catalog(config):
        perturbed = simulate_bootstrap(config.with_overrides(**overrides), params)
        results.append(
            WhatIf(
                name=name,
                description=description,
                overrides=dict(overrides),
                baseline_throughput_bs=baseline.throughput_bs,
                throughput_bs=perturbed.throughput_bs,
                speedup=perturbed.throughput_bs / baseline.throughput_bs,
                bottleneck_before=baseline.bottleneck,
                bottleneck_after=perturbed.bottleneck,
            )
        )
    return results


def collect_profile(
    config: Optional[MorphlingConfig] = None,
    params: Optional[TFHEParams] = None,
    what_ifs: bool = True,
) -> BootstrapProfile:
    """Profile one steady-state group of ``config`` running ``params``.

    Runs the simulator once under :func:`repro.observability.telemetry`
    (every recorder is cleared first and the switch restored after), then
    optionally prices the what-if catalog outside that block so the
    perturbed re-runs cannot contaminate the baseline's counter digest.
    """
    if config is None:
        config = MorphlingConfig()
    if params is None:
        from ..params import get_params

        params = get_params("I")

    with obs.telemetry():
        report = simulate_bootstrap(config, params)
        snapshot = obs.COUNTERS.snapshot()
        digest = obs.COUNTERS.digest()

    times = report.resource_times()
    group_time = report.group_time_s
    utilization = {k: v / group_time for k, v in times.items()}

    cycles: Dict[str, float] = snapshot["cycles"]
    xpu_stage_cycles = {
        key.split("/", 2)[2]: value
        for key, value in cycles.items()
        if key.startswith("xpu/stage/")
    }
    vpu_stage_cycles = {
        key.split("/", 2)[2]: value
        for key, value in cycles.items()
        if key.startswith("vpu/stage/")
    }
    hbm_channel_bytes = {
        key: value
        for key, value in snapshot["bytes"].items()
        if key.startswith("hbm/channel/")
    }
    noc_hops = {
        key.split("/", 2)[2]: value
        for key, value in snapshot["ops"].items()
        if key.startswith("noc/hops/")
    }
    rotator_ops = {
        key: value
        for key, value in snapshot["ops"].items()
        if key.startswith("rotator/")
    }
    watermarks: Dict[str, float] = snapshot["watermarks"]
    buffer_watermarks = {
        key.split("/", 1)[1]: value
        for key, value in watermarks.items()
        if key.startswith("buffer/")
    }
    hbm_channel_utilization = {
        key.rsplit("/", 1)[0]: value
        for key, value in watermarks.items()
        if key.startswith("hbm/channel/") and key.endswith("/utilization")
    }

    points = [
        {
            "name": p.name,
            "ops_per_byte": p.ops_per_byte,
            "compute_bound": p.compute_bound,
        }
        for p in workload_points(
            config, params, bsk_reuse=report.bsk_reuse, ksk_reuse=report.ksk_reuse
        )
    ]

    return BootstrapProfile(
        schema_version=PROFILE_SCHEMA_VERSION,
        config_name=report.config_name,
        params_name=report.params_name,
        clock_ghz=report.clock_ghz,
        throughput_bs=report.throughput_bs,
        bootstrap_latency_ms=report.bootstrap_latency_ms,
        bottleneck=report.bottleneck,
        group_size=report.group_size,
        acc_streams=report.acc_streams,
        bsk_reuse=report.bsk_reuse,
        ksk_reuse=report.ksk_reuse,
        group_time_s=report.group_time_s,
        utilization=utilization,
        latency_fractions=report.latency_fractions(),
        xpu_stage_cycles=xpu_stage_cycles,
        xpu_occupancy=report.iteration.occupancy(),
        vpu_stage_cycles=vpu_stage_cycles,
        hbm_channel_bytes=hbm_channel_bytes,
        hbm_channel_utilization=hbm_channel_utilization,
        noc_hops=noc_hops,
        buffer_watermarks=buffer_watermarks,
        rotator_ops=rotator_ops,
        roofline_balance=machine_balance(config),
        roofline_points=points,
        counters_digest=digest,
        what_ifs=_evaluate_what_ifs(config, params, report) if what_ifs else [],
    )
