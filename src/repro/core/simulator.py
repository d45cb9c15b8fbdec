"""Cycle-level performance simulator of the full Morphling accelerator.

The simulator composes the stage models - XPU pipeline, VPU, buffers, HBM
channel groups - into steady-state bootstrap throughput and single-shot
latency, mirroring how the paper's cycle-accurate simulator is used in
Section VI:

1. The Private-A1 capacity fixes how many ciphertext *streams* stay
   resident (:func:`repro.core.buffers.acc_stream_capacity`); with
   ``vpe_rows`` ciphertexts per XPU and ``num_xpus`` XPUs that defines
   the scheduler's group (64 for the default build) and the BSK/KSK
   reuse factors.
2. One group costs the *max* of four overlapped busy times: XPU compute,
   BSK streaming over the XPU HBM channels, VPU post-processing, and
   KSK/ciphertext traffic over the VPU channels.  Throughput is
   group size / group time; the slowest resource is the bottleneck.
3. Single-bootstrap latency is the serial walk MS -> BR -> SE -> KS.

Validation: the model reproduces all four Table V rows within a few
percent (see EXPERIMENTS.md); every other experiment reuses it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observability import (
    BUS as _BUS,
    COUNTERS as _COUNTERS,
    REGISTRY as _METRICS,
    TRACER as _TRACER,
)
from ..params import TFHEParams
from .accelerator import MorphlingConfig
from .buffers import A1_STREAM_OVERHEAD, acc_stream_capacity, buffer_budget
from .hbm import HbmModel, TrafficBreakdown
from .noc import NocModel
from .reuse import bsk_reuse_factor, transforms_per_bootstrap
from .vpu import VpuModel, VpuStageCycles
from .xpu import IterationBreakdown, XpuModel

__all__ = ["SimulationReport", "MorphlingSimulator", "simulate_bootstrap"]

_SIM_RUNS = _METRICS.counter(
    "sim_runs_total", "Simulator runs executed, by parameter set"
)
_SIM_GROUPS = _METRICS.counter(
    "sim_groups_total", "Scheduler groups formed by the simulator"
)
_SIM_BOOTSTRAPS = _METRICS.counter(
    "sim_bootstraps_total", "Bootstraps accounted by the performance simulator"
)
_SIM_TRANSFORMS = _METRICS.counter(
    "sim_transforms_total",
    "Domain transforms the modelled group performs, by direction",
)
_SIM_BOTTLENECK = _METRICS.counter(
    "sim_bottleneck_total", "Group-time bottleneck decisions, by resource"
)
_SIM_GROUP_SIZE = _METRICS.gauge(
    "sim_group_size", "Ciphertexts per scheduler group in the last run"
)
_SIM_ACC_STREAMS = _METRICS.gauge(
    "sim_acc_streams", "Resident ACC streams per XPU in the last run"
)
_SIM_BOOTSTRAP_LATENCY = _METRICS.quantile(
    "sim_bootstrap_latency_seconds",
    "Modelled single-bootstrap latency, by config and parameter set",
)


@dataclass(frozen=True)
class SimulationReport:
    """Everything one simulation run produces."""

    config_name: str
    params_name: str
    bootstrap_latency_s: float
    throughput_bs: float
    bottleneck: str
    group_size: int
    acc_streams: int
    bsk_reuse: int
    ksk_reuse: int
    group_time_s: float
    xpu_busy_s: float
    bsk_transfer_s: float
    vpu_busy_s: float
    ksk_transfer_s: float
    iteration: IterationBreakdown
    vpu_stages: VpuStageCycles
    traffic: TrafficBreakdown
    clock_ghz: float = 1.2

    @property
    def bootstrap_latency_ms(self) -> float:
        return self.bootstrap_latency_s * 1e3

    def resource_times(self) -> dict:
        """Busy seconds of the four overlapped group resources."""
        return {
            "xpu_compute": self.xpu_busy_s,
            "bsk_bandwidth": self.bsk_transfer_s,
            "vpu_compute": self.vpu_busy_s,
            "ksk_bandwidth": self.ksk_transfer_s,
        }

    def latency_fractions(self) -> dict:
        """Aggregate time share per component over one group (Fig. 7-a).

        XPU vs the three VPU stages; shares are of busy time, matching
        the paper's component breakdown.  VPU stage cycles convert to
        seconds at the simulated clock so the shares stay correct for
        any ``clock_ghz`` (``xpu_busy_s`` is already real seconds).
        """
        clock_hz = self.clock_ghz * 1e9
        vpu = self.vpu_stages
        ms = self.group_size * vpu.modulus_switch / clock_hz
        se = self.group_size * vpu.sample_extract / clock_hz
        ks = self.group_size * vpu.key_switch / clock_hz
        xpu = self.xpu_busy_s
        total = xpu + ms + se + ks
        return {
            "xpu_blind_rotation": xpu / total,
            "vpu_modulus_switch": ms / total,
            "vpu_sample_extract": se / total,
            "vpu_key_switch": ks / total,
        }


class MorphlingSimulator:
    """Steady-state + latency simulation for one (config, params) pair."""

    def __init__(self, config: MorphlingConfig, params: TFHEParams) -> None:
        self.config = config
        self.params = params
        self.xpu = XpuModel(config, params)
        self.vpu = VpuModel(config, params)
        self.hbm = HbmModel(config)

    # ------------------------------------------------------------------
    def verify(self):
        """Statically verify the canonical steady-state group program.

        Lowers one full scheduler group (the exact program whose timing
        :meth:`run` models) and runs the :mod:`repro.verify` pass
        pipeline over it, so a (config, params) pair that would compile
        to an ill-formed stream is caught before its throughput numbers
        are trusted.  Returns the :class:`repro.verify.VerifyReport`.
        """
        from ..verify import verify_stream
        from .buffers import acc_stream_capacity
        from .scheduler import LayerDemand, SwScheduler

        scheduler = SwScheduler(self.config, self.params)
        streams = max(1, acc_stream_capacity(self.config, self.params))
        group = streams * self.config.bootstrap_cores
        stream = scheduler.schedule([LayerDemand("steady-state-group", group)])
        return verify_stream(
            stream, config=self.config, params=self.params,
            subject=f"{self.config.name}@{self.params.name}",
        )

    def run(self, verify: bool = False) -> "SimulationReport":
        """Simulate; with ``verify`` the canonical group program must be
        statically clean first (raises ``VerificationError``)."""
        if verify:
            from ..verify import VerificationError

            report = self.verify()
            if not report.ok:
                raise VerificationError(report)
        return self._run()

    # ------------------------------------------------------------------
    def _streams_and_stall(self) -> tuple:
        """Resident streams and the stall factor when not even one fits."""
        cfg, p = self.config, self.params
        streams = acc_stream_capacity(cfg, p)
        if streams >= 1:
            return streams, 1.0
        per_stream = cfg.bootstrap_cores * p.glwe_bytes * A1_STREAM_OVERHEAD
        fraction = cfg.private_a1_bytes / per_stream
        # Less than one stream fits: XPUs time-share the buffer; compute
        # time inflates by the residency shortfall.
        return 1, 1.0 / max(fraction, 1e-6)

    def _run(self) -> SimulationReport:
        cfg, p = self.config, self.params
        clock_hz = cfg.clock_ghz * 1e9

        streams, stall = self._streams_and_stall()
        group_size = streams * cfg.bootstrap_cores
        bsk_reuse = bsk_reuse_factor(cfg.vpe_rows, cfg.num_xpus, streams)
        ksk_reuse = group_size

        iteration = self.xpu.iteration_breakdown()
        br_seconds = self.xpu.blind_rotation_seconds()
        xpu_busy = streams * br_seconds * stall

        traffic = self.hbm.per_bootstrap_traffic(p, bsk_reuse, ksk_reuse)
        bsk_transfer = self.hbm.xpu_transfer_seconds(traffic.xpu_bytes * group_size)
        ksk_transfer = self.hbm.vpu_transfer_seconds(traffic.vpu_bytes * group_size)

        vpu_stages = self.vpu.stage_cycles()
        vpu_busy = group_size * vpu_stages.total / clock_hz

        times = {
            "xpu_compute": xpu_busy,
            "bsk_bandwidth": bsk_transfer,
            "vpu_compute": vpu_busy,
            "ksk_bandwidth": ksk_transfer,
        }
        bottleneck = max(times, key=times.get)
        group_time = times[bottleneck]
        throughput = group_size / group_time

        if _BUS.enabled:
            _SIM_RUNS.inc(params=p.name)
            _SIM_GROUPS.inc()
            _SIM_BOOTSTRAPS.inc(group_size)
            _SIM_BOTTLENECK.inc(resource=bottleneck)
            _SIM_GROUP_SIZE.set(group_size)
            _SIM_ACC_STREAMS.set(streams)
            counts = transforms_per_bootstrap(p, cfg.reuse)
            _SIM_TRANSFORMS.inc(counts.forward * group_size, direction="forward")
            _SIM_TRANSFORMS.inc(counts.inverse * group_size, direction="inverse")
            # One steady-state group, resources overlapped from t=0: the
            # slowest row is the group time the throughput is quoted at.
            for resource, seconds in times.items():
                _TRACER.add_span(
                    resource, ts_us=0.0, dur_us=seconds * 1e6,
                    category="simulator", track=f"sim/{resource}",
                    args={"group_size": group_size,
                          "bottleneck": resource == bottleneck},
                )
            # The simulator *executes* one steady-state group: account the
            # scheduled work (every XPU runs `streams` blind rotations,
            # the VPU post-processes the whole group) and sample the
            # time-resolved tracks at the group boundaries.
            self.xpu.record_blind_rotations(streams * cfg.num_xpus)
            self.vpu.record_stage_work(group_size)
            for stage, frac in iteration.occupancy().items():
                track = f"xpu/occupancy/{stage}"
                _COUNTERS.sample(track, 0.0, frac)
                _COUNTERS.sample(track, group_time, frac)
            xpu_util = bsk_transfer / group_time
            vpu_util = ksk_transfer / group_time
            for ch in range(cfg.xpu_hbm_channels + cfg.vpu_hbm_channels):
                util = xpu_util if ch < cfg.xpu_hbm_channels else vpu_util
                track = f"hbm/channel/{ch}/utilization"
                _COUNTERS.sample(track, 0.0, util)
                _COUNTERS.sample(track, group_time, util)
            budget = buffer_budget(cfg, p, streams)
            for name, used in (
                ("private_a1", budget.private_a1),
                ("private_a2", budget.private_a2),
                ("private_b", budget.private_b),
                ("shared", budget.shared),
            ):
                track = f"buffer/{name}"
                _COUNTERS.sample(track, 0.0, float(used))
                _COUNTERS.sample(track, group_time, float(used))
            hops = NocModel(cfg).hops_per_group(p, group_size, streams)
            for link, count in hops.items():
                _COUNTERS.add_ops(f"noc/hops/{link}", float(count))

        # Pure arithmetic (not `vpu_transfer_seconds`): the latency walk is
        # a model evaluation, not executed traffic, and must not be
        # accounted on the byte counters.
        ksk_tail = p.ksk_bytes / (cfg.vpu_bandwidth_gbs * 1e9) / ksk_reuse
        latency = (
            br_seconds * stall
            + (vpu_stages.modulus_switch + vpu_stages.sample_extract + vpu_stages.key_switch)
            / clock_hz
            + ksk_tail
        )

        if _BUS.enabled:
            # Every request in the modelled group experiences the same
            # bootstrap latency: one count-weighted sample per run.
            _SIM_BOOTSTRAP_LATENCY.observe(latency, count=group_size,
                                           config=cfg.name, params=p.name)
            _BUS.publish("request", "sim/bootstrap", value=latency,
                         count=group_size, config=cfg.name, params=p.name)
            _BUS.publish("snapshot", "sim/report", value=throughput,
                         bottleneck=bottleneck, group_size=group_size,
                         latency_ms=latency * 1e3, params=p.name,
                         config=cfg.name)

        return SimulationReport(
            config_name=cfg.name,
            params_name=p.name,
            bootstrap_latency_s=latency,
            throughput_bs=throughput,
            bottleneck=bottleneck,
            group_size=group_size,
            acc_streams=streams,
            bsk_reuse=bsk_reuse,
            ksk_reuse=ksk_reuse,
            group_time_s=group_time,
            xpu_busy_s=xpu_busy,
            bsk_transfer_s=bsk_transfer,
            vpu_busy_s=vpu_busy,
            ksk_transfer_s=ksk_transfer,
            iteration=iteration,
            vpu_stages=vpu_stages,
            traffic=traffic,
            clock_ghz=cfg.clock_ghz,
        )


def simulate_bootstrap(
    config: MorphlingConfig, params: TFHEParams, verify: bool = False
) -> SimulationReport:
    """Convenience wrapper: simulate one (config, params) pair."""
    return MorphlingSimulator(config, params).run(verify=verify)
