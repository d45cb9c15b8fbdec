"""XPU timing model (Section V-A).

The XPU is a streaming pipeline: the Private-A1 rotator feeds the
decomposition units, which feed the merge-split pipelined FFTs, which
feed the VPE array, which drains through the IFFTs.  In steady state one
blind-rotation iteration costs the *maximum* of its stage cycle counts
(the pipeline overlaps stages across iterations); fill/drain and rotator
stalls are added once per iteration where applicable.

The per-stage formulas and the default unit counts reproduce the paper's
Table V latencies analytically (see DESIGN.md for the derivation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observability import BUS as _BUS, COUNTERS as _COUNTERS
from ..params import TFHEParams
from ..transforms.pipeline_model import PipelinedFFTModel
from .accelerator import MorphlingConfig
from .buffers import shifter_stall_cycles
from .reuse import transforms_per_external_product
from .vpe_array import map_external_product

__all__ = ["IterationBreakdown", "XpuModel"]

#: Per-iteration pipeline overhead (cycles): handoff registers between the
#: rotator, decomposition, FFT and VPE stages.  Calibrated once against
#: the paper's Table V (set I throughput implies ~4 cycles of overhead
#: per iteration) and used unchanged for every other experiment.
ITERATION_OVERHEAD_CYCLES = 4.0


@dataclass(frozen=True)
class IterationBreakdown:
    """Cycle cost of each pipeline stage for one blind-rotation iteration."""

    rotation: float
    decomposition: float
    forward_fft: float
    vpe_stream: float
    inverse_fft: float
    bsk_stream: float
    overhead: float

    @property
    def critical(self) -> float:
        """Steady-state cycles per iteration: slowest stage + overhead."""
        return (
            max(
                self.rotation,
                self.decomposition,
                self.forward_fft,
                self.vpe_stream,
                self.inverse_fft,
                self.bsk_stream,
            )
            + self.overhead
        )

    def stage_cycle_map(self) -> dict:
        """Stage name -> cycles, in dataflow order (perf-counter keys)."""
        return {
            "rotation": self.rotation,
            "decomposition": self.decomposition,
            "forward_fft": self.forward_fft,
            "vpe_stream": self.vpe_stream,
            "inverse_fft": self.inverse_fft,
            "bsk_stream": self.bsk_stream,
        }

    def occupancy(self) -> dict:
        """Per-stage busy fraction of the steady-state iteration interval.

        The pipelined-FFT rows of this dict are the paper's I/FFT
        occupancy discussion (Section VI): a stage at 1.0 paces the
        pipeline, everything below it idles part of each iteration.
        """
        critical = self.critical
        if critical <= 0:
            return dict.fromkeys(self.stage_cycle_map(), 0.0)
        return {s: c / critical for s, c in self.stage_cycle_map().items()}

    def bottleneck(self) -> str:
        """Name of the slowest stage."""
        stages = self.stage_cycle_map()
        return max(stages, key=stages.get)


class XpuModel:
    """Cycle model of one external product unit."""

    def __init__(self, config: MorphlingConfig, params: TFHEParams):
        self.config = config
        self.params = params
        self.fft = PipelinedFFTModel(
            poly_size=params.N,
            lanes=config.fft_lanes,
            merge_split=config.merge_split,
        )
        # IFFT units drain one accumulator spectrum per pass; the inverse
        # merge-split (packing two spectra of real polynomials) is part of
        # the same merge-split option.
        self.ifft = PipelinedFFTModel(
            poly_size=params.N,
            lanes=config.fft_lanes,
            merge_split=False,
        )

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Bootstraps processed concurrently by this XPU."""
        return self.config.vpe_rows

    def iteration_breakdown(self) -> IterationBreakdown:
        """Stage cycles for one iteration across all resident rows."""
        cfg, p = self.config, self.params
        counts = transforms_per_external_product(p.k, p.l_b, cfg.reuse)
        mapping = map_external_product(cfg, p)

        fwd_polys = self.rows * counts.forward
        inv_polys = self.rows * counts.inverse
        pass_cycles = self.fft.cycles_per_pass

        fwd_passes = self.fft.passes_for(fwd_polys)
        forward_fft = -(-fwd_passes // cfg.fft_units_per_xpu) * pass_cycles
        inv_passes = self.ifft.passes_for(inv_polys)
        inverse_fft = -(-inv_passes // cfg.ifft_units_per_xpu) * pass_cycles

        # Supply datapath width (coefficients/cycle per XPU): each
        # decomposition unit moves two fft_lanes-wide vectors per cycle
        # (512-bit digit output), sized to keep the merge-split FFTs fed.
        supply_ports = cfg.fft_lanes * cfg.decomp_units_per_xpu * 2

        # Rotation: the A1 double-pointer rotator reads each resident ACC
        # coefficient once per iteration (the reorder unit routes it to
        # both pointer positions), across all rows and k+1 components.
        rotation = self.rows * (p.k + 1) * p.N / supply_ports

        # Decomposition: bit-slice + round on the digit stream; the digit
        # side carries l_b digits per source coefficient.
        decomposition = self.rows * (p.k + 1) * p.l_b * p.N / supply_ports

        # VPE array: each row consumes its forward spectra serially at
        # fft_lanes points/cycle, repeated for every column pass.
        vpe_stream = (
            (p.k + 1) * p.l_b * (p.N / 2 / cfg.fft_lanes) * mapping.column_passes
        )

        # BSK streaming from Private-A2: one transform-domain BSK_i per
        # iteration, multicast to all rows; the multicast port moves
        # fft_lanes complex points per column per cycle.
        bsk_points = p.polynomials_per_ggsw * (p.N / 2)
        bsk_stream = bsk_points / (cfg.fft_lanes * cfg.vpe_cols)

        # A variable-delay shifter (instead of the double-pointer rotator)
        # flushes the whole pipeline when the rotation amount changes, so
        # its stall lands on the critical path, not inside one stage.
        overhead = ITERATION_OVERHEAD_CYCLES + shifter_stall_cycles(p, cfg)

        return IterationBreakdown(
            rotation=rotation,
            decomposition=decomposition,
            forward_fft=forward_fft,
            vpe_stream=vpe_stream,
            inverse_fft=inverse_fft,
            bsk_stream=bsk_stream,
            overhead=overhead,
        )

    def iteration_cycles(self) -> float:
        """Steady-state cycles per blind-rotation iteration."""
        return self.iteration_breakdown().critical

    def blind_rotation_cycles(self) -> float:
        """Cycles for one full blind rotation (n iterations + fill)."""
        fill = self.fft.fill_latency + self.ifft.fill_latency
        return self.params.n * self.iteration_cycles() + fill

    def record_blind_rotations(self, count: int = 1) -> None:
        """Account ``count`` scheduled blind rotations on the perf counters.

        One blind rotation is this XPU's unit of scheduled work (a
        resident batch of ``vpe_rows`` bootstraps): per-stage busy cycles
        over all ``n`` iterations, the modelled double-pointer rotations,
        and the pipeline fill.  Whoever *executes* the modelled work (the
        simulator per steady-state group, the HW-scheduler per XPU
        instruction) calls this, so model evaluations never inflate the
        counters.
        """
        if not _BUS.enabled or count <= 0:
            return
        bd = self.iteration_breakdown()
        fill = self.fft.fill_latency + self.ifft.fill_latency
        n = self.params.n
        for stage, cycles in bd.stage_cycle_map().items():
            _COUNTERS.add_cycles(f"xpu/stage/{stage}", count * n * cycles)
        _COUNTERS.add_cycles("xpu/stage/overhead", count * n * bd.overhead)
        _COUNTERS.add_cycles("xpu/fill", count * fill)
        _COUNTERS.add_ops(
            "rotator/rotations", count * n * self.rows * (self.params.k + 1)
        )

    def blind_rotation_seconds(self) -> float:
        """Wall-clock blind rotation time for the resident batch."""
        return self.blind_rotation_cycles() / (self.config.clock_ghz * 1e9)

    def batch_size(self) -> int:
        """Ciphertexts finished per blind rotation on this XPU."""
        return self.rows
