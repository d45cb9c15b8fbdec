"""HBM external-memory model (Sections IV-C and VI-B).

One HBM2e stack with 8 channels at a moderated average of 310 GB/s.
Channels are priority-split: 2 to the XPUs (BSK streaming) and 6 to the
VPU (KSK, LWE ciphertext and test-polynomial traffic).  The model
accounts per-bootstrap traffic with the BSK/KSK reuse factors applied and
converts byte volumes into transfer times per channel group.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observability import BUS as _BUS, COUNTERS as _COUNTERS, REGISTRY as _METRICS
from ..params import TFHEParams
from .accelerator import MorphlingConfig

__all__ = ["TrafficBreakdown", "HbmModel"]

_HBM_BYTES = _METRICS.counter(
    "hbm_bytes_total", "Modelled HBM traffic in bytes, by channel group"
)
_HBM_TRANSFERS = _METRICS.counter(
    "hbm_transfers_total", "Modelled HBM transfers accounted, by channel group"
)


@dataclass(frozen=True)
class TrafficBreakdown:
    """Bytes moved per bootstrapped ciphertext, after reuse."""

    bsk_bytes: float
    ksk_bytes: float
    lwe_bytes: float
    test_poly_bytes: float

    @property
    def xpu_bytes(self) -> float:
        """Traffic served by the XPU channel group."""
        return self.bsk_bytes

    @property
    def vpu_bytes(self) -> float:
        """Traffic served by the VPU channel group."""
        return self.ksk_bytes + self.lwe_bytes + self.test_poly_bytes

    @property
    def total_bytes(self) -> float:
        return self.xpu_bytes + self.vpu_bytes


class HbmModel:
    """Bandwidth accounting for one Morphling instance."""

    def __init__(self, config: MorphlingConfig):
        self.config = config

    def per_bootstrap_traffic(
        self,
        params: TFHEParams,
        bsk_reuse: int,
        ksk_reuse: int,
    ) -> TrafficBreakdown:
        """Bytes per bootstrap with the given reuse factors.

        The BSK is fetched once per ``bsk_reuse`` ciphertexts (VPE column
        x XPU x resident-stream reuse); the KSK once per ``ksk_reuse``
        (the scheduler's 64-ciphertext group).  The test polynomial is a
        trivial GLWE held on chip per group; input/output LWE ciphertexts
        always move.
        """
        if bsk_reuse < 1 or ksk_reuse < 1:
            raise ValueError("reuse factors must be >= 1")
        return TrafficBreakdown(
            bsk_bytes=params.bsk_transform_bytes / bsk_reuse,
            ksk_bytes=params.ksk_bytes / ksk_reuse,
            lwe_bytes=2.0 * params.lwe_bytes,
            test_poly_bytes=params.glwe_bytes / ksk_reuse,
        )

    def xpu_transfer_seconds(self, data_bytes: float) -> float:
        """Seconds to move ``data_bytes`` over the XPU channel group."""
        if _BUS.enabled:
            _HBM_BYTES.inc(data_bytes, channel="xpu")
            _HBM_TRANSFERS.inc(channel="xpu")
            self._count_channel_bytes(data_bytes, group="xpu")
        return data_bytes / (self.config.xpu_bandwidth_gbs * 1e9)

    def vpu_transfer_seconds(self, data_bytes: float) -> float:
        """Seconds to move ``data_bytes`` over the VPU channel group."""
        if _BUS.enabled:
            _HBM_BYTES.inc(data_bytes, channel="vpu")
            _HBM_TRANSFERS.inc(channel="vpu")
            self._count_channel_bytes(data_bytes, group="vpu")
        return data_bytes / (self.config.vpu_bandwidth_gbs * 1e9)

    def _count_channel_bytes(self, data_bytes: float, group: str) -> None:
        """Per-channel perf counters: traffic interleaves evenly in-group.

        Channel ids follow the paper's priority split: channels
        ``0 .. xpu_hbm_channels-1`` serve the XPUs (BSK), the rest serve
        the VPU (KSK / LWE / test polynomials).
        """
        cfg = self.config
        if group == "xpu":
            base, width = 0, cfg.xpu_hbm_channels
        else:
            base, width = cfg.xpu_hbm_channels, cfg.vpu_hbm_channels
        if width < 1:
            return
        share = data_bytes / width
        for ch in range(base, base + width):
            _COUNTERS.add_bytes(f"hbm/channel/{ch}", share)

    def sustainable_bootstrap_rate(
        self, params: TFHEParams, bsk_reuse: int, ksk_reuse: int
    ) -> float:
        """Max bootstraps/second the memory system alone can feed.

        Each channel group bounds the rate independently (they carry
        disjoint traffic); the tighter group wins.
        """
        traffic = self.per_bootstrap_traffic(params, bsk_reuse, ksk_reuse)
        xpu_rate = (self.config.xpu_bandwidth_gbs * 1e9) / max(traffic.xpu_bytes, 1e-12)
        vpu_rate = (self.config.vpu_bandwidth_gbs * 1e9) / max(traffic.vpu_bytes, 1e-12)
        return min(xpu_rate, vpu_rate)
