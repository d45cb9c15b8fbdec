"""Specialized on-chip buffers and the double-pointer rotator (Section V-C).

Morphling's first-level memory holds four buffer types; the performance
model needs their capacity arithmetic (how many ACC ciphertext *streams*
fit in Private-A1, which bounds BSK reuse), and the rotator needs a
functional model proving the double-pointer scheme streams
``(ACC, X^t * ACC)`` pairs with no pipeline stalls.

Capacity model
--------------
One resident stream keeps, per bootstrap core, the ``(k+1)`` ACC
polynomials in rotation-window form: original + rotated access windows
(x2, double pointer), double-buffered against the in-flight iteration
(x2), and padded to bank-aligned tiles across the 16 banks (x2).  We
charge ``A1_STREAM_OVERHEAD = 8`` polynomial-equivalents per polynomial,
calibrated once so the paper's 4 MB knee (Fig. 8-a) falls where reported
for the 128-bit set III; the knee position then scales with ``N``, ``k``
and the core count exactly as the formula says.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..observability import BUS as _BUS, COUNTERS as _COUNTERS
from ..params import TFHEParams
from ..tfhe.polynomial import monomial_mul
from .accelerator import MorphlingConfig

__all__ = [
    "A1_STREAM_OVERHEAD",
    "BufferBudget",
    "acc_stream_capacity",
    "buffer_budget",
    "DoublePointerRotator",
    "shifter_stall_cycles",
]

#: Polynomial-equivalents charged per resident ACC polynomial: rotation
#: windows (x2), double buffering (x2), and bank-alignment padding (x2).
A1_STREAM_OVERHEAD = 8


@dataclass(frozen=True)
class BufferBudget:
    """Bytes required in each buffer for one resident workload."""

    private_a1: int
    private_a2: int
    private_b: int
    shared: int

    def fits(self, config: MorphlingConfig) -> bool:
        return (
            self.private_a1 <= config.private_a1_bytes
            and self.private_a2 <= config.private_a2_bytes
            and self.private_b <= config.private_b_bytes
            and self.shared <= config.shared_bytes
        )


def acc_stream_capacity(config: MorphlingConfig, params: TFHEParams) -> int:
    """How many ciphertext streams the Private-A1 buffer can keep resident.

    Each stream pins ``bootstrap_cores`` ACC ciphertexts (one per VPE row
    per XPU) at ``A1_STREAM_OVERHEAD`` polynomial-equivalents each.  The
    result bounds the third BSK reuse dimension (Section IV-C); Morphling
    caps it at ``max_acc_streams``.
    """
    per_stream = config.bootstrap_cores * params.glwe_bytes * A1_STREAM_OVERHEAD
    if per_stream <= 0:
        raise ValueError("stream footprint must be positive")
    return max(0, min(config.max_acc_streams, config.private_a1_bytes // per_stream))


def buffer_budget(config: MorphlingConfig, params: TFHEParams,
                  streams: Optional[int] = None) -> BufferBudget:
    """Bytes each buffer needs for ``streams`` resident ciphertext streams.

    - Private-A1: the ACC residency computed above plus the switched LWE
      masks used by the rotator's address generator.
    - Private-A2: double-buffered transform-domain BSK_i for every XPU
      plus the twiddle table.
    - Shared: one blind-rotation result per bootstrap core, double
      buffered, so XPU and VPU run decoupled.
    - Private-B: KSK working tile plus LWE ciphertext operands.
    """
    if streams is None:
        streams = max(1, acc_stream_capacity(config, params))
    cores = config.bootstrap_cores
    # Switched masks (one word per mask element) ride inside the stream
    # overhead allowance; the budget is the residency formula itself.
    a1 = streams * cores * params.glwe_bytes * A1_STREAM_OVERHEAD
    bsk_i = params.polynomials_per_ggsw * params.N * params.coeff_bytes
    a2 = config.num_xpus * 2 * bsk_i + params.N * 8  # double buffer + twiddles
    shared = 2 * cores * params.glwe_bytes
    ksk_tile = params.l_k * (params.n + 1) * 4 * config.vpu_lanes
    b = ksk_tile + 4 * cores * params.lwe_bytes
    return BufferBudget(private_a1=a1, private_a2=a2, private_b=b, shared=shared)


class DoublePointerRotator:
    """Functional model of the in-buffer rotation (Section V-C).

    The ACC polynomial is tiled across banks in ``vector_width`` lanes.
    Pointer A walks the original coefficients; pointer B walks the
    coefficients of ``X^t * ACC`` by address arithmetic on the same
    storage (the reorder unit handles unaligned lanes and the sign flip
    of the negacyclic wraparound).  Every cycle yields one aligned vector
    from each pointer with *no* data movement - which is why the XPU
    pipeline never stalls on the rotation amount.
    """

    def __init__(self, poly: np.ndarray, vector_width: int = 8) -> None:
        poly = np.asarray(poly, dtype=np.uint32)
        if poly.ndim != 1:
            raise ValueError("rotator stores one polynomial at a time")
        if poly.shape[0] % vector_width:
            raise ValueError("polynomial size must be a multiple of the vector width")
        self._storage = poly.copy()
        self.vector_width = vector_width

    @property
    def n(self) -> int:
        return self._storage.shape[0]

    def read_vector(self, chunk: int, rotation: int) -> tuple:
        """Read cycle ``chunk``: (pointer-A lanes, pointer-B lanes).

        Pointer B returns the lanes of ``X^rotation * poly`` at the same
        chunk offset, computed by address arithmetic + conditional
        negation - not by physically rotating the buffer.
        """
        w, n = self.vector_width, self.n
        start = chunk * w
        if start >= n:
            raise IndexError(f"chunk {chunk} beyond polynomial of size {n}")
        lanes_a = self._storage[start : start + w].copy()
        t = int(rotation) % (2 * n)
        idx = (np.arange(start, start + w) - t) % (2 * n)
        negate = idx >= n
        src = np.where(negate, idx - n, idx)
        lanes_b = self._storage[src].astype(np.int64)
        lanes_b[negate] = -lanes_b[negate]
        return lanes_a, lanes_b.astype(np.uint32)

    def stream(self, rotation: int) -> tuple:
        """Full-polynomial streams: returns ``(original, rotated)`` arrays.

        The rotated stream must equal :func:`monomial_mul`; tests assert
        this identity.
        """
        chunks = self.n // self.vector_width
        a = np.empty(self.n, dtype=np.uint32)
        b = np.empty(self.n, dtype=np.uint32)
        for c in range(chunks):
            la, lb = self.read_vector(c, rotation)
            a[c * self.vector_width : (c + 1) * self.vector_width] = la
            b[c * self.vector_width : (c + 1) * self.vector_width] = lb
        if _BUS.enabled:
            _COUNTERS.add_ops("rotator/streams")
            _COUNTERS.add_ops("rotator/vector_reads", chunks)
        return a, b

    def reference_rotation(self, rotation: int) -> np.ndarray:
        """Golden rotated polynomial via the ring primitive."""
        return monomial_mul(self._storage, rotation)


def shifter_stall_cycles(params: TFHEParams, config: MorphlingConfig) -> float:
    """Average per-iteration stall of the variable-delay shifter alternative.

    A shifter in the XPU imposes a variable latency equal to the rotation
    amount modulo the vector width times the refill of the downstream
    pipeline; averaged over uniform masks this costs about half the
    maximum misalignment per polynomial chunk plus a pipeline flush per
    rotation-amount change (once per iteration).  The double-pointer
    design makes this identically zero.
    """
    if config.rotator == "double_pointer":
        return 0.0
    pipeline_flush = params.N / (2 * config.fft_lanes)  # refill of one pass
    misalignment = (config.fft_lanes - 1) / 2.0
    polys_per_iter = (params.k + 1) * config.vpe_rows
    return pipeline_flush + misalignment * polys_per_iter
