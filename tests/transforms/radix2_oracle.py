"""Iterative radix-2 decimation-in-time FFT: the test oracle.

An independent, from-scratch transform engine that does not use
``numpy.fft``.  The library's default ``numpy`` backend runs pocketfft;
this engine is registered as the test-only ``radix2`` backend so that
cross-engine properties (registry selection, counting before dispatch,
full-bootstrap bit-identity in complex128) are checked against a second
engine on every machine, with no optional dependency.

The butterfly structure mirrors the multi-delay-commutator pipeline
modelled in :mod:`repro.transforms.pipeline_model` - ``log2(n)`` stages
of butterflies with per-stage twiddle factors.  One bit-reversal gather
produces the working array, every stage then updates it in place through
a single reused scratch buffer, and the twiddle tables are cached per
``(n, dtype)`` so ``complex64`` transforms never upcast.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.transforms.backends import ComputeBackend

#: Registry name of the oracle backend.
RADIX2 = "radix2"

_PERM_CACHE: Dict[int, np.ndarray] = {}
_TWIDDLE_CACHE: Dict[Tuple[int, np.dtype], List[np.ndarray]] = {}


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Return the bit-reversal permutation for a power-of-two length ``n``."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    perm = _PERM_CACHE.get(n)
    if perm is None:
        bits = n.bit_length() - 1
        idx = np.arange(n, dtype=np.int64)
        perm = np.zeros(n, dtype=np.int64)
        for _ in range(bits):
            perm = (perm << 1) | (idx & 1)
            idx >>= 1
        _PERM_CACHE[n] = perm
    return perm


def _stage_twiddles(n: int, dtype: np.dtype) -> List[np.ndarray]:
    """Twiddle factors per butterfly stage for an ``n``-point DIT FFT."""
    key = (n, np.dtype(dtype))
    tw = _TWIDDLE_CACHE.get(key)
    if tw is None:
        tw = []
        size = 2
        while size <= n:
            half = size // 2
            tw.append(np.exp(-2j * np.pi * np.arange(half) / size).astype(dtype))
            size *= 2
        _TWIDDLE_CACHE[key] = tw
    return tw


def radix2_fft(x: np.ndarray) -> np.ndarray:
    """Forward FFT along the last axis (power-of-two length, dtype-preserving).

    Butterflies run in place with one reused ``n/2``-element scratch per
    batch row (``t = odd * tw``, then ``odd <- even - t`` and
    ``even <- even + t``).
    """
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    out = x[..., bit_reverse_permutation(n)]  # fancy indexing copies
    batch_shape = x.shape[:-1]
    scratch = np.empty(batch_shape + (n // 2,), dtype=out.dtype)
    for stage, tw in enumerate(_stage_twiddles(n, out.dtype)):
        size = 2 << stage
        half = size // 2
        blocks = out.reshape(batch_shape + (n // size, size))
        even = blocks[..., :half]
        odd = blocks[..., half:]
        t = scratch.reshape(batch_shape + (n // size, half))
        np.multiply(odd, tw, out=t)
        np.subtract(even, t, out=odd)  # odd slot := even - odd*tw
        even += t  # even slot := even + odd*tw
    return out


def radix2_ifft(x: np.ndarray) -> np.ndarray:
    """Inverse FFT: the conjugate trick over :func:`radix2_fft`."""
    n = x.shape[-1]
    out = radix2_fft(np.conj(x))
    np.conj(out, out=out)
    out /= n
    return out


class Radix2Backend(ComputeBackend):
    """The radix-2 oracle behind the :class:`ComputeBackend` interface."""

    name = RADIX2

    def fft(self, x: np.ndarray) -> np.ndarray:
        return radix2_fft(x)

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return radix2_ifft(x)
