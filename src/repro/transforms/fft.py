"""FFT entry points of the transform-domain hot path.

:func:`fft` and :func:`ifft` are the only place the functional
substrate calls a Fourier transform.  They normalise the input dtype
(``float32``/``complex64`` stay single precision), count the work in
``transforms_fft_total``, then dispatch to the active compute backend
(:mod:`repro.transforms.backends`; ``numpy.fft`` by default).  The
pipelined hardware FFT that Morphling's datapath is built around is
modelled separately in :mod:`repro.transforms.pipeline_model`; the
radix-2 operation counts below back the analytic op-count model.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..observability import BUS as _BUS, REGISTRY as _METRICS
from .backends import active_backend as _active_backend

__all__ = [
    "fft",
    "ifft",
    "fft_stage_count",
    "fft_complex_multiplies",
    "fft_real_multiplies",
]

_FFT_CALLS = _METRICS.counter(
    "transforms_fft_total", "FFT passes executed, by direction (batch-aware)"
)


def _count_transforms(shape: Tuple[int, ...], direction: str) -> None:
    """Account one batched FFT call: ``prod(shape[:-1])`` transforms."""
    count = 1
    for dim in shape[:-1]:
        count *= int(dim)
    _FFT_CALLS.inc(count, direction=direction)


def _as_complex(x: np.ndarray) -> np.ndarray:
    """View/cast input as complex, preserving single precision."""
    x = np.asarray(x)
    if x.dtype in (np.complex64, np.float32):
        return np.asarray(x, dtype=np.complex64)
    return np.asarray(x, dtype=np.complex128)


def fft(x: np.ndarray) -> np.ndarray:
    """Forward FFT of a complex vector (or batch of vectors on axis -1).

    Accepts any shape; the transform runs along the last axis.
    ``float32`` / ``complex64`` inputs stay in single precision end to
    end.  Metric counting happens here, before dispatch to the active
    compute backend, so every backend is accounted identically.
    """
    x = _as_complex(x)
    if _BUS.enabled:
        _count_transforms(x.shape, "forward")
    return _active_backend().fft(x)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse FFT along the last axis (unitary pairing with :func:`fft`).

    Dispatches to the active compute backend, like :func:`fft`.
    """
    x = _as_complex(x)
    if _BUS.enabled:
        _count_transforms(x.shape, "inverse")
    return _active_backend().ifft(x)


# ---------------------------------------------------------------------------
# Operation accounting (used by repro.analysis.opcount)
# ---------------------------------------------------------------------------
def fft_stage_count(n: int) -> int:
    """Number of butterfly stages in an ``n``-point radix-2 FFT."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return int(math.log2(n))


def fft_complex_multiplies(n: int) -> int:
    """Complex multiplications in an ``n``-point radix-2 FFT: (n/2)*log2(n)."""
    return (n // 2) * fft_stage_count(n)


def fft_real_multiplies(n: int) -> int:
    """Real multiplications, counting one complex multiply as four."""
    return 4 * fft_complex_multiplies(n)
