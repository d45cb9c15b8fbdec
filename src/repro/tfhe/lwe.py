"""LWE ciphertexts: scalar-message encryption under a binary secret key.

An LWE ciphertext of ``m`` in ``T_q`` under ``s in {0,1}**n`` is
``(a_1..a_n, b)`` with ``b = <a, s> + m + e`` (Section II-A).  The mask and
body are uint32 torus numerators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability import BUS as _BUS, NOISE as _NOISE
from .torus import TORUS_DTYPE, to_torus, torus_scalar_mul, torus_words, u32

__all__ = [
    "LweSecretKey",
    "LweCiphertext",
    "lwe_keygen",
    "lwe_encrypt",
    "lwe_decrypt_phase",
    "lwe_trivial",
    "lwe_add",
    "lwe_sub",
    "lwe_neg",
    "lwe_scalar_mul",
    "lwe_add_plain",
    "gaussian_torus_noise",
]


@dataclass(frozen=True)
class LweSecretKey:
    """Binary LWE secret key of dimension ``n``."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise ValueError("LWE key must be a 1-D bit vector")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("LWE key bits must be 0/1")
        object.__setattr__(self, "bits", bits.astype(np.int64))

    @property
    def n(self) -> int:
        return self.bits.shape[0]


@dataclass
class LweCiphertext:
    """An LWE sample ``(a, b)``; ``a`` is the mask, ``b`` the body."""

    a: np.ndarray
    b: np.uint32

    def __post_init__(self) -> None:
        self.a = torus_words(self.a, "a")
        self.b = TORUS_DTYPE(torus_words(self.b, "b"))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def copy(self) -> "LweCiphertext":
        return LweCiphertext(self.a.copy(), self.b)


def gaussian_torus_noise(rng: np.random.Generator, std_log2: float, shape=()) -> np.ndarray:
    """Sample discretized-Gaussian torus noise with stddev ``2**std_log2``.

    The stddev is expressed as a fraction of the torus, as is conventional
    for TFHE parameter sets.
    """
    std = (2.0 ** std_log2) * (1 << 32)
    return to_torus(np.round(rng.normal(0.0, std, size=shape)).astype(np.int64))


def lwe_keygen(n: int, rng: np.random.Generator) -> LweSecretKey:
    """Sample a uniform binary LWE key of dimension ``n``."""
    return LweSecretKey(rng.integers(0, 2, size=n, dtype=np.int64))


def lwe_encrypt(
    m_torus: int,
    key: LweSecretKey,
    rng: np.random.Generator,
    noise_log2: float = -15.0,
) -> LweCiphertext:
    """Encrypt a torus numerator ``m_torus`` under ``key``."""
    a = rng.integers(0, 1 << 32, size=key.n, dtype=np.uint64).astype(TORUS_DTYPE)
    e = gaussian_torus_noise(rng, noise_log2)
    mask_dot = int(np.sum(a.astype(np.uint64) * key.bits.astype(np.uint64)))
    b = u32(mask_dot + int(m_torus) + int(e))
    ct = LweCiphertext(a, b)
    if _BUS.enabled:
        _NOISE.track(ct, "lwe_encrypt", (2.0 ** noise_log2) ** 2, int(m_torus))
    return ct


def lwe_decrypt_phase(ct: LweCiphertext, key: LweSecretKey) -> np.uint32:
    """Return the noisy phase ``b - <a, s>`` (message + noise)."""
    mask_dot = int(np.sum(ct.a.astype(np.uint64) * key.bits.astype(np.uint64)))
    return u32(int(ct.b) - mask_dot)


def lwe_trivial(m_torus: int, n: int) -> LweCiphertext:
    """Noiseless, keyless encryption of ``m_torus`` (mask = 0)."""
    ct = LweCiphertext(np.zeros(n, dtype=TORUS_DTYPE), TORUS_DTYPE(m_torus))
    if _BUS.enabled:
        _NOISE.track(ct, "lwe_trivial", 0.0, int(m_torus))
    return ct


def lwe_add(x: LweCiphertext, y: LweCiphertext) -> LweCiphertext:
    """Homomorphic addition."""
    if x.n != y.n:
        raise ValueError("LWE dimensions differ")
    out = LweCiphertext(x.a + y.a, u32(int(x.b) + int(y.b)))
    if _BUS.enabled:
        _NOISE.track_linear(out, "lwe_add", [(1, x), (1, y)])
    return out


def lwe_sub(x: LweCiphertext, y: LweCiphertext) -> LweCiphertext:
    """Homomorphic subtraction."""
    if x.n != y.n:
        raise ValueError("LWE dimensions differ")
    out = LweCiphertext(x.a - y.a, u32(int(x.b) - int(y.b)))
    if _BUS.enabled:
        _NOISE.track_linear(out, "lwe_sub", [(1, x), (-1, y)])
    return out


def lwe_neg(x: LweCiphertext) -> LweCiphertext:
    """Homomorphic negation."""
    out = LweCiphertext((-x.a.astype(np.int64)).astype(TORUS_DTYPE), u32(-int(x.b)))
    if _BUS.enabled:
        _NOISE.track_linear(out, "lwe_neg", [(-1, x)])
    return out


def lwe_scalar_mul(scalar: int, x: LweCiphertext) -> LweCiphertext:
    """Multiply by a small plaintext integer (noise grows by |scalar|)."""
    out = LweCiphertext(
        torus_scalar_mul(scalar, x.a),
        torus_scalar_mul(scalar, np.asarray(x.b))[()],
    )
    if _BUS.enabled:
        _NOISE.track_linear(out, "lwe_scalar_mul", [(int(scalar), x)])
    return out


def lwe_add_plain(x: LweCiphertext, m_torus: int) -> LweCiphertext:
    """Add a plaintext torus numerator to the body."""
    out = LweCiphertext(x.a.copy(), u32(int(x.b) + int(m_torus)))
    if _BUS.enabled:
        _NOISE.track_linear(out, "lwe_add_plain", [(1, x)],
                            plain_offset=int(m_torus))
    return out
