"""High-level homomorphic operations built on programmable bootstrapping.

These are the operations the paper's applications consume: boolean gates
(XG-Boost comparisons and control logic), LUT evaluation, ReLU (DeepCNN /
VGG activations), and thresholds.  Boolean gates follow the
sum-then-bootstrap pattern with message modulus ``p = 8`` so two operand
bits plus carry stay inside the padded half-torus.

``TfheContext`` bundles a keyset with encrypt/decrypt helpers so examples
and applications read naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability import BUS as _BUS, NOISE as _NOISE
from ..params import TFHEParams
from .bootstrap import programmable_bootstrap, programmable_bootstrap_batch
from .encoding import make_test_polynomial, message_to_signed, signed_to_message
from .keys import KeySet, generate_keyset
from .lwe import (
    LweCiphertext,
    lwe_add,
    lwe_add_plain,
    lwe_encrypt,
    lwe_decrypt_phase,
    lwe_scalar_mul,
)
from .torus import decode_message, encode_message

__all__ = ["TfheContext", "GATE_LUTS"]

#: LUTs over the two-bit sum ``x = b1 + b2`` (values 0..2), message space p=8.
GATE_LUTS = {
    "nand": lambda x: 1 if x < 2 else 0,
    "and": lambda x: 1 if x == 2 else 0,
    "or": lambda x: 1 if x >= 1 else 0,
    "nor": lambda x: 1 if x == 0 else 0,
    "xor": lambda x: 1 if x == 1 else 0,
    "xnor": lambda x: 1 if x != 1 else 0,
}


@dataclass
class TfheContext:
    """A keyset plus the encode/encrypt/bootstrap conveniences.

    ``default_p`` is the message modulus used by :meth:`encrypt` when none
    is given; gates always use ``p = 8`` internally.
    """

    keyset: KeySet
    default_p: int = 8
    engine: str = "transform"

    # -- construction -------------------------------------------------
    @classmethod
    def create(cls, params: TFHEParams, seed: int = 0, **kwargs) -> "TfheContext":
        """Generate fresh keys for ``params`` with a deterministic seed."""
        rng = np.random.default_rng(seed)
        return cls(generate_keyset(params, rng), **kwargs)

    @property
    def params(self) -> TFHEParams:
        return self.keyset.params

    def _rng(self) -> np.random.Generator:
        # Encryption randomness; fresh generator per call keeps the context
        # stateless while staying reproducible under a fixed OS seed.
        return np.random.default_rng()

    # -- encrypt / decrypt --------------------------------------------
    def encrypt(self, message: int, p: int = None) -> LweCiphertext:
        """Encrypt ``message`` in ``Z_p`` (must stay below p/2: padding bit)."""
        p = p or self.default_p
        if not 0 <= message < p // 2:
            raise ValueError(f"message {message} outside padded range [0, {p // 2})")
        m_torus = encode_message(message, p, self.params.q_bits)[()]
        return lwe_encrypt(m_torus, self.keyset.lwe_key, self._rng(),
                           noise_log2=self.params.lwe_noise_log2)

    def encrypt_signed(self, value: int, p: int = None) -> LweCiphertext:
        """Encrypt a signed value in ``[-p/4, p/4)`` via offset binary."""
        p = p or self.default_p
        return self.encrypt(signed_to_message(value, p), p)

    def decrypt(self, ct: LweCiphertext, p: int = None) -> int:
        """Decrypt and decode back to ``Z_p``."""
        p = p or self.default_p
        if _BUS.enabled:
            record = _NOISE.record_of(ct)
            if record is not None:
                # Decode rounds to the nearest multiple of q/p; the margin
                # is half a step minus the shadow's offset from the grid.
                scale = (1 << self.params.q_bits) // p
                off = record.expected % scale
                off = min(off, scale - off) / float(1 << self.params.q_bits)
                _NOISE.record_failure_point(
                    "decode", 0.5 / p - off, record.predicted_variance,
                    op_id=record.op_id,
                )
        phase = lwe_decrypt_phase(ct, self.keyset.lwe_key)
        return int(decode_message(np.asarray(phase), p, self.params.q_bits)[()])

    def decrypt_signed(self, ct: LweCiphertext, p: int = None) -> int:
        """Decrypt an offset-binary signed value."""
        p = p or self.default_p
        return message_to_signed(self.decrypt(ct, p), p)

    # -- bootstrapped operations ---------------------------------------
    def apply_lut(self, ct: LweCiphertext, lut_half, p: int = None) -> LweCiphertext:
        """Programmable bootstrap evaluating ``lut_half`` over ``[0, p/2)``."""
        p = p or self.default_p
        tp = self._lut_test_poly(lut_half, p)
        return programmable_bootstrap(ct, tp, self.keyset, engine=self.engine)

    def _lut_test_poly(self, lut_half, p: int) -> np.ndarray:
        lut = np.asarray([lut_half(x) if callable(lut_half) else lut_half[x]
                          for x in range(p // 2)], dtype=np.int64)
        return make_test_polynomial(lut, self.params, p)

    def apply_lut_batch(self, cts: list, lut_halves: list, p: int = None,
                        noise_labels: list = None) -> list:
        """Bootstrap several ciphertexts in one batched pass.

        ``lut_halves[r]`` programs sample ``r`` (per-sample test
        polynomials riding the same BSK pass).  Falls back to scalar
        bootstraps for the reference engines.  Bit-identical to mapping
        :meth:`apply_lut` over the inputs.
        """
        p = p or self.default_p
        if self.engine != "transform":
            outs = []
            for r, (ct, lut_half) in enumerate(zip(cts, lut_halves)):
                label = noise_labels[r] if noise_labels is not None else None
                if label is not None and _BUS.enabled:
                    with _NOISE.labelled(label):
                        outs.append(self.apply_lut(ct, lut_half, p))
                else:
                    outs.append(self.apply_lut(ct, lut_half, p))
            return outs
        tps = np.stack([self._lut_test_poly(lut_half, p) for lut_half in lut_halves])
        return programmable_bootstrap_batch(
            cts, tps, self.keyset, noise_labels=noise_labels
        )

    def gate_batch(self, names: list, xs: list, ys: list) -> list:
        """Evaluate independent binary gates as one batched bootstrap.

        The gates share every BSK row (one blind-rotation pass for the
        whole level of a circuit); each sample keeps its own LUT and its
        own ``gate:<name>`` noise label.
        """
        luts = []
        sums = []
        for name, x, y in zip(names, xs, ys):
            try:
                luts.append(GATE_LUTS[name])
            except KeyError:
                raise ValueError(
                    f"unknown gate {name!r}; known: {sorted(GATE_LUTS)}"
                ) from None
            if _BUS.enabled:
                with _NOISE.labelled(f"gate:{name}"):
                    sums.append(lwe_add(x, y))
            else:
                sums.append(lwe_add(x, y))
        labels = [f"gate:{name}" for name in names] if _BUS.enabled else None
        return self.apply_lut_batch(sums, luts, p=8, noise_labels=labels)

    def bootstrap(self, ct: LweCiphertext, p: int = None) -> LweCiphertext:
        """Noise-refresh bootstrap (identity LUT)."""
        p = p or self.default_p
        return self.apply_lut(ct, lambda x: x, p)

    def gate(self, name: str, x: LweCiphertext, y: LweCiphertext) -> LweCiphertext:
        """Evaluate a binary gate on bit ciphertexts encrypted with p=8."""
        try:
            lut = GATE_LUTS[name]
        except KeyError:
            raise ValueError(f"unknown gate {name!r}; known: {sorted(GATE_LUTS)}") from None
        if _BUS.enabled:
            with _NOISE.labelled(f"gate:{name}"):
                return self.apply_lut(lwe_add(x, y), lut, p=8)
        return self.apply_lut(lwe_add(x, y), lut, p=8)

    def lwe_not(self, x: LweCiphertext) -> LweCiphertext:
        """NOT of a bit: 1 - x, linear (no bootstrap needed)."""
        one = encode_message(1, 8, self.params.q_bits)[()]
        return lwe_add_plain(lwe_scalar_mul(-1, x), int(one))

    def relu_signed(self, ct: LweCiphertext, p: int = None) -> LweCiphertext:
        """ReLU on an offset-binary signed value (single bootstrap)."""
        p = p or self.default_p
        quarter = p // 4
        return self.apply_lut(ct, lambda x: max(x - quarter, 0) + quarter, p)

    def compare_ge(self, ct: LweCiphertext, threshold: int, p: int = None) -> LweCiphertext:
        """``1`` if the signed value >= ``threshold`` else ``0`` (one bootstrap).

        Output is a bit in message space p=8 so it feeds directly into
        gates - the XG-Boost node evaluation pattern.
        """
        p = p or self.default_p
        quarter = p // 4
        lut = [1 if (x - quarter) >= threshold else 0 for x in range(p // 2)]
        bit = self.apply_lut(ct, lut, p)
        return self._rescale_bit(bit, p)

    def _rescale_bit(self, bit_ct: LweCiphertext, from_p: int) -> LweCiphertext:
        """Rescale a {0,1} result from modulus ``from_p`` to the gate modulus 8.

        Encodings differ only by the scale ``q/p``; multiplying by the
        integer ratio moves between them exactly.
        """
        if from_p == 8:
            return bit_ct
        if from_p < 8:
            raise ValueError("bit rescaling expects from_p >= 8")
        return lwe_scalar_mul(from_p // 8, bit_ct)
