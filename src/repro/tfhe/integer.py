"""Radix-encoded integers over multiple LWE ciphertexts.

The paper's Section I: "To keep the ciphertext parameter small, the TFHE
scheme encrypts large-precision plaintext into multiple ciphertexts ...
the operation can be seen as the computation of multiple small-parameter
ciphertexts rather than a single large-parameter ciphertext."  This
module implements that radix representation (TFHE-rs-style): an integer
is a little-endian vector of base-``2**digit_bits`` digits, each a
separate LWE ciphertext with message modulus ``p = 16`` - leaving carry
headroom below the padding bit.

Operations:

- addition: linear digit-wise sum, then sequential carry propagation
  (two bootstraps per digit: extract low digit, extract carry);
- small-scalar multiplication: linear scaling + the same carry fix-up;
- equality / less-than: digit-wise LUT comparisons combined with gates.

Each operation also reports its bootstrap demand so the scheduler can
cost wide-integer workloads on the accelerator model.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from ..observability import BUS as _BUS, NOISE as _NOISE
from .lwe import LweCiphertext, lwe_add
from .ops import TfheContext

__all__ = [
    "RadixInteger",
    "encrypt_integer",
    "decrypt_integer",
    "add_integers",
    "scalar_mul_integer",
    "equals_integer",
    "less_than_integer",
    "bootstrap_cost",
]

#: Message modulus per digit ciphertext: padded half-space [0, 8) leaves
#: room for digit sums with carries.
DIGIT_P = 16

_NULL = nullcontext()


def _scope(label: str):
    """Noise-telemetry label scope; the shared no-op when tracking is off."""
    return _NOISE.labelled(label) if _BUS.enabled else _NULL


@dataclass
class RadixInteger:
    """Little-endian radix integer: one LWE ciphertext per digit."""

    digits: list
    digit_bits: int

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("need at least one digit")
        if not 1 <= self.digit_bits <= 2:
            # base 2 or 4: larger bases overflow the p=16 carry headroom.
            raise ValueError("digit_bits must be 1 or 2")

    @property
    def base(self) -> int:
        return 1 << self.digit_bits

    @property
    def num_digits(self) -> int:
        return len(self.digits)

    @property
    def bit_width(self) -> int:
        return self.num_digits * self.digit_bits

    @property
    def max_value(self) -> int:
        return (1 << self.bit_width) - 1


def encrypt_integer(
    ctx: TfheContext, value: int, num_digits: int, digit_bits: int = 2
) -> RadixInteger:
    """Encrypt ``value`` as ``num_digits`` base-``2**digit_bits`` digits."""
    base = 1 << digit_bits
    if not 0 <= value < base ** num_digits:
        raise ValueError(
            f"value {value} outside [0, {base ** num_digits}) for {num_digits} digits"
        )
    digits = []
    v = value
    for _ in range(num_digits):
        digits.append(ctx.encrypt(v % base, DIGIT_P))
        v //= base
    return RadixInteger(digits, digit_bits)


def decrypt_integer(ctx: TfheContext, x: RadixInteger) -> int:
    """Decrypt a radix integer back to a python int."""
    value = 0
    for digit_ct in reversed(x.digits):
        value = value * x.base + ctx.decrypt(digit_ct, DIGIT_P)
    return value


def _normalize(ctx: TfheContext, raw: list, digit_bits: int) -> RadixInteger:
    """Carry-propagate raw digit sums back into canonical digits.

    ``raw[i]`` holds a ciphertext of a value in [0, 8); two bootstraps
    per digit split it into (low digit, carry) and the carry joins the
    next digit linearly.  The two LUTs read the same input, so they run
    as one batch of two through the shared blind-rotation pass.  The
    final carry is dropped (wraparound arithmetic, like fixed-width
    hardware integers).
    """
    base = 1 << digit_bits
    out = []
    carry = None
    for digit_ct in raw:
        acc = digit_ct if carry is None else lwe_add(digit_ct, carry)
        low, carry = ctx.apply_lut_batch(
            [acc, acc], [lambda v: v % base, lambda v: v // base], DIGIT_P
        )
        out.append(low)
    return RadixInteger(out, digit_bits)


def add_integers(ctx: TfheContext, x: RadixInteger, y: RadixInteger) -> RadixInteger:
    """Homomorphic addition (mod ``base**num_digits``)."""
    if x.digit_bits != y.digit_bits or x.num_digits != y.num_digits:
        raise ValueError("operands must share the radix layout")
    with _scope("int:add"):
        raw = [lwe_add(a, b) for a, b in zip(x.digits, y.digits)]
        return _normalize(ctx, raw, x.digit_bits)


def scalar_mul_integer(ctx: TfheContext, scalar: int, x: RadixInteger) -> RadixInteger:
    """Multiply by a small plaintext scalar via normalized addition chains.

    Direct digit scaling would push digit sums past the carry headroom
    (``scalar * (base-1) + carry >= p/2``), so each doubling/addition is
    re-normalized - the same strategy TFHE-rs uses for small clear
    multipliers.
    """
    if scalar < 0:
        raise ValueError("scalar must be non-negative")
    if scalar == 0:
        return encrypt_integer(ctx, 0, x.num_digits, x.digit_bits)
    result = None
    addend = x
    bit = scalar
    while bit:
        if bit & 1:
            result = addend if result is None else add_integers(ctx, result, addend)
        bit >>= 1
        if bit:
            addend = add_integers(ctx, addend, addend)
    return result


def equals_integer(ctx: TfheContext, x: RadixInteger, y: RadixInteger) -> LweCiphertext:
    """Bit ciphertext: 1 iff x == y (digit-wise compare + AND tree)."""
    if x.digit_bits != y.digit_bits or x.num_digits != y.num_digits:
        raise ValueError("operands must share the radix layout")
    with _scope("int:equals"):
        acc = None
        for a, b in zip(x.digits, y.digits):
            shifted = _shifted_difference(a, b, x.base)
            eq_bit = ctx.apply_lut(shifted, lambda v: 1 if v == x.base else 0, DIGIT_P)
            eq_bit = ctx._rescale_bit(eq_bit, DIGIT_P)
            acc = eq_bit if acc is None else ctx.gate("and", acc, eq_bit)
        return acc


def _shifted_difference(a: LweCiphertext, b: LweCiphertext, base: int) -> LweCiphertext:
    """``(a - b) + base``: maps the digit difference into [1, 2*base)."""
    from .lwe import lwe_add_plain, lwe_sub
    from .torus import encode_message

    offset = int(encode_message(base, DIGIT_P)[()])
    return lwe_add_plain(lwe_sub(a, b), offset)


def less_than_integer(ctx: TfheContext, x: RadixInteger, y: RadixInteger) -> LweCiphertext:
    """Bit ciphertext: 1 iff x < y (LSB-to-MSB digit scan).

    At each more-significant digit: strictly less wins outright; equal
    digits inherit the verdict of the lower digits.
    """
    if x.digit_bits != y.digit_bits or x.num_digits != y.num_digits:
        raise ValueError("operands must share the radix layout")
    with _scope("int:less_than"):
        result = None
        for a, b in zip(x.digits, y.digits):
            shifted = _shifted_difference(a, b, x.base)
            lt_bit = ctx._rescale_bit(
                ctx.apply_lut(shifted, lambda v: 1 if v < x.base else 0, DIGIT_P), DIGIT_P
            )
            eq_bit = ctx._rescale_bit(
                ctx.apply_lut(shifted, lambda v: 1 if v == x.base else 0, DIGIT_P), DIGIT_P
            )
            if result is None:
                result = lt_bit
            else:
                keep = ctx.gate("and", eq_bit, result)
                result = ctx.gate("or", lt_bit, keep)
        return result


def bootstrap_cost(operation: str, num_digits: int, scalar: int = 3) -> int:
    """Bootstraps an integer operation needs (for scheduler costing)."""
    if operation == "scalar_mul":
        if scalar <= 0:
            return 0
        adds = bin(scalar).count("1") - 1 + (scalar.bit_length() - 1)
        return adds * 2 * num_digits
    costs = {
        "add": 2 * num_digits,
        "equals": 2 * num_digits - 1,
        "less_than": 4 * num_digits - 2,
    }
    try:
        return costs[operation]
    except KeyError:
        raise ValueError(
            f"unknown operation {operation!r}; known: {sorted(costs) + ['scalar_mul']}"
        ) from None
