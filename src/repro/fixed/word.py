"""Two's-complement word arithmetic.

All values are plain Python ints (or NumPy integer arrays); the functions
here fold results back into an ``n``-bit two's-complement range the way the
XPP's 24-bit datapath does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Native word width of the XPP-64A ALU-PAE datapath.
WORD_BITS = 24


def min_value(bits: int) -> int:
    """Smallest representable value of an ``bits``-bit signed word."""
    _check_bits(bits)
    return -(1 << (bits - 1))


def max_value(bits: int) -> int:
    """Largest representable value of an ``bits``-bit signed word."""
    _check_bits(bits)
    return (1 << (bits - 1)) - 1


def bit_range(bits: int) -> tuple[int, int]:
    """Return ``(min, max)`` of an ``bits``-bit signed word."""
    return min_value(bits), max_value(bits)


def wrap(value, bits: int = WORD_BITS):
    """Fold ``value`` into ``bits``-bit two's complement (modulo wrap).

    Accepts ints or NumPy arrays.  This models the default overflow
    behaviour of the array datapath.
    """
    _check_bits(bits)
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu" and bits <= 62:
            # int64-native fast path: the mask fits in an int64, so the
            # fold stays in machine integers instead of object arrays
            # (the offset add may wrap around 2**64, which keeps the low
            # ``bits`` bits the mask takes)
            return ((value.astype(np.int64) + sign) & mask) - sign
        v = value.astype(object) & mask
        return np.where(v >= sign, v - (mask + 1), v).astype(np.int64)
    v = int(value) & mask
    return v - (mask + 1) if v >= sign else v


def wrap_list(values, bits: int = WORD_BITS) -> list:
    """``[wrap(int(v), bits) for v in values]`` as a list of Python ints.

    A one-dimensional integer ndarray folds in one vectorised
    :func:`wrap` (for words up to 64 bits, which its int64 result
    holds); any other iterable folds per value, inline.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" \
            and values.ndim == 1 and bits <= 64:
        return wrap(values, bits).tolist()
    _check_bits(bits)
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    return [((int(v) + sign) & mask) - sign for v in values]


def saturate(value, bits: int = WORD_BITS):
    """Clamp ``value`` into the ``bits``-bit signed range.

    Accepts ints or NumPy arrays.  Models the saturating ALU modes used
    where overflow must not fold the sign (e.g. accumulators).
    """
    lo, hi = bit_range(bits)
    if isinstance(value, np.ndarray):
        return np.clip(value, lo, hi)
    return max(lo, min(hi, int(value)))


def to_fixed(value, frac_bits: int, bits: int = WORD_BITS, *, sat: bool = True):
    """Quantise a float (or array) to a signed fixed-point integer.

    ``frac_bits`` is the number of fractional bits; rounding is
    round-half-away-from-zero like typical DSP hardware.
    """
    scaled = np.multiply(value, float(1 << frac_bits))
    if isinstance(scaled, np.ndarray):
        q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
        q = q.astype(np.int64)
        return saturate(q, bits) if sat else wrap(q, bits)
    q = int(np.sign(scaled) * np.floor(abs(scaled) + 0.5))
    return saturate(q, bits) if sat else wrap(q, bits)


def from_fixed(value, frac_bits: int):
    """Convert a fixed-point integer (or array) back to float."""
    return np.asarray(value, dtype=np.float64) / float(1 << frac_bits) \
        if isinstance(value, np.ndarray) else float(value) / float(1 << frac_bits)


def rshift_round(value, amount: int):
    """Arithmetic right shift with round-half-up (DSP rounding shift).

    Adds half an LSB before shifting, removing the toward-minus-infinity
    bias of a plain ``>>``.  Accepts ints or NumPy integer arrays;
    ``amount`` of 0 is the identity.
    """
    if amount < 0:
        raise ValueError("rounding shift amount must be >= 0")
    if amount == 0:
        return value
    half = 1 << (amount - 1)
    return (value + half) >> amount


@dataclass(frozen=True)
class FixedFormat:
    """A signed fixed-point format: total width and fractional bits.

    ``FixedFormat(12, 10)`` is the 12-bit I/Q sample format of the rake
    receiver; ``FixedFormat(24, 0)`` is the raw array word.
    """

    bits: int
    frac_bits: int = 0

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        if not 0 <= self.frac_bits < self.bits:
            raise ValueError(f"frac_bits must be in [0, bits): {self.frac_bits}")

    @property
    def int_bits(self) -> int:
        """Integer bits, excluding the sign bit."""
        return self.bits - self.frac_bits - 1

    @property
    def resolution(self) -> float:
        """Smallest representable step."""
        return 1.0 / (1 << self.frac_bits)

    @property
    def min_float(self) -> float:
        return min_value(self.bits) * self.resolution

    @property
    def max_float(self) -> float:
        return max_value(self.bits) * self.resolution

    def quantize(self, value, *, sat: bool = True):
        """Float -> fixed integer in this format."""
        return to_fixed(value, self.frac_bits, self.bits, sat=sat)

    def to_float(self, value):
        """Fixed integer -> float in this format."""
        return from_fixed(value, self.frac_bits)

    def wrap(self, value):
        return wrap(value, self.bits)

    def saturate(self, value):
        return saturate(value, self.bits)


def _check_bits(bits: int) -> None:
    if bits < 2:
        raise ValueError(f"word width must be >= 2 bits, got {bits}")
