"""802.11a data scrambler (x^7 + x^4 + 1).

Self-synchronising frame-synchronous scrambler used on the DATA field;
scrambling and descrambling are the same operation.  The pilot
polarity sequence (:func:`repro.ofdm.params.pilot_polarity_sequence`)
is the same LFSR from the all-ones state.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

SCRAMBLER_PERIOD = 127


@lru_cache(maxsize=None)
def _period(seed: int) -> np.ndarray:
    """One read-only 127-bit period of the LFSR started from ``seed``."""
    state = seed
    out = np.empty(SCRAMBLER_PERIOD, dtype=np.int64)
    for i in range(SCRAMBLER_PERIOD):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    out.flags.writeable = False
    return out


def scrambler_sequence(length: int, seed: int = 0x7F) -> np.ndarray:
    """The raw scrambler bit sequence for a given 7-bit seed (a fresh
    array: the cached period repeated to ``length``)."""
    if not 1 <= seed <= 0x7F:
        raise ValueError(f"scrambler seed must be a non-zero 7-bit value: {seed}")
    length = operator.index(length)
    if length < 0:
        raise ValueError(f"scrambler length must be non-negative: {length}")
    period = _period(operator.index(seed))
    if length <= SCRAMBLER_PERIOD:
        return period[:length].copy()
    return np.resize(period, length)


def scramble_bits(bits: np.ndarray, seed: int = 0x7F) -> np.ndarray:
    """XOR the bit stream with the scrambler sequence (used for both
    scrambling and descrambling)."""
    b = np.asarray(bits, dtype=np.int64)
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0/1")
    return b ^ scrambler_sequence(b.size, seed)


descramble_bits = scramble_bits
