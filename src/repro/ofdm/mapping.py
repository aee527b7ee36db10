"""Constellation mapping and demapping (802.11a sec. 17.3.5.7).

Gray-coded BPSK / QPSK / 16-QAM / 64-QAM with the standard per-scheme
normalisation factors so all constellations have unit average power.
Demapping produces per-bit soft values (positive = bit 0 more likely)
for the Viterbi decoder, or hard bits.
"""

from __future__ import annotations

import numpy as np

#: Normalisation (K_MOD) per 802.11a Table 81.
K_MOD = {
    "BPSK": 1.0,
    "QPSK": 1.0 / np.sqrt(2.0),
    "16QAM": 1.0 / np.sqrt(10.0),
    "64QAM": 1.0 / np.sqrt(42.0),
}

BITS_PER_SYMBOL = {"BPSK": 1, "QPSK": 2, "16QAM": 4, "64QAM": 6}

#: Gray mapping of bit groups to one axis level (802.11a Tables 78-80):
#: 1 bit  -> {-1, 1}; 2 bits -> {-3, -1, 1, 3}; 3 bits -> {-7 .. 7}.
_AXIS_LEVELS = {
    1: {(0,): -1, (1,): 1},
    2: {(0, 0): -3, (0, 1): -1, (1, 1): 1, (1, 0): 3},
    3: {(0, 0, 0): -7, (0, 0, 1): -5, (0, 1, 1): -3, (0, 1, 0): -1,
        (1, 1, 0): 1, (1, 1, 1): 3, (1, 0, 1): 5, (1, 0, 0): 7},
}


#: per axis width: the level of each bit group, indexed by the group
#: read as a binary number (first bit most significant)
_LEVEL_OF = {
    n: np.array([table[tuple((i >> (n - 1 - k)) & 1 for k in range(n))]
                 for i in range(1 << n)], dtype=float)
    for n, table in _AXIS_LEVELS.items()}


def map_bits(bits: np.ndarray, modulation: str) -> np.ndarray:
    """Map a bit stream to normalised constellation points."""
    if modulation not in K_MOD:
        raise ValueError(f"unknown modulation {modulation!r}")
    b = np.asarray(bits, dtype=np.int64)
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0/1")
    n_bpsc = BITS_PER_SYMBOL[modulation]
    if b.size % n_bpsc:
        raise ValueError(f"bit count not a multiple of {n_bpsc}")
    groups = b.reshape(-1, n_bpsc)
    if modulation == "BPSK":
        return ((2 * groups[:, 0] - 1) + 0j).astype(np.complex128)
    half = n_bpsc // 2
    weights = 1 << np.arange(half - 1, -1, -1)
    levels = _LEVEL_OF[half]
    i_levels = levels[groups[:, :half] @ weights]
    q_levels = levels[groups[:, half:] @ weights]
    return K_MOD[modulation] * (i_levels + 1j * q_levels)


def soft_demap(symbols: np.ndarray, modulation: str) -> np.ndarray:
    """Per-bit soft values with the convention positive = bit 0.

    Uses the max-log approximation: the soft value of a bit is the
    distance difference between the nearest constellation axis levels
    with that bit 0 vs 1, which for Gray-coded square QAM reduces to
    piecewise-linear functions of the received I/Q coordinate.
    """
    if modulation not in K_MOD:
        raise ValueError(f"unknown modulation {modulation!r}")
    s = np.asarray(symbols, dtype=np.complex128)
    if modulation == "BPSK":
        return -s.real            # bit 1 transmitted as +1
    half = BITS_PER_SYMBOL[modulation] // 2
    scale = 1.0 / K_MOD[modulation]
    out = np.empty((s.size, 2 * half), dtype=np.float64)
    for axis, coord in ((0, s.real * scale), (1, s.imag * scale)):
        col = axis * half
        if half == 1:            # QPSK: 1 bit/axis, level -1|+1 for bit 0|1
            out[:, col] = -coord
        elif half == 2:          # 16QAM Gray axis: 00,01,11,10 -> -3,-1,1,3
            out[:, col] = -coord                    # b0 = 0 on the - side
            out[:, col + 1] = np.abs(coord) - 2.0   # b1 = 0 on outer levels
        else:                    # 64QAM Gray axis: -7..7
            out[:, col] = -coord                    # b0 = 0 on the - side
            out[:, col + 1] = np.abs(coord) - 4.0   # b1 = 0 at |c| in {5,7}
            out[:, col + 2] = np.abs(np.abs(coord) - 4.0) - 2.0
            # b2 = 0 at |c| in {1, 7}
    return out.reshape(-1)


def hard_demap(symbols: np.ndarray, modulation: str) -> np.ndarray:
    """Hard bit decisions (sign of the soft values)."""
    return (soft_demap(symbols, modulation) < 0).astype(np.int64)
