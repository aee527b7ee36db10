"""``map_bits`` against the per-group dict lookup it replaced.

The mapper reads each axis's bit group as one binary index into a level
array.  The oracle here is the implementation before that, kept
verbatim: a tuple-keyed lookup of every group in the Gray tables of
802.11a Tables 78-80.  Hypothesis draws bit streams of every length
for every modulation, so the refusals (an unknown modulation, a word
that is not a bit, a length that is not a whole number of symbols)
are checked as well; outputs must match to the bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ofdm.mapping import _AXIS_LEVELS, BITS_PER_SYMBOL, K_MOD, map_bits


def _map_bits_by_lookup(bits, modulation):
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
    table = _AXIS_LEVELS[half]
    i_levels = np.array([table[tuple(g[:half])] for g in groups], dtype=float)
    q_levels = np.array([table[tuple(g[half:])] for g in groups], dtype=float)
    return K_MOD[modulation] * (i_levels + 1j * q_levels)


def _outcome(fn, bits, modulation):
    try:
        out = fn(bits, modulation)
    except ValueError as exc:
        return "ValueError", str(exc)
    return out.dtype, out.shape, out.tobytes()


MODULATIONS = sorted(K_MOD) + ["8PSK"]


@settings(deadline=None)
@given(modulation=st.sampled_from(MODULATIONS),
       bits=st.lists(st.sampled_from((0, 1)), max_size=300)
       | st.lists(st.integers(-1, 2), max_size=30))
def test_map_bits_matches_the_lookup(modulation, bits):
    bits = np.array(bits, dtype=np.int64)
    assert _outcome(map_bits, bits, modulation) \
        == _outcome(_map_bits_by_lookup, bits, modulation)


@pytest.mark.parametrize("modulation", sorted(K_MOD))
def test_every_group_maps_like_the_lookup(modulation):
    """Every bit group of every modulation, in one stream."""
    n = BITS_PER_SYMBOL[modulation]
    groups = [[(i >> (n - 1 - k)) & 1 for k in range(n)]
              for i in range(1 << n)]
    bits = np.array(groups).reshape(-1)
    assert _outcome(map_bits, bits, modulation) \
        == _outcome(_map_bits_by_lookup, bits, modulation)
