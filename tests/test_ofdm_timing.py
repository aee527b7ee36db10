"""Fine timing and the x^7 + x^4 + 1 LFSR against inline oracles.

``PreambleDetector.fine_timing`` scores every candidate offset in one
windowed product; the per-offset loop it replaced stays here as the
oracle, and must pick the same index on noise, on real packets through
CFO, multipath and noise, at both edges of the 400-sample window, on
captures too short for two symbols, on silence and with NaN samples.
The scrambler and the pilot polarity share one cached 127-bit period;
an inline LFSR checks both for every seed.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ofdm import (
    OfdmTransmitter,
    PreambleDetector,
    apply_cfo,
    long_training_bins,
    pilot_polarity_sequence,
    scrambler_sequence,
)
from repro.ofdm.params import N_FFT
from repro.wcdma import MultipathChannel, awgn

#: the packet's T1 lies this far past its first sample (short preamble
#: plus the long preamble's guard interval)
T1_OFFSET = 160 + 32


def loop_fine_timing(rx, coarse):
    """The per-offset correlation loop ``fine_timing`` replaced."""
    r = np.asarray(rx, dtype=np.complex128)
    ref = np.fft.ifft(long_training_bins()) * np.sqrt(N_FFT)
    lo = max(coarse, 0)
    hi = min(r.size - 2 * N_FFT, lo + 400)
    if hi <= lo:
        return -1
    best, best_val = -1, 0.0
    for n in range(lo, hi):
        val = np.abs(np.vdot(ref, r[n:n + N_FFT])) ** 2
        val += np.abs(np.vdot(ref, r[n + N_FFT:n + 2 * N_FFT])) ** 2
        if val > best_val:
            best_val = val
            best = n
    return best


def check(rx, coarse):
    got = PreambleDetector().fine_timing(rx, coarse)
    assert got == loop_fine_timing(rx, coarse)
    assert type(got) is int
    return got


def noise(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def packet(seed, rate=12, n_bytes=8, pad=40, tail=0):
    rng = np.random.default_rng(seed)
    ppdu = OfdmTransmitter(rate).transmit(rng.integers(0, 2, 8 * n_bytes))
    return np.concatenate([np.zeros(pad, complex), ppdu.samples,
                           np.zeros(tail, complex)])


#: coarse hits relative to T1: T1 the window's first candidate, its
#: last, one sample past either edge
EDGES = {"first": 0, "last": -399, "before": -400, "past": 1}


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 1000),
       coarse=st.integers(-50, 1050),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_noise_captures_match_the_loop(seed, n, coarse, scale):
    check(noise(seed, n, scale), coarse)


@given(seed=st.integers(0, 2 ** 32 - 1),
       rate=st.sampled_from([6, 12, 24, 54]),
       n_bytes=st.integers(1, 24), pad=st.integers(0, 450),
       cfo_hz=st.floats(-200e3, 200e3),
       paths=st.lists(st.tuples(st.integers(1, 12),
                                st.complex_numbers(max_magnitude=0.8)),
                      max_size=3),
       snr_db=st.floats(-10, 40),
       coarse=st.one_of(st.sampled_from(sorted(EDGES) + ["detect"]),
                        st.integers(-50, 900)))
def test_packets_through_a_channel_match_the_loop(seed, rate, n_bytes, pad,
                                                  cfo_hz, paths, snr_db,
                                                  coarse):
    rng = np.random.default_rng(seed)
    rx = packet(seed, rate, n_bytes, pad)
    if paths:
        delays, gains = zip(*((0, 1.0),) + tuple(paths))
        rx = MultipathChannel(list(delays), list(gains)).apply(rx)
    rx = awgn(apply_cfo(rx, cfo_hz), snr_db, rng)
    if coarse == "detect":
        coarse = PreambleDetector().coarse_detect(rx)
    elif isinstance(coarse, str):
        coarse = pad + T1_OFFSET + EDGES[coarse]
    check(rx, coarse)


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_the_window_edges_on_a_clean_packet(edge):
    """T1 is found at either edge of the window and missed one sample
    outside it."""
    rx = packet(3, pad=420)
    t1 = 420 + T1_OFFSET
    got = check(rx, t1 + EDGES[edge])
    if edge in ("first", "last"):
        assert got == t1
    else:
        assert got != t1 and got >= 0


@given(n=st.integers(0, 2 * N_FFT + 3), coarse=st.integers(-5, 260),
       seed=st.integers(0, 2 ** 32 - 1))
def test_short_captures_match_the_loop(n, coarse, seed):
    """Captures with at most a few windows of two symbols; -1 where no
    window fits after ``coarse``."""
    got = check(noise(seed, n), coarse)
    if n - 2 * N_FFT <= max(coarse, 0):
        assert got == -1


@given(n=st.integers(0, 900), coarse=st.integers(-10, 800))
def test_silence_has_no_timing(n, coarse):
    assert check(np.zeros(n, complex), coarse) == -1


@given(seed=st.integers(0, 2 ** 32 - 1),
       nans=st.lists(st.tuples(st.integers(0, 899),
                               st.sampled_from(["re", "im", "both"])),
                     min_size=1, max_size=40),
       from_packet=st.booleans(), coarse=st.integers(-10, 700),
       everywhere=st.booleans())
def test_nan_samples_are_skipped_like_the_loop(seed, nans, from_packet,
                                               coarse, everywhere):
    rx = packet(seed, pad=100, tail=500)[:900] if from_packet \
        else noise(seed, 900)
    rx = rx.copy()
    if everywhere:
        rx[:] = np.nan
    for i, part in nans:
        if part != "im":
            rx[i] = complex(np.nan, rx[i].imag)
        if part != "re":
            rx[i] = complex(rx[i].real, np.nan)
    got = check(rx, coarse)
    if everywhere:
        assert got == -1


# -- the x^7 + x^4 + 1 LFSR ---------------------------------------------------


def lfsr(n, seed):
    state, out = seed, []
    for _ in range(n):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out.append(bit)
    return np.array(out, dtype=np.int64)


LENGTHS = list(range(301)) + [2048]


@pytest.mark.parametrize("seed", range(1, 128))
def test_scrambler_sequence_is_the_lfsr_for_every_seed(seed):
    ref = lfsr(2048, seed)
    for n in LENGTHS:
        got = scrambler_sequence(n, seed)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert np.array_equal(got, ref[:n])


def test_pilot_polarity_is_the_all_ones_lfsr():
    ref = 1 - 2 * lfsr(2048, 0x7F)
    for n in LENGTHS:
        got = pilot_polarity_sequence(n)
        assert got.dtype == np.int64 and np.array_equal(got, ref[:n])
    assert np.array_equal(pilot_polarity_sequence(4), [1, 1, 1, 1])


@pytest.mark.parametrize("make", [lambda n: scrambler_sequence(n, 0x5D),
                                  pilot_polarity_sequence],
                         ids=["scrambler", "polarity"])
def test_returned_arrays_are_fresh(make):
    for n in (5, 127, 300):
        first = make(n)
        expected = first.copy()
        first[:] = 7
        assert np.array_equal(make(n), expected)


@pytest.mark.parametrize("seed", [0, 128, -1, 0x100])
def test_invalid_seeds_raise(seed):
    with pytest.raises(ValueError):
        scrambler_sequence(10, seed)


@pytest.mark.parametrize("make", [lambda n: scrambler_sequence(n, 0x5D),
                                  pilot_polarity_sequence],
                         ids=["scrambler", "polarity"])
def test_negative_lengths_raise(make):
    with pytest.raises(ValueError):
        make(-1)
