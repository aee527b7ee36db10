"""802.11a PLCP preamble: generation and detection.

The short preamble (10 repetitions of a 16-sample symbol) drives the
paper's 'preamble detection correlator' (configuration 2a in Fig. 10);
the long preamble (two full 64-sample training symbols) provides fine
timing and the channel estimate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.ofdm.params import N_FFT
from repro.telemetry.probes import get_probes

#: Short-training-symbol frequency pattern (sec. 17.3.3): values on
#: carriers -24..24 in steps of 4, scaled by sqrt(13/6).
_SHORT_CARRIERS = {
    -24: 1 + 1j, -20: -1 - 1j, -16: 1 + 1j, -12: -1 - 1j, -8: -1 - 1j,
    -4: 1 + 1j, 4: -1 - 1j, 8: -1 - 1j, 12: 1 + 1j, 16: 1 + 1j,
    20: 1 + 1j, 24: 1 + 1j,
}

#: Long-training-symbol pattern on carriers -26..26 (DC = 0).
LONG_SEQUENCE = np.array(
    [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
     1, -1, 1, 1, 1, 1,
     0,
     1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1,
     -1, 1, -1, 1, 1, 1, 1], dtype=np.complex128)

SHORT_PREAMBLE_SAMPLES = 160
LONG_PREAMBLE_SAMPLES = 160     # 32-sample GI2 + 2 x 64
PREAMBLE_SAMPLES = SHORT_PREAMBLE_SAMPLES + LONG_PREAMBLE_SAMPLES


def _freq_to_bins(carrier_values: dict) -> np.ndarray:
    bins = np.zeros(N_FFT, dtype=np.complex128)
    for k, v in carrier_values.items():
        bins[k % N_FFT] = v
    return bins


@lru_cache(maxsize=1)
def long_training_bins() -> np.ndarray:
    """The 64 FFT bins of one long training symbol."""
    values = {k: LONG_SEQUENCE[k + 26]
              for k in range(-26, 27) if k != 0}
    return _freq_to_bins(values)


def short_preamble() -> np.ndarray:
    """The 160-sample short training sequence (t1..t10).

    Only carriers at multiples of 4 are occupied, so the time symbol is
    16-sample periodic; the sqrt(13/6) factor equalises its power with
    the 52-carrier data symbols.
    """
    bins = _freq_to_bins({k: np.sqrt(13.0 / 6.0) * v
                          for k, v in _SHORT_CARRIERS.items()})
    period = np.fft.ifft(bins) * np.sqrt(N_FFT)
    return np.tile(period[:16], 10)


@lru_cache(maxsize=1)
def long_training_symbol() -> np.ndarray:
    """One 64-sample long training symbol in time (read-only)."""
    sym = np.fft.ifft(long_training_bins()) * np.sqrt(N_FFT)
    sym.flags.writeable = False
    return sym


def long_preamble() -> np.ndarray:
    """The 160-sample long training sequence (GI2 + T1 + T2)."""
    sym = long_training_symbol()
    return np.concatenate([sym[-32:], sym, sym])


def full_preamble() -> np.ndarray:
    """Short + long preamble (320 samples)."""
    return np.concatenate([short_preamble(), long_preamble()])


class PreambleDetector:
    """Two-stage packet detection.

    Stage 1 (the array's correlator of config 2a): delay-and-correlate
    with lag 16 over the periodic short preamble; a plateau of high
    normalised autocorrelation marks a packet.  Stage 2: cross-correlate
    with the known long training symbol for sample-accurate timing.
    """

    def __init__(self, *, threshold: float = 0.75, window: int = 48):
        self.threshold = threshold
        self.window = window

    def coarse_detect(self, rx: np.ndarray) -> int:
        """First index where the lag-16 autocorrelation plateau starts;
        -1 if no packet is detected."""
        r = np.asarray(rx, dtype=np.complex128)
        if r.size < self.window + 16:
            return -1
        lag = r[16:] * np.conj(r[:-16])
        power = np.abs(r[16:]) ** 2
        w = self.window
        kernel = np.ones(w)
        corr = np.convolve(lag, kernel, mode="valid")
        norm = np.convolve(power, kernel, mode="valid")
        metric = np.abs(corr) / np.maximum(norm, 1e-12)
        above = np.nonzero(metric > self.threshold)[0]
        probes = get_probes()
        if probes.enabled:
            # the config-2a correlator quality: plateau height decides
            # packet detection
            probes.record("ofdm.preamble.metric", float(metric.max()),
                          unit="ratio")
        return int(above[0]) if above.size else -1

    def fine_timing(self, rx: np.ndarray, coarse: int) -> int:
        """Sample index of the first long training symbol (start of T1).

        Cross-correlates with the known 64-sample long symbol at each
        of up to 400 offsets after the coarse hit; -1 when no offset
        correlates (or the capture is too short for two symbols).
        """
        r = np.asarray(rx, dtype=np.complex128)
        lo = max(coarse, 0)
        hi = min(r.size - 2 * N_FFT, lo + 400)
        if hi <= lo:
            return -1
        # one correlation per window start in [lo, hi + N_FFT)
        c = sliding_window_view(r[lo:hi + 2 * N_FFT - 1], N_FFT) \
            @ np.conj(long_training_symbol())
        p = np.abs(c) ** 2
        # the two long symbols give two equal peaks 64 apart; take the
        # first by requiring the next-symbol correlation too.  fmax
        # scores a NaN window 0, so it never wins
        score = np.fmax(p[:-N_FFT] + p[N_FFT:], 0.0)
        best = int(np.argmax(score))
        return int(lo + best) if score[best] > 0 else -1

    def detect(self, rx: np.ndarray) -> int:
        """Full detection: sample index of T1, or -1."""
        coarse = self.coarse_detect(rx)
        probes = get_probes()
        if coarse < 0:
            if probes.enabled:
                probes.record("ofdm.preamble.detected", 0.0, unit="ratio")
            return -1
        timing = self.fine_timing(rx, coarse)
        if probes.enabled:
            probes.record("ofdm.preamble.detected",
                          1.0 if timing >= 0 else 0.0, unit="ratio")
            if timing >= 0:
                # acquisition time: samples consumed before T1 was found
                probes.record("ofdm.preamble.acquisition_samples",
                              timing, unit="samples")
        return timing
