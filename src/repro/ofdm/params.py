"""IEEE 802.11a / HIPERLAN-2 OFDM physical-layer constants.

Symbols are spread over 48 low-bandwidth data carriers plus 4 pilot
carriers of a 64-point FFT; the standard defines modulation schemes and
code rates for data rates from 6 to 54 Mbit/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ofdm.scrambler import scrambler_sequence

#: FFT size and cyclic prefix (samples at 20 MHz).
N_FFT = 64
N_CP = 16
SYMBOL_SAMPLES = N_FFT + N_CP       # 80
SAMPLE_RATE_HZ = 20_000_000
SYMBOL_DURATION_S = SYMBOL_SAMPLES / SAMPLE_RATE_HZ    # 4 us

#: Carrier allocation: 48 data + 4 pilots out of 52 used carriers.
N_DATA_CARRIERS = 48
N_PILOT_CARRIERS = 4
PILOT_CARRIERS = (-21, -7, 7, 21)
#: Base pilot polarities on carriers (-21, -7, 7, 21).
PILOT_VALUES = (1, 1, 1, -1)

#: Logical carrier indices -26..-1, 1..26 excluding pilots, in the order
#: data bits are mapped (802.11a sec. 17.3.5.9).
DATA_CARRIERS = tuple(k for k in list(range(-26, 0)) + list(range(1, 27))
                      if k not in PILOT_CARRIERS)

assert len(DATA_CARRIERS) == N_DATA_CARRIERS


def _bins(carriers) -> np.ndarray:
    out = np.array([k % N_FFT for k in carriers])
    out.flags.writeable = False
    return out


#: FFT bins of :data:`DATA_CARRIERS` and :data:`PILOT_CARRIERS`, in the
#: same order (gather/scatter indices).
DATA_BINS = _bins(DATA_CARRIERS)
PILOT_BINS = _bins(PILOT_CARRIERS)


@dataclass(frozen=True)
class RateParams:
    """One entry of the 802.11a rate table."""

    rate_mbps: int
    modulation: str         # 'BPSK' | 'QPSK' | '16QAM' | '64QAM'
    coding_rate: str        # '1/2' | '2/3' | '3/4'
    n_bpsc: int             # coded bits per subcarrier
    n_cbps: int             # coded bits per OFDM symbol
    n_dbps: int             # data bits per OFDM symbol

    @property
    def signal_rate_bits(self) -> tuple:
        """The 4-bit RATE field of the SIGNAL symbol (17.3.4.1)."""
        return _SIGNAL_RATE_BITS[self.rate_mbps]


_SIGNAL_RATE_BITS = {
    6: (1, 1, 0, 1), 9: (1, 1, 1, 1), 12: (0, 1, 0, 1), 18: (0, 1, 1, 1),
    24: (1, 0, 0, 1), 36: (1, 0, 1, 1), 48: (0, 0, 0, 1), 54: (0, 0, 1, 1),
}

#: The eight mandatory/optional 802.11a modes (6..54 Mbit/s).
RATES = {
    6: RateParams(6, "BPSK", "1/2", 1, 48, 24),
    9: RateParams(9, "BPSK", "3/4", 1, 48, 36),
    12: RateParams(12, "QPSK", "1/2", 2, 96, 48),
    18: RateParams(18, "QPSK", "3/4", 2, 96, 72),
    24: RateParams(24, "16QAM", "1/2", 4, 192, 96),
    36: RateParams(36, "16QAM", "3/4", 4, 192, 144),
    48: RateParams(48, "64QAM", "2/3", 6, 288, 192),
    54: RateParams(54, "64QAM", "3/4", 6, 288, 216),
}


def rate_params(rate_mbps: int) -> RateParams:
    """Look up the rate table; raises on a non-802.11a rate."""
    try:
        return RATES[rate_mbps]
    except KeyError:
        raise ValueError(
            f"unsupported 802.11a rate {rate_mbps} Mbit/s; "
            f"choose one of {sorted(RATES)}") from None


def carrier_to_fft_bin(k: int) -> int:
    """Map a logical carrier index (-26..26) to an FFT bin (0..63)."""
    if not -26 <= k <= 26 or k == 0:
        raise ValueError(f"carrier index out of range: {k}")
    return k % N_FFT


def pilot_polarity_sequence(n_symbols: int) -> np.ndarray:
    """The pilot polarity scrambler p_0, p_1, ... (x^7 + x^4 + 1, seed all
    ones), one +-1 value per OFDM symbol including SIGNAL (index 0)."""
    return 1 - 2 * scrambler_sequence(n_symbols, 0x7F)
