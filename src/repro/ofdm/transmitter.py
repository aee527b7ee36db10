"""802.11a transmitter: PLCP preamble + SIGNAL + DATA.

Builds complete baseband PPDUs so the receiver (the paper's OFDM decoder
application) has a realistic signal to decode: scrambling, convolutional
coding with puncturing, per-symbol interleaving, constellation mapping,
pilot insertion, 64-point IFFT and cyclic prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ofdm.convcode import conv_encode, puncture
from repro.ofdm.interleaver import interleave
from repro.ofdm.mapping import map_bits
from repro.ofdm.params import (
    DATA_BINS,
    DATA_CARRIERS,
    N_CP,
    N_FFT,
    PILOT_BINS,
    PILOT_VALUES,
    RATES,
    RateParams,
    pilot_polarity_sequence,
    rate_params,
)
from repro.ofdm.preamble import full_preamble
from repro.ofdm.scrambler import scramble_bits

#: 7-bit scrambler initial state used for the DATA field (any non-zero
#: value is legal; receivers recover it from the SERVICE bits).
DATA_SCRAMBLER_SEED = 0x5D

SERVICE_BITS = 16
TAIL_BITS = 6


def assemble_symbol(data_points: np.ndarray, polarity: int) -> np.ndarray:
    """One OFDM symbol: 48 data points + 4 pilots -> IFFT -> prepend CP."""
    if data_points.size != len(DATA_CARRIERS):
        raise ValueError(f"need {len(DATA_CARRIERS)} data points")
    bins = np.zeros(N_FFT, dtype=np.complex128)
    bins[DATA_BINS] = data_points
    bins[PILOT_BINS] = polarity * np.array(PILOT_VALUES)
    sym = np.fft.ifft(bins) * np.sqrt(N_FFT)
    return np.concatenate([sym[-N_CP:], sym])


def _encode_symbols(bits: np.ndarray, rp: RateParams,
                    first_polarity_index: int) -> np.ndarray:
    """Coded+interleaved+mapped OFDM symbols for a bit stream that is
    already a whole number of symbols (N_DBPS multiple)."""
    coded = puncture(conv_encode(bits), rp.coding_rate)
    interleaved = interleave(coded, rp.n_cbps, rp.n_bpsc)
    points = map_bits(interleaved, rp.modulation)
    n_symbols = points.size // len(DATA_CARRIERS)
    polarity = pilot_polarity_sequence(first_polarity_index + n_symbols)
    out = []
    for i in range(n_symbols):
        seg = points[i * len(DATA_CARRIERS):(i + 1) * len(DATA_CARRIERS)]
        out.append(assemble_symbol(seg, polarity[first_polarity_index + i]))
    return np.concatenate(out) if out else np.empty(0, dtype=np.complex128)


def signal_field_bits(rate_mbps: int, length_bytes: int) -> np.ndarray:
    """The 24-bit SIGNAL field: RATE, reserved, LENGTH, parity, tail."""
    if not 1 <= length_bytes <= 4095:
        raise ValueError(f"PSDU length must be 1..4095 bytes: {length_bytes}")
    rp = rate_params(rate_mbps)
    bits = list(rp.signal_rate_bits) + [0]
    bits += [(length_bytes >> i) & 1 for i in range(12)]     # LSB first
    bits.append(sum(bits) % 2)                               # even parity
    bits += [0] * TAIL_BITS
    return np.array(bits, dtype=np.int64)


def parse_signal_field(bits: np.ndarray) -> tuple:
    """Decode a 24-bit SIGNAL field -> ``(rate_mbps, length_bytes)``.

    Raises ValueError on bad parity, non-zero tail or unknown rate.
    """
    b = np.asarray(bits, dtype=np.int64)
    if b.size != 24:
        raise ValueError("SIGNAL field is 24 bits")
    if int(np.sum(b[:17])) % 2 != int(b[17]):
        raise ValueError("SIGNAL parity check failed")
    if np.any(b[18:] != 0):
        raise ValueError("SIGNAL tail bits not zero")
    rate_bits = tuple(int(x) for x in b[:4])
    for rate, rp in sorted(RATES.items()):
        if rp.signal_rate_bits == rate_bits:
            length = int(sum(int(b[5 + i]) << i for i in range(12)))
            if length < 1:
                raise ValueError("SIGNAL length is zero")
            return rate, length
    raise ValueError(f"unknown RATE bits {rate_bits}")


@dataclass
class Ppdu:
    """A transmitted packet with its metadata (for test harnesses)."""

    samples: np.ndarray
    rate_mbps: int
    psdu_bits: np.ndarray
    n_data_symbols: int


class OfdmTransmitter:
    """Builds complete 802.11a baseband packets."""

    def __init__(self, rate_mbps: int):
        self.rate = rate_params(rate_mbps)

    def transmit(self, psdu_bits: np.ndarray) -> Ppdu:
        """PSDU bits (a multiple of 8) -> baseband samples."""
        psdu = np.asarray(psdu_bits, dtype=np.int64)
        if psdu.size % 8:
            raise ValueError("PSDU must be whole bytes")
        if np.any((psdu != 0) & (psdu != 1)):
            raise ValueError("bits must be 0/1")
        rp = self.rate
        length_bytes = psdu.size // 8

        # SIGNAL: BPSK rate 1/2, not scrambled, pilot polarity index 0
        sig_bits = signal_field_bits(rp.rate_mbps, length_bytes)
        sig_rp = rate_params(6)
        signal_samples = _encode_symbols(sig_bits, sig_rp, 0)

        # DATA: SERVICE + PSDU + tail + pad, scrambled (tail re-zeroed)
        n_payload = SERVICE_BITS + psdu.size + TAIL_BITS
        n_symbols = -(-n_payload // rp.n_dbps)
        n_padded = n_symbols * rp.n_dbps
        data = np.zeros(n_padded, dtype=np.int64)
        data[SERVICE_BITS:SERVICE_BITS + psdu.size] = psdu
        scrambled = scramble_bits(data, DATA_SCRAMBLER_SEED)
        tail_at = SERVICE_BITS + psdu.size
        scrambled[tail_at:tail_at + TAIL_BITS] = 0
        data_samples = _encode_symbols(scrambled, rp, 1)

        samples = np.concatenate([full_preamble(), signal_samples,
                                  data_samples])
        return Ppdu(samples=samples, rate_mbps=rp.rate_mbps,
                    psdu_bits=psdu, n_data_symbols=n_symbols)
