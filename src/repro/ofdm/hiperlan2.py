"""HIPERLAN/2 physical layer (the paper's second WLAN standard).

HIPERLAN/2 shares 802.11a's OFDM numerology (64-point FFT, 48 data + 4
pilot carriers, 20 MHz, 800 ns guard) but differs in the link
adaptation table — it has a 16-QAM rate-9/16 mode at 27 Mbit/s and no
48 Mbit/s mode — and in the burst structure: the PHY mode is signalled
in the MAC's frame channel, so data bursts carry no SIGNAL symbol.

Substitution notes: the ETSI broadcast/uplink burst preambles are
approximated by the (structurally identical) 802.11a training sequence;
the 9/16 puncturing positions follow the code structure (9 input bits
-> 16 kept of 18 mother bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ofdm.convcode import depuncture
from repro.ofdm.interleaver import deinterleave
from repro.ofdm.mapping import soft_demap
from repro.ofdm.params import N_CP, N_FFT, RateParams, \
    pilot_polarity_sequence
from repro.ofdm.preamble import full_preamble
from repro.ofdm.receiver import OfdmReceiver, PacketError
from repro.ofdm.scrambler import scramble_bits
from repro.ofdm.transmitter import _encode_symbols
from repro.ofdm.viterbi import viterbi_decode

#: The seven HIPERLAN/2 PHY modes (ETSI TS 101 475 link adaptation).
H2_MODES = {
    1: RateParams(6, "BPSK", "1/2", 1, 48, 24),
    2: RateParams(9, "BPSK", "3/4", 1, 48, 36),
    3: RateParams(12, "QPSK", "1/2", 2, 96, 48),
    4: RateParams(18, "QPSK", "3/4", 2, 96, 72),
    5: RateParams(27, "16QAM", "9/16", 4, 192, 108),
    6: RateParams(36, "16QAM", "3/4", 4, 192, 144),
    7: RateParams(54, "64QAM", "3/4", 6, 288, 216),
}

#: HIPERLAN/2 scrambler seed (frame-synchronous 7-bit init).
H2_SCRAMBLER_SEED = 0x5A

TAIL_BITS = 6
SYMBOL = N_FFT + N_CP


def mode_params(mode: int) -> RateParams:
    try:
        return H2_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown HIPERLAN/2 mode {mode}; choose 1..7") from None


@dataclass
class H2Burst:
    """A transmitted HIPERLAN/2 burst."""

    samples: np.ndarray
    mode: int
    pdu_bits: np.ndarray
    n_symbols: int


class Hiperlan2Transmitter:
    """Builds downlink data bursts: preamble + coded PDU train.

    The PHY mode is known to the receiver from the MAC frame channel,
    so the burst has no SIGNAL symbol.
    """

    def __init__(self, mode: int):
        self.mode = mode
        self.params = mode_params(mode)

    def transmit(self, pdu_bits: np.ndarray) -> H2Burst:
        pdu = np.asarray(pdu_bits, dtype=np.int64)
        if np.any((pdu != 0) & (pdu != 1)):
            raise ValueError("bits must be 0/1")
        rp = self.params
        n_payload = pdu.size + TAIL_BITS
        n_symbols = -(-n_payload // rp.n_dbps)
        padded = np.zeros(n_symbols * rp.n_dbps, dtype=np.int64)
        padded[:pdu.size] = pdu
        scrambled = scramble_bits(padded, H2_SCRAMBLER_SEED)
        scrambled[pdu.size:pdu.size + TAIL_BITS] = 0    # tail stays zero
        data = _encode_symbols(scrambled, rp, 1)
        samples = np.concatenate([full_preamble(), data])
        return H2Burst(samples=samples, mode=self.mode, pdu_bits=pdu,
                       n_symbols=n_symbols)


class Hiperlan2Receiver(OfdmReceiver):
    """Decodes HIPERLAN/2 bursts with an a-priori PHY mode."""

    def receive_burst(self, rx: np.ndarray, mode: int,
                      n_bits: Optional[int] = None) -> tuple:
        """Decode one burst; returns ``(pdu_bits, report)``.

        ``n_bits`` truncates the descrambled payload (PDU length comes
        from the MAC in a real system).
        """
        rx = np.asarray(rx, dtype=np.complex128)
        rp = mode_params(mode)
        from repro.ofdm.receiver import RxReport
        report = RxReport()
        t1 = self.detector.detect(rx)
        if t1 < 0:
            raise PacketError("no preamble detected")
        report.timing_index = t1
        report.rate_mbps = rp.rate_mbps
        h = self.estimate_channel(rx, t1)
        report.channel = h

        polarity = pilot_polarity_sequence(2048)
        data_start = t1 + 2 * N_FFT
        n_symbols = (rx.size - data_start) // SYMBOL
        if n_bits is not None:
            needed = -(-(n_bits + TAIL_BITS) // rp.n_dbps)
            n_symbols = min(n_symbols, needed)
        if n_symbols <= 0:
            raise PacketError("no data symbols in capture")
        report.n_data_symbols = n_symbols

        bins = self._ffts(self._windows(
            rx, data_start + N_CP + SYMBOL * np.arange(n_symbols)))
        soft_all = []
        for i in range(n_symbols):
            points = self._equalize(bins[i], h, polarity[1 + i])
            soft_all.append(soft_demap(points, rp.modulation))
        deint = deinterleave(np.concatenate(soft_all), rp.n_cbps, rp.n_bpsc)
        mother = depuncture(deint, rp.coding_rate)
        decoded = viterbi_decode(mother, terminated=False)
        pdu = scramble_bits(decoded, H2_SCRAMBLER_SEED)
        if n_bits is not None:
            pdu = pdu[:n_bits]
        return pdu, report
