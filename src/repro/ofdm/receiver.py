"""802.11a reference receiver (golden model of the OFDM decoder).

The processing chain of the paper's Fig. 8: framing & synchronisation
(preamble detection), FFT, demodulation and descrambling — here in
floating point as the golden model; the array mappings live in
:mod:`repro.kernels` and :mod:`repro.wlan`.  The Viterbi decoder is the
dedicated-hardware model from :mod:`repro.ofdm.viterbi`.

``use_fixed_fft=True`` routes the FFT through the bit-accurate
fixed-point FFT64 of Fig. 9 to study the 10-bit/scaling precision
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ofdm.fft import fft64_fixed_complex
from repro.ofdm.impairments import (
    apply_cfo,
    estimate_cfo_coarse,
    estimate_cfo_fine,
)
from repro.ofdm.convcode import conv_encode, depuncture
from repro.ofdm.interleaver import deinterleave
from repro.ofdm.mapping import hard_demap, map_bits, soft_demap
from repro.ofdm.params import (
    DATA_BINS,
    DATA_CARRIERS,
    N_CP,
    N_FFT,
    PILOT_BINS,
    PILOT_VALUES,
    pilot_polarity_sequence,
    rate_params,
)
from repro.ofdm.preamble import PreambleDetector, long_training_bins
from repro.ofdm.scrambler import scramble_bits
from repro.ofdm.transmitter import (
    DATA_SCRAMBLER_SEED,
    SERVICE_BITS,
    TAIL_BITS,
    parse_signal_field,
)
from repro.ofdm.viterbi import viterbi_decode
from repro.telemetry.probes import ALERT_DEGRADED, get_probes

SYMBOL = N_FFT + N_CP


@dataclass
class RxReport:
    """Diagnostics of one packet decode."""

    timing_index: int = -1
    rate_mbps: Optional[int] = None
    length_bytes: Optional[int] = None
    n_data_symbols: int = 0
    channel: Optional[np.ndarray] = None
    signal_ok: bool = False
    evm: Optional[float] = None
    evm_rms: Optional[float] = None
    evm_per_carrier: Optional[np.ndarray] = None
    viterbi_corrected: int = 0
    cfo_hz: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary mirroring
        :meth:`repro.xpp.stats.RunStats.to_dict`.

        The 64-bin ``channel`` estimate and the 48-entry
        ``evm_per_carrier`` vector are arrays, not scalars; the
        serialized form keeps only the worst-carrier EVM so campaign
        shards stay bounded.
        """
        worst = float(np.max(self.evm_per_carrier)) \
            if self.evm_per_carrier is not None \
            and len(self.evm_per_carrier) else None
        return {
            "timing_index": self.timing_index,
            "rate_mbps": self.rate_mbps,
            "length_bytes": self.length_bytes,
            "n_data_symbols": self.n_data_symbols,
            "signal_ok": self.signal_ok,
            "evm": self.evm,
            "evm_rms": self.evm_rms,
            "evm_worst_carrier": worst,
            "viterbi_corrected": self.viterbi_corrected,
            "cfo_hz": self.cfo_hz,
        }


class PacketError(Exception):
    """The receiver could not decode a packet."""


class OfdmReceiver:
    """Decodes 802.11a packets from baseband samples."""

    def __init__(self, *, use_fixed_fft: bool = False,
                 input_frac_bits: int = 8, correct_cfo: bool = False,
                 detector: Optional[PreambleDetector] = None):
        self.use_fixed_fft = use_fixed_fft
        self.input_frac_bits = input_frac_bits
        self.correct_cfo = correct_cfo
        self.detector = detector if detector is not None else PreambleDetector()
        self._viterbi_corrected = 0
        self.degraded = False

    def snapshot(self) -> dict:
        """The receiver's persistent mode state, JSON-serializable.

        The packet pipeline itself is stateless — everything per-packet
        is reset by :meth:`receive` — so the snapshot carries only what
        survives between packets: the FFT mode (including a fault-driven
        :meth:`degrade_to_float_fft`), precision and CFO settings.
        """
        return {"use_fixed_fft": self.use_fixed_fft,
                "input_frac_bits": self.input_frac_bits,
                "correct_cfo": self.correct_cfo,
                "degraded": self.degraded}

    @classmethod
    def from_snapshot(cls, d: dict) -> "OfdmReceiver":
        """Rebuild a receiver from :meth:`snapshot` output."""
        rx = cls(use_fixed_fft=bool(d["use_fixed_fft"]),
                 input_frac_bits=int(d["input_frac_bits"]),
                 correct_cfo=bool(d["correct_cfo"]))
        rx.degraded = bool(d["degraded"])
        return rx

    def restore(self, d: dict) -> None:
        """Apply :meth:`snapshot` state to this receiver in place."""
        self.use_fixed_fft = bool(d["use_fixed_fft"])
        self.input_frac_bits = int(d["input_frac_bits"])
        self.correct_cfo = bool(d["correct_cfo"])
        self.degraded = bool(d["degraded"])

    def degrade_to_float_fft(self, *, reason: str = "") -> None:
        """Fall back from the array's fixed-point FFT to the floating-
        point golden model.

        Recovery policies call this when the FFT64 configuration cannot
        be kept on the array (fault quarantine ate its RAM-PAEs): the
        DSP carries the FFT in software at higher power, the link stays
        up, and an :data:`ALERT_DEGRADED` alert records the mode switch.
        """
        self.degraded = True
        if self.use_fixed_fft:
            self.use_fixed_fft = False
            probes = get_probes()
            if probes.enabled:
                probes.alert(ALERT_DEGRADED, "ofdm.fft", value=1.0,
                             message="fixed-point FFT64 unavailable; "
                                     "using floating-point fallback"
                                     + (f": {reason}" if reason else ""),
                             once=False)

    # -- pipeline stages ---------------------------------------------------------

    def _fft(self, samples: np.ndarray) -> np.ndarray:
        if self.use_fixed_fft:
            return fft64_fixed_complex(samples,
                                       frac_bits=self.input_frac_bits) \
                / np.sqrt(N_FFT)
        return np.fft.fft(samples) / np.sqrt(N_FFT)

    def estimate_channel(self, rx: np.ndarray, t1: int) -> np.ndarray:
        """Average the two long training symbols and divide by the known
        pattern; returns the 64-bin channel estimate."""
        sym1 = self._fft(rx[t1:t1 + N_FFT])
        sym2 = self._fft(rx[t1 + N_FFT:t1 + 2 * N_FFT])
        ref = long_training_bins()
        h = np.zeros(N_FFT, dtype=np.complex128)
        used = ref != 0
        h[used] = (sym1[used] + sym2[used]) / (2 * ref[used])
        return h

    def _equalized_symbol(self, rx: np.ndarray, start: int,
                          h: np.ndarray, polarity: int) -> np.ndarray:
        """FFT + equalise one symbol; returns the 48 data points after
        pilot-based common phase correction."""
        bins = self._fft(rx[start + N_CP:start + SYMBOL])
        used = h != 0
        eq = np.zeros(N_FFT, dtype=np.complex128)
        eq[used] = bins[used] / h[used]
        # common phase error from the 4 pilots
        pilot_ref = polarity * np.array(PILOT_VALUES, dtype=np.complex128)
        cpe = np.vdot(pilot_ref, eq[PILOT_BINS])
        phase = cpe / np.abs(cpe) if np.abs(cpe) > 0 else 1.0
        eq = eq * np.conj(phase)
        return eq[DATA_BINS]

    def _decode_bits(self, soft: np.ndarray, rp, *,
                     terminated: bool = True) -> np.ndarray:
        """Deinterleave, depuncture and Viterbi-decode soft values.

        ``terminated=False`` for the DATA field: the pad bits after the
        tail are scrambled, so the trellis does not end in state 0.
        """
        deint = deinterleave(soft, rp.n_cbps, rp.n_bpsc)
        mother = depuncture(deint, rp.coding_rate)
        decoded = viterbi_decode(mother, terminated=terminated)
        if get_probes().enabled:
            # corrected-error count: re-encode the decision and compare
            # to the hard decisions of the received mother stream
            # (zeros are depuncture erasures — no information)
            reenc = conv_encode(decoded)
            known = mother != 0.0
            hard = (mother < 0.0).astype(np.int64)
            self._viterbi_corrected += int(
                np.sum(hard[known] != reenc[:mother.size][known]))
        return decoded

    # -- packet decode -----------------------------------------------------------

    def receive(self, rx: np.ndarray, *,
                expected_rate: Optional[int] = None) -> tuple:
        """Detect and decode one packet; returns ``(psdu_bits, report)``.

        Raises :class:`PacketError` if no preamble is found or the
        SIGNAL field is invalid.
        """
        rx = np.asarray(rx, dtype=np.complex128)
        report = RxReport()
        self._viterbi_corrected = 0
        coarse_idx = self.detector.coarse_detect(rx)
        if coarse_idx < 0:
            raise PacketError("no preamble detected")
        cfo = 0.0
        if self.correct_cfo:
            # coarse CFO from the periodic short preamble, before fine
            # timing (large offsets decorrelate the timing correlator)
            seg = rx[coarse_idx:coarse_idx + 160]
            if seg.size >= 48:
                cfo = estimate_cfo_coarse(seg)
                rx = apply_cfo(rx, -cfo)
        t1 = self.detector.fine_timing(rx, coarse_idx)
        if t1 < 0:
            raise PacketError("no preamble detected")
        if self.correct_cfo and t1 + 2 * N_FFT <= rx.size:
            fine = estimate_cfo_fine(rx[t1:t1 + 2 * N_FFT])
            rx = apply_cfo(rx, -fine)
            cfo += fine
        report.cfo_hz = cfo
        report.timing_index = t1
        h = self.estimate_channel(rx, t1)
        report.channel = h

        polarity = pilot_polarity_sequence(2048)

        # SIGNAL symbol follows the two long training symbols
        sig_start = t1 + 2 * N_FFT
        sig_rp = rate_params(6)
        sig_points = self._equalized_symbol(rx, sig_start, h, polarity[0])
        sig_soft = soft_demap(sig_points, sig_rp.modulation)
        sig_bits = self._decode_bits(sig_soft, sig_rp)
        try:
            rate, length = parse_signal_field(sig_bits)
            report.signal_ok = True
        except ValueError as exc:
            if expected_rate is None:
                raise PacketError(f"SIGNAL decode failed: {exc}") from exc
            rate, length = expected_rate, None
        if expected_rate is not None:
            rate = expected_rate
        report.rate_mbps = rate
        report.length_bytes = length
        rp = rate_params(rate)

        if length is not None:
            n_payload = SERVICE_BITS + 8 * length + TAIL_BITS
            n_symbols = -(-n_payload // rp.n_dbps)
        else:
            remaining = rx.size - (sig_start + SYMBOL)
            n_symbols = remaining // SYMBOL
        report.n_data_symbols = n_symbols
        if n_symbols <= 0:
            raise PacketError("no data symbols in capture")

        soft_all = []
        evm_acc = []
        n_data = len(DATA_CARRIERS)
        err_power = np.zeros(n_data)
        ref_power = np.zeros(n_data)
        for i in range(n_symbols):
            start = sig_start + SYMBOL * (1 + i)
            if start + SYMBOL > rx.size:
                raise PacketError("capture truncated mid-packet")
            points = self._equalized_symbol(rx, start, h, polarity[1 + i])
            soft_all.append(soft_demap(points, rp.modulation))
            evm_acc.append(np.mean(np.abs(points) ** 2))
            # decision-directed error vector: distance to the nearest
            # constellation point, per data carrier
            ref = map_bits(hard_demap(points, rp.modulation),
                           rp.modulation)
            err_power += np.abs(points - ref) ** 2
            ref_power += np.abs(ref) ** 2
        report.evm = float(np.mean(evm_acc)) if evm_acc else None
        if n_symbols > 0:
            safe_ref = np.maximum(ref_power, 1e-300)
            report.evm_per_carrier = np.sqrt(err_power / safe_ref)
            report.evm_rms = float(
                np.sqrt(err_power.sum() / safe_ref.sum()))

        scrambled = self._decode_bits(np.concatenate(soft_all), rp,
                                      terminated=False)
        data = scramble_bits(scrambled, DATA_SCRAMBLER_SEED)
        report.viterbi_corrected = self._viterbi_corrected
        probes = get_probes()
        if probes.enabled:
            if report.evm_rms is not None:
                probes.record("ofdm.evm_rms", report.evm_rms, unit="ratio")
                for ev in report.evm_per_carrier:
                    probes.record("ofdm.evm_carrier", float(ev),
                                  unit="ratio")
            probes.record("ofdm.viterbi.corrected",
                          report.viterbi_corrected, unit="bits")
        if length is not None:
            psdu = data[SERVICE_BITS:SERVICE_BITS + 8 * length]
        else:
            psdu = data[SERVICE_BITS:]
        return psdu, report
