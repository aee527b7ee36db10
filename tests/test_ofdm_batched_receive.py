"""Batched FFT windows against the per-symbol receive path.

Every receiver transforms its FFT windows through one hook, in two
batches per packet: the two long training symbols with the SIGNAL
symbol, then every data symbol (the array receiver runs each batch as
one FFT64 run that carries all its symbols).  The oracle here is the
receive path as it was before, one FFT per symbol: the golden and
fixed-point transforms, the array kernel on one window at a time, and
the per-symbol equalisers.  The one behaviour the oracle mends is a
SIGNAL symbol cut off by the end of the capture, which the per-symbol
path only noticed as a malformed FFT (an ``IndexError`` or a
``ValueError``): both now say "capture truncated mid-packet".

Hypothesis draws the rate, the payload length, the SNR (low enough for
the SIGNAL field to fail), ``expected_rate`` given or not, leading
silence and truncated captures.  Both paths must agree on the PSDU
bits, the report, the exception text, the array counters
(``fft_invocations == 3 + n_data_symbols`` on a decode) and the probe
records, where the batch's ``xpp.fft64.overflow.stage*`` records are
those of its symbols' solo transforms in another order.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ofdm import OfdmTransmitter
from repro.ofdm.convcode import depuncture
from repro.ofdm.fft import N_STAGES, STAGE_SHIFT, fft64_fixed_complex
from repro.ofdm.hiperlan2 import (
    SYMBOL as H2_SYMBOL,
    TAIL_BITS as H2_TAIL_BITS,
    H2_SCRAMBLER_SEED,
    Hiperlan2Receiver,
    Hiperlan2Transmitter,
    mode_params,
)
from repro.ofdm.impairments import (
    apply_cfo,
    estimate_cfo_coarse,
    estimate_cfo_fine,
)
from repro.ofdm.interleaver import deinterleave
from repro.ofdm.mapping import hard_demap, map_bits, soft_demap
from repro.ofdm.params import (
    DATA_BINS,
    DATA_CARRIERS,
    N_CP,
    N_FFT,
    PILOT_BINS,
    PILOT_CARRIERS,
    PILOT_VALUES,
    pilot_polarity_sequence,
    rate_params,
)
from repro.ofdm.preamble import long_training_bins
from repro.ofdm.receiver import SYMBOL, OfdmReceiver, PacketError, RxReport
from repro.ofdm.scrambler import scramble_bits
from repro.ofdm.transmitter import (
    DATA_SCRAMBLER_SEED,
    SERVICE_BITS,
    TAIL_BITS,
    parse_signal_field,
)
from repro.ofdm.viterbi import viterbi_decode
from repro.telemetry.probes import get_probes, probing
from repro.wcdma import awgn
from repro.wlan import ArrayOfdmReceiver
from repro.wlan.decoder import run_equalizer

RATES = (6, 9, 12, 18, 24, 36, 48, 54)
FFT_PROBES = tuple(f"xpp.fft64.overflow.stage{s}" for s in range(3))


# -- the per-symbol oracle -----------------------------------------------------


def _fft(rcv, samples):
    """One window's bins, as each receiver computed them one by one."""
    if isinstance(rcv, ArrayOfdmReceiver):
        scale = float(1 << rcv.input_frac_bits)
        re = np.round(np.real(samples) * scale).astype(np.int64)
        im = np.round(np.imag(samples) * scale).astype(np.int64)
        yr, yi = rcv.kernel.run(re, im)
        rcv.fft_invocations += 1
        rcv.array_cycles += sum(s.cycles for s in rcv.kernel.last_stats)
        norm = scale / float(1 << (N_STAGES * STAGE_SHIFT))
        return (yr + 1j * yi) / norm / np.sqrt(N_FFT)
    if rcv.use_fixed_fft:
        return fft64_fixed_complex(samples, frac_bits=rcv.input_frac_bits) \
            / np.sqrt(N_FFT)
    return np.fft.fft(samples) / np.sqrt(N_FFT)


def _channel(rcv, rx, t1):
    sym1 = _fft(rcv, rx[t1:t1 + N_FFT])
    sym2 = _fft(rcv, rx[t1 + N_FFT:t1 + 2 * N_FFT])
    ref = long_training_bins()
    h = np.zeros(N_FFT, dtype=np.complex128)
    used = ref != 0
    h[used] = (sym1[used] + sym2[used]) / (2 * ref[used])
    return h


def _equalized_symbol(rcv, rx, start, h, polarity):
    bins = _fft(rcv, rx[start + N_CP:start + SYMBOL])
    if isinstance(rcv, ArrayOfdmReceiver) and rcv.use_array_equalizer:
        if rcv._eq_weights is None or rcv._eq_config_h is not h:
            weights = []
            for k in rcv._USED_CARRIERS:
                hk = h[k % 64]
                weights.append(np.conj(hk) / abs(hk) ** 2 if abs(hk) > 1e-6
                               else 0j)
            rcv._eq_weights = weights
            rcv._eq_config_h = h
        carriers = np.array([bins[k % 64] for k in rcv._USED_CARRIERS])
        scale = float(1 << rcv.carrier_frac_bits)
        quantised = np.round(carriers.real * scale) \
            + 1j * np.round(carriers.imag * scale)
        eq_int, stats = run_equalizer(quantised, rcv._eq_weights)
        rcv.equalizer_invocations += 1
        rcv.array_cycles += stats.cycles
        eq = dict(zip(rcv._USED_CARRIERS, eq_int / scale))
        pilot_ref = polarity * np.array(PILOT_VALUES, dtype=np.complex128)
        pilot_rx = np.array([eq[k] for k in PILOT_CARRIERS])
        cpe = np.vdot(pilot_ref, pilot_rx)
        phase = cpe / np.abs(cpe) if np.abs(cpe) > 0 else 1.0
        return np.array([eq[k] for k in DATA_CARRIERS]) * np.conj(phase)
    used = h != 0
    eq = np.zeros(N_FFT, dtype=np.complex128)
    eq[used] = bins[used] / h[used]
    pilot_ref = polarity * np.array(PILOT_VALUES, dtype=np.complex128)
    cpe = np.vdot(pilot_ref, eq[PILOT_BINS])
    phase = cpe / np.abs(cpe) if np.abs(cpe) > 0 else 1.0
    eq = eq * np.conj(phase)
    return eq[DATA_BINS]


def _receive(rcv, rx, expected_rate=None):
    """``OfdmReceiver.receive`` one FFT per symbol."""
    rx = np.asarray(rx, dtype=np.complex128)
    report = RxReport()
    rcv._viterbi_corrected = 0
    coarse_idx = rcv.detector.coarse_detect(rx)
    if coarse_idx < 0:
        raise PacketError("no preamble detected")
    cfo = 0.0
    if rcv.correct_cfo:
        seg = rx[coarse_idx:coarse_idx + 160]
        if seg.size >= 48:
            cfo = estimate_cfo_coarse(seg)
            rx = apply_cfo(rx, -cfo)
    t1 = rcv.detector.fine_timing(rx, coarse_idx)
    if t1 < 0:
        raise PacketError("no preamble detected")
    if rcv.correct_cfo and t1 + 2 * N_FFT <= rx.size:
        fine = estimate_cfo_fine(rx[t1:t1 + 2 * N_FFT])
        rx = apply_cfo(rx, -fine)
        cfo += fine
    report.cfo_hz = cfo
    report.timing_index = t1
    h = _channel(rcv, rx, t1)
    report.channel = h
    polarity = pilot_polarity_sequence(2048)
    sig_start = t1 + 2 * N_FFT
    if sig_start + SYMBOL > rx.size:        # the one mended behaviour
        raise PacketError("capture truncated mid-packet")
    sig_rp = rate_params(6)
    sig_points = _equalized_symbol(rcv, rx, sig_start, h, polarity[0])
    sig_soft = soft_demap(sig_points, sig_rp.modulation)
    sig_bits = rcv._decode_bits(sig_soft, sig_rp)
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
        points = _equalized_symbol(rcv, rx, start, h, polarity[1 + i])
        soft_all.append(soft_demap(points, rp.modulation))
        evm_acc.append(np.mean(np.abs(points) ** 2))
        ref = map_bits(hard_demap(points, rp.modulation), rp.modulation)
        err_power += np.abs(points - ref) ** 2
        ref_power += np.abs(ref) ** 2
    report.evm = float(np.mean(evm_acc)) if evm_acc else None
    safe_ref = np.maximum(ref_power, 1e-300)
    report.evm_per_carrier = np.sqrt(err_power / safe_ref)
    report.evm_rms = float(np.sqrt(err_power.sum() / safe_ref.sum()))
    scrambled = rcv._decode_bits(np.concatenate(soft_all), rp,
                                 terminated=False)
    data = scramble_bits(scrambled, DATA_SCRAMBLER_SEED)
    report.viterbi_corrected = rcv._viterbi_corrected
    probes = get_probes()
    if probes.enabled:
        probes.record("ofdm.evm_rms", report.evm_rms, unit="ratio")
        for ev in report.evm_per_carrier:
            probes.record("ofdm.evm_carrier", float(ev), unit="ratio")
        probes.record("ofdm.viterbi.corrected", report.viterbi_corrected,
                      unit="bits")
    if length is not None:
        return data[SERVICE_BITS:SERVICE_BITS + 8 * length], report
    return data[SERVICE_BITS:], report


def _receive_burst(rcv, rx, mode, n_bits=None):
    """``Hiperlan2Receiver.receive_burst`` one FFT per symbol."""
    rx = np.asarray(rx, dtype=np.complex128)
    rp = mode_params(mode)
    report = RxReport()
    t1 = rcv.detector.detect(rx)
    if t1 < 0:
        raise PacketError("no preamble detected")
    report.timing_index = t1
    report.rate_mbps = rp.rate_mbps
    h = _channel(rcv, rx, t1)
    report.channel = h
    polarity = pilot_polarity_sequence(2048)
    data_start = t1 + 2 * N_FFT
    n_symbols = (rx.size - data_start) // H2_SYMBOL
    if n_bits is not None:
        n_symbols = min(n_symbols,
                        -(-(n_bits + H2_TAIL_BITS) // rp.n_dbps))
    if n_symbols <= 0:
        raise PacketError("no data symbols in capture")
    report.n_data_symbols = n_symbols
    soft_all = []
    for i in range(n_symbols):
        start = data_start + H2_SYMBOL * i
        points = _equalized_symbol(rcv, rx, start, h, polarity[1 + i])
        soft_all.append(soft_demap(points, rp.modulation))
    deint = deinterleave(np.concatenate(soft_all), rp.n_cbps, rp.n_bpsc)
    mother = depuncture(deint, rp.coding_rate)
    pdu = scramble_bits(viterbi_decode(mother, terminated=False),
                        H2_SCRAMBLER_SEED)
    return (pdu if n_bits is None else pdu[:n_bits]), report


# -- the comparison ------------------------------------------------------------


def _counters(rcv):
    if not isinstance(rcv, ArrayOfdmReceiver):
        return None
    return (rcv.fft_invocations, rcv.equalizer_invocations,
            rcv.array_cycles)


def _outcome(call, rcv):
    """``(result, counters, probe records)`` of one decode, or the
    exception it raised as ``(type name, text)``.  Probe records: every
    probe's samples, the FFT64 overflow ones as a multiset."""
    with probing(keep_samples=1 << 16) as board:
        try:
            bits, report = call()
        except Exception as exc:    # same type and text on both paths
            return (type(exc).__name__, str(exc)), None, None
    records = {name: sorted(board[name].samples) if name in FFT_PROBES
               else board[name].samples for name in board.names()}
    return ((bits.tolist(), report.to_dict()), _counters(rcv), records)


def _make(kind):
    if kind == "golden":
        return OfdmReceiver()
    if kind == "fixed":
        return OfdmReceiver(use_fixed_fft=True)
    return ArrayOfdmReceiver(use_array_equalizer=kind == "array_eq")


_CASES = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def captures(draw, rates=RATES, max_bytes=24):
    """``(samples, seed)`` of one noisy capture, maybe truncated."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rate = draw(st.sampled_from(rates))
    length = draw(st.integers(1, max_bytes))
    ppdu = OfdmTransmitter(rate).transmit(rng.integers(0, 2, 8 * length))
    lead = draw(st.integers(0, 60))
    sig = np.concatenate([np.zeros(lead, complex), ppdu.samples])
    sig = awgn(sig, draw(st.sampled_from((3.0, 6.0, 12.0, 30.0))),
               rng)
    if draw(st.booleans()):     # jam the SIGNAL symbol: its decode fails
        sig[lead + 320:lead + 400] += 2 * rng.standard_normal(80)
    if draw(st.integers(0, 3)) == 0:
        sig = sig[:draw(st.integers(1, sig.size))]
    return sig, rate


@_CASES
@given(captures(), st.sampled_from(("golden", "fixed", "array", "array_eq")),
       st.sampled_from((None, "true", "other")), st.booleans())
def test_batched_receive_matches_per_symbol_receive(capture, kind, expect,
                                                    correct_cfo):
    sig, rate = capture
    expected = {None: None, "true": rate,
                "other": RATES[(RATES.index(rate) + 3) % len(RATES)]}[expect]
    oracle, batched = _make(kind), _make(kind)
    oracle.correct_cfo = batched.correct_cfo = correct_cfo
    want = _outcome(lambda: _receive(oracle, sig, expected), oracle)
    got = _outcome(lambda: batched.receive(sig, expected_rate=expected),
                   batched)
    assert got == want
    if kind.startswith("array") and got[1] is not None:
        report = got[0][1]
        assert got[1][0] == 3 + report["n_data_symbols"]


@_CASES
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.integers(8, 200),
       st.sampled_from((3.0, 12.0, 30.0)), st.booleans(), st.booleans(),
       st.booleans())
def test_batched_burst_matches_per_symbol_burst(seed, mode, n_bits, snr,
                                                cut, fixed, with_bits):
    rng = np.random.default_rng(seed)
    burst = Hiperlan2Transmitter(mode).transmit(rng.integers(0, 2, n_bits))
    sig = awgn(np.concatenate([np.zeros(30, complex), burst.samples]), snr,
               rng)
    if cut:
        sig = sig[:rng.integers(1, sig.size + 1)]
    bits = n_bits if with_bits else None
    oracle = Hiperlan2Receiver(use_fixed_fft=fixed)
    batched = Hiperlan2Receiver(use_fixed_fft=fixed)
    want = _outcome(lambda: _receive_burst(oracle, sig, mode, bits), oracle)
    got = _outcome(lambda: batched.receive_burst(sig, mode, bits), batched)
    assert got == want
