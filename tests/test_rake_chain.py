"""Tests for the complete physical-finger pipeline on the array."""

import numpy as np
import pytest

from repro.kernels.rake_chain import (
    RakeChainKernel,
    build_rake_chain_config,
    )
from repro.wcdma import (
    Basestation,
    DownlinkChannelConfig,
    MultipathChannel,
    awgn,
    qpsk_to_bits,
)

SF, CI = 8, 3
N_CHIPS = 256 * 8


def make_link(h, delays, snr_db=14, seed=0, scale=256):
    rng = np.random.default_rng(seed)
    bs = Basestation(7, [DownlinkChannelConfig(sf=SF, code_index=CI)],
                     rng=rng)
    ants, bits = bs.transmit(N_CHIPS)
    ch = MultipathChannel(delays=list(delays), gains=list(h), rng=rng)
    rx = awgn(ch.apply(ants[0]), snr_db, rng)
    rx_int = np.round(rx.real * scale) + 1j * np.round(rx.imag * scale)
    return rx_int, bits[0]


class TestRakeChainConfig:
    def test_footprint(self):
        req = build_rake_chain_config(2, 8, [1.0, 1.0]).requirements()
        assert req["alu"] == 13
        assert req["ram"] == 2      # accumulator ring + weight FIFO
        assert req["alu"] + req["ram"] <= 64 + 16   # fits the XPP-64A

    def test_footprint_independent_of_fingers(self):
        r2 = build_rake_chain_config(2, 8, [1.0] * 2).requirements()
        r18 = build_rake_chain_config(18, 4, [1.0] * 18).requirements()
        assert r2 == r18

    def test_weight_count_validated(self):
        with pytest.raises(ValueError):
            build_rake_chain_config(3, 8, [1.0, 1.0])
        with pytest.raises(ValueError):
            RakeChainKernel(scrambling_number=0, offsets=[0, 1], sf=8,
                            code_index=1, weights=[1.0])


class TestRakeChainExecution:
    def test_bit_exact_vs_golden(self):
        rng = np.random.default_rng(1)
        rx_int = rng.integers(-60, 60, 400) + 1j * rng.integers(-60, 60, 400)
        k = RakeChainKernel(scrambling_number=3, offsets=[0, 4], sf=SF,
                            code_index=2, weights=[0.7 + 0.2j, -0.4 + 0.5j])
        out, _ = k.run(rx_int, 10)
        assert np.array_equal(out, k.golden(rx_int, 10))

    def test_recovers_bits_through_multipath(self):
        h = [0.8 * np.exp(0.4j), 0.5 * np.exp(-1.1j)]
        rx_int, bits = make_link(h, [0, 5])
        k = RakeChainKernel(scrambling_number=7, offsets=[0, 5], sf=SF,
                            code_index=CI,
                            weights=[np.conj(x) for x in h], acc_shift=1)
        out, _ = k.run(rx_int, 24)
        dec = qpsk_to_bits(out)
        assert np.mean(dec != bits[:dec.size]) == 0.0

    def test_auto_pre_shift_prevents_overflow(self):
        """Full-scale 12-bit input: the kernel picks a pre-shift and
        still matches its golden model and the transmitted bits."""
        h = [0.9, 0.4j]
        rx_int, bits = make_link(h, [0, 3], scale=500, snr_db=18, seed=2)
        k = RakeChainKernel(scrambling_number=7, offsets=[0, 3], sf=SF,
                            code_index=CI,
                            weights=[np.conj(x) for x in h], acc_shift=2)
        data, _c, _o = k.prepare_streams(rx_int, 16)
        assert k._resolve_pre_shift(data) > 0   # headroom actually needed
        out, _ = k.run(rx_int, 16)
        assert np.array_equal(out, k.golden(rx_int, 16))
        dec = qpsk_to_bits(out)
        assert np.mean(dec != bits[:dec.size]) < 0.05

    def test_oversized_input_rejected(self):
        k = RakeChainKernel(scrambling_number=0, offsets=[0], sf=SF,
                            code_index=1, weights=[1.0])
        bad = np.full(200, 3000 + 0j)
        with pytest.raises(ValueError):
            k.run(bad, 4)

    def test_three_finger_scenario(self):
        h = [0.7, 0.5 * np.exp(1.9j), 0.35 * np.exp(-0.7j)]
        rx_int, bits = make_link(h, [0, 6, 11], snr_db=16, seed=3)
        k = RakeChainKernel(scrambling_number=7, offsets=[0, 6, 11], sf=SF,
                            code_index=CI,
                            weights=[np.conj(x) for x in h], acc_shift=1)
        out, _ = k.run(rx_int, 20)
        assert np.array_equal(out, k.golden(rx_int, 20))
        dec = qpsk_to_bits(out)
        assert np.mean(dec != bits[:dec.size]) < 0.01

    def test_throughput_covers_table1_requirement(self):
        """The ring-limited rate (~F/5 slots per cycle) always exceeds
        the F/18 slots per cycle the Table 1 clock budget demands."""
        rng = np.random.default_rng(4)
        for n_fingers in (2, 4, 6):
            offs = list(range(0, 3 * n_fingers, 3))
            rx_int = rng.integers(-50, 50, 1200) \
                + 1j * rng.integers(-50, 50, 1200)
            k = RakeChainKernel(scrambling_number=1, offsets=offs, sf=4,
                                code_index=1, weights=[1.0] * n_fingers)
            n_sym = 16
            out, stats = k.run(rx_int, n_sym)
            slots = n_fingers * 4 * n_sym
            rate = slots / stats.cycles
            assert rate > n_fingers / 18.0
            assert out.size == n_sym

    def test_short_capture_rejected(self):
        k = RakeChainKernel(scrambling_number=0, offsets=[0, 40], sf=SF,
                            code_index=1, weights=[1.0, 1.0])
        with pytest.raises(ValueError):
            k.run(np.zeros(50, dtype=complex), 10)

    def test_scrambling_phase_is_transmit_aligned(self):
        """Regression: the code generator runs at the transmitted chip
        phase for every finger — a delayed path still descrambles with
        code[c], not code[offset + c]."""
        h = [0.1, 1.0]          # energy almost entirely in the delayed path
        rx_int, bits = make_link(h, [0, 7], snr_db=20, seed=5)
        k = RakeChainKernel(scrambling_number=7, offsets=[0, 7], sf=SF,
                            code_index=CI,
                            weights=[np.conj(x) for x in h], acc_shift=1)
        out, _ = k.run(rx_int, 24)
        dec = qpsk_to_bits(out)
        assert np.mean(dec != bits[:dec.size]) == 0.0


def _prepare_streams_loop(k, rx_int, n_symbols):
    """The chip-by-finger loop ``prepare_streams`` replaced, as oracle."""
    from repro.wcdma.codes import ovsf_code, scrambling_code_2bit
    n_chips = n_symbols * k.sf
    code = scrambling_code_2bit(k.scrambling_number, n_chips)
    ovsf = ((1 - ovsf_code(k.sf, k.code_index)) // 2)
    f = k.n_fingers
    data = np.empty(n_chips * f, dtype=np.complex128)
    code_mux = np.empty(n_chips * f, dtype=np.int64)
    ovsf_mux = np.empty(n_chips * f, dtype=np.int64)
    for c in range(n_chips):
        for i, off in enumerate(k.offsets):
            data[c * f + i] = rx_int[off + c]
            code_mux[c * f + i] = code[c]
            ovsf_mux[c * f + i] = ovsf[c % k.sf]
    return data, code_mux, ovsf_mux


def test_prepare_streams_matches_the_chip_loop():
    rng = np.random.default_rng(12)
    for _ in range(25):
        sf = int(rng.choice([4, 8, 16, 32]))
        n_fingers = int(rng.integers(1, 7))
        offsets = rng.integers(0, 40, n_fingers).tolist()
        n_symbols = int(rng.integers(1, 12))
        n = max(offsets) + n_symbols * sf + int(rng.integers(0, 5))
        rx = rng.integers(-300, 301, n) + 1j * rng.integers(-300, 301, n)
        if rng.integers(2):
            rx = rx.real.astype(np.int64)       # a real integer capture
        k = RakeChainKernel(scrambling_number=16 * int(rng.integers(512)),
                            offsets=offsets, sf=sf,
                            code_index=int(rng.integers(sf)),
                            weights=[1.0] * n_fingers)
        got = k.prepare_streams(rx, n_symbols)
        want = _prepare_streams_loop(k, rx, n_symbols)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
