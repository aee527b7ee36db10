"""Tests of the array kernels (Figs. 5, 6, 7, 9) against their
bit-accurate golden models, plus throughput and resource properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    ChannelCorrectionKernel,
    CombinerKernel,
    DescramblerKernel,
    DespreaderKernel,
    Fft64Kernel,
    build_channel_correction_config,
    build_descrambler_config,
    build_despreader_config,
    channel_correction_golden,
    combiner_golden,
    descrambler_golden,
    despreader_golden,
    scalar_cmul_config,
)
from repro.kernels.combining import build_combiner_config
from repro.kernels.complex_macros import run_scalar_cmul
from repro.ofdm.fft import fft64_fixed
from repro.wcdma import code_from_2bit, scrambling_code_2bit
from repro.xpp.scheduler import SCHEDULER_ENV


def rand_complex_ints(rng, n, mag):
    return rng.integers(-mag, mag, n) + 1j * rng.integers(-mag, mag, n)


class TestDescramblerKernel:
    def test_bit_exact_vs_golden(self):
        rng = np.random.default_rng(0)
        n = 80
        re = rng.integers(-2000, 2000, n)
        im = rng.integers(-2000, 2000, n)
        code = rng.integers(0, 4, n)
        out, _ = DescramblerKernel().run(re, im, code)
        assert np.array_equal(out, descrambler_golden(re, im, code))

    def test_real_scrambling_code(self):
        """Feed a genuine 3GPP scrambling code through the kernel."""
        rng = np.random.default_rng(1)
        n = 64
        re = rng.integers(-1000, 1000, n)
        im = rng.integers(-1000, 1000, n)
        code = scrambling_code_2bit(42, n)
        out, _ = DescramblerKernel().run(re, im, code)
        ref = (re + 1j * im) * np.conj(code_from_2bit(code))
        # golden includes the >>1 datapath shift per component
        expected = (ref.real.astype(np.int64) >> 1) \
            + 1j * (ref.imag.astype(np.int64) >> 1)
        assert np.array_equal(out, expected)

    def test_one_result_per_cycle(self):
        """The paper's pipeline claim: a filled pipeline delivers one
        descrambled chip per clock."""
        rng = np.random.default_rng(2)
        n = 400
        out, stats = DescramblerKernel().run(
            rng.integers(-100, 100, n), rng.integers(-100, 100, n),
            rng.integers(0, 4, n))
        assert out.size == n
        assert stats.throughput("out") > 0.9

    def test_resource_footprint(self):
        cfg = build_descrambler_config()
        req = cfg.requirements()
        assert req["alu"] == 2       # LUT mux + complex multiplier
        assert req.get("ram", 0) == 0

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=8, deadline=None)
    def test_any_length(self, n):
        rng = np.random.default_rng(n)
        re = rng.integers(-500, 500, n)
        im = rng.integers(-500, 500, n)
        code = rng.integers(0, 4, n)
        out, _ = DescramblerKernel().run(re, im, code)
        assert np.array_equal(out, descrambler_golden(re, im, code))


class TestDespreaderKernel:
    @pytest.mark.parametrize("n_fingers,sf", [(1, 4), (2, 8), (4, 8),
                                              (6, 16), (18, 4)])
    def test_bit_exact_vs_golden(self, n_fingers, sf):
        rng = np.random.default_rng(sf)
        n = n_fingers * sf * 3
        chips = rand_complex_ints(rng, n, 100)
        ovsf = rng.integers(0, 2, n)
        out, _ = DespreaderKernel(n_fingers, sf).run(chips, ovsf)
        assert np.array_equal(out,
                              despreader_golden(chips, ovsf, n_fingers, sf))

    def test_acc_shift_scaling(self):
        rng = np.random.default_rng(3)
        n = 2 * 64 * 2
        chips = rand_complex_ints(rng, n, 30)
        ovsf = rng.integers(0, 2, n)
        out, _ = DespreaderKernel(2, 64, acc_shift=6).run(chips, ovsf)
        assert np.array_equal(
            out, despreader_golden(chips, ovsf, 2, 64, acc_shift=6))

    def test_sf512_with_pre_scaling(self):
        """The paper's maximum spreading factor runs on the array with
        integrate-and-dump pre-scaling."""
        rng = np.random.default_rng(12)
        n = 512 * 2
        chips = rand_complex_ints(rng, n, 1000)
        ovsf = rng.integers(0, 2, n)
        out, _ = DespreaderKernel(1, 512, pre_shift=8).run(chips, ovsf)
        assert np.array_equal(
            out, despreader_golden(chips, ovsf, 1, 512, pre_shift=8))

    def test_overflow_detected_without_pre_shift(self):
        from repro.kernels.despreader import check_accumulator_range
        rng = np.random.default_rng(13)
        chips = rand_complex_ints(rng, 512, 1000)
        with pytest.raises(ValueError):
            DespreaderKernel(1, 512).run(chips,
                                         rng.integers(0, 2, 512))
        check_accumulator_range(chips, 512, pre_shift=8)    # fine

    def test_despreads_real_ovsf_code(self):
        """A constant symbol spread by a real OVSF code despreads to
        SF * symbol."""
        from repro.wcdma import ovsf_code
        sf = 16
        code = ovsf_code(sf, 5)
        sym = 7 + 3j
        chips = sym * code
        ovsf_bits = ((1 - code) // 2).astype(np.int64)
        out, _ = DespreaderKernel(1, sf).run(chips, ovsf_bits)
        assert out[0] == sym * sf

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_despreader_config(0, 4)
        with pytest.raises(ValueError):
            build_despreader_config(2, 0)

    def test_resources_independent_of_fingers(self):
        """Time multiplexing: the same PAE count serves 1 or 18 fingers
        (only the accumulator RAM depth changes)."""
        r1 = build_despreader_config(1, 4).requirements()
        r18 = build_despreader_config(18, 4).requirements()
        assert r1 == r18


class TestChannelCorrectionKernel:
    def test_weighting_bit_exact(self):
        rng = np.random.default_rng(4)
        h1 = [0.8 + 0.2j, -0.3 + 0.5j, 0.9j]
        syms = rand_complex_ints(rng, 3 * 12, 400)
        out, _ = ChannelCorrectionKernel(h1).run(syms)
        assert np.array_equal(out, channel_correction_golden(syms, h1))

    def test_sttd_bit_exact(self):
        rng = np.random.default_rng(5)
        h1 = [0.8 + 0.2j, -0.3 + 0.5j]
        h2 = [0.2 - 0.4j, 0.6 + 0.1j]
        syms = rand_complex_ints(rng, 2 * 2 * 6, 400)
        out, _ = ChannelCorrectionKernel(h1, h2).run(syms)
        assert np.array_equal(out, channel_correction_golden(syms, h1, h2))

    def test_sttd_decodes_clean_pair(self):
        """Quantised STTD decode recovers symbol directions through a
        two-antenna channel (single finger)."""
        h1c, h2c = 0.7 + 0.3j, -0.4 + 0.5j
        s0, s1 = 300 + 200j, -250 + 100j
        r0 = h1c * s0 - h2c * np.conj(s1)
        r1 = h1c * s1 + h2c * np.conj(s0)
        stream = np.array([complex(round(r0.real), round(r0.imag)),
                           complex(round(r1.real), round(r1.imag))])
        out, _ = ChannelCorrectionKernel([h1c], [h2c]).run(stream)
        gain = abs(h1c) ** 2 + abs(h2c) ** 2
        assert abs(out[0] / gain - s0) < 20
        assert abs(out[1] / gain - s1) < 20

    def test_uses_weight_fifos(self):
        cfg = build_channel_correction_config([1.0, 1.0], [1.0, 1.0])
        assert cfg.requirements()["ram"] == 2    # the two weight FIFOs

    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            build_channel_correction_config([], None)
        with pytest.raises(ValueError):
            build_channel_correction_config([1.0], [1.0, 2.0])


class TestCombinerKernel:
    def test_bit_exact(self):
        rng = np.random.default_rng(6)
        syms = rand_complex_ints(rng, 5 * 9, 300)
        out, _ = CombinerKernel(5).run(syms)
        assert np.array_equal(out, combiner_golden(syms, 5))

    def test_shift(self):
        syms = np.array([100 + 4j] * 4)
        out, _ = CombinerKernel(4, shift=2).run(syms)
        assert out[0] == 100 + 4j

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_combiner_config(0)


class TestFft64Kernel:
    def test_bit_exact_vs_fixed_golden(self):
        rng = np.random.default_rng(7)
        x = rand_complex_ints(rng, 64, 512)
        kernel = Fft64Kernel()
        yr, yi = kernel.run(x.real.astype(np.int64),
                            x.imag.astype(np.int64))
        gr, gi = fft64_fixed(x.real.astype(np.int64),
                             x.imag.astype(np.int64))
        assert np.array_equal(yr, gr)
        assert np.array_equal(yi, gi)

    def test_impulse(self):
        x = np.zeros(64, dtype=np.int64)
        x[0] = 448
        yr, yi = Fft64Kernel().run(x, np.zeros(64, dtype=np.int64))
        np.testing.assert_array_equal(yr, 448 // 64)
        np.testing.assert_array_equal(yi, 0)

    def test_stage_output_fits_twelve_bits(self):
        """The paper's overflow budget: 10-bit input and 2-bit/stage
        scaling keep every stored value within the 12-bit packed word."""
        rng = np.random.default_rng(8)
        x = rand_complex_ints(rng, 64, 512)
        yr, yi = Fft64Kernel().run(x.real.astype(np.int64),
                                   x.imag.astype(np.int64))
        assert np.max(np.abs(yr)) <= 2047
        assert np.max(np.abs(yi)) <= 2047

    def test_pipeline_cycles_near_one_per_sample(self):
        """Each 64-sample stage completes in little more than 64 cycles
        (pipeline delivering ~one result per cycle)."""
        rng = np.random.default_rng(9)
        x = rand_complex_ints(rng, 64, 500)
        kernel = Fft64Kernel()
        kernel.run(x.real.astype(np.int64), x.imag.astype(np.int64))
        for stats in kernel.last_stats:
            assert stats.cycles < 2 * 64

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            Fft64Kernel().run(np.zeros(10, dtype=np.int64),
                              np.zeros(10, dtype=np.int64))

    @pytest.mark.parametrize("scheduler", ["naive", "event", "fastpath"])
    def test_every_stage_drains_quiescent_in_85_cycles(self, scheduler,
                                                       monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, scheduler)
        rng = np.random.default_rng(9)
        x = rand_complex_ints(rng, 64, 500)
        kernel = Fft64Kernel()
        kernel.run(x.real.astype(np.int64), x.imag.astype(np.int64))
        assert [(s.cycles, s.stop_reason) for s in kernel.last_stats] \
            == [(85, "quiescent")] * 3


class TestScalarMacroAblation:
    def test_scalar_macro_matches_complex_alu(self):
        rng = np.random.default_rng(10)
        a = rand_complex_ints(rng, 20, 30)
        b = rand_complex_ints(rng, 20, 30)
        out, _ = run_scalar_cmul(a, b)
        assert np.array_equal(out, a * b)

    def test_scalar_macro_costs_more_alus(self):
        """The ablation the packed complex ALU wins: 8 scalar PAEs vs 1."""
        # 2 unpack + 4 mul + add + sub + pack = 9 scalar PAEs
        scalar = scalar_cmul_config().requirements()["alu"]
        assert scalar == 9
        # descrambler with the fused CMUL needs only 2
        fused = build_descrambler_config().requirements()["alu"]
        assert scalar > fused
