"""OFDM decoding with the data path on the simulated array.

:class:`ArrayOfdmReceiver` is the reference receiver with its FFTs
executed by the Fig. 9 array kernel (configuration 1's FFT64) instead
of floating-point numpy; :func:`build_equalizer_config` is the
demodulator of configuration 2b — per-carrier channel weighting with a
circular weight FIFO, mirroring the rake's channel correction.
"""

from __future__ import annotations


import numpy as np

from repro.fixed import pack_array, to_fixed, unpack_array
from repro.kernels.fft64 import Fft64Kernel
from repro.ofdm.fft import N_STAGES, STAGE_SHIFT
from repro.ofdm.params import N_FFT
from repro.ofdm.receiver import OfdmReceiver
from repro.xpp import ConfigBuilder, Configuration, execute


class ArrayOfdmReceiver(OfdmReceiver):
    """The 802.11a receiver with its datapath on the array.

    Every 64-point FFT runs on the Fig. 9 kernel (configuration 1);
    with ``use_array_equalizer=True`` the per-carrier channel
    equalisation also runs on the configuration-2b kernel.  Slower than
    the golden receiver (it simulates the hardware cycle by cycle) but
    demonstrates the real datapath: quantisation to the input widths,
    per-stage scaling, weight FIFOs.  Collects cumulative array
    statistics in :attr:`fft_invocations`, :attr:`equalizer_invocations`
    and :attr:`array_cycles`.
    """

    #: Logical carrier order the equaliser weight FIFO cycles through.
    _USED_CARRIERS = tuple(k for k in range(-26, 27) if k != 0)

    def __init__(self, *, input_frac_bits: int = 8,
                 use_array_equalizer: bool = False,
                 carrier_frac_bits: int = 7, **kw):
        kw.pop("use_fixed_fft", None)
        super().__init__(use_fixed_fft=False, input_frac_bits=input_frac_bits,
                         **kw)
        self.kernel = Fft64Kernel()
        self.use_array_equalizer = use_array_equalizer
        self.carrier_frac_bits = carrier_frac_bits
        self.fft_invocations = 0
        self.equalizer_invocations = 0
        self.array_cycles = 0
        self._eq_config_h = None
        self._eq_weights = None

    def _ffts(self, windows: np.ndarray) -> np.ndarray:
        """The windows' bins through the Fig. 9 kernel, all of them in
        one batched run."""
        scale = float(1 << self.input_frac_bits)
        re = np.round(np.real(windows) * scale).astype(np.int64)
        im = np.round(np.imag(windows) * scale).astype(np.int64)
        yr, yi = self.kernel.run(re, im)
        self.fft_invocations += len(windows)
        self.array_cycles += sum(s.cycles for s in self.kernel.last_stats)
        norm = scale / float(1 << (N_STAGES * STAGE_SHIFT))
        return (yr + 1j * yi) / norm / np.sqrt(N_FFT)

    def _equalize(self, bins: np.ndarray, h: np.ndarray,
                  polarity: int) -> np.ndarray:
        if not self.use_array_equalizer:
            return super()._equalize(bins, h, polarity)
        from repro.ofdm.params import DATA_CARRIERS, PILOT_CARRIERS, \
            PILOT_VALUES

        if self._eq_weights is None or self._eq_config_h is not h:
            # DSP side: conj(h)/|h|^2 per used carrier (clamped by the
            # weight quantiser on deeply faded carriers)
            weights = []
            for k in self._USED_CARRIERS:
                hk = h[k % 64]
                weights.append(np.conj(hk) / abs(hk) ** 2 if abs(hk) > 1e-6
                               else 0j)
            self._eq_weights = weights
            self._eq_config_h = h

        carriers = np.array([bins[k % 64] for k in self._USED_CARRIERS])
        scale = float(1 << self.carrier_frac_bits)
        quantised = np.round(carriers.real * scale) \
            + 1j * np.round(carriers.imag * scale)
        eq_int, stats = run_equalizer(quantised, self._eq_weights)
        self.equalizer_invocations += 1
        self.array_cycles += stats.cycles
        eq = dict(zip(self._USED_CARRIERS, eq_int / scale))

        pilot_ref = polarity * np.array(PILOT_VALUES, dtype=np.complex128)
        pilot_rx = np.array([eq[k] for k in PILOT_CARRIERS])
        cpe = np.vdot(pilot_ref, pilot_rx)
        phase = cpe / np.abs(cpe) if np.abs(cpe) > 0 else 1.0
        return np.array([eq[k] for k in DATA_CARRIERS]) * np.conj(phase)


def build_equalizer_config(channel_weights, *, half_bits: int = 12,
                           frac_bits: int = 10,
                           name: str = "demodulator") -> Configuration:
    """Configuration 2b: per-carrier equalisation.

    ``channel_weights`` are the complex multipliers (typically
    ``conj(h_k)/|h_k|^2`` for the used carriers, precomputed by the
    DSP); they cycle from a circular weight FIFO into a complex
    multiplier, one carrier per cycle.
    """
    weights = list(channel_weights)
    if not weights:
        raise ValueError("need at least one carrier weight")
    b = ConfigBuilder(name)
    src = b.source("carriers", bits=2 * half_bits)
    packed = []
    for w in weights:
        wre = int(to_fixed(complex(w).real, frac_bits, half_bits))
        wim = int(to_fixed(complex(w).imag, frac_bits, half_bits))
        packed.append((wre & ((1 << half_bits) - 1)) << half_bits
                      | (wim & ((1 << half_bits) - 1)))
    fifo = b.fifo(name="carrier_weights", depth=len(packed), preload=packed,
                  circular=True, bits=2 * half_bits)
    mul = b.alu("CMUL", name="equalise", half_bits=half_bits,
                shift=frac_bits)
    snk = b.sink("out")
    b.connect(src, 0, mul, "a")
    b.connect(fifo, 0, mul, "b")
    b.connect(mul, 0, snk, 0)
    return b.build()


def run_equalizer(carriers: np.ndarray, channel_weights, *,
                  half_bits: int = 12, frac_bits: int = 10):
    """Equalise a carrier stream (symbol-major) through the 2b kernel."""
    c = np.asarray(carriers)
    cfg = build_equalizer_config(channel_weights, half_bits=half_bits,
                                 frac_bits=frac_bits)
    cfg.sinks["out"].expect = c.size
    result = execute(cfg, inputs={"carriers": pack_array(c, half_bits)},
                     max_cycles=20 * c.size + 300)
    return unpack_array(np.array(result["out"]), half_bits), result.stats
