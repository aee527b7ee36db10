"""The complete physical rake finger as one array configuration.

Chains the paper's Fig. 4 reconfigurable-hardware column end to end on
the array: descrambling (Fig. 5) -> despreading (Fig. 6) -> channel
weighting (Fig. 7, non-STTD) -> combining, all in a single
configuration processing the time-multiplexed logical-finger stream —
the "single physical finger" the paper time-multiplexes at
N x 3.84 MHz.

Inputs (all time-multiplexed chip-major: chip c of finger 0..F-1, then
chip c+1):

* ``data`` — packed 12/12-bit received I/Q samples, already aligned per
  finger (the addressing the dedicated front end performs),
* ``code`` — the 2-bit scrambling code of each (finger, chip) slot from
  the dedicated code generator,
* ``ovsf`` — the 1-bit OVSF chip of each slot.

Output: one combined symbol per ``F x SF`` input slots.
"""

from __future__ import annotations

import numpy as np

from repro.fixed import pack_array, pack_complex, to_fixed, unpack_array
from repro.kernels.channel_correction import WEIGHT_FRAC_BITS
from repro.kernels.descrambler import RESULT_SHIFT, _conj_code_table, \
    descrambler_golden
from repro.kernels.despreader import _ovsf_table, \
    despreader_golden
from repro.wcdma.codes import ovsf_code, scrambling_code_2bit
from repro.xpp import ConfigBuilder, Configuration, execute


def build_rake_chain_config(n_fingers: int, sf: int, weights, *,
                            half_bits: int = 12, acc_shift: int = 0,
                            pre_shift: int = 0,
                            weight_frac_bits: int = WEIGHT_FRAC_BITS,
                            name: str = "rake_chain") -> Configuration:
    """The full finger pipeline for ``n_fingers`` logical fingers.

    ``weights`` are the per-finger combining coefficients (typically
    ``conj(h_f)``); ``pre_shift`` scales chip products before the
    integrate-and-dump (overflow headroom), ``acc_shift`` afterwards.
    """
    weights = list(weights)
    if len(weights) != n_fingers:
        raise ValueError("one combining weight per finger required")
    b = ConfigBuilder(name)
    data_src = b.source("data", bits=2 * half_bits)
    code_src = b.source("code")
    ovsf_src = b.source("ovsf")
    snk = b.sink("out")

    # --- descrambler (Fig. 5)
    code_mux = b.alu("LUT", name="code_mux",
                     table=_conj_code_table(half_bits))
    descramble = b.alu("CMUL", name="descramble", half_bits=half_bits,
                       shift=RESULT_SHIFT)
    b.connect(code_src, 0, code_mux, 0)
    b.connect(data_src, 0, descramble, "a")
    b.connect(code_mux, 0, descramble, "b")

    # --- despreader (Fig. 6)
    ovsf_mux = b.alu("LUT", name="ovsf_mux", table=_ovsf_table(half_bits))
    chip_mul = b.alu("CMUL", name="chip_mul", half_bits=half_bits,
                     shift=pre_shift, round_shift=True)
    b.connect(ovsf_src, 0, ovsf_mux, 0)
    b.connect(descramble, 0, chip_mul, "a")
    b.connect(ovsf_mux, 0, chip_mul, "b")

    acc_add = b.alu("CADD", name="acc_add", half_bits=half_bits)
    ring = b.fifo(name="acc_ram", depth=n_fingers,
                  preload=[0] * n_fingers, bits=2 * half_bits)
    chip_counter = b.alu("COUNTER", name="chip_counter",
                         limit=n_fingers * sf)
    boundary = b.alu("CMPGE", name="boundary_cmp",
                     const=n_fingers * (sf - 1))
    demux = b.alu("DEMUX", name="result_shift_out", bits=2 * half_bits)
    merge = b.alu("MERGE", name="acc_reset", bits=2 * half_bits)
    zero = b.alu("CONST", name="zero_sym",
                 value=pack_complex(0, 0, half_bits))
    scale = b.alu("CSHIFT", name="dump_scale", amount=-acc_shift,
                  half_bits=half_bits)
    b.connect(chip_mul, 0, acc_add, "a")
    b.connect(ring, 0, acc_add, "b")
    b.connect(chip_counter, "value", boundary, "a")
    b.connect(boundary, 0, demux, "sel", capacity=8)
    b.connect(boundary, 0, merge, "sel", capacity=8)
    b.connect(acc_add, 0, demux, "a")
    b.connect(demux, "o0", merge, "a")
    b.connect(zero, 0, merge, "b")
    b.connect(merge, 0, ring, 0)
    b.connect(demux, "o1", scale, 0)

    # --- channel weighting (Fig. 7, non-STTD) + combining
    packed_weights = []
    for w in weights:
        wre = int(to_fixed(complex(w).real, weight_frac_bits, half_bits))
        wim = int(to_fixed(complex(w).imag, weight_frac_bits, half_bits))
        packed_weights.append(pack_complex(wre, wim, half_bits))
    weight_fifo = b.fifo(name="weights", depth=n_fingers,
                         preload=packed_weights, circular=True,
                         bits=2 * half_bits)
    weight_mul = b.alu("CMUL", name="weight_mul", half_bits=half_bits,
                       shift=weight_frac_bits)
    combiner = b.alu("CACC", name="combiner", length=n_fingers,
                     half_bits=half_bits)
    b.connect(scale, 0, weight_mul, "a")
    b.connect(weight_fifo, 0, weight_mul, "b")
    b.connect(weight_mul, 0, combiner, 0)
    b.connect(combiner, 0, snk, 0)
    return b.build()


def rake_chain_golden(data: np.ndarray, code_2bit: np.ndarray,
                      ovsf_bits: np.ndarray, weights, n_fingers: int,
                      sf: int, *, acc_shift: int = 0, pre_shift: int = 0,
                      weight_frac_bits: int = WEIGHT_FRAC_BITS
                      ) -> np.ndarray:
    """Bit-accurate composition of the four kernel golden models."""
    descrambled = descrambler_golden(
        np.real(data).astype(np.int64), np.imag(data).astype(np.int64),
        code_2bit)
    despread = despreader_golden(descrambled, ovsf_bits, n_fingers, sf,
                                 acc_shift=acc_shift, pre_shift=pre_shift)
    weights = np.asarray(list(weights), dtype=np.complex128)
    wr = to_fixed(weights.real, weight_frac_bits)
    wi = to_fixed(weights.imag, weight_frac_bits)
    n = (despread.size // n_fingers) * n_fingers
    f = np.tile(np.arange(n_fingers), n // n_fingers)
    sr = despread.real.astype(np.int64)[:n]
    si = despread.imag.astype(np.int64)[:n]
    weighted_re = (sr * wr[f] - si * wi[f]) >> weight_frac_bits
    weighted_im = (sr * wi[f] + si * wr[f]) >> weight_frac_bits
    combined = (weighted_re + 1j * weighted_im).reshape(-1, n_fingers) \
        .sum(axis=1)
    return combined


class RakeChainKernel:
    """Drives the full-finger pipeline from a raw received chip stream.

    The host-side preparation — aligning per-finger samples and code
    phases from the path offsets — models the addressing the dedicated
    front end and code generators perform.
    """

    def __init__(self, *, scrambling_number: int, offsets, sf: int,
                 code_index: int, weights, half_bits: int = 12,
                 acc_shift: int = 0, pre_shift=None):
        self.scrambling_number = scrambling_number
        self.offsets = list(offsets)
        self.sf = sf
        self.code_index = code_index
        self.weights = list(weights)
        self.half_bits = half_bits
        self.acc_shift = acc_shift
        self.pre_shift = pre_shift      # None = choose from input peak
        if len(self.weights) != len(self.offsets):
            raise ValueError("one weight per finger (offset) required")

    @property
    def n_fingers(self) -> int:
        return len(self.offsets)

    def prepare_streams(self, rx_int: np.ndarray, n_symbols: int) -> tuple:
        """Build the time-multiplexed data/code/ovsf streams."""
        n_chips = n_symbols * self.sf
        need = max(self.offsets) + n_chips
        rx_int = np.asarray(rx_int)
        if rx_int.size < need:
            raise ValueError(f"need {need} samples, got {rx_int.size}")
        code = scrambling_code_2bit(self.scrambling_number, n_chips)
        ovsf = ((1 - ovsf_code(self.sf, self.code_index)) // 2)

        # the sample at rx[offset + c] carries *transmitted* chip c, so
        # the code generators run at the transmitted chip phase for
        # every finger; only the data address is offset per path
        f = self.n_fingers
        c = np.arange(n_chips)
        slots = np.asarray(self.offsets)[None, :] + c[:, None]
        data = rx_int[slots].reshape(-1).astype(np.complex128)
        code_mux = np.repeat(np.asarray(code, dtype=np.int64), f)
        ovsf_mux = np.repeat(np.asarray(ovsf, dtype=np.int64)[c % self.sf], f)
        return data, code_mux, ovsf_mux

    def _resolve_pre_shift(self, data: np.ndarray) -> int:
        if self.pre_shift is not None:
            return self.pre_shift
        # descrambled components are bounded by (|re|+|im|) >> 1
        peak = int(np.max(np.abs(data.real) + np.abs(data.imag))) >> 1
        shift = 0
        while (peak >> shift) * self.sf >= 1 << (self.half_bits - 1):
            shift += 1
        return shift

    def run(self, rx_int: np.ndarray, n_symbols: int):
        """Process a received integer chip stream; returns
        ``(combined_symbols, stats)``."""
        rx_int = np.asarray(rx_int)
        peak = int(max(np.max(np.abs(rx_int.real)),
                       np.max(np.abs(rx_int.imag))))
        if peak >= 1 << (self.half_bits - 1):
            raise ValueError(
                f"input samples exceed the {self.half_bits}-bit I/Q "
                f"width (peak {peak}); rescale the capture")
        data, code_mux, ovsf_mux = self.prepare_streams(rx_int, n_symbols)
        pre_shift = self._resolve_pre_shift(data)
        cfg = build_rake_chain_config(
            self.n_fingers, self.sf, self.weights,
            half_bits=self.half_bits, acc_shift=self.acc_shift,
            pre_shift=pre_shift)
        cfg.sinks["out"].expect = n_symbols
        result = execute(cfg, inputs={
            "data": pack_array(data, self.half_bits),
            "code": code_mux,
            "ovsf": ovsf_mux,
        }, max_cycles=40 * data.size + 1000)
        out = unpack_array(np.array(result["out"]), self.half_bits)
        return out, result.stats

    def golden(self, rx_int: np.ndarray, n_symbols: int) -> np.ndarray:
        data, code_mux, ovsf_mux = self.prepare_streams(rx_int, n_symbols)
        return rake_chain_golden(data, code_mux, ovsf_mux, self.weights,
                                 self.n_fingers, self.sf,
                                 acc_shift=self.acc_shift,
                                 pre_shift=self._resolve_pre_shift(data))
