"""Radix-4 FFT64 on the array (paper Fig. 9).

The pipeline of the paper: 64 samples stream into the dual-ported data
RAM; read addresses come from a preloaded lookup FIFO; the RAM output is
multiplied with twiddle factors from a twiddle lookup FIFO and streams
into the radix-4 butterfly (built from complex-arithmetic ALUs); results
go back to the RAM through a write-address FIFO.  After three
iterations over the same hardware — with a 2-bit right shift per stage
to prevent overflow — the transformed data is available.

The address/twiddle schedules come from
:func:`repro.ofdm.fft.fft64_tables`, the same tables as the golden
fixed-point model, so the kernel matches :func:`repro.ofdm.fft.fft64_fixed`
bit-exactly.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.fixed import pack_array, pack_complex, unpack_array
from repro.ofdm.fft import (
    N,
    STAGE_SHIFT,
    STORAGE_BITS,
    TWIDDLE_BITS,
    digit_reverse4,
    fft64_tables,
)
from repro.telemetry.probes import get_probes
from repro.xpp import (
    ConfigBuilder,
    Configuration,
    ConfigurationManager,
    Simulator,
    make_scheduler,
)

#: Internal lane width: the butterfly's intermediate values need up to
#: ~14 bits per component; tokens model an I/Q lane pair.  The 12-bit
#: storage budget of the paper is asserted at the stage boundary instead
#: (see the tests).
LANE_BITS = 16

#: digit-reversed load order: RAM word i holds sample _DIGIT_REVERSED[i]
_DIGIT_REVERSED = np.array([digit_reverse4(i) for i in range(N)])


def _stage_schedules(stage_index: int, twiddle_bits: int) -> tuple:
    """Read addresses, packed quantised twiddles (including the unit
    twiddle of leg 0) and write addresses for one stage, in stream
    order."""
    stage = fft64_tables()[stage_index]
    scale = 1 << twiddle_bits
    raddrs, twiddles, waddrs = [], [], []
    for bf in stage:
        for leg, idx in enumerate(bf.indices):
            raddrs.append(idx)
            waddrs.append(idx)
            w = 1.0 + 0j if leg == 0 else bf.twiddles[leg - 1]
            twiddles.append(pack_complex(int(round(w.real * scale)),
                                         int(round(w.imag * scale)),
                                         LANE_BITS))
    return raddrs, twiddles, waddrs


def build_fft_stage_config(stage_index: int, data: list, *,
                           twiddle_bits: int = TWIDDLE_BITS,
                           stage_shift: int = STAGE_SHIFT,
                           name: str = "fft64_stage") -> Configuration:
    """One FFT64 stage: RAM + address/twiddle FIFOs + radix-4 butterfly.

    ``data`` is the 64-entry packed RAM image the stage transforms
    in place.
    """
    raddrs, twiddles, waddrs = _stage_schedules(stage_index, twiddle_bits)
    b = ConfigBuilder(f"{name}{stage_index}")
    ram = b.ram(name="data_ram", words=N, bits=2 * LANE_BITS, preload=data)
    raddr_lut = b.fifo(name="raddr_lut", depth=N, preload=raddrs)
    waddr_lut = b.fifo(name="waddr_lut", depth=N, preload=waddrs)
    twiddle_lut = b.fifo(name="twiddle_lut", depth=N, preload=twiddles,
                         bits=2 * LANE_BITS)
    tw_mul = b.alu("CMUL", name="twiddle_mul", half_bits=LANE_BITS,
                   shift=twiddle_bits)
    b.connect(raddr_lut, 0, ram, "raddr")
    b.connect(ram, "rdata", tw_mul, "a")
    b.connect(twiddle_lut, 0, tw_mul, "b")

    # deserialise the twiddled stream into the four butterfly legs
    cnt_hi = b.alu("COUNTER", name="leg_cnt_hi", limit=4)
    cmp_hi = b.alu("CMPGE", name="leg_cmp_hi", const=2)
    demux_hi = b.alu("DEMUX", name="leg_demux_hi", bits=2 * LANE_BITS)
    b.connect(cnt_hi, "value", cmp_hi, "a")
    b.connect(cmp_hi, 0, demux_hi, "sel", capacity=8)
    b.connect(tw_mul, 0, demux_hi, "a")
    legs = []
    for half, src_port in ((0, "o0"), (1, "o1")):
        cnt = b.alu("COUNTER", name=f"leg_cnt_{half}", limit=2)
        demux = b.alu("DEMUX", name=f"leg_demux_{half}", bits=2 * LANE_BITS)
        b.connect(cnt, "value", demux, "sel", capacity=8)
        b.connect(demux_hi, src_port, demux, "a")
        legs.extend([(demux, "o0"), (demux, "o1")])
    (leg_a, pa), (leg_b, pb), (leg_c, pc), (leg_d, pd) = legs

    # radix-4 butterfly: u0 = a+c, u1 = a-c, u2 = b+d, u3 = b-d;
    # V = u0+u2, W = u1 - j*u3, X = u0-u2, Z = u1 + j*u3 (Fig. 9),
    # with the per-stage scaling folded into the final adders.
    u0 = b.alu("CADD", name="u0", half_bits=LANE_BITS)
    u1 = b.alu("CSUB", name="u1", half_bits=LANE_BITS)
    u2 = b.alu("CADD", name="u2", half_bits=LANE_BITS)
    u3 = b.alu("CSUB", name="u3", half_bits=LANE_BITS)
    b.connect(leg_a, pa, u0, "a")
    b.connect(leg_c, pc, u0, "b")
    b.connect(leg_a, pa, u1, "a")
    b.connect(leg_c, pc, u1, "b")
    b.connect(leg_b, pb, u2, "a")
    b.connect(leg_d, pd, u2, "b")
    b.connect(leg_b, pb, u3, "a")
    b.connect(leg_d, pd, u3, "b")
    ju3 = b.alu("CMULJ", name="j_u3", sign=1, half_bits=LANE_BITS)
    b.connect(u3, 0, ju3, 0)
    out_v = b.alu("CADD", name="out_v", half_bits=LANE_BITS,
                  shift=stage_shift)
    out_w = b.alu("CSUB", name="out_w", half_bits=LANE_BITS,
                  shift=stage_shift)
    out_x = b.alu("CSUB", name="out_x", half_bits=LANE_BITS,
                  shift=stage_shift)
    out_z = b.alu("CADD", name="out_z", half_bits=LANE_BITS,
                  shift=stage_shift)
    b.connect(u0, 0, out_v, "a")
    b.connect(u2, 0, out_v, "b")
    b.connect(u1, 0, out_w, "a")
    b.connect(ju3, 0, out_w, "b")
    b.connect(u0, 0, out_x, "a")
    b.connect(u2, 0, out_x, "b")
    b.connect(u1, 0, out_z, "a")
    b.connect(ju3, 0, out_z, "b")

    # re-serialise V, W, X, Z and write back to the RAM
    outs = []
    for half, (first, second) in enumerate(((out_v, out_w),
                                            (out_x, out_z))):
        cnt = b.alu("COUNTER", name=f"mrg_cnt_{half}", limit=2)
        merge = b.alu("MERGE", name=f"mrg_{half}", bits=2 * LANE_BITS)
        b.connect(cnt, "value", merge, "sel", capacity=8)
        b.connect(first, 0, merge, "a")
        b.connect(second, 0, merge, "b")
        outs.append(merge)
    cnt_out = b.alu("COUNTER", name="mrg_cnt_hi", limit=4)
    cmp_out = b.alu("CMPGE", name="mrg_cmp_hi", const=2)
    merge_hi = b.alu("MERGE", name="mrg_hi", bits=2 * LANE_BITS)
    b.connect(cnt_out, "value", cmp_out, "a")
    b.connect(cmp_out, 0, merge_hi, "sel", capacity=8)
    b.connect(outs[0], 0, merge_hi, "a")
    b.connect(outs[1], 0, merge_hi, "b")
    b.connect(merge_hi, 0, ram, "wdata")
    b.connect(waddr_lut, 0, ram, "waddr")
    return b.build()


@functools.lru_cache(maxsize=16)
def resident_stage(twiddle_bits: int, stage_shift: int,
                   scheduler: str) -> tuple:
    """This process's resident stage of one FFT64 shape on one scheduler:
    ``(config, simulator, luts)``, the loaded stage configuration, the
    simulator bound to it and, per stage, its lookup FIFOs' configured
    images (:class:`~repro.xpp.ram.Image`), wrapped once here and taken
    as they are by every reload.

    Every :class:`Fft64Kernel` of the shape shares it.  A run reloads
    the RAM and all three lookup FIFOs before each stage, which resets
    every object and wire of the configuration, so no run sees what
    another left behind."""
    cfg = build_fft_stage_config(0, [0] * N, twiddle_bits=twiddle_bits,
                                 stage_shift=stage_shift)
    names = ("raddr_lut", "twiddle_lut", "waddr_lut")
    luts = tuple({name: cfg.object(name).image(table) for name, table
                  in zip(names, _stage_schedules(stage, twiddle_bits))}
                 for stage in range(3))
    mgr = ConfigurationManager()
    mgr.load(cfg)
    return cfg, Simulator(mgr, scheduler=scheduler), luts


class Fft64Kernel:
    """Executes the three-stage FFT64 on the simulated array.

    The same butterfly netlist is iterated over the three stages, as in
    the paper's RAM read-back scheme, and stays resident like Fig. 10's
    configuration 1: the first :meth:`run` resolves the scheduler (once
    per instance) and takes the process's :func:`resident_stage` of its
    shape, built, loaded and bound on first use by any instance.  Each
    stage is a :meth:`~repro.xpp.Configuration.reload` of the three
    lookup FIFOs (read addresses, write addresses, twiddles) and the
    RAM image, followed by a drain: no load, no remove, so a fastpath
    scheduler keeps its compiled kernel across stages, transforms and
    receivers.  Every stage runs 85 cycles and stops quiescent.  A batch
    of transforms streams through the resident stage back to back: the
    RAM takes one image per transform and each stage's one drain
    carries them all.
    """

    def __init__(self, *, twiddle_bits: int = TWIDDLE_BITS,
                 stage_shift: int = STAGE_SHIFT):
        self.twiddle_bits = twiddle_bits
        self.stage_shift = stage_shift
        self.last_stats = []
        self._config = None
        self._sim = None
        self._luts = None       # per stage: lookup FIFO name -> contents

    def run(self, x_re: np.ndarray, x_im: np.ndarray):
        """Transform integer I/Q samples: ``x_re`` and ``x_im`` of shape
        ``(64,)`` for one transform or ``(B, 64)`` for a batch of B;
        returns ``(re, im)`` of the same shape.

        Whatever the shape, each stage is one batched RAM reload
        (``(B, 64)`` images, :meth:`~repro.xpp.Configuration.reload`)
        and one drain, which carries every member, and the next stage
        reads the members' images back through ``mem``.  The outputs,
        and the ``xpp.fft64.overflow.stage*`` probe records, are those
        of B transforms one by one; ``last_stats`` holds each stage's
        stats summed over the members.
        """
        re = np.asarray(x_re, dtype=np.int64)
        im = np.asarray(x_im, dtype=np.int64)
        if re.shape != im.shape or re.ndim not in (1, 2) \
                or re.shape[-1] != N or not re.size:
            raise ValueError("FFT64 needs 64 samples per transform")
        # load in digit-reversed order (the paper's initial streaming of
        # 64 samples into the data RAM through the address LUT)
        rev = _DIGIT_REVERSED
        data = pack_array(re[..., rev] + 1j * im[..., rev],
                          LANE_BITS).reshape(-1, N)

        if self._sim is None:
            self._config, self._sim, self._luts = resident_stage(
                self.twiddle_bits, self.stage_shift, make_scheduler().name)
        cfg, sim = self._config, self._sim
        ram = cfg.object("data_ram")
        self.last_stats = []
        for stage in range(3):
            # read the previous stage's RAM images back in, with this
            # stage's address/twiddle tables
            cfg.reload({"data_ram": data, **self._luts[stage]})
            stats = sim.drain(20_000)
            self.last_stats.append(stats)
            data = ram.mem
            probes = get_probes()
            if probes.enabled:
                # scan each member's RAM image against the paper's
                # 12-bit storage budget (the lanes themselves are wider)
                bound = 1 << (STORAGE_BITS - 1)
                words = unpack_array(data, LANE_BITS)
                overflows = np.count_nonzero(
                    (words.real < -bound) | (words.real >= bound)
                    | (words.imag < -bound) | (words.imag >= bound), axis=1)
                for count in overflows.tolist():
                    probes.record(f"xpp.fft64.overflow.stage{stage}",
                                  count, unit="words", kind="saturation")

        out = unpack_array(data if re.ndim == 2 else data[0], LANE_BITS)
        return out.real.astype(np.int64), out.imag.astype(np.int64)
