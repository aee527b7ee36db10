"""Differential suite for the fastpath RAM-PAE lowering.

Every scenario drives one netlist through a script of runs, single
steps, source refills and SRAM bit flips under the naive, event and
fastpath schedulers, and the three must agree on everything
observable: sink outputs, per-object firings, cycles, energy, stop
reasons and the final memory image of every RAM.  Scenarios that the
compiler accepts must compile (no fallback warning), so the fastpath
side really is the RAM lowering and not the event scheduler again.

The read-value semantics pinned here are those of
:class:`repro.xpp.ram.RamPae`: a read returns the memory with every
write of *earlier* cycles applied (a same-cycle write lands after the
read), addresses are taken ``% words`` and stored values wrap to
``bits``.
"""

import warnings

import numpy as np
import pytest

from repro.diagnostics import REASON_RAM_CONTROL
from repro.fastpath import FastpathFallbackWarning, TraceSession
from repro.fastpath.cache import compile_graph
from repro.fastpath.capture import capture
from repro.kernels import (
    build_despreader_config,
    build_fft_stage_config,
    build_interleaver_config,
)
from repro.telemetry.metrics import MetricsRegistry, set_metrics
from repro.wlan import Fig10Schedule
from repro.xpp import ConfigBuilder, ConfigurationManager, Simulator
from repro.xpp.config import Configuration
from repro.xpp.io import StreamSink, StreamSource
from repro.xpp.ram import RamPae

def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _drive(build, script, scheduler):
    """Run ``script`` over a fresh ``build()`` netlist; returns every
    observable of the run."""
    cfg = build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    log = []
    for op, *args in script:
        if op == "run":
            log.append(_stats_key(sim.run(args[0])))
        elif op == "drain":
            log.append(_stats_key(sim.drain(2000)))
        elif op == "step":
            log.append([sim.step() for _ in range(args[0])])
        elif op == "feed":
            cfg.sources[args[0]].set_data(args[1])
        elif op == "flip":
            log.append(cfg.object(args[0]).flip_bit(*args[1:]))
        else:
            raise ValueError(op)
    sim.manager.settle()                # write any open session back
    return ({n: list(s.received) for n, s in cfg.sinks.items()}, log,
            {o.name: list(o.mem) for o in cfg.objects
             if isinstance(o, RamPae)},
            {o.name: o.fired for o in cfg.objects}, sim.cycle)


def _differential(build, script, *, compiles=True):
    """Assert all three schedulers agree; returns the naive result."""
    ref = _drive(build, script, "naive")
    assert _drive(build, script, "event") == ref
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _drive(build, script, "fastpath")
    codes = [w.message.code for w in caught
             if issubclass(w.category, FastpathFallbackWarning)]
    assert codes == ([] if compiles else [REASON_RAM_CONTROL])
    assert got == ref
    return ref


def _pass(b, name):
    return b.alu("ADD", name=name, const=0)


def _write_read(delay, *, reads=6):
    """Reads of address 3 every cycle; one write of 99 to address 3
    whose address token is held back ``delay`` cycles."""
    def build():
        b = ConfigBuilder("write_read")
        ram = b.ram(name="ram", words=8, preload=range(10, 18))
        b.connect(b.source("raddr", [3] * reads), 0, ram, "raddr")
        prev = b.source("waddr", [3])
        for k in range(delay):
            nxt = _pass(b, f"delay{k}")
            b.connect(prev, 0, nxt, 0)
            prev = nxt
        b.connect(prev, 0, ram, "waddr")
        b.connect(b.source("wdata", [99]), 0, ram, "wdata")
        b.connect(ram, "rdata", b.sink("out"), 0)
        return b.build()
    return build


@pytest.mark.parametrize("delay", [0, 2, 4])
def test_write_then_read_same_address(delay):
    # reads fire in cycles 1..6, the write in cycle 1 + delay: the read
    # of that same cycle still returns the old word
    outs = _differential(_write_read(delay), [("drain",)])[0]["out"]
    assert outs == [13] * (1 + delay) + [99] * (5 - delay)


def test_same_cycle_read_and_write_is_read_before_write():
    outs, _, mem, _, _ = _differential(_write_read(0, reads=1),
                                       [("drain",)])
    assert outs["out"] == [13]
    assert mem["ram"][3] == 99


def test_address_and_value_wrap():
    def build():
        b = ConfigBuilder("wrap")
        ram = b.ram(name="ram", words=4, bits=8, preload=[1, 2, 3, 4])
        b.connect(b.source("raddr", [5, -1, 6, 1001, 5, -1, 6, 9]), 0,
                  ram, "raddr")
        b.connect(b.source("waddr", [7, -3]), 0, ram, "waddr")
        b.connect(b.source("wdata", [300, -200]), 0, ram, "wdata")
        b.connect(ram, "rdata", b.sink("out"), 0)
        return b.build()
    outs, _, mem, _, _ = _differential(build, [("drain",)])
    assert mem["ram"] == [1, 56, 3, 44]         # 300 -> 44, -200 -> 56
    assert {44, 56} <= set(outs["out"])


def test_read_only_ram_interleaver():
    rng = np.random.default_rng(5)
    block = [int(v) for v in rng.integers(-100, 100, 48)]
    outs = _differential(lambda: build_interleaver_config(48, 1, block),
                         [("drain",)])[0]["out"]
    assert sorted(outs) == sorted(block) and outs != block


def test_write_only_ram():
    def build():
        b = ConfigBuilder("write_only")
        ram = b.ram(name="ram", words=16)
        b.connect(b.source("waddr", [1, 5, 1, 9, 20]), 0, ram, "waddr")
        b.connect(b.source("wdata", [7, 8, 9, 10, 11]), 0, ram, "wdata")
        return b.build()
    mem = _differential(build, [("drain",)])[2]["ram"]
    assert (mem[1], mem[4], mem[5], mem[9]) == (9, 11, 8, 10)


def test_unbound_write_data_disables_the_write_half():
    def build():
        # a bare Configuration: ConfigBuilder.build() refuses the
        # unbound wdata port
        cfg = Configuration("half")
        ram = cfg.add(RamPae("ram", words=4, preload=[5, 6, 7, 8]))
        cfg.connect(cfg.add(StreamSource("raddr", [0, 1, 2, 3])), 0, ram, 0)
        cfg.connect(cfg.add(StreamSource("waddr", [0, 1])), 0, ram, 1)
        cfg.connect(ram, 0, cfg.add(StreamSink("out")), 0)
        return cfg
    outs, _, mem, _, _ = _differential(build, [("drain",)])
    assert outs["out"] == [5, 6, 7, 8] and mem["ram"] == [5, 6, 7, 8]


def test_step_interleaved_with_run():
    script = [("step", 2), ("run", 3), ("step", 1), ("run", 1),
              ("drain",)]
    _differential(_write_read(2), script)


def test_run_stopped_mid_trace_writes_back_exactly():
    # run() exits at max_cycles with the session mid-trace; the next
    # run's entry closes it, writing back the RAM at the cursor
    _differential(_read_modify_write, [("run", 4), ("run", 5),
                                       ("drain",)])


def test_flip_bit_between_runs():
    def build():
        b = ConfigBuilder("flip")
        ram = b.ram(name="ram", words=8, preload=range(8))
        b.connect(b.source("raddr", list(range(8))), 0, ram, "raddr")
        b.connect(b.source("waddr", [5]), 0, ram, "waddr")
        b.connect(b.source("wdata", [77]), 0, ram, "wdata")
        b.connect(ram, "rdata", b.sink("out"), 0)
        return b.build()
    script = [("drain",), ("flip", "ram", 2, 1), ("flip", "ram", 5, 0),
              ("feed", "raddr", [2, 5, 2]), ("drain",)]
    outs, _, mem, _, _ = _differential(build, script)
    assert outs["out"][-3:] == [0, 76, 0]       # 2 ^ 2, 77 ^ 1
    assert mem["ram"][2] == 0 and mem["ram"][5] == 76


def test_flip_bit_after_an_early_stop_sees_the_committed_writes():
    # run(3) stops with the session open after both writes committed:
    # the flip settles it first, so it flips 77, and the drain keeps 88
    def build():
        b = ConfigBuilder("flip_early")
        ram = b.ram(name="ram", words=8, preload=range(8))
        b.connect(b.source("raddr", [5, 6, 5, 6]), 0, ram, "raddr")
        b.connect(b.source("waddr", [5, 6]), 0, ram, "waddr")
        b.connect(b.source("wdata", [77, 88]), 0, ram, "wdata")
        b.connect(ram, "rdata", b.sink("out"), 0)
        return b.build()
    outs, log, mem, _, _ = _differential(
        build, [("run", 3), ("flip", "ram", 5, 0), ("drain",)])
    assert log[1] == 76
    assert mem["ram"][5:7] == [76, 88]
    assert outs["out"] == [5, 6, 76, 88]


def _read_modify_write():
    """Read-modify-write of one word: every write carries a value read
    a few cycles earlier, and later reads observe those writes — the
    read values settle over several sweeps of the value pass."""
    b = ConfigBuilder("rmw")
    ram = b.ram(name="ram", words=4, preload=[10, 20, 30, 40])
    inc = b.alu("ADD", name="inc", const=1)
    b.connect(b.source("raddr", [0] * 12), 0, ram, "raddr")
    b.connect(ram, "rdata", inc, 0)
    b.connect(inc, 0, ram, "wdata")
    b.connect(b.source("waddr", [0] * 12), 0, ram, "waddr")
    b.connect(ram, "rdata", b.sink("out"), 0)
    return b.build()


def test_reads_observing_writes_of_read_data():
    outs = _differential(_read_modify_write, [("drain",)])[0]["out"]
    assert outs[0] == 10 and outs[-1] > 11     # writes were observed


def test_write_address_from_read_data():
    def build():
        b = ConfigBuilder("scatter")
        ram = b.ram(name="ram", words=8, preload=[3, 2, 1, 0, 7, 6, 5, 4])
        b.connect(b.source("raddr", [0, 1, 2, 3, 0, 1, 2, 3, 4, 5]), 0,
                  ram, "raddr")
        to_waddr = _pass(b, "to_waddr")
        b.connect(ram, "rdata", to_waddr, 0)
        b.connect(to_waddr, 0, ram, "waddr")
        b.connect(b.source("wdata", [50, 51, 52, 53, 54, 55, 56, 57, 58,
                                     59]), 0, ram, "wdata")
        return b.build()
    _differential(build, [("drain",)])


def test_ram_read_addresses_another_ram():
    def build():
        b = ConfigBuilder("two_rams")
        ptr = b.ram(name="ptr", words=4, preload=[2, 0, 3, 1])
        data = b.ram(name="data", words=4, preload=[100, 200, 300, 400])
        b.connect(b.source("i", [0, 1, 2, 3, 0, 1]), 0, ptr, "raddr")
        b.connect(ptr, "rdata", data, "raddr")
        b.connect(b.source("waddr", [0, 3]), 0, data, "waddr")
        b.connect(b.source("wdata", [-5, -6]), 0, data, "wdata")
        b.connect(data, "rdata", b.sink("out"), 0)
        return b.build()
    _differential(build, [("drain",)])


def test_ram_feeding_a_feedback_ring():
    # a running sum (ADD + REG ring) of RAM reads: the ring is a late
    # SCC, its epoch kernel runs after the trace stamps the reads
    def build():
        b = ConfigBuilder("ram_ring")
        ram = b.ram(name="ram", words=4, preload=[1, 2, 3, 4])
        add = b.alu("ADD", name="sum")
        reg = b.alu("REG", name="hold", init=(0,))
        b.connect(b.source("raddr", [0, 1, 2, 3, 3, 2, 1, 0]), 0, ram,
                  "raddr")
        b.connect(b.source("waddr", [3, 1]), 0, ram, "waddr")
        b.connect(b.source("wdata", [40, 20]), 0, ram, "wdata")
        b.connect(ram, "rdata", add, "a")
        b.connect(reg, 0, add, "b")
        b.connect(add, 0, reg, 0)
        b.connect(add, 0, b.sink("out"), 0)
        return b.build()
    outs = _differential(build, [("run", 5), ("drain",)])[0]["out"]
    assert len(outs) == 8 and outs[-1] > sum([1, 2, 3, 4]) * 2


def test_ram_read_data_on_a_select_falls_back_exactly():
    def build():
        b = ConfigBuilder("ram_gate")
        ram = b.ram(name="ram", words=4, preload=[1, 0, 1, 1])
        gate = b.alu("GATE")
        b.connect(b.alu("SEQ", name="addr", values=[0, 1, 2, 3]), 0,
                  ram, "raddr")
        b.connect(ram, "rdata", gate, "ctrl")
        b.connect(b.source("a", [5, 6, 7, 8]), 0, gate, "a")
        b.connect(gate, 0, b.sink("y"), 0)
        return b.build()
    outs = _differential(build, [("drain",)], compiles=False)[0]
    assert outs["y"] == [5, 7, 8]


def test_read_address_loop_falls_back_exactly():
    def build():
        b = ConfigBuilder("chase")
        ram = b.ram(name="ram", words=4, preload=[2, 3, 1, 0])
        reg = b.alu("REG", init=(0,))
        b.connect(reg, 0, ram, "raddr")
        b.connect(ram, "rdata", reg, 0)
        b.connect(ram, "rdata", b.sink("out"), 0)
        return b.build()
    outs = _differential(build, [("run", 12)], compiles=False)[0]
    assert outs["out"][:4] == [2, 1, 3, 0]


def _fig10_with_resident_fft(scheduler, *, between_runs=False):
    """The Fig. 10 swap (2a out, 2b in) at cycle 40 while the resident
    FFT stage is transforming a non-zero RAM image: in the middle of one
    run (an opaque ``until`` hook, so fastpath replays per cycle), or
    ``between_runs`` (two runs with no stop predicate, so fastpath
    replays each run whole)."""
    sched = Fig10Schedule()
    sched.start_acquisition()
    down_cfg, fft_cfg = sched.config1
    ram = fft_cfg.object("data_ram")
    rng = np.random.default_rng(21)
    ram.mem = [int(v) & 0xFFFF for v in rng.integers(0, 1 << 16, 64)]
    down_cfg.sources["in"].set_data(rng.integers(0, 4000, 200))
    sched.config2a.sources["in"].set_data(rng.integers(0, 4000, 200))
    sim = Simulator(sched.manager, scheduler=scheduler)

    def swap():
        sched.acquisition_done()
        sched.config2b.sources["carriers"].set_data(
            rng.integers(0, 4000, 104))

    if between_runs:
        stats = [_stats_key(sim.run(40))]
        swap()
        stats.append(_stats_key(sim.run(360)))
    else:
        state = {"swapped": False}

        def maybe_swap():
            if not state["swapped"] and sim.cycle >= 40:
                state["swapped"] = True
                swap()
            return False

        stats = _stats_key(sim.run(400, until=maybe_swap))
    sim.manager.settle()
    fired = {o.name: o.fired for o in sched.manager.active_objects()}
    out = (stats, fired, list(ram.mem),
           list(sched.config2b.sinks["out"].received))
    sched.stop()
    return out


def test_fig10_swap_with_resident_fft_compiles_and_matches(fastpath_steps):
    ref = _fig10_with_resident_fft("naive", between_runs=True)
    assert _fig10_with_resident_fft("event", between_runs=True) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        got = _fig10_with_resident_fft("fastpath", between_runs=True)
    assert fastpath_steps[0] == 0
    assert got == ref
    assert ref[1]["data_ram"] > 0 and ref[3]

    ref = _fig10_with_resident_fft("naive")
    assert _fig10_with_resident_fft("event") == ref
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        got = _fig10_with_resident_fft("fastpath")
    finally:
        set_metrics(previous)
    assert registry.counter("fastpath.fallback").value == 0
    assert fastpath_steps[0] > 0
    assert got == ref
    assert ref[1]["data_ram"] > 0 and ref[3]


# -- TraceSession: the state at the traced end is the kernel's own ---------------


def _absorbed_session(cfg) -> TraceSession:
    mgr = ConfigurationManager()
    mgr.load(cfg)
    graph = capture(mgr)
    s = TraceSession(graph, compile_graph(graph).netlist)
    s.ensure(100_000)
    assert s.z is not None, "trace never went quiet"
    return s


def _despreader():
    rng = np.random.default_rng(3)
    cfg = build_despreader_config(2, 4)
    cfg.sources["data"].set_data(rng.integers(0, 1 << 20, 4000))
    cfg.sources["ovsf"].set_data(rng.integers(0, 2, 4000))
    return cfg


def _fft_stage():
    rng = np.random.default_rng(4)
    return build_fft_stage_config(
        1, [int(v) for v in rng.integers(0, 1 << 32, 64)])


@pytest.mark.parametrize("build", [_despreader, _fft_stage],
                         ids=["despreader", "fft_stage"])
def test_state_at_traced_end_equals_a_rerun(build):
    s = _absorbed_session(build())
    t = len(s.masks)
    sv = list(s.sv)
    for j in s.graph.stamp_edges():
        sv[j] = []
    _, rerun = s.trace(s.s0, sv, [], [], [], t)
    assert s._state_at(t) == rerun
    assert s._state_at(t + 7) == rerun
    stamps = [list(s.sv[j]) for j in s.graph.stamp_edges()]
    # mid-trace states still re-run, without stamping reads twice
    assert s._state_at(t // 2) != rerun
    assert [list(s.sv[j]) for j in s.graph.stamp_edges()] == stamps
