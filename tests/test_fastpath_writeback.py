"""The one write-back rule of a fastpath session.

A run, quiescent or not, leaves its session open: the live wires and
registers stay as they were when it opened until the configuration
manager settles.  What a settle writes back depends on what comes next:
everything, or, ahead of a reset of a configuration that holds the
session's whole graph (the resident FFT64's refill), only the wires'
transfer counts, which are all that such a reset keeps.  Reading a
RAM-PAE's ``mem`` off an absorbed session writes that RAM alone back
and keeps the session open.  The ``fastpath.writeback.full`` and
``fastpath.writeback.partial`` counters count the two kinds; every
observable here must equal naive.
"""

import numpy as np
import pytest

from repro.kernels import Fft64Kernel
from repro.telemetry.metrics import collecting
from repro.xpp import (
    SCHEDULER_ENV,
    ConfigBuilder,
    ConfigurationManager,
    FifoPae,
    Simulator,
    execute,
)

SCHEDULERS = ("naive", "event", "fastpath")


def _writer(name="writer"):
    """A RAM written at words 3 and 1 and read at 1, 3 and 0; a FIFO
    filled from a source and never read."""
    b = ConfigBuilder(name)
    ram = b.ram(name="r", words=4, bits=16, preload=[10, 11, 12, 13])
    b.connect(b.source("wa", [3, 1]), 0, ram, "waddr")
    b.connect(b.source("wd", [7, -2], bits=16), 0, ram, "wdata")
    b.connect(b.source("ra", [1, 3, 0]), 0, ram, "raddr")
    b.connect(ram, "rdata", b.sink("rd"), 0)
    b.connect(b.source("x", [4, 5, 6]), 0, b.fifo(name="f", depth=4), "in")
    return b.build()


def _adder(name="adder"):
    b = ConfigBuilder(name)
    b.chain(b.source("x", range(6)), b.alu("ADD", const=100), b.sink("y"))
    return b.build()


def _state(cfg):
    return ([(list(w._q), w.total_transfers, w.resets) for w in cfg.wires],
            {o.name: o.resets for o in cfg.objects},
            {n: s._pos for n, s in cfg.sources.items()},
            {n: list(s.received) for n, s in cfg.sinks.items()},
            [list(o._q) for o in cfg.objects if isinstance(o, FifoPae)])


def _counts(registry):
    return tuple(registry.counter(f"fastpath.writeback.{kind}").value
                 for kind in ("full", "partial"))


def _loaded(cfg, scheduler, *others):
    mgr = ConfigurationManager()
    for c in (cfg, *others):
        mgr.load(c)
    return mgr, Simulator(mgr, scheduler=scheduler)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_reading_mem_after_a_drain_writes_that_ram_alone(scheduler):
    cfg = _writer()
    mgr, sim = _loaded(cfg, scheduler)
    with collecting() as registry:
        sim.drain()
        mem = list(cfg.object("r").mem)
        if scheduler == "fastpath":
            # the session stays open, holding every other object
            assert mgr._session is not None
            assert cfg.sources["x"]._pos == 0
        cfg.object("r").mem[0] = 42     # a write to the image read
        mgr.settle()                    # is kept by the later settle
    assert mem == [10, -2, 12, 7]
    assert cfg.object("r").mem == [42, -2, 12, 7]
    assert _counts(registry) == ((1, 1) if scheduler == "fastpath"
                                 else (0, 0))
    ref = _writer()
    mgr, sim = _loaded(ref, "naive")
    sim.drain()
    assert _state(cfg) == _state(ref)


def test_reading_mem_after_a_cut_run_settles_everything():
    states = {}
    for scheduler in ("naive", "fastpath"):
        cfg = _writer()
        mgr, sim = _loaded(cfg, scheduler)
        with collecting() as registry:
            sim.run(2)
            mem = list(cfg.object("r").mem)
        assert mgr._session is None
        states[scheduler] = (mem, _state(cfg), _counts(registry))
    assert states["naive"][:2] == states["fastpath"][:2]
    assert states["fastpath"][2] == (1, 0)


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside"])
def test_a_reload_writes_back_what_the_reset_keeps(beside):
    """A reload of a configuration holding the session's whole graph
    writes back only the transfer counts; with another configuration
    resident beside it, everything, so the other one continues."""
    runs = {}
    for scheduler in SCHEDULERS:
        cfg, other = _writer(), _adder()
        mgr, sim = _loaded(cfg, scheduler, *([other] if beside else []))
        with collecting() as registry:
            first = sim.drain().cycles
            cfg.reload({"r": [1, 2, 3, 4], "f": [9]})
            if beside:
                other.sources["x"].set_data(range(3))
            second = sim.drain().cycles
            mem = cfg.object("r").mem
            mgr.settle()
        runs[scheduler] = ((first, second, mem, _state(cfg),
                            _state(other) if beside else None),
                          _counts(registry))
    assert runs["event"][0] == runs["naive"][0] == runs["fastpath"][0]
    assert runs["naive"][1] == runs["event"][1] == (0, 0)
    # the reload writes the first run's session back fully only beside
    # the adder; the ``mem`` read writes the RAM of the second alone,
    # and the last settle the rest of it
    assert runs["fastpath"][1] == ((2, 1) if beside else (1, 2))


def test_the_resident_fft_makes_no_full_write_back(monkeypatch):
    monkeypatch.setenv(SCHEDULER_ENV, "fastpath")
    rng = np.random.default_rng(4)
    kernel = Fft64Kernel()
    with collecting() as registry:
        for _ in range(3):
            kernel.run(rng.integers(-512, 512, 64),
                       rng.integers(-512, 512, 64))
    # per stage run: the RAM read back alone, then the next reload's
    # survivors-only write-back (none before the first stage)
    assert _counts(registry) == (0, 2 * 9 - 1)


def test_a_dropped_manager_writes_back_a_quiescent_session():
    """``execute`` drops its own manager; the configuration it returns
    shows the state its run left on every scheduler."""
    states = []
    for scheduler in SCHEDULERS:
        result = execute(_writer(), scheduler=scheduler)
        cfg = result.config
        states.append((result.stats.cycles, cfg.object("r").mem,
                       _state(cfg)))
    assert states[0] == states[1] == states[2]
