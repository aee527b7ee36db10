"""An outside access settles the fastpath session that holds the state.

A fastpath session replays a trace while wire queues and object
registers stay frozen, and writes them back when it closes.  Whatever
touches that state from outside the scheduler (``set_data``, ``reset``,
``flip_bit``, ``Configuration.reload``, ``diagnose``) first settles the
session: it writes the state back and retires, and the scheduler
reopens from live state on its next step.  Here the touch comes from an
opaque ``until`` hook in the middle of a run, where the per-cycle loop
keeps stepping the same scheduler afterwards, and naive, event and
fastpath must agree on everything observable.
"""

import gc
import warnings

import pytest

from repro.fastpath import FastpathFallbackWarning
from repro.xpp import ConfigBuilder, ConfigurationManager, RamPae, Simulator

SCHEDULERS = ("naive", "event", "fastpath")


def _adder():
    b = ConfigBuilder("adder")
    b.chain(b.source("x", list(range(10))), b.alu("ADD", name="add",
                                                  const=100), b.sink("y"))
    return b.build()


def _ram():
    """Reads of words 5, 6 and 7, twice; writes of 77 and 88 to words 5
    and 6 in the first two cycles."""
    b = ConfigBuilder("ram")
    ram = b.ram(name="ram", words=8, preload=range(8))
    b.connect(b.source("raddr", [5, 6, 7] * 2), 0, ram, "raddr")
    b.connect(b.source("waddr", [5, 6]), 0, ram, "waddr")
    b.connect(b.source("wdata", [77, 88]), 0, ram, "wdata")
    b.connect(ram, "rdata", b.sink("y"), 0)
    return b.build()


def _fifo():
    b = ConfigBuilder("fifo")
    b.chain(b.fifo(name="fifo", depth=8, preload=range(1, 9)), b.sink("y"))
    return b.build()


TOUCHES = {
    "set_data": (_adder, lambda cfg: cfg.sources["x"].set_data([50, 51, 52])),
    "reset": (_adder, lambda cfg: cfg.sources["x"].reset()),
    "flip_ram": (_ram, lambda cfg: cfg.object("ram").flip_bit(5, 0)),
    "flip_fifo": (_fifo, lambda cfg: cfg.object("fifo").flip_bit(0, 4)),
}


def _hooked(scheduler, case):
    """Run ``case``'s netlist with an ``until`` hook that touches it on
    its fourth call; returns every observable."""
    build, touch = TOUCHES[case]
    cfg = build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    calls = []

    def until():
        calls.append(touch(cfg) if len(calls) == 3 else None)
        return False

    stats = sim.run(100, until=until)
    sim.scheduler.invalidate()
    return ((stats.cycles, stats.stop_reason, stats.total_firings,
             stats.energy, dict(stats.firings)), calls[3],
            list(cfg.sinks["y"].received),
            [list(o.mem) for o in cfg.objects if isinstance(o, RamPae)])


@pytest.mark.parametrize("case", sorted(TOUCHES))
def test_a_touch_from_an_until_hook_matches_naive(case):
    ref = _hooked("naive", case)
    assert _hooked("event", case) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _hooked("fastpath", case) == ref


def test_a_refill_from_an_until_hook_lands_at_once():
    stats, _, out, _ = _hooked("fastpath", "set_data")
    assert out == [100, 101, 102, 150, 151, 152]
    assert stats[0] == 16


def test_a_flip_from_an_until_hook_sees_the_committed_writes():
    _, flipped, out, mem = _hooked("fastpath", "flip_ram")
    assert flipped == 76                    # 77 ^ 1, not 5 ^ 1
    assert mem[0][5:7] == [76, 88]
    assert out[-3:] == [76, 88, 7]


def test_the_back_reference_does_not_keep_a_session_alive():
    """Objects and wires reach their session through a weak reference,
    so a simulator dropped with its session open frees the session at
    once, with no garbage-collector pass."""
    cfg = _adder()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler="fastpath")
    sim.run(3)
    ref = cfg.object("add")._session
    assert ref() is not None and cfg.wires[0]._session is ref
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()
    cfg.sources["x"].set_data([1])          # nothing left to settle
    assert cfg.sources["x"].remaining == 1
