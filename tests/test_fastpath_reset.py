"""A reset settles the open fastpath session before it resets.

A run that stops before quiescence (on its sinks, or out of cycles)
leaves its fastpath session open, holding the count state that the
live wires and objects have not seen yet.  ``reset`` (of an object, a
wire or a whole ``Configuration``) and ``Configuration.reload`` first
settle that session: it writes the state back and retires, and only
then does the reset put the objects back in their build-time state, so
a later write-back can never overwrite it.  Each scenario here stops a
rake finger early, resets or reloads it, feeds new data and runs again
on the naive, event and fastpath schedulers; all three must agree on
outputs, cycles, firings, energy and the live state left behind.
"""

import warnings

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning
from repro.fixed import pack_complex
from repro.kernels.rake_chain import build_rake_chain_config
from repro.xpp import ConfigurationManager, Simulator, SinksDone

SCHEDULERS = ("naive", "event", "fastpath")


def _feed(cfg, rng, n):
    cfg.sources["data"].set_data(
        [pack_complex(int(r), int(q), 12)
         for r, q in rng.integers(-200, 200, (n, 2))])
    cfg.sources["code"].set_data(rng.integers(0, 4, n).tolist())
    cfg.sources["ovsf"].set_data(rng.integers(0, 2, n).tolist())


def _script(scheduler, stop, op):
    cfg = build_rake_chain_config(3, 8, [0.5] * 3, pre_shift=2)
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    rng = np.random.default_rng(0)
    sink = cfg.sinks["out"]
    _feed(cfg, rng, 3 * 8 * 8)
    if stop == "sinks":
        sink.expect = 2
        first = sim.run(10_000, until=SinksDone([sink]))
    else:
        first = sim.run(40)
    if op == "reload":
        cfg.reload({"weights": [pack_complex(100, -50, 12)] * 3})
    else:
        cfg.reset()
    _feed(cfg, rng, 3 * 8 * 8)
    sink.expect = 6
    second = sim.run(10_000, until=SinksDone([sink]))
    sim.manager.settle()
    return ([(s.cycles, s.stop_reason, s.total_firings, s.energy,
              dict(s.firings)) for s in (first, second)],
            list(sink.received), [list(w._q) for w in cfg.wires],
            [list(cfg.object(n)._q) for n in ("acc_ram", "weights")],
            {n: s._pos for n, s in cfg.sources.items()})


@pytest.mark.parametrize("op", ["reset", "reload"])
@pytest.mark.parametrize("stop", ["sinks", "max_cycles"])
def test_reset_after_an_early_stop_matches_naive(stop, op):
    ref = _script("naive", stop, op)
    assert ref[0][0][1] == ("until" if stop == "sinks" else "max_cycles")
    assert _script("event", stop, op) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _script("fastpath", stop, op) == ref


def test_partial_reset_keeps_the_other_objects_write_back():
    """Resetting one object settles the session first: the rest of an
    early-stopped run is still written back."""
    def script(scheduler):
        cfg = build_rake_chain_config(3, 8, [0.5] * 3, pre_shift=2)
        mgr = ConfigurationManager()
        mgr.load(cfg)
        sim = Simulator(mgr, scheduler=scheduler)
        _feed(cfg, np.random.default_rng(1), 3 * 8 * 8)
        sink = cfg.sinks["out"]
        sink.expect = 3
        sim.run(10_000, until=SinksDone([sink]))
        cfg.object("chip_counter").reset()
        sink.expect = 8
        stats = sim.run(10_000, until=SinksDone([sink]))
        sim.manager.settle()
        return (stats.cycles, stats.total_firings, list(sink.received),
                [list(w._q) for w in cfg.wires])

    ref = script("naive")
    assert script("event") == ref
    assert script("fastpath") == ref
