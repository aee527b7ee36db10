"""Observing a run never changes it, and every scheduler reports it alike.

Each scenario runs under a recording tracer and a metrics registry that
snapshots every 16 cycles, on the naive, event and fastpath schedulers
(fastpath twice: the second pass adopts the schedules the first one
remembered).  Every leg must agree on the scenario's own results and
on all of its ``sim`` telemetry: each ``sim.*`` instrument at the end,
the ``sim.*`` part of every snapshot, and every ``cat == "sim"`` trace
event.  Fastpath reads its per-cycle values (firings, energy, FIFO
depths) off the trace rather than off the live wires, which stay
frozen while a session replays; whole runs must stay whole under
observation.
"""

import warnings

import numpy as np
import pytest
from test_fastpath_ram import _fig10_with_resident_fft
from test_fft_resident import _SCRIPT, _reloaded
from test_scheduler_equivalence import WORKLOADS, _stats_key

from repro.fastpath import FastpathFallbackWarning
from repro.kernels import build_descrambler_config
from repro.telemetry.metrics import collecting
from repro.telemetry.tracer import tracing
from repro.xpp import ConfigurationManager, Simulator, SinksDone
from repro.xpp.scheduler import SCHEDULER_ENV

LEGS = ("naive", "event", "fastpath", "fastpath")


def _sim(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.startswith("sim.")}


def _observed(scenario, scheduler, monkeypatch):
    """``(result, sim instruments, sim snapshots, sim trace events)`` of
    one scenario run under a recording tracer and registry."""
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    with collecting(snapshot_every=16) as registry, tracing() as tracer, \
            warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        result = scenario(scheduler)
    snapshots = [(s["cycle"], _sim(s["metrics"])) for s in registry.snapshots]
    events = [(e.name, e.ph, e.ts, e.dur, e.args) for e in tracer.events
              if e.cat == "sim"]
    return result, _sim(registry.to_dict()), snapshots, events


def _stepped(scheduler):
    """Batched steps, runs stopped by ``max_cycles`` while the array is
    still firing (with and without a sink stop), a sink stop, a drain."""
    rng = np.random.default_rng(5)
    cfg = build_descrambler_config()
    cfg.sources["code"].set_data(rng.integers(0, 4, 200))
    cfg.sources["data"].set_data(rng.integers(0, 1 << 24, 200))
    cfg.sinks["out"].expect = 150
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    done = SinksDone([cfg.sinks["out"]])
    fired = [sim.step_n(7), sim.step_n(30)]
    stats = [sim.run(25), sim.run(40, until=done), sim.run(2000, until=done),
             sim.drain(2000)]
    fired.append(sim.step_n(5))
    return (fired, [_stats_key(s) for s in stats],
            list(cfg.sinks["out"].received))


SCENARIOS = {f"kernel_{name}": (lambda s, fn=fn: fn()) for name, fn
             in WORKLOADS.items()}
SCENARIOS["fft64_reload"] = lambda s: _reloaded(s, _SCRIPT)
SCENARIOS["fig10_opaque_until_swap"] = _fig10_with_resident_fft
SCENARIOS["max_cycles_and_step_n"] = _stepped

#: scenarios whose every fastpath run must replay whole
WHOLE = {name for name in SCENARIOS if name.startswith("kernel_")} \
    | {"fft64_reload"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sim_telemetry_is_equal_on_every_scheduler(name, monkeypatch,
                                                   fastpath_steps):
    legs = [_observed(SCENARIOS[name], s, monkeypatch) for s in LEGS]
    ref = legs[0]
    assert ref[1]["sim.steps"]["value"] > 0
    assert ref[2] and ref[3]
    for scheduler, got in zip(LEGS[1:], legs[1:]):
        for part, ref_part, got_part in zip(
                ("result", "instruments", "snapshots", "events"), ref, got):
            assert got_part == ref_part, (scheduler, part)
    if name in WHOLE:
        assert fastpath_steps[0] == 0
