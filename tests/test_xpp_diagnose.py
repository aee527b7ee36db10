"""Tests for the stall diagnosis utility."""

import gc

import pytest

from repro.xpp import (
    ConfigBuilder,
    ConfigurationManager,
    Simulator,
    deadlock_report,
    diagnose,
)


def starved_config():
    """A binary op missing one operand stream — classic starvation."""
    b = ConfigBuilder("starved")
    sa = b.source("a", [1, 2, 3])
    sb = b.source("b", [10])            # runs dry after one token
    add = b.alu("ADD", name="adder")
    snk = b.sink("y")
    b.connect(sa, 0, add, "a")
    b.connect(sb, 0, add, "b")
    b.connect(add, 0, snk, 0)
    return b.build()


def blocked_config():
    """A MERGE whose select stream never arrives, behind a CONST."""
    b = ConfigBuilder("blocked")
    gen = b.alu("CONST", name="gen", value=1)
    sel = b.source("sel", [])           # never provides
    other = b.source("other", [])
    merge = b.alu("MERGE", name="mrg")
    snk = b.sink("y")
    b.connect(sel, 0, merge, "sel")
    b.connect(gen, 0, merge, "a", capacity=1)
    b.connect(other, 0, merge, "b")
    b.connect(merge, 0, snk, 0)
    return b.build()


def two_source_config():
    """An ADD of a 10-token and a 6-token stream."""
    b = ConfigBuilder("two_sources")
    add = b.alu("ADD", name="adder")
    b.connect(b.source("a", list(range(10))), 0, add, "a")
    b.connect(b.source("b", list(range(6))), 0, add, "b")
    b.connect(add, 0, b.sink("y"), 0)
    return b.build()


#: scenario -> (netlist, cycles to run before the diagnosis)
SCENARIOS = {
    "starved": (starved_config, 100),
    "blocked": (blocked_config, 20),
    "early_stop": (two_source_config, 3),   # stopped mid-stream
    "drained": (two_source_config, 100),
}


def _report(scenario, scheduler):
    build, cycles = SCENARIOS[scenario]
    mgr = ConfigurationManager()
    mgr.load(build())
    sim = Simulator(mgr, scheduler=scheduler)   # holds the fastpath
    sim.run(cycles)                             # session until diagnose
    return [str(s) for s in diagnose(mgr)]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("scheduler", ["naive", "event", "fastpath"])
def test_every_scheduler_reports_the_same_stalls(scheduler, scenario):
    """A fastpath run that stops early leaves its session holding the
    wires and registers; the diagnosis settles it before it reads."""
    report = _report(scenario, scheduler)
    assert report == _report(scenario, "naive")
    if scenario == "early_stop":
        assert report == []
    else:
        assert report


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("scheduler", ["naive", "event", "fastpath"])
def test_a_dropped_simulator_reports_the_same_stalls(scheduler, scenario):
    """The simulator is gone before the diagnosis: the manager owns the
    fastpath session it left open, and the diagnosis settles it."""
    build, cycles = SCENARIOS[scenario]
    mgr = ConfigurationManager()
    mgr.load(build())
    Simulator(mgr, scheduler=scheduler).run(cycles)
    gc.collect()
    assert [str(s) for s in diagnose(mgr)] == _report(scenario, "naive")


class TestDiagnose:
    def test_starvation_identified(self):
        mgr = ConfigurationManager()
        mgr.load(starved_config())
        Simulator(mgr).run(100)
        stalls = {s.name: s for s in diagnose(mgr)}
        assert "adder" in stalls
        assert stalls["adder"].empty_inputs == ["b"]
        assert stalls["b"].note == "input stream exhausted"

    def test_backpressure_identified(self):
        """A MERGE whose select stream never arrives blocks its data
        producer: the producer reports the full output, the merge the
        missing select."""
        mgr = ConfigurationManager()
        mgr.load(blocked_config())
        Simulator(mgr).run(20)
        stalls = {s.name: s for s in diagnose(mgr)}
        assert stalls["gen"].full_outputs == ["out0"]
        assert "sel" in stalls["mrg"].empty_inputs

    def test_sink_progress_reported(self):
        mgr = ConfigurationManager()
        cfg = starved_config()
        cfg.sinks["y"].expect = 3
        mgr.load(cfg)
        Simulator(mgr).run(100)
        stalls = {s.name: s for s in diagnose(mgr)}
        assert stalls["y"].note == "received 1 of 3"

    def test_report_is_readable(self):
        mgr = ConfigurationManager()
        mgr.load(starved_config())
        Simulator(mgr).run(100)
        text = deadlock_report(mgr)
        assert "stalled object" in text
        assert "adder" in text and "waiting for b" in text

    def test_healthy_pipeline_reports_progress(self):
        b = ConfigBuilder("healthy")
        src = b.source("x", list(range(100)))
        op = b.alu("NEG", name="n")
        snk = b.sink("y", expect=100)
        b.chain(src, op, snk)
        mgr = ConfigurationManager()
        mgr.load(b.build())
        sim = Simulator(mgr)
        sim.step()
        sim.step()
        # mid-stream, active objects can fire: few or no stalls
        stalls = [s for s in diagnose(mgr) if s.name in ("x", "n")]
        assert stalls == []

    def test_empty_manager(self):
        assert deadlock_report(ConfigurationManager()) == \
            "no stalled objects"
