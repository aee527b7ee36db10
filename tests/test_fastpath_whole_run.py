"""Differential suite for fastpath whole-run replay.

``Simulator.run`` hands the whole run to ``FastpathScheduler.run`` when
its stop predicate is data (``None`` or a :class:`SinksDone`) and no
recording telemetry is installed; the trace then answers where the run
stops (sinks done, quiescent, or out of cycles) and the run's firings
land in one batched replay.  Every scenario here drives one netlist
through a script of runs, refills and sink edits in four legs:

* ``naive`` and ``event`` — the reference loops;
* whole-run fastpath — the same script, which must never call
  ``FastpathScheduler.step``;
* per-cycle fastpath — the same stops wrapped in opaque lambdas, which
  keeps the per-cycle replay loop.

All four must agree on cycles, stop reasons, firings, energy, tokens
out, sink outputs and the live state after the script: wire queues,
RAM images and source positions.
"""

import warnings

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning
from repro.fastpath.lower import FIRES_CHECK, STATE_CHECK
from repro.kernels import build_descrambler_config, build_fft_stage_config
from repro.kernels.rake_chain import build_rake_chain_config
from repro.xpp import (
    STOP_MAX_CYCLES,
    STOP_QUIESCENT,
    STOP_UNTIL,
    ConfigBuilder,
    ConfigurationManager,
    RamPae,
    Simulator,
    SinksDone,
    StreamSink,
)


def _descrambler(n, seed=0):
    def build():
        rng = np.random.default_rng(seed)
        cfg = build_descrambler_config()
        cfg.sources["code"].set_data(rng.integers(0, 4, n))
        cfg.sources["data"].set_data(rng.integers(0, 1 << 24, n))
        return cfg
    return build


def _feed_descrambler(n, seed):
    rng = np.random.default_rng(seed)
    return ("feed", {"code": rng.integers(0, 4, n),
                     "data": rng.integers(0, 1 << 24, n)})


def _rake_chain():
    rng = np.random.default_rng(5)
    n = 2 * 8 * 6               # fingers * sf * symbols
    cfg = build_rake_chain_config(2, 8, [1.0 + 0j, 0.5 - 0.5j])
    cfg.sources["data"].set_data(rng.integers(0, 1 << 24, n))
    cfg.sources["code"].set_data(rng.integers(0, 4, n))
    cfg.sources["ovsf"].set_data(rng.integers(0, 2, n))
    return cfg


def _two_sinks():
    """Two independent chains, so the sinks finish at different cycles."""
    b = ConfigBuilder("two_sinks")
    b.connect(b.source("a", list(range(40))), 0, b.sink("x"), 0)
    inc = b.alu("ADD", name="inc", const=1)
    b.connect(b.source("c", list(range(100))), 0, inc, 0)
    b.connect(inc, 0, b.sink("y"), 0)
    return b.build()


def _fft_stage():
    rng = np.random.default_rng(4)
    return build_fft_stage_config(
        1, [int(v) for v in rng.integers(0, 1 << 32, 64)])


def _drive(build, script, scheduler, opaque):
    """Run ``script`` over a fresh ``build()`` netlist; returns every
    observable of the run.  ``opaque`` wraps each stop in a lambda."""
    cfg = build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    ghosts = {}                 # sinks that are not in the netlist
    log = []
    for op, *args in script:
        if op == "run":
            budget, names, limit = args
            until = None
            if names is not None:
                until = SinksDone(
                    cfg.sinks[n] if n in cfg.sinks
                    else ghosts.setdefault(n, StreamSink(n, expect=5))
                    for n in names)
            if opaque:
                stop = until
                until = (lambda: False) if stop is None else (lambda: stop())
            s = sim.run(budget, until=until, quiescent_limit=limit)
            log.append((s.cycles, s.stop_reason, s.total_firings, s.energy,
                        dict(s.firings), dict(s.tokens_out)))
        elif op == "feed":
            for name, data in args[0].items():
                cfg.sources[name].set_data(data)
        elif op == "expect":
            cfg.sinks[args[0]].expect = args[1]
        elif op == "prefill":
            cfg.sinks[args[0]].received.extend(args[1])
        else:
            raise ValueError(op)
    sim.manager.settle()                # write any open session back
    return ({n: list(s.received) for n, s in cfg.sinks.items()}, log,
            [list(w._q) for w in cfg.wires],
            {o.name: list(o.mem) for o in cfg.objects
             if isinstance(o, RamPae)},
            {n: s._pos for n, s in cfg.sources.items()}, sim.cycle)


def _four_legs(build, script, steps):
    """Drive all four legs; returns ``(reference, whole-run step calls,
    per-cycle step calls)`` after asserting they agree."""
    ref = _drive(build, script, "naive", False)
    assert _drive(build, script, "event", False) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        steps[0] = 0
        assert _drive(build, script, "fastpath", False) == ref
        whole = steps[0]
        steps[0] = 0
        assert _drive(build, script, "fastpath", True) == ref
    return ref, whole, steps[0]


OUT = ("out",)

CASES = {
    "until_at_cycle_0": (_descrambler(40), [
        ("expect", "out", 0),
        ("run", 500, OUT, 8),
        ("expect", "out", 20),
        ("run", 500, OUT, 8),
        ("run", 500, OUT, 8)]),
    "quiescent_before_expect": (_descrambler(30), [
        ("expect", "out", 50),
        ("run", 500, OUT, 8)]),
    "budget_out_while_firing": (_descrambler(400), [
        ("expect", "out", 390),
        ("run", 100, OUT, 8),
        ("run", 100, None, 8),
        ("run", 1000, OUT, 8)]),
    "sink_prefilled": (_descrambler(40), [
        ("prefill", "out", [1, 2, 3]),
        ("expect", "out", 20),
        ("run", 500, OUT, 8)]),
    "refill_between_runs": (_descrambler(50, seed=1), [
        ("expect", "out", 50),
        ("run", 1000, OUT, 8),
        _feed_descrambler(60, seed=2),
        ("expect", "out", 80),
        ("run", 1000, OUT, 8),
        ("run", 1000, None, 8),
        _feed_descrambler(10, seed=3),
        ("run", 1000, None, 8)]),
    "quiescent_limit_1": (_descrambler(30), [
        ("run", 500, None, 1),
        _feed_descrambler(20, seed=4),
        ("expect", "out", 100),
        ("run", 500, OUT, 1)]),
    "quiescent_limit_8": (_descrambler(30), [
        ("run", 500, None, 8),
        _feed_descrambler(20, seed=4),
        ("expect", "out", 100),
        ("run", 500, OUT, 8)]),
    "long_run": (_descrambler(5000, seed=6), [
        ("expect", "out", 4600),
        ("run", 10_000, OUT, 8),
        ("run", 10_000, None, 8)]),
    "two_sinks": (_two_sinks, [
        ("expect", "x", 30),
        ("expect", "y", 80),
        ("run", 500, ("x", "y"), 8),
        ("expect", "y", 95),
        ("run", 10, ("x", "y"), 8),
        ("run", 500, ("x", "y"), 8),
        ("expect", "x", 45),
        ("run", 500, ("x", "y"), 8),
        ("expect", "x", 0),
        ("expect", "y", None),      # never done, so never an until stop
        ("run", 500, ("x", "y"), 8)]),
    "rake_chain_feedback": (_rake_chain, [
        ("expect", "out", 4),
        ("run", 5000, OUT, 8),
        ("run", 5000, None, 8)]),
    "fft_stage_ram": (_fft_stage, [
        ("run", 40, None, 8),
        ("run", 2000, None, 8)]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_whole_run_matches_reference_and_per_cycle(case, fastpath_steps):
    build, script = CASES[case]
    ref, whole, per_cycle = _four_legs(build, script, fastpath_steps)
    assert whole == 0, "a run fell back to per-cycle replay"
    assert per_cycle > 0, "the opaque leg did not step"
    assert any(entry[0] for entry in ref[1])


def test_long_run_crosses_both_checkpoint_strides():
    build, script = CASES["long_run"]
    log = _drive(build, script, "naive", False)[1]
    assert log[0][1] == STOP_UNTIL
    assert log[0][0] > STATE_CHECK > FIRES_CHECK


def _last_stop(build, script):
    """(cycles, stop_reason) of the last run of ``script`` on naive."""
    return _drive(build, script, "naive", False)[1][-1][:2]


def test_until_first_true_at_the_budget_reports_max_cycles(fastpath_steps):
    build = _descrambler(60)
    u, reason = _last_stop(build, [("expect", "out", 30),
                                   ("run", 1000, OUT, 8)])
    assert reason == STOP_UNTIL
    for budget, want in ((u, STOP_MAX_CYCLES), (u + 1, STOP_UNTIL)):
        script = [("expect", "out", 30), ("run", budget, OUT, 8)]
        ref, whole, _ = _four_legs(build, script, fastpath_steps)
        assert ref[1][-1][:2] == (u, want)
        assert whole == 0


def test_quiescent_exactly_at_the_budget_reports_quiescent(fastpath_steps):
    build = _descrambler(60)
    q, reason = _last_stop(build, [("run", 1000, None, 8)])
    assert reason == STOP_QUIESCENT
    for budget, want in ((q, (q, STOP_QUIESCENT)),
                         (q - 1, (q - 1, STOP_MAX_CYCLES))):
        script = [("run", budget, None, 8)]
        ref, whole, _ = _four_legs(build, script, fastpath_steps)
        assert ref[1][-1][:2] == want
        assert whole == 0


def test_sink_outside_the_graph_falls_through_to_per_cycle(fastpath_steps):
    """A stop on a sink the compiled graph does not hold cannot be read
    off the trace: the run keeps the per-cycle loop, and still agrees."""
    script = [("run", 500, ("ghost",), 8), ("run", 500, ("out", "ghost"), 8)]
    ref, whole, per_cycle = _four_legs(_descrambler(40), script,
                                       fastpath_steps)
    assert [entry[1] for entry in ref[1]] == [STOP_QUIESCENT] * 2
    assert whole == per_cycle > 0


@pytest.mark.parametrize("build, budget", [
    (_descrambler(5000), 256), (_descrambler(5000), 300),
    (_fft_stage, 20_000)], ids=["stride", "past_stride", "fft_drain"])
def test_trace_grows_no_further_than_per_cycle_replay(build, budget):
    """Whole-run replay extends the trace in per-cycle replay's
    doubling windows, never straight to the cycle budget."""
    lengths = []
    for until in (None, lambda: False):
        mgr = ConfigurationManager()
        mgr.load(build())
        sim = Simulator(mgr, scheduler="fastpath")
        sim.run(budget, until=until)
        lengths.append(len(mgr._session.masks))
    assert lengths[0] == lengths[1] < 2 * max(budget, FIRES_CHECK)


def test_sinks_done_is_the_all_done_predicate():
    a, b = StreamSink("a", expect=1), StreamSink("b")
    stop = SinksDone([a, b])
    assert not stop()
    a.received.append(0)
    assert not stop()           # b has no expect count: never done
    b.expect = 0
    assert stop()
    assert SinksDone([])()
