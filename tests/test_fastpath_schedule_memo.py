"""Differential suite for the fastpath schedule memo.

A trace that reaches its absorbing zero mask is remembered in the
compiled netlist's schedule memo under the count state its session
opened with.  A later whole run that opens on the same count state, fits
the remembered length in its budget and reads the same select tokens
adopts that schedule instead of tracing.  Every scenario here runs one
script on the naive, event and fastpath schedulers; all three must
agree on outputs, firings, cycles, stop reasons, energy and the live
wire, RAM and source state afterwards.  The ``trace_calls`` fixture
shows which fastpath runs traced and which adopted.
"""

import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning, cache
from repro.fastpath.lower import STATE_CHECK
from repro.kernels import Fft64Kernel, RakeChainKernel, build_descrambler_config
from repro.telemetry.metrics import collecting
from repro.wlan import Fig10Schedule
from repro.xpp import (
    STOP_MAX_CYCLES,
    STOP_UNTIL,
    ConfigBuilder,
    ConfigurationManager,
    RamPae,
    Simulator,
    SinksDone,
)
from repro.xpp.scheduler import SCHEDULER_ENV

SCHEDULERS = ("naive", "event", "fastpath")


def _stats_key(stats):
    """The observable fields of a RunStats, as a comparable value."""
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _descrambler(n):
    def build():
        cfg = build_descrambler_config()
        cfg.sources["code"].set_data([0] * n)
        cfg.sources["data"].set_data([0] * n)
        return cfg
    return build


def _feed_descrambler(n, seed):
    rng = np.random.default_rng(seed)
    return ("feed", {"code": rng.integers(0, 4, n),
                     "data": rng.integers(0, 1 << 24, n)})


def _steer(n=40):
    """x -> DEMUX -> (one ALU | three ALUs) -> MERGE -> out, both selects
    from source streams: the branch each token takes sets the timing."""
    b = ConfigBuilder("steer")
    dmx = b.alu("DEMUX", name="dmx")
    mrg = b.alu("MERGE", name="mrg")
    short = b.alu("ADD", name="short", const=1)
    long = [b.alu("ADD", name=f"long{k}", const=k) for k in (1, 2, 3)]
    b.connect(b.source("sel_d", [0] * n), 0, dmx, 0)
    b.connect(b.source("x", [0] * n), 0, dmx, 1)
    b.connect(dmx, 0, short, 0)
    b.connect(short, 0, mrg, 1)
    b.connect(dmx, 1, long[0], 0)
    b.chain(*long)
    b.connect(long[-1], 0, mrg, 2)
    b.connect(b.source("sel_m", [0] * n), 0, mrg, 0)
    b.connect(mrg, 0, b.sink("out"), 0)
    return b.build()


def _feed_steer(pattern, seed):
    rng = np.random.default_rng(seed)
    return ("feed", {"sel_d": pattern, "sel_m": pattern,
                     "x": rng.integers(0, 1 << 20, len(pattern))})


def _drive(build, script, scheduler, calls):
    """Run ``script`` over a fresh ``build()`` netlist.  Returns every
    observable of the script and the trace-kernel calls per run."""
    cfg = build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    log = []
    traced = []
    for op, *args in script:
        if op == "run":
            budget, sink, flavor = (*args, None)[:3]
            until = None if sink is None else SinksDone([cfg.sinks[sink]])
            scope = nullcontext()
            if flavor == "opaque":
                stop = until
                until = (lambda: False) if stop is None else (lambda: stop())
            elif flavor == "metrics":
                scope = collecting()
            elif flavor is not None:
                scope = flavor()        # e.g. the per_cycle fixture
            before = calls[0]
            with scope:
                s = sim.run(budget, until=until)
            traced.append(calls[0] - before)
            log.append(_stats_key(s))
        elif op == "feed":
            for name, data in args[0].items():
                cfg.sources[name].set_data(data)
        elif op == "expect":
            sink = cfg.sinks[args[0]]
            sink.expect = len(sink.received) + args[1]
        elif op == "clear":
            cache.clear_memory_cache()
        else:
            raise ValueError(op)
    sim.manager.settle()                # write any open session back
    observed = (log, {n: list(s.received) for n, s in cfg.sinks.items()},
                [list(w._q) for w in cfg.wires],
                {o.name: list(o.mem) for o in cfg.objects
                 if isinstance(o, RamPae)},
                {n: s._pos for n, s in cfg.sources.items()}, sim.cycle)
    return observed, traced


def _legs(build, script, calls):
    """Drive every scheduler; returns ``(reference, fastpath trace calls
    per run)`` after asserting the legs agree."""
    ref, _ = _drive(build, script, "naive", calls)
    assert _drive(build, script, "event", calls)[0] == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        got, traced = _drive(build, script, "fastpath", calls)
    assert got == ref
    return ref, traced


def _rake_block(b):
    """Block ``b``: new path offsets, weights and scrambling code; the
    length cycles through 11 values."""
    rng = np.random.default_rng(300 + b)
    n_symbols = 3 + b % 11
    offsets = sorted(rng.choice(24, 4, replace=False).tolist())
    weights = rng.uniform(0.2, 1.0, 4) \
        * np.exp(2j * np.pi * rng.uniform(size=4))
    n = max(offsets) + n_symbols * 8
    rx = rng.integers(-300, 301, n) + 1j * rng.integers(-300, 301, n)
    kernel = RakeChainKernel(
        scrambling_number=16 * int(rng.integers(512)), offsets=offsets,
        sf=8, code_index=3, weights=weights, pre_shift=1)
    return kernel, rx, n_symbols


def test_rake_blocks_trace_each_length_once(monkeypatch, trace_calls):
    """22 blocks over 11 lengths: the first block of each length traces,
    the second adopts its schedule, and every block is bit-exact."""
    results = {}
    traced = []
    for sched in SCHEDULERS:
        monkeypatch.setenv(SCHEDULER_ENV, sched)
        got = []
        for b in range(22):
            kernel, rx, n_symbols = _rake_block(b)
            before = trace_calls[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error", FastpathFallbackWarning)
                out, stats = kernel.run(rx, n_symbols)
            assert np.array_equal(out, kernel.golden(rx, n_symbols)), b
            got.append((out.tolist(), _stats_key(stats)))
            if sched == "fastpath":
                traced.append(trace_calls[0] - before)
        results[sched] = got
    assert results["event"] == results["naive"]
    assert results["fastpath"] == results["naive"]
    assert all(traced[:11]), traced
    assert not any(traced[11:]), traced


def test_resident_fft64_traces_one_stage_schedule(monkeypatch, trace_calls):
    """Every stage of every transform opens on one count state: the
    first stage traces and the other eight adopt, RAM stamps and all."""
    rng = np.random.default_rng(21)
    frames = [(rng.integers(-512, 512, 64), rng.integers(-512, 512, 64))
              for _ in range(3)]
    results = {}
    for sched in SCHEDULERS:
        monkeypatch.setenv(SCHEDULER_ENV, sched)
        kern = Fft64Kernel()
        got = []
        for re, im in frames:
            with warnings.catch_warnings():
                warnings.simplefilter("error", FastpathFallbackWarning)
                out_re, out_im = kern.run(re, im)
            got.append((out_re.tolist(), out_im.tolist(),
                        [_stats_key(s) for s in kern.last_stats],
                        list(kern._config.object("data_ram").mem)))
        results[sched] = got
    assert results["event"] == results["naive"]
    assert results["fastpath"] == results["naive"]
    assert trace_calls[0] == 1


def test_other_select_tokens_do_not_adopt(trace_calls):
    """Same count state, other select tokens: the DEMUX/MERGE timing
    differs, so the second run traces; the third run reads the second
    run's selects and adopts its schedule."""
    rng = np.random.default_rng(8)
    a = rng.integers(0, 2, 40)
    b = 1 - a
    script = [_feed_steer(a, 1), ("run", 2000, None),
              _feed_steer(b, 2), ("run", 2000, "out"),
              _feed_steer(b, 3), ("run", 2000, None)]
    ref, traced = _legs(_steer, script, trace_calls)
    assert ref[0][0][4] != ref[0][1][4]        # the firings differ
    assert traced[0] and traced[1]
    assert traced[2] == 0


@pytest.mark.parametrize("budget, adopts", [(300, False), (2000, True)])
def test_budget_shorter_than_the_schedule_does_not_adopt(
        budget, adopts, trace_calls):
    script = [("run", 2000, None), _feed_descrambler(400, 5),
              ("run", budget, None)]
    ref, traced = _legs(_descrambler(400), script, trace_calls)
    assert budget < ref[0][0][0] or adopts
    assert ref[0][1][1] == (STOP_MAX_CYCLES if budget == 300
                            else ref[0][0][1])
    assert bool(traced[1]) != adopts


def test_write_back_after_an_adopted_run(trace_calls):
    """An adopted run that stops on its sink past the first state
    checkpoint leaves the session open; refilling a source and running
    again writes it back from the remembered checkpoints, leaving the
    refilled source alone."""
    n, want = 2600, 2300
    script = [_feed_descrambler(n, 1), ("expect", "out", want),
              ("run", 10_000, "out"), ("run", 10_000, None),
              _feed_descrambler(n, 2), ("expect", "out", want),
              ("run", 10_000, "out"),
              _feed_descrambler(100, 3), ("run", 10_000, None)]
    ref, traced = _legs(_descrambler(n), script, trace_calls)
    cycles, reason = ref[0][2][:2]
    assert reason == STOP_UNTIL and cycles > STATE_CHECK
    assert traced[2] == 0
    assert traced[3]


def _fig10_rounds(scheduler, calls):
    """The Fig. 10 lifecycle twice on one manager and simulator:
    acquisition (configs 1 + 2a) runs, 2a is swapped for 2b, the
    demodulator runs, everything is removed.  Both rounds feed streams
    of the same lengths."""
    sched = Fig10Schedule()
    sim = Simulator(sched.manager, scheduler=scheduler)
    rng = np.random.default_rng(15)
    log, outputs, traced = [], [], []
    for _ in range(2):
        sched.start_acquisition()
        down = next(c for c in sched.config1
                    if c.name == "resident_downsampler")
        down.sources["in"].set_data(rng.integers(0, 4000, 200))
        sched.config2a.sources["in"].set_data(rng.integers(0, 4000, 200))
        for swap in (False, True):
            if swap:
                sched.acquisition_done()
                sched.config2b.sources["carriers"].set_data(
                    rng.integers(0, 4000, 104))
            before = calls[0]
            log.append(_stats_key(sim.run(2000)))
            traced.append(calls[0] - before)
        sim.manager.settle()
        cfgs = [*sched.config1, sched.config2a, sched.config2b]
        outputs.append(
            {(c.name, n): list(s.received) for c in cfgs
             for n, s in c.sinks.items()})
        outputs.append({o.name: list(o.mem) for c in cfgs
                        for o in c.objects if isinstance(o, RamPae)})
        sched.stop()
    return (log, outputs), traced


def test_fig10_swap_between_runs(trace_calls):
    """A swap recompiles, but each netlist's memo survives it: the second
    round adopts both the acquisition and the demodulation schedule."""
    ref, _ = _fig10_rounds("naive", trace_calls)
    assert _fig10_rounds("event", trace_calls)[0] == ref
    got, traced = _fig10_rounds("fastpath", trace_calls)
    assert got == ref
    assert traced[0] and traced[1]
    assert traced[2:] == [0, 0]


def test_per_cycle_replay_never_adopts(trace_calls, per_cycle):
    """An opaque ``until`` or a hidden whole-run path keeps per-cycle
    replay, which traces even when the memo holds the schedule."""
    script = [("run", 2000, None),
              _feed_descrambler(60, 1), ("run", 2000, None, "opaque"),
              _feed_descrambler(60, 2), ("run", 2000, None, per_cycle),
              _feed_descrambler(60, 3), ("run", 2000, None)]
    _, traced = _legs(_descrambler(60), script, trace_calls)
    assert traced[0] and traced[1] and traced[2]
    assert traced[3] == 0


def test_observed_whole_run_adopts(trace_calls, adoptions, fastpath_steps):
    """A recording registry does not change the path: a whole run under
    it adopts the remembered schedule, and its per-cycle records step
    the trace kernel without tracing anew."""
    script = [("run", 2000, None),
              _feed_descrambler(60, 1), ("run", 2000, None, "metrics"),
              _feed_descrambler(60, 2), ("run", 2000, "out", "metrics")]
    _, traced = _legs(_descrambler(60), script, trace_calls)
    assert traced[0] and traced[1] and traced[2]
    assert adoptions[0] == 2
    assert fastpath_steps[0] == 0


def test_memo_keeps_at_most_memo_max_schedules(monkeypatch, trace_calls):
    monkeypatch.setattr(cache, "MEMO_MAX", 2)
    script = [("run", 2000, None)]
    for k, n in enumerate((40, 50, 30, 50)):
        script += [_feed_descrambler(n, k), ("run", 2000, None)]
    _, traced = _legs(_descrambler(30), script, trace_calls)
    # 30, 40 and 50 traced; 30 was evicted by 50, so it traces again,
    # and 50 is still remembered
    assert all(traced[:4])
    assert traced[4] == 0


def test_clear_memory_cache_drops_the_schedule_memo(trace_calls):
    script = [("run", 2000, None),
              _feed_descrambler(60, 1), ("run", 2000, None),
              ("clear",),
              _feed_descrambler(60, 2), ("run", 2000, None)]
    _, traced = _legs(_descrambler(60), script, trace_calls)
    assert traced[0] and traced[2]
    assert traced[1] == 0
