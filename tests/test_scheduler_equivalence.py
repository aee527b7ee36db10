"""Differential harness: EventScheduler must be bit-exact with NaiveScheduler.

Every example kernel configuration is executed twice — once under the
exhaustive reference scheduler and once under the event-driven one —
and the runs must agree on everything observable: sink outputs,
per-object firing counts, total cycles, energy and the stop reason.
The Fig. 10 test additionally swaps configuration 2a for 2b in the
middle of a run, exercising the version-based full-evaluation fallback
that keeps reconfiguration bit-exact.

The fault layer rides the same harness: a zero-rate injector (identity
taps on every wire) must be a byte-exact no-op on every kernel, and a
seeded fault schedule must corrupt both schedulers *identically* —
same outputs, same stats, same injection log — because fault timing is
indexed by protocol events, never by evaluation order.
"""

import warnings

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning
from repro.faults import FaultInjector, TokenDrop, TokenDuplicate, plan_faults
from repro.kernels import (
    ChannelCorrectionKernel,
    DescramblerKernel,
    DespreaderKernel,
    Fft64Kernel,
    RakeChainKernel,
    build_descrambler_config,
)
from repro.telemetry.metrics import collecting
from repro.wlan import Fig10Schedule
from repro.xpp import Simulator, execute
from repro.xpp.scheduler import SCHEDULER_ENV

SCHEDULERS = ["naive", "event", "fastpath"]


def _stats_key(stats):
    """The observable fields of a RunStats, as a comparable value."""
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _run_descrambler():
    rng = np.random.default_rng(10)
    n = 96
    re = rng.integers(-2000, 2001, n)
    im = rng.integers(-2000, 2001, n)
    code = rng.integers(0, 4, n)
    out, stats = DescramblerKernel().run(re, im, code)
    return list(out), _stats_key(stats)


def _run_despreader():
    rng = np.random.default_rng(11)
    n = 2 * 8 * 6     # fingers * sf * symbols
    chips = rng.integers(-100, 101, n) + 1j * rng.integers(-100, 101, n)
    ovsf = rng.integers(0, 2, n)
    out, stats = DespreaderKernel(2, 8).run(chips, ovsf)
    return list(out), _stats_key(stats)


def _run_channel_correction():
    rng = np.random.default_rng(12)
    n = 2 * 20
    sym = rng.integers(-500, 501, n) + 1j * rng.integers(-500, 501, n)
    out, stats = ChannelCorrectionKernel([0.5 + 0.25j, -0.3 + 0.8j]).run(sym)
    return list(out), _stats_key(stats)


def _run_fft64():
    rng = np.random.default_rng(13)
    kern = Fft64Kernel()
    re, im = kern.run(rng.integers(-512, 512, 64),
                      rng.integers(-512, 512, 64))
    return list(re) + list(im), [_stats_key(s) for s in kern.last_stats]


def _run_rake_chain():
    rng = np.random.default_rng(14)
    kern = RakeChainKernel(scrambling_number=3, offsets=[0, 3], sf=8,
                           code_index=2, weights=[1.0 + 0j, 0.5 - 0.5j])
    rx = rng.integers(-200, 201, 80) + 1j * rng.integers(-200, 201, 80)
    out, stats = kern.run(rx, 6)
    return list(out), _stats_key(stats)


WORKLOADS = {
    "descrambler": _run_descrambler,
    "despreader": _run_despreader,
    "channel_correction": _run_channel_correction,
    "fft64": _run_fft64,
    "rake_chain": _run_rake_chain,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_kernel_config_equivalence(workload, monkeypatch, fastpath_steps,
                                   per_cycle, adoptions):
    """Outputs, firings, cycles, energy and stop reasons must be
    identical under every scheduler (fresh config per run), and the
    fastpath run must really be compiled — no fallback warning, or the
    comparison would be event against event — and replayed whole: not
    one per-cycle ``FastpathScheduler.step``.  A fastpath leg under a
    recording metrics registry takes that same path: no step, every run
    adopting the schedule the first leg remembered.  A leg with
    whole-run replay hidden replays cycle by cycle.  Both must match
    and count zero fallbacks."""
    results = {}
    for sched in SCHEDULERS:
        monkeypatch.setenv(SCHEDULER_ENV, sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FastpathFallbackWarning)
            results[sched] = WORKLOADS[workload]()
    assert fastpath_steps[0] == 0
    adopted = adoptions[0]
    with collecting() as registry:
        results["observed"] = WORKLOADS[workload]()
    assert fastpath_steps[0] == 0
    assert adoptions[0] - adopted == registry.counter("sim.runs").value > 0
    with collecting() as per_cycle_registry, per_cycle():
        results["per_cycle"] = WORKLOADS[workload]()
    assert fastpath_steps[0] > 0
    for reg in (registry, per_cycle_registry):
        assert reg.counter("fastpath.fallback").value == 0
    out_naive, stats_naive = results["naive"]
    for sched in SCHEDULERS[1:] + ["observed", "per_cycle"]:
        out, stats = results[sched]
        assert out == out_naive, sched
        assert stats == stats_naive, sched


# -- fault-injection differentials ------------------------------------------------


def _arm_simulators(monkeypatch, make_injector):
    """Patch ``Simulator.__init__`` so every simulator a kernel builds
    gets a fault injector attached the instant its configurations are
    resident.  Returns the list of injectors created."""
    import repro.xpp.simulator as simmod

    injectors = []
    orig_init = simmod.Simulator.__init__

    def init(self, manager, **kw):
        orig_init(self, manager, **kw)
        inj = make_injector(self)
        if inj is not None:
            inj.attach(self)
            injectors.append(inj)

    monkeypatch.setattr(simmod.Simulator, "__init__", init)
    return injectors


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_zero_rate_injection_is_noop(workload, scheduler, monkeypatch):
    """An armed injector with an empty schedule — identity taps on
    every wire of every kernel config — must be byte-identical with an
    untapped run: same outputs, firings, cycles, energy, stop reasons,
    and zero logged injections."""
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    baseline = WORKLOADS[workload]()
    injectors = _arm_simulators(
        monkeypatch, lambda sim: FaultInjector([], always_tap=True))
    tapped = WORKLOADS[workload]()
    assert injectors, "injector was never armed"
    assert tapped == baseline
    assert all(inj.events == [] for inj in injectors)


#: Expected injection counts for the corruption differential: only
#: token-count-preserving faults, so kernel post-processing that
#: expects its full output block still gets one.
_CORRUPTION_RATES = {"stuck_at": 1.0, "transient": 2.0, "ram_bit_flip": 1.0}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fault_injection_equivalence(workload, monkeypatch):
    """A seeded fault schedule corrupts both schedulers identically:
    same (corrupted) outputs and stats, and the same injection log —
    every fault lands at the same protocol-event index."""
    results = {}
    for sched in SCHEDULERS:
        monkeypatch.setenv(SCHEDULER_ENV, sched)
        rng = np.random.default_rng(2003)

        def make_injector(sim, rng=rng):
            faults = []
            for entry in sim.manager.loaded.values():
                faults.extend(plan_faults(entry.config, rng,
                                          rates=_CORRUPTION_RATES,
                                          horizon=96))
            return FaultInjector(faults)

        injectors = _arm_simulators(monkeypatch, make_injector)
        out = WORKLOADS[workload]()
        events = [e.to_dict() for inj in injectors for e in inj.events]
        results[sched] = (out, events)
        monkeypatch.undo()
    for sched in SCHEDULERS[1:]:
        assert results[sched] == results["naive"], sched
    # the schedule actually fired — a vacuous pass proves nothing
    assert results["naive"][1]


@pytest.mark.parametrize("fault", [
    TokenDrop(wire="code_mux.out0->descramble_mul.b", push_index=7),
    TokenDuplicate(wire="data.out->descramble_mul.a", push_index=5),
])
def test_drop_dup_equivalence(fault):
    """Dropped and duplicated handshake tokens change *how much* comes
    out, identically under both schedulers (the drop case exercises the
    event scheduler's no-token-landed path)."""
    results = {}
    for sched in SCHEDULERS:
        rng = np.random.default_rng(41)
        cfg = build_descrambler_config()
        cfg.sinks["out"].expect = 32
        inj = FaultInjector([fault])
        res = execute(cfg,
                      inputs={"code": rng.integers(0, 4, 32),
                              "data": rng.integers(0, 1 << 24, 32)},
                      max_cycles=2000, scheduler=sched, faults=inj)
        results[sched] = (res.outputs, _stats_key(res.stats),
                          [e.to_dict() for e in inj.events])
    for sched in SCHEDULERS[1:]:
        assert results[sched] == results["naive"], sched
    assert results["naive"][2], "fault never triggered"
    n_out = len(results["naive"][0]["out"])
    # a drop starves the sink one short of its expect count (the run
    # ends quiescent); a duplicate still stops at the expect count with
    # the surplus token left in flight
    assert n_out == (31 if isinstance(fault, TokenDrop) else 32)


def _run_fig10_midrun_swap(scheduler):
    """Acquisition running, then a 2a->2b swap in the middle of one
    continuous run() — the reconfiguration of the paper's Fig. 10."""
    sched = Fig10Schedule()
    sched.start_acquisition()
    down_cfg = next(c for c in sched.config1
                    if c.name == "resident_downsampler")
    corr_cfg = sched.config2a

    rng = np.random.default_rng(15)
    down_cfg.sources["in"].set_data(rng.integers(0, 4000, 200))
    corr_cfg.sources["in"].set_data(rng.integers(0, 4000, 200))

    sim = Simulator(sched.manager, scheduler=scheduler)
    state = {"swapped": False}

    def maybe_swap():
        if not state["swapped"] and sim.cycle >= 60:
            state["swapped"] = True
            sched.acquisition_done()
            sched.config2b.sources["carriers"].set_data(
                rng.integers(0, 4000, 104))
        return False

    stats = sim.run(500, until=maybe_swap)
    assert state["swapped"]

    outputs = {
        "down": list(down_cfg.sinks["out"].received),
        "metric": list(corr_cfg.sinks["metric"].received),
        "detect": list(corr_cfg.sinks["detect"].received),
        "demod": list(sched.config2b.sinks["out"].received),
    }
    fired = {o.name: o.fired for o in sched.manager.active_objects()}
    key = (_stats_key(stats), sim.cycle, fired,
           {k: len(v) for k, v in outputs.items()})
    sched.stop()
    return outputs, key


@pytest.mark.parametrize("scheduler", ["event", "fastpath"])
def test_fig10_midrun_reconfiguration_equivalence(scheduler):
    out_naive, key_naive = _run_fig10_midrun_swap("naive")
    out_event, key_event = _run_fig10_midrun_swap(scheduler)
    assert out_event == out_naive
    assert key_event == key_naive
    # the swap actually produced demodulated tokens post-reconfiguration
    assert len(out_event["demod"]) > 0
    assert len(out_event["down"]) > 0
