"""The resident FFT64: one loaded stage netlist, refilled between runs.

``Configuration.reload`` swaps the contents of FIFO/RAM PAEs in a
loaded configuration (the paper's RAM read-back, Fig. 9) without a
load or remove.  The differential tests here check that a reloaded
configuration runs exactly like a freshly built one under the naive,
event and fastpath schedulers, and that :class:`Fft64Kernel`, which
keeps one stage configuration resident across stages and transforms,
reproduces the per-stage rebuild it replaced: outputs, cycles, stop
reasons, firings and energy.
"""

import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning
from repro.fixed import pack_complex, unpack_complex
from repro.kernels import Fft64Kernel, build_fft_stage_config
from repro.kernels.fft64 import LANE_BITS, _stage_schedules
from repro.ofdm.fft import TWIDDLE_BITS, N, digit_reverse4, fft64_fixed
from repro.telemetry.metrics import collecting
from repro.telemetry.probes import probing
from repro.xpp import (
    SCHEDULER_ENV,
    ConfigurationError,
    ConfigurationManager,
    FifoPae,
    RamPae,
    Simulator,
)

SCHEDULERS = ("naive", "event", "fastpath")


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings))


def _ram_image(seed):
    rng = np.random.default_rng(seed)
    return [pack_complex(int(r), int(q), LANE_BITS)
            for r, q in rng.integers(-512, 512, (N, 2))]


def _luts(stage):
    raddrs, twiddles, waddrs = _stage_schedules(stage, TWIDDLE_BITS)
    return {"raddr_lut": raddrs, "waddr_lut": waddrs,
            "twiddle_lut": twiddles}


def _observe(cfg, stats):
    return (_stats_key(stats), list(cfg.object("data_ram").mem))


def _fresh(stage, data, scheduler):
    """Build, load and drain one stage configuration from scratch."""
    cfg = build_fft_stage_config(stage, data)
    mgr = ConfigurationManager()
    mgr.load(cfg)
    return _observe(cfg, Simulator(mgr, scheduler=scheduler).drain(2000))


def _reloaded(scheduler, script):
    """Load stage 0 once, then reload and drain it for each
    ``(stage, data)`` of ``script``; the manager version must not move."""
    cfg = build_fft_stage_config(0, _ram_image(0))
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    version = mgr.version
    log = [_observe(cfg, sim.drain(2000))]
    for stage, data in script:
        cfg.reload({"data_ram": data, **_luts(stage)})
        log.append(_observe(cfg, sim.drain(2000)))
    assert mgr.version == version
    return log


_SCRIPT = [(1, _ram_image(1)), (2, _ram_image(2)), (0, _ram_image(3)),
           (2, _ram_image(4)[:40])]       # a short image zero-fills


def test_reload_matches_a_fresh_build_on_every_scheduler(fastpath_steps,
                                                         per_cycle,
                                                         adoptions):
    expected = [_fresh(0, _ram_image(0), "naive")] + [
        _fresh(stage, data, "naive") for stage, data in _SCRIPT]
    assert all(obs[0][:2] == (85, "quiescent") for obs in expected)
    assert _reloaded("naive", _SCRIPT) == expected
    assert _reloaded("event", _SCRIPT) == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _reloaded("fastpath", _SCRIPT) == expected
    assert fastpath_steps[0] == 0           # every drain replayed whole
    # a recording registry changes nothing: still whole runs, each one
    # adopting the stage schedule the leg above remembered
    adopted = adoptions[0]
    with collecting() as registry:
        got = _reloaded("fastpath", _SCRIPT)
    assert fastpath_steps[0] == 0
    assert adoptions[0] - adopted == registry.counter("sim.runs").value \
        == len(_SCRIPT) + 1
    assert registry.counter("fastpath.fallback").value == 0
    assert registry.counter("fastpath.cache.hit").value \
        + registry.counter("fastpath.cache.miss").value == 1
    assert got == expected
    # per-cycle replay must match too
    with per_cycle():
        assert _reloaded("fastpath", _SCRIPT) == expected
    assert fastpath_steps[0] > 0


@pytest.mark.parametrize("name, build", [
    ("raddr_lut", lambda data: FifoPae("raddr_lut", depth=N, preload=data)),
    ("data_ram", lambda data: RamPae("data_ram", words=N, preload=data)),
])
def test_reload_refuses_what_the_constructor_refuses(name, build):
    too_long = [0] * (N + 1)
    with pytest.raises(ConfigurationError) as built:
        build(too_long)
    cfg = build_fft_stage_config(0, _ram_image(0))
    twiddles = cfg.object("twiddle_lut")
    before = list(twiddles._preload)
    with pytest.raises(ConfigurationError) as reloaded:
        # nothing lands, not even the valid table alongside
        cfg.reload({"twiddle_lut": [7] * N, name: too_long})
    assert str(reloaded.value) == str(built.value)
    cfg.reset()
    assert list(twiddles._q) == before


def test_reload_only_refills_ram_paes():
    cfg = build_fft_stage_config(0, _ram_image(0))
    with pytest.raises(ConfigurationError, match="not a RAM-PAE"):
        cfg.reload({"u0": [1]})
    with pytest.raises(KeyError):
        cfg.reload({"no_such_object": [1]})


@pytest.mark.parametrize("values", [
    [1 << 40, -(1 << 33) - 5, np.int64(1 << 35), 7],
    np.array([1 << 40, -(1 << 33) - 5, 1 << 35, 7], dtype=np.int64),
], ids=["list", "int64"])
def test_reload_wraps_like_the_constructor(values):
    cfg = build_fft_stage_config(0, [0] * N)
    cfg.reload({"data_ram": values, "twiddle_lut": values})
    bits = 2 * LANE_BITS
    assert cfg.object("data_ram").mem \
        == RamPae("r", words=N, bits=bits, preload=values).mem
    assert cfg.object("twiddle_lut")._q \
        == FifoPae("f", depth=N, bits=bits, preload=values)._q


# -- the resident kernel ------------------------------------------------------------


def _rebuild_fft(re, im):
    """The per-stage rebuild the resident kernel replaced: a fresh
    stage configuration, manager and simulator for every stage."""
    data = [pack_complex(int(re[digit_reverse4(i)]),
                         int(im[digit_reverse4(i)]), LANE_BITS)
            for i in range(N)]
    stats = []
    for stage in range(3):
        cfg = build_fft_stage_config(stage, data)
        mgr = ConfigurationManager()
        mgr.load(cfg)
        stats.append(Simulator(mgr, scheduler="naive").drain(20_000))
        data = list(cfg.object("data_ram").mem)
    return [unpack_complex(w, LANE_BITS) for w in data], stats


def _inputs(n):
    rng = np.random.default_rng(31)
    return [(rng.integers(-512, 512, N), rng.integers(-512, 512, N))
            for _ in range(n)]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_one_kernel_over_many_inputs_matches_the_rebuild(scheduler,
                                                         monkeypatch,
                                                         fastpath_steps,
                                                         per_cycle,
                                                         adoptions):
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    kernel = Fft64Kernel()
    with probing() as board, warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        for k, (re, im) in enumerate(_inputs(6)):
            yr, yi = kernel.run(re, im)
            if k == 0:
                manager_sim = kernel._sim
                manager = kernel._sim.manager
                version = manager.version
            gr, gi = fft64_fixed(re, im)
            assert np.array_equal(yr, gr) and np.array_equal(yi, gi)
            words, stats = _rebuild_fft(re, im)
            assert list(zip(yr.tolist(), yi.tolist())) == words
            assert [_stats_key(s) for s in kernel.last_stats] \
                == [_stats_key(s) for s in stats]
            assert manager.version == version
    for stage in range(3):
        assert board[f"xpp.fft64.overflow.stage{stage}"].count == 6
    assert fastpath_steps[0] == 0           # every stage replayed whole
    # a recording registry changes nothing: whole runs that adopt the
    # stage schedule, with no fallback and no compile-cache lookup (the
    # stage the first kernel left resident is already compiled);
    # per-cycle replay must match too
    for leg in ("observed", "per_cycle"):
        kernel = Fft64Kernel()
        adopted = adoptions[0]
        got = []
        with collecting() as registry, \
                (per_cycle() if leg == "per_cycle" else nullcontext()):
            for re, im in _inputs(2):
                yr, yi = kernel.run(re, im)
                got.append((list(zip(yr.tolist(), yi.tolist())),
                            [_stats_key(s) for s in kernel.last_stats]))
        for (words, stats), (re, im) in zip(got, _inputs(2)):
            ref_words, ref_stats = _rebuild_fft(re, im)
            assert words == ref_words
            assert stats == [_stats_key(s) for s in ref_stats]
        on_fastpath = scheduler == "fastpath"
        if leg == "observed":
            assert fastpath_steps[0] == 0
            assert adoptions[0] - adopted \
                == (registry.counter("sim.runs").value if on_fastpath else 0)
        else:
            assert (fastpath_steps[0] > 0) == on_fastpath
        assert registry.counter("fastpath.fallback").value == 0
        lookups = registry.counter("fastpath.cache.hit").value \
            + registry.counter("fastpath.cache.miss").value
        assert lookups == 0
        assert kernel._sim is manager_sim


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_interleaved_kernels_share_one_resident_stage(scheduler,
                                                      monkeypatch):
    """Two kernels of one shape, run alternately, share the process's
    resident stage: one build, one load, one compile-cache lookup in
    all.  Every run reloads the RAM and the three lookup FIFOs, which
    resets each of the stage's objects and wires, so both stay
    bit-exact with the golden model and the per-stage rebuild."""
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    kernels = (Fft64Kernel(), Fft64Kernel())
    with collecting() as registry, warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        for k, (re, im) in enumerate(_inputs(6)):
            kernel = kernels[k % 2]
            yr, yi = kernel.run(re, im)
            gr, gi = fft64_fixed(re, im)
            assert np.array_equal(yr, gr) and np.array_equal(yi, gi)
            words, stats = _rebuild_fft(re, im)
            assert list(zip(yr.tolist(), yi.tolist())) == words
            assert [_stats_key(s) for s in kernel.last_stats] \
                == [_stats_key(s) for s in stats]
            cfg = kernel._config
            if k == 0:
                resets = [x.resets for x in cfg.objects + cfg.wires]
            assert [x.resets for x in cfg.objects + cfg.wires] \
                == [r + 3 * k for r in resets]
    assert kernels[0]._sim is kernels[1]._sim
    assert kernels[0]._sim.manager.version == 1
    lookups = registry.counter("fastpath.cache.hit").value \
        + registry.counter("fastpath.cache.miss").value
    assert lookups == (1 if scheduler == "fastpath" else 0)
    # another shape, or another scheduler, gets a stage of its own
    other = Fft64Kernel(stage_shift=1)
    other.run(*_inputs(1)[0])
    assert other._sim is not kernels[0]._sim


def test_every_stage_session_shares_one_netlist(monkeypatch):
    # each stage opens a session; all of them read the one compiled
    # netlist the cache holds for the stage shape: its kernels, its
    # schedule memo and its data plan
    from repro.fastpath import cache, capture
    from repro.fastpath.runtime import TraceSession
    sessions = []
    init = TraceSession.__init__

    def recorded(self, *args):
        init(self, *args)
        sessions.append(self)

    monkeypatch.setattr(TraceSession, "__init__", recorded)
    monkeypatch.setenv(SCHEDULER_ENV, "fastpath")
    kernel = Fft64Kernel()
    for re, im in _inputs(2):
        kernel.run(re, im)
    assert len(sessions) == 6
    netlist = cache.compile_graph(capture(kernel._sim.manager)).netlist
    assert all(s.netlist is netlist for s in sessions)
    assert all(s.memo is netlist.memo and s.trace is netlist.trace
               for s in sessions)
    assert len(netlist.memo) == 1           # one stage schedule
    assert len(netlist.plan.states) == 1    # one data-plan state


def test_a_stage_reload_takes_the_resident_tables_as_they_are(monkeypatch):
    """The resident stage wraps each lookup table once; every stage
    reload takes that configured image without wrapping it again."""
    import repro.xpp.ram as ram_module
    kernel = Fft64Kernel()
    kernel.run(*_inputs(1)[0])
    calls = [0]
    wrap_list = ram_module.wrap_list

    def counted(*args):
        calls[0] += 1
        return wrap_list(*args)

    monkeypatch.setattr(ram_module, "wrap_list", counted)
    for re, im in _inputs(3):
        yr, yi = kernel.run(re, im)
        gr, gi = fft64_fixed(re, im)
        assert np.array_equal(yr, gr) and np.array_equal(yi, gi)
    assert calls[0] == 0
    cfg = kernel._config
    assert all(cfg.object(name)._preload is image
               for name, image in kernel._luts[2].items())


def test_a_writable_table_changed_between_reloads_takes_effect():
    cfg = build_fft_stage_config(0, _ram_image(0))
    fifo = cfg.object("raddr_lut")
    table = np.array(_luts(1)["raddr_lut"], dtype=np.int64)
    cfg.reload({"raddr_lut": table})
    assert list(fifo._q) == table.tolist()
    table[:3] = (7, 1 << 30, -5)
    cfg.reload({"raddr_lut": table})
    assert list(fifo._q)[:3] == [7, 0, -5]          # 24 bits, wrapped
    assert list(fifo._q)[3:] == table[3:].tolist()
    # an image configured for another width is wrapped again
    wide = FifoPae("wide", depth=N, bits=40).image([1 << 33, 3])
    cfg.reload({"raddr_lut": wide})
    assert list(fifo._q) == [0, 3]
