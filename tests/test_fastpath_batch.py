"""Batched refill: one stage run carries many members.

A RAM-PAE reloaded with a ``(B, words)`` array holds one image per
member, and the next ``Simulator.run`` carries all B of them: observably
as B reloads of the rows, each followed by a run.  Fastpath runs the
members in one session whose late sweep has a member axis; naive and
event run them one by one.  The random-netlist differential is the
batch leg of ``tests/test_fastpath_value_fuzz.py``; here the resident
FFT64 and the protocol around a batch: what it refuses, how it ends
and what a reset does to it.
"""

import warnings

import numpy as np
import pytest

from repro.diagnostics import BATCH_RUN, CODES
from repro.fastpath import FastpathFallbackWarning
from repro.kernels import Fft64Kernel
from repro.ofdm.fft import N, fft64_fixed
from repro.telemetry.metrics import collecting
from repro.xpp import (
    SCHEDULER_ENV,
    BatchRunError,
    ConfigBuilder,
    ConfigurationError,
    ConfigurationManager,
    Simulator,
    SinksDone,
)

SCHEDULERS = ("naive", "event", "fastpath")


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings))


def _inputs(b, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(-512, 512, (b, N)), rng.integers(-512, 512, (b, N))


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_a_batched_fft_equals_its_solo_transforms(scheduler, monkeypatch,
                                                  fastpath_steps):
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    kernel = Fft64Kernel()
    with collecting() as registry, warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        for b in (2, 3, 5, 1):
            re, im = _inputs(b, seed=b)
            yr, yi = kernel.run(re, im)
            batched = [_stats_key(s) for s in kernel.last_stats]
            assert yr.shape == yi.shape == (b, N)
            solo = []
            for k in range(b):
                gr, gi = fft64_fixed(re[k], im[k])
                assert np.array_equal(yr[k], gr) and np.array_equal(yi[k], gi)
                sr, si = kernel.run(re[k], im[k])
                assert np.array_equal(sr, gr) and np.array_equal(si, gi)
                solo.append(kernel.last_stats)
            # each stage's stats are the sum over the members' runs
            for stage, stats in enumerate(batched):
                total = solo[0][stage]
                for one in solo[1:]:
                    total = total.merge(one[stage])
                assert stats == _stats_key(total)
    on_fastpath = scheduler == "fastpath"
    # three stage runs per batch of more than one transform
    assert registry.counter("fastpath.batch.shared").value \
        == (9 if on_fastpath else 0)
    assert registry.counter("fastpath.batch.split").value == 0
    assert registry.counter("fastpath.writeback.full").value == 0
    # one sim.runs per member: every transform twice, three stages each
    assert registry.counter("sim.runs").value == 3 * (2 + 3 + 5 + 1) * 2
    assert fastpath_steps[0] == 0


def test_a_batch_replayed_cycle_by_cycle_matches(monkeypatch, per_cycle,
                                                 fastpath_steps):
    """With whole-run replay hidden, the shared session replays one
    member cycle by cycle and the others repeat its bookkeeping."""
    monkeypatch.setenv(SCHEDULER_ENV, "fastpath")
    re, im = _inputs(3)
    kernel = Fft64Kernel()
    yr, yi = kernel.run(re, im)
    whole = [_stats_key(s) for s in kernel.last_stats]
    with per_cycle(), collecting() as registry:
        cr, ci = kernel.run(re, im)
    assert np.array_equal(cr, yr) and np.array_equal(ci, yi)
    assert [_stats_key(s) for s in kernel.last_stats] == whole
    assert fastpath_steps[0] > 0
    assert registry.counter("fastpath.batch.shared").value == 3
    assert registry.counter("sim.runs").value == 9


def _ram_config():
    b = ConfigBuilder("ramcfg")
    cnt = b.alu("COUNTER", limit=4, count=4, bits=8)
    ram = b.ram(name="ram", words=4, bits=12)
    b.connect(cnt, "value", ram, "raddr")
    b.connect(ram, "rdata", b.sink("out"), 0)
    b.fifo(name="fifo", depth=4, preload=[1, 2])
    cfg = b.build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    return cfg, Simulator(mgr, scheduler="fastpath")


_IMAGES = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]],
                   dtype=np.int64)


def test_a_batch_runs_only_to_a_stop():
    assert CODES[BATCH_RUN][0] == "xpp"
    cfg, sim = _ram_config()
    cfg.reload({"ram": _IMAGES})
    for step in (sim.step, lambda: sim.step_n(3),
                 lambda: sim.run(100, until=lambda: False),
                 lambda: sim.run(100, until=SinksDone(cfg.sinks.values()))):
        with pytest.raises(BatchRunError) as exc:
            step()
        assert exc.value.code == BATCH_RUN
    assert sim.cycle == 0
    stats = sim.drain(100)
    assert cfg.sinks["out"].received == [9, 10, 11, 12]      # the last
    assert cfg.object("ram").mem.tolist() == _IMAGES.tolist()
    assert stats.cycles == sim.cycle
    sim.step()                  # the batch is spent: a plain run again
    # a reset arms the batch again: the next run carries every member
    cfg.reset()
    with pytest.raises(BatchRunError):
        sim.step()
    assert sim.drain(100) == stats


def test_a_one_member_batch_steps_and_a_one_image_reload_ends_a_batch():
    cfg, sim = _ram_config()
    cfg.reload({"ram": _IMAGES[1:2]})
    sim.step_n(30)
    assert cfg.object("ram").mem.tolist() == [[5, 6, 7, 8]]
    assert cfg.sinks["out"].received == [5, 6, 7, 8]
    cfg.reload({"ram": _IMAGES})
    cfg.reload({"ram": [4, 3, 2, 1]})
    sim.run(30, until=lambda: False)
    assert cfg.object("ram").mem == [4, 3, 2, 1]


def test_a_batched_reload_refuses_what_it_cannot_carry():
    cfg, sim = _ram_config()
    ram, fifo = cfg.object("ram"), cfg.object("fifo")
    for contents, match in (
            ({"fifo": _IMAGES}, "one image for every member"),
            ({"ram": _IMAGES.astype(float)}, "integer array"),
            ({"ram": np.zeros((2, 5), dtype=np.int64)}, "exceeds 4 words"),
            ({"ram": np.zeros((0, 4), dtype=np.int64)}, "needs a member")):
        with pytest.raises(ConfigurationError, match=match):
            cfg.reload(contents)
    assert ram._batch is None and list(fifo._q) == [1, 2]
    b = ConfigBuilder("two")
    for name in ("r0", "r1"):
        b.ram(name=name, words=4)
    two = b.build()
    two.reload({"r0": _IMAGES})
    with pytest.raises(ConfigurationError, match="member count"):
        two.reload({"r1": _IMAGES[:2]})
    assert two.object("r1")._batch is None
    # rows wrap like a one-image reload and zero-fill
    cfg.reload({"ram": np.array([[1 << 12, -1], [2047, 2048]])})
    assert ram.mem.tolist() == [[0, -1, 0, 0], [2047, -2048, 0, 0]]


@pytest.mark.parametrize("touch", ["fifo_flip", "set_data"])
def test_a_batch_touched_after_its_reload_runs_its_members_one_by_one(touch):
    """Only member 0 starts from the touched state (the others start
    from their reset), so the members cannot share one session."""
    def script(scheduler):
        b = ConfigBuilder("touched")
        cnt = b.alu("COUNTER", limit=4, count=4, bits=8)
        ram = b.ram(name="ram", words=4, bits=12)
        b.connect(cnt, "value", ram, "raddr")
        add = b.alu("ADD", bits=12)
        b.connect(ram, "rdata", add, "a")
        fifo = b.fifo(name="fifo", depth=4, preload=[1, 2, 3, 4])
        b.connect(fifo, 0, add, "b")
        b.connect(add, 0, b.sink("out"), 0)
        src = b.source("x", [5, 6], bits=12)
        b.connect(src, 0, b.sink("echo"), 0)
        cfg = b.build()
        mgr = ConfigurationManager()
        mgr.load(cfg)
        sim = Simulator(mgr, scheduler=scheduler)
        cfg.reload({"ram": _IMAGES})
        if touch == "fifo_flip":
            cfg.object("fifo").flip_bit(0, 3)
        else:
            src.set_data([7, 8, 9])
        stats = sim.drain(100)
        mgr.settle()
        return (_stats_key(stats), cfg.object("ram").mem.tolist(),
                {name: list(s.received) for name, s in cfg.sinks.items()},
                [(list(w._q), w.total_transfers, w.resets)
                 for w in cfg.wires])

    ref = script("naive")
    with collecting() as registry:
        assert script("fastpath") == ref
    assert registry.counter("fastpath.batch.split").value == 1
    assert registry.counter("fastpath.batch.shared").value == 0
