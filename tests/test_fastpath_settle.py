"""An outside access settles the configuration manager.

A fastpath session replays a trace while wire queues and object
registers stay frozen, and writes them back when it closes; the event
scheduler keeps a ready list of the objects worth planning.  Whatever
touches that state from outside the scheduler (``set_data``, ``reset``,
``flip_bit``, ``Configuration.reload``, ``diagnose``) first settles the
manager that loaded it: the manager writes its open session back and
forgets which scheduler's view is current, so the next step's claim
fails and the scheduler starts from live state.  Here the touch comes
from an opaque ``until`` hook in the middle of a run, where the
per-cycle loop keeps stepping the same scheduler afterwards, and naive,
event and fastpath must agree on everything observable, also when the
touched object went idle cycles before.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning
from repro.faults import FaultInjector, RamBitFlip, StuckAtFault
from repro.kernels.despreader import build_despreader_config
from repro.telemetry.metrics import collecting
from repro.xpp import ConfigBuilder, ConfigurationManager, RamPae, Simulator

SCHEDULERS = ("naive", "event", "fastpath")


def _adder(data=tuple(range(10))):
    b = ConfigBuilder("adder")
    b.chain(b.source("x", data), b.alu("ADD", name="add", const=100),
            b.sink("y"))
    return b.build()


def _dry():
    """The adder on three samples: its source runs dry, and the whole
    array goes idle, cycles before the hook touches it."""
    return _adder([0, 1, 2])


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


def _refill(cfg):
    return cfg.sources["x"].set_data([50, 51, 52])


def _rewind(cfg):
    return cfg.sources["x"].reset()


#: when the hook touches: (its call, ``run``'s max_cycles and
#: quiescent_limit); on ``IDLE`` the array has been idle for 3 cycles
BUSY = (3, 100, 8)
IDLE = (8, 40, 20)

TOUCHES = {
    "set_data": (_adder, _refill, BUSY),
    "reset": (_adder, _rewind, BUSY),
    "flip_ram": (_ram, lambda cfg: cfg.object("ram").flip_bit(5, 0), BUSY),
    "flip_fifo": (_fifo, lambda cfg: cfg.object("fifo").flip_bit(0, 4), BUSY),
    "idle_set_data": (_dry, _refill, IDLE),
    "idle_reset": (_dry, _rewind, IDLE),
    "idle_reload": (_dry, lambda cfg: cfg.reload({}), IDLE),
}


def _hooked(scheduler, case):
    """Run ``case``'s netlist with an ``until`` hook that touches it
    once; returns every observable."""
    build, touch, (at, max_cycles, quiescent_limit) = TOUCHES[case]
    cfg = build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    calls = []

    def until():
        calls.append(touch(cfg) if len(calls) == at else None)
        return False

    stats = sim.run(max_cycles, until=until, quiescent_limit=quiescent_limit)
    mgr.settle()
    return ((stats.cycles, stats.stop_reason, stats.total_firings,
             stats.energy, dict(stats.firings)), calls[at],
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


def test_a_touch_wakes_an_idle_object():
    """The event scheduler plans only objects a wire event readied; a
    touch of an object idle since its source ran dry readies nothing
    on a wire, so the failed claim is what gets it planned again."""
    stats, _, out, _ = _hooked("event", "idle_set_data")
    assert out == [100, 101, 102, 150, 151, 152]
    assert stats[0] == 33
    assert _hooked("event", "idle_reset")[2] == [100, 101, 102] * 2
    assert _hooked("event", "idle_reload")[2] == [100, 101, 102]


def test_a_flip_from_an_until_hook_sees_the_committed_writes():
    _, flipped, out, mem = _hooked("fastpath", "flip_ram")
    assert flipped == 76                    # 77 ^ 1, not 5 ^ 1
    assert mem[0][5:7] == [76, 88]
    assert out[-3:] == [76, 88, 7]


def test_the_back_reference_keeps_neither_manager_nor_session_alive():
    """Objects and wires reach the manager that loaded them through a
    weak reference, and the manager owns the open session.  A simulator
    dropped with its session open leaves the session with the manager,
    whose next settle writes it back and frees it; a manager dropped
    with its configuration loaded is freed at once.  Neither needs a
    garbage-collector pass."""
    cfg = _adder()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler="fastpath")
    sim.run(3)
    ref = cfg.object("add")._manager
    assert ref() is mgr and cfg.wires[0]._manager is ref
    session = weakref.ref(mgr._session)
    gc.disable()
    try:
        del sim
        assert session() is not None            # the manager holds it
        mgr.settle()
        assert session() is None
        assert cfg.sources["x"].remaining == 7  # written back
        del mgr
        assert ref() is None
    finally:
        gc.enable()
    cfg.sources["x"].set_data([1])              # no manager to settle
    assert cfg.sources["x"].remaining == 1


def test_a_dropped_manager_with_a_session_open_is_freed_at_once():
    cfg = _adder()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    Simulator(mgr, scheduler="fastpath").run(3)
    session = weakref.ref(mgr._session)
    ref = cfg.wires[0]._manager
    gc.disable()
    try:
        del mgr
        assert ref() is None and session() is None
    finally:
        gc.enable()


def test_single_steps_share_one_session(trace_calls):
    """300 single ``step()`` calls: fastpath keeps one session across
    them (nothing touches the array in between) and matches naive step
    for step, in firings, sink tokens and the wires written back."""
    rng = np.random.default_rng(5)
    data = rng.integers(0, 1 << 20, 400)
    ovsf = rng.integers(0, 2, 400)
    seen = {}
    for scheduler in ("naive", "fastpath"):
        cfg = build_despreader_config(3, 4)
        cfg.sources["data"].set_data(data)
        cfg.sources["ovsf"].set_data(ovsf)
        mgr = ConfigurationManager()
        mgr.load(cfg)
        sim = Simulator(mgr, scheduler=scheduler)
        steps, sessions = [], set()
        for _ in range(300):
            steps.append((sim.step(), len(cfg.sinks["out"].received)))
            sessions.add(mgr._session)
        out = list(cfg.sinks["out"].received)
        mgr.settle()
        seen[scheduler] = (steps, out, [list(w._q) for w in cfg.wires],
                           {o.name: o.fired for o in cfg.objects})
        if scheduler == "fastpath":
            assert len(sessions) == 1 and None not in sessions
    assert seen["fastpath"] == seen["naive"]
    assert len(seen["naive"][1]) > 10
    assert trace_calls[0] <= 3      # the trace grows in doubling windows


@pytest.mark.parametrize("keep", [True, False], ids=["kept", "dropped"])
@pytest.mark.parametrize("second", SCHEDULERS)
@pytest.mark.parametrize("first", SCHEDULERS)
def test_a_second_simulator_continues_where_the_first_stopped(first, second,
                                                              keep):
    """Two simulators on one manager: the first stops after 4 cycles,
    the second drains.  Whatever runs the array first settles a session
    the other simulator still holds, kept alive or dropped, so the sink
    sees each token once."""
    cfg = _adder()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=first)
    sim.run(4)
    if not keep:
        del sim
        gc.collect()
    Simulator(mgr, scheduler=second).drain()
    assert cfg.sinks["y"].received == list(range(100, 110))


def _armed(scheduler, case, arm=True):
    """Stop after 3 cycles, arm a fault injector, drain."""
    cfg = _adder() if case == "tap" else _ram()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    sim.run(3)
    fault = (StuckAtFault(wire=cfg.wires[-1].name, bit=3) if case == "tap"
             else RamBitFlip(object="ram", word=6, bit=2, fire_index=0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FastpathFallbackWarning)
        if arm:
            FaultInjector([fault]).attach(sim)
        sim.drain()
    return list(cfg.sinks["y"].received)


@pytest.mark.parametrize("case", ["tap", "flip"])
def test_arming_faults_between_runs_reaches_an_open_session(case):
    """Installing a wire tap or wrapping a RAM commit settles what it
    arms: the open session is written back, and fastpath falls back to
    the event scheduler with the fault in place."""
    ref = _armed("naive", case)
    assert ref != _armed("naive", case, arm=False)
    for scheduler in ("event", "fastpath"):
        assert _armed(scheduler, case) == ref


def _attach_detach(scheduler):
    """Run 5 cycles, then twice: attach a stuck-at tap, 5 cycles and 3
    single steps, detach, 5 cycles; then drain.  Returns every run's
    stats, the sink tokens, whether a session was open after each
    post-detach run and after the drain, and the fallback count."""
    cfg = _adder(range(100))
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    runs, open_after = [sim.run(5)], []
    with collecting() as registry, warnings.catch_warnings():
        warnings.simplefilter("ignore", FastpathFallbackWarning)
        for _ in range(2):
            injector = FaultInjector(
                [StuckAtFault(wire=cfg.wires[-1].name, bit=3)]).attach(sim)
            runs.append(sim.run(5))
            runs.extend(sim.step() for _ in range(3))
            injector.detach()
            runs.append(sim.run(5))
            open_after.append(mgr._session is not None)
        runs.append(sim.drain())
        open_after.append(mgr._session is not None)
    stats = [s if isinstance(s, int) else
             (s.cycles, s.stop_reason, s.total_firings, s.energy,
              dict(s.firings)) for s in runs]
    return (stats, list(cfg.sinks["y"].received), open_after,
            registry.counter("fastpath.fallback").value)


def test_a_detached_fault_lets_a_session_reopen():
    """A wire tap holds fastpath on the event fallback only until the
    injector detaches: detaching settles the manager, the next run
    opens a session again, and the fallback counts once per attach."""
    ref = _attach_detach("naive")
    assert ref[1] != [x + 100 for x in range(100)]      # the tap bit
    assert _attach_detach("event")[:2] == ref[:2]
    stats, out, open_after, fallbacks = _attach_detach("fastpath")
    assert (stats, out) == ref[:2]
    assert open_after == [True, True, True]
    assert fallbacks == 2


@pytest.mark.parametrize("second", SCHEDULERS)
def test_a_configuration_moved_to_another_manager_continues(second):
    """Loading into a second manager settles the first one, whose
    session may still hold the configuration's state."""
    cfg = _adder()
    first = ConfigurationManager()
    first.load(cfg)
    Simulator(first, scheduler="fastpath").run(4)
    first.remove(cfg)
    mgr = ConfigurationManager()
    mgr.load(cfg)
    assert cfg.object("add")._manager() is mgr
    Simulator(mgr, scheduler=second).drain()
    assert cfg.sinks["y"].received == list(range(100, 110))


@pytest.mark.parametrize("other", SCHEDULERS)
def test_an_event_scheduler_resumes_after_another_one_stepped(other):
    """Event, then another simulator, then the first event simulator
    again, with no load/remove in between: the failed claim re-installs
    the event list that a naive step detached from the wires."""
    cfg = _adder()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler="event")
    sim.run(4)
    Simulator(mgr, scheduler=other).run(2)
    sim.drain()
    assert cfg.sinks["y"].received == list(range(100, 110))
