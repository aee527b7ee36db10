"""Synchronous cycle-driven simulation of the array.

All resources on the XPP execute completely synchronously in a single
clock domain.  Each simulated cycle has two phases: every object *plans*
a firing against the wire state at the start of the cycle, then all
planned firings *commit*.  Planning is read-only, so object evaluation
order cannot affect results.

Which objects get planned each cycle is delegated to a scheduler
(:mod:`repro.xpp.scheduler`).  The default :class:`EventScheduler` only
re-plans objects whose wires changed, which is bit-exact with the
exhaustive :class:`NaiveScheduler` under the two-phase protocol; pass
``scheduler="naive"`` (or set ``REPRO_XPP_SCHEDULER=naive``) to force
the reference behaviour.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry import get_metrics, get_tracer
from repro.xpp.config import Configuration
from repro.xpp.errors import BatchRunError
from repro.xpp.manager import ConfigurationManager
from repro.xpp.scheduler import make_scheduler
from repro.xpp.stats import (
    STOP_MAX_CYCLES,
    STOP_QUIESCENT,
    STOP_UNTIL,
    RunStats,
)


class SinksDone:
    """``until`` predicate: every sink in ``sinks`` holds its ``expect``
    count.

    Calling it is ``all(s.done for s in sinks)``, so the naive and event
    schedulers evaluate it once per cycle like any callable.  Being
    data rather than an opaque closure, it also lets a scheduler with a
    ``run`` method (fastpath) answer the stop from its trace in one go;
    see :meth:`Simulator.run`.
    """

    __slots__ = ("sinks",)

    def __init__(self, sinks):
        self.sinks = list(sinks)

    def __call__(self) -> bool:
        return all(s.done for s in self.sinks)


class Simulator:
    """Runs the objects currently loaded by a configuration manager.

    Telemetry: with a recording tracer installed (``telemetry.
    enable_tracing()`` or ``telemetry.tracing()``), each run emits a
    ``sim.run`` span, per-step ``sim.firings`` / ``sim.energy``
    counters and a ``sim.stop`` instant carrying the stop reason; the
    tracer's clock is stamped with the cycle counter every step so
    events from the manager or DSP land at the right cycle.  With a
    recording metrics registry, firing rates, FIFO depths and
    throughput feed the ``sim.*`` instruments.  Both are process-wide
    and default to no-ops.  Observing never changes the path a run takes:
    a fastpath run replays whole either way, its per-cycle values read
    off the trace.
    """

    def __init__(self, manager: ConfigurationManager, *,
                 scheduler=None, faults=None):
        self.manager = manager
        self.cycle = 0
        self.scheduler = make_scheduler(scheduler)
        self.scheduler.bind(manager)
        self.faults = faults        # a repro.faults.FaultInjector, or None
        if faults is not None:
            faults.attach(self)

    def step(self) -> int:
        """Advance one clock cycle; returns the number of firings.

        State touched between steps (a refilled source, a reloaded RAM)
        settles the manager, and the scheduler's next claim on it fails,
        so it starts from live state (see :mod:`repro.xpp.scheduler`).
        A batched configuration only runs to a stop: stepping one raises
        :class:`~repro.xpp.errors.BatchRunError`.
        """
        self._unbatched("step")
        fired = self.scheduler.step()
        self.cycle += 1
        return fired

    def step_n(self, n: int) -> int:
        """Advance ``n`` clock cycles; returns the total number of firings.

        The batched counterpart of :meth:`step`: the event scheduler's
        ready list stays warm across the whole batch, with no per-cycle
        claim.  Under recording telemetry the per-cycle loop runs
        instead, to the same results.
        """
        self._unbatched("step_n")
        sched = self.scheduler
        emit = self._emitter(get_tracer(), get_metrics())
        batched = getattr(sched, "step_n", None)
        if emit is not None or batched is None:
            return self._loop(n, None, n + 1, emit)[1]
        total = batched(n)
        self.cycle += n
        return total

    def run(self, max_cycles: int, *, until: Optional[Callable[[], bool]] = None,
            quiescent_limit: int = 8) -> RunStats:
        """Run until ``until()`` is true, the array goes quiescent for
        ``quiescent_limit`` consecutive cycles, or ``max_cycles`` elapse.

        The returned stats carry which of the three stopped the run in
        ``stop_reason`` — a run that exhausted ``max_cycles`` with a
        stalled pipeline is not the same as one that drained cleanly.

        With ``until`` None or a :class:`SinksDone`, a scheduler that has
        a ``run`` method (fastpath) gets the whole run at once and
        returns ``(cycles, stop_reason)`` — or None to fall through to
        the per-cycle loop.  Any other ``until`` callable is opaque and
        is called every cycle; a touch it makes settles the manager, so
        the next step starts from live state.  Installed telemetry never
        changes which path runs: it is fed afterwards, cycle by cycle.

        After a batched reload (:meth:`Configuration.reload
        <repro.xpp.config.Configuration.reload>` with one RAM image per
        member) one run carries all B members, as B runs of the members
        in turn would: the stats are their sum (:meth:`RunStats.merge`),
        ``cycle`` and the ``sim.*`` telemetry advance per member (one
        ``sim.runs`` each).  A scheduler with a ``share`` method
        (fastpath) may run them all in one session; otherwise the
        members run one by one.  A batch runs only to a stop: with an
        ``until`` it raises :class:`~repro.xpp.errors.BatchRunError`.
        """
        batch = self.manager.batched()
        if batch is None:
            return self._run(max_cycles, until, quiescent_limit)
        if until is not None:
            raise BatchRunError(
                f"{batch.name}: a batched configuration runs to a stop, "
                f"not toward an until predicate")
        members = batch._pending
        share = getattr(self.scheduler, "share", None)
        if share is not None and share(batch, members):
            stats = self._run(max_cycles, None, quiescent_limit, members)
            if stats.stop_reason != STOP_QUIESCENT:
                # a cut session must not carry every member on later
                self.manager.settle()
            batch._spend(members - 1)
            return stats
        stats = None
        for m in range(members):
            if m:
                batch._start_member(m)
            one = self._run(max_cycles, None, quiescent_limit)
            stats = one if stats is None else stats.merge(one)
        batch._spend()
        return stats

    def _run(self, max_cycles: int, until, quiescent_limit: int,
             members: int = 1) -> RunStats:
        """One run (see :meth:`run`); ``members`` > 1 when the scheduler
        carried that many members in it, whose cycles, telemetry and
        stats repeat the first member's."""
        start_cycle = self.cycle
        tracer = get_tracer()
        metrics = get_metrics()
        emit = self._emitter(tracer, metrics)
        if tracer.enabled:
            tracer.set_time(start_cycle)
        whole = None
        if until is None or isinstance(until, SinksDone):
            run_all = getattr(self.scheduler, "run", None)
            if run_all is not None:
                whole = run_all(max_cycles, getattr(until, "sinks", None),
                                quiescent_limit)
        if whole is None:
            stop_reason = self._loop(max_cycles, until, quiescent_limit,
                                     emit)[0]
            cycles = self.cycle - start_cycle
        else:
            cycles, stop_reason = whole
        stats = self.collect_stats(cycles)
        stats.stop_reason = stop_reason
        total = None
        for m in range(members):
            start = start_cycle
            if whole is not None or m:
                start = self.cycle
                if m and tracer.enabled:
                    tracer.set_time(start)
                self.cycle += cycles
                if emit is not None:
                    emit(cycles)
            if tracer.enabled:
                tracer.complete("sim.run", ts=start, dur=cycles, cat="sim",
                                args={"stop_reason": stop_reason,
                                      "cycles": cycles})
                tracer.instant("sim.stop", "sim", ts=self.cycle,
                               args={"reason": stop_reason})
            if metrics.enabled:
                self._finish_metrics(metrics, stats)
            total = stats if total is None else total.merge(stats)
        return total

    def drain(self, max_cycles: int = 100_000, *,
              quiescent_limit: int = 8) -> RunStats:
        """Run with no stop predicate until the array goes quiescent."""
        return self.run(max_cycles, quiescent_limit=quiescent_limit)

    def _unbatched(self, what: str) -> None:
        batch = self.manager.batched()
        if batch is not None:
            raise BatchRunError(f"{batch.name}: a batched configuration "
                                f"runs to a stop; {what} cannot step it")

    def _loop(self, n: int, until, quiescent_limit: int, emit):
        """The per-cycle loop: step at most ``n`` cycles, checking
        ``until`` before each step and quiescence after it.  Returns
        ``(stop_reason, firings)``."""
        step = self.scheduler.step
        end = self.cycle + n
        idle = total = 0
        while self.cycle < end:
            if until is not None and until():
                return STOP_UNTIL, total
            fired = step()
            self.cycle += 1
            total += fired
            if emit is not None:
                emit(1, fired)
            if fired:
                idle = 0
            else:
                idle += 1
                if idle >= quiescent_limit:
                    return STOP_QUIESCENT, total
        return STOP_MAX_CYCLES, total

    def _emitter(self, tracer, metrics):
        """``emit(n, fired)`` feeding the ``sim.*`` telemetry of the ``n``
        cycles just stepped, or None when nothing records.  Each cycle's
        ``(fired, energy, wire depths)`` comes from the scheduler's
        ``records(n)`` (fastpath: off its trace) or, failing that, from
        the live objects and wires after one step."""
        tracing = tracer.enabled
        sampling = metrics.enabled
        if not (tracing or sampling):
            return None
        records = getattr(self.scheduler, "records", lambda n: None)
        mgr = self.manager

        def emit(n, fired=0):
            recs = records(n)
            if recs is None:
                objs = mgr.active_objects()
                recs = [(fired, sum(o.fired * o.ENERGY for o in objs),
                         [len(w) for w in mgr.active_wires()])]
            for cycle, (fired, energy, depths) in enumerate(
                    recs, self.cycle - n + 1):
                if tracing:
                    tracer.set_time(cycle)
                    tracer.counter("sim.firings", fired, "sim", ts=cycle)
                    tracer.counter("sim.energy", energy, "sim", ts=cycle)
                if sampling:
                    metrics.counter("sim.steps").inc()
                    metrics.counter("sim.firings").inc(fired)
                    metrics.histogram("sim.firings_per_cycle").observe(fired)
                    hist = metrics.histogram("sim.fifo_depth")
                    for depth in depths:
                        hist.observe(depth)
                    metrics.maybe_snapshot(cycle)

        return emit

    def _finish_metrics(self, metrics, stats: RunStats) -> None:
        metrics.counter("sim.runs").inc()
        metrics.counter(f"sim.stop.{stats.stop_reason}").inc()
        metrics.gauge("sim.mean_utilization").set(stats.mean_utilization())
        if stats.cycles:
            for name in stats.tokens_out:
                metrics.gauge(f"sim.tokens_per_cycle.{name}").set(
                    stats.throughput(name))
            for name in stats.firings:
                metrics.gauge(f"sim.firing_rate.{name}").set(
                    stats.utilization(name))

    def collect_stats(self, cycles: Optional[int] = None) -> RunStats:
        stats = RunStats(cycles=self.cycle if cycles is None else cycles)
        for obj in self.manager.active_objects():
            stats.firings[obj.name] = obj.fired
            stats.total_firings += obj.fired
            stats.energy += obj.fired * obj.ENERGY
        for entry in self.manager.loaded.values():
            for name, sink in entry.config.sinks.items():
                stats.tokens_out[name] = len(sink.received)
        return stats


class ExecResult:
    """Outputs and statistics of a one-shot configuration execution."""

    def __init__(self, outputs: dict, stats: RunStats, config: Configuration):
        self.outputs = outputs
        self.stats = stats
        self.config = config

    def __getitem__(self, sink_name: str) -> list:
        return self.outputs[sink_name]


def execute(config: Configuration, *, inputs: Optional[dict] = None,
            max_cycles: int = 100_000,
            manager: Optional[ConfigurationManager] = None,
            unload: bool = True, scheduler=None, faults=None) -> ExecResult:
    """Load a configuration, stream its inputs through, and collect sinks.

    ``inputs`` maps source names to sample sequences (sources may also be
    pre-filled at build time).  The run stops when every sink with an
    ``expect`` count is done, or when the array goes quiescent.

    ``faults`` optionally arms a :class:`repro.faults.FaultInjector`
    before the load, so configuration-load faults apply to this load
    and wire/RAM faults to this netlist.  The injector is detached
    again before returning.
    """
    mgr = manager if manager is not None else ConfigurationManager()
    if faults is not None:
        faults.arm_manager(mgr)
        faults.arm_config(config)
    mgr.load(config)
    if inputs:
        for name, data in inputs.items():
            config.sources[name].set_data(data)
    sim = Simulator(mgr, scheduler=scheduler)

    expected = [s for s in config.sinks.values() if s.expect is not None]
    if expected:
        stats = sim.run(max_cycles, until=SinksDone(expected))
    else:
        stats = sim.run(max_cycles)
    outputs = {name: list(sink.received) for name, sink in config.sinks.items()}
    if unload:
        mgr.remove(config)
    if faults is not None:
        faults.detach()
    return ExecResult(outputs, stats, config)
