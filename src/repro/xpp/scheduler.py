"""Array schedulers: who gets planned each cycle.

The two-phase protocol (plan against latched wire state, then commit)
makes object evaluation order irrelevant — which leaves the scheduler
free to decide *which* objects are worth planning at all.  Two
implementations share one interface:

* :class:`NaiveScheduler` — the reference semantics: every cycle, latch
  every active wire, plan every active object, commit the firings.  This
  is the seed behaviour and the ground truth the event scheduler is
  differentially tested against.

* :class:`EventScheduler` — exploits the XPP token/handshake invariant
  that an *idle* PAE can only become ready when a port event arrives.
  Wires record pop/push events during the commit phase (see
  :mod:`repro.xpp.port`); the next cycle re-latches only the wires that
  changed and plans only a ready list: the objects that just fired
  (they may fire again off buffered tokens with no new event) plus
  directional wakeups — a pop frees space and readies the wire's
  producer, a push adds a token and readies its consumer.  Objects
  using the default firing rule additionally get an inlined plan — a
  handful of attribute loads instead of a method call through two
  property layers — and :meth:`EventScheduler.step_n` runs whole
  batches through one loop with all state loads hoisted.

The configuration manager decides when a scheduler's cached view of
the array is stale.  Every step first claims the array
(:meth:`~repro.xpp.manager.ConfigurationManager.claim`); the claim
holds only while the same scheduler keeps stepping and nothing touched
the array in between.  A ``load``/``remove`` breaks it, and so does
every outside access (``set_data``, ``reset``, ``reload``,
``flip_bit``, ``diagnose``: each settles the manager first), also from
an ``until`` hook in the middle of a run.  On a failed claim the event
scheduler plans everything once, so mid-run reconfiguration and outside
touches stay bit-exact.

Equivalence guarantee: for any sequence of runs and reconfigurations,
the event scheduler fires exactly the same objects in exactly the same
cycles as the naive scheduler.  ``tests/test_scheduler_equivalence.py``
checks this cycle-for-cycle on every example kernel configuration.
"""

from __future__ import annotations

import os

from repro.telemetry.metrics import get_metrics
from repro.xpp.errors import ConfigurationError
from repro.xpp.objects import DataflowObject

#: Environment variable overriding the default scheduler choice
#: (``naive`` or ``event``) for simulators built without an explicit one.
SCHEDULER_ENV = "REPRO_XPP_SCHEDULER"


class NaiveScheduler:
    """Reference scheduler: plan every active object, every cycle.

    Reproduces the original simulator's evaluation loop verbatim — both
    its semantics and its cost model (the active object/wire lists are
    reassembled from the resident configurations each cycle, exactly as
    ``Simulator.step`` used to).  This is what the event scheduler's
    speedup is measured against.
    """

    name = "naive"

    def __init__(self):
        self.manager = None

    def bind(self, manager) -> None:
        """Attach to a configuration manager (called by the simulator)."""
        self.manager = manager

    def step(self) -> int:
        """Advance one cycle; returns the number of firings."""
        mgr = self.manager
        if not mgr.claim(self):
            # detach the event lists another scheduler left installed,
            # so wires stop recording for a listener that is not stepping
            for w in mgr.active_wires():
                w._events = None
                w._marked = False
        objects = []
        wires = []
        for entry in mgr.loaded.values():
            objects.extend(entry.config.objects)
            wires.extend(entry.config.wires)
        for w in wires:
            w.begin_cycle()
        fired = [o for o in objects if o.plan()]
        for o in fired:
            o.commit()
        for w in wires:
            w.end_cycle()
        return len(fired)

    def step_n(self, n: int) -> int:
        """Advance ``n`` cycles; returns the total number of firings."""
        step = self.step
        return sum(step() for _ in range(n))


class EventScheduler:
    """Ready-list scheduler driven by wire pop/push events.

    Per cycle it touches only: the wires that changed last cycle
    (``begin_cycle``), the objects watching them (plan), the firings
    (commit), and the wires those firings changed (``end_cycle``).
    Everything else on the array is left untouched — its latched wire
    views are still valid precisely because nothing changed them.
    """

    name = "event"

    def __init__(self):
        self.manager = None
        self._version = None
        self._full = True           # next step plans everything
        self._objects = ()
        self._wires = ()
        self._watchers = {}         # wire -> (producers, consumers)
        self._events = []           # shared event list installed in wires
        self._pending_begin = ()    # wires to re-latch next cycle
        self._ready = frozenset()

    def bind(self, manager) -> None:
        """Attach to a configuration manager (called by the simulator)."""
        self.manager = manager
        self._version = None

    # -- structure -----------------------------------------------------------

    def _rebuild(self) -> None:
        """Recompute the cached structure from the manager's active sets."""
        get_metrics().counter("scheduler.rebuilds").inc()
        mgr = self.manager
        objects = mgr.active_objects()
        wires = mgr.active_wires()
        self._objects = objects
        self._wires = wires

        # directional wakeups: a pop frees space, so it readies the
        # wire's *producer*; a push adds a token, readying its
        # *consumer*.  The endpoint that performed the transfer fired
        # this cycle and stays ready through the fired list.
        producers = {w: [] for w in wires}
        consumers = {w: [] for w in wires}
        default_plan = DataflowObject.plan
        default_work = DataflowObject._has_work
        for o in objects:
            in_wires = o.input_wires()
            out_wires = o.output_wires()
            for w in in_wires:
                if w in consumers:
                    consumers[w].append(o)
            for w in out_wires:
                if w in producers:
                    producers[w].append(o)
            cls = type(o)
            if cls.plan is default_plan:
                work = None if cls._has_work is default_work else o._has_work
                o._sched_fast = (tuple(in_wires), tuple(out_wires), work)
            else:
                o._sched_fast = None
        self._watchers = {
            w: (tuple(dict.fromkeys(producers[w])),
                tuple(dict.fromkeys(consumers[w])))
            for w in wires}

        self._version = mgr.version

    # -- stepping ------------------------------------------------------------

    def step(self) -> int:
        """Advance one cycle; returns the number of firings."""
        return self.step_n(1)

    def step_n(self, n: int) -> int:
        """Advance ``n`` cycles as one batch; returns the total firings.

        Semantically identical to ``n`` calls of :meth:`step`.  Nothing
        outside the scheduler can run between batched cycles, so the
        claim happens once at entry and all scheduler state lives in
        locals across the whole batch.  A failed claim plans every
        object in the first cycle (re-installing the event list), after
        rebuilding the structure if the manager's version moved.
        """
        mgr = self.manager
        if not mgr.claim(self):
            self._full = True
            if mgr.version != self._version:
                self._rebuild()

        events = self._events
        watchers = self._watchers
        all_objects = self._objects
        full = self._full
        ready = self._ready
        pending = self._pending_begin
        total = 0
        for _ in range(n):
            if full:
                for w in self._wires:
                    w.begin_cycle()
                    w._events = events
                    w._marked = False
                del events[:]           # drop events from aborted cycles
                candidates = all_objects
                full = False
            else:
                for w in pending:
                    # inlined Wire.begin_cycle (the hot loop)
                    qn = len(w._q)
                    w._avail = qn
                    w._space = w.capacity - qn
                    w._pops = 0
                    w._pushes = []
                # the ready set, not the full object list: plan order
                # varies with set iteration, but the two-phase protocol
                # makes plan and commit order unobservable, so results
                # are unaffected
                candidates = ready

            # plan phase: no commits have happened this cycle, so every
            # wire's plan view is exactly its latched _avail/_space
            fired = []
            append = fired.append
            for o in candidates:
                fast = o._sched_fast
                if fast is None:
                    if o.plan():
                        append(o)
                    continue
                inw, outw, work = fast
                for w in inw:
                    if w._avail < 1:
                        break
                else:
                    for w in outw:
                        if w._space < 1:
                            break
                    else:
                        if work is None or work():
                            append(o)

            for o in fired:
                o.commit()
            total += len(fired)

            # harvest this cycle's wire events into the next ready list.
            # Firing objects stay ready (they may fire again off
            # buffered tokens with no new event on their wires); idle
            # objects stay idle — their wires and internal state are
            # untouched, so their plan outcome cannot have changed (the
            # scheduling contract).
            ready = set(fired)
            if events:
                for w in events:
                    pushes = w._pushes
                    if w._pops:
                        ready.update(watchers[w][0])    # space freed
                    if pushes:
                        ready.update(watchers[w][1])    # tokens arriving
                        w._q.extend(pushes)             # inlined end_cycle
                        w._pushes = []
                    w._marked = False
                pending = events[:]
                del events[:]
            else:
                pending = ()
        self._full = full
        self._ready = ready
        self._pending_begin = pending
        return total


def _make_fastpath():
    # imported lazily: repro.fastpath.runtime imports EventScheduler
    # from this module, so a top-level import would be circular
    from repro.fastpath.runtime import FastpathScheduler
    return FastpathScheduler()


_SCHEDULERS = {
    "naive": NaiveScheduler,
    "event": EventScheduler,
    "fastpath": _make_fastpath,
}


def make_scheduler(spec=None):
    """Resolve a scheduler: an instance, a name, a class, or None.

    Names are case-insensitive (``"naive"``, ``"event"``,
    ``"fastpath"``).  ``None`` picks the default — ``event`` unless the
    ``REPRO_XPP_SCHEDULER`` environment variable says otherwise.
    """
    if spec is None:
        spec = os.environ.get(SCHEDULER_ENV, "event")
    if isinstance(spec, str):
        try:
            return _SCHEDULERS[spec.strip().lower()]()
        except KeyError:
            raise ConfigurationError(
                f"unknown scheduler {spec!r}; expected one of "
                f"{sorted(_SCHEDULERS)}") from None
    if isinstance(spec, type):
        return spec()
    if hasattr(spec, "step") and hasattr(spec, "bind"):
        return spec
    raise ConfigurationError(f"not a scheduler: {spec!r}")
