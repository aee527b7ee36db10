"""Token-carrying wires with the XPP handshake protocol.

The XPP communication resources implement a token-oriented data flow with
handshake (data is never lost, producers stall when consumers are not
ready).  Each point-to-point connection is modelled as a small elastic
buffer: the hardware's forward/shadow register pair gives every link a
slack of two tokens, which is what lets a full pipeline sustain one result
per clock cycle.

Simulation is two-phase per cycle: objects *plan* firings against the
buffer state at the start of the cycle (``available`` / ``space``), then
all firings *commit* (pops before pushes).  Planning never mutates, so the
evaluation order of objects within a cycle cannot change the outcome.

Wires also serve as the event source of the event-driven scheduler
(:mod:`repro.xpp.scheduler`): every pop/push during the commit phase
records the wire — once per cycle — on a scheduler-installed event list,
so the next cycle only needs to re-plan the objects watching wires whose
state actually changed.  Without a scheduler attached the recording
costs a single predicate per transfer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.xpp.errors import ConfigurationError, SimulationError

#: Hardware slack of one link: forward register + shadow register.
DEFAULT_CAPACITY = 2


class Wire:
    """A point-to-point token buffer between one producer and one consumer."""

    __slots__ = ("name", "capacity", "_q", "_avail", "_space", "_pops",
                 "_pushes", "total_transfers", "_events", "_marked", "_tap",
                 "resets", "_manager")

    def __init__(self, name: str = "", capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigurationError(f"wire capacity must be >= 1: {name}")
        self.name = name
        self.capacity = capacity
        self._q: deque = deque()
        self._avail = 0          # tokens visible to consumers this cycle
        self._space = capacity   # space visible to producers this cycle
        self._pops = 0
        self._pushes: list = []
        self.total_transfers = 0
        self._events: Optional[list] = None  # scheduler-installed event list
        self._marked = False                 # already on the event list?
        self._tap = None                     # fault-injector transfer tap
        self.resets = 0                      # configuration reloads
        self._manager = None                 # weakref: see :meth:`settle`

    # -- start of cycle -----------------------------------------------------

    def begin_cycle(self) -> None:
        """Latch the buffer state that this cycle's plans will see."""
        self._avail = len(self._q)
        self._space = self.capacity - len(self._q)
        self._pops = 0
        self._pushes = []

    # -- plan phase (read-only) ----------------------------------------------

    @property
    def available(self) -> int:
        """Tokens a consumer may take this cycle."""
        return self._avail - self._pops

    @property
    def space(self) -> int:
        """Tokens a producer may add this cycle."""
        return self._space - len(self._pushes)

    def peek(self, depth: int = 0) -> Any:
        """Look at a token without consuming it (plan phase)."""
        if depth >= self.available:
            raise SimulationError(f"peek beyond available tokens on {self.name}")
        return self._q[self._pops + depth]

    # -- commit phase ----------------------------------------------------------

    def pop(self) -> Any:
        """Consume the front token (commit phase)."""
        if self._pops >= self._avail:
            raise SimulationError(f"pop without available token on {self.name}")
        self._pops += 1
        self.total_transfers += 1
        if not self._marked and self._events is not None:
            self._marked = True
            self._events.append(self)
        return self._q.popleft()

    def push(self, value: Any) -> None:
        """Append a token (commit phase); lands at end of cycle."""
        if self._tap is not None:
            self._push_tapped(value)
            return
        if len(self._pushes) >= self._space:
            raise SimulationError(f"push without space on {self.name}")
        self._pushes.append(value)
        if not self._marked and self._events is not None:
            self._marked = True
            self._events.append(self)

    def _push_tapped(self, value: Any) -> None:
        """Push through an installed fault tap.

        The tap maps one produced token to the tokens that actually
        land on the wire: ``()`` models a dropped handshake token,
        two values a duplicated one, and a single different value a
        corrupted one.  A duplicate beyond the latched space is
        silently lost (the physical wire has nowhere to hold it); the
        event list is only marked when a token really lands, so the
        event scheduler's wakeup bookkeeping stays exact.
        """
        values = self._tap(value)
        if len(self._pushes) + len(values) > self._space:
            if not values:
                return
            values = values[:max(self._space - len(self._pushes), 0)]
        if not values:
            return
        self._pushes.extend(values)
        if not self._marked and self._events is not None:
            self._marked = True
            self._events.append(self)

    def end_cycle(self) -> None:
        """Fold this cycle's pushes into the buffer."""
        self._q.extend(self._pushes)
        self._pushes = []

    def settle(self) -> None:
        """Settle the configuration manager that loaded this wire (or
        object), if any (:meth:`ConfigurationManager.settle`): whatever
        touches the state from outside the scheduler calls this first.
        ``load`` sets ``_manager``, a weak reference, and ``remove``
        keeps it, since a session opened before still holds the state."""
        ref = self._manager
        mgr = ref() if ref is not None else None
        if mgr is not None:
            mgr.settle()

    def reset(self) -> None:
        """Drop all buffered and in-flight tokens (configuration
        reload: the freed communication resources start empty)."""
        self.settle()
        self.resets += 1
        self._q.clear()
        self._pushes = []
        self._pops = 0
        self._avail = 0
        self._space = self.capacity

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._q)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wire({self.name!r}, {list(self._q)!r})"


class InPort:
    """An object's input: reads from exactly one wire."""

    __slots__ = ("owner", "index", "name", "wire")

    def __init__(self, owner, index: int, name: str = ""):
        self.owner = owner
        self.index = index
        self.name = name or f"in{index}"
        self.wire: Optional[Wire] = None

    def bind(self, wire: Wire) -> None:
        if self.wire is not None:
            raise ConfigurationError(
                f"{self.owner.name}.{self.name} already driven")
        self.wire = wire

    @property
    def bound(self) -> bool:
        return self.wire is not None

    @property
    def available(self) -> int:
        return self.wire.available if self.wire is not None else 0

    def peek(self, depth: int = 0) -> Any:
        return self.wire.peek(depth)

    def pop(self) -> Any:
        return self.wire.pop()


class OutPort:
    """An object's output: fans out to zero or more wires."""

    __slots__ = ("owner", "index", "name", "wires")

    def __init__(self, owner, index: int, name: str = ""):
        self.owner = owner
        self.index = index
        self.name = name or f"out{index}"
        self.wires: list[Wire] = []

    def bind(self, wire: Wire) -> None:
        self.wires.append(wire)

    @property
    def bound(self) -> bool:
        return bool(self.wires)

    @property
    def space(self) -> int:
        """Free slots across the fan-out (min over destinations).

        An unconnected output is an infinite sink: tokens written to it
        are simply dropped, like an unrouted PAE output.
        """
        if not self.wires:
            return 1 << 30
        return min(w.space for w in self.wires)

    def push(self, value: Any) -> None:
        for w in self.wires:
            w.push(value)
