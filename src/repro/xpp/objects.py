"""Base class for array objects (PAEs, I/O ports).

Every object participates in the two-phase cycle protocol:

* ``plan()`` inspects input availability / output space (via the ports'
  read-only views) and returns ``True`` if the object will fire.  It must
  not mutate anything outside the object's scratch plan state.
* ``commit()`` performs the planned transfer: pops inputs, computes,
  pushes outputs, updates internal state.

The default ``plan`` implements the standard XPP firing rule: one token on
every connected input and space on every connected output.

Scheduling contract (relied on by :mod:`repro.xpp.scheduler`): the
outcome of ``plan()`` depends only on the state of the wires bound to the
object's ports plus the object's internal state, and internal state is
only mutated inside ``commit()`` (or ``on_load()``).  An object whose
``plan()`` returned False therefore cannot become ready until one of its
wires records a pop/push event — the invariant the event-driven scheduler
exploits to skip re-planning idle objects.  Subclasses that override
``plan``/``commit`` must preserve this contract.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.xpp.port import InPort, OutPort, Wire


class DataflowObject:
    """An array object living at some resource slot during a configuration."""

    #: resource kind this object occupies: 'alu', 'ram', 'io' or None
    #: (None = zero-cost pseudo object, e.g. a probe).
    KIND: Optional[str] = "alu"

    #: relative energy per firing, used by the power proxy in stats.
    ENERGY: float = 1.0

    #: scheduler scratch: an :class:`~repro.xpp.scheduler.EventScheduler`
    #: stores ``(input_wires, output_wires, has_work)`` here for objects
    #: that use the default firing rule (so planning is a few attribute
    #: loads; ``has_work`` is the bound ``_has_work`` override, or None
    #: when inherited) and ``None`` for objects with a custom ``plan``.
    _sched_fast = None

    _manager = None     # weak reference: see :meth:`settle`

    def __init__(self, name: str, n_in: int, n_out: int,
                 in_names: Optional[list] = None,
                 out_names: Optional[list] = None):
        self.name = name
        self.inputs = [InPort(self, i, in_names[i] if in_names else "")
                       for i in range(n_in)]
        self.outputs = [OutPort(self, i, out_names[i] if out_names else "")
                        for i in range(n_out)]
        self.fired = 0          # lifetime firing count
        self.resets = 0         # configuration reloads (reset calls)
        self.position = None    # (row, col) once placed on the array

    # -- port lookup -----------------------------------------------------------

    def in_port(self, key) -> InPort:
        """Input port by index or name."""
        if isinstance(key, int):
            return self.inputs[key]
        for p in self.inputs:
            if p.name == key:
                return p
        raise KeyError(f"{self.name}: no input port {key!r}")

    def out_port(self, key) -> OutPort:
        """Output port by index or name."""
        if isinstance(key, int):
            return self.outputs[key]
        for p in self.outputs:
            if p.name == key:
                return p
        raise KeyError(f"{self.name}: no output port {key!r}")

    def input_wires(self) -> list:
        """Wires driving this object's bound input ports."""
        return [p.wire for p in self.inputs if p.wire is not None]

    def output_wires(self) -> list:
        """Wires fed by this object's output ports (fan-out flattened)."""
        return [w for p in self.outputs for w in p.wires]

    # -- firing protocol -------------------------------------------------------

    def plan(self) -> bool:
        """Default rule: every connected input has a token and every
        connected output has space."""
        for p in self.inputs:
            if p.bound and p.available < 1:
                return False
        for p in self.outputs:
            if p.bound and p.space < 1:
                return False
        return self._has_work()

    def _has_work(self) -> bool:
        """Hook for generators/sinks to veto firing (e.g. data exhausted)."""
        return True

    def commit(self) -> None:
        """Perform the planned transfer.  Called only if plan() was True."""
        args = [p.wire.pop() if p.wire is not None else None
                for p in self.inputs]
        results = self.compute(args)
        if results is not None:
            for port, value in zip(self.outputs, results):
                if value is not None:
                    port.push(value)
        self.fired += 1

    def compute(self, args: list) -> Optional[list]:
        """Map consumed input tokens to output tokens (simple objects).

        Objects with irregular consumption override plan/commit instead.
        """
        raise NotImplementedError

    def on_load(self) -> None:
        """Hook invoked when the owning configuration is loaded."""

    settle = Wire.settle

    def reset(self) -> None:
        """Restore the object's configured initial state.

        A configuration reload (remap after a fault, Fig. 10 style
        swap-back) streams the original configuration words through the
        configuration tree again, so PAE registers return to their
        build-time values.  Stateful subclasses override this to restore
        their internal registers; the base resets the firing counter
        and counts the reset.
        """
        self.settle()
        self.fired = 0
        self.resets += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Probe(DataflowObject):
    """Zero-cost pass-through that records every token it sees.

    Not a hardware object: a simulator affordance for inspecting interior
    wires of a configuration without changing its timing (it adds one
    pipeline register, like routing through an extra segment).
    """

    KIND = None
    ENERGY = 0.0

    def __init__(self, name: str):
        super().__init__(name, 1, 1)
        self.seen: list[Any] = []

    def compute(self, args: list) -> list:
        self.seen.append(args[0])
        return [args[0]]

    def reset(self) -> None:
        super().reset()
        self.seen = []
