"""Stall diagnosis: why is a configuration not making progress?

When a dataflow graph deadlocks or starves, the symptom is silence.
:func:`diagnose` inspects every loaded object's firing rule against the
current wire state and reports, per idle object, exactly which input is
empty or which output is full — turning a hung simulation into a
readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xpp.io import StreamSink, StreamSource
from repro.xpp.manager import ConfigurationManager


@dataclass
class StallInfo:
    """Why one object cannot fire."""

    name: str
    opcode: str
    empty_inputs: list = field(default_factory=list)
    full_outputs: list = field(default_factory=list)
    note: str = ""

    def __str__(self) -> str:
        parts = []
        if self.empty_inputs:
            parts.append("waiting for " + ", ".join(self.empty_inputs))
        if self.full_outputs:
            parts.append("blocked on " + ", ".join(self.full_outputs))
        if self.note:
            parts.append(self.note)
        reason = "; ".join(parts) if parts else "custom firing rule unmet"
        return f"{self.name} ({self.opcode}): {reason}"


def diagnose(manager: ConfigurationManager) -> list:
    """Report every currently-idle object and the reason.

    Call between simulator steps (the wires must be inside a cycle for
    availability to be meaningful, so this latches a fresh view first).
    The manager settles first, so every scheduler reports the same.
    Objects that *can* fire are omitted.
    """
    manager.settle()
    objs = manager.active_objects()
    wires = manager.active_wires()
    for w in wires:
        w.begin_cycle()
    stalls = []
    for obj in objs:
        if obj.plan():
            continue
        info = StallInfo(name=obj.name,
                         opcode=getattr(obj, "OPCODE", type(obj).__name__))
        for p in obj.inputs:
            if p.bound and p.available < 1:
                info.empty_inputs.append(p.name)
        for p in obj.outputs:
            if p.bound and p.space < 1:
                info.full_outputs.append(p.name)
        if isinstance(obj, StreamSource) and obj.exhausted:
            info.note = "input stream exhausted"
        if isinstance(obj, StreamSink):
            info.note = f"received {len(obj.received)}" + (
                f" of {obj.expect}" if obj.expect is not None else "")
        stalls.append(info)
    return stalls


def deadlock_report(manager: ConfigurationManager) -> str:
    """Human-readable stall summary for all loaded configurations."""
    stalls = diagnose(manager)
    if not stalls:
        return "no stalled objects"
    lines = [f"{len(stalls)} stalled object(s):"]
    lines.extend(f"  {s}" for s in stalls)
    return "\n".join(lines)
