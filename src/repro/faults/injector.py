"""The fault injector: arms fault models onto a live simulation.

The injector owns three injection surfaces, all pre-existing hooks of
the simulation core (no per-cycle callbacks, so an armed-but-empty
injector costs nothing in the stepping loop):

* **wire taps** (``Wire._tap``) — every push on a tapped wire flows
  through :class:`_WireTap`, which counts pushes and applies the
  wire-level models scheduled at that push index (corrupt / drop /
  duplicate).  An identity tap is byte-exact with an untapped wire,
  which the differential suite proves on every kernel;
* **commit wrappers** — RAM bit flips wrap the target RAM-PAE's
  ``commit`` and fire after its Nth firing (firing counts are
  scheduler-invariant, so the flip lands at the same point under the
  naive and event schedulers);
* **manager / DSP hooks** — ``ConfigurationManager.load_hook`` and
  ``DspProcessor.fault_hook`` deliver config-load and deadline faults.

Every injection that actually triggers is logged as a
:class:`FaultEvent` and raised as an :data:`~repro.telemetry.ALERT_FAULT`
watchdog alert (when a probe board is installed).  ``detach()`` removes
every hook it installed.

Determinism: an injector built from an explicit fault list, or from
:meth:`FaultInjector.plan` with a seeded generator, injects at protocol
event counts only — runs replay bit-exactly across schedulers, worker
counts and checkpoint/resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.faults.models import (
    ConfigLoadFault,
    DeadlineFault,
    RamBitFlip,
    StuckAtFault,
    TokenDrop,
    TokenDuplicate,
    TransientBitError,
    WIRE_FAULTS,
)
from repro.telemetry import ALERT_FAULT, get_probes
from repro.xpp.errors import ConfigLoadError, ConfigurationError


@dataclass(frozen=True)
class FaultEvent:
    """One injection that actually happened."""

    kind: str       # fault kind string
    site: str       # wire / object / config / task name
    index: int      # push / fire / load / invoke count at the site
    detail: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "site": self.site,
                "index": self.index, "detail": self.detail}


class _WireTap:
    """Counts pushes on one wire and applies its scheduled faults."""

    __slots__ = ("injector", "wire_name", "pushes", "stuck",
                 "transients", "drops", "dups")

    def __init__(self, injector: "FaultInjector", wire_name: str):
        self.injector = injector
        self.wire_name = wire_name
        self.pushes = 0
        self.stuck: list = []       # persistent StuckAtFault models
        self.transients: dict = {}  # push index -> [TransientBitError]
        self.drops: set = set()
        self.dups: set = set()

    def add(self, fault) -> None:
        if isinstance(fault, StuckAtFault):
            self.stuck.append(fault)
        elif isinstance(fault, TransientBitError):
            self.transients.setdefault(fault.push_index, []).append(fault)
        elif isinstance(fault, TokenDrop):
            self.drops.add(fault.push_index)
        elif isinstance(fault, TokenDuplicate):
            self.dups.add(fault.push_index)
        else:                                       # pragma: no cover
            raise TypeError(f"not a wire fault: {fault!r}")

    def __call__(self, value: Any) -> tuple:
        i = self.pushes
        self.pushes = i + 1
        if i in self.drops:
            self.injector._log(TokenDrop.kind, self.wire_name, i,
                               f"dropped token {value!r}")
            return ()
        if isinstance(value, int):
            original = value
            for f in self.stuck:
                if i >= f.start_push:
                    value = f.apply(value)
            for f in self.transients.get(i, ()):
                value = f.apply(value)
            if value != original:
                self.injector._log("corrupt", self.wire_name, i,
                                   f"{original} -> {value}")
        if i in self.dups:
            self.injector._log(TokenDuplicate.kind, self.wire_name, i,
                               f"duplicated token {value!r}")
            return (value, value)
        return (value,)


class FaultInjector:
    """Arms a set of fault models onto manager, configurations and DSP.

    ``always_tap=True`` installs (identity) taps on *every* wire of
    every armed configuration even when no wire fault targets it — the
    differential suite uses this to prove the tap path itself is a
    byte-exact no-op.
    """

    def __init__(self, faults=(), *, always_tap: bool = False):
        self.faults = list(faults)
        self.always_tap = always_tap
        self.events: list[FaultEvent] = []
        self._taps: dict = {}           # Wire -> _WireTap
        self._by_wire: dict = {}        # wire name -> [wire faults]
        self._ram_flips: dict = {}      # object name -> [RamBitFlip]
        self._load_faults: list = []    # [ConfigLoadFault, remaining]
        self._deadline: dict = {}       # task name -> [DeadlineFault]
        self._invocations: dict = {}    # task name -> count
        self._wrapped: list = []        # objects with wrapped commit
        self._manager = None
        self._dsp = None
        for f in self.faults:
            if isinstance(f, WIRE_FAULTS):
                self._by_wire.setdefault(f.wire, []).append(f)
            elif isinstance(f, RamBitFlip):
                self._ram_flips.setdefault(f.object, []).append(f)
            elif isinstance(f, ConfigLoadFault):
                self._load_faults.append([f, f.count])
            elif isinstance(f, DeadlineFault):
                self._deadline.setdefault(f.task, []).append(f)
            else:
                raise TypeError(f"not a fault model: {f!r}")

    # -- arming ----------------------------------------------------------------

    def attach(self, sim) -> "FaultInjector":
        """Arm everything reachable from a simulator: its manager and
        every resident configuration.  Returns self."""
        self.arm_manager(sim.manager)
        for entry in sim.manager.loaded.values():
            self.arm_config(entry.config)
        return self

    def arm_manager(self, manager) -> None:
        """Install the config-load hook (idempotent)."""
        self._manager = manager
        manager.load_hook = self._on_load

    def arm_config(self, config) -> None:
        """Install wire taps and RAM commit wrappers on one
        configuration's netlist.  Wire faults naming wires absent from
        this configuration stay dormant until their owner is armed."""
        for w in config.wires:
            faults = self._by_wire.get(w.name)
            if faults is None and not self.always_tap:
                continue
            tap = self._taps.get(w)
            if tap is None:
                tap = _WireTap(self, w.name)
                self._taps[w] = tap
                w.settle()      # an open fastpath session ignores taps
                w._tap = tap
            for f in faults or ():
                tap.add(f)
        for obj in config.objects:
            flips = self._ram_flips.get(obj.name)
            if flips:
                self._wrap_commit(obj, flips)

    def arm_dsp(self, dsp) -> None:
        """Install the deadline fault hook on a DSP processor."""
        self._dsp = dsp
        dsp.fault_hook = self._on_invoke

    def detach(self) -> None:
        """Remove every hook this injector installed.  Like arming, an
        outside access: it settles what it disarms, so a fastpath
        scheduler held on the event fallback by a tap reopens a session."""
        for wire in self._taps:
            wire.settle()
            wire._tap = None
        self._taps.clear()
        for obj in self._wrapped:
            obj.settle()
            obj.__dict__.pop("commit", None)
        self._wrapped = []
        # == not `is`: bound methods are re-created per attribute access
        if self._manager is not None and \
                self._manager.load_hook == self._on_load:
            self._manager.load_hook = None
        if self._dsp is not None and \
                self._dsp.fault_hook == self._on_invoke:
            self._dsp.fault_hook = None

    # -- hooks -----------------------------------------------------------------

    def _wrap_commit(self, obj, flips) -> None:
        if not hasattr(obj, "flip_bit"):
            raise TypeError(f"{obj.name}: RAM bit flips need a RAM/FIFO "
                            f"PAE, not {type(obj).__name__}")
        pending = sorted(flips, key=lambda f: f.fire_index)
        orig_commit = obj.commit

        def commit():
            orig_commit()
            while pending and obj.fired > pending[0].fire_index:
                f = pending.pop(0)
                try:
                    new = obj.flip_bit(f.word, f.bit)
                except ConfigurationError as exc:
                    # e.g. a flip scheduled onto a FIFO that has drained
                    # by then: soft errors in unoccupied storage are
                    # unobservable, so log and move on
                    self._log(f.kind, obj.name, f.fire_index,
                              f"no-op: {exc}")
                    continue
                self._log(f.kind, obj.name, f.fire_index,
                          f"word {f.word} bit {f.bit} -> {new}")

        obj.settle()
        obj.commit = commit
        self._wrapped.append(obj)

    def _on_load(self, config) -> int:
        extra = 0
        for state in self._load_faults:
            fault, remaining = state
            if remaining <= 0 or not fault.matches(config.name):
                continue
            state[1] = remaining - 1
            self._log(fault.kind, config.name, fault.count - remaining + 1,
                      f"mode={fault.mode}")
            if fault.mode == "fail":
                raise ConfigLoadError(
                    f"injected configuration-bus failure loading "
                    f"{config.name!r}")
            extra += fault.extra_cycles
        return extra

    def _on_invoke(self, task) -> Optional[float]:
        n = self._invocations.get(task.name, 0)
        self._invocations[task.name] = n + 1
        factor = None
        for f in self._deadline.get(task.name, ()):
            if f.invoke_index == n:
                factor = max(factor or 1.0, f.factor)
                self._log(f.kind, task.name, n, f"factor={f.factor:g}")
        return factor

    # -- logging ---------------------------------------------------------------

    def _log(self, kind: str, site: str, index: int, detail: str) -> None:
        self.events.append(FaultEvent(kind=kind, site=site, index=index,
                                      detail=detail))
        probes = get_probes()
        if probes.enabled:
            probes.alert(ALERT_FAULT, f"{kind}:{site}", value=index,
                         message=detail)

    def summary(self) -> dict:
        """Counts of triggered injections by kind."""
        out: dict = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


def plan_faults(config, rng, *, rates: dict, horizon: int = 256) -> list:
    """Draw a random fault schedule for one configuration.

    ``rates`` maps a fault kind (a key of
    :data:`repro.faults.models.FAULT_KINDS`, minus ``deadline`` which
    has no site in a netlist) to the *expected number* of injections of
    that kind; actual counts are Poisson draws from ``rng`` (a
    :class:`numpy.random.Generator`).  Event indices are uniform in
    ``[0, horizon)`` pushes/firings.  The schedule depends only on the
    generator state, never on wall time, so a shard-derived ``rng``
    yields the same chaos everywhere.  An all-zero ``rates`` consumes
    no draws and returns an empty schedule.
    """
    from repro.xpp.ram import FifoPae, RamPae

    faults: list = []
    wires = config.wires
    rams = [o for o in config.objects if isinstance(o, (RamPae, FifoPae))]

    def count(kind: str) -> int:
        r = float(rates.get(kind, 0.0))
        if r < 0:
            raise ValueError(f"negative fault rate for {kind!r}")
        return int(rng.poisson(r)) if r > 0 else 0

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    for _ in range(count(StuckAtFault.kind)):
        if not wires:
            break
        faults.append(StuckAtFault(
            wire=pick(wires).name, bit=int(rng.integers(24)),
            value=int(rng.integers(2)),
            start_push=int(rng.integers(horizon))))
    for _ in range(count(TransientBitError.kind)):
        if not wires:
            break
        faults.append(TransientBitError(
            wire=pick(wires).name, push_index=int(rng.integers(horizon)),
            bit=int(rng.integers(24))))
    for _ in range(count(TokenDrop.kind)):
        if not wires:
            break
        faults.append(TokenDrop(wire=pick(wires).name,
                                push_index=int(rng.integers(horizon))))
    for _ in range(count(TokenDuplicate.kind)):
        if not wires:
            break
        faults.append(TokenDuplicate(wire=pick(wires).name,
                                     push_index=int(rng.integers(horizon))))
    for _ in range(count(RamBitFlip.kind)):
        if not rams:
            break
        ram = pick(rams)
        words = getattr(ram, "words", None) or getattr(ram, "depth", 1)
        faults.append(RamBitFlip(
            object=ram.name, fire_index=int(rng.integers(horizon)),
            word=int(rng.integers(words)), bit=int(rng.integers(24))))
    n_fail = count(ConfigLoadFault.kind)
    if n_fail:
        faults.append(ConfigLoadFault(config=config.name, mode="fail",
                                      count=n_fail))
    return faults
