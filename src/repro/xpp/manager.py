"""The configuration manager.

Responsible for resource handling on the array: loading configurations
(claiming PAE slots, routing their wires, accounting configuration time),
removing them at run time, and enforcing the hardware protocol that a
loaded configuration can never be overwritten by another one.

This is the mechanism behind the paper's Fig. 10: configuration 1 stays
resident, configuration 2a (preamble detection) is removed after
acquisition and configuration 2b (demodulation) is loaded into the freed
resources.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry import get_metrics, get_tracer
from repro.xpp.array import XppArray
from repro.xpp.config import Configuration
from repro.xpp.errors import ResourceError
from repro.xpp.router import Router

#: Cycles of configuration-bus traffic per object configured.  The XPP
#: streams configuration words through a hierarchical configuration tree;
#: a handful of cycles per PAE is the right order of magnitude.
CONFIG_CYCLES_PER_OBJECT = 4


@dataclass
class LoadedConfig:
    """Book-keeping for one resident configuration."""

    config: Configuration
    slots: list = field(default_factory=list)
    load_cycles: int = 0
    route_segments: int = 0


class ConfigurationManager:
    """Allocates array resources to configurations at run time."""

    def __init__(self, array: Optional[XppArray] = None, *,
                 router: Optional[Router] = None,
                 config_cycles_per_object: int = CONFIG_CYCLES_PER_OBJECT):
        self.array = array if array is not None else XppArray()
        self.router = router if router is not None else Router()
        self.config_cycles_per_object = config_cycles_per_object
        self.loaded: dict[str, LoadedConfig] = {}
        self.total_reconfig_cycles = 0
        self.pending: list[Configuration] = []
        #: fault-injection surface: called as ``load_hook(config)`` at the
        #: start of every :meth:`load`.  It may raise
        #: :class:`~repro.xpp.errors.ConfigLoadError` (the configuration
        #: bus dropped the load) or return extra configuration cycles (a
        #: slow load, e.g. bus contention).  ``None`` disables it.
        self.load_hook = None
        #: bumped on every load/remove; schedulers watch this to know when
        #: the cached active sets below (and their own maps) went stale
        self.version = 0
        self._objects_cache: Optional[tuple] = None
        self._wires_cache: Optional[tuple] = None
        #: the one open fastpath session holding the resident objects'
        #: state (:meth:`settle`); owned here, so that it outlives the
        #: simulator that opened it
        self._session = None
        #: weak reference to the scheduler whose cached view of the
        #: array is current (:meth:`claim`), or None after a touch
        self._stepper = None

    # -- load / remove ------------------------------------------------------------

    def load(self, config: Configuration) -> LoadedConfig:
        """Place a configuration onto free array resources.

        Raises :class:`ResourceError` if the array cannot satisfy the
        request — resources owned by loaded configurations are protected
        and never reassigned.
        """
        if config.name in self.loaded:
            raise ResourceError(f"configuration {config.name!r} already loaded")
        extra_cycles = 0
        if self.load_hook is not None:
            # May raise ConfigLoadError before any state changes, so a
            # failed load leaves the manager exactly as it was.
            extra_cycles = int(self.load_hook(config) or 0)
        need = config.requirements()
        for kind, count in need.items():
            if self.array.free_count(kind) < count:
                raise ResourceError(
                    f"{config.name!r} needs {count} {kind} slots but only "
                    f"{self.array.free_count(kind)} are free")

        entry = LoadedConfig(config=config)
        hints = getattr(config, "placement", None)
        try:
            for obj in config.objects:
                if obj.KIND is None:
                    continue
                slot = None
                if hints is not None:
                    # Placement hints (pnr-compiled configs) are
                    # best-effort: when another resident configuration
                    # owns the hinted slot, fall back to first-fit so a
                    # hinted load never fails where an unhinted one
                    # would have succeeded.
                    pos = hints.position(obj.name)
                    if pos is not None:
                        slot = self.array.claim_at(obj.KIND, pos[0], pos[1],
                                                   config.name)
                if slot is None:
                    slot = self.array.claim(obj.KIND, config.name)
                obj.position = (slot.row, slot.col)
                entry.slots.append(slot)
        except ResourceError:
            self._rollback(entry, config.name)
            raise

        positions = {o.name: o.position for o in config.objects}
        for wire in config.wires:
            src_name, dst_name = _wire_endpoints(wire.name)
            entry.route_segments += self.router.route(
                wire.name, positions.get(src_name), positions.get(dst_name))

        entry.load_cycles = (self.config_cycles_per_object * len(entry.slots)
                             + extra_cycles)
        self.total_reconfig_cycles += entry.load_cycles
        self.loaded[config.name] = entry
        self._invalidate_active()
        ref = weakref.ref(self)
        for x in (*config.objects, *config.wires):
            if x._manager is not None and x._manager() is not self:
                x.settle()      # another manager's session may hold it
            x._manager = ref
        for obj in config.objects:
            obj.on_load()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(f"config.load:{config.name}",
                            ts=tracer.now(), dur=entry.load_cycles,
                            cat="config",
                            args={"config": config.name,
                                  "slots": len(entry.slots),
                                  "route_segments": entry.route_segments,
                                  "load_cycles": entry.load_cycles})
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("config.loads").inc()
            metrics.histogram("config.load_cycles").observe(entry.load_cycles)
            metrics.gauge("config.resident").set(len(self.loaded))
        return entry

    def request(self, config: Configuration) -> Optional[LoadedConfig]:
        """Load now if resources allow, otherwise queue the request.

        The configuration manager's request queue: deferred
        configurations load automatically (FIFO order) as removals free
        resources.  A new request never overtakes queued ones.  Returns
        the entry if loaded immediately, else None.
        """
        if config.name in self.loaded or \
                any(c.name == config.name for c in self.pending):
            raise ResourceError(
                f"configuration {config.name!r} already loaded or queued")
        tracer = get_tracer()
        if not self.pending:
            try:
                entry = self.load(config)
            except ResourceError:
                pass
            else:
                if tracer.enabled:
                    tracer.instant(f"config.request:{config.name}", "config",
                                   args={"config": config.name,
                                         "outcome": "loaded"})
                return entry
        if tracer.enabled:
            tracer.instant(f"config.request:{config.name}", "config",
                           args={"config": config.name, "outcome": "queued",
                                 "queue_depth": len(self.pending) + 1})
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("config.deferred_requests").inc()
        self.pending.append(config)
        return None

    def _drain_pending(self) -> list:
        """Load queued requests that now fit (in order, head first)."""
        loaded = []
        progress = True
        while progress and self.pending:
            progress = False
            for config in list(self.pending):
                try:
                    entry = self.load(config)
                except ResourceError:
                    break       # FIFO: don't let later requests overtake
                self.pending.remove(config)
                loaded.append(entry)
                progress = True
        return loaded

    def remove(self, config) -> int:
        """Remove a configuration, freeing its resources.

        Returns the cycles charged for the removal (release is cheap:
        one cycle per slot).  Queued requests that now fit are loaded.
        """
        name = config if isinstance(config, str) else config.name
        entry = self.loaded.pop(name, None)
        if entry is None:
            raise ResourceError(f"configuration {name!r} is not loaded")
        cycles = len(entry.slots)
        self._rollback(entry, name)
        self._invalidate_active()
        self.total_reconfig_cycles += cycles
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(f"config.remove:{name}", ts=tracer.now(),
                            dur=cycles, cat="config",
                            args={"config": name, "remove_cycles": cycles})
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("config.removes").inc()
            metrics.histogram("config.remove_cycles").observe(cycles)
            metrics.gauge("config.resident").set(len(self.loaded))
        drained = self._drain_pending()
        if drained and tracer.enabled:
            tracer.instant("config.drained", "config",
                           args={"loaded": [e.config.name for e in drained]})
        return cycles

    def _rollback(self, entry: LoadedConfig, name: str) -> None:
        for slot in entry.slots:
            self.array.release(slot, name)
        entry.slots = []
        for wire in entry.config.wires:
            self.router.unroute(wire.name)

    def _invalidate_active(self) -> None:
        # the stepper goes stale, but an open session is written back
        # only at the next claim: a load/remove that nothing steps after
        # (a one-shot ``execute``) pays no write-back
        self.version += 1
        self._objects_cache = None
        self._wires_cache = None
        self._stepper = None

    # -- touch protocol ------------------------------------------------------------

    def settle(self) -> None:
        """Bring the live state up to date ahead of an outside access.

        Writes back the open fastpath session, if any, and forgets which
        scheduler's view is current, so whatever steps the array next
        starts from live state.  Every object and wire this manager
        loaded calls this from its ``settle()`` (``set_data``,
        ``reset``, ``reload``, ``flip_bit``, ``diagnose``)."""
        self._stepper = None
        session, self._session = self._session, None
        if session is not None:
            session.materialize()

    def claim(self, scheduler) -> bool:
        """Make ``scheduler`` the one stepping the array.  True when it
        already was and nothing touched the array since, so its cached
        view is current; otherwise settle first and return False."""
        ref = self._stepper
        if ref is not None and ref() is scheduler:
            return True
        self.settle()
        self._stepper = weakref.ref(scheduler)
        return False

    # -- prefetch ----------------------------------------------------------------

    def prefetch(self, config: Configuration, *, removing=()):
        """Warm the fastpath compile cache for a swap that hasn't landed.

        Fig. 10 swaps follow a known script — configuration 2a comes out,
        2b goes in — so the kernel for the post-swap netlist can be
        compiled while 2a is still running (K-PACT-style prefetch: the
        configuration is staged before it is requested).  Builds the
        hypothetical resident set (current objects/wires minus
        ``removing`` configuration names, plus ``config``) and compiles
        it into :mod:`repro.fastpath.cache`; when the swap lands, the
        scheduler's recompile is a cache hit.

        Returns the graph fingerprint, or None when the hypothetical
        netlist is not fastpath-compilable (the swap simply compiles
        nothing ahead; running it falls back exactly as without
        prefetch).
        """
        from repro.fastpath.cache import warmup
        from repro.fastpath.ir import UnsupportedGraphError

        drop = {removing} if isinstance(removing, str) else set(removing)
        objs = [o for name, entry in self.loaded.items() if name not in drop
                for o in entry.config.objects]
        wires = [w for name, entry in self.loaded.items() if name not in drop
                 for w in entry.config.wires]
        objs.extend(config.objects)
        wires.extend(config.wires)
        try:
            fp, hit = warmup(objs, wires)
        except UnsupportedGraphError:
            return None
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("fastpath.prefetch").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(f"config.prefetch:{config.name}", "config",
                           args={"config": config.name,
                                 "fingerprint": fp[:12], "cached": hit})
        return fp

    # -- queries -----------------------------------------------------------------

    def is_loaded(self, name: str) -> bool:
        return name in self.loaded

    def active_objects(self) -> tuple:
        """All objects of resident configurations (cached flat tuple)."""
        objs = self._objects_cache
        if objs is None:
            objs = tuple(o for entry in self.loaded.values()
                         for o in entry.config.objects)
            self._objects_cache = objs
        return objs

    def active_wires(self) -> tuple:
        """All wires of resident configurations (cached flat tuple)."""
        wires = self._wires_cache
        if wires is None:
            wires = tuple(w for entry in self.loaded.values()
                          for w in entry.config.wires)
            self._wires_cache = wires
        return wires

    def occupancy(self) -> dict:
        return self.array.occupancy()


def _wire_endpoints(wire_name: str) -> tuple:
    """Recover (src_object, dst_object) names from a wire's debug name."""
    src, _, dst = wire_name.partition("->")
    return src.rsplit(".", 1)[0], dst.rsplit(".", 1)[0]
