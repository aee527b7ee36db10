"""Configurations: software-defined netlists of array objects.

A configuration describes the behaviour of a set of processing elements
and the routing between them.  :class:`ConfigBuilder` is the programming
interface the kernels use — it plays the role of the paper's NML entry in
the XPP design flow (Fig. 3), at the Python level.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from repro.xpp.alu import make_alu
from repro.xpp.errors import ConfigurationError
from repro.xpp.io import StreamSink, StreamSource
from repro.xpp.objects import DataflowObject, Probe
from repro.xpp.port import DEFAULT_CAPACITY, Wire
from repro.xpp.ram import FifoPae, RamPae


class Configuration:
    """A named set of array objects plus the wires connecting them."""

    def __init__(self, name: str):
        self.name = name
        self.objects: list[DataflowObject] = []
        self.wires: list[Wire] = []
        self.sources: dict[str, StreamSource] = {}
        self.sinks: dict[str, StreamSink] = {}
        self.probes: dict[str, Probe] = {}
        #: optional placement hints (a :class:`repro.pnr.place.Placement`)
        #: attached by the pnr compiler; the manager honours them
        #: best-effort at load time.
        self.placement = None
        #: members the next run carries (a batched :meth:`reload`), or 0
        self._pending = 0

    # -- composition -----------------------------------------------------------

    def add(self, obj: DataflowObject) -> DataflowObject:
        if any(o.name == obj.name for o in self.objects):
            raise ConfigurationError(
                f"{self.name}: duplicate object name {obj.name!r}")
        self.objects.append(obj)
        if isinstance(obj, StreamSource):
            self.sources[obj.name] = obj
        elif isinstance(obj, StreamSink):
            self.sinks[obj.name] = obj
        elif isinstance(obj, Probe):
            self.probes[obj.name] = obj
        return obj

    def connect(self, src: DataflowObject, src_port, dst: DataflowObject,
                dst_port, *, capacity: int = DEFAULT_CAPACITY) -> Wire:
        """Route ``src.src_port`` to ``dst.dst_port`` (ports by index or name)."""
        out = src.out_port(src_port)
        inp = dst.in_port(dst_port)
        wire = Wire(f"{src.name}.{out.name}->{dst.name}.{inp.name}", capacity)
        out.bind(wire)
        inp.bind(wire)
        self.wires.append(wire)
        return wire

    # -- introspection -----------------------------------------------------------

    def requirements(self) -> Counter:
        """Resource demand by kind: ``{'alu': n, 'ram': m, 'io': k}``."""
        return Counter(o.KIND for o in self.objects if o.KIND is not None)

    def object(self, name: str) -> DataflowObject:
        for o in self.objects:
            if o.name == name:
                return o
        raise KeyError(f"{self.name}: no object named {name!r}")

    def wire(self, name: str) -> Wire:
        for w in self.wires:
            if w.name == name:
                return w
        raise KeyError(f"{self.name}: no wire named {name!r}")

    def reset(self) -> None:
        """Restore every object and wire to its build-time state.

        This is what a configuration *reload* means physically: the
        stored configuration words re-program the claimed PAEs, so
        registers, RAM images and FIFO preloads return to their
        initial values and all in-flight tokens are lost.  Recovery
        policies (:mod:`repro.faults.recovery`) call this before
        re-loading a configuration onto spare resources.

        Settles once, then resets every object and wire without a
        settle each.  An open fastpath session whose whole graph lies
        inside this configuration writes back only what the reset keeps.
        A batched configuration restarts its batch: the next run carries
        every member again.
        """
        for mgr in self._managers():
            mgr.settle(covering=self)
        self._arm()
        self._reset()

    def _batched(self) -> list:
        """The RAM-PAEs holding one image per member."""
        return [o for o in self.objects
                if type(o) is RamPae and o._batch is not None]

    def _arm(self) -> None:
        """Point the batch (if any) back at member 0, pending a run.  A
        batch of one member runs, steps and stops as any configuration
        does."""
        rams = self._batched()
        for ram in rams:
            ram._member = 0
        members = len(rams[0]._batch) if rams else 0
        self._pending = members if members > 1 else 0
        for mgr in self._managers():
            mgr._touched = False

    def _start_member(self, m: int) -> None:
        """Begin member ``m`` of the batch a run carries one member at a
        time: the finished member keeps its RAM images, everything else
        restarts from its configured state, as a reload would."""
        rams = self._batched()
        for mgr in self._managers():
            for ram in rams:
                mgr.settle_ram(ram)
            mgr.settle(covering=self)
        for ram in rams:
            ram._member = m
        self._reset()

    def _spend(self, skipped_resets: int = 0) -> None:
        """Close the batch a run carried: the live state is its last
        member's, and ``skipped_resets`` (the resets of the members a
        shared run carried alongside member 0) are counted."""
        self._pending = 0
        for ram in self._batched():
            ram._member = len(ram._batch) - 1
            ram._mem = ram._members[-1]
        if skipped_resets:
            for x in (*self.objects, *self.wires):
                x.resets += skipped_resets

    def _reset(self) -> None:
        for o in self.objects:
            o._reset()
        for w in self.wires:
            w._reset()

    def _managers(self):
        """The live configuration managers holding this configuration's
        state (one, while it is loaded)."""
        last = None
        for x in (*self.objects, *self.wires):
            ref = x._manager
            if ref is not last and ref is not None:
                last = ref
                mgr = ref()
                if mgr is not None:
                    yield mgr

    def settle(self) -> None:
        """Bring every object's and wire's live state up to date ahead of
        an outside read (:meth:`ConfigurationManager.settle
        <repro.xpp.manager.ConfigurationManager.settle>`)."""
        for mgr in self._managers():
            mgr.settle()

    def reload(self, contents: dict) -> None:
        """Replace the configured contents of FIFO/RAM PAEs, then
        :meth:`reset`.

        ``contents`` maps RAM-PAE names (FIFO or RAM mode) to their new
        preloads, checked and wrapped as the constructors do (an integer
        ndarray wraps in NumPy, an :class:`~repro.xpp.ram.Image` of the
        PAE's width passes as it is); nothing changes when any of them
        is refused.  This is the paper's RAM read-back (Fig. 9): a
        resident configuration gets new data words without a
        ``load``/``remove``, so the manager's ``version`` stays put and
        schedulers keep their structure.

        A RAM-mode PAE also takes a ``(B, words)`` integer array: one
        image per *member*, members differing only there.  The next
        ``Simulator.run`` then carries all B members, observably as B
        reloads of the rows, each followed by that run, in member order
        (summed stats, each member's final image in :attr:`RamPae.mem
        <repro.xpp.ram.RamPae.mem>`, everything else the last member's);
        with more than one member, it cannot be stepped.  FIFO contents
        stay one image, shared.  Every batched RAM of the
        configuration holds the same number of members; a one-image
        reload of a RAM ends its batch.
        """
        images = []
        for name, data in contents.items():
            obj = self.object(name)
            if not isinstance(obj, (RamPae, FifoPae)):
                raise ConfigurationError(
                    f"{self.name}: {name!r} is not a RAM-PAE")
            if isinstance(data, np.ndarray) and data.ndim == 2:
                if not isinstance(obj, RamPae):
                    raise ConfigurationError(
                        f"{self.name}: {name!r} is a FIFO; its contents "
                        f"are one image for every member")
                images.append((obj, obj.images(data)))
            else:
                images.append((obj, obj.image(data)))
        batches = {id(o): len(o._batch) for o in self._batched()}
        for obj, image in images:
            if type(obj) is RamPae:
                batches.pop(id(obj), None)
                if type(image) is list:
                    batches[id(obj)] = len(image)
        if len(set(batches.values())) > 1:
            raise ConfigurationError(
                f"{self.name}: batched RAMs disagree on the member count")
        for mgr in self._managers():
            mgr.settle(covering=self)
        for obj, image in images:
            if type(image) is list:         # one image per member
                obj._batch = image
                obj._preload = image[0]
            else:
                if type(obj) is RamPae:
                    obj._batch = None
                obj._preload = image
        self._arm()
        self._reset()

    def validate(self) -> None:
        """Check the netlist is runnable: inputs that an object's firing
        rule waits on must be driven."""
        from repro.xpp.io import MemoryPort
        for o in self.objects:
            if isinstance(o, (RamPae, FifoPae, MemoryPort)):
                continue    # ports are optional by design
            required = o.inputs
            if isinstance(o, StreamSource):
                required = []
            for p in required:
                if not p.bound and not self._optional_input(o, p):
                    raise ConfigurationError(
                        f"{self.name}: {o.name}.{p.name} is unconnected")

    @staticmethod
    def _optional_input(obj: DataflowObject, port) -> bool:
        from repro.xpp.alu import BinaryAlu
        if isinstance(obj, BinaryAlu) and port.name == "b":
            return obj.const is not None
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        req = dict(self.requirements())
        return f"<Configuration {self.name!r} {req}>"


class ConfigBuilder:
    """Fluent construction of a :class:`Configuration`.

    Example::

        b = ConfigBuilder("mac")
        src = b.source("x")
        mul = b.alu("MUL", const=3)
        snk = b.sink("y")
        b.chain(src, mul, snk)
        cfg = b.build()
    """

    def __init__(self, name: str):
        self._cfg = Configuration(name)
        self._auto = 0

    def _name(self, prefix: str, name: Optional[str]) -> str:
        if name is not None:
            return name
        self._auto += 1
        return f"{prefix}{self._auto}"

    def alu(self, opcode: str, name: Optional[str] = None, **params):
        """Add an ALU-PAE with the given opcode."""
        return self._cfg.add(make_alu(self._name(opcode.lower(), name),
                                      opcode, **params))

    def ram(self, name: Optional[str] = None, **params) -> RamPae:
        """Add a RAM-PAE in RAM mode."""
        return self._cfg.add(RamPae(self._name("ram", name), **params))

    def fifo(self, name: Optional[str] = None, **params) -> FifoPae:
        """Add a RAM-PAE in FIFO mode."""
        return self._cfg.add(FifoPae(self._name("fifo", name), **params))

    def source(self, name: str, data=None, *, bits: int = 24) -> StreamSource:
        """Add an external input stream."""
        return self._cfg.add(StreamSource(name, data, bits=bits))

    def sink(self, name: str, *, expect: Optional[int] = None) -> StreamSink:
        """Add an external output stream."""
        return self._cfg.add(StreamSink(name, expect=expect))

    def probe(self, name: str) -> Probe:
        """Add a zero-cost wire probe (simulation-only)."""
        return self._cfg.add(Probe(name))

    def connect(self, src, src_port, dst, dst_port, **kw) -> Wire:
        return self._cfg.connect(src, src_port, dst, dst_port, **kw)

    def chain(self, *objs, capacity: int = DEFAULT_CAPACITY) -> None:
        """Connect ``objs[i].out0 -> objs[i+1].in0`` along the list."""
        for a, b in zip(objs, objs[1:]):
            self._cfg.connect(a, 0, b, 0, capacity=capacity)

    def build(self) -> Configuration:
        self._cfg.validate()
        return self._cfg
