"""Configurations: software-defined netlists of array objects.

A configuration describes the behaviour of a set of processing elements
and the routing between them.  :class:`ConfigBuilder` is the programming
interface the kernels use — it plays the role of the paper's NML entry in
the XPP design flow (Fig. 3), at the Python level.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

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
        """
        for o in self.objects:
            o.reset()
        for w in self.wires:
            w.reset()

    def reload(self, contents: dict) -> None:
        """Replace the configured contents of FIFO/RAM PAEs, then
        :meth:`reset`.

        ``contents`` maps RAM-PAE names (FIFO or RAM mode) to their new
        preloads, checked and wrapped as the constructors do; nothing
        changes when any of them is refused.  This is the paper's
        RAM read-back (Fig. 9): a resident configuration gets new data
        words without a ``load``/``remove``, so the manager's
        ``version`` stays put and schedulers keep their structure.
        """
        images = []
        for name, data in contents.items():
            obj = self.object(name)
            if not isinstance(obj, (RamPae, FifoPae)):
                raise ConfigurationError(
                    f"{self.name}: {name!r} is not a RAM-PAE")
            images.append((obj, obj.image(data)))
        for obj, image in images:
            obj.settle()
            obj._preload = image
        self.reset()

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
