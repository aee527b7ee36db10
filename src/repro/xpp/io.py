"""External I/O ports of the array.

The XPP-64A has four dual-channel I/O ports working in streaming or
RAM-addressing mode.  For simulation, a :class:`StreamSource` feeds a
Python sequence into the array one token per cycle, and a
:class:`StreamSink` collects result tokens.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.fixed import wrap, wrap_list
from repro.xpp.objects import DataflowObject


class StreamSource(DataflowObject):
    """Streams a finite sequence into the array (one token per cycle when
    the consumer is ready)."""

    KIND = "io"
    ENERGY = 0.5

    def __init__(self, name: str, data: Optional[Iterable] = None,
                 *, bits: int = 24):
        super().__init__(name, 0, 1, out_names=["out"])
        self.bits = int(bits)       # reject list/str widths at build time
        self._data: list = []
        self._pos = 0
        if data is not None:
            self.set_data(data)

    def set_data(self, data: Iterable) -> None:
        """Attach (or replace) the sample stream this port will emit."""
        self.settle()
        self._data = wrap_list(data, self.bits)
        self._pos = 0

    def _reset(self) -> None:
        """Rewind to the start of the attached stream."""
        super()._reset()
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _has_work(self) -> bool:
        return not self.exhausted

    def compute(self, args: list) -> list:
        value = self._data[self._pos]
        self._pos += 1
        return [value]


class StreamSink(DataflowObject):
    """Collects tokens leaving the array."""

    KIND = "io"
    ENERGY = 0.5

    def __init__(self, name: str, *, expect: Optional[int] = None):
        super().__init__(name, 1, 0, in_names=["in"])
        self.received: list[Any] = []
        self.expect = expect if expect is None else int(expect)

    @property
    def done(self) -> bool:
        """True once the expected token count has arrived."""
        return self.expect is not None and len(self.received) >= self.expect

    def _reset(self) -> None:
        """Discard collected tokens (configuration reload)."""
        super()._reset()
        self.received = []

    def compute(self, args: list) -> None:
        self.received.append(args[0])
        return None


class MemoryPort(DataflowObject):
    """An I/O port in RAM-addressing mode.

    The XPP's I/O ports can address external memory directly: a read
    side (``raddr`` in -> ``rdata`` out) and a write side (``waddr`` +
    ``wdata`` in) against a host-provided memory image.  Both sides
    fire independently, like a RAM-PAE, but the storage lives outside
    the array.
    """

    KIND = "io"
    ENERGY = 1.0

    def __init__(self, name: str, memory=None, *, size: int = 65536,
                 bits: int = 24):
        super().__init__(name, 3, 1,
                         in_names=["raddr", "waddr", "wdata"],
                         out_names=["rdata"])
        self.bits = bits
        if memory is not None:
            self.memory = wrap_list(memory, bits)
        else:
            self.memory = [0] * size
        self._do_read = False
        self._do_write = False

    def plan(self) -> bool:
        raddr, waddr, wdata = self.inputs
        rdata = self.outputs[0]
        self._do_read = (raddr.bound and raddr.available >= 1
                         and rdata.space >= 1)
        self._do_write = (waddr.bound and waddr.available >= 1
                          and wdata.bound and wdata.available >= 1)
        return self._do_read or self._do_write

    def commit(self) -> None:
        if self._do_read:
            addr = self.inputs[0].pop() % len(self.memory)
            self.outputs[0].push(self.memory[addr])
        if self._do_write:
            addr = self.inputs[1].pop() % len(self.memory)
            self.memory[addr] = wrap(self.inputs[2].pop(), self.bits)
        self.fired += 1

    def compute(self, args):  # pragma: no cover - plan/commit overridden
        raise NotImplementedError
